"""Plane-indexed su(2) generators and rank-one projector frames.

For an N-level system, every index pair (j, k) with j < k spans a
two-dimensional plane carrying Pauli-like generators S_0..S_3. Adding S_a
to S_0 gives the rank-one projector onto the +1/2 eigenvector of S_a; the
family of those projectors over all planes and axes a in {1, 2, 3} is the
measurement frame the dichotomic codec evaluates against. A rotated frame
mixes the axis triple of every plane by one SO(3) matrix R, so its axis-a
projector is S_0 + sum_b R[b, a] S_b. A frame is only its dimension and
rotation; the codec evaluates it in closed form, and the dense projectors
are built on request.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, NotSpecial

ORTHO_TOL = 1e-12
AXES = (1, 2, 3)
IDENTITY = np.eye(3)
IDENTITY.setflags(write=False)
_NUMBERS = (int, float, np.integer, np.floating)


@dataclass(frozen=True, order=True)
class PlaneIndex:
    """Ordered index pair 1 <= j < k <= N selecting a two-level plane."""

    j: int
    k: int

    def __post_init__(self):
        if not (1 <= self.j < self.k):
            raise DimensionMismatch(f"plane needs 1 <= j < k, got ({self.j}, {self.k})")


def planes(dim: int) -> list[PlaneIndex]:
    """All planes of an N-level system in lexicographic order."""
    return [PlaneIndex(j, k) for j in range(1, dim) for k in range(j + 1, dim + 1)]


@functools.lru_cache(maxsize=64)
def plane_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based row and column arrays of the planes, in the order of planes()."""
    j, k = np.triu_indices(dim, 1)
    j.setflags(write=False)
    k.setflags(write=False)
    return j, k


def su2_generators(dim: int, plane: PlaneIndex):
    """The four Hermitian generators (S0, S1, S2, S3) acting in a plane.

    S1, S2, S3 each have eigenvalues +1/2, -1/2 and zeros elsewhere; they
    are pairwise orthogonal under Tr(A^dag B) with common norm 1/sqrt(2).
    """
    if plane.k > dim:
        raise DimensionMismatch(f"plane {plane} exceeds dim {dim}")
    j, k = plane.j - 1, plane.k - 1
    s0 = np.zeros((dim, dim), dtype=np.complex128)
    s1 = np.zeros((dim, dim), dtype=np.complex128)
    s2 = np.zeros((dim, dim), dtype=np.complex128)
    s3 = np.zeros((dim, dim), dtype=np.complex128)
    s0[j, j] = s0[k, k] = 0.5
    s1[j, k] = s1[k, j] = 0.5
    s2[j, k] = -0.5j
    s2[k, j] = 0.5j
    s3[j, j] = 0.5
    s3[k, k] = -0.5
    return s0, s1, s2, s3


def check_rotation(rotation) -> np.ndarray:
    """Validate a 3x3 special orthogonal matrix of real numbers; return it as float64."""
    if not (isinstance(rotation, np.ndarray) and rotation.dtype.kind in "iuf"):
        entries = np.asarray(rotation, dtype=object).flat
        if not all(isinstance(x, _NUMBERS) and not isinstance(x, bool) for x in entries):
            raise DimensionMismatch("rotation entries must be numbers, not strings or booleans")
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise DimensionMismatch(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise DimensionMismatch("rotation entries must be finite")
    if np.abs(r.T @ r - np.eye(3)).max() > ORTHO_TOL:
        raise NotOrthogonal("R^T R differs from identity beyond tolerance")
    if abs(np.linalg.det(r) - 1.0) > 1e-10:
        raise NotSpecial(f"det R = {np.linalg.det(r)!r}, expected +1")
    return r


class ProjectorFrame:
    """The frame of one dimension and one rotation, stored as just those two.

    The codec evaluates frames in closed form; `projector` and `items`
    build the dense rank-one projectors on request, as the definition and
    as a test oracle. Identity-frame axis-3 projectors are E_jj for every k.
    """

    def __init__(self, dim: int, rotation=None):
        if dim < 2:
            raise DimensionMismatch(f"frames need dim >= 2, got {dim}")
        if rotation is None:
            rot = IDENTITY
        else:
            # private copy: check_rotation may hand back the caller's array
            rot = check_rotation(rotation).copy()
            rot.setflags(write=False)
        self.dim = dim
        self.rotation = rot

    @property
    def planes(self) -> list[PlaneIndex]:
        return planes(self.dim)

    def projector(self, plane: PlaneIndex, axis: int) -> np.ndarray:
        """S_0 + sum_b R[b, axis] S_b: the rotated axis' +1/2 projector."""
        if axis not in AXES:
            raise DimensionMismatch(f"axis must be in {AXES}, got {axis}")
        s0, *gens = su2_generators(self.dim, plane)
        proj = s0 + sum(self.rotation[b, axis - 1] * gens[b] for b in range(3))
        proj.setflags(write=False)
        return proj

    def items(self):
        for plane in self.planes:
            for a in AXES:
                yield plane, a, self.projector(plane, a)


def build_frame(dim: int, rotation=None) -> ProjectorFrame:
    """The frame of this dimension and rotation (identity when None)."""
    return ProjectorFrame(dim, rotation)
