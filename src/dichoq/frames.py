"""Plane-indexed su(2) generators and rank-one projector frames.

For an N-level system, every index pair (j, k) with j < k spans a
two-dimensional plane carrying Pauli-like generators S_0..S_3. Adding S_a
to S_0 gives the rank-one projector onto the +1/2 eigenvector of S_a; the
family of those projectors over all planes and axes a in {1, 2, 3} is the
measurement frame the dichotomic codec evaluates against. Frames may be
rotated by a common SO(3) rotation applied to the axis triple in every
plane. A frame is only its dimension and rotation; the codec evaluates it
in closed form, and the dense projectors are built on request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, NotSpecial

ORTHO_TOL = 1e-12
AXES = (1, 2, 3)
IDENTITY = np.eye(3)
IDENTITY.setflags(write=False)


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


def weyl_unit(dim: int, j: int, k: int) -> np.ndarray:
    """Matrix unit E_jk (1-based indices): 1 at row j, column k."""
    if not (1 <= j <= dim and 1 <= k <= dim):
        raise DimensionMismatch(f"indices ({j}, {k}) out of range for dim {dim}")
    e = np.zeros((dim, dim), dtype=np.complex128)
    e[j - 1, k - 1] = 1.0
    return e


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
    """Validate a 3x3 special orthogonal matrix and return it as float64."""
    try:
        r = np.asarray(rotation, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"rotation entries must be numbers: {exc}") from exc
    if r.shape != (3, 3):
        raise DimensionMismatch(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise DimensionMismatch("rotation entries must be finite")
    if np.abs(r.T @ r - np.eye(3)).max() > ORTHO_TOL:
        raise NotOrthogonal("R^T R differs from identity beyond tolerance")
    if abs(np.linalg.det(r) - 1.0) > 1e-10:
        raise NotSpecial(f"det R = {np.linalg.det(r)!r}, expected +1")
    return r


def rotation_axis_angle(rotation) -> tuple[np.ndarray, float]:
    """Axis (unit vector) and angle in [0, pi] of a special orthogonal R.

    At angle pi the axis sign is degenerate; the axis is then taken from
    the dominant column of (R + I)/2, which is deterministic and stable.
    """
    r = check_rotation(rotation)
    cos_theta = (np.trace(r) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    theta = math.acos(cos_theta)
    if theta < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    if math.pi - theta < 1e-6:
        b = (r + np.eye(3)) / 2.0
        col = int(np.argmax(np.diagonal(b)))
        axis = b[:, col]
        axis = axis / np.linalg.norm(axis)
        return axis, math.pi
    axis = np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    ) / (2.0 * math.sin(theta))
    return axis / np.linalg.norm(axis), theta


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues form of the rotation by `angle` about unit vector `axis`."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    kmat = np.array(
        [[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * kmat + (1.0 - math.cos(angle)) * (kmat @ kmat)


def su2_lift(rotation) -> np.ndarray:
    """The 2x2 special unitary covering R: U (x.sigma) U^dag = (Rx).sigma.

    Computed in closed form from the axis-angle decomposition,
    U = cos(theta/2) I - i sin(theta/2) (n.sigma).
    """
    axis, theta = rotation_axis_angle(rotation)
    nx, ny, nz = axis
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c - 1j * s * nz, -1j * s * nx - s * ny],
            [-1j * s * nx + s * ny, c + 1j * s * nz],
        ],
        dtype=np.complex128,
    )


def embed_plane_unitary(dim: int, plane: PlaneIndex, u2: np.ndarray) -> np.ndarray:
    """Embed a 2x2 unitary into the (j, k) plane of an N x N identity."""
    u = np.eye(dim, dtype=np.complex128)
    j, k = plane.j - 1, plane.k - 1
    u[j, j] = u2[0, 0]
    u[j, k] = u2[0, 1]
    u[k, j] = u2[1, 0]
    u[k, k] = u2[1, 1]
    return u


class ProjectorFrame:
    """The frame of one dimension and one rotation, stored as just those two.

    The codec evaluates frames in closed form; `projector` and `items`
    build the dense rank-one projectors on request, as the definition and
    as a test oracle. Identity-frame axis-3 projectors are E_jj for every
    k; rotated frames conjugate each plane's by the su(2) lift of R.
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


def frame_count_check(dim: int) -> tuple[int, int]:
    """Number of planes and of independent dichotomic parameters.

    N(N-1)/2 planes carry two off-diagonal probabilities each, plus N-1
    independent diagonal ones: (N-1)(N+1) = N^2 - 1 parameters in total.
    """
    if dim < 2:
        raise DimensionMismatch(f"need dim >= 2, got {dim}")
    n_planes = dim * (dim - 1) // 2
    return n_planes, dim * dim - 1
