"""Measurement frames: one SO(3) rotation shared by every two-level plane.

For an N-level system every index pair (j, k) with j < k spans a
two-level plane carrying su(2) generators S_0..S_3 (half the Pauli
matrices, written into rows and columns j and k). The dichotomic
probability of axis a is Tr(rho P) with the rank-one projector
P = S_0 + S_a; a rotated frame mixes every plane's axis triple by one
SO(3) matrix R, so its axis-a projector is S_0 + sum_b R[b, a] S_b. The
codec evaluates Tr(rho P) in closed form from each plane's 2x2 block, so a
frame is only its dimension and rotation, and no projector is ever built.
Planes are ordered lexicographically, as np.triu_indices(N, 1) lists them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, NotSpecial

ORTHO_TOL = 1e-12
IDENTITY = np.eye(3)
IDENTITY.setflags(write=False)
_NUMBERS = (int, float, np.integer, np.floating)


@functools.lru_cache(maxsize=64)
def plane_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based row and column arrays of the planes (j, k), j < k, in lexicographic order."""
    j, k = np.triu_indices(dim, 1)
    j.setflags(write=False)
    k.setflags(write=False)
    return j, k


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

    encode reads only `rotation` (read-only; IDENTITY when None). The
    benchmark's tracer (bench/tracing.py) wraps `frames.build_frame`,
    `codec.build_frame` and `ProjectorFrame.__init__` by name, so the class
    and `build_frame` stay until the tracer stops wrapping them; only then can
    encode take a checked rotation directly.
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


def build_frame(dim: int, rotation=None) -> ProjectorFrame:
    """The frame of this dimension and rotation (identity when None)."""
    return ProjectorFrame(dim, rotation)
