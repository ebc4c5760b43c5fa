"""Bidirectional map between density matrices and dichotomic probabilities.

Encoding evaluates each frame projector against the state, giving one
two-outcome distribution (p, 1-p) per (plane, axis). The diagonal-axis
projector of plane (j, k) is E_jj for every k, so only N-1 diagonal
probabilities are independent; the table stores them keyed by row index
alone, which bakes the degeneracy into the data layout. Decoding inverts
the map in closed form and always returns a Hermitian trace-one matrix;
positivity is a separate validation concern.

Table JSON schema:

    {"dim": N, "p3": [..N-1 reals..],
     "planes": [{"j": 1, "k": 2, "p1": x, "p2": y}, ...]}   # lexicographic
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    TableInvariantError,
)
from .frames import PlaneIndex, ProjectorFrame, build_frame, planes
from .matcore import DensityMatrix, HermitianMatrix
from .report import InequalityReport

PROB_TOL = 1e-10
BALL_BOUND = 0.25


@dataclass(frozen=True)
class DichotomicTable:
    """The N^2 - 1 dichotomic probabilities describing one state."""

    dim: int
    p1: dict[tuple[int, int], float]
    p2: dict[tuple[int, int], float]
    p3: dict[int, float]

    def __post_init__(self):
        n = self.dim
        expected = {(p.j, p.k) for p in planes(n)}
        if set(self.p1) != expected or set(self.p2) != expected:
            raise TableInvariantError("p1/p2 must cover exactly the planes j < k")
        if set(self.p3) != set(range(1, n)):
            raise TableInvariantError("p3 must be keyed by rows 1..N-1")
        for label, mapping in (("p1", self.p1), ("p2", self.p2), ("p3", self.p3)):
            for key, value in mapping.items():
                if not (0.0 <= value <= 1.0):
                    raise TableInvariantError(
                        f"{label}[{key}] = {value!r} outside [0, 1]"
                    )

    def require_decodable(self) -> None:
        """Check the diagonal-sum constraint of canonical tables.

        Identity-frame tables store matrix diagonal entries, whose partial
        sum cannot exceed 1; a rotated frame's diagonal probabilities come
        from different projectors per plane and carry no such bound, so
        the constraint applies where a table is about to be inverted, not
        at construction.
        """
        if sum(self.p3.values()) > 1.0 + PROB_TOL:
            raise TableInvariantError("diagonal probabilities sum beyond 1")

    @property
    def parameter_count(self) -> int:
        return len(self.p1) + len(self.p2) + len(self.p3)

    def diagonal(self) -> np.ndarray:
        """Full diagonal of the decoded matrix, last entry from the trace."""
        head = [self.p3[j] for j in range(1, self.dim)]
        return np.array(head + [1.0 - sum(head)])

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "p3": [float(self.p3[j]) for j in range(1, self.dim)],
            "planes": [
                {
                    "j": p.j,
                    "k": p.k,
                    "p1": float(self.p1[(p.j, p.k)]),
                    "p2": float(self.p2[(p.j, p.k)]),
                }
                for p in planes(self.dim)
            ],
        }


def table_from_json_dict(payload: dict) -> DichotomicTable:
    dim = operator.index(payload["dim"])
    p3_list = payload["p3"]
    if len(p3_list) != dim - 1:
        raise TableInvariantError(f"p3 must have {dim - 1} entries, got {len(p3_list)}")
    p3 = {j + 1: float(v) for j, v in enumerate(p3_list)}
    plane_count = dim * (dim - 1) // 2
    if len(payload["planes"]) != plane_count:
        raise TableInvariantError(
            f"planes must list each of the {plane_count} planes once, "
            f"got {len(payload['planes'])} records"
        )
    p1: dict[tuple[int, int], float] = {}
    p2: dict[tuple[int, int], float] = {}
    for rec in payload["planes"]:
        key = (int(rec["j"]), int(rec["k"]))
        p1[key] = float(rec["p1"])
        p2[key] = float(rec["p2"])
    table = DichotomicTable(dim, p1, p2, p3)
    table.require_decodable()
    return table


@dataclass(frozen=True)
class AuxiliaryQubit:
    """Two-level carrier of one off-diagonal matrix element.

    Hermitian with unit trace by construction; positivity is not part of
    the contract, so the minimum eigenvalue is exposed for diagnostics
    only.
    """

    plane: PlaneIndex
    matrix: np.ndarray

    def off_diagonal(self) -> complex:
        return complex(self.matrix[0, 1])

    def min_eigenvalue(self) -> float:
        half_gap = abs(self.matrix[0, 0] - self.matrix[1, 1]) / 2.0
        radius = np.hypot(float(half_gap), abs(self.matrix[0, 1]))
        return float(self.matrix.trace().real / 2.0 - radius)


def raw_probabilities(mat: np.ndarray):
    """Unclamped dichotomic probabilities of a Hermitian array.

    Returns (p1, p2, p3) with p1/p2 keyed by plane and p3 by row index.
    Used by the audit suites, which must see out-of-range values instead
    of having them clamped away.
    """
    n = mat.shape[0]
    p1 = {}
    p2 = {}
    for plane in planes(n):
        j, k = plane.j - 1, plane.k - 1
        half_sum = 0.5 * (mat[j, j].real + mat[k, k].real)
        p1[(plane.j, plane.k)] = half_sum + mat[j, k].real
        p2[(plane.j, plane.k)] = half_sum - mat[j, k].imag
    p3 = {j: float(mat[j - 1, j - 1].real) for j in range(1, n)}
    return p1, p2, p3


def _checked_clamp(value: float, context: str) -> float:
    if value < -PROB_TOL or value > 1.0 + PROB_TOL:
        raise InternalInvariantViolation(
            f"probability {value!r} out of range for {context}"
        )
    return min(1.0, max(0.0, value))


def encode(rho: DensityMatrix, frame: ProjectorFrame | None = None) -> DichotomicTable:
    """Dichotomic probabilities p = Tr(rho P) over a projector frame.

    With the default identity-rotation frame the probabilities come from
    the closed forms p1 = (rho_jj + rho_kk)/2 + Re rho_jk, p2 = ... -
    Im rho_jk, p3 = rho_jj. A rotated frame is evaluated by explicit
    traces; its diagonal probabilities lose the k-independence, so p3 is
    taken from the (j, j+1) plane for each row j.
    """
    mat = rho.entries
    n = rho.dim
    if frame is None:
        frame = build_frame(n)
    if frame.dim != n:
        raise DimensionMismatch(f"state dim {n} vs frame dim {frame.dim}")

    if frame.is_identity_rotation:
        raw1, raw2, raw3 = raw_probabilities(mat)
    else:
        raw1, raw2, raw3 = {}, {}, {}
        for plane in frame.planes:
            key = (plane.j, plane.k)
            raw1[key] = float(np.einsum("ij,ji->", mat, frame.projector(plane, 1)).real)
            raw2[key] = float(np.einsum("ij,ji->", mat, frame.projector(plane, 2)).real)
            p3_val = float(np.einsum("ij,ji->", mat, frame.projector(plane, 3)).real)
            if plane.k == plane.j + 1:
                raw3[plane.j] = p3_val

    p1 = {key: _checked_clamp(v, f"p1{key}") for key, v in raw1.items()}
    p2 = {key: _checked_clamp(v, f"p2{key}") for key, v in raw2.items()}
    p3 = {j: _checked_clamp(v, f"p3[{j}]") for j, v in raw3.items()}
    return DichotomicTable(n, p1, p2, p3)


def auxiliary_qubit(table: DichotomicTable, plane: PlaneIndex) -> AuxiliaryQubit:
    """Two-level state whose (1, 2) entry is the decoded rho_jk.

    Built as S0 + (2 p1 - s) S1 + (2 p2 - s) S2 on the plane's generators,
    s being the pair of diagonal probabilities; diagonal entries are 1/2.
    """
    if plane.k > table.dim:
        raise DimensionMismatch(f"plane {plane} exceeds table dim {table.dim}")
    diag = table.diagonal()
    s = diag[plane.j - 1] + diag[plane.k - 1]
    key = (plane.j, plane.k)
    re = table.p1[key] - s / 2.0
    im = table.p2[key] - s / 2.0
    off = re - 1j * im
    mat = np.array([[0.5, off], [np.conj(off), 0.5]], dtype=np.complex128)
    mat.setflags(write=False)
    return AuxiliaryQubit(plane, mat)


def decode(table: DichotomicTable) -> HermitianMatrix:
    """Reconstruct the Hermitian trace-one matrix behind a table.

    Diagonal entries are the stored p3 rows with the last one fixed by the
    unit trace; each off-diagonal entry is read from the plane's auxiliary
    qubit. Total on valid tables - the result need not be positive.
    """
    n = table.dim
    mat = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(mat, table.diagonal())
    for plane in planes(n):
        off = auxiliary_qubit(table, plane).off_diagonal()
        mat[plane.j - 1, plane.k - 1] = off
        mat[plane.k - 1, plane.j - 1] = np.conj(off)
    mat.setflags(write=False)
    return HermitianMatrix(mat)


def qubit_ball_check(table: DichotomicTable) -> InequalityReport:
    """Bloch-ball constraint for two-level tables.

    The squared distance of (p1, p2, p3) from the table's center (1/2,
    1/2, 1/2) must not exceed 1/4; pure states saturate the bound, so the
    check's `saturated` flag doubles as a purity witness.
    """
    if table.dim != 2:
        raise DimensionMismatch(f"ball check needs dim 2, got {table.dim}")
    lhs = (
        (table.p1[(1, 2)] - 0.5) ** 2
        + (table.p2[(1, 2)] - 0.5) ** 2
        + (table.p3[1] - 0.5) ** 2
    )
    report = InequalityReport()
    report.add("qubit_ball", lhs, BALL_BOUND, BALL_BOUND - lhs)
    return report


def rotate_table(rho: DensityMatrix, rotation) -> DichotomicTable:
    """Table of the state measured against the rotated projector frame."""
    return encode(rho, build_frame(rho.dim, rotation))
