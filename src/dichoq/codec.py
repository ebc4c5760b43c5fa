"""Bidirectional map between density matrices and dichotomic probabilities.

Every probability of plane (j, k) is linear in that plane's 2x2 block of
rho. With t = (Re rho_jk, -Im rho_jk, (rho_jj - rho_kk)/2) and the frame
rotation R, axis a gives p_a = (rho_jj + rho_kk)/2 + sum_b R[b, a] t_b,
which equals Tr(rho P) for the frame projector P; encoding evaluates that
closed form for all planes at once, identity frame or rotated. The
identity frame's axis-3 probability is rho_jj for every k, so only N-1
diagonal probabilities are independent, and a rotated frame takes row j's
from plane (j, j+1). Tables hold p1 and p2 as read-only arrays over the
planes in lexicographic order (np.triu_indices(N, 1)) and p3 as an array
of N-1 values. Decoding inverts the identity map in closed form and
always returns a Hermitian trace-one matrix; positivity is a separate
validation concern.

Table JSON schema:

    {"dim": N, "p3": [..N-1 reals..],
     "planes": [{"j": 1, "k": 2, "p1": x, "p2": y}, ...]}   # lexicographic
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    TableInvariantError,
)
from .frames import IDENTITY, ProjectorFrame, build_frame, plane_indices
from .matcore import DensityMatrix, HermitianMatrix, json_dim, json_number
from .report import InequalityReport

PROB_TOL = 1e-10
BALL_BOUND = 0.25
LABELS = ("p1", "p2", "p3")


def _names_outside(dim: int, arrays, lo: float, hi: float) -> list[str]:
    """Names, as p1(j, k), p2(j, k) or p3[j], of the entries outside [lo, hi]."""
    j, k = plane_indices(dim)
    names = []
    for label, values in zip(LABELS, arrays):
        for i in np.flatnonzero(~((values >= lo) & (values <= hi))):
            names.append(f"p3[{i + 1}]" if label == "p3" else f"{label}({j[i] + 1}, {k[i] + 1})")
    return names


@dataclass(frozen=True, eq=False)
class DichotomicTable:
    """The N^2 - 1 dichotomic probabilities describing one state.

    p1[i] and p2[i] belong to the i-th plane in lexicographic order and
    p3[j] to row j + 1; all three are stored as read-only float arrays.
    """

    dim: int
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray

    def __post_init__(self):
        n = self.dim
        if n < 2:
            raise TableInvariantError(f"tables need dim >= 2, got {n}")
        shapes = [(n * (n - 1) // 2,)] * 2 + [(n - 1,)]
        arrays = [np.array(getattr(self, label), dtype=float) for label in LABELS]
        if [values.shape for values in arrays] != shapes:
            raise TableInvariantError(f"dim {n} needs (p1, p2, p3) of shapes {shapes}")
        flat = np.concatenate(arrays)
        # min/max are NaN when any entry is, which fails both comparisons
        if not (flat.min() >= 0.0 and flat.max() <= 1.0):
            names = ", ".join(_names_outside(n, arrays, 0.0, 1.0))
            raise TableInvariantError(f"outside [0, 1]: {names}")
        for label, values in zip(LABELS, arrays):
            values.setflags(write=False)
            object.__setattr__(self, label, values)

    def require_decodable(self) -> None:
        """Check the diagonal-sum constraint of canonical tables.

        Identity-frame tables store matrix diagonal entries, whose partial
        sum cannot exceed 1; a rotated frame's diagonal probabilities come
        from different projectors per plane and carry no such bound, so
        the constraint applies where a table is about to be inverted, not
        at construction.
        """
        if sum(self.p3.tolist()) > 1.0 + PROB_TOL:
            raise TableInvariantError("diagonal probabilities sum beyond 1")

    @property
    def parameter_count(self) -> int:
        return self.p1.size + self.p2.size + self.p3.size

    def diagonal(self) -> np.ndarray:
        """Full diagonal of the decoded matrix, last entry from the trace."""
        head = self.p3.tolist()
        return np.array(head + [1.0 - sum(head)])

    def to_json_dict(self) -> dict:
        j, k = plane_indices(self.dim)
        rows = zip(j.tolist(), k.tolist(), self.p1.tolist(), self.p2.tolist())
        records = [{"j": a + 1, "k": b + 1, "p1": x, "p2": y} for a, b, x, y in rows]
        return {"dim": self.dim, "p3": self.p3.tolist(), "planes": records}


def _plane_position(dim: int, j, k) -> int:
    """Lexicographic position of plane (j, k), 1-based JSON integers."""
    j, k = json_number(j, integer=True), json_number(k, integer=True)
    if not (1 <= j < k <= dim):
        raise TableInvariantError(f"plane ({j}, {k}) needs 1 <= j < k <= {dim}")
    return (j - 1) * dim - (j - 1) * j // 2 + (k - j - 1)


def table_from_json_dict(payload: dict) -> DichotomicTable:
    dim = json_dim(payload["dim"])
    p3 = [json_number(v) for v in payload["p3"]]
    if len(p3) != dim - 1:
        raise TableInvariantError(f"p3 must have {dim - 1} entries, got {len(p3)}")
    records = payload["planes"]
    positions = [_plane_position(dim, rec["j"], rec["k"]) for rec in records]
    plane_count = dim * (dim - 1) // 2
    if sorted(positions) != list(range(plane_count)):
        raise TableInvariantError(
            f"planes must list each of the {plane_count} planes once, "
            f"got {len(records)} records"
        )
    p1, p2 = np.empty((2, plane_count))
    p1[positions] = [json_number(rec["p1"]) for rec in records]
    p2[positions] = [json_number(rec["p2"]) for rec in records]
    table = DichotomicTable(dim, p1, p2, p3)
    table.require_decodable()
    return table


def raw_probabilities(mat: np.ndarray, rotation: np.ndarray = IDENTITY):
    """Unclamped (p1, p2, p3) of a Hermitian array in the frame rotated by R.

    p1 and p2 follow the closed form of the module docstring. Axis 3 is
    evaluated on the planes (j, j+1) only, written as rho_jj (1 + R33)/2 +
    rho_kk (1 - R33)/2 + R13 t1 + R23 t2 so that the identity frame gives
    p3 = rho_jj exactly. The audit suites use these values unclamped, so
    they see out-of-range probabilities of near-states.
    """
    j, k = plane_indices(mat.shape[0])
    d = mat.diagonal().real
    dj, dk = d[j], d[k]
    off = mat[j, k]
    t = np.array((off.real, -off.imag, (dj - dk) / 2.0))
    p1, p2 = (dj + dk) / 2.0 + rotation[:, :2].T @ t
    r13, r23, r33 = rotation[:, 2].tolist()
    sup = mat.diagonal(1)
    p3 = d[:-1] * ((1.0 + r33) / 2.0) + d[1:] * ((1.0 - r33) / 2.0)
    p3 = p3 + r13 * sup.real - r23 * sup.imag
    return p1, p2, p3


def clamp_probabilities(dim: int, raw):
    """Clip raw (p1, p2, p3) into [0, 1] and name the entries beyond PROB_TOL."""
    names = []
    flat = np.concatenate(raw)
    if flat.min() < -PROB_TOL or flat.max() > 1.0 + PROB_TOL:
        names = _names_outside(dim, raw, -PROB_TOL, 1.0 + PROB_TOL)
    # adding 0.0 turns a -0.0 that clip lets through into 0.0
    flat = flat.clip(0.0, 1.0) + 0.0
    m = len(raw[0])
    return (flat[:m], flat[m : 2 * m], flat[2 * m :]), names


def encode(rho: DensityMatrix, frame: ProjectorFrame | None = None) -> DichotomicTable:
    """Dichotomic probabilities p = Tr(rho P) over a frame, in closed form.

    The frame (identity rotation by default) contributes only its rotation;
    see raw_probabilities. Values beyond PROB_TOL outside [0, 1] cannot
    come from a valid state and raise; smaller excursions are clipped.
    """
    n = rho.dim
    if frame is None:
        frame = build_frame(n)
    if frame.dim != n:
        raise DimensionMismatch(f"state dim {n} vs frame dim {frame.dim}")
    (p1, p2, p3), clamped = clamp_probabilities(
        n, raw_probabilities(rho.entries, frame.rotation)
    )
    if clamped:
        raise InternalInvariantViolation(
            f"probabilities out of range: {', '.join(clamped)}"
        )
    return DichotomicTable(n, p1, p2, p3)


def decode(table: DichotomicTable) -> HermitianMatrix:
    """Reconstruct the Hermitian trace-one matrix behind a table.

    Diagonal entries are the stored p3 rows with the last one fixed by the
    unit trace; each off-diagonal entry is rho_jk = (p1 - s/2) - i (p2 - s/2)
    with s = rho_jj + rho_kk. Total on valid tables - the result need not
    be positive.
    """
    n = table.dim
    j, k = plane_indices(n)
    diag = table.diagonal()
    half = (diag[j] + diag[k]) / 2.0
    off = (table.p1 - half) - 1j * (table.p2 - half)
    mat = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(mat, diag)
    mat[j, k] = off
    mat[k, j] = off.conj()
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
    lhs = sum((float(values[0]) - 0.5) ** 2 for values in (table.p1, table.p2, table.p3))
    report = InequalityReport()
    report.add("qubit_ball", lhs, BALL_BOUND, BALL_BOUND - lhs)
    return report


def rotate_table(rho: DensityMatrix, rotation) -> DichotomicTable:
    """Table of the state measured against the rotated projector frame."""
    return encode(rho, build_frame(rho.dim, rotation))
