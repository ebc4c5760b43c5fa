"""Dense complex-matrix foundation.

Hermitian matrices and density matrices as validated value types, their
spectra from LAPACK through numpy, determinant and purity, and the JSON
schema for matrices:

    {"dim": N, "entries": [[re, im], ...]}   # row-major, N^2 pairs
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    NotTraceOne,
)

TOL_HERM = 1e-12
TOL_TRACE = 1e-12
TOL_PSD = 1e-10


def _as_complex_array(entries, dim: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.size != dim * dim:
        raise DimensionMismatch(
            f"expected {dim * dim} entries for dim {dim}, got {arr.size}"
        )
    arr = arr.reshape(dim, dim)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DimensionMismatch("entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Immutable N x N complex matrix equal to its conjugate transpose."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.entries
        return self.entries.astype(dtype)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, trace one, positive semidefinite.

    Carries the eigenvalue vector computed during validation (descending,
    clamped to [0, 1]) so downstream spectral queries need no second solve.
    """

    matrix: HermitianMatrix
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    def __array__(self, dtype=None, copy=None):
        return self.matrix.__array__(dtype)


@dataclass(frozen=True, eq=False)
class EigenProbability:
    """Eigenvalues of a state, sorted descending: a probability vector."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals < -TOL_PSD) or np.any(vals > 1.0 + TOL_PSD):
            raise NotPositive(float(vals.min()))
        if abs(vals.sum() - 1.0) > 1e-10:
            raise NotTraceOne(float(vals.sum()))
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigen-probabilities must be sorted descending")
        clamped = np.clip(vals, 0.0, 1.0)
        clamped.setflags(write=False)
        object.__setattr__(self, "values", clamped)

    def __len__(self) -> int:
        return len(self.values)


def make_hermitian(dim: int, entries) -> HermitianMatrix:
    """Build a HermitianMatrix, symmetrizing sub-tolerance asymmetry.

    Deviations from conjugate symmetry below TOL_HERM are averaged away;
    anything larger raises NotHermitian with the worst deviation.
    """
    if dim < 2:
        raise DimensionMismatch(f"dim must be >= 2, got {dim}")
    arr = _as_complex_array(entries, dim)
    deviation = float(np.abs(arr - arr.conj().T).max())
    if deviation > TOL_HERM:
        raise NotHermitian(deviation)
    sym = (arr + arr.conj().T) / 2.0
    sym.setflags(write=False)
    return HermitianMatrix(sym)


def _sorted_spectrum(vals: np.ndarray, vecs: np.ndarray | None):
    order = np.argsort(-vals, kind="stable")
    if vecs is None:
        return vals[order], None
    return vals[order], vecs[:, order]


def eig_hermitian(m: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and unitary eigenvector matrix of m.

    Reconstruction U diag(w) U^dag reproduces m to solver accuracy; ties in
    the ordering keep the solver's subspace order.
    """
    try:
        vals, vecs = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _sorted_spectrum(vals, vecs)


def eigvals_hermitian(m: HermitianMatrix) -> np.ndarray:
    """Descending eigenvalues only (skips eigenvector accumulation)."""
    try:
        vals = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _sorted_spectrum(vals, None)[0]


def determinant(m: HermitianMatrix) -> float:
    """Determinant as the product of the (real) eigenvalues."""
    return float(np.prod(eigvals_hermitian(m)))


def purity(d: DensityMatrix) -> float:
    """Tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    return float((np.abs(d.entries) ** 2).sum())


def validate_density(m: HermitianMatrix) -> DensityMatrix:
    """Accept m as a quantum state or raise the specific violation.

    Positivity is tested through the eigenvalues (robust, and the spectrum
    is retained on the result); near-zero negatives inside the tolerance
    are clamped to 0.
    """
    tr = m.trace()
    if abs(tr - 1.0) > TOL_TRACE:
        raise NotTraceOne(tr)
    vals = eigvals_hermitian(m)
    min_eig = float(vals[-1])
    if min_eig < -TOL_PSD:
        raise NotPositive(min_eig)
    clamped = np.clip(vals, 0.0, None)
    clamped.setflags(write=False)
    return DensityMatrix(m, clamped)


def matrix_to_json_dict(m: HermitianMatrix | DensityMatrix) -> dict:
    arr = np.asarray(m)
    pairs = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"dim": int(arr.shape[0]), "entries": pairs}


def json_number(value, integer: bool = False):
    """A JSON number as a float (an int if `integer`); str and bool raise TypeError."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "integer" if integer else "number"
        raise TypeError(f"expected a JSON {kind}, got {value!r}")
    return value if integer else float(value)


def json_dim(value) -> int:
    """A JSON dimension: an integer of at least 2, the API's lower bound."""
    dim = json_number(value, integer=True)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return dim


def matrix_from_json_dict(payload: dict) -> HermitianMatrix:
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise DimensionMismatch("matrix JSON needs 'dim' and 'entries'")
    try:
        dim = json_dim(payload["dim"])
        pairs = payload["entries"]
        if len(pairs) != dim * dim or any(len(p) != 2 for p in pairs):
            raise DimensionMismatch(
                f"matrix JSON needs {dim * dim} [re, im] pairs, got {len(pairs)}"
            )
        entries = [complex(json_number(re), json_number(im)) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(
            f"matrix JSON needs an integer 'dim' >= 2 and numeric [re, im] pairs: {exc}"
        ) from exc
    return make_hermitian(dim, entries)
