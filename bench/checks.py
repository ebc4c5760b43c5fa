"""Independent oracles for the benchmark's output checks.

Nothing here calls dichoq. Probabilities come from closed forms in the
matrix entries, partial traces from np.einsum, spectra from LAPACK
(np.linalg.eigvalsh) and from the solver-independent identities
sum(lam) = 1 and sum(lam^2) = ||rho||_F^2. Every check returns None when
the output passes and a short reason when it does not, so a negative
control can feed it a perturbed output and require a reason back.
"""

from __future__ import annotations

import numpy as np

# Probabilities and matrix entries are sums of a few products of entries.
ENTRY_TOL = 1e-12
# Eigenvalues of two solvers; the program also clamps negatives above -1e-10.
EIG_TOL = 1e-10
DET_QUARTER = 0.25
# Characteristic-polynomial coefficients e_k must match LAPACK's within
# CHARPOLY_RTOL * |e_k| plus the first-order change of e_k when every
# eigenvalue moves by CHARPOLY_DELTA, (N - k + 1) * |e_{k-1}| * delta.
# Without that floor, coefficients that vanish for low-rank states would
# fail any implementation, a correct one included.
CHARPOLY_RTOL = 1e-6
CHARPOLY_DELTA = 1e-13


def matrix_from_json(payload: dict) -> np.ndarray:
    """The matrix JSON schema, {"dim": N, "entries": [[re, im], ...]}, as an array."""
    dim = payload["dim"]
    pairs = np.asarray(payload["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)


def closed_form_table(rho: np.ndarray):
    """Identity-frame (p1, p2, p3): p1 = (rho_jj + rho_kk)/2 + Re rho_jk,
    p2 = (rho_jj + rho_kk)/2 - Im rho_jk, p3 = rho_jj; planes lexicographic."""
    j, k = np.triu_indices(rho.shape[0], 1)
    d = rho.diagonal().real
    half = (d[j] + d[k]) / 2.0
    return half + rho[j, k].real, half - rho[j, k].imag, d[:-1]


def rotated_table(rho: np.ndarray, rot: np.ndarray):
    """(p1, p2, p3) of the frame rotated by rot, built with no projector.

    Per plane p_a = s/2 + sum_b R[b, a] t_b with s = rho_jj + rho_kk and
    t = (Re rho_jk, -Im rho_jk, (rho_jj - rho_kk)/2); p3 of row j is read
    from plane (j, j+1).
    """
    j, k = np.triu_indices(rho.shape[0], 1)
    d = rho.diagonal().real
    t = np.stack([rho[j, k].real, -rho[j, k].imag, (d[j] - d[k]) / 2.0])
    p = (d[j] + d[k]) / 2.0 + rot.T @ t
    return p[0], p[1], p[2][k == j + 1]


def table_error(table: dict, dim: int, expected) -> str | None:
    """A table in the JSON schema against expected (p1, p2, p3) arrays."""
    if table.get("dim") != dim:
        return f"dim {table.get('dim')!r} != {dim}"
    j, k = np.triu_indices(dim, 1)
    planes = table["planes"]
    if [(rec["j"], rec["k"]) for rec in planes] != list(zip(j + 1, k + 1)):
        return "planes are not the lexicographic pairs j < k"
    if len(table["p3"]) != dim - 1:
        return f"{len(table['p3'])} p3 entries for dim {dim}"
    p1, p2, p3 = expected
    err = max(
        np.abs(np.array([rec["p1"] for rec in planes]) - p1).max(),
        np.abs(np.array([rec["p2"] for rec in planes]) - p2).max(),
        np.abs(np.array(table["p3"]) - p3).max(),
    )
    return None if err <= ENTRY_TOL else f"probability off by {err:.3g}"


def matrix_error(got, expected: np.ndarray) -> str | None:
    got = np.asarray(got)
    if got.shape != expected.shape:
        return f"shape {got.shape} != {expected.shape}"
    err = float(np.abs(got - expected).max())
    return None if err <= ENTRY_TOL else f"entry off by {err:.3g}"


def block_traces(rho: np.ndarray, n: int, m: int) -> np.ndarray:
    """n x n matrix of the traces of the m x m blocks (trace over the inner factor)."""
    return np.einsum("apbp->ab", rho.reshape(n, m, n, m))


def diagonal_block_sum(rho: np.ndarray, n: int, m: int) -> np.ndarray:
    """Sum of the n diagonal m x m blocks (trace over the outer factor)."""
    return np.einsum("apaq->pq", rho.reshape(n, m, n, m))


def eig_lapack_error(eigs, rho: np.ndarray) -> str | None:
    """Descending eigenvalues against LAPACK's."""
    eigs = np.asarray(eigs, dtype=float)
    ref = np.linalg.eigvalsh(rho)[::-1]
    if eigs.shape != ref.shape:
        return f"{eigs.size} eigenvalues for dim {ref.size}"
    if np.any(np.diff(eigs) > 0):
        return "eigenvalues not descending"
    err = float(np.abs(eigs - ref).max())
    return None if err <= EIG_TOL else f"eigenvalue off LAPACK by {err:.3g}"


def trace_identity_error(eigs) -> str | None:
    err = abs(float(np.sum(eigs)) - 1.0)
    return None if err <= EIG_TOL else f"sum of eigenvalues off 1 by {err:.3g}"


def purity_identity_error(eigs, rho: np.ndarray) -> str | None:
    err = abs(float(np.sum(np.square(eigs))) - float(np.sum(np.abs(rho) ** 2)))
    return None if err <= EIG_TOL else f"sum of squared eigenvalues off ||rho||_F^2 by {err:.3g}"


def det_rho1_error(det_reported: float, rho: np.ndarray, m: int) -> str | None:
    """0 <= det rho1 <= 1/4 for the 2 x 2 reduction, which the report must match."""
    r1 = block_traces(rho, 2, m)
    det = float((r1[0, 0] * r1[1, 1] - r1[0, 1] * r1[1, 0]).real)
    if not -ENTRY_TOL <= det_reported <= DET_QUARTER + ENTRY_TOL:
        return f"det rho1 = {det_reported!r} outside [0, 1/4]"
    if abs(det_reported - det) > ENTRY_TOL:
        return f"det rho1 = {det_reported!r}, einsum gives {det!r}"
    return None


def audit_check_count(dim: int, n_q: int, inner: int | None) -> int:
    """Number of checks of a full audit; inner is m of a 2 x m factorization.

    Binary entropy on 3 axes per plane (plus 2 matrix forms at dim 2),
    Tsallis on 6 axis pairs x n_q values per plane, and with a 2 x m
    factor the determinant suite (4, plus 2 when m = 2) and the reduced
    suite (2 + n_q).
    """
    planes = dim * (dim - 1) // 2
    count = 3 * planes + (2 if dim == 2 else 0) + 6 * n_q * planes
    if inner is not None:
        count += 4 + (2 if inner == 2 else 0) + 2 + n_q
    return count


def audit_error(report: list[dict], rho: np.ndarray, n_q: int, inner: int | None) -> str | None:
    """A full audit of a valid state: the check count, every check
    satisfied, and with a 2 x inner factor the reported det rho1."""
    expected = audit_check_count(rho.shape[0], n_q, inner)
    if len(report) != expected:
        return f"{len(report)} checks, expected {expected}"
    violated = [c["name"] for c in report if c["satisfied"] is not True]
    if violated:
        return f"{len(violated)} checks violated, first {violated[0]}"
    if inner is None:
        return None
    det = next(c["lhs"] for c in report if c["name"] == "det_rho1_lower")
    return det_rho1_error(det, rho, inner)


def _charpoly_terms(coefficients, rho: np.ndarray):
    """(e, ref, floor): e_k of the program, of LAPACK, and the absolute floor."""
    n = rho.shape[0]
    c = np.asarray(coefficients, dtype=float)
    signs = (-1.0) ** np.arange(n + 1)
    e = (signs * c)[::-1]  # coefficient of x^j is (-1)^j e_{N-j}
    ref = np.poly(np.linalg.eigvalsh(rho)).real * signs
    floor = np.zeros(n + 1)
    floor[1:] = CHARPOLY_DELTA * (n - np.arange(1, n + 1) + 1) * np.abs(ref[:-1])
    return e, ref, floor


def charpoly_coefficient_error(coefficients, rho: np.ndarray) -> str | None:
    e, ref, floor = _charpoly_terms(coefficients, rho)
    bad = np.abs(e - ref) > CHARPOLY_RTOL * np.abs(ref) + floor
    if bad.any():
        k = int(np.argmax(bad))
        return f"e_{k} = {e[k]:.6g}, LAPACK gives {ref[k]:.6g}"
    return None


def charpoly_sign_error(coefficients, rho: np.ndarray) -> str | None:
    """(-1)^j c_j = e_{N-j} >= 0 for every positive semidefinite state."""
    e, _, floor = _charpoly_terms(coefficients, rho)
    bad = e < -floor
    return f"sign pattern broken at e_{int(np.argmax(bad))}" if bad.any() else None


def lapack_charpoly(rho: np.ndarray) -> np.ndarray:
    """Coefficients (index = power of x) of det(rho - x I) from clipped LAPACK eigenvalues."""
    n = rho.shape[0]
    e = np.poly(np.clip(np.linalg.eigvalsh(rho), 0.0, None)).real * (-1.0) ** np.arange(n + 1)
    return (-1.0) ** np.arange(n + 1) * e[::-1]
