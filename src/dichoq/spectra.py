"""Characteristic polynomials, eigen-probability vectors, determinant bounds.

The eigenvalues of a state form a probability vector, and so do those of
any of its partial-trace reductions. When the outer factor is
two-dimensional the reduced determinant obeys 0 <= det <= 1/4, which in
block-trace form pairs the product of diagonal-block traces against the
squared magnitude of the off-diagonal one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFactorization
from .matcore import DensityMatrix, EigenProbability
from .reduction import Factorization, block_decompose, reduce_rho1, reduce_rho2
from .report import InequalityReport

DET_QUARTER = 0.25


@dataclass(frozen=True)
class CharPoly:
    """det(rho - x I) as coefficients, index = power of x.

    Leading coefficient is (-1)^N; the constant term is the determinant.
    """

    dim: int
    coefficients: np.ndarray


def char_poly(rho: DensityMatrix) -> CharPoly:
    """Coefficients from the validated eigenvalues, prod_i (lambda_i - x).

    np.poly multiplies out the monic factors (x - lambda_i) one at a time;
    with lambda_i >= 0 every step adds terms of one sign, so no
    coefficient loses relative accuracy to cancellation and the sign
    pattern (-1)^j c_j >= 0 holds exactly at any dimension.
    """
    coeffs = (-1.0) ** rho.dim * np.poly(rho.eigenvalues)[::-1]
    coeffs.setflags(write=False)
    return CharPoly(rho.dim, coeffs)


def eigen_probability(rho: DensityMatrix) -> EigenProbability:
    """The state's eigenvalues as a sorted probability vector."""
    return EigenProbability(rho.eigenvalues)


def reduction_spectra(
    rho: DensityMatrix, f: Factorization
) -> tuple[EigenProbability, EigenProbability]:
    """Eigen-probabilities of both partial-trace reductions."""
    lam1 = eigen_probability(reduce_rho1(rho, f))
    lam2 = eigen_probability(reduce_rho2(rho, f))
    return lam1, lam2


def _det_pair(report: InequalityReport, name: str, det: float) -> None:
    report.add(f"{name}_lower", det, 0.0, det)
    report.add(f"{name}_upper", det, DET_QUARTER, DET_QUARTER - det)


def det_bounds_from_matrix(mat: np.ndarray, f: Factorization) -> InequalityReport:
    """Determinant and block-trace bounds computed from the raw array.

    Scalar-only path shared with the audit command, which must be able to
    run on matrices that fail state validation.
    """
    if f.n != 2:
        raise BadFactorization(f"bounds need a two-dimensional outer factor, got n={f.n}")
    view = block_decompose(mat, f)
    traces = view.block_traces()
    t11 = traces[0, 0].real
    t22 = traces[1, 1].real
    cross = (traces[0, 1] * traces[1, 0]).real  # = |Tr R_12|^2 for Hermitian input
    det1 = t11 * t22 - cross

    report = InequalityReport()
    _det_pair(report, "det_rho1", det1)
    report.add("block_trace_product", t11 * t22, cross, t11 * t22 - cross)
    report.add(
        "block_trace_quarter", cross + DET_QUARTER, t11 * t22, cross + DET_QUARTER - t11 * t22
    )
    if f.m == 2:
        rho2 = view.diagonal_block_sum()
        det2 = (rho2[0, 0] * rho2[1, 1] - rho2[0, 1] * rho2[1, 0]).real
        _det_pair(report, "det_rho2", det2)
    return report


def det_bounds_check(rho: DensityMatrix, f: Factorization) -> InequalityReport:
    """Bound suite for a state whose outer factor is two-dimensional."""
    return det_bounds_from_matrix(rho.entries, f)
