import numpy as np
import pytest

import dichoq
from dichoq import Factorization

import helpers


def test_char_poly_isotropic_qubit():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2) / 2))
    poly = dichoq.char_poly(state)
    # (x - 1/2)^2 = x^2 - x + 1/4
    assert np.allclose(poly.coefficients, [0.25, -1.0, 1.0])


def test_char_poly_projector():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.diag([1.0, 0.0])))
    poly = dichoq.char_poly(state)
    assert np.allclose(poly.coefficients, [0.0, -1.0, 1.0])


def test_char_poly_leading_and_constant_terms():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4, 5):
        state = helpers.random_state(dim, rng)
        poly = dichoq.char_poly(state)
        assert poly.coefficients[-1] == pytest.approx((-1.0) ** dim)
        assert poly.coefficients[0] == pytest.approx(
            dichoq.determinant(state.matrix), abs=1e-10
        )


def test_char_poly_matches_symmetric_polynomial_oracle():
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4, 6):
        for _ in range(10):
            state = helpers.random_state(dim, rng)
            poly = dichoq.char_poly(state)
            oracle = helpers.leverrier_charpoly(np.asarray(state))
            assert np.abs(poly.coefficients - oracle).max() < 1e-9


@pytest.mark.parametrize("dim", [16, 24])
def test_char_poly_large_dimension_signs_and_determinant(dim):
    # every coefficient of det(rho - x I) for a PSD rho satisfies
    # (-1)^j c_j = e_{N-j}(lambda) >= 0, and the constant term is the
    # eigenvalue product; both must hold well past the small dimensions
    # where a trace-power recursion still works
    for seed in range(10):
        state = dichoq.random_mixed(dim, seed)
        coeffs = dichoq.char_poly(state).coefficients
        assert np.all((-1.0) ** np.arange(dim + 1) * coeffs >= 0.0)
        det = np.prod(helpers.jacobi_eigvals(np.asarray(state)))
        assert coeffs[0] == pytest.approx(det, rel=1e-8, abs=0.0)


def test_char_poly_vanishes_at_eigenvalues():
    rng = np.random.default_rng(3)
    for dim in (3, 4, 5):
        state = helpers.random_state(dim, rng)
        poly = dichoq.char_poly(state)
        scale = max(1.0, np.abs(poly.coefficients).max())
        for lam in state.eigenvalues:
            assert abs(np.polyval(poly.coefficients[::-1], lam)) < 1e-8 * scale


def test_eigen_probability_examples():
    iso = dichoq.validate_density(dichoq.make_hermitian(4, np.eye(4) / 4))
    assert np.allclose(dichoq.eigen_probability(iso).values, 0.25)

    pure = dichoq.validate_density(dichoq.make_hermitian(2, [[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(dichoq.eigen_probability(pure).values, [1.0, 0.0], atol=1e-12)

    diag = dichoq.validate_density(
        dichoq.make_hermitian(3, np.diag([0.5, 1 / 3, 1 / 6]))
    )
    assert np.allclose(dichoq.eigen_probability(diag).values, [0.5, 1 / 3, 1 / 6])


def test_reduction_spectra_bell():
    state = dichoq.validate_density(dichoq.make_hermitian(4, helpers.bell_state()))
    lam1, lam2 = dichoq.reduction_spectra(state, Factorization(4, 2, 2))
    assert np.allclose(lam1.values, [0.5, 0.5])
    assert np.allclose(lam2.values, [0.5, 0.5])


def test_reduction_spectra_product():
    rng = np.random.default_rng(4)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(3, rng)
    state = dichoq.validate_density(dichoq.make_hermitian(6, np.kron(a, b)))
    lam1, lam2 = dichoq.reduction_spectra(state, Factorization(6, 2, 3))
    assert np.abs(lam1.values - helpers.jacobi_eigvals(a)).max() < 1e-11
    assert np.abs(lam2.values - helpers.jacobi_eigvals(b)).max() < 1e-11


def test_reduction_spectra_closed_form():
    rng = np.random.default_rng(5)
    f = Factorization(4, 2, 2)
    for _ in range(25):
        state = helpers.random_state(4, rng)
        lam1, _ = dichoq.reduction_spectra(state, f)
        det1 = dichoq.determinant(dichoq.reduce_rho1(state, f).matrix)
        closed = helpers.two_level_spectrum_from_det(det1)
        assert np.abs(lam1.values - np.array(closed)).max() < 1e-9


def test_reduction_spectra_in_range():
    rng = np.random.default_rng(6)
    for dim in (4, 6, 8, 9):
        state = helpers.random_state(dim, rng)
        for f in dichoq.factorizations(dim):
            lam1, lam2 = dichoq.reduction_spectra(state, f)
            for vec in (lam1.values, lam2.values):
                assert vec.min() >= 0.0 and vec.max() <= 1.0


def test_det_bounds_isotropic():
    state = dichoq.validate_density(dichoq.make_hermitian(4, np.eye(4) / 4))
    report = dichoq.det_bounds_check(state, Factorization(4, 2, 2))
    assert report["det_rho1_lower"].lhs == pytest.approx(0.25)
    assert report["det_rho1_upper"].slack == pytest.approx(0.0, abs=1e-15)
    assert report["det_rho1_upper"].saturated
    assert report.all_satisfied


def test_det_bounds_bell_margins():
    state = dichoq.validate_density(dichoq.make_hermitian(4, helpers.bell_state()))
    report = dichoq.det_bounds_check(state, Factorization(4, 2, 2))
    assert report["det_rho1_lower"].lhs == pytest.approx(0.25)
    # Tr R_12 vanishes, so the product bound holds with margin 1/4 and the
    # quarter bound saturates (det rho1 sits exactly at 1/4)
    assert report["block_trace_product"].slack == pytest.approx(0.25)
    assert report["block_trace_quarter"].slack == pytest.approx(0.0, abs=1e-15)
    assert report.all_satisfied


def test_det_bounds_includes_rho2_when_square():
    rng = np.random.default_rng(7)
    state = helpers.random_state(4, rng)
    report = dichoq.det_bounds_check(state, Factorization(4, 2, 2))
    names = [c.name for c in report.checks]
    assert "det_rho2_lower" in names and "det_rho2_upper" in names
    state6 = helpers.random_state(6, rng)
    report6 = dichoq.det_bounds_check(state6, Factorization(6, 2, 3))
    names6 = [c.name for c in report6.checks]
    assert "det_rho2_lower" not in names6


def test_det_bounds_requires_two_level_outer_factor():
    rng = np.random.default_rng(8)
    state = helpers.random_state(6, rng)
    with pytest.raises(dichoq.BadFactorization):
        dichoq.det_bounds_check(state, Factorization(6, 3, 2))


def test_det_bounds_consistent_with_reduction_determinant():
    rng = np.random.default_rng(9)
    for dim, f in ((4, Factorization(4, 2, 2)), (6, Factorization(6, 2, 3))):
        state = helpers.random_state(dim, rng)
        report = dichoq.det_bounds_check(state, f)
        det_direct = dichoq.determinant(dichoq.reduce_rho1(state, f).matrix)
        assert report["det_rho1_lower"].lhs == pytest.approx(det_direct, abs=1e-11)


def test_det_bounds_monte_carlo_margins():
    rng = np.random.default_rng(10)
    for _ in range(100):
        state = helpers.random_state(6, rng)
        report = dichoq.det_bounds_check(state, Factorization(6, 2, 3))
        for check in report.checks:
            assert check.slack >= -1e-10
