import math

import numpy as np
import pytest

import dichoq

import helpers


def test_make_hermitian_real_diagonal():
    m = dichoq.make_hermitian(2, [[1, 0], [0, 0]])
    assert np.allclose(m.entries, np.diag([1.0, 0.0]))
    assert m.dim == 2


def test_make_hermitian_rejects_skew():
    with pytest.raises(dichoq.NotHermitian) as exc:
        dichoq.make_hermitian(2, [[0, 1j], [1j, 0]])
    assert exc.value.max_deviation == pytest.approx(2.0)


def test_make_hermitian_conjugate_symmetric():
    m = dichoq.make_hermitian(
        2, [[0.5, 0.25 + 0.25j], [0.25 - 0.25j, 0.5]]
    )
    assert m.entries[0, 1] == 0.25 + 0.25j


def test_make_hermitian_symmetrizes_tiny_noise():
    noise = 1e-14
    m = dichoq.make_hermitian(2, [[1.0, noise * 1j], [0.0, 0.0]])
    assert np.abs(m.entries - m.entries.conj().T).max() == 0.0


def test_make_hermitian_wrong_count():
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.make_hermitian(2, [1, 2, 3])


def test_make_hermitian_rejects_nonfinite():
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.make_hermitian(2, [[np.nan, 0], [0, 0]])


def test_make_hermitian_rejects_dim_one():
    # a 1 x 1 state has no plane: encode would fail and the audits be empty
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.make_hermitian(1, [[1.0]])


def test_eig_isotropic():
    w, u = dichoq.eig_hermitian(dichoq.make_hermitian(2, np.eye(2) / 2))
    assert np.allclose(w, [0.5, 0.5])
    assert np.allclose(u, np.eye(2))


def test_eig_already_diagonal():
    w, _ = dichoq.eig_hermitian(dichoq.make_hermitian(2, np.diag([0.75, 0.25])))
    assert np.allclose(w, [0.75, 0.25], atol=1e-14)


def test_eig_rank_one_projector():
    m = dichoq.make_hermitian(2, [[0.5, 0.5], [0.5, 0.5]])
    w, u = dichoq.eig_hermitian(m)
    assert np.allclose(w, [1.0, 0.0], atol=1e-14)
    recon = (u * w) @ u.conj().T
    assert np.abs(recon - m.entries).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_eig_reconstruction_and_unitarity(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        m = dichoq.make_hermitian(n, helpers.random_hermitian(n, rng))
        w, u = dichoq.eig_hermitian(m)
        norm = max(m.frobenius(), 1e-300)
        assert np.linalg.norm(m.entries - (u * w) @ u.conj().T) < 1e-10 * norm
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(w) <= 1e-15)


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_eig_matches_jacobi_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(15):
        h = helpers.random_hermitian(n, rng)
        w = dichoq.eigvals_hermitian(dichoq.make_hermitian(n, h))
        assert np.abs(w - helpers.jacobi_eigvals(h)).max() < 1e-11


def test_determinant_isotropic():
    assert dichoq.determinant(dichoq.make_hermitian(2, np.eye(2) / 2)) == pytest.approx(0.25)


def test_determinant_rank_deficient():
    m = dichoq.make_hermitian(2, [[0.5, 0.5], [0.5, 0.5]])
    assert abs(dichoq.determinant(m)) < 1e-10


def test_determinant_random_state_range():
    # eigenvalue product on the probability simplex peaks at the uniform
    # vector, so det of any 4x4 state is at most (1/4)^4
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = helpers.random_state(4, rng)
        det = dichoq.determinant(state.matrix)
        assert -1e-12 <= det <= 0.25**4 + 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_determinant_against_lu(n):
    # cross-check the eigenvalue product against LAPACK's LU determinant
    rng = np.random.default_rng(300 + n)
    for _ in range(10):
        h = helpers.random_hermitian(n, rng)
        ours = dichoq.determinant(dichoq.make_hermitian(n, h))
        ref = np.linalg.det(h)
        assert abs(ref.imag) < 1e-9 * max(1.0, abs(ref))
        assert abs(ours - ref.real) <= 1e-9 * max(1.0, abs(ref.real))


def test_determinant_equals_eigenvalue_product():
    rng = np.random.default_rng(11)
    for n in (3, 6, 9, 12):
        h = helpers.random_hermitian(n, rng)
        m = dichoq.make_hermitian(n, h)
        det = dichoq.determinant(m)
        prod = float(np.prod(dichoq.eigvals_hermitian(m)))
        assert det == pytest.approx(prod, rel=1e-9)


def test_purity_values():
    eye4 = dichoq.validate_density(dichoq.make_hermitian(4, np.eye(4) / 4))
    assert dichoq.purity(eye4) == pytest.approx(0.25)
    pure = dichoq.validate_density(dichoq.make_hermitian(2, [[0.5, 0.5], [0.5, 0.5]]))
    assert dichoq.purity(pure) == pytest.approx(1.0)
    mixed = dichoq.validate_density(dichoq.make_hermitian(2, np.diag([0.75, 0.25])))
    assert dichoq.purity(mixed) == pytest.approx(10.0 / 16.0)


def test_purity_range():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        for _ in range(20):
            state = helpers.random_state(n, rng)
            p = dichoq.purity(state)
            assert 1.0 / n - 1e-12 <= p <= 1.0 + 1e-12


def test_purity_one_iff_max_eigenvalue_one():
    rng = np.random.default_rng(17)
    for _ in range(30):
        state = helpers.random_state(3, rng)
        pure = abs(dichoq.purity(state) - 1.0) < 1e-10
        top = abs(state.eigenvalues[0] - 1.0) < 1e-10
        assert pure == top
    projector = dichoq.validate_density(dichoq.make_hermitian(2, [[1, 0], [0, 0]]))
    assert abs(dichoq.purity(projector) - 1.0) < 1e-10
    assert abs(projector.eigenvalues[0] - 1.0) < 1e-10


def test_validate_density_accepts_isotropic():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2) / 2))
    assert state.dim == 2
    assert np.allclose(state.eigenvalues, [0.5, 0.5])


def test_validate_density_rejects_negative():
    with pytest.raises(dichoq.NotPositive) as exc:
        dichoq.validate_density(dichoq.make_hermitian(2, np.diag([1.5, -0.5])))
    assert exc.value.min_eigenvalue == pytest.approx(-0.5)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(dichoq.NotTraceOne):
        dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2)))


def test_validate_density_bloch_overflow():
    # two-level matrix built from probability triple (1, 1, 1): the Bloch
    # vector has length sqrt(3), so min eigenvalue is (1 - sqrt(3))/2
    mat = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.0]])
    with pytest.raises(dichoq.NotPositive) as exc:
        dichoq.validate_density(dichoq.make_hermitian(2, mat))
    assert exc.value.min_eigenvalue == pytest.approx(0.5 - math.sqrt(3.0) / 2.0, abs=1e-12)


def test_validated_spectrum_is_probability_vector():
    rng = np.random.default_rng(19)
    for n in (2, 4, 6):
        for _ in range(25):
            state = helpers.random_state(n, rng)
            vec = dichoq.eigen_probability(state)
            assert np.all(vec.values >= 0.0)
            assert abs(vec.values.sum() - 1.0) < 1e-10


def test_eigen_probability_clamps_tolerated_negatives():
    vec = dichoq.EigenProbability(np.array([1.0 + 5e-11, -5e-11]))
    assert vec.values[1] == 0.0
    assert vec.values[0] <= 1.0


def test_eigen_probability_rejects_violations():
    with pytest.raises(dichoq.NotPositive):
        dichoq.EigenProbability(np.array([1.5, -0.5]))
    with pytest.raises(dichoq.NotTraceOne):
        dichoq.EigenProbability(np.array([0.6, 0.2]))


def test_positivity_matches_principal_minors():
    # optional cross-check: eigenvalue positivity agrees with the
    # leading-principal-minor criterion on random Hermitian matrices
    rng = np.random.default_rng(23)
    for _ in range(40):
        h = helpers.random_hermitian(3, rng) + 2.0 * np.eye(3)
        h /= h.trace().real
        minors = [np.linalg.det(h[:k, :k]).real for k in (1, 2, 3)]
        eigs = np.linalg.eigvalsh(h)
        assert (min(minors) >= -1e-12) == (eigs.min() >= -1e-10)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(29)
    m = dichoq.make_hermitian(3, helpers.random_hermitian(3, rng))
    payload = dichoq.matrix_to_json_dict(m)
    assert payload["dim"] == 3
    assert len(payload["entries"]) == 9
    back = dichoq.matrix_from_json_dict(payload)
    assert np.array_equal(back.entries, m.entries)


def test_matrix_json_rejects_bad_schema():
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.matrix_from_json_dict({"dim": 2, "entries": [[1, 0]]})


def test_convergence_failure_is_reported(monkeypatch):
    # a matrix of NaNs cannot be constructed, so LAPACK's non-convergence
    # is simulated; both solver entry points must report it as ours
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    rng = np.random.default_rng(31)
    m = dichoq.make_hermitian(6, helpers.random_hermitian(6, rng))
    with pytest.raises(dichoq.ConvergenceFailure):
        dichoq.eig_hermitian(m)
    with pytest.raises(dichoq.ConvergenceFailure):
        dichoq.eigvals_hermitian(m)
