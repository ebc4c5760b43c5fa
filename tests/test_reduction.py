import numpy as np
import pytest

import dichoq
from dichoq import Factorization

import helpers


def test_factorization_validation():
    f = Factorization(6, 2, 3)
    assert (f.n, f.m) == (2, 3)
    with pytest.raises(dichoq.BadFactorization):
        Factorization(6, 2, 4)
    with pytest.raises(dichoq.BadFactorization):
        Factorization(4, 1, 4)


def test_factorizations_enumeration():
    assert [(f.n, f.m) for f in dichoq.factorizations(12)] == [
        (2, 6),
        (3, 4),
        (4, 3),
        (6, 2),
    ]
    assert dichoq.factorizations(5) == []


def test_block_decompose_isotropic():
    state = dichoq.validate_density(dichoq.make_hermitian(4, np.eye(4) / 4))
    view = dichoq.block_decompose(state, Factorization(4, 2, 2))
    assert np.allclose(view.blocks[0, 0], np.eye(2) / 4)
    assert np.allclose(view.blocks[1, 1], np.eye(2) / 4)
    assert np.abs(view.blocks[0, 1]).max() == 0.0
    assert np.abs(view.blocks[1, 0]).max() == 0.0


def test_block_decompose_kron_structure():
    rng = np.random.default_rng(2)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(3, rng)
    rho = np.kron(a, b)
    view = dichoq.block_decompose(rho, Factorization(6, 2, 3))
    for j in range(1, 3):
        for k in range(1, 3):
            assert np.abs(view.blocks[j - 1, k - 1] - a[j - 1, k - 1] * b).max() < 1e-15


def test_block_decompose_index_formula_and_reassembly():
    rng = np.random.default_rng(3)
    state = helpers.random_state(6, rng)
    f = Factorization(6, 2, 3)
    view = dichoq.block_decompose(state, f)
    mat = np.asarray(state)
    for j in range(1, 3):
        for k in range(1, 3):
            for p in range(1, 4):
                for q in range(1, 4):
                    assert view.blocks[j - 1, k - 1][p - 1, q - 1] == mat[
                        (j - 1) * 3 + (p - 1), (k - 1) * 3 + (q - 1)
                    ]
    assert np.array_equal(view.blocks.transpose(0, 2, 1, 3).reshape(6, 6), mat)
    # conjugate block pairing
    assert np.abs(view.blocks[0, 1].conj().T - view.blocks[1, 0]).max() == 0.0


def test_block_decompose_bad_dim():
    rng = np.random.default_rng(4)
    state = helpers.random_state(4, rng)
    with pytest.raises(dichoq.BadFactorization):
        dichoq.block_decompose(state, Factorization(6, 2, 3))


def test_reduce_product_state():
    rng = np.random.default_rng(5)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(3, rng)
    state = dichoq.validate_density(dichoq.make_hermitian(6, np.kron(a, b)))
    f = Factorization(6, 2, 3)
    assert np.abs(np.asarray(dichoq.reduce_rho1(state, f)) - a).max() < 1e-13
    assert np.abs(np.asarray(dichoq.reduce_rho2(state, f)) - b).max() < 1e-13


def test_reduce_bell_state():
    state = dichoq.validate_density(dichoq.make_hermitian(4, helpers.bell_state()))
    f = Factorization(4, 2, 2)
    assert np.abs(np.asarray(dichoq.reduce_rho1(state, f)) - np.eye(2) / 2).max() < 1e-15
    assert np.abs(np.asarray(dichoq.reduce_rho2(state, f)) - np.eye(2) / 2).max() < 1e-15


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_reductions_match_oracles(dims):
    n, m = dims
    rng = np.random.default_rng(60 + 10 * n + m)
    f = Factorization(n * m, n, m)
    for _ in range(15):
        state = helpers.random_state(n * m, rng)
        mat = np.asarray(state)
        r1 = np.asarray(dichoq.reduce_rho1(state, f))
        r2 = np.asarray(dichoq.reduce_rho2(state, f))
        assert np.abs(r1 - helpers.oracle_rho1(mat, n, m)).max() < 1e-13
        assert np.abs(r2 - helpers.oracle_rho2(mat, n, m)).max() < 1e-13
        t1, t2 = dichoq.reduce_swapped(state, f)
        assert np.abs(np.asarray(t1) - helpers.oracle_rho1_tilde(mat, n, m)).max() < 1e-13
        assert np.abs(np.asarray(t2) - helpers.oracle_rho2_tilde(mat, n, m)).max() < 1e-13


def test_reductions_are_states():
    rng = np.random.default_rng(7)
    for dim in (4, 6, 9):
        for f in dichoq.factorizations(dim):
            state = helpers.random_state(dim, rng)
            for reduced in (
                dichoq.reduce_rho1(state, f),
                dichoq.reduce_rho2(state, f),
                *dichoq.reduce_swapped(state, f),
            ):
                mat = np.asarray(reduced)
                assert np.abs(mat - mat.conj().T).max() < 1e-12
                assert abs(mat.trace().real - 1.0) < 1e-12
                assert reduced.eigenvalues.min() >= 0.0


def test_swapped_cross_identity_for_two_by_two():
    rng = np.random.default_rng(8)
    f = Factorization(4, 2, 2)
    for _ in range(10):
        state = helpers.random_state(4, rng)
        t1, t2 = dichoq.reduce_swapped(state, f)
        assert np.abs(np.asarray(t1) - np.asarray(dichoq.reduce_rho2(state, f))).max() < 1e-14
        assert np.abs(np.asarray(t2) - np.asarray(dichoq.reduce_rho1(state, f))).max() < 1e-14


def test_swapped_isotropic_dimensions():
    state = dichoq.validate_density(dichoq.make_hermitian(6, np.eye(6) / 6))
    t1, t2 = dichoq.reduce_swapped(state, Factorization(6, 2, 3))
    # tilde-1 keeps the outer factor's dimension, tilde-2 the inner one
    assert t1.dim == 2 and np.abs(np.asarray(t1) - np.eye(2) / 2).max() < 1e-15
    assert t2.dim == 3 and np.abs(np.asarray(t2) - np.eye(3) / 3).max() < 1e-15


def test_trace_consistency():
    rng = np.random.default_rng(9)
    state = helpers.random_state(8, rng)
    for f in dichoq.factorizations(8):
        assert dichoq.reduce_rho1(state, f).matrix.trace() == pytest.approx(1.0, abs=1e-12)
        assert dichoq.reduce_rho2(state, f).matrix.trace() == pytest.approx(1.0, abs=1e-12)


def test_iterate_reduction_isotropic_chain():
    # reducing a reduction, 8 -> 4 -> 2, keeps the maximally mixed state
    state = dichoq.validate_density(dichoq.make_hermitian(8, np.eye(8) / 8))
    half = dichoq.reduce_rho1(state, Factorization(8, 4, 2))
    out = dichoq.reduce_rho1(half, Factorization(4, 2, 2))
    assert np.abs(np.asarray(out) - np.eye(2) / 2).max() < 1e-15


def test_iterate_reduction_product_chain():
    rng = np.random.default_rng(10)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(2, rng)
    c = helpers.random_state_array(2, rng)
    state = dichoq.validate_density(dichoq.make_hermitian(8, np.kron(a, np.kron(b, c))))
    half = dichoq.reduce_rho1(state, Factorization(8, 4, 2))
    out = np.asarray(dichoq.reduce_rho1(half, Factorization(4, 2, 2)))
    assert np.abs(out - a).max() < 1e-13
    assert np.abs(out - np.asarray(dichoq.reduce_rho1(state, Factorization(8, 2, 4)))).max() < 1e-15


def test_iterate_reduction_matches_one_shot_oracle():
    rng = np.random.default_rng(11)
    state = helpers.random_state(12, rng)
    half = dichoq.reduce_rho1(state, Factorization(12, 6, 2))
    out = dichoq.reduce_rho1(half, Factorization(6, 3, 2))
    oracle = helpers.oracle_rho1(np.asarray(state), 3, 4)
    assert np.abs(np.asarray(out) - oracle).max() < 1e-13


def test_iterate_reduction_bad_chain():
    rng = np.random.default_rng(12)
    state = helpers.random_state(8, rng)
    reduced = dichoq.reduce_rho1(state, Factorization(8, 4, 2))
    with pytest.raises(dichoq.BadFactorization):
        dichoq.reduce_rho1(reduced, Factorization(6, 2, 3))


def test_keep_second_traces_other_factor():
    rng = np.random.default_rng(13)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(4, rng)
    state = dichoq.validate_density(dichoq.make_hermitian(8, np.kron(a, b)))
    out = dichoq.reduce_rho2(state, Factorization(8, 2, 4))
    assert np.abs(np.asarray(out) - b).max() < 1e-13
