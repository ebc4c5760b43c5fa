import numpy as np
import pytest

import dichoq

import helpers

PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}

# the nine three-level projectors of the identity frame, written out
QUTRIT_PROJECTORS = {
    (1, 2, 1): [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]],
    (1, 2, 2): [[0.5, -0.5j, 0], [0.5j, 0.5, 0], [0, 0, 0]],
    (1, 2, 3): [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    (1, 3, 1): [[0.5, 0, 0.5], [0, 0, 0], [0.5, 0, 0.5]],
    (1, 3, 2): [[0.5, 0, -0.5j], [0, 0, 0], [0.5j, 0, 0.5]],
    (1, 3, 3): [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    (2, 3, 1): [[0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]],
    (2, 3, 2): [[0, 0, 0], [0, 0.5, -0.5j], [0, 0.5j, 0.5]],
    (2, 3, 3): [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
}


def test_su2_generators_are_half_paulis_for_qubit():
    s = dichoq.su2_generators(2, dichoq.PlaneIndex(1, 2))
    for mu in range(4):
        assert np.abs(s[mu] - PAULI[mu] / 2).max() < 1e-15


def test_su2_generators_embed_in_plane():
    s0, s1, s2, s3 = dichoq.su2_generators(3, dichoq.PlaneIndex(1, 2))
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 0.5
    assert np.array_equal(s1, expected)
    _, _, _, s3_23 = dichoq.su2_generators(3, dichoq.PlaneIndex(2, 3))
    assert np.allclose(s3_23, np.diag([0.0, 0.5, -0.5]))


@pytest.mark.parametrize("dim,plane", [(3, (1, 2)), (4, (2, 4)), (5, (1, 5))])
def test_su2_generator_spectra(dim, plane):
    gens = dichoq.su2_generators(dim, dichoq.PlaneIndex(*plane))
    for a in (1, 2, 3):
        eigs = np.sort(np.linalg.eigvalsh(gens[a]))
        expected = np.sort(np.r_[np.zeros(dim - 2), -0.5, 0.5])
        assert np.abs(eigs - expected).max() < 1e-14


def test_su2_generators_orthogonal_half_norm():
    gens = dichoq.su2_generators(4, dichoq.PlaneIndex(2, 3))
    for mu in range(4):
        for nu in range(4):
            val = np.trace(gens[mu].conj().T @ gens[nu])
            expected = 0.5 if mu == nu else 0.0
            assert abs(val - expected) < 1e-15


def test_qubit_frame_matches_pauli_projectors():
    frame = dichoq.build_frame(2)
    plane = dichoq.PlaneIndex(1, 2)
    for a in (1, 2, 3):
        expected = (PAULI[0] + PAULI[a]) / 2
        assert np.abs(frame.projector(plane, a) - expected).max() < 1e-15


def test_qutrit_frame_matches_tabulated_projectors():
    frame = dichoq.build_frame(3)
    for (j, k, a), expected in QUTRIT_PROJECTORS.items():
        got = frame.projector(dichoq.PlaneIndex(j, k), a)
        assert np.abs(got - np.array(expected)).max() < 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_frame_projector_invariants(dim):
    frame = dichoq.build_frame(dim)
    count = 0
    for _, _, proj in frame.items():
        assert np.linalg.norm(proj @ proj - proj) < 1e-12
        assert abs(np.trace(proj).real - 1.0) < 1e-12
        assert np.abs(proj - proj.conj().T).max() < 1e-15
        count += 1
    assert count == 3 * dim * (dim - 1) // 2


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_identity_frame_diagonal_degeneracy(dim):
    frame = dichoq.build_frame(dim)
    for j in range(1, dim):
        e_jj = np.zeros((dim, dim))
        e_jj[j - 1, j - 1] = 1.0
        for k in range(j + 1, dim + 1):
            proj = frame.projector(dichoq.PlaneIndex(j, k), 3)
            assert np.abs(proj - e_jj).max() < 1e-15


def test_rotated_frame_projectors_stay_projectors():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rot = helpers.random_rotation(rng)
        frame = dichoq.build_frame(3, rot)
        for _, _, proj in frame.items():
            assert np.linalg.norm(proj @ proj - proj) < 1e-12
            assert abs(np.trace(proj).real - 1.0) < 1e-12


def test_pi_rotation_about_z_flips_transverse_axes():
    rot = np.diag([-1.0, -1.0, 1.0])
    frame = dichoq.build_frame(2, rot)
    base = dichoq.build_frame(2)
    plane = dichoq.PlaneIndex(1, 2)
    # axis 1 and 2 projectors flip to their negative-eigenvalue partners
    for a in (1, 2):
        minus = np.eye(2) - base.projector(plane, a)
        assert np.abs(frame.projector(plane, a) - minus).max() < 1e-14
    assert np.abs(frame.projector(plane, 3) - base.projector(plane, 3)).max() < 1e-14


def test_build_frame_rejects_bad_rotations():
    with pytest.raises(dichoq.NotOrthogonal):
        dichoq.build_frame(2, np.eye(3) * 1.1)
    with pytest.raises(dichoq.NotSpecial):
        dichoq.build_frame(2, np.diag([1.0, 1.0, -1.0]))
    for bad in (
        [["x", 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [0, 1, 0], [0, 0, 1]],
        [["1", 0, 0], [0, "1", 0], [0, 0, "1"]],
        np.eye(3).astype(bool).tolist(),
        np.eye(3, dtype=bool),
        [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
        np.eye(3).astype(str),
    ):
        with pytest.raises(dichoq.DimensionMismatch):
            dichoq.build_frame(2, bad)
    for good in (np.eye(3, dtype=int), np.eye(3, dtype=np.float32), [[1, 0, 0], [0, 1.0, 0], [0, 0, 1]]):
        assert np.array_equal(dichoq.build_frame(2, good).rotation, np.eye(3))
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.build_frame(2, np.diag([np.nan, 1.0, 1.0]))


def test_su2_lift_covers_rotation():
    rng = np.random.default_rng(13)
    for _ in range(25):
        rot = helpers.random_rotation(rng)
        u = helpers.su2_lift(rot)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        for a in (1, 2, 3):
            rotated = sum(rot[b, a - 1] * PAULI[b + 1] for b in range(3))
            assert np.abs(u @ PAULI[a] @ u.conj().T - rotated).max() < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_projector_rotation_covariance(dim):
    # rotated-frame projector == embedded lift conjugation of the base one
    rng = np.random.default_rng(17 + dim)
    for _ in range(5):
        rot = helpers.random_rotation(rng)
        rotated = dichoq.build_frame(dim, rot)
        base = dichoq.build_frame(dim)
        u2 = helpers.su2_lift(rot)
        for plane in base.planes:
            u = helpers.embed_plane(dim, plane, u2)
            for a in (1, 2, 3):
                lhs = rotated.projector(plane, a)
                rhs = u @ base.projector(plane, a) @ u.conj().T
                assert np.abs(lhs - rhs).max() < 1e-10


def test_projector_expectations_are_probabilities():
    rng = np.random.default_rng(19)
    for dim in (2, 3, 4):
        frame = dichoq.build_frame(dim)
        for _ in range(10):
            state = helpers.random_state(dim, rng)
            for _, _, proj in frame.items():
                p = float(np.trace(np.asarray(state) @ proj).real)
                assert -1e-10 <= p <= 1.0 + 1e-10


def test_plane_index_ordering_enforced():
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.PlaneIndex(2, 2)
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.PlaneIndex(3, 1)


def test_planes_enumeration():
    got = [(p.j, p.k) for p in dichoq.planes(4)]
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
