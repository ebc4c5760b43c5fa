import numpy as np
import pytest

import dichoq
from dichoq.frames import plane_indices

import helpers

PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY = np.eye(3)

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


def all_projectors(dim, rotation):
    for plane in helpers.planes(dim):
        for a in (1, 2, 3):
            yield helpers.frame_projector(dim, plane, a, rotation)


def test_qubit_frame_matches_pauli_projectors():
    for a in (1, 2, 3):
        expected = (PAULI[0] + PAULI[a]) / 2
        assert np.abs(helpers.frame_projector(2, (1, 2), a, IDENTITY) - expected).max() < 1e-15


def test_qutrit_frame_matches_tabulated_projectors():
    for (j, k, a), expected in QUTRIT_PROJECTORS.items():
        got = helpers.frame_projector(3, (j, k), a, IDENTITY)
        assert np.abs(got - np.array(expected)).max() < 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_frame_projector_invariants(dim):
    count = 0
    for proj in all_projectors(dim, IDENTITY):
        assert np.linalg.norm(proj @ proj - proj) < 1e-12
        assert abs(np.trace(proj).real - 1.0) < 1e-12
        assert np.abs(proj - proj.conj().T).max() < 1e-15
        count += 1
    assert count == 3 * dim * (dim - 1) // 2


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_identity_frame_diagonal_degeneracy(dim):
    for j in range(1, dim):
        e_jj = np.zeros((dim, dim))
        e_jj[j - 1, j - 1] = 1.0
        for k in range(j + 1, dim + 1):
            proj = helpers.frame_projector(dim, (j, k), 3, IDENTITY)
            assert np.abs(proj - e_jj).max() < 1e-15


def test_rotated_frame_projectors_stay_projectors():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rot = helpers.random_rotation(rng)
        for proj in all_projectors(3, rot):
            assert np.linalg.norm(proj @ proj - proj) < 1e-12
            assert abs(np.trace(proj).real - 1.0) < 1e-12


def test_pi_rotation_about_z_flips_transverse_axes():
    rot = np.diag([-1.0, -1.0, 1.0])

    def proj(a, r):
        return helpers.frame_projector(2, (1, 2), a, r)

    # axis 1 and 2 projectors flip to their negative-eigenvalue partners
    for a in (1, 2):
        minus = np.eye(2) - proj(a, IDENTITY)
        assert np.abs(proj(a, rot) - minus).max() < 1e-14
    assert np.abs(proj(3, rot) - proj(3, IDENTITY)).max() < 1e-14


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
        u2 = helpers.su2_lift(rot)
        for plane in helpers.planes(dim):
            u = helpers.embed_plane(dim, plane, u2)
            for a in (1, 2, 3):
                lhs = helpers.frame_projector(dim, plane, a, rot)
                rhs = u @ helpers.frame_projector(dim, plane, a, IDENTITY) @ u.conj().T
                assert np.abs(lhs - rhs).max() < 1e-10


def test_projector_expectations_are_probabilities():
    rng = np.random.default_rng(19)
    for dim in (2, 3, 4):
        for _ in range(10):
            state = helpers.random_state(dim, rng)
            for p in helpers.encode_by_trace(state, IDENTITY).values():
                assert -1e-10 <= p <= 1.0 + 1e-10


def test_planes_enumeration():
    for dim in (2, 3, 4, 7):
        j, k = plane_indices(dim)
        assert list(zip((j + 1).tolist(), (k + 1).tolist())) == helpers.planes(dim)
    assert helpers.planes(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
