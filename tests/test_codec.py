import numpy as np
import pytest

import dichoq
from dichoq.codec import raw_probabilities
from dichoq.frames import embed_plane_unitary, su2_lift

import helpers

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def qubit_state(p1, p2, p3):
    mat = PAULI[0] / 2 + (p1 - 0.5) * PAULI[1] + (p2 - 0.5) * PAULI[2] + (p3 - 0.5) * PAULI[3]
    return dichoq.validate_density(dichoq.make_hermitian(2, mat))


def table_entry(table, j, k, axis):
    """Probability of plane (j, k) (1-based) on an axis; p3 is keyed by row j."""
    if axis == 3:
        return table.p3[j - 1]
    position = [(p.j, p.k) for p in dichoq.planes(table.dim)].index((j, k))
    return (table.p1 if axis == 1 else table.p2)[position]


def qubit_table(p1, p2, p3):
    return dichoq.DichotomicTable(2, [p1], [p2], [p3])


def test_encode_isotropic_qubit():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2) / 2))
    t = dichoq.encode(state)
    assert t.p1[0] == pytest.approx(0.5)
    assert t.p2[0] == pytest.approx(0.5)
    assert t.p3[0] == pytest.approx(0.5)


def test_encode_worked_qubit():
    state = dichoq.validate_density(
        dichoq.make_hermitian(2, [[0.75, 0.25], [0.25, 0.25]])
    )
    t = dichoq.encode(state)
    assert t.p1[0] == pytest.approx(0.75)
    assert t.p2[0] == pytest.approx(0.5)
    assert t.p3[0] == pytest.approx(0.75)


def test_encode_diagonal_qutrit():
    state = dichoq.validate_density(
        dichoq.make_hermitian(3, np.diag([0.5, 1 / 3, 1 / 6]))
    )
    t = dichoq.encode(state)
    assert t.p3[0] == pytest.approx(0.5)
    assert t.p3[1] == pytest.approx(1 / 3)
    for i, plane in enumerate(dichoq.planes(3)):
        half = (t.diagonal()[plane.j - 1] + t.diagonal()[plane.k - 1]) / 2
        assert t.p1[i] == pytest.approx(half)
        assert t.p2[i] == pytest.approx(half)
    assert t.p1[0] == pytest.approx(5 / 12)


def test_encode_dimension_mismatch():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2) / 2))
    with pytest.raises(dichoq.DimensionMismatch):
        dichoq.encode(state, dichoq.build_frame(3))


def test_encode_matches_trace_oracle():
    # closed-form probabilities vs literal Tr(rho P) against the frame
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4, 5):
        frame = dichoq.build_frame(dim)
        state = helpers.random_state(dim, rng)
        t = dichoq.encode(state)
        oracle = helpers.encode_by_trace(state, frame)
        for (j, k, a), expected in oracle.items():
            assert table_entry(t, j, k, a) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 24])
def test_rotate_table_matches_trace_oracle(dim):
    # closed-form rotated frame vs literal Tr(rho P) against dense projectors
    rng = np.random.default_rng(31 + dim)
    state = helpers.random_state(dim, rng)
    for _ in range(10):
        rot = helpers.random_rotation(rng)
        t = dichoq.rotate_table(state, rot)
        oracle = helpers.encode_by_trace(state, dichoq.build_frame(dim, rot))
        for (j, k, a), expected in oracle.items():
            if a == 3 and k != j + 1:
                continue  # a rotated table keeps row j's p3 from plane (j, j+1)
            assert table_entry(t, j, k, a) == pytest.approx(expected, abs=1e-12)


def test_parameter_count():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4, 5, 6):
        t = dichoq.encode(helpers.random_state(dim, rng))
        assert t.parameter_count == dim * dim - 1


def test_decode_isotropic():
    m = dichoq.decode(qubit_table(0.5, 0.5, 0.5))
    assert np.abs(m.entries - np.eye(2) / 2).max() < 1e-15


def test_decode_worked_qubit():
    m = dichoq.decode(qubit_table(0.75, 0.5, 0.75))
    assert np.abs(m.entries - np.array([[0.75, 0.25], [0.25, 0.25]])).max() < 1e-15


def test_decode_equals_pauli_expansion():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # random point inside the Bloch ball
        v = rng.standard_normal(3)
        v *= rng.uniform(0, 0.5) / np.linalg.norm(v)
        p1, p2, p3 = v + 0.5
        m = dichoq.decode(qubit_table(p1, p2, p3))
        expansion = (
            PAULI[0] / 2
            + (p1 - 0.5) * PAULI[1]
            + (p2 - 0.5) * PAULI[2]
            + (p3 - 0.5) * PAULI[3]
        )
        assert np.abs(m.entries - expansion).max() < 1e-14


def test_decode_total_on_invalid_tables():
    m = dichoq.decode(qubit_table(1.0, 1.0, 1.0))
    assert abs(m.trace() - 1.0) < 1e-14
    assert np.abs(m.entries - m.entries.conj().T).max() == 0.0
    with pytest.raises(dichoq.NotPositive):
        dichoq.validate_density(m)


def test_roundtrip_random_states():
    rng = np.random.default_rng(5)
    for dim in range(2, 9):
        for _ in range(30):
            state = helpers.random_state(dim, rng)
            back = dichoq.decode(dichoq.encode(state))
            assert np.abs(back.entries - state.entries).max() < 1e-12
            assert abs(back.trace() - 1.0) < 1e-12


def test_reverse_roundtrip():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(20):
            state = helpers.random_state(dim, rng)
            table = dichoq.encode(state)
            decoded = dichoq.validate_density(dichoq.decode(table))
            again = dichoq.encode(decoded)
            for label in ("p1", "p2", "p3"):
                assert np.abs(getattr(again, label) - getattr(table, label)).max() < 1e-12


def test_auxiliary_qubit_shape_and_entry():
    t = qubit_table(0.75, 0.5, 0.75)
    aux = dichoq.auxiliary_qubit(t, dichoq.PlaneIndex(1, 2))
    assert abs(aux.matrix.trace() - 1.0) < 1e-15
    assert np.abs(aux.matrix - aux.matrix.conj().T).max() == 0.0
    assert aux.off_diagonal() == pytest.approx(0.25)


def test_auxiliary_qubit_isotropic_block():
    # p1 = p2 = mean diagonal pair -> vanishing off-diagonal
    t = dichoq.DichotomicTable(3, [0.4, 0.35, 0.45], [0.4, 0.35, 0.45], [0.3, 0.5])
    aux = dichoq.auxiliary_qubit(t, dichoq.PlaneIndex(1, 2))
    assert np.abs(aux.matrix - np.eye(2) / 2).max() < 1e-15


def test_auxiliary_qubit_formula():
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = helpers.random_state(3, rng)
        t = dichoq.encode(state)
        diag = t.diagonal()
        for i, plane in enumerate(dichoq.planes(3)):
            s = diag[plane.j - 1] + diag[plane.k - 1]
            expected = (t.p1[i] - s / 2) - 1j * (t.p2[i] - s / 2)
            aux = dichoq.auxiliary_qubit(t, plane)
            assert aux.off_diagonal() == pytest.approx(expected, abs=1e-13)
            assert aux.min_eigenvalue() >= -1e-12


def test_qubit_ball_check_cases():
    center = dichoq.qubit_ball_check(qubit_table(0.5, 0.5, 0.5)).checks[0]
    assert center.lhs == pytest.approx(0.0)
    assert center.slack == pytest.approx(0.25)
    assert center.satisfied and not center.saturated

    pole = dichoq.qubit_ball_check(qubit_table(0.5, 0.5, 1.0)).checks[0]
    assert pole.lhs == pytest.approx(0.25)
    assert pole.satisfied and pole.saturated

    corner = dichoq.qubit_ball_check(qubit_table(1.0, 1.0, 1.0)).checks[0]
    assert corner.lhs == pytest.approx(0.75)
    assert not corner.satisfied


def test_ball_saturation_iff_pure():
    rng = np.random.default_rng(11)
    for _ in range(40):
        state = helpers.random_state(2, rng)
        table = dichoq.encode(state)
        slack = dichoq.qubit_ball_check(table).checks[0].slack
        is_pure = abs(dichoq.purity(state) - 1.0) < 1e-8
        assert is_pure == (abs(slack) < 1e-8)
    # a genuinely pure draw saturates
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    pure = dichoq.validate_density(dichoq.make_hermitian(2, np.outer(psi, psi.conj())))
    slack = dichoq.qubit_ball_check(dichoq.encode(pure)).checks[0].slack
    assert abs(slack) < 1e-8


def test_rotate_table_identity_matches_encode():
    rng = np.random.default_rng(13)
    state = helpers.random_state(3, rng)
    base = dichoq.encode(state)
    rotated = dichoq.rotate_table(state, np.eye(3))
    assert rotated.to_json_dict() == base.to_json_dict()


def test_rotate_table_pi_about_z():
    rng = np.random.default_rng(15)
    state = helpers.random_state(2, rng)
    base = dichoq.encode(state)
    rotated = dichoq.rotate_table(state, np.diag([-1.0, -1.0, 1.0]))
    assert rotated.p1[0] == pytest.approx(1.0 - base.p1[0], abs=1e-12)
    assert rotated.p2[0] == pytest.approx(1.0 - base.p2[0], abs=1e-12)
    assert rotated.p3[0] == pytest.approx(base.p3[0], abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rotation_law_both_sides(dim):
    # Tr(rho U P U^dag) == Tr(U^dag rho U P), evaluated independently
    rng = np.random.default_rng(17 + dim)
    for _ in range(10):
        state = helpers.random_state(dim, rng)
        rot = helpers.random_rotation(rng)
        table = dichoq.rotate_table(state, rot)
        u2 = su2_lift(rot)
        base = dichoq.build_frame(dim)
        mat = np.asarray(state)
        for plane in base.planes:
            u = embed_plane_unitary(dim, plane, u2)
            conjugated = u.conj().T @ mat @ u
            for a in (1, 2, 3):
                if a == 3 and plane.k != plane.j + 1:
                    continue
                expected = float(np.trace(conjugated @ base.projector(plane, a)).real)
                got = table_entry(table, plane.j, plane.k, a)
                assert got == pytest.approx(expected, abs=1e-10)


def test_table_json_roundtrip_and_order():
    rng = np.random.default_rng(19)
    t = dichoq.encode(helpers.random_state(4, rng))
    payload = t.to_json_dict()
    keys = [(rec["j"], rec["k"]) for rec in payload["planes"]]
    assert keys == sorted(keys)
    back = dichoq.table_from_json_dict(payload)
    assert back.to_json_dict() == payload


def test_table_invariants_rejected():
    with pytest.raises(dichoq.TableInvariantError):
        qubit_table(1.5, 0.5, 0.5)
    with pytest.raises(dichoq.TableInvariantError):
        dichoq.DichotomicTable(2, [0.5], [], [0.5])
    # a repeated plane record is ambiguous even when the last one is valid
    payload = qubit_table(0.9, 0.5, 0.5).to_json_dict()
    payload["planes"].append({"j": 1, "k": 2, "p1": 0.5, "p2": 0.5})
    with pytest.raises(dichoq.TableInvariantError):
        dichoq.table_from_json_dict(payload)


def test_decodable_tables_bound_diagonal_sum():
    # the diagonal-sum constraint guards the canonical inverse: a table
    # whose p3 rows sum beyond 1 cannot come from an identity-frame encode
    overfull = dichoq.DichotomicTable(3, [0.5] * 3, [0.5] * 3, [0.6, 0.6])
    with pytest.raises(dichoq.TableInvariantError):
        overfull.require_decodable()
    with pytest.raises(dichoq.TableInvariantError):
        dichoq.table_from_json_dict(overfull.to_json_dict())
    rng = np.random.default_rng(23)
    dichoq.encode(helpers.random_state(3, rng)).require_decodable()


def test_rotated_table_diagonal_sum_unbounded():
    # rotated-frame diagonal probabilities come from different projectors
    # per plane; their sum may legitimately exceed 1
    rng = np.random.default_rng(29)
    found = False
    for _ in range(20):
        state = helpers.random_state(4, rng)
        table = dichoq.rotate_table(state, helpers.random_rotation(rng))
        if table.p3.sum() > 1.0 + 1e-10:
            found = True
            break
    assert found


def test_raw_probabilities_unclamped():
    mat = helpers.near_state_negative_eig()
    p1, _, _ = raw_probabilities(mat)
    assert p1[0] == pytest.approx(-1e-3)
