import math

import numpy as np
import pytest

import dichoq
from dichoq import EntropyParams, Factorization, cli
from dichoq.entropy import (
    matrix_probabilities,
    qubit_matrix_forms,
    tsallis_relative,
    vn_suite_from_matrix,
)

import helpers

# frozen via independent evaluation: -(3/4 ln 3/4 + 1/4 ln 1/4), also
# reproduced below through a base-2 route
ENTROPY_3_4 = 0.5623351446188083


def test_entropy_params_range():
    EntropyParams(0.5)
    EntropyParams(10.0)
    for bad in (0.0, 1.0, -2.0, 10.5):
        with pytest.raises(dichoq.OutOfRange):
            EntropyParams(bad)


def test_dichotomic_entropy_values():
    assert dichoq.dichotomic_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert dichoq.dichotomic_entropy(0.0) == 0.0
    assert dichoq.dichotomic_entropy(1.0) == 0.0
    assert dichoq.dichotomic_entropy(0.75) == pytest.approx(ENTROPY_3_4, abs=1e-14)
    # base-2 cross-route
    base2 = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)) * math.log(2.0)
    assert dichoq.dichotomic_entropy(0.75) == pytest.approx(base2, abs=1e-14)


def test_dichotomic_entropy_domain():
    with pytest.raises(dichoq.OutOfRange):
        dichoq.dichotomic_entropy(-0.1)
    with pytest.raises(dichoq.OutOfRange):
        dichoq.dichotomic_entropy(1.1)


def test_entropy_grid_identity():
    # -[p ln(p/(1-p)) + ln(1-p)] is algebraically the binary entropy; the
    # two evaluations must agree everywhere on a dense grid
    for p in np.linspace(0.0, 1.0, 10001):
        p = float(p)
        s = dichoq.dichotomic_entropy(p)
        assert s >= 0.0
        if 0.0 < p < 1.0:
            direct = -(p * math.log(p / (1.0 - p)) + math.log(1.0 - p))
            assert abs(direct - s) < 1e-14 * max(1.0, abs(s) * 20)


def test_vn_suite_isotropic_qubit():
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.eye(2) / 2))
    report = dichoq.vn_inequality_suite(state)
    for check in report.checks:
        if check.name.startswith("vn("):
            assert check.slack == pytest.approx(math.log(2.0), abs=1e-12)
    assert report.all_satisfied


def test_vn_suite_qutrit_has_nine_plane_entries():
    rng = np.random.default_rng(1)
    state = helpers.random_state(3, rng)
    report = dichoq.vn_inequality_suite(state)
    plane_entries = [c for c in report.checks if c.name.startswith("vn(")]
    assert len(plane_entries) == 9
    assert report.all_satisfied


def test_vn_suite_monte_carlo():
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        for _ in range(50):
            state = helpers.random_state(dim, rng)
            report = dichoq.vn_inequality_suite(state)
            for check in report.checks:
                assert check.slack >= -1e-10


def test_qubit_matrix_form_value():
    # real part 1/4: ln sqrt(3/16) + (1/4) ln 3 = -binary_entropy(3/4)
    re_form, im_form = qubit_matrix_forms(0.25 + 0.0j)
    expected = math.log(math.sqrt(3.0 / 16.0)) + 0.25 * math.log(3.0)
    assert re_form == pytest.approx(expected, abs=1e-15)
    assert re_form == pytest.approx(-ENTROPY_3_4, abs=1e-14)
    assert im_form == pytest.approx(math.log(0.5), abs=1e-15)


def test_matrix_forms_cross_check_against_p_space():
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = helpers.random_state(2, rng)
        off = complex(np.asarray(state)[0, 1])
        re_form, im_form = qubit_matrix_forms(off)
        p1 = 0.5 + off.real
        p2 = 0.5 - off.imag
        assert re_form == pytest.approx(-dichoq.dichotomic_entropy(p1), abs=1e-12)
        assert im_form == pytest.approx(-dichoq.dichotomic_entropy(p2), abs=1e-12)


def test_vn_suite_includes_matrix_forms_for_qubits():
    rng = np.random.default_rng(4)
    state = helpers.random_state(2, rng)
    report = dichoq.vn_inequality_suite(state)
    names = [c.name for c in report.checks]
    assert "qubit_matrix_re" in names and "qubit_matrix_im" in names
    assert report["qubit_matrix_re"].lhs <= 1e-12
    # p-space and matrix-space entries agree in magnitude
    assert report["qubit_matrix_re"].lhs == pytest.approx(
        -report["vn(j=1,k=2,a=1)"].lhs, abs=1e-12
    )
    assert report["qubit_matrix_im"].lhs == pytest.approx(
        -report["vn(j=1,k=2,a=2)"].lhs, abs=1e-12
    )


def test_vn_suite_flags_out_of_range_probability():
    report = vn_suite_from_matrix(matrix_probabilities(helpers.near_state_negative_eig()))
    bad = report["vn(j=1,k=2,a=1)"]
    assert not bad.satisfied
    assert bad.slack == pytest.approx(-1e-3, abs=1e-12)
    assert not report.all_satisfied


def _suite_rows(report):
    rows = zip(report.names, report.lhs, report.bound, report.slack)
    return [row for row in rows if row[0].startswith(("vn(", "tsallis("))]


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_suite_columns_equal_scalar_oracle(dim):
    # the columns must be the scalar functions' floats, compared with ==
    rng = np.random.default_rng(100 + dim)
    basis = np.zeros((dim, dim), dtype=complex)
    basis[0, 0] = 1.0  # zeros and ones exercise 0 ln 0 and support loss
    cases = [helpers.random_state_array(dim, rng), np.eye(dim) / dim, basis]
    if dim <= 4:  # p1 of plane (1, 2) at -1e-12: inside the tolerance, clamped to 0
        cases.append(helpers.near_state_negative_eig(dim, epsilon=1e-12))
    for mat in cases:
        for q_values in (cli.DEFAULT_Q, (0.25, 1.5, 10.0)):
            report = cli._audit_report(np.asarray(mat), None, q_values)
            assert _suite_rows(report) == helpers.audit_rows_oracle(mat, q_values)


def test_suite_columns_report_near_state_like_scalar_loop():
    mat = helpers.near_state_negative_eig()
    report = cli._audit_report(mat, None, cli.DEFAULT_Q)
    assert _suite_rows(report) == helpers.audit_rows_oracle(mat, cli.DEFAULT_Q)
    # p1 of plane (1, 2) is -1e-3: its vn row, the Tsallis rows comparing
    # it, and as "[ref]" the rows taking it as the reference
    expected = ["vn(j=1,k=2,a=1)"] + [
        f"tsallis(j=1,k=2,a={a},b={b},q={q:g}){ref}"
        for a, b, ref in ((1, 2, ""), (1, 3, ""), (2, 1, "[ref]"), (3, 1, "[ref]"))
        for q in cli.DEFAULT_Q
    ]
    assert sorted(c.name for c in report.violations()) == sorted(expected)
    for check in report.violations():
        assert check.lhs == pytest.approx(-1e-3, abs=1e-15)
        assert check.slack == check.lhs  # below 0, the distance from [0, 1] is -lhs


def test_tsallis_equal_distributions_vanish():
    rng = np.random.default_rng(6)
    for q in (0.5, 2.0, 5.0):
        for _ in range(10):
            p = float(rng.uniform(0.01, 0.99))
            assert abs(tsallis_relative(p, p, q)) < 1e-14


def test_tsallis_worked_qubit_example():
    # off-diagonal 1/4: p1 = 3/4, p2 = 1/2, q = 2 gives
    # (9/16 * 2 + 1/16 * 2 - 1) / (2 - 1) = 1/4
    state = dichoq.validate_density(
        dichoq.make_hermitian(2, [[0.75, 0.25], [0.25, 0.25]])
    )
    report = dichoq.tsallis_inequality(state, 1, 2, EntropyParams(2.0))
    assert len(report) == 1
    assert report.checks[0].lhs == pytest.approx(0.25, abs=1e-14)
    assert report.checks[0].lhs == pytest.approx(
        helpers.tsallis_oracle(0.75, 0.5, 2.0), abs=1e-14
    )


def test_tsallis_equal_axis_distributions_from_state():
    # off-diagonal (1-i)/4 makes p1 and p2 both 3/4
    mat = np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]])
    state = dichoq.validate_density(dichoq.make_hermitian(2, mat))
    report = dichoq.tsallis_inequality(state, 1, 2, EntropyParams(2.0))
    assert abs(report.checks[0].lhs) < 1e-14


def test_tsallis_against_oracle():
    rng = np.random.default_rng(7)
    for q in (0.5, 2.0, 5.0):
        for _ in range(30):
            p = float(rng.uniform(0.0, 1.0))
            r = float(rng.uniform(0.01, 0.99))
            assert tsallis_relative(p, r, q) == pytest.approx(
                helpers.tsallis_oracle(p, r, q), abs=1e-12
            )


def test_dichotomic_kl_against_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.01, 0.99))
        assert dichoq.dichotomic_kl(p, r) == pytest.approx(helpers.kl_oracle(p, r), abs=1e-12)
    # endpoints: 0 ln 0 = 0, and support loss diverges like scipy's rel_entr
    for p, r in ((0.0, 0.3), (1.0, 0.3), (0.4, 0.4), (0.5, 0.0), (0.5, 1.0)):
        assert dichoq.dichotomic_kl(p, r) == pytest.approx(helpers.kl_oracle(p, r), abs=1e-12)


def test_tsallis_zero_support_is_satisfied_at_infinity():
    assert tsallis_relative(0.5, 0.0, 2.0) == math.inf
    assert tsallis_relative(0.5, 1.0, 2.0) == math.inf
    assert math.isfinite(tsallis_relative(0.5, 0.0, 0.5))
    state = dichoq.validate_density(dichoq.make_hermitian(2, np.diag([1.0, 0.0])))
    # p3 = 1 while p1 = 1/2: reference distribution loses support at q > 1
    report = dichoq.tsallis_inequality(state, 1, 3, EntropyParams(2.0))
    assert report.checks[0].lhs == math.inf
    assert report.checks[0].satisfied


def test_tsallis_reference_below_power_range():
    # r ** (1 - q) overflows a float for r < ~1e-77 at q = 5; the product
    # with p ** q is taken through logarithms, and is +inf only if it
    # overflows too
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def exact(p, r, q):
        p, r, q = mpmath.mpf(p), mpmath.mpf(r), mpmath.mpf(q)
        return float((p**q * r ** (1 - q) + (1 - p) ** q * (1 - r) ** (1 - q) - 1) / (q - 1))

    assert tsallis_relative(0.5, 1e-100, 5.0) == math.inf
    assert tsallis_relative(0.5, 5e-301, 10.0) == math.inf
    for p, r, q in ((1e-60, 1e-78, 5.0), (1e-100, 1e-100, 5.0), (1e-30, 1e-36, 10.0)):
        assert tsallis_relative(p, r, q) == pytest.approx(exact(p, r, q), rel=1e-12, abs=1e-15)


def test_tsallis_rejects_bad_axes():
    rng = np.random.default_rng(8)
    state = helpers.random_state(2, rng)
    with pytest.raises(dichoq.OutOfRange):
        dichoq.tsallis_inequality(state, 1, 1, EntropyParams(2.0))


def test_tsallis_q_continuity_approaches_kl():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.95))
        kl = helpers.kl_oracle(p, r)
        for eps in (1e-4, -1e-4):
            approx = tsallis_relative(p, r, 1.0 + eps)
            assert abs(approx - kl) < 1e-3
            assert abs(approx - kl) <= 10.0 * abs(eps)


def test_tsallis_nonnegative_monte_carlo():
    rng = np.random.default_rng(10)
    for dim in (2, 3):
        for q in (0.5, 2.0, 5.0):
            for _ in range(20):
                state = helpers.random_state(dim, rng)
                for a, b in ((1, 2), (2, 3), (3, 1)):
                    report = dichoq.tsallis_inequality(state, a, b, EntropyParams(q))
                    for check in report.checks:
                        assert check.slack >= -1e-10


def test_reduced_inequalities_composition():
    # block-trace evaluation must agree with running the suites on the
    # explicit reduction
    rng = np.random.default_rng(11)
    for dim, f in ((4, Factorization(4, 2, 2)), (6, Factorization(6, 2, 3))):
        for _ in range(10):
            state = helpers.random_state(dim, rng)
            report = dichoq.reduced_state_inequalities(state, f)
            reduced = dichoq.reduce_rho1(state, f)
            ref = dichoq.vn_inequality_suite(reduced)
            assert report["reduced_matrix_re"].lhs == pytest.approx(
                ref["qubit_matrix_re"].lhs, abs=1e-12
            )
            assert report["reduced_matrix_im"].lhs == pytest.approx(
                ref["qubit_matrix_im"].lhs, abs=1e-12
            )
            for q in (0.5, 2.0, 5.0):
                ref_ts = dichoq.tsallis_inequality(reduced, 1, 2, EntropyParams(q))
                assert report[f"reduced_tsallis(q={q:g})"].lhs == pytest.approx(
                    ref_ts.checks[0].lhs, abs=1e-12
                )
            assert report.all_satisfied


def test_reduced_inequalities_bell_and_isotropic():
    f = Factorization(4, 2, 2)
    for mat in (np.eye(4) / 4, helpers.bell_state()):
        state = dichoq.validate_density(dichoq.make_hermitian(4, mat))
        report = dichoq.reduced_state_inequalities(state, f)
        # Tr R_12 = 0: both entropy forms sit at maximal slack ln 2
        assert report["reduced_matrix_re"].slack == pytest.approx(math.log(2.0))
        assert report["reduced_matrix_im"].slack == pytest.approx(math.log(2.0))
        assert report.all_satisfied


def test_reduced_inequalities_need_two_level_factor():
    rng = np.random.default_rng(12)
    state = helpers.random_state(6, rng)
    with pytest.raises(dichoq.BadFactorization):
        dichoq.reduced_state_inequalities(state, Factorization(6, 3, 2))
