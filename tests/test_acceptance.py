"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import dichoq
from dichoq import cli
from dichoq.codec import raw_probabilities
from dichoq.entropy import tsallis_relative

import helpers


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def _axis_probability(p1, p2, p3, i, j, a):
    # i: the plane's lexicographic position; j: its first row, 1-based
    if a == 1:
        return p1[i]
    if a == 2:
        return p2[i]
    return p3[j - 1]


def test_criterion_1_roundtrip():
    with criterion(1, "encode/decode roundtrip < 1e-12 over 6000 states in < 10 s"):
        start = time.monotonic()
        worst = 0.0
        for dim_index, dim in enumerate((2, 3, 4, 5, 6, 8)):
            for i in range(1000):
                state = dichoq.random_mixed(dim, 1000 * dim_index + i)
                back = dichoq.decode(dichoq.encode(state))
                err = float(np.abs(back.entries - state.entries).max())
                worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst < 1e-12, f"worst roundtrip error {worst:.3e}"
        assert elapsed < 10.0, f"roundtrip suite took {elapsed:.2f} s"


def test_criterion_2_qubit_ball():
    with criterion(2, "Bloch-ball bound holds; pure qubits saturate it"):
        for i in range(10_000):
            state = dichoq.random_mixed(2, 10_000 + i)
            lhs = dichoq.qubit_ball_check(dichoq.encode(state)).checks[0].lhs
            assert lhs <= 0.25 + 1e-10
        for i in range(1000):
            state = dichoq.random_pure(2, 20_000 + i)
            lhs = dichoq.qubit_ball_check(dichoq.encode(state)).checks[0].lhs
            assert abs(lhs - 0.25) < 1e-10


def test_criterion_3_reductions_are_states():
    with criterion(3, "all four reductions are states and match the loop oracle"):
        for dim_index, dim in enumerate((4, 6, 8, 9, 12)):
            for i in range(1000):
                state = dichoq.random_mixed(dim, 30_000 + 1000 * dim_index + i)
                mat = np.asarray(state)
                for f in dichoq.factorizations(dim):
                    n, m = f.n, f.m
                    quartet = [
                        (dichoq.reduce_rho1(state, f), helpers.oracle_rho1(mat, n, m)),
                        (dichoq.reduce_rho2(state, f), helpers.oracle_rho2(mat, n, m)),
                    ]
                    t1, t2 = dichoq.reduce_swapped(state, f)
                    quartet.append((t1, helpers.oracle_rho1_tilde(mat, n, m)))
                    quartet.append((t2, helpers.oracle_rho2_tilde(mat, n, m)))
                    for reduced, oracle in quartet:
                        arr = np.asarray(reduced)
                        assert np.abs(arr - arr.conj().T).max() < 1e-12
                        assert abs(arr.trace().real - 1.0) < 1e-12
                        # validation already bounded the spectrum at -1e-10;
                        # the stored eigenvalues are the clamped witnesses
                        assert reduced.eigenvalues.min() >= 0.0
                        assert np.abs(arr - oracle).max() < 1e-13


def test_criterion_4_determinant_bounds():
    with criterion(4, "reduced determinants in [0, 1/4]; closed form matches spectra"):
        f4 = dichoq.Factorization(4, 2, 2)
        for i in range(10_000):
            state = dichoq.random_mixed(4, 40_000 + i)
            report = dichoq.det_bounds_check(state, f4)
            det1 = report["det_rho1_lower"].lhs
            det2 = report["det_rho2_lower"].lhs
            for det in (det1, det2):
                assert -1e-10 <= det <= 0.25 + 1e-10
            closed = helpers.two_level_spectrum_from_det(det1)
            spectrum = dichoq.reduce_rho1(state, f4).eigenvalues
            assert np.abs(np.array(closed) - spectrum).max() < 1e-9
            for check in report.checks:
                assert check.slack >= -1e-10
        f6 = dichoq.Factorization(6, 2, 3)
        for i in range(1000):
            state = dichoq.random_mixed(6, 50_000 + i)
            for check in dichoq.det_bounds_check(state, f6).checks:
                assert check.slack >= -1e-10


def test_criterion_5_entropic_suites():
    with criterion(5, "entropy slacks nonnegative; Tsallis zero iff equal inputs"):
        q_grid = (0.5, 2.0, 5.0)
        for dim_index, dim in enumerate((2, 3, 4)):
            for i in range(1000):
                state = dichoq.random_mixed(dim, 60_000 + 1000 * dim_index + i)
                for check in dichoq.vn_inequality_suite(state).checks:
                    assert check.slack >= -1e-10
                p1, p2, p3 = raw_probabilities(np.asarray(state))
                for i, (j, _) in enumerate(helpers.planes(dim)):
                    for a in (1, 2, 3):
                        for b in (1, 2, 3):
                            if a == b:
                                continue
                            pa = _axis_probability(p1, p2, p3, i, j, a)
                            pb = _axis_probability(p1, p2, p3, i, j, b)
                            for q in q_grid:
                                value = tsallis_relative(
                                    min(1.0, max(0.0, pa)),
                                    min(1.0, max(0.0, pb)),
                                    q,
                                )
                                assert value >= -1e-10
                                assert (abs(value) < 1e-12) == (
                                    abs(pa - pb) < 1e-12
                                )


def test_criterion_6_rotation_covariance():
    with criterion(6, "rotated tables equal plane-wise encodings of U^dag rho U"):
        rng = np.random.default_rng(987)
        for dim in (2, 3, 4):
            for i in range(100):
                state = dichoq.random_mixed(dim, 70_000 + 100 * dim + i)
                rot = helpers.random_rotation(rng)
                table = dichoq.rotate_table(state, rot)
                u2 = helpers.su2_lift(rot)
                mat = np.asarray(state)
                for i, plane in enumerate(helpers.planes(dim)):
                    u = helpers.embed_plane(dim, plane, u2)
                    conj = u.conj().T @ mat @ u
                    j, k = plane[0] - 1, plane[1] - 1
                    half = 0.5 * (conj[j, j].real + conj[k, k].real)
                    assert abs(table.p1[i] - (half + conj[j, k].real)) < 1e-10
                    assert abs(table.p2[i] - (half - conj[j, k].imag)) < 1e-10
                    if k == j + 1:
                        assert abs(table.p3[j] - conj[j, j].real) < 1e-10


def test_criterion_7_eigensolver_gate():
    with criterion(7, "residual < 1e-10 relative, eigenvalue sums match traces"):
        rng = np.random.default_rng(4242)
        dims = list(range(2, 13))
        for i in range(1000):
            n = dims[i % len(dims)]
            m = dichoq.make_hermitian(n, helpers.random_hermitian(n, rng))
            w, u = dichoq.eig_hermitian(m)
            norm = max(m.frobenius(), 1e-300)
            resid = np.linalg.norm(m.entries - (u * w) @ u.conj().T)
            assert resid < 1e-10 * norm
            assert abs(w.sum() - m.trace()) < 1e-11


def test_criterion_8_negative_control(tmp_path):
    with criterion(8, "injected -1e-3 eigenvalue fails validation and trips audit"):
        near = helpers.near_state_negative_eig()
        m = dichoq.make_hermitian(4, near)
        try:
            dichoq.validate_density(m)
            raise AssertionError("near-state unexpectedly validated")
        except dichoq.NotPositive as exc:
            assert exc.min_eigenvalue < -1e-10
        path = tmp_path / "near.json"
        path.write_text(cli.canonical_json(dichoq.matrix_to_json_dict(m)))
        assert cli.main(["audit", "--input", str(path), "--factor", "2,2"]) == 3
        out = tmp_path / "report.json"
        code = cli.main(
            ["audit", "--input", str(path), "--factor", "2,2",
             "--no-validate", "--output", str(out)]
        )
        assert code == 5
        checks = json.loads(out.read_text())
        assert any(not c["satisfied"] for c in checks)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "fixture generation and CLI output are byte-identical"):
        runs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            assert cli.main(
                ["gen", "--dim", "4", "--ensemble", "mixed", "--count", "5",
                 "--seed", "7", "--output", str(out_dir)]
            ) == 0
            runs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert runs[0] == runs[1]

        fixture = next((tmp_path / "a").glob("*.json"))
        outputs = []
        for tag in ("x", "y"):
            table = tmp_path / f"table_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            assert cli.main(["encode", "--input", str(fixture), "--output", str(table)]) == 0
            code = cli.main(
                ["audit", "--input", str(fixture), "--factor", "2,2",
                 "--output", str(report)]
            )
            assert code in (0, 5)
            outputs.append((table.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]
