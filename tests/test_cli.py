import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dichoq
from dichoq import cli, matcore

import helpers


def write_matrix(path, mat):
    m = dichoq.make_hermitian(np.asarray(mat).shape[0], np.asarray(mat, dtype=complex))
    path.write_text(cli.canonical_json(matcore.matrix_to_json_dict(m)))
    return path


def write_raw(path, payload):
    path.write_text(json.dumps(payload))
    return path


def run_cli(*argv):
    return cli.main(list(argv))


def test_encode_isotropic_qubit(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(2) / 2)
    out = tmp_path / "table.json"
    assert run_cli("encode", "--input", str(inp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["p3"] == [0.5]
    assert payload["planes"] == [{"j": 1, "k": 2, "p1": 0.5, "p2": 0.5}]


def test_encode_qutrit_projector_fixture(tmp_path):
    proj = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
    inp = write_matrix(tmp_path / "proj.json", proj)
    out = tmp_path / "table.json"
    assert run_cli("encode", "--input", str(inp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    first = [rec for rec in payload["planes"] if (rec["j"], rec["k"]) == (1, 2)][0]
    assert first["p1"] == pytest.approx(1.0, abs=1e-12)


def test_encode_rotation_flag(tmp_path):
    rng = np.random.default_rng(0)
    state = helpers.random_state(2, rng)
    inp = write_matrix(tmp_path / "rho.json", np.asarray(state))
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
    out = tmp_path / "table.json"
    assert run_cli("encode", "--input", str(inp), "--rotation", str(rot), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    base = dichoq.encode(state)
    assert payload["planes"][0]["p1"] == pytest.approx(1 - base.p1[0], abs=1e-12)


def test_encode_csv(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", [[0.75, 0.25], [0.25, 0.25]])
    out = tmp_path / "table.csv"
    assert run_cli("encode", "--input", str(inp), "--format", "csv", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,k,p1,p2"
    assert lines[1] == "1,2,0.75,0.5"
    assert lines[2] == "j,p3"
    assert lines[3] == "1,0.75"


def test_encode_invalid_without_flag_exits_3(tmp_path):
    inp = write_matrix(tmp_path / "bad.json", np.diag([1.5, -0.5]))
    assert run_cli("encode", "--input", str(inp)) == 3


def test_encode_no_validate_emits_warning(tmp_path):
    inp = write_matrix(tmp_path / "bad.json", helpers.near_state_negative_eig())
    out = tmp_path / "table.json"
    assert run_cli("encode", "--input", str(inp), "--no-validate", "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert "warning" in payload
    assert "p1(1, 2)" in payload["warning"]


def test_decode_worked_qubit(tmp_path):
    inp = write_raw(
        tmp_path / "table.json",
        {"dim": 2, "p3": [0.75], "planes": [{"j": 1, "k": 2, "p1": 0.75, "p2": 0.5}]},
    )
    out = tmp_path / "rho.json"
    assert run_cli("decode", "--input", str(inp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    mat = dichoq.matrix_from_json_dict(payload)
    assert np.abs(mat.entries - np.array([[0.75, 0.25], [0.25, 0.25]])).max() < 1e-12
    assert payload["verdict"]["valid"] is True


def test_decode_invalid_table_still_exits_zero(tmp_path):
    inp = write_raw(
        tmp_path / "table.json",
        {"dim": 2, "p3": [1.0], "planes": [{"j": 1, "k": 2, "p1": 1.0, "p2": 1.0}]},
    )
    out = tmp_path / "rho.json"
    assert run_cli("decode", "--input", str(inp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"]["valid"] is False
    assert payload["verdict"]["min_eigenvalue"] == pytest.approx(
        0.5 - np.sqrt(3) / 2, abs=1e-10
    )


def test_decode_uniform_five_level_table(tmp_path):
    planes = [
        {"j": j, "k": k, "p1": 0.2, "p2": 0.2}
        for j in range(1, 5)
        for k in range(j + 1, 6)
    ]
    inp = write_raw(tmp_path / "table.json", {"dim": 5, "p3": [0.2] * 4, "planes": planes})
    out = tmp_path / "rho.json"
    assert run_cli("decode", "--input", str(inp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    mat = dichoq.matrix_from_json_dict(payload)
    assert np.abs(mat.entries - np.eye(5) / 5).max() < 1e-12
    assert payload["verdict"]["valid"] is True


def test_decode_schema_error_exits_2(tmp_path):
    inp = write_raw(tmp_path / "table.json", {"dim": 2, "p3": [0.5]})
    assert run_cli("decode", "--input", str(inp)) == 2
    twice = {
        "dim": 2,
        "p3": [0.5],
        "planes": [
            {"j": 1, "k": 2, "p1": 0.9, "p2": 0.5},
            {"j": 1, "k": 2, "p1": 0.5, "p2": 0.5},
        ],
    }
    inp = write_raw(tmp_path / "twice.json", twice)
    assert run_cli("decode", "--input", str(inp)) == 2
    fractional = dict(twice, dim=2.5, planes=twice["planes"][:1])
    inp = write_raw(tmp_path / "fractional.json", fractional)
    assert run_cli("decode", "--input", str(inp)) == 2
    # JSON strings and booleans are not numbers, and dim has a lower bound of 2
    single = twice["planes"][:1]
    for bad in (
        dict(twice, planes=[dict(single[0], p1="0.5")]),
        dict(twice, p3=["0.5"], planes=single),
        dict(twice, p3=[True], planes=single),
        dict(twice, planes=[dict(single[0], j="1")]),
        dict(twice, planes=[dict(single[0], k=True)]),
        dict(twice, dim=True, p3=[], planes=[]),
        {"dim": 1, "p3": [], "planes": []},
        dict(twice, planes=[dict(single[0], k=3)]),
    ):
        inp = write_raw(tmp_path / "bad.json", bad)
        assert run_cli("decode", "--input", str(inp)) == 2


def test_audit_isotropic_all_satisfied(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(4) / 4)
    out = tmp_path / "report.json"
    assert run_cli("audit", "--input", str(inp), "--factor", "2,2", "--output", str(out)) == 0
    checks = json.loads(out.read_text())
    assert all(c["satisfied"] for c in checks)
    names = {c["name"] for c in checks}
    assert "det_rho1_upper" in names and any(n.startswith("vn(") for n in names)


def test_audit_bell_saturates_quarter_bound(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", helpers.bell_state())
    out = tmp_path / "report.json"
    assert run_cli(
        "audit", "--input", str(inp), "--factor", "2,2", "--q", "2", "--output", str(out)
    ) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())}
    assert checks["det_rho1_upper"]["slack"] == pytest.approx(0.0, abs=1e-12)
    assert all(c["satisfied"] for c in checks.values())


def test_audit_corrupted_state_exit_codes(tmp_path):
    inp = write_matrix(tmp_path / "near.json", helpers.near_state_negative_eig())
    # default path validates and refuses
    assert run_cli("audit", "--input", str(inp), "--factor", "2,2") == 3
    # unvalidated audit runs the suites and reports the violation
    out = tmp_path / "report.json"
    code = run_cli(
        "audit", "--input", str(inp), "--factor", "2,2", "--no-validate", "--output", str(out)
    )
    assert code == 5
    checks = json.loads(out.read_text())
    assert any(not c["satisfied"] for c in checks)


def test_audit_prime_dimension_without_factor(tmp_path):
    rng = np.random.default_rng(1)
    inp = write_matrix(tmp_path / "rho.json", helpers.random_state_array(3, rng))
    assert run_cli("audit", "--input", str(inp)) == 0


def test_audit_bad_factor_exits_4(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(4) / 4)
    assert run_cli("audit", "--input", str(inp), "--factor", "3,2") == 4


def test_audit_bad_q_exits_4(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(4) / 4)
    assert run_cli("audit", "--input", str(inp), "--q", "1.0") == 4


def test_reduce_recovers_product_factor(tmp_path):
    rng = np.random.default_rng(2)
    a = helpers.random_state_array(2, rng)
    b = helpers.random_state_array(2, rng)
    inp = write_matrix(tmp_path / "rho.json", np.kron(a, b))
    out = tmp_path / "reduced.json"
    assert run_cli(
        "reduce", "--input", str(inp), "--factor", "2,2", "--keep", "first", "--output", str(out)
    ) == 0
    reduced = dichoq.matrix_from_json_dict(json.loads(out.read_text()))
    assert np.abs(reduced.entries - a).max() < 1e-12
    assert run_cli(
        "reduce", "--input", str(inp), "--factor", "2,2", "--keep", "second", "--output", str(out)
    ) == 0
    reduced2 = dichoq.matrix_from_json_dict(json.loads(out.read_text()))
    assert np.abs(reduced2.entries - b).max() < 1e-12


def test_reduce_requires_factor(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(4) / 4)
    assert run_cli("reduce", "--input", str(inp)) == 4


def test_gen_writes_deterministic_fixtures(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        assert run_cli(
            "gen", "--dim", "4", "--ensemble", "mixed", "--count", "10",
            "--seed", "7", "--output", str(d),
        ) == 0
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b and len(files_a) == 10
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    payload = json.loads((dir_a / files_a[0]).read_text())
    assert payload["ensemble"] == "mixed"
    assert dichoq.matrix_from_json_dict(payload).dim == 4


def test_gen_pure_qubit_saturates_ball(tmp_path):
    assert run_cli(
        "gen", "--dim", "2", "--ensemble", "pure", "--count", "1",
        "--seed", "3", "--output", str(tmp_path),
    ) == 0
    payload = json.loads(next(tmp_path.glob("pure_*.json")).read_text())
    state = dichoq.validate_density(dichoq.matrix_from_json_dict(payload))
    check = dichoq.qubit_ball_check(dichoq.encode(state)).checks[0]
    assert abs(check.lhs - 0.25) < 1e-10


def test_gen_product_reductions_recover_factors(tmp_path):
    assert run_cli(
        "gen", "--dim", "6", "--ensemble", "product", "--count", "1",
        "--seed", "11", "--output", str(tmp_path),
    ) == 0
    payload = json.loads(next(tmp_path.glob("product_*.json")).read_text())
    state = dichoq.validate_density(dichoq.matrix_from_json_dict(payload))
    from dichoq.genstates import product_factors

    a, b = product_factors(2, 3, payload["seed"])
    f = dichoq.Factorization(6, 2, 3)
    assert np.abs(np.asarray(dichoq.reduce_rho1(state, f)) - a).max() < 1e-13
    assert np.abs(np.asarray(dichoq.reduce_rho2(state, f)) - b).max() < 1e-13


def test_gen_bad_flags_exit_4(tmp_path):
    assert run_cli("gen", "--dim", "1", "--ensemble", "mixed", "--output", str(tmp_path)) == 4
    assert run_cli("gen", "--dim", "4", "--ensemble", "mixed", "--count", "0",
                   "--output", str(tmp_path)) == 4
    assert run_cli("gen", "--dim", "5", "--ensemble", "product", "--output", str(tmp_path)) == 4


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("encode", "--input", str(bad)) == 2
    schema = write_raw(tmp_path / "schema.json", {"dim": 2, "entries": [[1, 0]]})
    assert run_cli("encode", "--input", str(schema)) == 2


MALFORMED_MATRICES = {
    "non_numeric": {"dim": 2, "entries": [["a", 0], [0, 0], [0, 0], [0.5, 0]]},
    "bare_numbers": {"dim": 2, "entries": [0.5, 0, 0, 0.5]},
    "dim_word": {"dim": "two", "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]},
    "dim_fraction": {"dim": 2.5, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]},
    "string_number": {"dim": 2, "entries": [["0.5", 0], [0, 0], [0, 0], [0.5, 0]]},
    "bool_number": {"dim": 2, "entries": [[0.5, False], [0, 0], [0, 0], [0.5, 0]]},
    "dim_bool": {"dim": True, "entries": [[1, 0]]},
    "dim_one": {"dim": 1, "entries": [[1, 0]]},
}


@pytest.mark.parametrize("command", ["encode", "audit", "reduce"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_MATRICES))
def test_malformed_matrix_exits_2(tmp_path, capsys, command, kind):
    inp = write_raw(tmp_path / "rho.json", MALFORMED_MATRICES[kind])
    assert run_cli(command, "--input", str(inp)) == 2
    assert "matrix schema error" in capsys.readouterr().err


def test_encode_bad_rotation_file_exits_4(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(3) / 3)
    rot = tmp_path / "rot.json"
    for bad in (
        [["x", 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        [["1", 0, 0], [0, "1", 0], [0, 0, "1"]],
        [[True, False, False], [False, True, False], [False, False, True]],
        [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]],
    ):
        rot.write_text(json.dumps(bad))
        assert run_cli("encode", "--input", str(inp), "--rotation", str(rot)) == 4
    rot.write_text("[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]")
    assert run_cli("encode", "--input", str(inp), "--rotation", str(rot)) == 4


def test_non_hermitian_input_exit_3(tmp_path):
    payload = {"dim": 2, "entries": [[0, 0], [0, 1], [0, 1], [0, 0]]}
    inp = write_raw(tmp_path / "skew.json", payload)
    assert run_cli("encode", "--input", str(inp)) == 3


def test_missing_file_exit_4(tmp_path):
    assert run_cli("encode", "--input", str(tmp_path / "absent.json")) == 4


def test_usage_error_exit_4():
    assert run_cli("frobnicate") == 4
    assert run_cli("encode") == 4


def test_encode_byte_stable(tmp_path):
    rng = np.random.default_rng(3)
    inp = write_matrix(tmp_path / "rho.json", helpers.random_state_array(3, rng))
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert run_cli("encode", "--input", str(inp), "--output", str(out1)) == 0
    assert run_cli("encode", "--input", str(inp), "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_batch_roundtrip_through_cli(tmp_path):
    # gen -> encode -> decode over a fixture batch reproduces every matrix
    fixtures = tmp_path / "fixtures"
    assert run_cli(
        "gen", "--dim", "3", "--ensemble", "mixed", "--count", "100",
        "--seed", "99", "--output", str(fixtures),
    ) == 0
    worst = 0.0
    for i, fixture in enumerate(sorted(fixtures.iterdir())):
        table = tmp_path / f"t{i}.json"
        back = tmp_path / f"b{i}.json"
        assert run_cli("encode", "--input", str(fixture), "--output", str(table)) == 0
        assert run_cli("decode", "--input", str(table), "--output", str(back)) == 0
        original = dichoq.matrix_from_json_dict(json.loads(fixture.read_text()))
        decoded = dichoq.matrix_from_json_dict(json.loads(back.read_text()))
        worst = max(worst, float(np.abs(decoded.entries - original.entries).max()))
    assert worst < 1e-12


def test_console_entrypoint_subprocess(tmp_path):
    inp = write_matrix(tmp_path / "rho.json", np.eye(2) / 2)
    # the child imports the same dichoq as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(dichoq.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dichoq.cli", "encode", "--input", str(inp)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p3"] == [0.5]
