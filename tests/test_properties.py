"""Property tests: the CLI's exit-code contract on fuzzed JSON, the codec
roundtrip and clamp, the partial traces against index loops, and the audit
writer against the stdlib JSON encoder.

Payloads start valid (a state, a table, a rotation) and lose at most one
value, at any depth, to an arbitrary JSON value: a string, a boolean,
null, NaN, a huge integer, a list or an object. Whatever the payload,
every command must exit with a documented code (0, 2, 3, 4 or 5) and
never raise.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import dichoq
from dichoq import cli
from dichoq.codec import clamp_probabilities
from dichoq.report import InequalityReport

import helpers

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(derandomize=True, database=None, max_examples=40, deadline=None)
FEW = settings(derandomize=True, database=None, max_examples=20, deadline=None)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.just(10**400),
    st.floats(),
    st.text(max_size=2),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) position in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated(draw, payloads):
    payload = draw(payloads)
    slots = list(_slots(payload))
    if slots and draw(st.booleans()):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(json_values)
    return payload


@st.composite
def states(draw, dims=st.integers(2, 4)):
    """A trace-one positive matrix G G^dag / Tr, as an array."""
    n = draw(dims)
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * n * n, max_size=2 * n * n))
    g = np.reshape(parts, (2, n, n))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T + 0.01 * np.eye(n)
    return rho / rho.trace().real


@st.composite
def matrix_payloads(draw):
    rho = draw(states())
    # a Hermitian shift along one diagonal pair: none, a near-state, an invalid matrix
    shift = draw(st.sampled_from((0.0, 1e-11, -0.6)))
    rho = rho + shift * np.diag([1.0, -1.0] + [0.0] * (len(rho) - 2))
    return {"dim": len(rho), "entries": [[z.real, z.imag] for z in rho.ravel().tolist()]}


@st.composite
def table_payloads(draw):
    n = draw(st.integers(2, 4))
    prob = st.floats(-0.05, 1.05)
    p3 = draw(st.lists(st.floats(0, 1.0 / n), min_size=n - 1, max_size=n - 1))
    records = [
        {"j": j, "k": k, "p1": draw(prob), "p2": draw(prob)}
        for j in range(1, n)
        for k in range(j + 1, n + 1)
    ]
    return {"dim": n, "p3": p3, "planes": records}


@st.composite
def rotation_payloads(draw):
    quat = draw(
        st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(lambda q: np.dot(q, q) > 0.01)
    )
    return Rotation.from_quat(quat).as_matrix().tolist()


def _run(tmp, payload, *argv):
    inp = Path(tmp) / "in.json"
    inp.write_text(json.dumps(payload))
    return cli.main([*argv, "--input", str(inp), "--output", str(Path(tmp) / "out")])


@FUZZ
@given(mutated(matrix_payloads()))
def test_matrix_payloads_exit_with_contract_codes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (
            ["encode"],
            ["encode", "--no-validate", "--format", "csv"],
            ["audit", "--factor", "2,2", "--q", "0.5"],
            ["audit", "--no-validate", "--q", "2"],
            ["reduce", "--factor", "2,2"],
            ["decode"],
        ):
            assert _run(tmp, payload, *argv) in EXIT_CODES


@FUZZ
@given(mutated(table_payloads()))
def test_table_payloads_exit_with_contract_codes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(tmp, payload, "decode") in EXIT_CODES


@FUZZ
@given(mutated(rotation_payloads()))
def test_rotation_payloads_exit_with_contract_codes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        rot = Path(tmp) / "rot.json"
        rot.write_text(json.dumps(payload))
        state = {"dim": 2, "entries": [[0.75, 0], [0.25, 0.1], [0.25, -0.1], [0.25, 0]]}
        assert _run(tmp, state, "encode", "--rotation", str(rot)) in EXIT_CODES


@FUZZ
@given(states(st.integers(2, 6)))
def test_encode_decode_roundtrip(rho):
    state = dichoq.validate_density(dichoq.make_hermitian(len(rho), rho))
    decoded = dichoq.decode(dichoq.encode(state))
    assert np.abs(decoded.entries - rho).max() < 1e-12


@st.composite
def raw_tables(draw):
    """Unclamped (p1, p2, p3) of an N-level table: any non-NaN float, -0.0 and inf included."""
    n = draw(st.integers(2, 5))
    values = st.floats(allow_nan=False)
    planes = n * (n - 1) // 2
    return n, tuple(
        np.array(draw(st.lists(values, min_size=size, max_size=size)))
        for size in (planes, planes, n - 1)
    )


@FEW
@given(raw_tables())
def test_clamp_probabilities_is_idempotent(case):
    n, raw = case
    once, _ = clamp_probabilities(n, raw)
    twice, names = clamp_probabilities(n, once)
    assert names == []
    assert [a.tobytes() for a in twice] == [a.tobytes() for a in once]


@st.composite
def composite_states(draw):
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rho = draw(states(st.just(n * m)))
    return dichoq.Factorization(n * m, n, m), rho


@FEW
@given(composite_states())
def test_reductions_match_index_loops(case):
    f, rho = case
    state = dichoq.validate_density(dichoq.make_hermitian(f.N, rho))
    mat = np.asarray(state)
    t1, t2 = dichoq.reduce_swapped(state, f)
    for got, oracle in (
        (dichoq.reduce_rho1(state, f), helpers.oracle_rho1),
        (dichoq.reduce_rho2(state, f), helpers.oracle_rho2),
        (t1, helpers.oracle_rho1_tilde),
        (t2, helpers.oracle_rho2_tilde),
    ):
        assert np.abs(np.asarray(got) - oracle(mat, f.n, f.m)).max() < 1e-13


# any float (inf, -inf, NaN, -0.0 and subnormals included) and any text
# (control characters, quotes, backslashes and non-ASCII letters included)
report_rows = st.lists(
    st.tuples(st.text(max_size=8), st.floats(), st.floats(), st.floats()), max_size=6
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(report_rows)
@example([])
@example([("q\u00e9\x00\"\\", -0.0, 5e-324, float("nan")), ("", float("inf"), -float("inf"), 1e308)])
def test_report_writer_matches_json_dumps(rows):
    report = InequalityReport(*(list(column) for column in zip(*rows))) if rows else InequalityReport()
    assert cli.report_json(report) == json.dumps(report.to_list(), sort_keys=True, indent=2) + "\n"
