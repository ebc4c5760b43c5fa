"""Property tests: the CLI's exit-code contract on fuzzed JSON, and the codec roundtrip.

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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import dichoq
from dichoq import cli

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(derandomize=True, database=None, max_examples=40, deadline=None)

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
