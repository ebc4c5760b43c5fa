"""Batch command-line surface: encode, decode, audit, reduce, gen.

Exit codes are a contract: 0 success, 2 parse/schema error, 3 invalid
state, 4 usage error, 5 at least one audited inequality violated. All
JSON output is canonical: sorted keys, two-space indent, shortest
round-trip float formatting, trailing newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import codec, entropy, genstates, matcore, reduction, spectra
from .errors import (
    BadFactorization,
    DichoqError,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    NotTraceOne,
    OutOfRange,
    TableInvariantError,
)
from .frames import check_rotation
from .report import InequalityReport

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_USAGE = 4
EXIT_VIOLATION = 5

DEFAULT_Q = (0.5, 2.0, 5.0)
AXIS_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_REPORT_ROW = (
    '  {\n    "bound": %s,\n    "lhs": %s,\n    "name": %s,\n'
    '    "satisfied": %s,\n    "slack": %s\n  }'
)


def report_json(report: InequalityReport) -> str:
    """canonical_json(report.to_list()), with each float's text as json.dumps writes it."""
    bound, lhs, slack = (
        json.dumps(column)[1:-1].split(", ") for column in (report.bound, report.lhs, report.slack)
    )
    names = map(json.encoder.encode_basestring_ascii, report.names)
    flags = ["true" if ok else "false" for ok in report.satisfied()]
    rows = [_REPORT_ROW % row for row in zip(bound, lhs, names, flags, slack)]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"bad JSON in {path}: {exc}") from exc


def _write_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {output}: {exc}") from exc


def _load_matrix(path: str) -> matcore.HermitianMatrix:
    payload = _load_json(path)
    try:
        return matcore.matrix_from_json_dict(payload)
    except DimensionMismatch as exc:
        raise CliError(EXIT_PARSE, f"matrix schema error: {exc}") from exc
    except NotHermitian as exc:
        raise CliError(EXIT_INVALID_STATE, f"input matrix: {exc}") from exc


def _load_state(path: str) -> matcore.DensityMatrix:
    m = _load_matrix(path)
    try:
        return matcore.validate_density(m)
    except (NotTraceOne, NotPositive) as exc:
        raise CliError(EXIT_INVALID_STATE, f"input state: {exc}") from exc


def _parse_factor(text: str, dim: int) -> reduction.Factorization:
    try:
        n_str, m_str = text.split(",")
        return reduction.Factorization(dim, int(n_str), int(m_str))
    except (ValueError, BadFactorization) as exc:
        raise CliError(EXIT_USAGE, f"bad --factor for dim {dim}: {exc}") from exc


def _parse_q_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
        for q in values:
            entropy.EntropyParams(q)
    except (ValueError, OutOfRange) as exc:
        raise CliError(EXIT_USAGE, f"bad --q list: {exc}") from exc
    labels = [f"{q:g}" for q in values]  # as the check names print q
    if len(set(labels)) < len(labels):
        raise CliError(EXIT_USAGE, f"bad --q list: {text} gives two checks one name")
    return values


def _table_csv(table: codec.DichotomicTable) -> str:
    lines = ["j,k,p1,p2"]
    for rec in table.to_json_dict()["planes"]:
        lines.append(f"{rec['j']},{rec['k']},{rec['p1']!r},{rec['p2']!r}")
    lines.append("j,p3")
    for j, value in enumerate(table.p3.tolist(), start=1):
        lines.append(f"{j},{value!r}")
    return "\n".join(lines) + "\n"


def _encode_unvalidated(mat: np.ndarray) -> tuple[codec.DichotomicTable, list[str]]:
    """Hard-clamped table of a matrix that failed state validation."""
    n = mat.shape[0]
    (p1, p2, p3), clamped_names = codec.clamp_probabilities(n, codec.raw_probabilities(mat))
    total = sum(p3.tolist())
    if total > 1.0 + codec.PROB_TOL:
        clamped_names.append("p3[sum]")
        p3 = p3 * (1.0 / total)
    return codec.DichotomicTable(n, p1, p2, p3), clamped_names


def cmd_encode(args) -> int:
    m = _load_matrix(args.input)
    rotation = None
    if args.rotation is not None:
        payload = _load_json(args.rotation)
        try:
            rows = [[matcore.json_number(v) for v in row] for row in payload]
            rotation = check_rotation(rows)
        except (TypeError, OverflowError, DichoqError) as exc:
            raise CliError(EXIT_USAGE, f"bad rotation: {exc}") from exc

    warning = None
    try:
        state = matcore.validate_density(m)
    except (NotTraceOne, NotPositive) as exc:
        if not args.no_validate:
            raise CliError(EXIT_INVALID_STATE, f"input state: {exc}") from exc
        state = None
        warning = str(exc)

    if state is not None:
        frame = codec.build_frame(m.dim, rotation)
        table = codec.encode(state, frame)
    else:
        if rotation is not None:
            raise CliError(EXIT_USAGE, "--rotation requires a valid state")
        table, clamped = _encode_unvalidated(m.entries)
        if clamped:
            warning = f"{warning}; clamped: {', '.join(clamped)}"

    if args.format == "csv":
        _write_text(_table_csv(table), args.output)
    else:
        payload = table.to_json_dict()
        if warning is not None:
            payload["warning"] = warning
        _write_text(canonical_json(payload), args.output)
    return EXIT_OK


def cmd_decode(args) -> int:
    payload = _load_json(args.input)
    try:
        table = codec.table_from_json_dict(payload)
    except (KeyError, TypeError, ValueError, OverflowError, TableInvariantError) as exc:
        raise CliError(EXIT_PARSE, f"table schema error: {exc}") from exc
    m = codec.decode(table)
    eigenvalues = matcore.eigvals_hermitian(m)
    min_eig = float(eigenvalues[-1])
    out = matcore.matrix_to_json_dict(m)
    out["verdict"] = {
        "min_eigenvalue": min_eig,
        "valid": bool(min_eig >= -matcore.TOL_PSD),
    }
    _write_text(canonical_json(out), args.output)
    return EXIT_OK


def _audit_report(mat: np.ndarray, factor: reduction.Factorization | None, q_values) -> InequalityReport:
    probs = entropy.matrix_probabilities(mat)
    report = entropy.vn_suite_from_matrix(probs)
    for a, b in AXIS_PAIRS:
        for q in q_values:
            report.extend(
                entropy.tsallis_suite_from_matrix(probs, a, b, entropy.EntropyParams(q))
            )
    if factor is not None and factor.n == 2:
        report.extend(spectra.det_bounds_from_matrix(mat, factor))
        report.extend(entropy.reduced_suite_from_matrix(mat, factor, q_values))
    return report


def cmd_audit(args) -> int:
    if args.no_validate:
        m = _load_matrix(args.input)
    else:
        m = _load_state(args.input).matrix
    factor = _parse_factor(args.factor, m.dim) if args.factor else None
    q_values = _parse_q_list(args.q) if args.q else DEFAULT_Q
    report = _audit_report(m.entries, factor, q_values)
    _write_text(report_json(report), args.output)
    return EXIT_OK if report.all_satisfied else EXIT_VIOLATION


def cmd_reduce(args) -> int:
    state = _load_state(args.input)
    if not args.factor:
        raise CliError(EXIT_USAGE, "reduce requires --factor n,m")
    factor = _parse_factor(args.factor, state.dim)
    if args.keep == "first":
        reduced = reduction.reduce_rho1(state, factor)
    else:
        reduced = reduction.reduce_rho2(state, factor)
    _write_text(canonical_json(matcore.matrix_to_json_dict(reduced)), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.count < 1:
        raise CliError(EXIT_USAGE, f"--count must be >= 1, got {args.count}")
    if args.dim < 2:
        raise CliError(EXIT_USAGE, f"--dim must be >= 2, got {args.dim}")
    out_dir = Path(args.output) if args.output else Path.cwd()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot create {out_dir}: {exc}") from exc

    factor = None
    if args.ensemble == "product":
        if args.factor:
            factor = _parse_factor(args.factor, args.dim)
        else:
            candidates = reduction.factorizations(args.dim)
            if not candidates:
                raise CliError(
                    EXIT_USAGE, f"--dim {args.dim} has no n*m factorization for product"
                )
            factor = candidates[0]

    for i in range(args.count):
        state_seed = (args.seed + i) & ((1 << 64) - 1)
        try:
            if args.ensemble == "pure":
                state = genstates.random_pure(args.dim, state_seed)
            elif args.ensemble == "mixed":
                state = genstates.random_mixed(args.dim, state_seed)
            else:
                state = genstates.random_product(factor.n, factor.m, state_seed)
        except OutOfRange as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
        payload = matcore.matrix_to_json_dict(state)
        payload["seed"] = state_seed
        payload["ensemble"] = args.ensemble
        name = f"{args.ensemble}_d{args.dim}_s{args.seed}_{i:04d}.json"
        path = out_dir / name
        try:
            path.write_text(canonical_json(payload), encoding="utf-8")
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}") from exc
        print(path)
    return EXIT_OK


@functools.lru_cache(maxsize=None)  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichoq",
        description="Dichotomic probability representation of N-level states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=False):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p_enc = sub.add_parser("encode", help="state -> dichotomic table")
    add_common(p_enc, with_format=True)
    p_enc.add_argument("--rotation", default=None, help="3x3 rotation JSON file")
    p_enc.add_argument("--no-validate", action="store_true")
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="dichotomic table -> matrix + verdict")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decode)

    p_aud = sub.add_parser("audit", help="run the inequality suites")
    add_common(p_aud)
    p_aud.add_argument("--factor", default=None, help="n,m with n*m = dim")
    p_aud.add_argument("--q", default=None, help="comma-separated Tsallis q values")
    p_aud.add_argument("--no-validate", action="store_true")
    p_aud.set_defaults(func=cmd_audit)

    p_red = sub.add_parser("reduce", help="partial-trace reduction")
    add_common(p_red)
    p_red.add_argument("--factor", default=None, help="n,m with n*m = dim")
    p_red.add_argument("--keep", choices=("first", "second"), default="first")
    p_red.set_defaults(func=cmd_reduce)

    p_gen = sub.add_parser("gen", help="write deterministic state fixtures")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument(
        "--ensemble", choices=("pure", "mixed", "product"), required=True
    )
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--factor", default=None, help="n,m for product states")
    p_gen.add_argument("--output", default=None, help="output directory")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; our contract reserves 2 for
        # parse errors and uses 4 for usage
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"dichoq: {exc}", file=sys.stderr)
        return exc.code
    except DichoqError as exc:
        print(f"dichoq: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
