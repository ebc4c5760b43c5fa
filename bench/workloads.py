"""The three workloads: inputs from the seed, the timed per-state pipeline,
the output checks and the negative controls.

A workload hands out rounds, fixed lists of states with the same mix of
kinds, and a run attempts whole rounds only, so every run attempts the
same operations in the same proportions. The same states come back every
``cycle`` rounds, so each is timed many times; ``rss_rounds`` is the round
after which the process's memory is read. The program is reached through
module attributes (``matcore.validate_density(...)``), never through names
bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import lru_cache

import numpy as np

import checks
from dichoq import cli, codec, entropy, matcore, reduction, spectra

Q_VALUES = (0.5, 2.0, 5.0)
AXIS_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b)


class Tally:
    """Operations attempted and failed, and the counts kept for the trace."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failures other than the known fault
        self.counts = None  # a Counter while a traced pass runs

    def op(self, name: str, reason: str | None, known_fault: bool = False) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if not known_fault:
                self.errors.append(f"{name}: {reason}")

    def count(self, name: str, reason: str | None) -> None:
        if reason is not None and self.counts is not None:
            self.counts[name] += 1


def ginibre(rng, n: int, rank: int) -> np.ndarray:
    """G G^dag / Tr(G G^dag) with G complex Gaussian n x rank, made exactly Hermitian."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real


def haar_rotation(rng) -> np.ndarray:
    """Haar-distributed SO(3) matrix: QR of a Gaussian, column signs fixed, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class CliQuditBatch:
    """The CLI as users run it, over a `dichoq gen` batch of qutrits and ququarts."""

    KINDS = ((3, "mixed"), (4, "mixed"), (3, "pure"), (4, "pure"), (4, "product"))
    COUNT = 32  # fixtures per kind
    cycle = COUNT  # rounds before a fixture comes back, with the same --keep
    rss_rounds = 2 * COUNT
    trace_rounds = 16

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.out = {k: str(workdir / f"{k}.json") for k in ("table", "decoded", "audit", "reduced")}
        self.sample = None

    def setup(self) -> None:
        fixdir = self.dir / "fixtures"
        self.fixtures = []
        for (dim, ensemble), base in zip(self.KINDS, self.rng.integers(0, 2**62, len(self.KINDS))):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["gen", "--dim", str(dim), "--ensemble", ensemble,
                                 "--count", str(self.COUNT), "--seed", str(base),
                                 "--output", str(fixdir)])
            if code != 0:
                raise RuntimeError(f"dichoq gen exited {code}")
            self.fixtures.append(printed.getvalue().splitlines())

    def round(self, r: int) -> list:
        keep = ("first", "second")[r % 2]
        return [(dim, self.fixtures[i][r % self.COUNT], keep) for i, (dim, _) in enumerate(self.KINDS)]

    @staticmethod
    def ops(item) -> int:
        return 4 if item[0] == 4 else 3

    def run(self, item) -> list[int]:
        dim, path, keep = item
        out = self.out
        codes = [
            cli.main(["encode", "--input", path, "--output", out["table"]]),
            cli.main(["decode", "--input", out["table"], "--output", out["decoded"]]),
            cli.main(["audit", "--input", path, "--output", out["audit"]]
                     + (["--factor", "2,2"] if dim == 4 else [])),
        ]
        if dim == 4:  # a qutrit has no n*m factorization to reduce over
            codes.append(cli.main(["reduce", "--input", path, "--factor", "2,2",
                                   "--keep", keep, "--output", out["reduced"]]))
        return codes

    @staticmethod
    @lru_cache(maxsize=None)
    def _fixture(path: str) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            return checks.matrix_from_json(json.load(fh))

    def _read(self, key: str):
        with open(self.out[key], encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, item, codes, tally: Tally) -> None:
        dim, path, keep = item
        rho = self._fixture(path)
        names = ("encode", "decode", "audit", "reduce")
        outputs = {}
        for name, key, code in zip(names, ("table", "decoded", "audit", "reduced"), codes):
            outputs[name] = self._read(key) if code == 0 else None
        reasons = {name: f"exit {code}" for name, code in zip(names, codes) if code != 0}
        if "encode" not in reasons:
            reasons["encode"] = checks.table_error(outputs["encode"], dim, checks.closed_form_table(rho))
        if "decode" not in reasons:
            reasons["decode"] = self.decode_error(outputs["decode"], rho)
        if "audit" not in reasons:
            reasons["audit"] = checks.audit_error(outputs["audit"], rho, len(Q_VALUES),
                                                   2 if dim == 4 else None)
        if dim == 4 and "reduce" not in reasons:
            reasons["reduce"] = self.reduce_error(outputs["reduce"], rho, keep)
        for name in names[: len(codes)]:
            tally.op(f"cli {name} {path}", reasons[name])
        if self.sample is None and dim == 4:
            self.sample = (rho, keep, outputs)

    @staticmethod
    def decode_error(out: dict, rho: np.ndarray) -> str | None:
        verdict = out["verdict"]
        if verdict["valid"] is not True:
            return "verdict says invalid"
        gap = abs(verdict["min_eigenvalue"] - float(np.linalg.eigvalsh(rho)[0]))
        if gap > checks.EIG_TOL:
            return f"min_eigenvalue off LAPACK by {gap:.3g}"
        return checks.matrix_error(checks.matrix_from_json(out), rho)

    @staticmethod
    def reduce_error(out: dict, rho: np.ndarray, keep: str) -> str | None:
        reduce = checks.block_traces if keep == "first" else checks.diagonal_block_sum
        return checks.matrix_error(checks.matrix_from_json(out), reduce(rho, 2, 2))

    def controls(self) -> dict[str, bool]:
        """Control name -> whether a perturbed output made its check fail."""
        rho, keep, out = self.sample
        table = json.loads(json.dumps(out["encode"]))
        table["planes"][0]["p1"] += 1e-9
        decoded = json.loads(json.dumps(out["decode"]))
        decoded["entries"][1][1] += 1e-9
        invalid = json.loads(json.dumps(out["decode"]))
        invalid["verdict"]["valid"] = False
        low = json.loads(json.dumps(out["decode"]))
        low["verdict"]["min_eigenvalue"] -= 1e-9
        audit_short = out["audit"][:-1]
        audit_violated = json.loads(json.dumps(out["audit"]))
        audit_violated[0]["satisfied"] = False
        audit_det = json.loads(json.dumps(out["audit"]))
        next(c for c in audit_det if c["name"] == "det_rho1_lower")["lhs"] += 1e-9
        reduced = json.loads(json.dumps(out["reduce"]))
        reduced["entries"][0][0] += 1e-9
        return {
            "encode closed form": checks.table_error(table, 4, checks.closed_form_table(rho)) is not None,
            "decode entries": self.decode_error(decoded, rho) is not None,
            "decode verdict": self.decode_error(invalid, rho) is not None,
            "decode min eigenvalue": self.decode_error(low, rho) is not None,
            "audit count": checks.audit_error(audit_short, rho, len(Q_VALUES), 2) is not None,
            "audit satisfied": checks.audit_error(audit_violated, rho, len(Q_VALUES), 2) is not None,
            "audit det rho1": checks.audit_error(audit_det, rho, len(Q_VALUES), 2) is not None,
            "reduce einsum": self.reduce_error(reduced, rho, keep) is not None,
        }


class CompositeAudit:
    """Library calls on 2 x 8 and 2 x 12 composite states."""

    # (dim, kind, rank). Three N = 16 states to every N = 24 one: the
    # median then falls among the N = 16 times and the 90th percentile
    # among the N = 24 ones even when part of a run is slowed down, rather
    # than in the gap between them. Ranks are fixed per slot so that the
    # cost of a round does not depend on the seed. Low-rank states have
    # rank >= 2: for pure states the trace-power recursion is exact often
    # enough to pass its check.
    ROUND = ((16, "ginibre", 16), (16, "low_rank", 2), (16, "product", 16),
             (24, "ginibre", 24),
             (16, "ginibre", 16), (16, "low_rank", 3), (16, "product", 16),
             (24, "low_rank", 3),
             (16, "ginibre", 16), (16, "low_rank", 4), (16, "product", 16),
             (24, "product", 24))
    POOL_ROUNDS = 4
    # char_poly fails the check for every state at N = 24; at N = 16 it
    # fails for nearly all, how many depending on the seed (see README)
    COUNTED_CHARPOLY_DIM = 24
    cycle = POOL_ROUNDS
    rss_rounds = 2 * POOL_ROUNDS
    trace_rounds = 3

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.sample = None

    def _state(self, dim: int, kind: str, rank: int) -> np.ndarray:
        if kind == "product":
            return np.kron(ginibre(self.rng, 2, 2), ginibre(self.rng, dim // 2, dim // 2))
        return ginibre(self.rng, dim, rank)

    def setup(self) -> None:
        self.pool = []
        for _ in range(self.POOL_ROUNDS):
            states = []
            for dim, kind, rank in self.ROUND:
                rho = self._state(dim, kind, rank)
                factor = reduction.Factorization(dim, 2, dim // 2)
                states.append((rho, matcore.make_hermitian(dim, rho), factor))
            self.pool.append(states)

    def round(self, r: int) -> list:
        return self.pool[r % self.POOL_ROUNDS]

    def ops(self, item) -> int:
        return 7 if item[0].shape[0] == self.COUNTED_CHARPOLY_DIM else 6

    def run(self, item):
        _, herm, factor = item
        state = matcore.validate_density(herm)
        report = entropy.vn_inequality_suite(state)
        for a, b in AXIS_PAIRS:
            for q in Q_VALUES:
                report.extend(entropy.tsallis_inequality(state, a, b, entropy.EntropyParams(q)))
        report.extend(spectra.det_bounds_check(state, factor))
        report.extend(entropy.reduced_state_inequalities(state, factor, Q_VALUES))
        rho1 = reduction.reduce_rho1(state, factor)
        rho2 = reduction.reduce_rho2(state, factor)
        swapped = reduction.reduce_swapped(state, factor)
        probs = spectra.eigen_probability(state)
        poly = spectra.char_poly(state)
        return state, report, rho1, rho2, swapped, probs, poly

    @staticmethod
    def spectrum_error(eigs, rho) -> str | None:
        return (checks.eig_lapack_error(eigs, rho) or checks.trace_identity_error(eigs)
                or checks.purity_identity_error(eigs, rho))

    @staticmethod
    def reductions_error(rho1, rho2, swapped, rho, m: int) -> tuple:
        return (
            checks.matrix_error(rho1, checks.block_traces(rho, 2, m)),
            checks.matrix_error(rho2, checks.diagonal_block_sum(rho, 2, m)),
            checks.matrix_error(swapped[0], checks.diagonal_block_sum(rho, m, 2))
            or checks.matrix_error(swapped[1], checks.block_traces(rho, m, 2)),
        )

    def check(self, item, out, tally: Tally) -> None:
        rho, _, factor = item
        m = factor.m
        state, report, rho1, rho2, swapped, probs, poly = out
        report = report.to_list()
        rho1, rho2 = rho1.entries, rho2.entries
        swapped = (swapped[0].entries, swapped[1].entries)
        tally.op("validate_density", self.spectrum_error(state.eigenvalues, rho))
        tally.op("audit", checks.audit_error(report, rho, len(Q_VALUES), m))
        for name, reason in zip(("reduce_rho1", "reduce_rho2", "reduce_swapped"),
                                self.reductions_error(rho1, rho2, swapped, rho, m)):
            tally.op(name, reason)
        tally.op("eigen_probability", self.spectrum_error(probs.values, rho))
        coeff = checks.charpoly_coefficient_error(poly.coefficients, rho)
        if rho.shape[0] == self.COUNTED_CHARPOLY_DIM:
            tally.op(f"char_poly N={rho.shape[0]}", coeff, known_fault=True)
            tally.count("spectra.char_poly.failed", coeff)
        else:
            tally.count("spectra.char_poly.failed_uncounted", coeff)
        tally.count("spectra.char_poly.sign_broken", checks.charpoly_sign_error(poly.coefficients, rho))
        if self.sample is None:
            self.sample = (rho, m, state.eigenvalues, report, rho1, rho2, swapped, probs.values)

    def controls(self) -> dict[str, bool]:
        """Control name -> whether it behaved: a perturbed output failed its
        check, and exact LAPACK coefficients passed the char_poly check."""
        rho, m, eigs, report, rho1, rho2, swapped, probs = self.sample
        moved = eigs.copy()
        moved[0] += 1e-4
        moved[-1] -= 1e-4  # keeps the sum, changes the sum of squares
        bumped = rho1.copy()
        bumped[0, 1] += 1e-9
        bumped2 = rho2.copy()
        bumped2[1, 1] += 1e-9
        short = report[:-1]
        violated = [dict(c) for c in report]
        violated[-1]["satisfied"] = False
        det_off = [dict(c) for c in report]
        next(c for c in det_off if c["name"] == "det_rho1_lower")["lhs"] = 0.25 + 1e-6
        det_moved = [dict(c) for c in report]
        next(c for c in det_moved if c["name"] == "det_rho1_lower")["lhs"] += 1e-9
        exact = checks.lapack_charpoly(rho)
        off = exact.copy()
        off[-3] *= 1.0 + 1e-4  # e_2, well conditioned at any rank
        flipped = exact.copy()
        flipped[-3] = -flipped[-3]
        return {
            "eigenvalues vs LAPACK": checks.eig_lapack_error(eigs + 1e-9, rho) is not None,
            "eigenvalues sum": checks.trace_identity_error(eigs * (1 + 1e-9)) is not None,
            "eigenvalues sum of squares": checks.purity_identity_error(moved, rho) is not None,
            "audit count": checks.audit_error(short, rho, len(Q_VALUES), m) is not None,
            "audit satisfied": checks.audit_error(violated, rho, len(Q_VALUES), m) is not None,
            "audit det rho1 bound": checks.audit_error(det_off, rho, len(Q_VALUES), m) is not None,
            "audit det rho1 einsum": checks.audit_error(det_moved, rho, len(Q_VALUES), m) is not None,
            "reduce_rho1 einsum": self.reductions_error(bumped, rho2, swapped, rho, m)[0] is not None,
            "reduce_rho2 einsum": self.reductions_error(rho1, bumped2, swapped, rho, m)[1] is not None,
            "reduce_swapped einsum": self.reductions_error(
                rho1, rho2, (swapped[0], swapped[1] + 1e-9), rho, m)[2] is not None,
            "eigen_probability": self.spectrum_error(probs[::-1], rho) is not None,
            "char_poly accepts LAPACK coefficients": checks.charpoly_coefficient_error(exact, rho) is None,
            "char_poly coefficients": checks.charpoly_coefficient_error(off, rho) is not None,
            "char_poly sign pattern": checks.charpoly_sign_error(flipped, rho) is not None,
        }


class RotatedFrames:
    """Encodes through codec.rotate_table at N = 6, one fresh and one shared rotation per state."""

    DIM = 6
    KINDS = ("ginibre", "rank2", "pure")
    POOL = 64  # states per kind
    cycle = POOL
    rss_rounds = 2000  # 6000 frame-cache misses
    SHARED = 4
    trace_rounds = 200

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.sample = None

    def setup(self) -> None:
        ranks = {"ginibre": self.DIM, "rank2": 2, "pure": 1}
        self.states = []
        for kind in self.KINDS:
            arrays = [ginibre(self.rng, self.DIM, ranks[kind]) for _ in range(self.POOL)]
            self.states.append([(a, matcore.validate_density(matcore.make_hermitian(self.DIM, a)))
                                for a in arrays])
        self.shared = [haar_rotation(self.rng) for _ in range(self.SHARED)]

    def round(self, r: int) -> list:
        return [(*self.states[k][r % self.POOL], haar_rotation(self.rng),
                 self.shared[(r * len(self.KINDS) + k) % self.SHARED])
                for k in range(len(self.KINDS))]

    @staticmethod
    def ops(item) -> int:
        return 2

    def run(self, item):
        _, state, fresh, shared = item
        return codec.rotate_table(state, fresh), codec.rotate_table(state, shared)

    def check(self, item, out, tally: Tally) -> None:
        rho, _, fresh, shared = item
        tables = [t.to_json_dict() for t in out]
        for name, table, rot in zip(("fresh", "shared"), tables, (fresh, shared)):
            tally.op(f"rotate_table {name}",
                     checks.table_error(table, self.DIM, checks.rotated_table(rho, rot)))
        if self.sample is None:
            self.sample = (rho, fresh, shared, tables)

    def controls(self) -> dict[str, bool]:
        """Control name -> whether a perturbed output made its check fail."""
        rho, fresh, shared, (t_fresh, t_shared) = self.sample
        bumped = json.loads(json.dumps(t_fresh))
        bumped["planes"][-1]["p2"] += 1e-9
        return {
            "rotated closed form": checks.table_error(
                bumped, self.DIM, checks.rotated_table(rho, fresh)) is not None,
            "rotated frame identity": checks.table_error(
                t_shared, self.DIM, checks.rotated_table(rho, fresh)) is not None,
        }


WORKLOADS = {
    "cli_qudit_batch": CliQuditBatch,
    "composite_audit": CompositeAudit,
    "rotated_frames": RotatedFrames,
}
