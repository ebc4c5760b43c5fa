"""Spans and call counts recorded by the benchmark's own wrappers.

Each traced function is replaced by a wrapper in its module's namespace
and in every namespace that bound the name at import, so the program is
measured from outside and nothing under src/ changes. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the durations of its direct children; spans nest, since
the program runs on one thread.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from dichoq import cli, codec, entropy, frames, genstates, matcore, reduction, spectra

# metric prefix -> every (namespace, attribute) through which the program reaches it
TARGETS = {
    "matcore.eigvals_hermitian": [(matcore, "eigvals_hermitian")],
    "matcore.validate_density": [
        (matcore, "validate_density"),
        (genstates, "validate_density"),
        (reduction, "validate_density"),
    ],
    "matcore.matrix_from_json_dict": [(matcore, "matrix_from_json_dict")],
    "entropy.vn_suite_from_matrix": [(entropy, "vn_suite_from_matrix")],
    "entropy.tsallis_suite_from_matrix": [(entropy, "tsallis_suite_from_matrix")],
    "entropy.reduced_suite_from_matrix": [(entropy, "reduced_suite_from_matrix")],
    "spectra.det_bounds_from_matrix": [(spectra, "det_bounds_from_matrix")],
    "spectra.char_poly": [(spectra, "char_poly")],
    "reduction.reduce_rho1": [(reduction, "reduce_rho1"), (spectra, "reduce_rho1")],
    "reduction.reduce_rho2": [(reduction, "reduce_rho2"), (spectra, "reduce_rho2")],
    "reduction.reduce_swapped": [(reduction, "reduce_swapped")],
    "codec.encode": [(codec, "encode")],
    "codec.decode": [(codec, "decode")],
    "codec.table_from_json_dict": [(codec, "table_from_json_dict")],
    "frames.build_frame": [(frames, "build_frame"), (codec, "build_frame")],
    "frames.ProjectorFrame": [(frames.ProjectorFrame, "__init__")],
    "cli.main": [(cli, "main")],
    "cli.canonical_json": [(cli, "canonical_json")],
    "genstates.random_mixed": [(genstates, "random_mixed")],
    "genstates.random_pure": [(genstates, "random_pure")],
    "genstates.random_product": [(genstates, "random_product")],
}

# counts the workloads' checks record while a traced pass runs (see README)
CHECK_COUNTS = (
    "spectra.char_poly.failed",
    "spectra.char_poly.failed_uncounted",
    "spectra.char_poly.sign_broken",
)


def projector_bytes(dim: int) -> int:
    """Bytes of the dense projectors of one frame: 3 N(N-1)/2 complex N x N arrays."""
    return 3 * dim * (dim - 1) // 2 * dim * dim * 16


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for name in CHECK_COUNTS:
        units[name] = ("count", "lower")
    units["frames.projector_bytes"] = ("B_computed", "lower")
    units["frames.cache_hits"] = ("count", "higher")
    units["trace.overhead_pct"] = ("%", "lower")
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, state, name, start, end)
        self.counts: Counter = Counter()
        self.frame_dims: list[int] = []
        self.state = -1  # index of the timed state; -1 during set-up
        self._stack: list[int] = []
        self._next_id = 0
        self._origin = time.perf_counter()
        self._originals = [
            (ns, attr, getattr(ns, attr)) for places in TARGETS.values() for ns, attr in places
        ]
        self._wrappers = [
            (ns, attr, self._wrap(name, getattr(ns, attr)))
            for name, places in TARGETS.items()
            for ns, attr in places
        ]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_frame = name == "frames.ProjectorFrame"

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            if is_frame:
                self.frame_dims.append(args[1] if len(args) > 1 else kwargs["dim"])
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.state, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for ns, attr, wrapper in self._wrappers:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in self._originals:
            setattr(ns, attr, original)

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[span_id]
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in CHECK_COUNTS:
            out[name] = self.counts[name]
        out["frames.projector_bytes"] = sum(projector_bytes(d) for d in self.frame_dims)
        out["frames.cache_hits"] = calls["frames.build_frame"] - calls["frames.ProjectorFrame"]
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path, header: dict) -> None:
        """Spans (times in s from tracer creation) and counts as one JSON file."""
        payload = dict(header)
        payload["counts"] = dict(self.counts)
        payload["span_fields"] = ["id", "parent", "state", "name", "start_s", "end_s"]
        payload["spans"] = [
            [i, p, s, n, round(a - self._origin, 9), round(b - self._origin, 9)]
            for i, p, s, n, a, b in sorted(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
