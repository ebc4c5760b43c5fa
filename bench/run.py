"""Benchmark of dichoq: one workload, one seed, one process.

    python3 bench/run.py --workload composite_audit --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. The
workload runs whole rounds of states until --seconds have passed since the
first timed state, checks every output against independent computations,
then runs the negative controls. A human summary goes to stderr; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See bench/README.md.
"""

import time

_START_WALL = time.perf_counter()
# CPU time spent since exec: the interpreter's start-up, nearly all on the CPU
_START_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the load comes from this single process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "states_per_s": "1/s",
    "state_ms_p50": "ms",
    "state_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def import_program() -> None:
    """Import dichoq from this checkout's src/, never from anywhere else."""
    if not (SRC / "dichoq" / "__init__.py").is_file():
        sys.exit(f"bench: no dichoq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dichoq

    if Path(dichoq.__file__).resolve().parent != SRC / "dichoq":
        sys.exit(f"bench: imported dichoq from {dichoq.__file__}, not from {SRC}")


def parse_args(names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_item(workload, item, tally):
    """Time one state's pipeline, then check its outputs; returns seconds or None.

    An operation that raised, or whose output could not be read, is a
    failed one; the run goes on.
    """
    start = time.perf_counter()
    try:
        out = workload.run(item)
    except Exception as exc:
        for _ in range(workload.ops(item)):
            tally.op("run", f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    before = tally.attempted
    try:
        workload.check(item, out, tally)
    except Exception as exc:
        for _ in range(workload.ops(item) - (tally.attempted - before)):
            tally.op("check", f"{type(exc).__name__}: {exc}")
    return elapsed


def main() -> int:
    import_program()
    import numpy as np

    from tracing import Tracer, per_layer_units
    from workloads import WORKLOADS, Tally

    args = parse_args(sorted(WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    tally = Tally()
    try:
        if tracer:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()

        times, traced_s, untraced_s = [], 0.0, 0.0
        first_state = time.perf_counter()
        setup_s = first_state - _START_WALL + _START_CPU
        r = 0
        # a traced run first runs each of its first rounds twice, and each
        # state once traced and once not, back to back in alternating order:
        # the traced runs give per-layer figures for a fixed amount of work,
        # the pairs the tracing overhead
        while tracer and r < workload.trace_rounds:
            for i, pair in enumerate(zip(workload.round(r), workload.round(r))):
                for item, traced in zip(pair, (True, False) if (r + i) % 2 == 0 else (False, True)):
                    if traced:
                        tracer.install()
                    else:
                        tracer.uninstall()
                    tally.counts = tracer.counts if traced else None
                    tracer.state = len(times)
                    elapsed = run_item(workload, item, tally)
                    if elapsed is not None:
                        times.append(elapsed)
                        if traced:
                            traced_s += elapsed
                        else:
                            untraced_s += elapsed
            r += 1
        if tracer:
            tracer.uninstall()
        tally.counts = None
        # a state recurs every workload.cycle rounds; the fastest of its
        # repeats, spread over the run, is its time: load from the host's
        # other tenants slows some repeats, never speeds one up
        repeats, rss_kib = {}, None
        while r == 0 or time.perf_counter() - first_state < args.seconds:
            for i, item in enumerate(workload.round(r)):
                elapsed = run_item(workload, item, tally)
                if elapsed is not None:
                    times.append(elapsed)
                    repeats.setdefault((r % workload.cycle, i), []).append(elapsed)
            r += 1
            if r == workload.rss_rounds:
                # memory after a fixed amount of work, not after as much
                # work as the host let the run do
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rss_kib is None:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall_s = time.perf_counter() - first_state
        controls = workload.controls()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if not times:
        sys.exit("bench: no state completed its pipeline")
    bad_controls = [name for name, ok in controls.items() if not ok]
    correct = not tally.errors and not bad_controls
    if tracer:
        tracer.write(OUT_DIR / f"trace-{args.workload}-s{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
        values = tracer.metrics(100.0 * (traced_s / untraced_s - 1.0))
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
    else:
        state_ms = np.array([min(t) for t in repeats.values()]) * 1e3
        values = {
            "states_per_s": len(state_ms) / (state_ms.sum() / 1e3),
            "state_ms_p50": float(np.percentile(state_ms, 50)),
            "state_ms_p90": float(np.percentile(state_ms, 90)),
            "peak_rss_mib": rss_kib / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS

    print(f"{args.workload} seed {args.seed}: {len(times)} states in {r} rounds "
          f"({len(repeats)} distinct, each timed {min(map(len, repeats.values()), default=0)} "
          f"to {max(map(len, repeats.values()), default=0)} times), "
          f"{wall_s:.2f} s wall, {tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
    for line in tally.errors[:10]:
        print(f"  unexpected failure: {line}", file=sys.stderr)
    for name in bad_controls:
        print(f"  negative control did not trip: {name}", file=sys.stderr)
    print(f"  {len(controls) - len(bad_controls)}/{len(controls)} negative controls tripped", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
