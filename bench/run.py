"""womctl benchmark: seeded closed-loop workloads against the public API.

    python3 bench/run.py --workload fuzz_compare --seed 1 --seconds 30 --trace 0

Runs from any directory; the package is imported from `src/` next to this
directory. One process, numpy pinned to one thread. A run sets up the
workload several times (womctl import, instance generation from the seed,
validation), then repeats passes over the workload's fixed operation list
while the next pass is expected to end within `--seconds`; each pass starts
from freshly validated instances, and each operation starts when the
previous one returns.

Times are reported in reference seconds (see `hostspeed`): while a set-up
or an operation runs, a small calibration kernel is timed ten times a
second, and the set-up's or operation's time is scaled by its median, so
that a shared host's changing speed cancels. The raw wall times, without
the kernel runs, are printed beside them and kept in the result file.

Every operation is checked: each `compare_agents` row against the
brute-force oracle row, each `solve_prescription_dp` value against the
exact re-evaluation of its strategy, both at 1e-9; a cap-skipped row or an
exception is a failure. Failures an operation is known to raise today (the
relay repro's SchemaMismatch) count as failed but keep `correct` true; any
other failure makes `correct` false and the exit code 1.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
every operation also runs traced, right after its untraced run, and the run
reports the per-layer metrics of `spans.LAYER_METRICS` per pass (raw
seconds, which include the kernel runs inside the spans, about 3 %) plus the
tracing overhead (traced minus untraced solve time, in reference seconds);
the spans are written next to the result file.

The last stdout line is one JSON object; the full record, with run
metadata and every instance digest, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 9
COST_TOL = 1e-9


def _import_womctl():
    """Fresh import of every womctl module, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "womctl" or n.startswith("womctl.")]:
        del sys.modules[name]
    return importlib.import_module("womctl")


def set_up(workload: str, seed: int):
    """Import womctl, generate the operations and validate their instances.

    Returns the `hostspeed.Timing` of the set-up and what it made.
    """
    gc.collect()  # the previous set-up's modules are garbage; keep that out
    with hostspeed.timed() as timing:
        womctl = _import_womctl()
        ops = workloads.GENERATORS[workload](seed)
        instances = [womctl.sysmodel.instance_from_dict(op.doc) for op in ops]
    return timing, womctl, ops, instances


def check(op, result) -> str | None:
    """Why the operation's output is wrong, or None when it is right."""
    if op.call == workloads.DP_AGENT1:
        gap = abs(result.dp_value - result.optimal_cost)
        if gap > COST_TOL:
            return f"dp_value misses the exact re-evaluated cost by {gap:.3g}"
        return None
    rows = result.rows
    skipped = [r for r in rows if r["status"] != "ok"]
    if skipped:
        return "cap-skipped: " + ", ".join(f"{r['method']}/{r['agent']}" for r in skipped)
    oracle = [r["cost"] for r in rows if r["method"] == "brute"]
    if not oracle:
        return "no brute-force oracle row"
    for r in rows:
        if abs(r["cost"] - oracle[0]) > COST_TOL:
            return f"{r['method']}/{r['agent']} misses the oracle by {abs(r['cost'] - oracle[0]):.3g}"
    return None


def run_op(solver, op, inst) -> dict:
    """Time one operation after a full garbage collection and check its output.

    The collection keeps each operation from paying for its predecessors'
    garbage.
    """
    gc.collect()
    result = error = None
    with hostspeed.timed() as timing:
        try:
            if op.call == workloads.COMPARE:
                result = solver.compare_agents(inst)
            else:
                result = solver.solve_prescription_dp(inst, 1)
        except Exception as exc:  # a raising operation is a counted failure
            error = f"{type(exc).__name__}: {exc}"
            known = type(exc).__name__ == op.known_defect
            if not known:
                error += "\n" + traceback.format_exc()
    if error is None:
        error = check(op, result)
        known = False
    return {
        "op": op.label,
        "latency_s": timing.seconds,
        "kernel_s": timing.kernel_s,
        "ref_s": timing.ref_s,
        "ok": error is None,
        "known": known,
        "error": error,
    }


def run_pass(womctl, ops, tracer=None) -> tuple[list[dict], list[dict]]:
    """One closed-loop pass over the operations on freshly validated instances.

    With a tracer, each operation runs a second time right after, traced and
    on its own fresh instance, so the traced and untraced timings of an
    operation see the same machine conditions. Returns the untraced and the
    traced records.
    """
    def fresh():
        return [womctl.sysmodel.instance_from_dict(op.doc) for op in ops]

    plain_instances = fresh()
    traced_instances = []
    if tracer is not None:
        with tracer.installed():
            traced_instances = fresh()
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(run_op(womctl.solver, op, plain_instances[i]))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_op(womctl.solver, op, traced_instances[i]))
    if tracer is not None:
        tracer.end_pass()
    return plain, traced


def wall(records, key="latency_s") -> float:
    """Solve time of a pass: the sum of its operation latencies, raw or `ref_s`."""
    return sum(r[key] for r in records)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "one process, closed loop over the pass's operation list",
    }


def measure(seconds, womctl, ops, tracer=None) -> list:
    """Passes while the next, as long as the last, ends within `seconds`; at least one."""
    passes = []
    clock = time.perf_counter
    started = clock()
    last = 0.0
    while not passes or clock() - started + last <= seconds:
        pass_started = clock()
        passes.append(run_pass(womctl, ops, tracer))
        last = clock() - pass_started
    return passes


def end_to_end(plain, setups, key="ref_s") -> dict:
    """End-to-end metrics from the untraced records of each pass and the set-ups.

    Times are in reference seconds, or raw wall seconds with key="latency_s".
    """
    # every attempted operation counts, so fixing a failing one keeps the sample set
    by_op: dict[str, list[float]] = {}
    for recs in plain:
        for r in recs:
            by_op.setdefault(r["op"], []).append(r[key])
    attempted = sum(len(recs) for recs in plain)
    failed = sum(not r["ok"] for recs in plain for r in recs)
    setup = "seconds" if key == "latency_s" else key
    return {
        "solve_s": (statistics.median(wall(recs, key) for recs in plain), "s"),
        # the median operation of the list, each operation at its median over passes
        "op_s.p50": (statistics.median(statistics.median(v) for v in by_op.values()), "s"),
        "op_s.max": (statistics.median(max(r[key] for r in recs) for recs in plain), "s"),
        "setup_s": (statistics.median(getattr(t, setup) for t in setups), "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401  (after the pinning; outside the set-up timing)

        setups = []
        for _ in range(SETUP_REPEATS):
            timing, womctl, ops, instances = set_up(args.workload, args.seed)
            setups.append(timing)
    except ImportError as exc:
        print(f"cannot import womctl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(womctl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"womctl imported from {womctl.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    digests = [
        {"op": op.label, "call": op.call, "digest": womctl.sysmodel.instance_digest(inst)}
        for op, inst in zip(ops, instances)
    ]
    del instances
    tracer = spans.Tracer() if args.trace else None
    passes = measure(args.seconds, womctl, ops, tracer)
    plain = [p for p, _ in passes]
    traced = [t for _, t in passes]
    records = [r for recs in plain + traced for r in recs]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = all(r["ok"] or r["known"] for r in records)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": metadata(args), "instances": digests}
    print(f"womctl bench  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    for d in digests:
        print(f"  instance {d['op']:18s} {d['call']} sha256:{d['digest'][:16]}")
    print(
        f"{len(ops)} ops/pass, {len(passes)} passes, attempted={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.4f} correct={correct}"
    )
    for r in records:
        if not r["ok"]:
            print(f"  failed {'(known) ' if r['known'] else ''}{r['op']}: {r['error'].splitlines()[0]}")
    if args.trace:
        layers = spans.layer_metrics(tracer, len(passes))
        layers["trace.overhead_s"] = statistics.median(
            wall(t, "ref_s") - wall(p, "ref_s") for p, t in passes
        )
        metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in layers.items()}
        tracer.write(RESULTS / f"{stem}-spans.npz")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    else:
        e2e = end_to_end(plain, setups)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        raw = {
            name: value
            for name, (value, unit) in end_to_end(plain, setups, "latency_s").items()
            if unit == "s"
        }
        notes = {
            "solve_s": f"median of {len(passes)} passes",
            "op_s.p50": f"median of {len(ops)} per-operation medians, n={len(plain) * len(ops)} operations",
            "op_s.max": "median over passes of the slowest operation",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "success_ratio": f"1 - fail_ratio, fail_ratio = {failed}/{attempted}",
            "peak_rss_mb": "ru_maxrss of the process",
        }
        kernel_s = statistics.median(r["kernel_s"] for r in records)
        print(
            f"times in reference seconds; calibration kernel median {kernel_s * 1e3:.3f} ms "
            f"in the operations, {hostspeed.REFERENCE_S * 1e3:.3f} ms on the reference host"
        )
        for name, m in metrics.items():
            wall_time = f"wall {raw[name]:10.6g} s  " if name in raw else ""
            print(f"{name:14s} {m['value']:12.6g} {m['unit']:6s} {wall_time}{notes[name]}")
        record.update(raw_wall_s=raw)
    record.update(
        setups=[{"wall_s": t.seconds, "kernel_s": t.kernel_s, "ref_s": t.ref_s} for t in setups],
        passes=[
            {
                "wall_s": wall(p),
                "ref_s": wall(p, "ref_s"),
                "traced_wall_s": wall(t) if t else None,
                "traced_ref_s": wall(t, "ref_s") if t else None,
            }
            for p, t in passes
        ],
        operations=records,
        fail_ratio=failed / attempted,
        metrics=metrics,
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {(RESULTS / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
