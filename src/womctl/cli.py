"""Command-line front end.

Every subcommand prints a human-readable table to stdout and can write a JSON
report ({command, instance_digest, results, timings}) via --report. Exit codes:
0 success, 1 unreadable input or unwritable output, 2 search cap exceeded,
3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import instances as bundled
from .errors import CapExceeded, WomError, checked_index, format_count
from .netgraph import information_path
from .prescription import count_strategies
from .serialize import (
    control_strategy_to_dict,
    prescription_strategy_to_dict,
    strategy_from_dict,
)
from .solver import (
    compare_agents,
    solve_brute_force,
    solve_common_info_dp,
    solve_prescription_dp,
    solve_prescription_static,
)
from .sysmodel import (
    exact_strategy_cost,
    instance_digest,
    instance_from_dict,
    load_instance,
    monte_carlo_cost,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_INVALID = 3


def _braced(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _cmd_validate(args):
    inst = load_instance(args.instance)
    print(f"instance ok: {inst.agent_count} agents, horizon {inst.horizon}")
    return {"valid": True, "agents": inst.agent_count, "horizon": inst.horizon}, inst


def _cmd_delays(args):
    inst = load_instance(args.instance)
    print("minimal delays d[from][to]:")
    for row in inst.delays.rows:
        print("  " + " ".join(f"{d:3d}" for d in row))
    paths = None
    if inst.network is not None:
        paths = {}
        for s in range(1, inst.agent_count + 1):
            for t in range(1, inst.agent_count + 1):
                p = information_path(inst.network, s, t)
                paths[f"{s}->{t}"] = {"path": list(p.agents), "delay": p.total_delay}
    return {"delay_matrix": [list(r) for r in inst.delays.rows], "paths": paths}, inst


def _cmd_schema(args):
    inst = load_instance(args.instance)
    info, T, K = inst.info, inst.horizon, inst.agent_count
    times = range(T + 1) if args.time is None else [checked_index(args.time, "time", 0, T)]
    agents = range(1, K + 1) if args.agent is None else [checked_index(args.agent, "agent", 1, K)]
    results = []
    for t in times:
        for k in agents:
            row = {
                "t": t,
                "agent": k,
                "memory": [v.label() for v in info.memory(t, k)],
                "accessible": [v.label() for v in info.accessible(t, k)],
                "new_info": [v.label() for v in info.new_info(t, k)],
                "inaccessible": {
                    str(i): [v.label() for v in info.inaccessible(t, k, i)] for i in range(k, K + 1)
                },
                "equivalent_state": [v.label() for v in info.equivalent_state(t, k)],
            }
            print(f"t={t} agent {k}")
            print(f"  memory       {_braced(row['memory'])}")
            print(f"  accessible   {_braced(row['accessible'])}")
            print(f"  new info     {_braced(row['new_info'])}")
            for i, labels in row["inaccessible"].items():
                print(f"  inaccessible[{k},{i}] {_braced(labels)}")
            print(f"  state coords X@{t} + {_braced(row['equivalent_state'])}")
            results.append(row)
    return {"schemas": results}, inst


def _counts(inst) -> dict:
    """Strategy-space sizes per method, as decimal strings or power-of-ten bounds."""
    modes = {"brute": "brute"} | {f"agent_{k}": k for k in range(1, inst.agent_count + 1)}
    return {name: format_count(count_strategies(inst, mode)) for name, mode in modes.items()}


def _cmd_counts(args):
    inst = load_instance(args.instance)
    rows = _counts(inst)
    print("strategy-space sizes:")
    for name, n in rows.items():
        print(f"  {name:10s} {n}")
    return {"counts": rows}, inst


def _result_row(res):
    row = {
        "method": res.method,
        "agent": res.agent,
        "optimal_cost": res.optimal_cost,
        "search_size": format_count(res.search_size),
        "wall_time": res.wall_time,
    }
    if res.dp_value is not None:
        row["dp_value"] = res.dp_value
    return row


def _cmd_solve(args):
    inst = load_instance(args.instance)
    method = args.method
    if method == "brute":
        res = solve_brute_force(inst, args.cap)
    elif method == "common-info":
        res = solve_common_info_dp(inst, args.cap)
    elif method == "prescription":
        if args.agent is None:
            raise WomError("--agent is required for the prescription method")
        if inst.horizon == 0:
            res = solve_prescription_static(inst, args.agent, args.cap)
        else:
            res = solve_prescription_dp(inst, args.agent, args.cap)
    else:
        raise WomError(f"unknown method {method}")
    print(
        f"{res.method}"
        + (f" (agent {res.agent})" if res.agent else "")
        + f": optimal cost {res.optimal_cost:.9f}, searched {res.search_size}"
    )
    if args.emit_strategy:
        doc = (
            prescription_strategy_to_dict(inst, res.prescription_strategy)
            if res.prescription_strategy is not None
            else control_strategy_to_dict(inst, res.control_strategy)
        )
        with open(args.emit_strategy, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"strategy written to {args.emit_strategy}")
    if args.emit_beliefs:
        with open(args.emit_beliefs, "w", encoding="utf-8") as fh:
            json.dump({"belief_tree": res.belief_tree}, fh, indent=1, sort_keys=True)
        print(f"beliefs written to {args.emit_beliefs}")
    return {"solve": _result_row(res)}, inst


def _read_strategy(inst, path):
    with open(path, "r", encoding="utf-8") as fh:
        return strategy_from_dict(inst, json.load(fh))


def _cmd_evaluate(args):
    inst = load_instance(args.instance)
    report = exact_strategy_cost(inst, _read_strategy(inst, args.strategy))
    print(f"exact expected cost {report.expected_cost:.9f}")
    print("per-stage " + " ".join(f"{c:.9f}" for c in report.per_stage_costs))
    return {
        "expected_cost": report.expected_cost,
        "per_stage_costs": list(report.per_stage_costs),
        "method": report.method,
    }, inst


def _cmd_simulate(args):
    inst = load_instance(args.instance)
    report = monte_carlo_cost(inst, _read_strategy(inst, args.strategy), args.samples, args.seed)
    print(
        f"monte carlo: {report.expected_cost:.9f} +/- {report.stderr:.9f} "
        f"({args.samples} samples, seed {args.seed})"
    )
    return {
        "expected_cost": report.expected_cost,
        "stderr": report.stderr,
        "sample_count": report.sample_count,
        "seed": report.seed,
        "per_stage_costs": list(report.per_stage_costs),
    }, inst


def _print_rows(rows):
    """One line per `compare_agents` row: its cost and search size, or why it was skipped."""
    for row in rows:
        if row["status"] == "ok":
            agent = f" agent {row['agent']}" if row["agent"] else ""
            print(
                f"  {row['method']:20s}{agent:9s} cost {row['cost']:.9f} "
                f"searched {row['search_size']}"
            )
        else:
            print(f"  {row['method']:20s} skipped: {row['reason']}")


def _cmd_compare(args):
    inst = load_instance(args.instance)
    rep = compare_agents(inst, args.cap)
    _print_rows(rep.rows)
    print(f"max cost spread {rep.max_spread:.3e}")
    return {"rows": rep.rows, "max_spread": rep.max_spread}, inst


def _cmd_demo(args):
    names = args.names or ["static3", "wom3"]
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    results = {}
    inst = None
    for name in names:
        if name not in bundled.BUNDLED:
            raise WomError(f"unknown demo instance {name}; choose from {sorted(bundled.BUNDLED)}")
        doc = bundled.BUNDLED[name]()
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        inst = instance_from_dict(doc)
        print(f"{name}: written to {path}")
        counts = _counts(inst)
        print("  counts " + json.dumps(counts))
        rep = compare_agents(inst, args.cap)
        _print_rows(rep.rows)
        results[name] = {
            "path": path,
            "counts": counts,
            "compare": rep.rows,
            "max_spread": rep.max_spread,
        }
    return {"demo": results}, inst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="womctl",
        description="Solvers for finite decentralized control with delayed information sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--report", help="write the JSON report to this path")

    p = sub.add_parser("validate", help="validate an instance file")
    common(p)
    p = sub.add_parser("delays", help="print the minimal-delay matrix and paths")
    common(p)
    p = sub.add_parser("schema", help="print information schemas")
    common(p)
    p.add_argument("--time", type=int)
    p.add_argument("--agent", type=int)
    p = sub.add_parser("counts", help="print strategy-space sizes")
    common(p)
    p = sub.add_parser("solve", help="compute an optimal strategy")
    common(p)
    p.add_argument("--method", required=True, choices=["brute", "common-info", "prescription"])
    p.add_argument("--agent", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--emit-strategy")
    p.add_argument("--emit-beliefs")
    p = sub.add_parser("evaluate", help="exact cost of a strategy file")
    common(p)
    p.add_argument("--strategy", required=True)
    p = sub.add_parser("simulate", help="Monte Carlo cost of a strategy file")
    common(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("compare", help="run all applicable solvers and compare optima")
    common(p)
    p.add_argument("--cap", type=int)
    p = sub.add_parser("demo", help="materialize bundled instances and compare solvers")
    p.add_argument("names", nargs="*", help="subset of: static3 wom3 d2 d2ext")
    p.add_argument("--outdir")
    p.add_argument("--cap", type=int)
    p.add_argument("--report", help="write the JSON report to this path")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "delays": _cmd_delays,
    "schema": _cmd_schema,
    "counts": _cmd_counts,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        results, inst = _HANDLERS[args.command](args)
        if args.report:
            report = {
                "command": args.command,
                "instance_digest": instance_digest(inst) if inst is not None else None,
                "results": results,
                "timings": {"wall_time": time.perf_counter() - started},
            }
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True, default=str)
            print(f"report written to {args.report}")
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
