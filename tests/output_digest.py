"""Print one JSON line per instance of the 178-instance set, for diffing two
versions of the solvers' outputs.

    PYTHONPATH=src python tests/output_digest.py > digest.jsonl
    PYTHONPATH=src python tests/output_digest.py d2 'pomdp_dict(3)'   # some only

The set is static3, static3_reindexed, d2, d2ext, wom3, `fuzz_instance(0..49)`,
`random_topology_instance(0..59)`, `pomdp_dict(1..7)`, every op of the
bench's three workloads at seeds 7 and 8 and `tail_read_dict(0..5)`, whose
agent 2 has tail grids that read a digit its support does not. Per instance
a line holds:

- `compare`: the `compare_agents` rows without `wall_time`;
- `chain`: per pass of the chain down to agent 1, its value, examined,
  steps, shared, entries, widths and every stage's decided tables;
- `dp`: per agent k, `solve_prescription_dp(., k)` (at horizon 0
  `solve_prescription_static`): optimal_cost, dp_value, search_size,
  extras, the emitted strategy document, `belief_tree` and `belief_policy`;
- `belief_step`: per agent, along every reachable branch of a seeded random
  prescription strategy, each step's new information, mass and posterior;
- `accessible_support` and `initial_information_state`: per agent, each t=0
  accessible realization with its mass, and with its initial belief;
- `brute`: `solve_brute_force`'s vectorized_cost, optimal_cost,
  search_size and the sha256 of its tables, sorted, as JSON;
- `counts`: `count_strategies` for "brute" and for each agent k (key
  `agent_k`), as decimal strings.

Floats are written by `float.hex` and failures as [error class, message],
so two outputs are equal exactly when the results are bit for bit. Run it at
two commits and `diff` the outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import numpy as np

from helpers import (
    fuzz_instance,
    pomdp_dict,
    random_prescription_strategy,
    random_topology_instance,
    tail_read_dict,
)
from test_stage_pass import _bench_workloads
from womctl import instances
from womctl.belief import accessible_support, belief_step, initial_information_state
from womctl.prescription import complete_prescription_at, count_strategies
from womctl.serialize import prescription_strategy_to_dict
from womctl.solver import (
    _solve_chain,
    compare_agents,
    resolve_caps,
    solve_brute_force,
    solve_prescription_dp,
    solve_prescription_static,
)
from womctl.sysmodel import instance_from_dict

BENCH_SEEDS = (7, 8)


def instance_set() -> dict:
    """Name -> a function that builds the instance, in the set's order."""
    cases = {
        "static3": instances.load_static3,
        "static3_reindexed": instances.load_static3_reindexed,
        "d2": instances.load_d2,
        "d2ext": instances.load_d2ext,
        "wom3": instances.load_wom3,
    }
    cases.update({f"fuzz_instance({s})": lambda s=s: fuzz_instance(s) for s in range(50)})
    cases.update({
        f"random_topology_instance({s})": lambda s=s: random_topology_instance(s) for s in range(60)
    })
    cases.update({
        f"pomdp_dict({T})": lambda T=T: instance_from_dict(pomdp_dict(T)) for T in range(1, 8)
    })
    for seed in BENCH_SEEDS:
        for name, generate in _bench_workloads().GENERATORS.items():
            for op in generate(seed):
                cases[f"{seed}/{name}/{op.label}"] = lambda doc=op.doc: instance_from_dict(doc)
    cases.update({
        f"tail_read_dict({s})": lambda s=s: instance_from_dict(tail_read_dict(s)) for s in range(6)
    })
    return cases


def plain(value):
    """`value` as JSON: floats by `float.hex`, arrays and tuples as lists,
    dict keys as strings."""
    if isinstance(value, (bool, type(None), str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    return [plain(v) for v in value]


def attempt(fn):
    """`fn()` as plain JSON, or its failure as [error class, message]."""
    try:
        return plain(fn())
    except Exception as exc:  # every failure is part of the output
        return {"error": [type(exc).__name__, str(exc)]}


def _compare(instance):
    rows = compare_agents(instance).rows
    return [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]


def _chain(instance):
    chain = _solve_chain(instance, 1, resolve_caps())
    return {
        j: [p.value, p.examined, p.steps, p.shared, p.entries, p.widths,
            [stage.tables for stage in p.stages]]
        for j, p in chain.items()
    }


def _dp(instance, k):
    solve = solve_prescription_static if instance.horizon == 0 else solve_prescription_dp
    res = solve(instance, k)
    return [res.optimal_cost, res.dp_value, res.search_size, res.extras,
            prescription_strategy_to_dict(instance, res.prescription_strategy),
            res.belief_tree, res.belief_policy]


def _brute(instance):
    res = solve_brute_force(instance)
    tables = sorted((key, sorted(table.items()))
                    for key, table in res.control_strategy.tables.items())
    return [res.extras["vectorized_cost"], res.optimal_cost, res.search_size,
            hashlib.sha256(json.dumps(plain(tables)).encode()).hexdigest()]


def _decimal(count: int) -> str:
    """`count` in decimal, however many digits it has."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(limit)


def _counts(instance):
    modes = {"brute": "brute"} | {f"agent_{k}": k for k in range(1, instance.agent_count + 1)}
    return {name: _decimal(count_strategies(instance, mode)) for name, mode in modes.items()}


def _steps(instance, k):
    """Each step along every reachable branch of a seeded random strategy,
    depth first: stage, new information, mass and posterior."""
    psi, out = random_prescription_strategy(instance, k, random.Random(k)), []

    def visit(t, amap, pi):
        if t == instance.horizon:
            return
        a_real = tuple(amap[v] for v in instance.info.accessible(t, k))
        theta = complete_prescription_at(instance, psi, t, a_real)
        for z, (mass, nxt) in belief_step(instance, pi, theta).items():
            out.append([t, z, mass, nxt.probs])
            visit(t + 1, {**amap, **dict(zip(instance.info.new_info(t + 1, k), z))}, nxt)

    for a0, pi in initial_information_state(instance, k).items():
        visit(0, dict(zip(instance.info.accessible(0, k), a0)), pi)
    return out


def digest(name, build) -> dict:
    """The line of one instance."""
    try:
        instance = build()
    except Exception as exc:
        return {"name": name, "error": [type(exc).__name__, str(exc)]}
    agents = range(1, instance.agent_count + 1)
    return {
        "name": name,
        "compare": attempt(lambda: _compare(instance)),
        "chain": attempt(lambda: _chain(instance)),
        "dp": {k: attempt(lambda k=k: _dp(instance, k)) for k in agents},
        "belief_step": {k: attempt(lambda k=k: _steps(instance, k)) for k in agents},
        "accessible_support": {
            k: attempt(lambda k=k: list(accessible_support(instance, k).items())) for k in agents
        },
        "initial_information_state": {
            k: attempt(lambda k=k: [
                (a_real, pi.probs) for a_real, pi in initial_information_state(instance, k).items()
            ])
            for k in agents
        },
        "brute": attempt(lambda: _brute(instance)),
        "counts": attempt(lambda: _counts(instance)),
    }


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    cases = instance_set()
    unknown = [name for name in names if name not in cases]
    if unknown:
        print(f"unknown instances: {unknown}", file=sys.stderr)
        return 2
    for name in names or cases:
        print(json.dumps(digest(name, cases[name]), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
