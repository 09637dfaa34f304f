"""The interned forward pass against the tuple-keyed reference pass of
`oracles.forward_pass_reference`: exact costs equal by `float.hex`, feasible
sets by `==`, and the same `CapExceeded`, `DomainMismatch` and `OutOfRange`
errors, on the bundled instances, the fuzzed and random-topology ones and the
POMDP ladder. Brute force's own uncut pass and the strategy count's cut
sweeps find the same feasible sets on those and on the bench's ops."""

import dataclasses
import random

import pytest

from helpers import (
    fuzz_instance,
    pomdp_dict,
    random_control_strategy,
    random_prescription_strategy,
    random_topology_instance,
)
from oracles import exact_cost_reference, feasible_sweep_reference
from test_stage_pass import _bench_workloads
from womctl import sysmodel
from womctl.errors import CapExceeded, DomainMismatch, OutOfRange
from womctl.instances import BUNDLED, load_static3_reindexed
from womctl.prescription import count_strategies
from womctl.solver import solve_brute_force
from womctl.sysmodel import (
    ControlStrategy,
    exact_strategy_cost,
    feasible_schema_realizations,
    instance_from_dict,
)

_FAMILIES = {
    "bundled": lambda name: instance_from_dict(BUNDLED[name]()),
    "fuzz": fuzz_instance,
    "topology": random_topology_instance,
    "pomdp": lambda horizon: instance_from_dict(pomdp_dict(horizon)),
}


def _exact(instance, strategy):
    report = exact_strategy_cost(instance, strategy)
    return report.expected_cost.hex(), [c.hex() for c in report.per_stage_costs]


def _exact_reference(instance, strategy):
    total, per_stage = exact_cost_reference(instance, strategy)
    return total.hex(), [c.hex() for c in per_stage]


def _outcome(fn, *args):
    """fn's value, or the class, message and required count of its error."""
    try:
        return fn(*args)
    except (CapExceeded, DomainMismatch, OutOfRange) as exc:
        return type(exc), str(exc), getattr(exc, "required", None)


@pytest.mark.parametrize(
    "family, key",
    [("bundled", name) for name in BUNDLED]
    + [("fuzz", seed) for seed in range(50)]
    + [("topology", seed) for seed in range(60)]
    + [("pomdp", horizon) for horizon in range(1, 8)],
)
def test_forward_pass_equals_the_tuple_keyed_reference(monkeypatch, family, key):
    make = _FAMILIES[family]
    inst = make(key)
    info, T, K = inst.info, inst.horizon, inst.agent_count
    rng = random.Random(f"{family}/{key}")
    strategies = [random_control_strategy(inst, rng)]
    strategies += [random_prescription_strategy(inst, k, rng) for k in range(1, K + 1)]
    for strategy in strategies:
        assert _exact(inst, strategy) == _exact_reference(inst, strategy)
    schemas = sorted({
        schema(t, k)
        for schema in (info.memory, info.accessible)
        for t in range(T + 1)
        for k in range(1, K + 1)
    })
    for schema in schemas:
        assert feasible_schema_realizations(inst, schema) == feasible_sweep_reference(inst, schema)

    # one entry deleted from a table the pass reaches
    raised = 0
    for cell, table in strategies[0].tables.items():
        tables = {**strategies[0].tables, cell: dict(list(table.items())[1:])}
        broken = ControlStrategy(tables=tables)
        got = _outcome(_exact, inst, broken)
        assert got == _outcome(_exact_reference, inst, broken)
        raised += got[0] is DomainMismatch
    assert raised

    # one action past its agent's control size, in a table or a prescription
    for cell, table in strategies[0].tables.items():
        (real, _), size = next(iter(table.items())), inst.system.control_sizes[cell[1] - 1]
        broken = ControlStrategy(tables={**strategies[0].tables, cell: {**table, real: size}})
        got = _outcome(_exact, inst, broken)
        assert got == _outcome(_exact_reference, inst, broken)
        message = f"table (t={cell[0]}, agent={cell[1]}) maps {real} to invalid action {size}"
        assert got == (DomainMismatch, message, None)
    for psi in strategies[1:]:
        for (t, m), law in psi.laws.items():
            (cond, presc), size = next(iter(law.items())), inst.system.control_sizes[m - 1]
            wide = dataclasses.replace(presc, table=(size,) + presc.table[1:])
            broken = dataclasses.replace(psi, laws={**psi.laws, (t, m): {**law, cond: wide}})
            got = _outcome(_exact, inst, broken)
            assert got == _outcome(_exact_reference, inst, broken)
            at = f"law (t={t}, target={m}) prescription at {cond}"
            assert got == (OutOfRange, f"{at} maps row 0 to invalid action {size}", None)

    for cap in (4, 5, 16, 33, 64):
        fresh = make(key)
        monkeypatch.setattr(sysmodel, "SWEEP_CAP", cap)
        for strategy in strategies:
            assert _outcome(_exact, fresh, strategy) == _outcome(_exact_reference, fresh, strategy)
        for schema in schemas:
            fresh._cache.clear()  # feasible sets are cached per instance
            got = _outcome(feasible_schema_realizations, fresh, schema)
            assert got == _outcome(feasible_sweep_reference, fresh, schema)
        monkeypatch.undo()



def _bench_op(label):  # "seed/workload/op label" -> the op's instance
    seed, name, op_label = label.split("/")
    (op,) = [op for op in _bench_workloads().GENERATORS[name](int(seed)) if op.label == op_label]
    return instance_from_dict(op.doc)


_COUNTED = {
    **_FAMILIES,
    "static3_reindexed": lambda _: load_static3_reindexed(),
    "bench": _bench_op,
}


@pytest.mark.parametrize(
    "family, key",
    [("bundled", name) for name in BUNDLED]
    + [("static3_reindexed", None)]
    + [("fuzz", seed) for seed in range(50)]
    + [("topology", seed) for seed in range(60)]
    + [("pomdp", horizon) for horizon in range(1, 8)]
    + [
        ("bench", f"{seed}/{name}/{op.label}")
        for seed in (7, 8)
        for name, generate in _bench_workloads().GENERATORS.items()
        for op in generate(seed)
    ],
)
def test_brute_force_and_the_count_find_the_same_feasible_sets(family, key):
    make = _COUNTED[family]
    try:
        res = solve_brute_force(make(key))
    except CapExceeded:
        return  # past the brute-force cap: nothing to compare
    assert count_strategies(make(key), "brute") == res.search_size
