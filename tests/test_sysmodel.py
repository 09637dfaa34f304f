import copy
import dataclasses
import math
import random

import numpy as np
import pytest

from helpers import (
    copy_observation_strategy,
    fuzz_instance,
    pomdp_dict,
    random_control_strategy,
    random_prescription_strategy,
    random_topology_instance,
)
from oracles import feasible_realizations, hand_rolled_cost, joint_primitives_reference
from womctl import sysmodel
from womctl.errors import (
    AgentCountMismatch,
    CapExceeded,
    DistributionNotNormalized,
    DomainMismatch,
    OutOfRange,
    SchemaMismatch,
    ShapeMismatch,
)
from womctl.infostruct import VariableId
from womctl.instances import (
    BUNDLED,
    d2_dict,
    load_d2,
    load_d2ext,
    load_static3,
    load_static3_reindexed,
    load_wom3,
)
from womctl.prescription import PrescriptionStrategy, joint_control_strategy
from womctl.solver import solve_brute_force
from womctl.sysmodel import (
    STATE,
    SWEEP_CAP,
    ControlStrategy,
    enumerate_realizations,
    exact_strategy_cost,
    feasible_schema_realizations,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    joint_primitives,
    monte_carlo_cost,
    permute_instance,
    realization_index,
    realization_strides,
    restrict_realization,
    schema_rows,
    validate_strategy,
)

# frozen after the first verified oracle run: copy-your-observation cost on d2
D2_COPY_COST = 3.42


def test_bundled_instances_validate(d2, d2ext, static3, wom3):
    for inst in (d2, d2ext, static3, wom3):
        assert inst.agent_count >= 1


def test_unnormalized_initial_distribution():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [0.5, 0.5001]
    with pytest.raises(DistributionNotNormalized) as err:
        instance_from_dict(doc)
    assert "initial_probs" in err.value.name
    assert abs(err.value.total - 1.0001) < 1e-12


def test_missing_final_cost_table():
    doc = d2_dict()
    doc["system"]["cost"] = doc["system"]["cost"][:1]
    with pytest.raises(ShapeMismatch):
        instance_from_dict(doc)


def test_agent_count_mismatch():
    doc = d2_dict()
    doc["network"]["agents"] = 3
    doc["network"]["links"].append({"from": 2, "to": 3, "delay": 1})
    doc["network"]["links"].append({"from": 3, "to": 2, "delay": 1})
    doc["network"]["links"].append({"from": 3, "to": 1, "delay": 1})
    doc["network"]["links"].append({"from": 1, "to": 3, "delay": 1})
    with pytest.raises(AgentCountMismatch):
        instance_from_dict(doc)


def test_zero_cost_tables(d2):
    doc = d2_dict()
    doc["system"]["cost"] = [[[0.0] * 4] * 2] * 2
    inst = instance_from_dict(doc)
    report = exact_strategy_cost(inst, random_control_strategy(inst, random.Random(0)))
    assert report.expected_cost == 0.0


def test_degenerate_instance_single_trajectory():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    doc["system"]["disturbance"]["probs_per_t"] = [1.0, 0.0]
    inst = instance_from_dict(doc)
    strat = copy_observation_strategy(inst)
    report = exact_strategy_cost(inst, strat)
    # single path: x0=0 (penalty 3), copy keeps parity 0, w=0 -> x1=0 (penalty 3)
    assert report.per_stage_costs == (3.0, 3.0)
    assert report.expected_cost == 6.0


def test_d2_copy_strategy_matches_hand_rolled_oracle(d2):
    strat = copy_observation_strategy(d2)
    report = exact_strategy_cost(d2, strat)
    oracle = hand_rolled_cost(d2, strat.tables)
    assert math.isclose(report.expected_cost, oracle, abs_tol=1e-12)
    assert math.isclose(report.expected_cost, D2_COPY_COST, abs_tol=1e-12)


def test_random_strategies_match_hand_rolled_oracle(d2):
    rng = random.Random(4)
    for _ in range(5):
        strat = random_control_strategy(d2, rng)
        report = exact_strategy_cost(d2, strat)
        assert math.isclose(
            report.expected_cost, hand_rolled_cost(d2, strat.tables), abs_tol=1e-12
        )


def test_exact_cost_matches_hand_rolled_oracle_beyond_d2(d2ext):
    rng = random.Random(17)
    cases = [d2ext, d2ext, instance_from_dict(pomdp_dict(4))]  # two strategies on d2ext
    cases += [fuzz_instance(seed) for seed in range(10)]
    for inst in cases:
        strat = random_control_strategy(inst, rng)
        report = exact_strategy_cost(inst, strat)
        assert math.isclose(
            report.expected_cost, hand_rolled_cost(inst, strat.tables), abs_tol=1e-12
        )


def _split_disturbance(doc, copies):
    """Each disturbance outcome becomes `copies` equally likely outcomes with
    the same transitions."""
    system = doc["system"]
    dist = system["disturbance"]
    dist["probs_per_t"] = [p / copies for p in dist["probs_per_t"] for _ in range(copies)]
    dist["size"] *= copies
    system["transition"] = [
        [[[nxt for nxt in cell for _ in range(copies)] for cell in row] for row in stage]
        for stage in system["transition"]
    ]
    return doc


def test_exact_cost_and_feasibility_beyond_primitive_enumeration():
    base = instance_from_dict(pomdp_dict(4))
    split = instance_from_dict(_split_disturbance(pomdp_dict(4), 6))
    sys = split.system
    primitives = sys.state_size * sys.disturbance_size**4 * sys.noise_sizes[0] ** 5
    assert primitives == 1_327_104 > SWEEP_CAP
    strat = copy_observation_strategy(base)
    want = exact_strategy_cost(base, strat)
    got = exact_strategy_cost(split, strat)
    assert math.isclose(got.expected_cost, want.expected_cost, abs_tol=1e-12)
    for a, b in zip(got.per_stage_costs, want.per_stage_costs):
        assert math.isclose(a, b, abs_tol=1e-12)
    for t in range(5):
        assert feasible_schema_realizations(
            split, split.info.memory(t, 1)
        ) == feasible_schema_realizations(base, base.info.memory(t, 1))


def test_primitive_enumeration_stops_at_the_sweep_cap():
    split = instance_from_dict(_split_disturbance(pomdp_dict(4), 6))
    with pytest.raises(CapExceeded) as err:
        next(joint_primitives(split))
    assert err.value.required == 1_327_104 and err.value.cap == SWEEP_CAP
    assert "joint primitive enumeration" in str(err.value)


_PRIMITIVE_FAMILIES = {
    "bundled": lambda name: instance_from_dict(BUNDLED[name]()),
    "fuzz": fuzz_instance,
    "topology": random_topology_instance,
    "split-pomdp4": lambda copies: instance_from_dict(_split_disturbance(pomdp_dict(4), copies)),
}


@pytest.mark.parametrize(
    "family, key",
    [("bundled", name) for name in BUNDLED]
    + [("fuzz", seed) for seed in range(50)]
    + [("topology", seed) for seed in range(60)]
    + [("split-pomdp4", 6)],
)
def test_joint_primitives_equal_the_nested_loop_reference(family, key):
    """Same tuples in the same order, probabilities compared with ==; over the
    sweep cap both raise the same CapExceeded."""
    inst = _PRIMITIVE_FAMILIES[family](key)
    try:
        want = list(joint_primitives_reference(inst))
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as err:
            list(joint_primitives(inst))
        assert str(err.value) == str(exc)
        return
    assert list(joint_primitives(inst)) == want


def test_reachable_pairs_cap_fails_fast(monkeypatch):
    inst = instance_from_dict(pomdp_dict(4))
    strat = copy_observation_strategy(inst)
    monkeypatch.setattr(sysmodel, "SWEEP_CAP", 8)
    with pytest.raises(CapExceeded) as err:
        exact_strategy_cost(inst, strat)
    assert err.value.cap == 8 < err.value.required
    assert "reachable (state, history) pairs" in str(err.value)
    with pytest.raises(CapExceeded):
        feasible_schema_realizations(inst, inst.info.memory(4, 1))


def test_feasibility_sweep_stops_once_the_schema_is_complete(monkeypatch):
    inst = instance_from_dict(pomdp_dict(7))
    stages = []
    real_pass = sysmodel._forward_pass

    def forward_pass(*args):
        for stage in real_pass(*args):
            stages.append(stage[0])
            yield stage

    monkeypatch.setattr(sysmodel, "_forward_pass", forward_pass)
    schema = inst.info.memory(0, 1)
    found = feasible_schema_realizations(inst, schema)
    assert stages == [0]
    # the sweep run on to the horizon carries the same realizations
    every = [(u, uj) for uj, u in enumerate(enumerate_realizations(inst.system.control_sizes))]
    keep = [set(schema)] * (inst.horizon + 1)
    *_, (t, layout, histories, *_) = real_pass(inst, keep, lambda t, layout: lambda h: every)
    pos = [layout.index(v) for v in schema]
    assert t == 7 and found == tuple(sorted({tuple(h[i] for i in pos) for h in histories}))
    assert len(found) > 1


def test_exact_pass_runs_the_rule_once_per_distinct_history(monkeypatch):
    """On the T=4 POMDP under copy-your-observation each stage reaches twice as
    many (state, history) pairs as distinct histories; the rule runs per history."""
    inst = instance_from_dict(pomdp_dict(4))
    strat = copy_observation_strategy(inst)
    calls, pairs = [], []
    real_rule, real_pass = sysmodel.stage_rule, sysmodel._forward_pass

    def rule(instance, t, layout, strategy):
        compiled = real_rule(instance, t, layout, strategy)
        calls.append(0)

        def counted(h):
            calls[-1] += 1
            return compiled(h)

        return counted

    def forward_pass(*args):
        for stage in real_pass(*args):
            pairs.append(len(stage[4]))
            yield stage

    monkeypatch.setattr(sysmodel, "stage_rule", rule)
    monkeypatch.setattr(sysmodel, "_forward_pass", forward_pass)
    exact_strategy_cost(inst, strat)
    assert calls == [2, 4, 8, 16, 32]
    assert pairs == [4, 8, 16, 32, 64]


def test_feasible_realizations_match_sweep_oracle(static3, d2, d2ext, wom3):
    for inst in [static3, d2, d2ext, wom3] + [fuzz_instance(seed) for seed in range(10)]:
        info = inst.info
        schemas = {
            schema(t, k)
            for schema in (info.memory, info.accessible)
            for t in range(inst.horizon + 1)
            for k in range(1, inst.agent_count + 1)
        }
        for schema, want in feasible_realizations(inst, schemas).items():
            assert feasible_schema_realizations(inst, schema) == want, schema


def test_exact_cost_report_consistency(d2):
    report = exact_strategy_cost(d2, copy_observation_strategy(d2))
    assert abs(report.expected_cost - sum(report.per_stage_costs)) <= 1e-12
    assert report.method == "exact"


def test_cost_linearity(d2):
    strat = random_control_strategy(d2, random.Random(9))
    base = exact_strategy_cost(d2, strat).expected_cost
    doc = d2_dict()
    alpha = 2.75
    doc["system"]["cost"] = [
        [[alpha * c for c in row] for row in stage] for stage in doc["system"]["cost"]
    ]
    scaled = exact_strategy_cost(instance_from_dict(doc), strat).expected_cost
    assert abs(scaled - alpha * base) <= 1e-9


def test_disturbance_relabel_invariance():
    doc = d2_dict()
    doc["system"]["disturbance"] = {"size": 3, "probs_per_t": [0.5, 0.3, 0.2]}
    doc["system"]["transition"] = [
        [
            [[(x + u1 + u2 + (0 if w == 2 else w + 1)) % 2 for w in range(3)]
             for u1 in range(2) for u2 in range(2)]
            for x in range(2)
        ]
    ]
    inst = instance_from_dict(doc)
    perm = [2, 0, 1]  # relabel outcomes with matching probabilities
    doc2 = copy.deepcopy(doc)
    doc2["system"]["disturbance"]["probs_per_t"] = [
        doc["system"]["disturbance"]["probs_per_t"][perm[w]] for w in range(3)
    ]
    doc2["system"]["transition"] = [
        [[[cell[perm[w]] for w in range(3)] for cell in xblock] for xblock in stage]
        for stage in doc["system"]["transition"]
    ]
    inst2 = instance_from_dict(doc2)
    strat = copy_observation_strategy(inst)
    a = exact_strategy_cost(inst, strat).expected_cost
    b = exact_strategy_cost(inst2, strat).expected_cost
    assert abs(a - b) <= 1e-9


def test_monte_carlo_degenerate_case():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [0.0, 1.0]
    doc["system"]["disturbance"]["probs_per_t"] = [0.0, 1.0]
    inst = instance_from_dict(doc)
    strat = copy_observation_strategy(inst)
    exact = exact_strategy_cost(inst, strat)
    mc = monte_carlo_cost(inst, strat, samples=300, seed=5)
    assert mc.expected_cost == exact.expected_cost
    assert mc.stderr == 0.0


def test_monte_carlo_within_three_stderr(d2):
    strat = copy_observation_strategy(d2)
    exact = exact_strategy_cost(d2, strat).expected_cost
    mc = monte_carlo_cost(d2, strat, samples=20000, seed=13)
    assert abs(mc.expected_cost - exact) <= 3 * mc.stderr


def test_monte_carlo_deterministic_reports(d2):
    strat = copy_observation_strategy(d2)
    a = monte_carlo_cost(d2, strat, samples=5000, seed=42)
    b = monte_carlo_cost(d2, strat, samples=5000, seed=42)
    assert a == b


def test_monte_carlo_report_is_pinned(d2):
    """The copy-your-observation report on d2 (5,000 samples, seed 42) by
    `float.hex`, so that a change to how a rollout acts cannot move it."""
    mc = monte_carlo_cost(d2, copy_observation_strategy(d2), samples=5000, seed=42)
    assert mc.expected_cost.hex() == "0x1.bed288ce703b0p+1"
    assert [c.hex() for c in mc.per_stage_costs] == ["0x1.d4538ef34d6a1p+0", "0x1.a95182a9930bep+0"]
    assert mc.stderr.hex() == "0x1.1e7868862d79ep-5"
    assert (mc.method, mc.sample_count, mc.seed) == ("monte_carlo", 5000, 42)


def test_exact_vs_monte_carlo_on_random_strategy(d2):
    rng = random.Random(21)
    strat = random_control_strategy(d2, rng)
    exact = exact_strategy_cost(d2, strat).expected_cost
    mc = monte_carlo_cost(d2, strat, samples=20000, seed=7)
    assert abs(mc.expected_cost - exact) <= 4 * mc.stderr


def test_strategy_domain_validation(d2):
    strat = random_control_strategy(d2, random.Random(2))
    validate_strategy(d2, strat)
    broken = {k: dict(v) for k, v in strat.tables.items()}
    broken[(1, 1)].popitem()
    with pytest.raises(DomainMismatch):
        validate_strategy(d2, ControlStrategy(tables=broken))
    free = ControlStrategy(tables={(0, 1): {}, (0, 2): {}, (1, 1): {}, (1, 2): {}})
    with pytest.raises(DomainMismatch, match="missing realization"):
        exact_strategy_cost(d2, free)
    missing = {k: v for k, v in strat.tables.items() if k != (1, 2)}
    with pytest.raises(DomainMismatch, match="no table"):
        exact_strategy_cost(d2, ControlStrategy(tables=missing))
    # at t=1 agent 1 plays 0 and agent 2 plays 2, past its control size:
    # unchecked, the joint index reads it as joint control (1, 0)
    wide = ControlStrategy(tables={
        **strat.tables,
        (1, 1): dict.fromkeys(strat.tables[(1, 1)], 0),
        (1, 2): dict.fromkeys(strat.tables[(1, 2)], 2),
    })
    want = "table (t=1, agent=2) maps (0, 0, 0, 0) to invalid action 2"
    for evaluate in (exact_strategy_cost, _monte_carlo, validate_strategy):
        with pytest.raises(DomainMismatch) as err:
            evaluate(d2, wide)
        assert str(err.value) == want


def _monte_carlo(instance, strategy):
    return monte_carlo_cost(instance, strategy, samples=100, seed=0)


def test_prescription_actions_out_of_range_raise(d2):
    psi = random_prescription_strategy(d2, 1, random.Random(3))
    law = {
        cond: dataclasses.replace(presc, table=(2,) * len(presc.table))
        for cond, presc in psi.laws[(1, 2)].items()
    }
    wide = PrescriptionStrategy(owner=1, laws={**psi.laws, (1, 2): law})
    want = f"law (t=1, target=2) prescription at {next(iter(law))} maps row 0 to invalid action 2"
    for evaluate in (exact_strategy_cost, _monte_carlo, joint_control_strategy):
        with pytest.raises(OutOfRange) as err:
            evaluate(d2, wide)
        assert str(err.value) == want
    # a default is checked as the law's entries are
    gappy = PrescriptionStrategy(
        owner=1, laws={**psi.laws, (1, 2): {}}, defaults={(1, 2): next(iter(law.values()))}
    )
    with pytest.raises(OutOfRange, match="prescription at default maps row 0 to invalid action 2"):
        exact_strategy_cost(d2, gappy)
    # a table shorter than the domain raises too, not a bare IndexError
    law = {
        cond: dataclasses.replace(presc, table=presc.table[:1])
        for cond, presc in psi.laws[(1, 2)].items()
    }
    short = PrescriptionStrategy(owner=1, laws={**psi.laws, (1, 2): law})
    want = f"law (t=1, target=2) prescription at {next(iter(law))} has 1 entries, expected 4"
    for evaluate in (exact_strategy_cost, _monte_carlo, joint_control_strategy):
        with pytest.raises(OutOfRange) as err:
            evaluate(d2, short)
        assert str(err.value) == want


def test_copy_observation_actions_are_checked_by_every_evaluator():
    """Copying an observation past the control size raises the same
    `DomainMismatch` from either evaluator as from `validate_strategy`."""
    raised = 0
    for seed in range(50):
        inst = fuzz_instance(seed)
        strategy = copy_observation_strategy(inst)
        outcomes = []
        for evaluate in (validate_strategy, exact_strategy_cost, _monte_carlo):
            try:
                evaluate(inst, strategy)
            except DomainMismatch as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        assert outcomes == outcomes[:1] * 3, seed
        raised += outcomes[0] is not None
    assert raised == 24


@pytest.mark.parametrize(
    "load", [load_static3, load_static3_reindexed, load_d2, load_d2ext, load_wom3],
    ids=lambda load: load.__name__.removeprefix("load_"),
)
def test_instance_round_trip_and_digest(load):
    instance = load()
    doc = instance_to_dict(instance)
    again = instance_from_dict(doc)
    assert instance_digest(again) == instance_digest(instance)
    assert instance_to_dict(again) == doc


def test_permute_instance_preserves_optimum(d2):
    base = solve_brute_force(d2).optimal_cost
    flipped = permute_instance(d2, (2, 1))
    assert abs(solve_brute_force(flipped).optimal_cost - base) <= 1e-9


def test_permute_requires_permutation(d2):
    with pytest.raises(ShapeMismatch):
        permute_instance(d2, (1, 1))


def test_strides_weigh_each_coordinate_of_the_row_major_index():
    assert realization_strides(()) == ()
    assert realization_strides((3, 1, 2, 4)) == (8, 8, 4, 1)
    for real in enumerate_realizations((3, 1, 2, 4)):
        assert realization_index((3, 1, 2, 4), real) == sum(
            v * w for v, w in zip(real, realization_strides((3, 1, 2, 4)))
        )


def test_schema_rows_match_restrict_and_index_on_random_sub_schemas():
    rng = random.Random(14)
    instances = [load_static3(), load_d2(), load_d2ext(), load_wom3()]
    instances += [fuzz_instance(seed) for seed in range(12)]
    checked = 0
    for inst in instances:
        info = inst.info
        schemas = {
            schema
            for t in range(inst.horizon + 1)
            for k in range(1, inst.agent_count + 1)
            for schema in (info.memory(t, k), info.equivalent_state(t, k), info.accessible(t, k))
        }
        for schema in sorted(schemas):
            for state in (False, True):
                names = ((STATE,) if state else ()) + schema
                sizes = ((inst.system.state_size,) if state else ()) + inst.schema_sizes(schema)
                if math.prod(sizes) > 4096:
                    continue
                size = dict(zip(names, sizes))
                # random subsets in random order, the empty one and the whole
                subs = [tuple(rng.sample(names, rng.randint(0, len(names)))) for _ in range(3)]
                subs += [(), names]
                rows = schema_rows(inst, schema, subs, state=state)
                assert [row.shape for row in rows] == [(math.prod(sizes),)] * len(subs)
                for index, real in enumerate(enumerate_realizations(sizes)):
                    for sub, row in zip(subs, rows):
                        want = realization_index(
                            [size[v] for v in sub], restrict_realization(names, real, sub)
                        )
                        assert row[index] == want
                checked += 1
        missing = VariableId(inst.horizon + 1, 1, "Y")
        for state in (False, True):
            with pytest.raises(SchemaMismatch):
                schema_rows(inst, info.memory(0, 1), [(missing,)], state=state)
        with pytest.raises(SchemaMismatch):
            schema_rows(inst, info.memory(0, 1), [(STATE,)])
    assert checked > 200


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (2.5, 0, "samples must be an integer, got 2.5"),
        (True, 0, "samples must be an integer, got True"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (10, False, "seed must be an integer, got False"),
    ],
)
def test_monte_carlo_rejects_samples_and_seeds_that_are_not_integers(d2, samples, seed, message):
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        monte_carlo_cost(d2, copy_observation_strategy(d2), samples, seed)


def test_monte_carlo_takes_numpy_integers(d2):
    strat = copy_observation_strategy(d2)
    report = monte_carlo_cost(d2, strat, np.int64(500), np.int64(3))
    assert report == monte_carlo_cost(d2, strat, 500, 3)
