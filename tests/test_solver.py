import copy
import functools
import itertools
import logging
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    fuzz_instance,
    pomdp_dict,
    random_prescription_strategy,
    random_topology_instance,
    relay_dict,
)
from oracles import (
    brute_force_reference,
    brute_force_tree_reference,
    dp_reference,
    history_tree_reference,
    relaxed_reference,
)
import womctl.solver as solver_mod
from womctl.errors import CapExceeded, SchemaMismatch, WomError
from womctl.instances import d2_dict, load_d2, load_d2ext, load_static3, load_static3_reindexed
from womctl.prescription import (
    control_law_to_strategy,
    count_strategies,
    enumerate_prescription_tables,
    joint_control_strategy,
)
from womctl.solver import (
    compare_agents,
    evaluate_prescription_strategy,
    solve_brute_force,
    solve_common_info_dp,
    solve_prescription_dp,
    solve_prescription_static,
)
from womctl.sysmodel import (
    ControlStrategy,
    enumerate_realizations,
    exact_strategy_cost,
    feasible_schema_realizations,
    instance_digest,
    instance_from_dict,
    joint_primitives,
    permute_instance,
    realization_count,
    validate_strategy,
)

# frozen after the first verified runs of the exhaustive oracle
D2_OPTIMAL_COST = 3.3
D2EXT_OPTIMAL_COST = 0.775
TOL = 1e-9


def test_brute_force_static_counts(static3):
    res = solve_brute_force(static3)
    assert res.search_size == 16384
    assert abs(res.optimal_cost - exact_strategy_cost(static3, res.control_strategy).expected_cost) <= 1e-12
    validate_strategy(static3, res.control_strategy)


@pytest.mark.parametrize("chunk", [solver_mod._CHUNK, 4], ids=["default-chunk", "chunk-4"])
def test_brute_force_zero_cost_picks_first_strategy(chunk, monkeypatch):
    monkeypatch.setattr(solver_mod, "_CHUNK", chunk)
    doc = d2_dict()
    doc["system"]["cost"] = [[[0.0] * 4] * 2] * 2
    inst = instance_from_dict(doc)
    res = solve_brute_force(inst)
    assert res.optimal_cost == 0.0
    for table in res.control_strategy.tables.values():
        assert set(table.values()) == {0}


def test_brute_force_d2_oracle_fixture(d2):
    res = solve_brute_force(d2)
    assert abs(res.optimal_cost - D2_OPTIMAL_COST) <= TOL
    assert res.search_size == 2**20


def test_brute_force_cap(d2):
    with pytest.raises(CapExceeded):
        solve_brute_force(d2, cap=1000)


def _assert_matches_reference(instance, reference=None):
    res = solve_brute_force(instance)
    ref_cost, ref_tables = reference or brute_force_tree_reference(instance)
    assert res.extras["vectorized_cost"] == ref_cost
    assert res.control_strategy.tables == ref_tables


# the `_CHUNK` of each case; the keys, kept as test ids, name the inner-block
# sizes the cases also set before the walk ran over the history tree
SPLITS = {
    "inner-0": solver_mod._CHUNK,
    "inner-1": solver_mod._CHUNK,
    "inner-2": solver_mod._CHUNK,
    "inner-16": solver_mod._CHUNK,
    "inner-default": solver_mod._CHUNK,
    "inner-whole": solver_mod._CHUNK,
    "inner-16-chunk-64": 64,
}
SPLIT_CASES = {
    "static3": load_static3,
    "d2": load_d2,
    **{
        f"random-{seed}": lambda seed=seed: random_topology_instance(seed)
        for seed in range(60)
        if count_strategies(random_topology_instance(seed), "brute") <= 2**14
    },
}


@functools.cache
def _split_case(name):  # also d2ext, whose reference takes seconds
    extra = {"d2ext": load_d2ext, "static3_reindexed": load_static3_reindexed}
    instance = {**SPLIT_CASES, **extra}[name]()
    return instance, brute_force_tree_reference(instance)


@pytest.mark.parametrize("split", list(SPLITS))
@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_brute_force_matches_reference_across_inner_blocks(name, split, monkeypatch):
    monkeypatch.setattr(solver_mod, "_CHUNK", SPLITS[split])
    _assert_matches_reference(*_split_case(name))


@pytest.mark.parametrize("name", ["static3_reindexed", "d2ext", *SPLIT_CASES])
def test_tree_reference_agrees_with_the_primitive_reference(name):
    # the two references sum in different orders: their optima agree to
    # rounding, and their tables are equal unless both tables' costs tie
    instance, (tree_cost, tree_tables) = _split_case(name)
    cost, tables = brute_force_reference(instance)
    assert math.isclose(tree_cost, cost, rel_tol=1e-12)
    if tables != tree_tables:
        exact = [
            exact_strategy_cost(instance, ControlStrategy(tables=t)).expected_cost
            for t in (tables, tree_tables)
        ]
        assert math.isclose(*exact, rel_tol=1e-12)


def _brute_force_record(caplog):
    (record,) = [r for r in caplog.records if r.getMessage().startswith("brute force:")]
    caplog.clear()
    # strategies, chunks, walked chunks, histories, largest tensor, seconds, growths, adds
    return record.args


def test_brute_force_d2_chunks_grow_tensors_smaller_than_the_chunk(d2, caplog):
    caplog.set_level(logging.DEBUG, logger="womctl")
    res = solve_brute_force(d2)
    strategies, chunks, walked, histories, largest, seconds, growths, adds = _brute_force_record(caplog)
    # 20 binary digits, so every chunk spans exactly `_CHUNK` points
    assert (strategies, chunks) == (res.search_size, 2**20 // solver_mod._CHUNK)
    distinct = sum(len({h for _, h, *_ in acted}) for _, acted in history_tree_reference(d2))
    assert 1 <= walked <= chunks and histories == distinct
    assert largest < strategies // chunks == solver_mod._CHUNK and seconds >= 0.0
    # each walked chunk grows each of its binary axes at most once
    assert growths <= walked * math.log2(solver_mod._CHUNK) and adds > 0


@pytest.mark.parametrize("chunk", [solver_mod._CHUNK, 2**18], ids=["default-chunk", "one-chunk"])
def test_brute_force_peak_memory_is_one_chunk_buffer(chunk, monkeypatch, caplog):
    # 2^18 strategies; as one chunk they grow to the full `_CHUNK` points. The
    # instance's observation and successor laws are warm, so the peak is the
    # solve's own
    from test_stage_pass import _bench_workloads

    (op,) = [op for op in _bench_workloads().fuzz_compare(7) if op.label == "observer-T2-0"]
    instance = instance_from_dict(op.doc)
    for t in range(instance.horizon + 1):
        for k in range(1, instance.agent_count + 1):
            feasible_schema_realizations(instance, instance.info.memory(t, k))
    monkeypatch.setattr(solver_mod, "_CHUNK", chunk)
    caplog.set_level(logging.DEBUG, logger="womctl")
    tracemalloc.start()
    try:
        res = solve_brute_force(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    strategies, chunks, _, _, largest, *_ = _brute_force_record(caplog)
    assert res.search_size == strategies == 2**18 == chunks * solver_mod._CHUNK
    assert largest == solver_mod._CHUNK if chunks == 1 else largest <= solver_mod._CHUNK
    assert peak <= 1.25 * 8 * solver_mod._CHUNK


# (instance, _CHUNK, chunks, walked): a lead digit that no walk of a chunk
# reads is not stepped, so the leads it tells apart are walked once
ODOMETER_CASES = {
    "d2ext-chunk-2^17": ("d2ext", 1 << 17, 32, 12),
    "d2ext-chunk-2^18": ("d2ext", 1 << 18, 16, 8),
    "d2-chunk-4": ("d2", 4, 262_144, 2_560),
}


@pytest.mark.parametrize("case", list(ODOMETER_CASES))
def test_brute_force_walks_chunks_only_at_read_lead_digits(case, monkeypatch, caplog):
    name, chunk, want_chunks, want_walked = ODOMETER_CASES[case]
    caplog.set_level(logging.DEBUG, logger="womctl")
    monkeypatch.setattr(solver_mod, "_CHUNK", chunk)
    _assert_matches_reference(*_split_case(name))
    _, chunks, walked, *_ = _brute_force_record(caplog)
    assert (chunks, walked) == (want_chunks, want_walked)


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_brute_force_chunks_start_whole_only_as_one_inner_block(name, caplog):
    # inner blocks are gone, so no chunk starts whole: every chunk starts at
    # one point and grows no larger than the chunk
    instance, reference = _split_case(name)
    caplog.set_level(logging.DEBUG, logger="womctl")
    _assert_matches_reference(instance, reference)
    strategies, chunks, _, _, largest, *_ = _brute_force_record(caplog)
    assert 1 <= largest <= strategies // chunks


@pytest.mark.parametrize("name", ["static3", "static3_reindexed", "d2"])
def test_brute_force_matches_reference_on_bundled(name, request):
    _assert_matches_reference(request.getfixturevalue(name))


@pytest.mark.parametrize("seed", range(50))
def test_brute_force_matches_reference_on_fuzz(seed):
    _assert_matches_reference(fuzz_instance(seed))


def _ternary_static_instance():
    """Static two-agent system with three controls each and tied costs:
    729 strategies over six ternary digits."""
    rng = random.Random(5)
    flip = [[x, 1 - x] for x in range(2)]
    doc = {
        "network": {"agents": 2, "delay_matrix": [[0, 1], [0, 0]]},
        "system": {
            "horizon": 0,
            "state_size": 2,
            "control_sizes": [3, 3],
            "observation_sizes": [2, 2],
            "noises": [{"size": 2, "probs_per_t": [0.7, 0.3]} for _ in range(2)],
            "initial_probs": [0.4, 0.6],
            "observation": [[flip]] * 2,
            "cost": [[[rng.choice([0.0, 0.5, 1.0]) for _ in range(9)] for _ in range(2)]],
        },
    }
    return instance_from_dict(doc)


# small chunks, and one chunk grown along its ternary axes; the last two ids
# name the inner-block sizes they also set before the walk ran over the tree
@pytest.mark.parametrize(
    "chunk", [1, 2, 7, 3**6, 3**6], ids=["1", "2", "7", "whole-inner-0", "whole-inner-9"]
)
def test_brute_force_matches_reference_across_ternary_chunks(chunk, monkeypatch):
    inst = _ternary_static_instance()
    assert solve_brute_force(inst).search_size == 3**6
    monkeypatch.setattr(solver_mod, "_CHUNK", chunk)
    _assert_matches_reference(inst)


def test_brute_force_solves_past_the_primitive_enumeration_cap():
    # the walk runs over merged histories, so more primitive sequences than
    # SWEEP_CAP is no bar: this T=1 POMDP's disturbances, each split into
    # 62,600 copies, give 1,001,600 primitives but only 10 histories
    from test_sysmodel import _split_disturbance

    base = instance_from_dict(pomdp_dict(1))
    split = instance_from_dict(_split_disturbance(pomdp_dict(1), 62_600))
    with pytest.raises(CapExceeded, match="joint primitive enumeration needs 1001600"):
        next(joint_primitives(split))
    res, want = solve_brute_force(split), solve_brute_force(base)
    assert res.control_strategy.tables == want.control_strategy.tables
    assert math.isclose(res.optimal_cost, want.optimal_cost, rel_tol=1e-12)


def test_brute_force_radix_one_digits_take_no_tensor_axis():
    # every control size is 1: 438 memory realizations, each a radix-1 digit,
    # and a single strategy; numpy arrays allow at most 32 or 64 dimensions
    flip = [[x, 1 - x] for x in range(2)]
    doc = {
        "network": {
            "agents": 3,
            "links": [
                {"from": a, "to": b, "delay": 1}
                for a in (1, 2, 3)
                for b in (1, 2, 3)
                if a != b
            ],
        },
        "system": {
            "horizon": 2,
            "state_size": 2,
            "control_sizes": [1, 1, 1],
            "observation_sizes": [2, 2, 2],
            "disturbance": {"size": 2, "probs_per_t": [0.5, 0.5]},
            "noises": [{"size": 2, "probs_per_t": [0.75, 0.25]} for _ in range(3)],
            "initial_probs": [0.5, 0.5],
            "transition": [[[[0, 1]], [[1, 0]]]] * 2,
            "observation": [[flip] * 3] * 3,
            "cost": [[[1.0], [1.0]]] * 3,
        },
    }
    inst = instance_from_dict(doc)
    res = solve_brute_force(inst)
    assert res.search_size == 1
    digits = sum(
        len(feasible_schema_realizations(inst, inst.info.memory(t, k)))
        for t in range(3)
        for k in range(1, 4)
    )
    assert digits == 438
    assert abs(res.optimal_cost - 3.0) <= TOL
    assert abs(res.extras["vectorized_cost"] - 3.0) <= TOL


def test_common_info_single_agent_pomdp_matches_brute():
    # two-state repair-style toy: noisy observation, act to match the state
    flip = [[x, 1 - x] for x in range(2)]
    stage = [[[(x + u + w) % 2 for w in range(2)] for u in range(2)] for x in range(2)]
    doc = {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [2],
            "observation_sizes": [2],
            "disturbance": {"size": 2, "probs_per_t": [0.8, 0.2]},
            "noises": [{"size": 2, "probs_per_t": [0.75, 0.25]}],
            "initial_probs": [0.35, 0.65],
            "transition": [stage],
            "observation": [[flip, flip]],
            "cost": [
                [[2.0 * float(x != u) for u in range(2)] for x in range(2)],
                [[1.0 * float(x != u) + 0.2 * u for u in range(2)] for x in range(2)],
            ],
        },
    }
    inst = instance_from_dict(doc)
    brute = solve_brute_force(inst)
    dp = solve_common_info_dp(inst)
    assert abs(brute.optimal_cost - dp.optimal_cost) <= TOL


def test_common_info_deterministic_instance():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    doc["system"]["disturbance"]["probs_per_t"] = [1.0, 0.0]
    inst = instance_from_dict(doc)
    dp = solve_common_info_dp(inst)
    # exhaustive search over the four joint-action pairs along the single path
    best = math.inf
    for u0 in itertools.product(range(2), range(2)):
        x0 = 0
        c0 = float(inst.system.cost[0, x0, inst.joint_control_index(u0)])
        x1 = int(inst.system.transition[0, x0, inst.joint_control_index(u0), 0])
        c1 = min(
            float(inst.system.cost[1, x1, inst.joint_control_index(u1)])
            for u1 in itertools.product(range(2), range(2))
        )
        best = min(best, c0 + c1)
    assert abs(dp.optimal_cost - best) <= TOL


def test_common_info_matches_brute_on_d2(d2):
    dp = solve_common_info_dp(d2)
    assert abs(dp.optimal_cost - D2_OPTIMAL_COST) <= TOL
    assert abs(dp.dp_value - dp.optimal_cost) <= TOL


def test_static_solver_counts_and_costs(static3):
    brute = solve_brute_force(static3)
    for k, size in ((3, 256), (2, 64), (1, 64)):
        res = solve_prescription_static(static3, k)
        assert res.search_size == size
        assert abs(res.optimal_cost - brute.optimal_cost) <= TOL
        assert abs(res.dp_value - res.optimal_cost) <= TOL


def test_static_solver_reindexed_counts(static3_reindexed):
    brute = solve_brute_force(static3_reindexed)
    for k in (1, 2, 3):
        res = solve_prescription_static(static3_reindexed, k)
        assert res.search_size == 256
        assert abs(res.optimal_cost - brute.optimal_cost) <= TOL


def test_static_relaxed_value_is_surfaced(static3):
    res = solve_prescription_static(static3, 1)
    assert "relaxed_value" in res.extras
    assert res.extras["relaxed_value"] <= res.optimal_cost + TOL


@pytest.mark.parametrize(
    "name", ["static3", "static3_reindexed"] + [f"fuzz{s}" for s in range(50) if s % 8 in (0, 1)]
)
def test_static_solver_matches_relaxed_reference_and_brute(name, request):
    inst = fuzz_instance(int(name[4:])) if name.startswith("fuzz") else request.getfixturevalue(name)
    assert inst.horizon == 0
    brute = solve_brute_force(inst).optimal_cost
    for k in range(1, inst.agent_count + 1):
        res = solve_prescription_static(inst, k)
        assert abs(res.extras["relaxed_value"] - relaxed_reference(inst, k)) <= 1e-12
        assert abs(res.optimal_cost - brute) <= TOL
        assert res.search_size == count_strategies(inst, k)


def test_prescription_dp_highest_agent_equals_common_info(d2):
    a = solve_common_info_dp(d2)
    b = solve_prescription_dp(d2, 2)
    assert abs(a.optimal_cost - b.optimal_cost) <= TOL
    assert a.control_strategy.tables == b.control_strategy.tables


def test_prescription_dp_two_stage_matches_oracle(d2):
    res = solve_prescription_dp(d2, 1)
    assert abs(res.optimal_cost - D2_OPTIMAL_COST) <= TOL
    assert abs(res.dp_value - res.optimal_cost) <= TOL


def test_prescription_dp_three_stage_matches_oracle(d2ext):
    brute = solve_brute_force(d2ext)
    assert abs(brute.optimal_cost - D2EXT_OPTIMAL_COST) <= TOL
    for k in (1, 2):
        res = solve_prescription_dp(d2ext, k)
        assert abs(res.optimal_cost - D2EXT_OPTIMAL_COST) <= TOL


def test_evaluate_round_trip(d2):
    rng = random.Random(30)
    from helpers import random_control_strategy

    g = random_control_strategy(d2, rng)
    psi = control_law_to_strategy(d2, g, 1)
    assert (
        evaluate_prescription_strategy(d2, psi).expected_cost
        == exact_strategy_cost(d2, g).expected_cost
    )


def test_evaluate_static_optimum_matches_brute(static3):
    res = solve_prescription_static(static3, 3)
    report = evaluate_prescription_strategy(static3, res.prescription_strategy)
    assert abs(report.expected_cost - solve_brute_force(static3).optimal_cost) <= TOL


def test_paired_evaluators_agree(d2):
    rng = random.Random(31)
    for _ in range(5):
        psi = random_prescription_strategy(d2, rng.choice([1, 2]), rng)
        a = evaluate_prescription_strategy(d2, psi).expected_cost
        b = exact_strategy_cost(d2, joint_control_strategy(d2, psi)).expected_cost
        assert abs(a - b) <= 1e-12


def test_compare_agents_static(static3):
    rep = compare_agents(static3)
    by_label = {(r["method"], r["agent"]): r for r in rep.rows}
    assert by_label[("brute", None)]["search_size"] == 16384
    assert by_label[("prescription-static", 3)]["search_size"] == 256
    assert by_label[("prescription-static", 2)]["search_size"] == 64
    assert by_label[("prescription-static", 1)]["search_size"] == 64
    assert rep.max_spread <= TOL


def test_compare_agents_d2(d2):
    rep = compare_agents(d2)
    assert rep.max_spread <= TOL
    assert all(r["status"] == "ok" for r in rep.rows)


def test_compare_agents_reports_skips(wom3):
    rep = compare_agents(wom3)
    assert all(r["status"] == "skipped" for r in rep.rows)
    dp_reasons = {r["reason"] for r in rep.rows if r["method"] != "brute"}
    assert dp_reasons == {
        "agent 3, stage 1: joint prescription search needs 4294967296 candidates, cap is 1048576"
    }


def _count_agent_passes(monkeypatch, fail_at=None):
    calls = []
    real = solver_mod._solve_agent

    def counted(instance, j, chain, caps):
        calls.append(j)
        if j == fail_at:
            raise CapExceeded(99, 1, "stand-in pass")
        return real(instance, j, chain, caps)

    monkeypatch.setattr(solver_mod, "_solve_agent", counted)
    return calls


@pytest.mark.parametrize("which", ["d2", "fuzz7", "static3"])
def test_compare_agents_runs_each_agent_pass_once(which, request, monkeypatch):
    inst = fuzz_instance(7) if which == "fuzz7" else request.getfixturevalue(which)
    K = inst.agent_count
    assert K == (2 if which == "d2" else 3)
    calls = _count_agent_passes(monkeypatch)
    rows = {(r["method"], r["agent"]): r for r in compare_agents(inst).rows}
    assert calls == list(range(K, 0, -1))
    method = "prescription-dp" if inst.horizon else "prescription-static"
    common, top = rows[("common-info", None)], rows[(method, K)]
    assert common["status"] == top["status"] == "ok"
    assert common["cost"] == top["cost"]
    if inst.horizon:
        assert common["search_size"] == top["search_size"]
    else:
        sizes = [rows[(method, k)]["search_size"] for k in range(1, K + 1)]
        assert sizes == [64, 64, 256]


def test_compare_agents_records_a_cap_failure_once(monkeypatch):
    inst = fuzz_instance(7)
    calls = _count_agent_passes(monkeypatch, fail_at=2)
    rows = {(r["method"], r["agent"]): r for r in compare_agents(inst).rows}
    assert calls == [3, 2]
    assert rows[("common-info", None)]["status"] == "ok"
    assert rows[("prescription-dp", 3)]["status"] == "ok"
    for k in (1, 2):
        assert rows[("prescription-dp", k)]["status"] == "skipped"
        assert rows[("prescription-dp", k)]["reason"] == (
            "stand-in pass needs 99 candidates, cap is 1"
        )


def test_narrow_tables_are_weighted_in_int64():
    """Tables hold uint8 entries, but agent 1's joint-control weight is 70:
    the optimum, agent 1's control 4 (4 x 70 would wrap in uint8), must be
    found by every solver."""
    rng = random.Random(5)
    cost = [[1.0 + rng.uniform(0.0, 1.0) for _ in range(350)] for _ in range(2)]
    for x in range(2):
        cost[x][4 * 70 + 7 + x] = 0.0
    doc = {
        "network": {"agents": 2, "links": [{"from": 1, "to": 2, "delay": 1},
                                           {"from": 2, "to": 1, "delay": 1}]},
        "system": {
            "horizon": 0,
            "state_size": 2,
            "control_sizes": [5, 70],
            "observation_sizes": [2, 2],
            "noises": [{"size": 1, "probs_per_t": [1.0]}] * 2,
            "initial_probs": [0.5, 0.5],
            "observation": [[[[0], [1]]]] * 2,
            "cost": [cost],
        },
    }
    inst = instance_from_dict(doc)
    rows = compare_agents(inst).rows
    assert [row["cost"] for row in rows] == [0.0] * 4


def test_compare_agents_static_rows_skip_with_the_chain_reason(static3):
    # agent 3's stage-0 joint search has 128 candidates; agents 1 and 2 inherit from it
    rows = compare_agents(static3, cap=64).rows
    assert all(r["status"] == "skipped" for r in rows)
    assert {r["reason"] for r in rows if r["method"] != "brute"} == {
        "agent 3, stage 0: joint prescription search needs 128 candidates, cap is 64"
    }


def test_structural_measurability_of_emitted_strategy(d2):
    """Conditioning realizations with equal tail beliefs select equal tables."""
    res = solve_prescription_dp(d2, 1)
    tree = res.belief_tree
    psi = res.prescription_strategy
    by_key = {}
    for row in tree:
        t = row["t"]
        beliefs = row["beliefs"]
        tail_key = tuple(round(p, 12) for p in beliefs["agent_2"])
        acc2 = d2.info.accessible(t, 2)
        amap = row["accessible"]
        cond2 = tuple(amap[v.label()] for v in acc2)
        table = psi.laws[(t, 2)][cond2].table
        by_key.setdefault((t, tail_key), set()).add(table)
    assert by_key, "no reachable branches recorded"
    for tables in by_key.values():
        assert len(tables) == 1


def test_index_permutation_invariance(static3, d2):
    base3 = solve_brute_force(static3).optimal_cost
    for perm in itertools.permutations((1, 2, 3)):
        flipped = permute_instance(static3, perm)
        assert abs(solve_brute_force(flipped).optimal_cost - base3) <= TOL
    base2 = solve_brute_force(d2).optimal_cost
    for perm in ((1, 2), (2, 1)):
        flipped = permute_instance(d2, perm)
        assert abs(solve_brute_force(flipped).optimal_cost - base2) <= TOL
        assert abs(solve_common_info_dp(flipped).optimal_cost - base2) <= TOL


def test_solver_determinism(d2):
    a = solve_prescription_dp(d2, 1)
    b = solve_prescription_dp(d2, 1)
    assert a.optimal_cost == b.optimal_cost
    assert a.control_strategy.tables == b.control_strategy.tables
    assert a.search_size == b.search_size


def test_dp_cap(d2):
    with pytest.raises(CapExceeded):
        solve_prescription_dp(d2, 1, cap=2)


def test_dp_cap_fails_before_building_tables(d2, monkeypatch):
    # agent 2's stage-1 targets have 16 tables each: each fits the cap of 16,
    # their 256 joint candidates do not; no stage is scored
    built = []
    real = solver_mod.CandidateScorer

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(solver_mod, "CandidateScorer", counted)
    with pytest.raises(CapExceeded, match="agent 2, stage 1: joint prescription search needs 256"):
        solve_prescription_dp(d2, 2, cap=16)
    assert built == []


def test_decided_stages_keep_a_table_row_per_node_and_target(d2):
    chain = solver_mod._solve_chain(d2, 1, solver_mod.resolve_caps())
    assert list(chain) == [2, 1]
    for j, record in chain.items():
        for t, stage in enumerate(record.stages):
            assert len(stage.tables) == d2.agent_count
            for m, tables in enumerate(stage.tables, start=1):
                rows = realization_count(d2.schema_sizes(d2.info.prescription_domain(t, j, m)))
                assert tables.dtype == np.uint8  # two controls per agent
                assert tables.shape == (len(stage.probs), rows)


def test_branch_cap_message_gives_a_lower_bound():
    # the pass stops at its 21st node: it knows only that more than 20 are needed
    with pytest.raises(CapExceeded) as err:
        solve_prescription_dp(instance_from_dict(pomdp_dict(7)), 1, cap=20)
    assert err.value.required == 21
    assert str(err.value) == (
        "agent 1, stage 2: reachable belief branches needs more than 20 candidates, cap is 20"
    )


def _count_stages(monkeypatch):
    """The stages brute force's forward pass yields, recorded as it yields them."""
    stages = []
    real = solver_mod._forward_pass

    def counted(*args):
        for stage in real(*args):
            stages.append(stage[0])
            yield stage

    monkeypatch.setattr(solver_mod, "_forward_pass", counted)
    return stages


def test_brute_cap_stops_at_the_first_cell_past_it(d2, monkeypatch):
    # d2's cells (t, k) contribute 2^2, 2^2, 2^8 and 2^8 strategies in turn;
    # the pass builds no stage past the one whose cell exceeds the cap
    stages = _count_stages(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        solve_brute_force(d2, cap=10)
    assert stages == [0]
    assert err.value.required == 16
    assert str(err.value) == "brute-force enumeration needs more than 10 candidates, cap is 10"
    # past the cap only at the last cell: the count is exact, in the old words
    stages.clear()
    with pytest.raises(CapExceeded) as err:
        solve_brute_force(d2, cap=2**19)
    assert stages == [0, 1]
    assert str(err.value) == (
        "brute-force enumeration needs 1048576 candidates, cap is 524288"
    )


def test_brute_cap_fails_fast_on_a_long_horizon(monkeypatch):
    inst = instance_from_dict(pomdp_dict(7))
    stages = _count_stages(monkeypatch)
    with pytest.raises(CapExceeded, match="needs more than 16777216 candidates"):
        solve_brute_force(inst)
    assert stages == [0, 1, 2]


def test_huge_counts_are_written_as_a_power_of_ten():
    from womctl.errors import format_count

    assert format_count(16384) == "16384"
    assert format_count(10**4000) == str(10**4000)
    huge = 2**43690  # the brute-force count of the T=7 POMDP; 43690 log10(2) = 13152.0...
    assert format_count(huge) == "more than 10^13152"
    assert str(CapExceeded(huge, 5, "brute-force enumeration")) == (
        "brute-force enumeration needs more than 10^13152 candidates, cap is 5"
    )


_RECORD_CASES = {
    "d2": lambda: instance_from_dict(d2_dict()),
    "fuzz7": lambda: fuzz_instance(7),
    "pomdp4": lambda: instance_from_dict(pomdp_dict(4)),
}


def _count_filter_calls(monkeypatch) -> list:
    """Record every `belief_step` and `derive_complete` call from here on.

    The solver imports neither, so patching their defining modules sees
    every call it could make."""
    import womctl.belief as belief_mod
    import womctl.prescription as prescription_mod

    assert not hasattr(solver_mod, "belief_step")
    assert not hasattr(solver_mod, "derive_complete")
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    for module, name in [(belief_mod, "belief_step"), (prescription_mod, "derive_complete")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("which", list(_RECORD_CASES))
def test_dp_result_reads_the_search_records(which, monkeypatch):
    inst = _RECORD_CASES[which]()
    chain = solver_mod._solve_chain(inst, 1, solver_mod.resolve_caps())
    calls = _count_filter_calls(monkeypatch)
    for k in range(1, inst.agent_count + 1):
        solver_mod._dp_result(inst, k, chain)
    assert calls == []


@pytest.mark.parametrize("which", list(_RECORD_CASES))
def test_search_makes_no_filter_calls_and_matches_the_reference_dp(which, monkeypatch):
    inst = _RECORD_CASES[which]()
    calls = _count_filter_calls(monkeypatch)
    chain = solver_mod._solve_chain(inst, 1, solver_mod.resolve_caps())
    assert calls == []
    res = solver_mod._dp_result(inst, 1, chain)
    assert res.dp_value == dp_reference(inst, 1)["dp_value"]


def _linked3_two():
    from test_stage_pass import _bench_workloads

    (op,) = [op for op in _bench_workloads().fuzz_compare(7) if op.label == "linked3-two-0"]
    return instance_from_dict(op.doc)


@pytest.mark.parametrize("which", ["linked3-two", "d2"])
def test_compare_agents_builds_one_kernel_per_agent_and_stage(which, monkeypatch):
    from womctl.belief import StepKernel

    inst = _linked3_two() if which == "linked3-two" else instance_from_dict(d2_dict())
    built, stepped = [], []
    real_init, real_step = StepKernel.__init__, StepKernel.step

    def init(self, instance, k, t):
        built.append((k, t))
        real_init(self, instance, k, t)

    def step(self, rows, pairs):
        stepped.append((self.k, self.t))
        return real_step(self, rows, pairs)

    monkeypatch.setattr(StepKernel, "__init__", init)
    monkeypatch.setattr(StepKernel, "step", step)
    compare_agents(inst)
    assert sorted(stepped) == sorted(built)  # each kernel steps once, in its own agent's pass


@pytest.mark.parametrize("which", list(_RECORD_CASES))
def test_emission_and_evaluation_build_no_dense_tables(which, monkeypatch):
    import womctl.prescription as prescription_mod

    inst = _RECORD_CASES[which]()
    K = inst.agent_count
    chain = solver_mod._solve_chain(inst, 1, solver_mod.resolve_caps())
    calls = []
    real = prescription_mod.induced_control_tables

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(prescription_mod, "induced_control_tables", counted)
    results = [solver_mod._dp_result(inst, k, chain) for k in range(1, K + 1)]
    for res in results:
        evaluate_prescription_strategy(inst, res.prescription_strategy)
    compare_agents(inst)
    assert calls == []
    # the dense tables are built on the first read, once per result
    for res in results:
        assert res.control_strategy == joint_control_strategy(inst, res.prescription_strategy)
        assert res.control_strategy is res.control_strategy
    assert len(calls) == 2 * K * len(results)


def test_emitted_laws_hold_only_the_reached_realizations():
    inst = instance_from_dict(pomdp_dict(4))
    res = solve_prescription_dp(inst, 1)
    psi = res.prescription_strategy
    reached = {}
    for row in res.belief_tree:
        cond = inst.info.conditioning_schema(row["t"], 1, 1)
        reached.setdefault(row["t"], set()).add(
            tuple(row["accessible"][v.label()] for v in cond)
        )
    for t in range(inst.horizon + 1):
        assert set(psi.laws[(t, 1)]) == reached[t]
        assert psi.defaults[(t, 1)].table == (0,)
    # from t=1 on, the decided controls leave most histories unreached
    assert len(psi.laws[(4, 1)]) < 2**9


def test_law_defaults_stand_for_the_omitted_realizations(d2):
    import dataclasses

    from womctl.errors import OutOfRange
    from womctl.prescription import PrescriptionStrategy
    from womctl.serialize import prescription_strategy_from_dict, prescription_strategy_to_dict

    psi = random_prescription_strategy(d2, 1, random.Random(32))
    (cond, dropped), *rest = psi.laws[(1, 2)].items()
    laws = dict(psi.laws)
    laws[(1, 2)] = dict(rest)
    gappy = PrescriptionStrategy(owner=1, laws=laws, defaults={(1, 2): dropped})
    assert gappy.lookup(1, 2, cond) is dropped
    assert evaluate_prescription_strategy(d2, gappy) == evaluate_prescription_strategy(d2, psi)
    assert joint_control_strategy(d2, gappy) == joint_control_strategy(d2, psi)
    for strategy in (gappy, psi):
        loaded = prescription_strategy_from_dict(d2, prescription_strategy_to_dict(d2, strategy))
        assert (loaded.laws, loaded.defaults) == (strategy.laws, strategy.defaults)
        assert evaluate_prescription_strategy(d2, loaded) == evaluate_prescription_strategy(d2, psi)
    bad = dataclasses.replace(dropped, domain_sizes=dropped.domain_sizes + (2,))
    with pytest.raises(OutOfRange, match="domain sizes"):
        evaluate_prescription_strategy(
            d2, PrescriptionStrategy(owner=1, laws=laws, defaults={(1, 2): bad})
        )
    laws[(1, 2)] = {cond: bad, **dict(rest)}
    with pytest.raises(OutOfRange, match="domain sizes"):
        evaluate_prescription_strategy(d2, PrescriptionStrategy(owner=1, laws=laws))


@pytest.mark.parametrize("which", ["d2", "pomdp4"])
def test_monte_carlo_of_a_prescription_strategy_matches_its_dense_tables(which):
    from womctl.sysmodel import monte_carlo_cost

    inst = _RECORD_CASES[which]()
    for k in range(1, inst.agent_count + 1):
        for psi in (
            solve_prescription_dp(inst, k).prescription_strategy,
            random_prescription_strategy(inst, k, random.Random(k)),
        ):
            dense = joint_control_strategy(inst, psi)
            assert monte_carlo_cost(inst, psi, 2000, 3) == monte_carlo_cost(inst, dense, 2000, 3)


def test_prescription_dp_long_horizon():
    res = solve_prescription_dp(instance_from_dict(pomdp_dict(10)), 1)
    assert abs(res.dp_value - res.optimal_cost) <= TOL


def _completed_laws(instance, psi):
    """psi's laws with every conditioning realization filled in through its lookup."""
    return {
        (t, m): {
            cond: psi.lookup(t, m, cond)
            for cond in enumerate_realizations(
                instance.schema_sizes(instance.info.conditioning_schema(t, psi.owner, m))
            )
        }
        for t, m in psi.laws
    }


def _assert_dp_matches_reference(instance):
    for k in range(1, instance.agent_count + 1):
        res = solve_prescription_dp(instance, k)
        ref = dp_reference(instance, k)
        assert res.dp_value == ref["dp_value"]
        assert res.extras["chain_values"] == ref["chain_values"]
        assert res.extras["chain_examined"] == ref["chain_examined"]
        assert res.belief_policy == ref["belief_policy"]
        assert res.belief_tree == ref["belief_tree"]
        assert _completed_laws(instance, res.prescription_strategy) == ref["laws"]
        assert res.control_strategy.tables == ref["tables"]


@pytest.mark.parametrize("name", ["d2", "d2ext", "pomdp4"])
def test_prescription_dp_matches_reference_on_bundled(name, request):
    if name == "pomdp4":
        _assert_dp_matches_reference(instance_from_dict(pomdp_dict(4)))
    else:
        _assert_dp_matches_reference(request.getfixturevalue(name))


@pytest.mark.parametrize("seed", range(10))
def test_prescription_dp_matches_reference_on_fuzz(seed):
    _assert_dp_matches_reference(fuzz_instance(seed))


@pytest.mark.parametrize("seed", [2, 4, 6, 10])
def test_prescription_dp_matches_reference_on_random_topologies(seed):
    # clean seeds at T=1 with two or three agents, so every pass but the
    # last inherits tail tables; others take the oracle minutes
    assert seed not in RELAY_DEFECT_SEEDS | PRESCRIPTION_CAP_SEEDS
    _assert_dp_matches_reference(random_topology_instance(seed))


def test_prescription_dp_ties_pick_the_first_candidate():
    doc = d2_dict()
    doc["system"]["cost"] = [[[0.0] * 4] * 2] * 2
    zero = instance_from_dict(doc)
    _assert_dp_matches_reference(zero)
    for k in (1, 2):
        for row in solve_prescription_dp(zero, k).belief_policy:
            assert all(set(table) == {0} for table in row["tables"].values())
    # coarse costs: many candidates tie at every node without all of them tying
    rng = random.Random(11)
    doc["system"]["cost"] = [
        [[rng.choice([0.0, 1.0]) for _ in range(4)] for _ in range(2)] for _ in range(2)
    ]
    _assert_dp_matches_reference(instance_from_dict(doc))


def test_agent_passes_are_logged(d2, caplog):
    caplog.set_level(logging.DEBUG, logger="womctl")
    res = solve_prescription_dp(d2, 1)
    passes = [r for r in caplog.records if r.name == "womctl" and "pass" in r.getMessage()]
    assert [r.args[0] for r in passes] == [2, 1]
    for record in passes:
        j, nodes, widths, examined, _, _, _, seconds = record.args
        assert nodes > 0 and seconds >= 0.0
        assert nodes == sum(widths) and len(widths) == d2.horizon + 1
        assert examined == res.extras["chain_examined"][j]


def test_result_phases_are_logged_after_the_passes(d2, caplog):
    caplog.set_level(logging.DEBUG, logger="womctl")
    solve_prescription_dp(d2, 1)
    lines = [r for r in caplog.records if r.name == "womctl"]
    assert [r.getMessage().split(":")[0] for r in lines] == [
        "agent 2 pass", "agent 1 pass", "agent 1 result"
    ]
    k, emission, evaluation = lines[-1].args
    assert k == 1 and emission >= 0.0 and evaluation >= 0.0


def test_belief_outputs_are_built_on_first_read(d2, monkeypatch):
    built = []
    for name in ("_belief_tree", "_belief_policy"):
        real = getattr(solver_mod, name)
        monkeypatch.setattr(
            solver_mod, name, lambda *args, name=name, real=real: built.append(name) or real(*args)
        )
    compare_agents(d2)
    results = [solve_prescription_dp(d2, k) for k in (1, 2)]
    assert built == []
    for k, res in enumerate(results, start=1):
        tree, policy = res.belief_tree, res.belief_policy
        assert built[-2:] == ["_belief_tree", "_belief_policy"]
        assert res.belief_tree is tree and res.belief_policy is policy
        ref = dp_reference(d2, k)
        assert (tree, policy) == (ref["belief_tree"], ref["belief_policy"])
    assert len(built) == 4
    assert "belief_tree" not in results[0].extras and "belief_policy" not in results[0].extras
    assert solve_brute_force(d2).belief_tree == []


@pytest.mark.parametrize("seed", [5, 13])  # two-agent, T=2: candidates share steps
def test_agent_passes_log_their_step_counts(seed, caplog, monkeypatch):
    from womctl.belief import StepKernel

    inst = fuzz_instance(seed)
    calls = {"steps": 0}
    real_step = StepKernel.step

    def step(self, rows, pairs):
        calls["steps"] += rows
        return real_step(self, rows, pairs)

    def candidate_steps(j, widths):
        # one per (node, candidate of the full product) below the horizon
        return sum(
            width * math.prod(
                len(enumerate_prescription_tables(
                    inst.schema_sizes(inst.info.prescription_domain(t, j, m)),
                    inst.system.control_sizes[m - 1],
                ))
                for m in range(1, j + 1)
            )
            for t, width in enumerate(widths[:-1])
        )

    monkeypatch.setattr(StepKernel, "step", step)
    caplog.set_level(logging.DEBUG, logger="womctl")
    chain = {}
    for j in range(inst.agent_count, 0, -1):
        chain[j] = solver_mod._solve_agent(inst, j, chain, solver_mod.resolve_caps())
        (record,) = [r for r in caplog.records if r.name == "womctl" and "pass" in r.getMessage()]
        caplog.clear()
        agent, nodes, widths, examined, steps, shared, entries, seconds = record.args
        assert (agent, examined, seconds) == (j, chain[j].examined, chain[j].seconds)
        assert (nodes, tuple(widths)) == (sum(chain[j].widths), chain[j].widths)
        assert (steps, shared, entries) == (chain[j].steps, chain[j].shared, chain[j].entries)
        # every (candidate, agent) step below the horizon is computed or shared
        assert steps == calls["steps"] and steps + shared == candidate_steps(j, widths)
        assert entries > 0
        calls.update(steps=0)
    assert sum(done.shared for done in chain.values()) > 0


def test_agent_passes_never_hold_the_full_product():
    # random seed 34's stage 1 has 16 nodes in agent 3's and agent 2's passes,
    # each with 2^16 joint candidates: one float per (node, candidate) takes
    # 8 MiB, while the grids the nodes' supports read hold 4,096 points. The
    # instance's caches are warm, so the peak is the chain's own
    instance = random_topology_instance(34)
    caps = solver_mod.resolve_caps()
    solver_mod._solve_chain(instance, 1, caps)
    tracemalloc.start()
    try:
        chain = solver_mod._solve_chain(instance, 1, caps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [chain[j].widths for j in (3, 2)] == [(1, 16), (1, 16)]
    assert [chain[j].examined for j in (3, 2)] == [16 + 16 * 2**16] * 2
    assert peak < 8 * 16 * 2**16


RELAY_FAILURE = "variable VariableId(time=0, agent=1, kind='Y') not derivable from the state"
RELAY_DEFECT_SEEDS = {8, 9, 33, 42}  # raise RELAY_FAILURE on agent 1's pass
PRESCRIPTION_CAP_SEEDS = {15, 29, 46, 47, 48, 59}  # every DP row skipped at the cap


@pytest.mark.parametrize("seed", range(60))
def test_compare_agents_matches_brute_on_random_topologies(seed):
    # the defect seeds are asserted as they fail today: a fix must change this test
    instance = random_topology_instance(seed)
    if seed in RELAY_DEFECT_SEEDS:
        with pytest.raises(SchemaMismatch) as failure:
            compare_agents(instance)
        assert str(failure.value) == "agent 1, stage 0: " + RELAY_FAILURE
        return
    rows = compare_agents(instance).rows
    brute, *others = rows
    assert brute["method"] == "brute" and brute["status"] == "ok"
    assert len(others) == instance.agent_count + 1
    for row in others:
        if seed in PRESCRIPTION_CAP_SEEDS:
            assert row["status"] == "skipped"
            assert re.fullmatch(
                r"agent \d, stage \d: (prescription enumeration|joint prescription search) "
                rf"needs \d+ candidates, cap is {solver_mod.Caps().tables}",
                row["reason"],
            )
        else:
            assert row["status"] == "ok"
            assert abs(row["cost"] - brute["cost"]) <= TOL


def test_compare_agents_names_the_agent_and_stage_of_a_failure():
    with pytest.raises(SchemaMismatch) as failure:
        compare_agents(instance_from_dict(relay_dict()))
    assert type(failure.value) is SchemaMismatch  # the bench allowance matches the class name
    assert str(failure.value) == "agent 1, stage 0: " + RELAY_FAILURE


def test_compare_agents_detects_disagreement(d2, monkeypatch):
    costs = [row["cost"] for row in compare_agents(d2).rows]
    costs[0] += 0.5  # the brute-force row comes first
    real = solver_mod.solve_brute_force

    def skewed(instance, cap=None):
        res = real(instance, cap)
        res.optimal_cost += 0.5
        return res

    monkeypatch.setattr(solver_mod, "solve_brute_force", skewed)
    with pytest.raises(WomError) as failure:
        compare_agents(d2)
    assert type(failure.value) is WomError
    spread, digest = max(costs) - min(costs), instance_digest(d2)
    assert str(failure.value).startswith(
        f"solver optima disagree by {spread} on instance {digest}: [{{'method': 'brute', "
    )


def test_single_agent_static_all_solvers():
    flip = [[x, 1 - x] for x in range(2)]
    doc = {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": 0,
            "state_size": 2,
            "control_sizes": [2],
            "observation_sizes": [2],
            "noises": [{"size": 2, "probs_per_t": [0.9, 0.1]}],
            "initial_probs": [0.3, 0.7],
            "observation": [[flip]],
            "cost": [[[0.0, 1.0], [2.0, 0.5]]],
        },
    }
    inst = instance_from_dict(doc)
    brute = solve_brute_force(inst)
    static = solve_prescription_static(inst, 1)
    common = solve_common_info_dp(inst)
    assert abs(brute.optimal_cost - static.optimal_cost) <= TOL
    assert abs(brute.optimal_cost - common.optimal_cost) <= TOL
    # best action per observation from the explicit posterior masses
    exp = 0.0
    for y in range(2):
        masses = {
            x: (0.3 if x == 0 else 0.7) * (0.9 if x == y else 0.1) for x in range(2)
        }
        exp += min(
            sum(m * doc["system"]["cost"][0][x][u] for x, m in masses.items())
            for u in range(2)
        )
    assert abs(brute.optimal_cost - exp) <= TOL


def test_static_count_monotonicity_on_fuzz():
    for seed in (0, 6, 12, 1, 7):
        inst = fuzz_instance(seed)
        if inst.horizon != 0:
            continue
        from womctl.prescription import count_strategies

        sizes = [count_strategies(inst, k) for k in range(1, inst.agent_count + 1)]
        assert sizes == sorted(sizes)
        assert sizes[-1] <= count_strategies(inst, "brute")


def test_degenerate_distributions_all_solvers_agree():
    """Point-mass initial state and zero-probability outcomes stay consistent."""
    base = d2_dict()
    variants = [
        {"initial_probs": [1.0, 0.0]},
        {"initial_probs": [0.0, 1.0], "disturbance": {"size": 2, "probs_per_t": [1.0, 0.0]}},
        {"disturbance": {"size": 3, "probs_per_t": [0.5, 0.0, 0.5]}},
    ]
    for overrides in variants:
        doc = copy.deepcopy(base)
        doc["system"].update(overrides)
        if doc["system"]["disturbance"]["size"] == 3:
            stage = [
                [[(x + u1 + u2 + w) % 2 for w in range(3)]
                 for u1 in range(2) for u2 in range(2)]
                for x in range(2)
            ]
            doc["system"]["transition"] = [stage]
        inst = instance_from_dict(doc)
        brute = solve_brute_force(inst).optimal_cost
        rep = compare_agents(inst)
        for row in rep.rows:
            assert row["status"] == "ok"
            assert abs(row["cost"] - brute) <= TOL


def test_zero_probability_initial_lookup_raises(d2):
    from womctl.belief import initial_state_at
    from womctl.errors import ZeroProbabilityCondition

    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    inst = instance_from_dict(doc)
    assert initial_state_at(inst, 1, (0,)).probs is not None
    with pytest.raises(ZeroProbabilityCondition):
        initial_state_at(inst, 1, (1,))


def test_evaluate_rejects_partial_strategy(d2):
    from womctl.errors import DomainMismatch
    from womctl.prescription import PrescriptionStrategy

    rng = random.Random(32)
    psi = random_prescription_strategy(d2, 1, rng)
    partial = PrescriptionStrategy(
        owner=1, laws={k: v for k, v in psi.laws.items() if k[0] == 0}
    )
    with pytest.raises(DomainMismatch, match="no law"):
        evaluate_prescription_strategy(d2, partial)
    gappy = PrescriptionStrategy(owner=1, laws=dict(psi.laws))
    gappy.laws[(1, 2)] = dict(list(psi.laws[(1, 2)].items())[1:])
    with pytest.raises(DomainMismatch, match="missing conditioning realization"):
        evaluate_prescription_strategy(d2, gappy)


def test_fuzz_small_sample_agreement():
    # a quick slice; the acceptance suite runs the full sweep
    for seed in range(6):
        inst = fuzz_instance(seed)
        brute = solve_brute_force(inst).optimal_cost
        rep = compare_agents(inst)
        assert rep.max_spread <= TOL
        ok_costs = [r["cost"] for r in rep.rows if r["status"] == "ok"]
        assert any(abs(c - brute) <= TOL for c in ok_costs)


# a cap that is a bool or not an integer is rejected before any search
_BAD_CAPS = {
    "bool": (True, "True"),
    "float": (1.5, "1.5"),
    "integral-float": (8.0, "8.0"),
    "string": ("8", "'8'"),
}


@pytest.mark.parametrize("name", list(_BAD_CAPS))
@pytest.mark.parametrize("solve", ["brute", "dp", "static", "compare"])
def test_solvers_reject_a_cap_that_is_not_an_integer(name, solve):
    cap, shown = _BAD_CAPS[name]
    calls = {
        "brute": lambda: solve_brute_force(load_d2(), cap),
        "dp": lambda: solve_prescription_dp(load_d2(), 1, cap),
        "static": lambda: solve_prescription_static(load_static3(), 1, cap),
        "compare": lambda: compare_agents(load_d2(), cap),
    }
    with pytest.raises(WomError, match=re.escape(f"cap must be an integer, got {shown}")):
        calls[solve]()


def test_caps_take_numpy_integers():
    assert solver_mod.resolve_caps(np.int64(10)) == solver_mod.Caps(10, 10, 10)
    with pytest.raises(CapExceeded, match="cap is 10$"):
        solve_brute_force(load_d2(), np.int64(10))
