"""The stage-by-stage agent pass against the depth-first recursion it replaced.

`oracles.solve_agent_reference` visits one node at a time, steps every
agent j..K and inherits by 12-decimal keys; `_solve_agent` expands each
stage's nodes together, steps agent j alone and inherits by tail node.
Both must return `_Pass` records equal in every field but seconds: values,
per stage the node keys in first-visit order, each node's belief, tail node
and decided tables and its winner's branches (new information,
probability, child and every agent's belief down to its array, the higher
agents' as their tail nodes hold them), the roots, candidates examined,
agent j's steps computed and shared, kernel entries and nodes per stage. A
pass that fails must fail alike in both.
"""

import importlib.util
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from helpers import (
    fuzz_instance,
    pomdp_dict,
    random_topology_instance,
    relay_dict,
    relay_ring_dict,
)
from oracles import solve_agent_reference
import womctl.belief as belief_mod
import womctl.solver as solver_mod
from womctl.belief import StepKernel
from womctl.instances import load_d2, load_d2ext, load_static3, load_wom3
from womctl.prescription import count_strategies
from womctl.serialize import prescription_strategy_to_dict
from womctl.solver import compare_agents, solve_brute_force, solve_prescription_dp
from womctl.sysmodel import instance_from_dict

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _bench_workloads():
    """bench/workloads.py, loaded read-only under a private module name."""
    name = "womctl_test_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while loading
        spec.loader.exec_module(module)
    return sys.modules[name]


def _cases():
    cases = {
        "d2": load_d2,
        "d2ext": load_d2ext,
        "static3": load_static3,
        **{f"pomdp-T{T}": lambda T=T: instance_from_dict(pomdp_dict(T)) for T in (2, 4, 7)},
        **{f"fuzz-{s}": lambda s=s: fuzz_instance(s) for s in range(50)},
    }
    workloads = _bench_workloads()
    for name in ("oracle_brute", "fuzz_compare", "pomdp_horizon"):
        for op in workloads.GENERATORS[name](7):
            if op.known_defect is None:
                cases[f"{name}-{op.label}"] = lambda doc=op.doc: instance_from_dict(doc)
    return cases


CASES = _cases()


def _run(instance, solve):
    """The chain `_solve_chain` leaves for agents K..1 with `solve` as its
    agent pass, and the exception that stopped it, if any."""
    chain = {}
    try:
        with mock.patch.object(solver_mod, "_solve_agent", solve):
            solver_mod._solve_chain(instance, 1, solver_mod.resolve_caps(), chain)
    except Exception as exc:  # compared by type and message
        return chain, (type(exc).__name__, str(exc))
    return chain, None


def _tail_beliefs(chain, j, t, nodes):
    """The beliefs of agents j+1..K at the tail nodes of agent j's stage-t `nodes`."""
    beliefs = []
    for m in range(j + 1, max(chain) + 1):
        nodes = chain[m - 1].stages[t].tail[nodes]
        beliefs.append(chain[m].stages[t].probs[nodes])
    return beliefs


def _our_branches(chain, j, t, n):
    """Node n's winning branches in the pass's own stages, as the reference
    records them: (z, mass, child key, child beliefs of agents j..K)."""
    stage = chain[j].stages[t]
    if stage.win is None:
        return []
    u, owner, keys = stage.win[n], stage.batch, solver_mod._node_keys(chain, j, t + 1)
    return [
        (tuple(owner.z[g].tolist()), owner.mass[g], keys[c],
         [owner.probs[g]] + _tail_beliefs(chain, j, t + 1, c))
        for c, g in zip(stage.kid[u].tolist(), stage.groups[u].tolist())
        if c >= 0
    ]


def _assert_beliefs_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, pi in zip(ours, theirs):
        assert mine.dtype == pi.dtype
        assert np.array_equal(mine, pi)


def _assert_chains_equal(ours, theirs):
    assert list(ours) == list(theirs)
    for j, their_pass in theirs.items():
        our_pass = ours[j]
        for field in ("value", "examined", "steps", "shared", "entries", "widths"):
            assert getattr(our_pass, field) == getattr(their_pass, field), (j, field)
        stages = their_pass.stages
        assert len(our_pass.stages) == len(stages)
        for t, stage in enumerate(stages):
            mine = our_pass.stages[t]
            assert solver_mod._node_keys(ours, j, t) == stage.keys  # first-visit order
            _assert_beliefs_equal(list(mine.probs), stage.probs)
            assert np.array_equal(mine.tail, stage.tail)
            assert len(mine.tables) == len(stage.tables)  # targets 1..K
            for our_tables, tables in zip(mine.tables, stage.tables):
                assert np.array_equal(our_tables, tables)
            for n, branches in enumerate(stage.branches):
                our_branches = _our_branches(ours, j, t, n)
                assert len(our_branches) == len(branches)  # new-information order
                for (z, mass, key, beliefs), (our_z, our_mass, our_key, our_beliefs) in zip(
                    branches, our_branches
                ):
                    assert (our_z, our_mass, our_key) == (z, mass, key)
                    _assert_beliefs_equal(our_beliefs, beliefs)
        assert len(our_pass.roots) == len(their_pass.roots)
        for (mass, n, amap, belief), (our_mass, our_n, our_amap, our_belief) in zip(
            their_pass.roots, our_pass.roots
        ):
            assert (our_mass, our_n, our_amap) == (mass, n, amap)
            _assert_beliefs_equal([our_belief], [belief])


@pytest.mark.parametrize("name", list(CASES))
def test_stage_pass_matches_the_depth_first_reference(name):
    instance = CASES[name]()
    ours, failure = _run(instance, solver_mod._solve_agent)
    theirs, reference_failure = _run(instance, solve_agent_reference)
    assert failure is None and reference_failure is None
    _assert_chains_equal(ours, theirs)


@pytest.mark.parametrize(
    "load, error",
    [
        (load_wom3, "CapExceeded"),
        (lambda: instance_from_dict(relay_dict()), "SchemaMismatch"),
        (lambda: instance_from_dict(relay_ring_dict()), "SchemaMismatch"),
    ],
    ids=["wom3", "relay", "relay-ring"],
)
def test_failing_passes_fail_alike(load, error):
    instance = load()
    ours, failure = _run(instance, solver_mod._solve_agent)
    theirs, reference_failure = _run(instance, solve_agent_reference)
    assert failure == reference_failure
    assert failure[0] == error
    _assert_chains_equal(ours, theirs)


@pytest.mark.parametrize("seed", range(30))
def test_random_topologies_match_the_reference(seed):
    instance = random_topology_instance(seed)
    ours, failure = _run(instance, solver_mod._solve_agent)
    theirs, reference_failure = _run(instance, solve_agent_reference)
    assert failure == reference_failure  # the relay defect raises here on some seeds
    _assert_chains_equal(ours, theirs)


def _bench_op(workload, label):
    """The instance of one operation of a bench workload at seed 7."""
    ops = _bench_workloads().GENERATORS[workload](7)
    return instance_from_dict(next(op.doc for op in ops if op.label == label))


def _linked3():
    return _bench_op("fuzz_compare", "linked3-two-0")


def _observer():
    return _bench_op("fuzz_compare", "observer-T2-0")


def test_emission_reads_the_pass_record_by_node_index(monkeypatch):
    """No search or emission expands a step into `InformationState`s, and no
    solve or compare makes a belief key: only the first read of
    `belief_policy` keys the nodes, once per stage of each agent k..K."""
    branches, keyed = [], []
    real_branches, real_keys = StepKernel.branches, belief_mod.probs_keys

    def counted_branches(kernel, batch, r):
        branches.append((kernel.k, kernel.t))
        return real_branches(kernel, batch, r)

    def counted_keys(probs):
        keyed.append(len(probs))
        return real_keys(probs)

    monkeypatch.setattr(StepKernel, "branches", counted_branches)
    monkeypatch.setattr(belief_mod, "probs_keys", counted_keys)
    monkeypatch.setattr(solver_mod, "probs_keys", counted_keys)
    for instance in (load_d2(), _linked3(), instance_from_dict(pomdp_dict(4))):
        K, T = instance.agent_count, instance.horizon
        compare_agents(instance)
        assert branches == keyed == []
        for k in range(1, K + 1):
            res = solve_prescription_dp(instance, k)
            res.belief_tree
            assert branches == keyed == []
            policy = res.belief_policy
            assert len(keyed) == (T + 1) * (K - k + 1)
            assert sum(keyed) >= len(policy)
            keyed.clear()
            assert res.belief_policy is policy and keyed == []


def test_relay_ring_fails_in_agent_1s_stage_1():
    """The relay defect past t=0: agents 3 and 2 solve, agent 1's stage-1
    step cannot source Y1@0, and brute force alone solves."""
    instance = instance_from_dict(relay_ring_dict())
    chain, failure = _run(instance, solver_mod._solve_agent)
    assert list(chain) == [3, 2]
    assert failure == (
        "SchemaMismatch",
        "agent 1, stage 1: variable VariableId(time=0, agent=1, kind='Y') "
        "not derivable from the state",
    )
    assert abs(solve_brute_force(instance).optimal_cost - 3.248) <= 1e-9
    doc = relay_ring_dict()
    system = doc["system"]
    system["horizon"] = 1
    system["transition"] = system["transition"][:1]
    system["observation"] = [laws[:2] for laws in system["observation"]]
    system["cost"] = system["cost"][:2]
    rows = compare_agents(instance_from_dict(doc)).rows
    assert [row["status"] for row in rows] == ["ok"] * 5


@pytest.mark.parametrize("load", [_observer, _linked3], ids=["observer", "linked3"])
def test_inheritance_ignores_later_steps_of_a_higher_agent(load, monkeypatch):
    """Every step of agent m's kernel made after agent m's own pass returns
    posteriors moved by 5e-13, which moves some 12-decimal key; the chain's
    values, tables and emitted strategies stay as they were."""
    caps = solver_mod.resolve_caps()
    plain_instance = load()
    plain = solver_mod._solve_chain(plain_instance, 1, caps)
    done, moved = set(), []
    real_step, real_pass = StepKernel.step, solver_mod._solve_agent

    def step(kernel, rows, pairs):
        batch = real_step(kernel, rows, pairs)
        shifted = batch.probs + 5e-13
        moved.append(belief_mod.probs_keys(shifted) != belief_mod.probs_keys(batch.probs))
        return batch._replace(probs=shifted) if kernel.k in done else batch

    def solve_agent(instance, j, chain, caps):
        record = real_pass(instance, j, chain, caps)
        done.add(j)
        return record

    monkeypatch.setattr(StepKernel, "step", step)
    monkeypatch.setattr(solver_mod, "_solve_agent", solve_agent)
    instance = load()
    chain = solver_mod._solve_chain(instance, 1, caps)
    assert any(moved)
    assert list(chain) == list(plain)
    for j in plain:
        assert chain[j].value == plain[j].value
        for stage, plain_stage in zip(chain[j].stages, plain[j].stages):
            for tables, plain_tables in zip(stage.tables, plain_stage.tables):
                assert np.array_equal(tables, plain_tables)
        emitted = solver_mod._emit_strategy(instance, j, chain)[0]
        plain_emitted = solver_mod._emit_strategy(plain_instance, j, plain)[0]
        assert prescription_strategy_to_dict(instance, emitted) == prescription_strategy_to_dict(
            plain_instance, plain_emitted
        )


def test_random_topologies_are_strongly_connected_and_within_the_brute_cap():
    horizons = set()
    for seed in range(30):
        instance = random_topology_instance(seed)
        horizons.add(instance.horizon)
        K = instance.agent_count
        assert {delay for _, _, delay in instance.network.links} <= {1, 2}
        # every agent hears from every other within K - 1 links of delay at most 2
        assert all(
            1 <= instance.delays.delay(f, t) <= 2 * (K - 1)
            for f in range(1, K + 1)
            for t in range(1, K + 1)
            if f != t
        )
        assert count_strategies(instance, "brute") <= 2**24
    assert horizons == {0, 1, 2}
