"""The stage-by-stage agent pass against the depth-first recursion it replaced.

`oracles.solve_agent_reference` visits one node at a time; `_solve_agent`
expands each stage's nodes together. Both must return `_Pass` records equal
in every field but seconds: values, per stage the node keys in first-visit
order, each node's decided tables and its winner's branches (new
information, probability, child and every agent's posterior down to its
array), the roots, candidates examined, steps computed and shared, kernel
entries and nodes per stage. A pass that fails must fail alike in both.
"""

import importlib.util
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from helpers import fuzz_instance, pomdp_dict, random_topology_instance, relay_dict
from oracles import solve_agent_reference
import womctl.solver as solver_mod
from womctl.belief import StepKernel, accessible_support
from womctl.instances import load_d2, load_d2ext, load_static3, load_wom3
from womctl.prescription import count_strategies
from womctl.solver import compare_agents, solve_prescription_dp
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


def _our_branches(stages, t, n):
    """Node n's winning branches in the pass's own stages, as the reference
    records them: (z, mass, child key, child beliefs of agents j..K)."""
    stage = stages[t]
    if stage.win is None:
        return []
    u, owner = stage.win[n], stage.batches[0]
    return [
        (tuple(owner.z[groups[0]].tolist()), owner.mass[groups[0]], stages[t + 1].keys[c],
         [batch.probs[g] for batch, g in zip(stage.batches, groups)])
        for c, groups in zip(stage.kid[u].tolist(), stage.groups[u].tolist())
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
            assert mine.keys == stage.keys  # first-visit order
            assert mine.index == stage.index
            assert len(mine.tables) == len(stage.tables)  # targets 1..K
            for our_tables, tables in zip(mine.tables, stage.tables):
                assert np.array_equal(our_tables, tables)
            for n, branches in enumerate(stage.branches):
                our_branches = _our_branches(our_pass.stages, t, n)
                assert len(our_branches) == len(branches)  # new-information order
                for (z, mass, key, beliefs), (our_z, our_mass, our_key, our_beliefs) in zip(
                    branches, our_branches
                ):
                    assert (our_z, our_mass, our_key) == (z, mass, key)
                    _assert_beliefs_equal(our_beliefs, beliefs)
        assert len(our_pass.roots) == len(their_pass.roots)
        for (mass, n, amap, beliefs), (our_mass, our_n, our_amap, our_beliefs) in zip(
            their_pass.roots, our_pass.roots
        ):
            assert (our_mass, our_n, our_amap) == (mass, n, amap)
            _assert_beliefs_equal(our_beliefs, beliefs)


@pytest.mark.parametrize("name", list(CASES))
def test_stage_pass_matches_the_depth_first_reference(name):
    instance = CASES[name]()
    ours, failure = _run(instance, solver_mod._solve_agent)
    theirs, reference_failure = _run(instance, solve_agent_reference)
    assert failure is None and reference_failure is None
    _assert_chains_equal(ours, theirs)


@pytest.mark.parametrize(
    "load, error",
    [(load_wom3, "CapExceeded"), (lambda: instance_from_dict(relay_dict()), "SchemaMismatch")],
    ids=["wom3", "relay"],
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


def test_emission_reads_the_pass_record_by_node_index(monkeypatch):
    """No search or emission expands a step into `InformationState`s, and
    only the t=0 roots are keyed, once per accessible realization per pass."""
    branches, keyed = [], []
    real_branches, real_key = StepKernel.branches, solver_mod.belief_tuple_key

    def counted_branches(kernel, batch, r):
        branches.append((kernel.k, kernel.t))
        return real_branches(kernel, batch, r)

    def counted_key(pis):
        keyed.append({pi.time for pi in pis})
        return real_key(pis)

    monkeypatch.setattr(StepKernel, "branches", counted_branches)
    monkeypatch.setattr(solver_mod, "belief_tuple_key", counted_key)
    linked3 = next(
        op.doc for op in _bench_workloads().GENERATORS["fuzz_compare"](7)
        if op.label.startswith("linked3-two")
    )
    for instance in (load_d2(), instance_from_dict(linked3), instance_from_dict(pomdp_dict(4))):
        K = instance.agent_count
        roots = {j: len(accessible_support(instance, j)) for j in range(1, K + 1)}
        solves = [(k, lambda k=k: solve_prescription_dp(instance, k)) for k in range(1, K + 1)]
        for lowest, solve in solves + [(1, lambda: compare_agents(instance))]:
            branches.clear()
            keyed.clear()
            solve()
            assert branches == []
            assert keyed == [{0}] * sum(roots[j] for j in range(lowest, K + 1))


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
