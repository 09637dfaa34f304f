"""The stage-by-stage agent pass against the depth-first recursion it replaced.

`oracles.solve_agent_reference` visits one node at a time; `_solve_agent`
expands each stage's nodes together. Both must leave every `_Chain` field
equal: values, decisions (keys in order, prescriptions, and each decided
step down to its probability arrays), candidates examined, steps computed
and shared, kernel entries and nodes per stage. A pass that fails must fail
alike in both.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from helpers import fuzz_instance, pomdp_dict, random_topology_instance, relay_dict
from oracles import solve_agent_reference
import womctl.solver as solver_mod
from womctl.instances import load_d2, load_d2ext, load_static3, load_wom3
from womctl.prescription import count_strategies
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
    """The chain agents K..1 leave, and the exception that stopped it, if any."""
    chain = solver_mod._Chain()
    try:
        for j in range(instance.agent_count, 0, -1):
            solve(instance, j, chain, solver_mod.resolve_caps())
    except Exception as exc:  # compared by type and message
        return chain, (type(exc).__name__, str(exc))
    return chain, None


def _assert_steps_equal(ours, theirs):
    assert list(ours) == list(theirs)  # new-information order
    for z, (mass, pi) in theirs.items():
        our_mass, our_pi = ours[z]
        assert our_mass == mass
        assert (our_pi.agent, our_pi.time, our_pi.support) == (pi.agent, pi.time, pi.support)
        assert our_pi.probs.dtype == pi.probs.dtype
        assert np.array_equal(our_pi.probs, pi.probs)


def _assert_chains_equal(ours, theirs):
    for field in ("values", "examined", "steps", "shared", "entries", "widths"):
        assert getattr(ours, field) == getattr(theirs, field), field
    assert list(ours.decisions) == list(theirs.decisions)
    for j, decided in theirs.decisions.items():
        assert list(ours.decisions[j]) == list(decided)  # completion order
        for key, decision in decided.items():
            mine = ours.decisions[j][key]
            assert mine.theta == decision.theta
            _assert_steps_equal(mine.steps, decision.steps)
            assert list(mine.tail_steps) == list(decision.tail_steps)
            for i, steps in decision.tail_steps.items():
                _assert_steps_equal(mine.tail_steps[i], steps)


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
