"""A Hypothesis differential gate: every solver against brute force on
generated instance documents.

A document has 1-3 agents, horizon 0-2, state, control, observation,
disturbance and noise sizes 1-3 (noise size 1 is a noise-free
observation), transitions drawn per stage or shared by every stage, costs
from {0, 1, 2} so that ties are common, and any strongly connected link set
with delays 1-3, so asymmetric and non-nested delay matrices appear. A
document is kept only if `instance_from_dict` accepts it and brute force
counts at most `BRUTE_LIMIT` strategies.

The relay defect (a step kernel that finds no source for a variable of the
next equivalent state) is asserted by class and message wherever it shows,
with brute force solving the instance alone.

A second gate holds brute force to `oracles.brute_force_tree_reference`, bit
for bit, on the documents of at most `REFERENCE_LIMIT` strategies and
`PRIMITIVE_LIMIT` primitive sequences (the reference's work grows with the
strategies and with the histories, which under any one control sequence are
no more than the primitive sequences), with chunks from one point up to the
default.
"""

import itertools
import math
import re
from unittest import mock

import hypothesis
import hypothesis.strategies as st

from oracles import brute_force_tree_reference
import womctl.solver as solver_mod
from womctl.errors import CapExceeded, SchemaMismatch, WomError
from womctl.prescription import count_strategies
from womctl.solver import compare_agents, solve_brute_force, solve_prescription_dp
from womctl.sysmodel import (
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    joint_primitives,
)

TOL = 1e-9
BRUTE_LIMIT = 2**14
REFERENCE_LIMIT = 2**12
PRIMITIVE_LIMIT = 2**8
RELAY_FAILURE = re.compile(
    r"agent \d, stage \d: variable VariableId\(time=\d, agent=\d, kind='[YU]'\) "
    r"not derivable from the state"
)


def _strongly_connected(agents, pairs) -> bool:
    reach = set(pairs) | {(a, a) for a in range(1, agents + 1)}
    for m in range(1, agents + 1):  # Warshall's closure
        reach |= {(f, t) for f, via in reach if via == m for start, t in reach if start == m}
    return len(reach) == agents * agents


@st.composite
def instance_documents(draw):
    # weighted toward the multi-stage, multi-agent shapes that fit the brute limit least often
    agents, horizon = draw(st.sampled_from([1, 2, 3, 3])), draw(st.sampled_from([0, 1, 1, 2]))
    size = st.sampled_from([1, 2, 2, 3])
    x_size, w_size = draw(size), draw(size)
    control_sizes = draw(st.lists(size, min_size=agents, max_size=agents))
    observation_sizes = draw(st.lists(size, min_size=agents, max_size=agents))
    noise_sizes = draw(st.lists(size, min_size=agents, max_size=agents))
    nu = math.prod(control_sizes)

    def law(n):  # zero masses too, one entry at least positive
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        weights[draw(st.integers(0, n - 1))] += 1
        return [w / sum(weights) for w in weights]

    def table(shape, values):
        if not shape:
            return draw(st.integers(0, values - 1))
        return [table(shape[1:], values) for _ in range(shape[0])]

    ordered = [(f, t) for f in range(1, agents + 1) for t in range(1, agents + 1) if f != t]
    pairs = draw(st.sets(st.sampled_from(ordered))) if ordered else set()
    if not _strongly_connected(agents, pairs):
        pairs |= {(a, a % agents + 1) for a in range(1, agents + 1)}
    links = [{"from": f, "to": t, "delay": draw(st.integers(1, 3))} for f, t in sorted(pairs)]
    if draw(st.booleans()):  # time-varying transitions
        transition = [table((x_size, nu, w_size), x_size) for _ in range(horizon)]
    else:
        transition = [table((x_size, nu, w_size), x_size)] * horizon
    system = {
        "horizon": horizon,
        "state_size": x_size,
        "control_sizes": control_sizes,
        "observation_sizes": observation_sizes,
        "disturbance": {
            "size": w_size,
            "probs_per_t": [law(w_size) for _ in range(horizon)] if horizon else law(w_size),
        },
        "noises": [
            {"size": n, "probs_per_t": [law(n) for _ in range(horizon + 1)]} for n in noise_sizes
        ],
        "initial_probs": law(x_size),
        "transition": transition,
        "observation": [
            [table((x_size, n), size_y) for _ in range(horizon + 1)]
            for n, size_y in zip(noise_sizes, observation_sizes)
        ],
        "cost": table((horizon + 1, x_size, nu), 3),
    }
    return {"network": {"agents": agents, "links": links}, "system": system}


def _kept(doc, limit=BRUTE_LIMIT):
    """The instance of a document with at most `limit` brute-force strategies, else None."""
    try:
        instance = instance_from_dict(doc)
        return instance if count_strategies(instance, "brute") <= limit else None
    except WomError:  # rejected, or past the feasibility sweep's cap
        return None


@hypothesis.settings(
    max_examples=450,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow, hypothesis.HealthCheck.filter_too_much],
)
@hypothesis.given(instance_documents())
def test_solvers_agree_with_brute_force_on_generated_instances(doc):
    instance = _kept(doc)
    hypothesis.assume(instance is not None)
    data = instance_to_dict(instance)
    again = instance_from_dict(data)
    assert instance_to_dict(again) == data
    assert instance_digest(again) == instance_digest(instance)

    hypothesis.event(f"{instance.agent_count} agents, horizon {instance.horizon}")
    brute = solve_brute_force(instance).optimal_cost
    try:
        rows = compare_agents(instance, cap=BRUTE_LIMIT).rows
    except SchemaMismatch as exc:  # the relay defect: brute force alone solves
        assert RELAY_FAILURE.fullmatch(str(exc)), str(exc)
        hypothesis.event("relay defect")
        rows = []
    for row in rows:
        if row["status"] == "skipped":
            assert f"cap is {BRUTE_LIMIT}" in row["reason"], row
            hypothesis.event("a row skipped at the cap")
        else:
            assert abs(row["cost"] - brute) <= TOL, row
    for k in range(1, instance.agent_count + 1):
        try:
            res = solve_prescription_dp(instance, k, cap=BRUTE_LIMIT)
        except CapExceeded:
            continue
        except SchemaMismatch as exc:
            assert RELAY_FAILURE.fullmatch(str(exc)), str(exc)
            continue
        assert abs(res.dp_value - res.optimal_cost) <= TOL
        assert abs(res.optimal_cost - brute) <= TOL


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow, hypothesis.HealthCheck.filter_too_much],
)
@hypothesis.given(
    instance_documents(),
    st.sampled_from([1, 2, 4, 16, solver_mod._CHUNK]),
)
def test_brute_force_matches_reference_on_generated_instances(doc, chunk):
    instance = _kept(doc, REFERENCE_LIMIT)
    hypothesis.assume(instance is not None)
    primitives = itertools.islice(joint_primitives(instance), PRIMITIVE_LIMIT + 1)
    hypothesis.assume(sum(1 for _ in primitives) <= PRIMITIVE_LIMIT)
    best, tables = brute_force_tree_reference(instance)
    with mock.patch.object(solver_mod, "_CHUNK", chunk):
        res = solve_brute_force(instance)
    assert res.extras["vectorized_cost"] == best
    assert res.control_strategy.tables == tables
