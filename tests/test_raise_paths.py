"""Error paths and rare branches of the public API, each pinned by its
outcome: the error's class and message, or what the call returns."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from womctl.belief import (
    StepKernel,
    connection_term,
    factorization_check,
    initial_information_state,
    make_information_state,
    trace_step,
)
from womctl.cli import main
from womctl.errors import (
    DomainMismatch,
    IndexOrder,
    NotStronglyConnected,
    OutOfRange,
    SchemaMismatch,
    ShapeMismatch,
)
from womctl.instances import load_wom3
from womctl.netgraph import NetworkSpec, compute_delay_matrix, information_path
from womctl.prescription import CompletePrescription, derive_complete, make_prescription
from womctl.serialize import control_strategy_from_dict, prescription_strategy_from_dict
from womctl.solver import solve_prescription_static
from womctl.sysmodel import (
    ControlStrategy,
    enumerate_realizations,
    monte_carlo_cost,
    permute_instance,
    validate_instance,
    validate_strategy,
)

ONE_WAY = NetworkSpec(agent_count=2, links=((1, 2, 1),))  # unvalidated: no path from 2 to 1


def _key_out_of_range(d2):
    """d2's all-zero control strategy with agent 1's t=0 key (1,) renamed (2,)."""
    tables = {
        (t, k): {real: 0 for real in enumerate_realizations(d2.schema_sizes(d2.info.memory(t, k)))}
        for t in range(d2.horizon + 1)
        for k in (1, 2)
    }
    tables[(0, 1)][(2,)] = tables[(0, 1)].pop((1,))
    return ControlStrategy(tables=tables)


def _first_belief(d2, k):
    return next(iter(initial_information_state(d2, k).values()))


def _nan_belief(d2):
    vec = np.full(4, 0.25)
    vec[0] = np.nan
    return make_information_state(d2, 1, 0, vec)


def _mismatched_factorization(d2):
    lam = connection_term(d2, _first_belief(d2, 2), 1)  # agent 2's term, agent 1's belief
    return factorization_check(d2, {}, _first_belief(d2, 1), lam)


def _cli(*argv):
    """The exit code of `womctl argv` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


THETA_1 = CompletePrescription(owner=1, time=0, parts=())

# (call on d2, its outcome): (error class, message), or (None, the value returned)
OUTCOMES = {
    "static-horizon-1": (
        lambda d2: solve_prescription_static(d2, 1),
        (ShapeMismatch, "static decomposition requires horizon 0"),
    ),
    "monte-carlo-samples-0": (
        lambda d2: monte_carlo_cost(d2, ControlStrategy(tables={}), 0),
        (ShapeMismatch, "samples must be >= 1"),
    ),
    "strategy-key-out-of-range": (
        lambda d2: validate_strategy(d2, _key_out_of_range(d2)),
        (DomainMismatch, "table (t=0, agent=1) has out-of-range key (2,)"),
    ),
    "instance-network-str": (
        lambda d2: validate_instance(d2.system, "links"),
        (ShapeMismatch, "network must be a NetworkSpec or DelayMatrix"),
    ),
    "instance-horizon-minus-1": (
        lambda d2: validate_instance(dataclasses.replace(d2.system, horizon=-1), d2.network),
        (ShapeMismatch, "horizon must be >= 0"),
    ),
    "permute-float": (
        lambda d2: permute_instance(d2, (1, 2.0)),
        (ShapeMismatch, "(1, 2.0) is not a permutation of 1..2"),
    ),
    "permute-bool": (
        lambda d2: permute_instance(d2, (True, 2)),
        (ShapeMismatch, "(True, 2) is not a permutation of 1..2"),
    ),
    "permute-numpy": (
        lambda d2: permute_instance(d2, (np.int64(2), np.int32(1))).delays.rows,
        (None, ((0, 1), (1, 0))),
    ),
    "prescription-length": (
        lambda d2: make_prescription(d2, 0, 1, 1, [0, 0, 0]),
        (DomainMismatch, "prescription (1->1, t=0) needs 1 entries, got 3"),
    ),
    "information-state-length": (
        lambda d2: make_information_state(d2, 1, 0, [1.0]),
        (SchemaMismatch, "belief vector for agent 1 at t=0 must have length 4"),
    ),
    "information-state-sum-2": (
        lambda d2: make_information_state(d2, 1, 0, [0.5] * 4),
        (SchemaMismatch, "belief vector must be a probability distribution"),
    ),
    "information-state-nan": (
        _nan_belief,
        (SchemaMismatch, "belief vector must be a probability distribution"),
    ),
    "trace-step-at-horizon": (
        lambda d2: trace_step(d2, 1, d2.horizon, (0, 0), None, 0, (0, 0)),
        (SchemaMismatch, "no stage follows the horizon"),
    ),
    "step-kernel-at-horizon": (
        lambda d2: StepKernel(d2, 1, d2.horizon),
        (SchemaMismatch, "no stage follows the horizon"),
    ),
    "factorization-other-agent": (
        _mismatched_factorization,
        (SchemaMismatch, "connection term does not match the belief"),
    ),
    "tail-difference-k-not-below-i": (
        lambda d2: d2.info.tail_difference(0, 2, 1),
        (IndexOrder, "tail difference requires k < i"),
    ),
    "information-path-none": (
        lambda d2: information_path(ONE_WAY, 2, 1),
        (NotStronglyConnected, "no path from agent 2 to agent 1"),
    ),
    "information-path-source-0": (
        lambda d2: information_path(load_wom3().network, 0, 1),
        (OutOfRange, "source 0 is out of range 1..3"),
    ),
    "information-path-target-4": (
        lambda d2: information_path(load_wom3().network, 1, 4),
        (OutOfRange, "target 4 is out of range 1..3"),
    ),
    "information-path-bool": (
        lambda d2: information_path(load_wom3().network, True, 2),
        (OutOfRange, "source True is out of range 1..3"),
    ),
    "information-path-float": (
        lambda d2: information_path(load_wom3().network, 1.0, 2),
        (OutOfRange, "source 1.0 is out of range 1..3"),
    ),
    "delay-matrix-no-path": (
        lambda d2: compute_delay_matrix(ONE_WAY),
        (NotStronglyConnected, "no path from agent 2 to agent 1"),
    ),
    "control-document-of-prescriptions": (
        lambda d2: control_strategy_from_dict(d2, {"kind": "prescription"}),
        (ShapeMismatch, "not a control strategy document"),
    ),
    "prescription-document-of-controls": (
        lambda d2: prescription_strategy_from_dict(d2, {"kind": "control"}),
        (ShapeMismatch, "not a prescription strategy document"),
    ),
    "demo-nosuch": (
        lambda d2: _cli("demo", "nosuch"),
        (None, (3, "error: unknown demo instance nosuch; choose from "
                   "['d2', 'd2ext', 'static3', 'wom3']\n")),
    ),
    "derive-to-lower-owner": (
        lambda d2: derive_complete(d2, dataclasses.replace(THETA_1, owner=2), 1),
        (SchemaMismatch, "complete prescriptions only project to higher owners"),
    ),
    "derive-to-same-owner": (
        lambda d2: derive_complete(d2, THETA_1, 1) is THETA_1,
        (None, True),
    ),
}


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_rare_paths_keep_their_outcome(name, d2):
    call, (error, expected) = OUTCOMES[name]
    if error is None:
        assert call(d2) == expected
        return
    with pytest.raises(error) as info:
        call(d2)
    assert type(info.value) is error
    assert str(info.value) == expected
