"""The one equivalent-state map against its scalar references.

`StepKernel.advance` and the point API `trace_step` must give, at every
(support index, joint control, disturbance, noises) of every stage, zero
probability included, exactly what `oracles.trace_step_reference` reads off its
dictionary of known variables; a kernel that cannot be built fails as the
reference does. The initial beliefs and accessible masses must be `==` to
`oracles.initial_pass_reference`'s scalar loop over (x0, t=0 noises).
"""

import re

import numpy as np
import pytest

from helpers import fuzz_instance
from oracles import initial_pass_reference, trace_step_reference
from test_stage_pass import _bench_workloads
from womctl.belief import (
    StepKernel,
    accessible_support,
    hat_cost,
    initial_information_state,
    trace_step,
)
from womctl.errors import OutOfRange, SchemaMismatch
from womctl.instances import load_d2, load_d2ext, load_static3, load_static3_reindexed, load_wom3
from womctl.prescription import CompletePrescription, make_prescription
from womctl.sysmodel import index_realization, instance_from_dict, realization_count


def _cases():
    cases = {
        "d2": load_d2,
        "d2ext": load_d2ext,
        "static3": load_static3,
        "static3-reindexed": load_static3_reindexed,
        "wom3": load_wom3,
        **{f"fuzz-{s}": lambda s=s: fuzz_instance(s) for s in range(50)},
    }
    workloads = _bench_workloads()
    for name in ("oracle_brute", "fuzz_compare", "pomdp_horizon"):
        for op in workloads.GENERATORS[name](7):
            cases[f"{name}-{op.label}"] = lambda doc=op.doc: instance_from_dict(doc)
    return cases


CASES = _cases()


def _constant_theta(instance, k, t, controls):
    """Agent k's stage-t complete prescription that gives every target m the
    control `controls[m - 1]` wherever it acts."""
    parts = []
    for m, u in enumerate(controls, start=1):
        rows = realization_count(instance.schema_sizes(instance.info.prescription_domain(t, k, m)))
        parts.append(make_prescription(instance, t, k, m, (u,) * rows))
    return CompletePrescription(owner=k, time=t, parts=tuple(parts))


@pytest.mark.parametrize("name", list(CASES))
def test_advance_and_trace_step_match_the_reference_at_every_point(name):
    inst = CASES[name]()
    sys = inst.system
    K = inst.agent_count
    for t in range(inst.horizon):
        for k in range(1, K + 1):
            try:
                kernel = StepKernel(inst, k, t)
            except SchemaMismatch as exc:
                state = (0,) * (1 + len(inst.info.equivalent_state(t, k)))
                with pytest.raises(SchemaMismatch, match=re.escape(str(exc))):
                    trace_step_reference(inst, k, t, state, (0,) * K, 0, (0,) * K)
                continue
            shape = (realization_count(kernel.sizes), sys.joint_control_count,
                     sys.disturbance_size) + sys.noise_sizes
            s, uj, w, *v = np.indices(shape).reshape(len(shape), -1)
            z, s_next = kernel.advance(s, uj, w, v)
            # a support column, a control row and a (w, v) axis broadcast to the same map
            w_v = np.indices(shape[2:]).reshape(len(shape) - 2, -1)
            z_grid, s_next_grid = kernel.advance(
                np.arange(shape[0])[:, None, None], np.arange(shape[1])[:, None], w_v[0], w_v[1:]
            )
            assert z_grid.shape == s_next_grid.shape == (shape[0], shape[1], w_v.shape[1])
            assert np.array_equal(z_grid.ravel(), z) and np.array_equal(s_next_grid.ravel(), s_next)
            points = list(zip(s.tolist(), uj.tolist(), w.tolist(), *(vj.tolist() for vj in v)))
            thetas = {}  # per joint control, a complete prescription applying it everywhere
            for (s_p, uj_p, w_p, *v_p), z_p, s_next_p in zip(points, z.tolist(), s_next.tolist()):
                state = index_realization(kernel.sizes, s_p)
                controls = index_realization(sys.control_sizes, uj_p)
                expected = trace_step_reference(inst, k, t, state, controls, w_p, v_p)
                ours = (
                    index_realization(kernel.next_sizes, s_next_p),
                    index_realization(kernel.new_sizes, z_p),
                )
                assert ours == expected
                if uj_p not in thetas:
                    thetas[uj_p] = _constant_theta(inst, k, t, controls)
                assert trace_step(inst, k, t, state, thetas[uj_p], w_p, v_p) == expected


@pytest.mark.parametrize("name", list(CASES))
def test_initial_beliefs_and_masses_equal_the_reference_loop(name):
    inst = CASES[name]()
    for k in range(1, inst.agent_count + 1):
        states, masses = initial_pass_reference(inst, k)
        ours = initial_information_state(inst, k)
        assert list(ours) == list(states)  # sorted accessible realizations
        for a_real, pi in states.items():
            mine = ours[a_real]
            assert (mine.agent, mine.time, mine.support) == (pi.agent, pi.time, pi.support)
            assert mine.probs.dtype == pi.probs.dtype
            assert [p.hex() for p in mine.probs.tolist()] == [p.hex() for p in pi.probs.tolist()]
        ours_mass = accessible_support(inst, k)
        assert list(ours_mass) == list(masses)
        assert [p.hex() for p in ours_mass.values()] == [p.hex() for p in masses.values()]


def test_point_api_rejects_state_values_out_of_range():
    d2 = load_d2()
    theta = _constant_theta(d2, 1, 0, (0, 0))
    assert len(d2.info.equivalent_state(0, 1)) == 1  # states are (x, one coordinate)
    for state in [(2, 0), (0, 2), (-1, 0), (0,), (0, 0, 0)]:
        with pytest.raises(OutOfRange, match="outside sizes"):
            trace_step(d2, 1, 0, state, theta, 0, (0, 0))
        with pytest.raises(OutOfRange, match="outside sizes"):
            hat_cost(d2, 1, 0, state, theta)
