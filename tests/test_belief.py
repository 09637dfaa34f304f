import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from helpers import fuzz_instance, pomdp_dict, random_prescription_strategy, relay_dict
from oracles import bayes_posteriors, belief_step_reference, predictive_new_info
from womctl.belief import (
    belief_step,
    connection_term,
    expected_stage_cost,
    factorization_check,
    hat_cost,
    hat_dynamics,
    hat_observation,
    initial_information_state,
    make_information_state,
    probs_codes,
    probs_keys,
    update_information_state,
    _support_sizes,
)
from womctl.errors import ImpossibleObservation, MissingConditional, SchemaMismatch
from womctl.instances import d2_dict
from womctl.prescription import (
    CompletePrescription,
    complete_prescription_at,
    joint_control_strategy,
    make_prescription,
)
import womctl.solver as solver_mod
from womctl.solver import solve_prescription_dp
from womctl.sysmodel import (
    enumerate_realizations,
    instance_from_dict,
    realization_count,
    realization_index,
    restrict_realization,
)


def theta_for(instance, k, t, tables):
    parts = tuple(
        make_prescription(instance, t, k, target, tables[target - 1])
        for target in range(1, instance.agent_count + 1)
    )
    return CompletePrescription(owner=k, time=t, parts=parts)


def single_agent_instance():
    ident = [[x] for x in range(2)]
    stage = [[[(x + u + w) % 2 for w in range(2)] for u in range(2)] for x in range(2)]
    doc = {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": 2,
            "state_size": 2,
            "control_sizes": [2],
            "observation_sizes": [2],
            "disturbance": {"size": 2, "probs_per_t": [0.7, 0.3]},
            "noises": [{"size": 1, "probs_per_t": [1.0]}],
            "initial_probs": [0.5, 0.5],
            "transition": [stage, stage],
            "observation": [[ident, ident, ident]],
            "cost": [[[float(x != u) for u in range(2)] for x in range(2)]] * 3,
        },
    }
    return instance_from_dict(doc)


def test_hat_dynamics_single_agent_reduces_to_transition():
    inst = single_agent_instance()
    theta = theta_for(inst, 1, 0, [[1]])
    # equivalent state is just x; control comes from the constant prescription
    for x in range(2):
        for w in range(2):
            nxt = hat_dynamics(inst, 1, 0, (x,), w, (0,), theta)
            assert nxt[0] == (x + 1 + w) % 2


def test_hat_dynamics_deterministic_rollout_matches(d2ext):
    # degenerate primitives: repeated stepping must reproduce the rollout
    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    doc["system"]["disturbance"]["probs_per_t"] = [1.0, 0.0]
    inst = instance_from_dict(doc)
    theta0 = theta_for(inst, 1, 0, [[1], [0, 1]])
    s0 = (0,) + tuple(
        0 for _ in inst.info.equivalent_state(0, 1)
    )  # consistent with x0 = 0: Y2@0 = 0
    s1, z1 = (
        hat_dynamics(inst, 1, 0, s0, 0, (0, 0), theta0),
        hat_observation(inst, 1, 0, s0, theta0, 0, (0, 0)),
    )
    # x0=0: u1 = 1 (constant table), u2 = table[y2=0] = 0 -> x1 = 0+1+0+0 = 1
    assert s1[0] == 1
    support = inst.info.equivalent_state(1, 1)
    zschema = inst.info.new_info(1, 1)
    assert len(s1) == 1 + len(support)
    assert len(z1) == len(zschema)
    # the own observation inside the new info equals the advanced state
    pos = [i for i, v in enumerate(zschema) if v.kind == "Y" and v.agent == 1]
    assert [z1[i] for i in pos] == [1]


def test_hat_dynamics_hand_traced_relay_step(wom3):
    info = wom3.info
    support = info.equivalent_state(1, 1)
    labels = [v.label() for v in support]
    assert labels == ["U2@0", "Y3@0", "U3@0", "Y2@1", "Y3@1"]
    # hand-picked realization consistent with the packed state (1,0,1)
    x1 = (1 << 2) | (0 << 1) | 1
    s = (x1, 0, 1, 1, 0, 1)  # (x, U2@0, Y3@0, U3@0, Y2@1, Y3@1)
    tables = [
        [0],  # agent 1 constant: domain empty
        [1, 0, 0, 1],  # agent 2 over (U2@0, Y2@1)
        [0, 1, 1, 0, 1, 0, 0, 1],  # agent 3 over (Y3@0, U3@0, Y3@1)
    ]
    t1 = theta_for(wom3, 1, 1, tables)
    assert [v.label() for v in t1.parts[1].domain] == ["U2@0", "Y2@1"]
    assert [v.label() for v in t1.parts[2].domain] == ["Y3@0", "U3@0", "Y3@1"]
    w = 1
    # by hand: u1 = 0; u2 = table2[(0,0)] = 1; u3 = table3[(1,1,1)] = idx 7 -> 1
    # subsystem steps: b1' = 1^0^1 = 0, b2' = 0^1^1 = 0, b3' = 1^1^0 = 0
    nxt = hat_dynamics(wom3, 1, 1, s, w, (0, 0, 0), t1)
    assert nxt[0] == 0
    nxt_support = info.equivalent_state(2, 1)
    assert [v.label() for v in nxt_support] == [
        "U3@0", "U2@1", "Y3@1", "U3@1", "Y2@2", "Y3@2",
    ]
    nxt_map = dict(zip(nxt_support, nxt[1:]))
    from womctl.infostruct import VariableId

    assert nxt_map[VariableId(0, 3, "U")] == 1  # carried over from s
    assert nxt_map[VariableId(1, 2, "U")] == 1  # the control just produced
    assert nxt_map[VariableId(1, 3, "Y")] == 1  # carried over from s
    assert nxt_map[VariableId(1, 3, "U")] == 1
    assert nxt_map[VariableId(2, 2, "Y")] == 0  # read off the advanced state
    assert nxt_map[VariableId(2, 3, "Y")] == 0


def test_hat_observation_single_agent():
    inst = single_agent_instance()
    theta = theta_for(inst, 1, 0, [[1]])
    z = hat_observation(inst, 1, 0, (0,), theta, 1, (0,))
    schema = inst.info.new_info(1, 1)
    assert [v.label() for v in schema] == ["U1@0", "Y1@1"]
    assert z == (1, (0 + 1 + 1) % 2)


def test_hat_observation_deterministic_under_point_noise(d2):
    # with singleton noises, the new information is a function of (s, theta, w)
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    for x in range(2):
        s = (x, x)  # (X0, Y2@0) consistent pair
        for w in range(2):
            a = hat_observation(d2, 1, 0, s, theta, w, (0, 0))
            b = hat_observation(d2, 1, 0, s, theta, w, (0, 0))
            assert a == b


def test_hat_cost_zero_tables(d2):
    doc = d2_dict()
    doc["system"]["cost"] = [[[0.0] * 4] * 2] * 2
    inst = instance_from_dict(doc)
    theta = theta_for(inst, 1, 0, [[1], [0, 1]])
    assert hat_cost(inst, 1, 0, (0, 0), theta) == 0.0


def test_hat_cost_decodes_controls(d2):
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    for x in range(2):
        s = (x, x)  # (X0, Y2@0) consistent pair
        u1, u2 = 1, [0, 1][x]
        uj = d2.joint_control_index((u1, u2))
        assert hat_cost(d2, 1, 0, s, theta) == float(d2.system.cost[0, x, uj])


def test_hat_cost_scaling(d2):
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    doc = d2_dict()
    doc["system"]["cost"] = [
        [[3.0 * c for c in row] for row in stage] for stage in doc["system"]["cost"]
    ]
    scaled = instance_from_dict(doc)
    for x in range(2):
        assert math.isclose(
            hat_cost(scaled, 1, 0, (x, x), theta),
            3.0 * hat_cost(d2, 1, 0, (x, x), theta),
            abs_tol=1e-12,
        )


def test_initial_state_single_agent_point_mass():
    inst = single_agent_instance()
    init = initial_information_state(inst, 1)
    assert set(init) == {(0,), (1,)}
    for (y,), pi in init.items():
        assert pi.probs[y] == 1.0


def test_initial_state_static_matches_bayes(static3):
    init = initial_information_state(static3, 2)
    support = static3.info.equivalent_state(0, 2)
    assert [v.label() for v in support] == ["Y1@0"]
    sizes = _support_sizes(static3, support)
    sys = static3.system
    for (y2, y3), pi in init.items():
        # direct posterior over (x, y1) given (y2, y3)
        joint = {}
        for x in range(2):
            for v1 in range(2):
                for v2 in range(2):
                    for v3 in range(2):
                        p = 0.5
                        for v in (v1, v2, v3):
                            p *= 0.8 if v == 0 else 0.2
                        ys = [int(sys.observation[j][0, x, v]) for j, v in enumerate((v1, v2, v3))]
                        if (ys[1], ys[2]) == (y2, y3):
                            key = (x, ys[0])
                            joint[key] = joint.get(key, 0.0) + p
        total = sum(joint.values())
        for key, mass in joint.items():
            assert abs(pi.probs[realization_index(sizes, key)] - mass / total) <= 1e-12


def test_initial_state_degenerate_point_mass():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [0.0, 1.0]
    inst = instance_from_dict(doc)
    for k in (1, 2):
        init = initial_information_state(inst, k)
        assert len(init) == 1
        (pi,) = init.values()
        assert np.count_nonzero(pi.probs) == 1


def test_update_point_mass_chain():
    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    doc["system"]["disturbance"]["probs_per_t"] = [0.0, 1.0]
    inst = instance_from_dict(doc)
    theta = theta_for(inst, 1, 0, [[0], [0, 0]])
    (pi0,) = (
        v for k, v in initial_information_state(inst, 1).items() if k == (0,)
    )
    steps = belief_step(inst, pi0, theta)
    assert len(steps) == 1
    (z, (pz, pi1)) = next(iter(steps.items()))
    assert pz == 1.0
    assert np.count_nonzero(pi1.probs) == 1


def test_update_matches_direct_bayes(d2):
    rng = random.Random(14)
    for k in (1, 2):
        for _ in range(3):
            psi = random_prescription_strategy(d2, k, rng)
            g = joint_control_strategy(d2, psi)
            oracle = bayes_posteriors(d2, g, k, 1)
            init = initial_information_state(d2, k)
            acc1 = d2.info.accessible(1, k)
            acc0 = d2.info.accessible(0, k)
            znew = d2.info.new_info(1, k)
            sizes = _support_sizes(d2, d2.info.equivalent_state(1, k))
            for a1, post in oracle.items():
                a0 = restrict_realization(acc1, a1, acc0)
                z = restrict_realization(acc1, a1, znew)
                theta = complete_prescription_at(d2, psi, 0, a0)
                pi1 = update_information_state(d2, init[a0], theta, z)
                assert abs(pi1.probs.sum() - 1.0) <= 1e-9
                for s, mass in post.items():
                    assert abs(pi1.probs[realization_index(sizes, s)] - mass) <= 1e-9
                claimed = sum(pi1.probs[realization_index(sizes, s)] for s in post)
                assert abs(claimed - 1.0) <= 1e-9


def test_update_is_strategy_independent(d2):
    rng = random.Random(15)
    k = 1
    psi_a = random_prescription_strategy(d2, k, rng)
    psi_b = random_prescription_strategy(d2, k, rng)
    init = initial_information_state(d2, k)
    a0 = (0,)
    theta = complete_prescription_at(d2, psi_a, 0, a0)
    # psi_b agrees with psi_a at the realized conditioning only
    for target in (1, 2):
        cond = d2.info.conditioning_schema(0, k, target)
        cond_real = restrict_realization(d2.info.accessible(0, k), a0, cond)
        psi_b.laws[(0, target)][cond_real] = psi_a.laws[(0, target)][cond_real]
    theta_b = complete_prescription_at(d2, psi_b, 0, a0)
    for z, (pz, pi_next) in belief_step(d2, init[a0], theta).items():
        other = update_information_state(d2, init[a0], theta_b, z)
        assert np.allclose(pi_next.probs, other.probs, atol=1e-12)


def test_update_impossible_observation(d2):
    theta = theta_for(d2, 1, 0, [[0], [0, 0]])
    init = initial_information_state(d2, 1)
    with pytest.raises(ImpossibleObservation):
        # claim agent 1 played 1 although her table is constant zero
        znew = d2.info.new_info(1, 1)
        z = tuple(1 if v.kind == "U" and v.agent == 1 else 0 for v in znew)
        update_information_state(d2, init[(0,)], theta, z)


@pytest.mark.parametrize("wrong", ["owner", "time", "domain"])
def test_belief_step_rejects_a_mismatched_theta(d2, wrong):
    pi = initial_information_state(d2, 1)[(0,)]
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    z = next(iter(belief_step(d2, pi, theta)))
    if wrong == "owner":
        bad = dataclasses.replace(theta, owner=2)
    elif wrong == "time":
        bad = dataclasses.replace(theta, time=1)
    else:
        # target 2's part on target 1's (empty) domain: every lookup still succeeds
        own = theta.parts[0]
        part = dataclasses.replace(
            theta.parts[1], domain=own.domain, domain_sizes=own.domain_sizes, table=(0,)
        )
        bad = dataclasses.replace(theta, parts=(own, part))
    with pytest.raises(SchemaMismatch):
        belief_step(d2, pi, bad)
    with pytest.raises(SchemaMismatch):
        update_information_state(d2, pi, bad, z)


def test_expected_stage_cost_point_mass(d2):
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    support = d2.info.equivalent_state(0, 1)
    sizes = _support_sizes(d2, support)
    vec = np.zeros(4)
    vec[realization_index(sizes, (1, 1))] = 1.0
    pi = make_information_state(d2, 1, 0, vec)
    assert math.isclose(
        expected_stage_cost(d2, pi, theta), hat_cost(d2, 1, 0, (1, 1), theta), abs_tol=1e-12
    )


def test_expected_stage_cost_uniform_average(d2):
    theta = theta_for(d2, 1, 0, [[1], [0, 1]])
    vec = np.full(4, 0.25)
    pi = make_information_state(d2, 1, 0, vec)
    sizes = _support_sizes(d2, pi.support)
    manual = sum(
        0.25 * hat_cost(d2, 1, 0, s, theta)
        for s in itertools.product(range(2), range(2))
    )
    assert math.isclose(expected_stage_cost(d2, pi, theta), manual, abs_tol=1e-12)


def test_expected_stage_cost_matches_enumeration(d2):
    rng = random.Random(16)
    psi = random_prescription_strategy(d2, 1, rng)
    g = joint_control_strategy(d2, psi)
    init = initial_information_state(d2, 1)
    sys = d2.system
    from oracles import joint_trajectories, schema_values

    rows = joint_trajectories(d2, g)
    acc0 = d2.info.accessible(0, 1)
    for a0, pi in init.items():
        theta = complete_prescription_at(d2, psi, 0, a0)
        num, den = 0.0, 0.0
        for p, y, u, xs in rows:
            if schema_values(acc0, y, u) != a0:
                continue
            uj = d2.joint_control_index((u[(0, 1)], u[(0, 2)]))
            num += p * float(sys.cost[0, xs[0], uj])
            den += p
        assert abs(expected_stage_cost(d2, pi, theta) - num / den) <= 1e-9


def test_connection_term_support_and_marginal(wom3):
    info = wom3.info
    t = 1
    diff = info.tail_difference(t, 1, 2)
    assert set(diff) == set(info.accessible(t, 1)) - set(info.accessible(t, 2))
    # the plain schema difference of the sufficient states sits inside it
    schema_diff = set(info.equivalent_state(t, 2)) - set(info.equivalent_state(t, 1))
    assert schema_diff <= set(diff)
    from womctl.infostruct import VariableId

    assert VariableId(0, 1, "U") in diff  # the lower agent's own latest control
    # marginalization against a directly computed joint
    init = initial_information_state(wom3, 2)
    (pi,) = init.values()
    lam = connection_term(wom3, pi, 1)
    assert abs(lam.probs.sum() - 1.0) <= 1e-9
    diff0 = info.tail_difference(0, 1, 2)
    sizes_i = _support_sizes(wom3, pi.support)
    sizes_d = wom3.schema_sizes(diff0)
    manual = np.zeros(int(np.prod(sizes_d)) if sizes_d else 1)
    for idx in np.nonzero(pi.probs)[0]:
        vals = []
        rem = int(idx)
        for size in reversed(sizes_i):
            vals.append(rem % size)
            rem //= size
        vals = tuple(reversed(vals))
        ext = restrict_realization(pi.support, vals[1:], diff0)
        manual[realization_index(sizes_d, ext)] += pi.probs[idx]
    lam0 = connection_term(wom3, pi, 1)
    assert np.allclose(lam0.probs, manual, atol=1e-12)


def test_connection_term_product_distribution(d2):
    # product belief: the marginal onto the missing coordinates is its factor
    support = d2.info.equivalent_state(0, 2)
    assert [v.label() for v in support] == ["Y1@0", "Y2@0"]
    assert [v.label() for v in d2.info.tail_difference(0, 1, 2)] == ["Y1@0"]
    px, q, r = [0.5, 0.5], [0.7, 0.3], [0.2, 0.8]
    vec = np.array(
        [px[x] * q[y1] * r[y2] for x in range(2) for y1 in range(2) for y2 in range(2)]
    )
    pi = make_information_state(d2, 2, 0, vec)
    lam = connection_term(d2, pi, 1)
    assert np.allclose(lam.probs, q, atol=1e-12)


def test_factorization_point_masses(d2):
    doc = d2_dict()
    doc["system"]["initial_probs"] = [1.0, 0.0]
    inst = instance_from_dict(doc)
    pi2 = next(iter(initial_information_state(inst, 2).values()))
    pi1 = initial_information_state(inst, 1)
    lam = connection_term(inst, pi2, 1)
    ext_map = {}
    for ext in itertools.product(range(2)):
        if ext in pi1:
            ext_map[ext] = pi1[ext]
    residual = factorization_check(inst, ext_map, pi2, lam)
    assert residual <= 1e-12


def test_factorization_missing_conditional(d2):
    pi2 = next(iter(initial_information_state(d2, 2).values()))
    lam = connection_term(d2, pi2, 1)
    with pytest.raises(MissingConditional):
        factorization_check(d2, {}, pi2, lam)


def factorization_sweep(instance, psi_low, low, high):
    """Max factorization residual over all reachable branches of the high agent."""
    from helpers import reachable_branches
    from womctl.prescription import translate_strategy

    psi_high = translate_strategy(instance, psi_low, high)
    low_branches = reachable_branches(instance, psi_low, low)
    low_by_key = {}
    for t, amap, pi, _ in low_branches:
        acc = instance.info.accessible(t, low)
        low_by_key[(t, tuple(amap[v] for v in acc))] = pi
    worst = 0.0
    checks = 0
    for t, amap, pi_high_state, _ in reachable_branches(instance, psi_high, high):
        lam = connection_term(instance, pi_high_state, low)
        diff = instance.info.tail_difference(t, low, high)
        acc_high = instance.info.accessible(t, high)
        acc_low = instance.info.accessible(t, low)
        ext_map = {}
        for idx in np.nonzero(lam.probs)[0]:
            sizes = instance.schema_sizes(diff)
            vals, rem = [], int(idx)
            for size in reversed(sizes):
                vals.append(rem % size)
                rem //= size
            ext = tuple(reversed(vals))
            full = dict(amap)
            for var, val in zip(diff, ext):
                full[var] = val
            key = (t, tuple(full[v] for v in acc_low))
            if key in low_by_key:
                ext_map[ext] = low_by_key[key]
        worst = max(worst, factorization_check(instance, ext_map, pi_high_state, lam))
        checks += 1
    assert checks > 0
    return worst


def test_factorization_reachable_d2(d2):
    rng = random.Random(20)
    for _ in range(2):
        psi1 = random_prescription_strategy(d2, 1, rng)
        assert factorization_sweep(d2, psi1, 1, 2) <= 1e-9


def test_factorization_detects_corruption(d2):
    rng = random.Random(22)
    psi1 = random_prescription_strategy(d2, 1, rng)
    from womctl.prescription import translate_strategy
    from helpers import reachable_branches

    psi2 = translate_strategy(d2, psi1, 2)
    # corrupt the connection term at the deepest reachable branch
    branches = [b for b in reachable_branches(d2, psi2, 2) if b[0] == d2.horizon]
    t, amap, pi2, _ = branches[-1]
    lam = connection_term(d2, pi2, 1)
    probs = lam.probs.copy()
    bump = 0.1 if probs[0] + 0.1 <= 1.0 else -0.1
    probs[0] += bump
    probs /= probs.sum()
    from womctl.belief import ConnectionTerm

    bad = ConnectionTerm(lam.low_agent, lam.high_agent, lam.time, lam.support, probs)
    low_branches = reachable_branches(d2, psi1, 1)
    acc_low = d2.info.accessible(t, 1)
    diff = d2.info.tail_difference(t, 1, 2)
    ext_map = {}
    for bt, bmap, pi1, _ in low_branches:
        if bt != t:
            continue
        ext_map[tuple(bmap[v] for v in diff)] = pi1
    good = factorization_check(d2, ext_map, pi2, lam)
    corrupted = factorization_check(d2, ext_map, pi2, bad)
    assert good <= 1e-9
    assert corrupted >= 0.01


def test_markov_property_of_belief_transitions(d2):
    """Branches sharing (belief, prescription) have identical predicted
    new-information laws, and those laws match direct conditioning."""
    rng = random.Random(23)
    k = 1
    psi = random_prescription_strategy(d2, k, rng)
    g = joint_control_strategy(d2, psi)
    oracle = predictive_new_info(d2, g, k, 0)
    from helpers import reachable_branches

    groups = {}
    for t, amap, pi, _ in reachable_branches(d2, psi, k):
        if t != 0:
            continue
        a_real = tuple(amap[v] for v in d2.info.accessible(0, k))
        theta = complete_prescription_at(d2, psi, 0, a_real)
        theta_key = tuple(p.table for p in theta.parts)
        law = {z: pz for z, (pz, _) in belief_step(d2, pi, theta).items()}
        direct = oracle[a_real]
        assert set(law) == set(direct)
        for z in law:
            assert abs(law[z] - direct[z]) <= 1e-9
        groups.setdefault((tuple(probs_keys(pi.probs[None])[0]), theta_key), []).append(law)
    for laws in groups.values():
        first = laws[0]
        for law in laws[1:]:
            assert set(law) == set(first)
            for z in law:
                assert abs(law[z] - first[z]) <= 1e-9


def test_normalization_preserved_along_reachable_branches(d2):
    rng = random.Random(24)
    from helpers import reachable_branches

    for k in (1, 2):
        psi = random_prescription_strategy(d2, k, rng)
        for _, _, pi, _ in reachable_branches(d2, psi, k):
            assert abs(float(pi.probs.sum()) - 1.0) <= 1e-9


def draw_theta(instance, k, t, rng):
    """Agent k's stage-t complete prescription with a seeded table per target."""
    tables = []
    for m in range(1, instance.agent_count + 1):
        domain = instance.info.prescription_domain(t, k, m)
        csize = instance.system.control_sizes[m - 1]
        entries = realization_count(instance.schema_sizes(domain))
        tables.append([rng.randrange(csize) for _ in range(entries)])
    return theta_for(instance, k, t, tables)


def assert_same_step(got, want):
    """Same new-information keys in the same order, same masses and the same
    next beliefs, bit for bit."""
    assert list(got) == list(want)
    for z, (mass, pi) in want.items():
        got_mass, got_pi = got[z]
        assert got_mass == mass
        assert (got_pi.agent, got_pi.time, got_pi.support) == (pi.agent, pi.time, pi.support)
        assert got_pi.probs.dtype == pi.probs.dtype
        assert got_pi.probs.tobytes() == pi.probs.tobytes()


_STEP_CASES = ["d2", "d2ext", "pomdp4"] + [f"fuzz{seed}" for seed in range(50)]


@pytest.mark.parametrize("name", _STEP_CASES)
def test_belief_step_matches_the_reference_filter(name, request):
    if name == "pomdp4":
        inst = instance_from_dict(pomdp_dict(4))
    elif name.startswith("fuzz"):
        inst = fuzz_instance(int(name[4:]))
    else:
        inst = request.getfixturevalue(name)
    rng = random.Random(name)
    steps = 0
    for k in range(1, inst.agent_count + 1):
        frontier = list(initial_information_state(inst, k).values())
        for t in range(inst.horizon):
            reached = []
            for pi in frontier:
                for _ in range(2):
                    theta = draw_theta(inst, k, t, rng)
                    want = belief_step_reference(inst, pi, theta)
                    assert_same_step(belief_step(inst, pi, theta), want)
                    steps += 1
                reached.extend(pi_next for _, pi_next in want.values())
            frontier = reached
    assert steps > 0 or inst.horizon == 0


def test_update_rejects_the_observations_the_reference_step_omits(d2):
    rng = random.Random(5)
    for k in (1, 2):
        for pi in initial_information_state(d2, k).values():
            theta = draw_theta(d2, k, 0, rng)
            want = belief_step_reference(d2, pi, theta)
            sizes = d2.schema_sizes(d2.info.new_info(1, k))
            omitted = 0
            for z in enumerate_realizations(sizes):
                if z in want:
                    assert_same_step({z: (0.0, update_information_state(d2, pi, theta, z))},
                                     {z: (0.0, want[z][1])})
                else:
                    omitted += 1
                    with pytest.raises(ImpossibleObservation):
                        update_information_state(d2, pi, theta, z)
            assert omitted > 0


RELAY_FAILURE = "variable VariableId(time=0, agent=1, kind='Y') not derivable from the state"


def test_relay_step_fails_as_the_reference_filter_does():
    inst = instance_from_dict(relay_dict())
    pi = next(iter(initial_information_state(inst, 1).values()))
    theta = draw_theta(inst, 1, 0, random.Random(0))
    with pytest.raises(SchemaMismatch) as want:
        belief_step_reference(inst, pi, theta)
    with pytest.raises(SchemaMismatch) as got:
        belief_step(inst, pi, theta)
    assert str(got.value) == str(want.value) == RELAY_FAILURE
    for k in (2, 3):
        solve_prescription_dp(inst, k)
    with pytest.raises(SchemaMismatch) as solved:
        solve_prescription_dp(inst, 1)
    assert str(solved.value) == "agent 1, stage 0: " + RELAY_FAILURE


def _assert_keys_match(rows):
    """Every key element of a stack is `rint(p * 1e12) / 1e12`, float for
    float, and a row's key does not depend on the rows stacked with it."""
    stack = np.array(rows, dtype=float)
    got = probs_keys(stack)
    want = [[float(np.rint(p * 1e12) / 1e12) for p in row] for row in stack.tolist()]
    assert [[p.hex() for p in key] for key in got] == [[p.hex() for p in key] for key in want]
    assert probs_keys(stack[::-1])[::-1] == got
    assert [probs_keys(stack[[r]])[0] for r in range(len(stack))] == got
    codes = probs_codes(stack)
    assert codes.dtype == np.int64
    assert (codes / 1e12).tolist() == [list(key) for key in got]  # -0.0 == 0.0


def test_stacked_keys_match_probs_key_on_random_rows():
    rng = np.random.default_rng(12)
    for width in range(1, 9):
        rows = rng.random((2000, width)) ** 4  # many small masses
        _assert_keys_match(rows / rows.sum(axis=1, keepdims=True))


def test_stacked_keys_match_probs_key_at_ties_and_edges():
    rng = random.Random(12)
    # exact binary ties: odd multiples of 2**-13 scale to a .5
    values = [m * 2.0**-13 for m in range(1, 8192, 2)]
    assert values[0] * 1e12 == 122070312.5
    # within a few ulps of a 12-decimal half
    for n in [0, 1, 2, 499999999999, 999999999999] + rng.sample(range(10**12), 500):
        half = (n + 0.5) / 1e12
        for direction in (0.0, 2.0):
            p = half
            for _ in range(3):
                p = float(np.nextafter(p, direction))
                values.append(p)
        values.append(half)
    # zeros, and values just above 1
    values += [0.0, -0.0, 1.0, 1e-300, 5e-324]
    p = 1.0
    for _ in range(5):
        p = float(np.nextafter(p, 2.0))
        values.append(p)
    values += [1.0000000000005, 1.0000000000004999, 1.0000000000015, 1.000000000001]
    width = 8
    values += [0.0] * (-len(values) % width)
    _assert_keys_match(np.reshape(values, (-1, width)))
    _assert_keys_match([values])


def _step_batch_cases():
    from test_stage_pass import _bench_workloads

    workloads = _bench_workloads()
    cases = {"d2": lambda: (instance_from_dict(d2_dict()), None)}
    cases.update({f"fuzz-{s}": lambda s=s: (fuzz_instance(s), None) for s in range(10)})
    for name in ("oracle_brute", "fuzz_compare", "pomdp_horizon"):
        for op in workloads.GENERATORS[name](7):
            cases[f"{name}-{op.label}"] = lambda op=op: (instance_from_dict(op.doc), op.known_defect)
    return cases


_STEP_BATCH_CASES = _step_batch_cases()


@pytest.mark.parametrize("name", list(_STEP_BATCH_CASES))
def test_agent_passes_step_only_their_own_belief(name, monkeypatch):
    """Every `StepKernel.step` call during agent j's pass uses agent j's own
    kernel: a pass moves the higher agents through their own passes' nodes."""
    from womctl.belief import StepKernel

    instance, known_defect = _STEP_BATCH_CASES[name]()
    real_step, real_pass = StepKernel.step, solver_mod._solve_agent
    running, kernels = [], []

    def step(self, rows, pairs):
        kernels.append((running[-1], self.k))
        return real_step(self, rows, pairs)

    def solve_agent(instance, j, chain, caps):
        running.append(j)
        return real_pass(instance, j, chain, caps)

    monkeypatch.setattr(StepKernel, "step", step)
    monkeypatch.setattr(solver_mod, "_solve_agent", solve_agent)
    try:
        solver_mod._solve_chain(instance, 1, solver_mod.resolve_caps())
    except SchemaMismatch:
        assert known_defect == "SchemaMismatch"
    else:
        assert known_defect is None
    assert all(j == k for j, k in kernels)
    if instance.horizon > 0 and known_defect is None:
        assert {j for j, _ in kernels} == set(range(1, instance.agent_count + 1))


def test_a_wide_nodes_scorer_holds_pairs_not_a_dense_stack(wom3):
    """Agent 3's stage-1 belief on wom3 has 8 positive entries among 2,048
    support indices and its grid has 16,384 points: the scorer keeps its
    step rows as 131,072 (point, support index) pairs, where a dense
    (points x support indices) stack of int64 alone would take 256 MiB."""
    import tracemalloc

    from womctl.belief import CandidateScorer

    (pi0,) = initial_information_state(wom3, 3).values()
    rows = [
        realization_count(wom3.schema_sizes(wom3.info.prescription_domain(0, 3, m)))
        for m in range(1, 4)
    ]
    theta = theta_for(wom3, 3, 0, [[0] * n for n in rows])
    _, pi1 = next(iter(belief_step(wom3, pi0, theta).values()))
    tracemalloc.start()
    try:
        score = CandidateScorer(wom3, 3, 1, 3, pi1.probs[None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (pi1.probs.shape, int(np.count_nonzero(pi1.probs))) == ((2_048,), 8)
    assert len(score.grids.node) == 16_384
    assert peak < 32 * 2**20
    assert [len(column) for column in score.pairs] == [16_384 * 8] * 4
