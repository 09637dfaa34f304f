"""Equivalent-state dynamics, information-state filtering, and belief factorization.

An information state is the conditional distribution of one agent's sufficient
state (system state plus the inaccessible-information coordinates) given her
accessible information and past complete prescriptions. Supports are indexed
row-major with the system state as the slowest coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImpossibleObservation, OutOfRange, SchemaMismatch, checked_index
from .infostruct import KIND_CONTROL, KIND_OBSERVATION, InfoSchema, VariableId
from .prescription import CompletePrescription
from .sysmodel import (
    STATE,
    Instance,
    index_realization,
    realization_count,
    realization_index,
    realization_strides,
    schema_rows,
)

NORM_TOL = 1e-9
ZERO_TOL = 1e-12
KEY_DECIMALS = 12
SCORE_BLOCK = 1 << 16  # (pair, point) costs a scorer holds at once, give or take one pair's


@dataclass(frozen=True)
class InformationState:
    agent: int
    time: int
    support: InfoSchema  # variables after the implicit leading system-state coordinate
    probs: np.ndarray


def probs_keys(probs: np.ndarray) -> list:
    """The key of each row of a 2-D array of belief probabilities, the one
    key function: every element rounded to KEY_DECIMALS as
    `rint(p * 10**12) / 10**12`, ties to even."""
    scale = float(10**KEY_DECIMALS)
    return list(map(tuple, (np.rint(probs * scale) / scale).tolist()))


def probs_codes(probs: np.ndarray) -> np.ndarray:
    """The rounding of `probs_keys` as integers, `rint(p * 10**12)`: two rows
    have equal codes exactly when they have equal keys."""
    return np.rint(probs * float(10**KEY_DECIMALS)).astype(np.int64)


@dataclass(frozen=True)
class ConnectionTerm:
    low_agent: int
    high_agent: int
    time: int
    support: InfoSchema
    probs: np.ndarray


def _support_sizes(instance: Instance, support: InfoSchema) -> tuple[int, ...]:
    return (instance.system.state_size,) + instance.schema_sizes(support)


def make_information_state(instance, agent, time, probs) -> InformationState:
    agent = checked_index(agent, "agent", 1, instance.agent_count)
    time = checked_index(time, "time", 0, instance.horizon)
    support = instance.info.equivalent_state(time, agent)
    vec = np.asarray(probs, dtype=float)
    expected = realization_count(_support_sizes(instance, support))
    if vec.shape != (expected,):
        raise SchemaMismatch(
            f"belief vector for agent {agent} at t={time} must have length {expected}"
        )
    if not (np.all(vec >= -NORM_TOL) and abs(float(vec.sum()) - 1.0) <= NORM_TOL):  # NaN fails
        raise SchemaMismatch("belief vector must be a probability distribution")
    return InformationState(agent=agent, time=time, support=support, probs=vec)


def _check_theta(instance, k, t, theta: CompletePrescription):
    if theta.owner != k or theta.time != t:
        raise SchemaMismatch(
            f"complete prescription is for owner {theta.owner} at t={theta.time}, "
            f"expected owner {k} at t={t}"
        )
    for target, part in enumerate(theta.parts, start=1):
        if part.domain != instance.info.prescription_domain(t, k, target):
            raise SchemaMismatch(f"prescription domain for target {target} is wrong")


def trace_step(instance, k, t, state_values, theta, w, v_vector):
    """One equivalent-state step: returns (next state values, new-information values).

    `state_values` is (x, *support values) at stage t; w is the stage-t
    disturbance and v_vector the stage-t+1 noises. The new-information values
    are keyed to the agent's t+1 new-information schema. This is one point of
    `StepKernel.advance`, through the instance's `step_kernel`.
    """
    if t >= instance.system.horizon:
        raise SchemaMismatch("no stage follows the horizon")
    s, uj = _point(instance, k, t, state_values, theta)
    kernel = step_kernel(instance, k, t)
    z, s_next = kernel.advance(s, uj, w, v_vector)
    return (
        index_realization(kernel.next_sizes, int(s_next)),
        index_realization(kernel.new_sizes, int(z)),
    )


def _point(instance, k, t, state_values, theta) -> tuple[int, int]:
    """The support index of agent k's stage-t state values, and the joint
    control theta applies there, read off the domain rows the scorer reads."""
    _check_theta(instance, k, t, theta)
    sizes = _support_sizes(instance, instance.info.equivalent_state(t, k))
    if len(state_values) != len(sizes) or not all(0 <= v < n for v, n in zip(state_values, sizes)):
        raise OutOfRange(f"state values {tuple(state_values)} outside sizes {sizes}")
    s = realization_index(sizes, state_values)
    rows = _support_rows(instance, k, t)[1]
    return s, instance.joint_control_index([p.table[row[s]] for p, row in zip(theta.parts, rows)])


def _plan(schema, source) -> list:
    """Where each coordinate of `schema` is read, the (operand, stride, size)
    that `source` gives its variable, and its weight in the row-major index;
    coordinates read off the support index or the joint control come first,
    so that their partial sum keeps those operands' shape. A variable without
    a source raises."""
    try:
        found = [source[var] for var in schema]
    except KeyError as exc:
        raise SchemaMismatch(f"variable {exc.args[0]} not derivable from the state") from exc
    weights = realization_strides([size for _, _, size in found])
    return sorted((c + (w,) for c, w in zip(found, weights)), key=lambda c: c[0] >= 2)


def _encode(plan, operands):
    """The row-major index of the realization whose coordinates the plan reads
    off `operands`, for any broadcast shapes of the operands; 0 for an empty
    plan. Operands 0 and 1 are row-major codes, whose digit is `operand //
    stride % size`; every later operand is a coordinate's value itself."""
    index = 0
    for o, stride, size, weight in plan:
        index = index + (operands[o] if o >= 2 else operands[o] // stride % size) * weight
    return index


def _fresh_sources(sys, t) -> dict:
    """The sources of the stage-t system state and observations in the
    operands `_operands` lays out."""
    source = {STATE: (2, 1, sys.state_size)}
    for j, n in enumerate(sys.observation_sizes, start=1):
        source[VariableId(t, j, KIND_OBSERVATION)] = (2 + j, 1, n)
    return source


def _operands(sys, t, s, uj, x, v) -> list:
    """The operands of an encoding: 0 the support index s, 1 the joint
    control uj, 2 the stage-t state x, and 2 + j agent j's observation
    `observation[j][t][x, v[j - 1]]`."""
    return [s, uj, x] + [sys.observation[j][t][x, v[j]] for j in range(sys.agent_count)]


def hat_dynamics(instance, k, t, state_values, w, v_vector, theta):
    """Next equivalent-state realization."""
    return trace_step(instance, k, t, state_values, theta, w, v_vector)[0]


def hat_observation(instance, k, t, state_values, theta, w, v_vector):
    """New-information realization at t+1. Needs w because fresh observations
    can depend on the advanced system state."""
    return trace_step(instance, k, t, state_values, theta, w, v_vector)[1]


def hat_cost(instance, k, t, state_values, theta) -> float:
    """Stage cost decoded from the equivalent state and the complete prescription."""
    _, uj = _point(instance, k, t, state_values, theta)
    return float(instance.system.cost[t, state_values[0], uj])


def accessible_support(instance, k) -> dict:
    """Probability of each realization of the agent's t=0 accessible info."""
    values, masses, _ = _initial_pass(instance, k)
    return dict(zip(map(tuple, values.tolist()), masses.tolist()))


def initial_information_state(instance, k) -> dict:
    """Initial beliefs keyed by the realization of the agent's t=0 accessible info."""
    values, _, beliefs = _initial_pass(instance, k)
    support, keys = instance.info.equivalent_state(0, k), map(tuple, values.tolist())
    return {a: InformationState(int(k), 0, support, probs) for a, probs in zip(keys, beliefs)}


def _initial_points(instance) -> tuple:
    """The t=0 points, built once per instance: the (x0, t=0 noises) of positive
    mass, x0 slowest and the noises in `itertools.product` order, their masses
    `p(x0) * p(v1) * ... * p(vK)` and their fresh operands (`_operands`)."""
    if "initial points" not in instance._cache:
        sys, p = instance.system, instance.system.initial_probs
        for law in sys.noise_probs:
            p = np.multiply.outer(p, law[0])
        live = np.flatnonzero(p)
        (x, *v), p = np.unravel_index(live, p.shape), p.ravel()[live]
        instance._cache["initial points"] = p, _operands(sys, 0, None, None, x, v)
    return instance._cache["initial points"]


def _initial_pass(instance, k) -> tuple:
    """Agent k's t=0 roots as three arrays, cached per (instance, agent): its
    accessible realizations of positive mass in sorted order, an int row of
    values each; their masses, added in the order of the instance's t=0
    points (`_initial_points`); and its initial beliefs, a row each, each its
    dense row of point masses divided by that row's sum."""
    cache_key = ("initial_pass", checked_index(k, "agent", 1, instance.agent_count))
    if cache_key not in instance._cache:
        p, operands = _initial_points(instance)
        support, acc = instance.info.equivalent_state(0, k), instance.info.accessible(0, k)
        total = realization_count(_support_sizes(instance, support))
        source = _fresh_sources(instance.system, 0)  # at t=0 every source is fresh
        s = _encode(_plan((STATE,) + support, source), operands)
        a = _encode(_plan(acc, source), operands) + np.zeros_like(s)
        group, g = np.unique(a, return_inverse=True)
        dense = np.bincount(g * total + s, weights=p, minlength=len(group) * total)
        dense = dense.reshape(len(group), total)
        sizes = np.array(instance.schema_sizes(acc), dtype=np.int64)
        values = group[:, None] // np.array(realization_strides(sizes), dtype=np.int64) % sizes
        beliefs = dense / dense.sum(axis=1, keepdims=True)
        instance._cache[cache_key] = values, np.bincount(g, weights=p), beliefs
    return instance._cache[cache_key]


def initial_state_at(instance, k, a_real) -> InformationState:
    """Initial belief for one realized accessible value; rejects impossible ones."""
    from .errors import ZeroProbabilityCondition

    states = initial_information_state(instance, k)
    key = tuple(a_real)
    if key not in states:
        raise ZeroProbabilityCondition(
            f"agent {k} initial accessible realization {key} has probability 0"
        )
    return states[key]


class StepBatch(NamedTuple):
    """`StepKernel.step` of a stack: per row, per new-information realization
    of positive mass in sorted order, a group; row r's groups are
    `start[r]:start[r + 1]`, each with its realization's digits (a row of
    `z`), probability (of `mass`) and posterior (a row of `probs`), all
    arrays. `read` counts the distinct (support index, joint control) codes
    the step read."""

    start: np.ndarray
    z: np.ndarray
    mass: np.ndarray
    probs: np.ndarray
    read: int


class StepKernel:
    """Agent k's stage-t equivalent-state map and filter step.

    At construction each coordinate of the next support (the system state
    first) and of the new information is resolved to its source: a digit of
    the support index, a digit of the joint control, the next state, or a
    fresh observation `observation[j][t+1][x', v_j]`. A coordinate without a
    source raises `SchemaMismatch` here.

    The noise paths are the pairs (w, v) whose probabilities are all nonzero,
    in `itertools.product` order with w slowest; column p of `paths` holds
    path p's disturbance and then its noises in agent order, and column p of
    `factors` their probabilities. Both depend on the stage alone, so every
    agent's stage-t kernel shares them (`_noise_paths`).
    """

    def __init__(self, instance, k, t):
        sys = instance.system
        if t >= sys.horizon:
            raise SchemaMismatch("no stage follows the horizon")
        self.instance, self.k, self.t = instance, k, t
        support = instance.info.equivalent_state(t, k)
        self.sizes = _support_sizes(instance, support)
        self.x_stride, *strides = realization_strides(self.sizes)
        self.next_support = instance.info.equivalent_state(t + 1, k)
        self.next_sizes = _support_sizes(instance, self.next_support)
        self.next_total = realization_count(self.next_sizes)
        new_info = instance.info.new_info(t + 1, k)
        self.new_sizes = instance.schema_sizes(new_info)
        source = {var: (0, stride, n) for var, stride, n in zip(support, strides, self.sizes[1:])}
        control_strides = realization_strides(sys.control_sizes)
        for j, (stride, n) in enumerate(zip(control_strides, sys.control_sizes), start=1):
            source[VariableId(t, j, KIND_CONTROL)] = (1, stride, n)
        source.update(_fresh_sources(sys, t + 1))
        self.next_plan = _plan((STATE,) + self.next_support, source)
        self.new_plan = _plan(new_info, source)
        self.paths, self.factors = _noise_paths(instance, t)

    def advance(self, s, uj, w, v):
        """The new-information index and the next-support index of the step
        from support index s under joint control uj, disturbance w and
        stage-t+1 noises v (agent j's is `v[j - 1]`, shaped like w),
        elementwise over the broadcast shape of (s, uj, w), which both
        results take. Any values in range may be given, of probability zero
        too."""
        sys = self.instance.system
        x_next = sys.transition[self.t][s // self.x_stride, uj, w]
        operands = _operands(sys, self.t + 1, s, uj, x_next, v)
        zero = np.zeros_like(x_next)
        return _encode(self.new_plan, operands) + zero, _encode(self.next_plan, operands) + zero

    def step(self, rows, pairs) -> StepBatch:
        """`belief_step` of each of `rows` beliefs of agent k at stage t.

        `pairs` holds four flat arrays, one entry per positive-mass (row,
        support index) pair, a row's in ascending support order: the row, the
        support index, the joint-control index there and the row's mass there.
        Each pair adds, per noise pair, its mass times the disturbance and
        noise probabilities, in that order, to its row's posterior's
        next-support entry, in (support, w, v) order as the one-point-at-a-time
        filter does; terms exactly zero are skipped. Each posterior is divided
        by its row's sum, and realizations of mass at most `ZERO_TOL` dropped.
        One stable argsort groups the terms by (row, realization) code.
        """
        row, s, uj, prior = pairs
        codes = np.sort(s * self.instance.system.joint_control_count + uj)
        read = min(codes.size, 1) + np.count_nonzero(codes[1:] != codes[:-1])
        z_index, s_next = self.advance(s[:, None], uj[:, None], self.paths[0], self.paths[1:])
        p = prior[:, None] * self.factors[0]
        for f in self.factors[1:]:
            p = p * f
        live = p != 0.0
        new_count = realization_count(self.new_sizes)
        key = (row[:, None] * new_count + z_index)[live]
        order = np.argsort(key, kind="stable")  # the groups in sorted (row, z) order
        ordered = key[order]
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = ordered[1:] != ordered[:-1]
        group, g = ordered[fresh], np.empty_like(order)
        g[order] = np.cumsum(fresh) - 1
        acc = np.bincount(
            g * self.next_total + s_next[live],
            weights=p[live],
            minlength=len(group) * self.next_total,
        ).reshape(len(group), self.next_total)
        mass = acc.sum(axis=1)
        keep = mass > ZERO_TOL
        group, acc, mass = group[keep], acc[keep], mass[keep]
        row, z_index = np.divmod(group, new_count)
        posteriors = acc / mass[:, None]
        strides = np.array(realization_strides(self.new_sizes), dtype=np.int64)
        return StepBatch(
            start=np.searchsorted(row, np.arange(rows + 1)),
            z=z_index[:, None] // strides % np.array(self.new_sizes, dtype=np.int64),
            mass=mass,
            probs=posteriors,
            read=read,
        )

    def branches(self, batch: StepBatch, r: int) -> dict:
        """Row r of a step batch as `belief_step` returns it, each posterior on
        its own copy of its row. The prescription DP reads its batches by
        group instead."""
        return {
            tuple(batch.z[g].tolist()): (
                float(batch.mass[g]),
                InformationState(self.k, self.t + 1, self.next_support, batch.probs[g].copy()),
            )
            for g in range(batch.start[r], batch.start[r + 1])
        }


def _noise_paths(instance, t) -> tuple:
    """The stage-t noise paths and their factors of every `StepKernel`, built
    once per (instance, stage)."""
    cache_key = ("noise_paths", t)
    if cache_key not in instance._cache:
        sys = instance.system
        laws = [sys.disturbance_probs[t]] + [law[t + 1] for law in sys.noise_probs]
        live = laws[0] != 0.0
        for law in laws[1:]:
            live = np.logical_and.outer(live, law != 0.0)
        paths = np.array(np.unravel_index(np.flatnonzero(live), live.shape))
        instance._cache[cache_key] = paths, np.array([law[i] for law, i in zip(laws, paths)])
    return instance._cache[cache_key]


def step_kernel(instance, k, t) -> StepKernel:
    """Agent k's stage-t `StepKernel`, built once per instance."""
    key = ("step_kernel", k, t)
    if key not in instance._cache:
        instance._cache[key] = StepKernel(instance, k, t)
    return instance._cache[key]


def belief_step(instance, pi: InformationState, theta: CompletePrescription) -> dict:
    """Joint one-step distribution: {new-info realization: (probability, next belief)}.

    The conditioning on the new information and the push-forward through the
    state map share one sum over the stage noises, so the result is the exact
    posterior even when fresh observations depend on the same disturbance that
    drives the state.
    """
    _check_theta(instance, pi.agent, pi.time, theta)
    kernel = step_kernel(instance, pi.agent, pi.time)
    tables = [np.array([p.table]) for p in theta.parts]
    pairs = CandidateScorer(instance, pi.agent, pi.time, 0, pi.probs[None], tables).pairs
    return kernel.branches(kernel.step(1, pairs), 0)


def update_information_state(instance, pi, theta, z) -> InformationState:
    """Filter update: condition on the realized new information and advance."""
    steps = belief_step(instance, pi, theta)
    z = tuple(z)
    if z not in steps:
        raise ImpossibleObservation(
            f"new information {z} has probability 0 under the current belief"
        )
    return steps[z][1]


def expected_stage_cost(instance, pi: InformationState, theta) -> float:
    """Belief-weighted stage cost."""
    _check_theta(instance, pi.agent, pi.time, theta)
    tables = [np.array([part.table]) for part in theta.parts]
    return float(CandidateScorer(instance, pi.agent, pi.time, 0, pi.probs[None], tables).cost[0])


class DigitGrids:
    """A mixed-radix grid per row of a stack, over the digits that row reads.

    Digit d has radix `radix[d]`. Row n's grid has one axis per digit it
    reads (`read[n, d]`), the first slowest, and holds 0 on every other
    digit, as `solver._DigitGrid` leaves an axis nothing read at size 1. The
    points of all rows are numbered row by row, each row's in grid order
    from `start[n]`; `node` and `local` give each point's row and its place
    in that row's grid.
    """

    def __init__(self, read, radix):
        sizes = np.where(read, radix, 1)
        after = np.cumprod(sizes[:, ::-1], axis=1)[:, ::-1] // sizes  # each axis's place value
        self.read, self.radix, self.size = read, radix, sizes.prod(axis=1)
        self.stride = np.where(read, after, self.size[:, None])  # a digit not read reads 0
        self.start = np.cumsum(self.size) - self.size
        self.node = np.repeat(np.arange(len(read)), self.size)
        self.local = np.arange(len(self.node)) - self.start[self.node]

    def digits(self, points=slice(None)):
        """The digit values of `points`, a row per point."""
        return self.local[points][:, None] // self.stride[self.node[points]] % self.radix

    def points(self, rows, digits):
        """Per row of `rows`, the point of its grid whose read digits take the
        values of that row of `digits`."""
        place = np.where(self.read[rows], self.stride[rows], 0)
        return self.start[rows] + (digits * place).sum(axis=1)


class CandidateScorer:
    """Belief-weighted stage costs of agent k's stage-t complete prescriptions
    under a stack of agent k's beliefs, each belief over its own candidates.

    A candidate takes one table per head target 1..h and, per belief, the
    tables `tails` holds for targets h+1..K, one int array of shape (beliefs,
    domain rows) per tail target. Digit (m, r), numbered target by target, is
    entry r of head target m's table, of radix m's control size. A belief's
    candidates are the points of its grid in `grids`, over the digits its
    positive-mass support indices read and those its row of `reads`, a
    (beliefs x digits) bool array, marks: `itertools.product` order over
    `enumerate_prescription_tables`' stacks, cut to the candidates that
    differ on a digit the grid reads, each the first of those that agree on
    all of them. The prescription DP marks the digits a node's tail reads.

    Beliefs are read at their positive-mass (row, support index) pairs, as
    `np.nonzero` lists them. Each point's `cost` adds `p * cost` over its
    belief's support indices in ascending order from 0.0, the float
    operations of a one-candidate scan of that belief alone. Below the
    horizon, `pairs` holds the four flat arrays `StepKernel.step` reads, one
    entry per scored (point, support index) pair in scoring order: the point,
    the support index, its joint-control index there and the belief's mass.
    """

    def __init__(self, instance, k, t, h, probs, tails=(), reads=None):
        sys = instance.system
        x, domain_rows = _support_rows(instance, k, t)
        counts = [
            realization_count(instance.schema_sizes(instance.info.prescription_domain(t, k, m)))
            for m in range(1, h + 1)
        ]
        self.edges = np.cumsum([0] + counts)  # each head target's first digit, and the end
        rows, s = np.nonzero(probs > 0.0)
        digit = [edge + row[s] for edge, row in zip(self.edges, domain_rows[:h])]  # per pair
        read = np.zeros((len(probs), self.edges[-1]), dtype=bool)
        if reads is not None:
            read |= reads
        for d in digit:
            read[rows, d] = True
        radix = np.repeat(np.array(sys.control_sizes[:h], dtype=np.int64), counts)
        self.grids = grids = DigitGrids(read, radix)
        strides = realization_strides(sys.control_sizes)  # in the joint index
        base = np.zeros(len(s), dtype=np.int64)
        for tables, row, stride in zip(tails, domain_rows[h:], strides[h:]):
            base += stride * tables[rows, row[s]].astype(np.int64)
        flat, p = x[s] * sys.joint_control_count, probs[rows, s]  # into the (state, control) costs
        stage_costs = sys.cost[t].ravel()
        self.cost = np.zeros(len(grids.node))
        pairs = []
        size = grids.size[rows]  # per pair, its belief's points
        before = np.cumsum(size) - size
        cuts = [0, *(np.flatnonzero(np.diff(before // SCORE_BLOCK)) + 1).tolist(), len(rows)]
        for lo, hi in zip(cuts, cuts[1:]):
            pair = np.repeat(np.arange(lo, hi), size[lo:hi])  # one per point of the pair's belief
            local = np.arange(len(pair)) - np.repeat(before[lo:hi] - before[lo], size[lo:hi])
            points = grids.start[rows[pair]] + local
            uj = base[pair]
            for weight, d in zip(strides, digit):  # each head target's digit at the pair's row
                uj = uj + weight * (local // grids.stride[rows[pair], d[pair]] % radix[d[pair]])
            np.add.at(self.cost, points, p[pair] * stage_costs[flat[pair] + uj])  # in pair order
            if t < sys.horizon:
                pairs.append((points, s[pair], uj, p[pair]))
        self.pairs = tuple(map(np.concatenate, zip(*pairs))) if t < sys.horizon else None


def _support_rows(instance, k, t):
    """The system state, and the row of each of agent k's stage-t prescription
    domains, at every index of agent k's stage-t support; cached per instance."""
    cache_key = ("support_rows", k, t)
    if cache_key not in instance._cache:
        domains = [
            instance.info.prescription_domain(t, k, m) for m in range(1, instance.agent_count + 1)
        ]
        support = instance.info.equivalent_state(t, k)
        x, *rows = schema_rows(instance, support, [(STATE,)] + domains, state=True)
        instance._cache[cache_key] = x, rows
    return instance._cache[cache_key]


def connection_term(instance, pi_i: InformationState, k: int) -> ConnectionTerm:
    """Marginal of agent i's belief onto the coordinates agent k lacks (k < i)."""
    i, k = pi_i.agent, checked_index(k, "agent", 1, instance.agent_count)
    diff = instance.info.tail_difference(pi_i.time, k, i)
    (row,) = schema_rows(instance, pi_i.support, [diff], state=True)
    live = pi_i.probs > 0.0  # summed in support order, as one point at a time
    size = realization_count(instance.schema_sizes(diff))
    vec = np.bincount(row[live], weights=pi_i.probs[live], minlength=size)
    return ConnectionTerm(low_agent=k, high_agent=i, time=pi_i.time, support=diff, probs=vec)


def factorization_check(instance, pi_k_by_extension: dict, pi_i, lam: ConnectionTerm) -> float:
    """Max residual of belief(i) = belief(k under the matching extension) x connection.

    `pi_k_by_extension` maps each realization of the connection support to the
    agent-k belief conditioned on agent i's information extended by it.
    """
    from .errors import MissingConditional

    k, i = lam.low_agent, pi_i.agent
    if lam.high_agent != i or pi_i.time != lam.time:
        raise SchemaMismatch("connection term does not match the belief")
    support_k = (STATE,) + instance.info.equivalent_state(pi_i.time, k)
    rows_k, rows_ext = schema_rows(instance, pi_i.support, [support_k, lam.support], state=True)
    diff_sizes = instance.schema_sizes(lam.support)
    worst = 0.0
    for s_idx in np.nonzero(pi_i.probs > 0.0)[0].tolist():
        ext = index_realization(diff_sizes, int(rows_ext[s_idx]))
        pk = pi_k_by_extension.get(ext)
        if pk is None:
            raise MissingConditional(f"no agent-{k} belief supplied for extension {ext}")
        lhs = float(pi_i.probs[s_idx])
        rhs = float(pk.probs[rows_k[s_idx]]) * float(lam.probs[rows_ext[s_idx]])
        worst = max(worst, abs(lhs - rhs))
    return worst
