"""Equivalent-state dynamics, information-state filtering, and belief factorization.

An information state is the conditional distribution of one agent's sufficient
state (system state plus the inaccessible-information coordinates) given her
accessible information and past complete prescriptions. Supports are indexed
row-major with the system state as the slowest coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImpossibleObservation, SchemaMismatch
from .infostruct import KIND_CONTROL, KIND_OBSERVATION, InfoSchema
from .prescription import CompletePrescription, apply_prescription
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
SCORE_BLOCK = 1 << 16  # (pair, candidate) costs a scorer holds at once


@dataclass(frozen=True)
class InformationState:
    agent: int
    time: int
    support: InfoSchema  # variables after the implicit leading system-state coordinate
    probs: np.ndarray

    def key(self) -> tuple:
        return probs_key(self.probs)


def probs_keys(probs: np.ndarray) -> list:
    """The key of each row of a 2-D array of belief probabilities, the one
    key function: every element rounded to KEY_DECIMALS as
    `rint(p * 10**12) / 10**12`, ties to even."""
    scale = float(10**KEY_DECIMALS)
    return list(map(tuple, (np.rint(probs * scale) / scale).tolist()))


def probs_key(probs) -> tuple:
    """`probs_keys` of one belief's probabilities."""
    return probs_keys(np.asarray(probs, dtype=float)[None])[0]


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
    support = instance.info.equivalent_state(time, agent)
    vec = np.asarray(probs, dtype=float)
    expected = realization_count(_support_sizes(instance, support))
    if vec.shape != (expected,):
        raise SchemaMismatch(
            f"belief vector for agent {agent} at t={time} must have length {expected}"
        )
    if np.any(vec < -NORM_TOL) or abs(float(vec.sum()) - 1.0) > NORM_TOL:
        raise SchemaMismatch("belief vector must be a probability distribution")
    return InformationState(agent=agent, time=time, support=support, probs=vec)


def _controls_from_state(instance, theta: CompletePrescription, support, values):
    """Apply every prescription of theta to its coordinates inside the state."""
    var_vals = dict(zip(support, values))
    controls = []
    for target in range(1, instance.agent_count + 1):
        part = theta.parts[target - 1]
        try:
            inputs = tuple(var_vals[v] for v in part.domain)
        except KeyError as exc:
            raise SchemaMismatch(
                f"prescription domain variable {exc.args[0]} is not a state coordinate"
            ) from exc
        controls.append(apply_prescription(part, inputs))
    return tuple(controls)


def _check_theta(instance, k, t, theta: CompletePrescription):
    if theta.owner != k or theta.time != t:
        raise SchemaMismatch(
            f"complete prescription is for owner {theta.owner} at t={theta.time}, "
            f"expected owner {k} at t={t}"
        )
    check_domains(instance, k, t, theta.parts)


def check_domains(instance, k, t, parts, first_target: int = 1):
    """Raise unless each part has agent k's stage-t domain for its target.

    `parts` are the prescriptions for targets first_target, first_target + 1, ...
    """
    for target, part in enumerate(parts, start=first_target):
        if part.domain != instance.info.prescription_domain(t, k, target):
            raise SchemaMismatch(f"prescription domain for target {target} is wrong")


def trace_step(instance, k, t, state_values, theta, w, v_vector):
    """One equivalent-state step: returns (next state values, new-information values).

    `state_values` is (x, *support values) at stage t; w is the stage-t
    disturbance and v_vector the stage-t+1 noises. The new-information values
    are keyed to the agent's t+1 new-information schema.
    """
    if t >= instance.system.horizon:
        raise SchemaMismatch("no stage follows the horizon")
    _check_theta(instance, k, t, theta)
    support = instance.info.equivalent_state(t, k)
    controls = _controls_from_state(instance, theta, support, tuple(state_values[1:]))
    return _trace_step(instance, k, t, state_values, controls, w, v_vector)


def _trace_step(instance, k, t, state_values, controls, w, v_vector):
    """`trace_step` given the controls a checked theta applies at the state."""
    sys = instance.system
    support = instance.info.equivalent_state(t, k)
    x = state_values[0]
    values = tuple(state_values[1:])
    uj = instance.joint_control_index(controls)
    x_next = int(sys.transition[t, x, uj, w])

    known = dict(zip(support, values))
    for j in range(1, sys.agent_count + 1):
        known[(t + 1, j, KIND_OBSERVATION)] = int(
            sys.observation[j - 1][t + 1, x_next, v_vector[j - 1]]
        )
        known[(t, j, KIND_CONTROL)] = controls[j - 1]

    def read(schema):
        out = []
        for var in schema:
            if var not in known:
                raise SchemaMismatch(f"variable {var} not derivable from the state")
            out.append(known[var])
        return tuple(out)

    next_state = (x_next,) + read(instance.info.equivalent_state(t + 1, k))
    new_info = read(instance.info.new_info(t + 1, k))
    return next_state, new_info


def hat_dynamics(instance, k, t, state_values, w, v_vector, theta):
    """Next equivalent-state realization."""
    return trace_step(instance, k, t, state_values, theta, w, v_vector)[0]


def hat_observation(instance, k, t, state_values, theta, w, v_vector):
    """New-information realization at t+1. Needs w because fresh observations
    can depend on the advanced system state."""
    return trace_step(instance, k, t, state_values, theta, w, v_vector)[1]


def hat_cost(instance, k, t, state_values, theta) -> float:
    """Stage cost decoded from the equivalent state and the complete prescription."""
    _check_theta(instance, k, t, theta)
    support = instance.info.equivalent_state(t, k)
    controls = _controls_from_state(instance, theta, support, tuple(state_values[1:]))
    return float(instance.system.cost[t, state_values[0], instance.joint_control_index(controls)])


def accessible_support(instance, k) -> dict:
    """Probability of each realization of the agent's t=0 accessible info."""
    return dict(_initial_pass(instance, k)[1])


def initial_information_state(instance, k) -> dict:
    """Initial beliefs keyed by the realization of the agent's t=0 accessible info."""
    return _initial_pass(instance, k)[0]


def _initial_pass(instance, k) -> tuple[dict, dict]:
    """One cached pass over (x0, t=0 noises): agent k's initial beliefs and the
    mass of each accessible realization, both keyed in sorted order."""
    cache_key = ("initial_pass", k)
    if cache_key in instance._cache:
        return instance._cache[cache_key]
    sys = instance.system
    acc = instance.info.accessible(0, k)
    support = instance.info.equivalent_state(0, k)
    sizes = _support_sizes(instance, support)
    total = realization_count(sizes)
    masses: dict[tuple, np.ndarray] = {}
    support_mass: dict[tuple, float] = {}
    noise_axes = [range(sys.noise_sizes[j]) for j in range(sys.agent_count)]
    for x0 in range(sys.state_size):
        p0 = float(sys.initial_probs[x0])
        if p0 == 0.0:
            continue
        for v in itertools.product(*noise_axes):
            p = p0
            for j in range(sys.agent_count):
                p *= float(sys.noise_probs[j][0, v[j]])
            if p == 0.0:
                continue
            y = {
                (0, j, KIND_OBSERVATION): int(sys.observation[j - 1][0, x0, v[j - 1]])
                for j in range(1, sys.agent_count + 1)
            }
            try:
                a_real = tuple(y[var] for var in acc)
                s_real = (x0,) + tuple(y[var] for var in support)
            except KeyError as exc:
                raise SchemaMismatch(
                    f"initial schema variable {exc.args[0]} is not a t=0 observation"
                ) from exc
            if a_real not in masses:
                masses[a_real] = np.zeros(total)
            masses[a_real][realization_index(sizes, s_real)] += p
            support_mass[a_real] = support_mass.get(a_real, 0.0) + p
    states = {}
    for a_real in sorted(masses):
        vec = masses[a_real]
        states[a_real] = InformationState(
            agent=k, time=0, support=support, probs=vec / vec.sum()
        )
    out = states, dict(sorted(support_mass.items()))
    instance._cache[cache_key] = out
    return out


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
    `start[r]:start[r + 1]`, each with its realization, probability,
    posterior (a row of `probs`) and that posterior's `probs_key`. `read`
    counts the distinct kernel entries the step read."""

    start: list
    z: list
    mass: list
    probs: np.ndarray
    keys: list
    read: int


class StepKernel:
    """Agent k's stage-t filter step, with its transitions traced on first use.

    The noise paths are the pairs (w, v) whose probabilities are all nonzero,
    in `itertools.product` order with w slowest; column p of `factors` holds
    path p's disturbance probability and then its noise probabilities in
    agent order. An entry holds, for one (support index, joint-control
    index) and each path, the new-information index and the next-support
    index. Entries are filled on first use, so no transition is traced at a
    support point or control that no step reaches, and they last as long as
    the kernel: an agent chain keeps one kernel per (agent, stage), so a
    transition traced in one pass serves every later pass.
    """

    def __init__(self, instance, k, t):
        sys = instance.system
        if t >= sys.horizon:
            raise SchemaMismatch("no stage follows the horizon")
        self.instance, self.k, self.t = instance, k, t
        self.sizes = _support_sizes(instance, instance.info.equivalent_state(t, k))
        self.next_support = instance.info.equivalent_state(t + 1, k)
        self.next_sizes = _support_sizes(instance, self.next_support)
        self.next_total = realization_count(self.next_sizes)
        self.new_sizes = instance.schema_sizes(instance.info.new_info(t + 1, k))
        self.paths, factors = [], []
        for w in range(sys.disturbance_size):
            for v in itertools.product(*(range(n) for n in sys.noise_sizes)):
                probs = (float(sys.disturbance_probs[t, w]),) + tuple(
                    float(sys.noise_probs[j][t + 1, v[j]]) for j in range(sys.agent_count)
                )
                if 0.0 not in probs:
                    self.paths.append((w, v))
                    factors.append(probs)
        self.factors = np.array(factors).reshape(len(factors), sys.agent_count + 1).T
        self.entries: dict = {}  # s * joint-control count + uj -> entry
        self._rows: list = []  # per entry and path: (new-info index, next-support index)
        self._table = np.zeros((0, len(self.paths), 2), dtype=np.int64)
        self._z: dict = {}  # new-information index -> realization

    def _entry(self, code: int) -> int:
        if code not in self.entries:  # first use: trace every path
            s, uj = divmod(code, self.instance.system.joint_control_count)
            values = index_realization(self.sizes, s)
            controls = index_realization(self.instance.system.control_sizes, uj)
            row = []
            for w, v in self.paths:
                s_next, z = _trace_step(self.instance, self.k, self.t, values, controls, w, v)
                self._z[z_index := realization_index(self.new_sizes, z)] = z
                row.append((z_index, realization_index(self.next_sizes, s_next)))
            self.entries[code] = len(self._rows)
            self._rows.append(row)
        return self.entries[code]

    def step(self, probs, controls) -> StepBatch:
        """`belief_step` of each row of a stack of agent k's stage-t beliefs.

        `probs` stacks the beliefs, one per row; `controls[r, s]` is the
        joint-control index row r applies at support index s, or -1 where
        the row has no mass. Every (row, support index, noise pair) adds the
        product of the row's mass, the disturbance probability and the noise
        probabilities, in that order, to its posterior's next-support entry,
        in (support, w, v) order as the one-point-at-a-time filter does;
        terms that are exactly zero are skipped. Each posterior is divided by
        its row's sum, and realizations of mass at most `ZERO_TOL` dropped.
        Each posterior's key is made here, once, by `probs_keys`.
        """
        rows, s = np.nonzero(controls >= 0)
        codes = s * self.instance.system.joint_control_count + controls[rows, s]
        entry = [self._entry(code) for code in codes.tolist()]
        read = len(set(entry))
        if len(self._rows) > len(self._table):
            self._table = np.array(self._rows, dtype=np.int64).reshape(-1, len(self.paths), 2)
        table = self._table[entry]
        z_index, s_next = table[:, :, 0], table[:, :, 1]  # per (pair, path)
        p = probs[rows, s][:, None] * self.factors[0]
        for f in self.factors[1:]:
            p = p * f
        live = p != 0.0
        new_count = realization_count(self.new_sizes)
        group, g = np.unique((rows[:, None] * new_count + z_index)[live], return_inverse=True)
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
        return StepBatch(
            start=np.searchsorted(row, np.arange(len(probs) + 1)).tolist(),
            z=[self._z[z] for z in z_index.tolist()],
            mass=mass.tolist(),
            probs=posteriors,
            keys=probs_keys(posteriors),
            read=read,
        )

    def branches(self, batch: StepBatch, r: int) -> dict:
        """Row r of a step batch as `belief_step` returns it, each posterior on
        its own copy of its row. The prescription DP reads its batches by
        group instead."""
        return {
            batch.z[g]: (
                batch.mass[g],
                InformationState(self.k, self.t + 1, self.next_support, batch.probs[g].copy()),
            )
            for g in range(batch.start[r], batch.start[r + 1])
        }


def belief_step(instance, pi: InformationState, theta: CompletePrescription) -> dict:
    """Joint one-step distribution: {new-info realization: (probability, next belief)}.

    The conditioning on the new information and the push-forward through the
    state map share one sum over the stage noises, so the result is the exact
    posterior even when fresh observations depend on the same disturbance that
    drives the state.
    """
    kernel = StepKernel(instance, pi.agent, pi.time)
    _check_theta(instance, pi.agent, pi.time, theta)
    score = CandidateScorer(instance, pi.agent, pi.time, [np.array([p.table]) for p in theta.parts])
    probs = pi.probs[None]
    support = np.nonzero(probs > 0.0)
    controls = np.full(probs.shape, -1, dtype=np.int64)
    controls[support] = score.controls(pi.agent, support)[:, 0]
    return kernel.branches(kernel.step(probs, controls), 0)


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
    return float(CandidateScorer(instance, pi.agent, pi.time, tables)(pi.probs[None])[0, 0])


class CandidateScorer:
    """Belief-weighted stage costs of many of agent k's stage-t complete
    prescriptions at once, under a stack of beliefs.

    A candidate takes one table per head target 1..h and, per belief, the
    same tail prescriptions for targets h+1..K. `head_tables[m - 1]` stacks
    target m's candidate tables as an int array of shape (tables, domain
    rows); the candidates are the product of the stacks, first target
    slowest, the order of `itertools.product`. A tail argument stacks, per
    tail target, one table per belief as an int array of shape (beliefs,
    domain rows).

    Beliefs are read at their positive-mass (row, support index) pairs, as
    `np.nonzero` lists them. Each belief's candidate costs add `p * cost`
    over its support indices in ascending order, so each sum has the float
    operations of a one-candidate scan of that belief alone.
    """

    def __init__(self, instance, k, t, head_tables):
        self.instance, self.k, self.t = instance, k, t
        strides = realization_strides(instance.system.control_sizes)  # in the joint index
        self.cost = instance.system.cost[t]
        self.x = _support_rows(instance, k, k, t)[0]
        self.shape = tuple(len(tables) for tables in head_tables)
        self.candidates = realization_count(self.shape)
        # per head target, row r holds every table's weighted control at r,
        # laid out along that target's axis of the candidate grid
        self.head_controls = []
        for m, (tables, weight) in enumerate(zip(head_tables, strides)):
            axis = tuple(n if a == m else 1 for a, n in enumerate(self.shape))
            self.head_controls.append((tables.T * weight).reshape((-1,) + axis))
        self.tail_strides = strides[len(head_tables) :]

    def __call__(self, probs, tails=(), support=None) -> np.ndarray:
        """Stage cost of every candidate under each belief of the stack `probs`,
        one row per belief. `support` is the stack's positive-mass pairs.

        Pairs are scored in blocks of at most `SCORE_BLOCK` (pair, candidate)
        costs, which bounds the memory a call takes whatever the stack's size.
        """
        if support is None:
            support = np.nonzero(probs > 0.0)
        rows, s = support
        total = np.zeros((len(probs), self.candidates))
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place in its row's support
        block = max(1, SCORE_BLOCK // self.candidates)
        for lo in range(0, len(rows), block):
            pairs = rows[lo : lo + block], s[lo : lo + block]
            # flat indices into the (state, joint control) cost table
            flat = self._controls(self.k, pairs, tails, self.x[pairs[1]] * self.cost.shape[1])
            terms = probs[pairs][:, None] * np.take(self.cost, flat)
            ranks = rank[lo : lo + block]
            for r in range(ranks.min(), ranks.max() + 1):  # each row's terms in support order
                at = ranks == r
                total[pairs[0][at]] += terms[at]
        return total

    def controls(self, agent, support, tails=()) -> np.ndarray:
        """Every candidate's joint-control index at each positive-mass pair of a
        stack of agent `agent`'s stage-t beliefs, one row per pair, candidates
        in candidate order.

        The agent may be any i >= k: agent i's state holds every coordinate of
        agent k's prescription domains, so each candidate acts on it as its
        projection onto agent i's domains would.
        """
        return self._controls(agent, support, tails)

    def _controls(self, agent, support, tails, base=0):
        """`controls`, each plus `base`, one entry per pair or a scalar."""
        domain_rows = _support_rows(self.instance, agent, self.k, self.t)[1]
        rows, s = support
        grid = np.zeros((len(s),) + (1,) * len(self.shape), dtype=np.int64)
        grid += np.reshape(base, (-1,) + grid.shape[1:])
        heads = len(self.shape)
        for tables, row, stride in zip(tails, domain_rows[heads:], self.tail_strides):
            grid += (stride * tables[rows, row[s]]).reshape(grid.shape)
        for controls, row in zip(self.head_controls, domain_rows):
            grid = grid + controls[row[s]]
        return grid.reshape(len(s), -1)


def _support_rows(instance, i, k, t):
    """The system state, and the row of each of agent k's stage-t prescription
    domains, at every index of agent i's stage-t support; cached per instance."""
    cache_key = ("support_rows", i, k, t)
    if cache_key not in instance._cache:
        domains = [
            instance.info.prescription_domain(t, k, m) for m in range(1, instance.agent_count + 1)
        ]
        support = instance.info.equivalent_state(t, i)
        x, *rows = schema_rows(instance, support, [(STATE,)] + domains, state=True)
        instance._cache[cache_key] = x, rows
    return instance._cache[cache_key]


def connection_term(instance, pi_i: InformationState, k: int) -> ConnectionTerm:
    """Marginal of agent i's belief onto the coordinates agent k lacks (k < i)."""
    i = pi_i.agent
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


def belief_tuple_key(pis) -> tuple:
    return tuple(pi.key() for pi in pis)
