"""Finite system model, instance validation, and exact / Monte Carlo strategy cost.

An instance couples the communication graph (or a direct delay matrix) with
finite dynamics, observation channels, per-stage costs, and the distributions
of the primitive random variables. All tables are dense numpy arrays; agents
are 1-based, values 0-based.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import netgraph
from .errors import (
    AgentCountMismatch,
    CapExceeded,
    DistributionNotNormalized,
    DomainMismatch,
    SchemaMismatch,
    ShapeMismatch,
    as_integer,
)
from .infostruct import (
    KIND_CONTROL,
    KIND_OBSERVATION,
    InfoSchema,
    InfoStructure,
    VariableId,
)

PROB_TOL = 1e-9
SWEEP_CAP = 1_000_000


@dataclass(frozen=True)
class SystemSpec:
    """Dynamics, observation channels, costs, and primitive distributions."""

    horizon: int
    state_size: int
    control_sizes: tuple[int, ...]
    observation_sizes: tuple[int, ...]
    disturbance_size: int
    disturbance_probs: np.ndarray  # (horizon, |W|)
    noise_sizes: tuple[int, ...]
    noise_probs: tuple[np.ndarray, ...]  # per agent, (horizon+1, |V^k|)
    initial_probs: np.ndarray  # (|X|,)
    transition: np.ndarray  # (horizon, |X|, NU, |W|) -> next state
    observation: tuple[np.ndarray, ...]  # per agent, (horizon+1, |X|, |V^k|) -> y
    cost: np.ndarray  # (horizon+1, |X|, NU)

    @property
    def agent_count(self) -> int:
        return len(self.control_sizes)

    @functools.cached_property
    def joint_control_count(self) -> int:
        return math.prod(self.control_sizes)


@dataclass(frozen=True)
class Instance:
    """Validated problem instance with precomputed information schemas."""

    system: SystemSpec
    delays: netgraph.DelayMatrix
    info: InfoStructure
    network: netgraph.NetworkSpec | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def agent_count(self) -> int:
        return self.system.agent_count

    @property
    def horizon(self) -> int:
        return self.system.horizon

    def variable_size(self, var: VariableId) -> int:
        if var.kind == KIND_OBSERVATION:
            return self.system.observation_sizes[var.agent - 1]
        return self.system.control_sizes[var.agent - 1]

    def schema_sizes(self, schema: InfoSchema) -> tuple[int, ...]:
        return tuple(self.variable_size(v) for v in schema)

    def joint_control_index(self, controls) -> int:
        return realization_index(self.system.control_sizes, controls)


def realization_count(sizes) -> int:
    return math.prod(sizes)


def realization_strides(sizes) -> tuple[int, ...]:
    """The weight of each coordinate in the row-major index; the last one's is 1."""
    return tuple(math.prod(sizes[i + 1 :]) for i in range(len(sizes)))


def enumerate_realizations(sizes):
    """Row-major enumeration: first coordinate slowest."""
    return itertools.product(*[range(s) for s in sizes])


def realization_index(sizes, values) -> int:
    idx = 0
    for size, v in zip(sizes, values):
        idx = idx * size + v
    return idx


def index_realization(sizes, index: int) -> tuple[int, ...]:
    out = []
    for size in reversed(sizes):
        out.append(index % size)
        index //= size
    return tuple(reversed(out))


def tuple_getter(layout, schema):
    """h -> the values of `schema`'s variables in a history h laid out as `layout`."""
    pos = [layout.index(v) for v in schema]
    if len(pos) > 1:
        return operator.itemgetter(*pos)
    return (lambda h, i=pos[0]: (h[i],)) if pos else (lambda h: ())


def restrict_realization(schema: InfoSchema, values, sub: InfoSchema) -> tuple[int, ...]:
    """Project values of `schema` onto the subset schema `sub`."""
    pos = {v: i for i, v in enumerate(schema)}
    return tuple(values[pos[v]] for v in sub)


STATE = None  # names the system state in a sub-schema of a state-led schema


def schema_rows(instance: Instance, schema: InfoSchema, subs, state: bool = False) -> list:
    """At every row-major realization index of `schema`, the row-major index
    of each sub-schema's restriction: one int array per sub-schema.

    With `state` the schema is led by the system state, its slowest
    coordinate, which a sub-schema names as `STATE`. A sub-schema variable
    the schema lacks raises `SchemaMismatch`.
    """
    names = ((STATE,) if state else ()) + tuple(schema)
    sizes = ((instance.system.state_size,) if state else ()) + instance.schema_sizes(schema)
    flat = np.arange(realization_count(sizes))
    digit = {v: (flat // w % n, n) for v, n, w in zip(names, sizes, realization_strides(sizes))}
    rows = []
    for sub in subs:
        row = np.zeros_like(flat)
        for var in sub:
            if var not in digit:
                raise SchemaMismatch(f"variable {var} is not a coordinate of the schema")
            d, n = digit[var]
            row = row * n + d
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ControlStrategy:
    """Per (time, agent) lookup tables from full memory realizations to controls."""

    tables: dict  # (t, k) -> {realization tuple: action}

    def part(self, instance: Instance, t: int, k: int):
        """Agent k's checked stage-t part of `stage_rule`: (memory schema,
        table, no default, no domain). The table must exist and map to
        actions below agent k's control size; it may omit realizations."""
        table = self.tables.get((t, k))
        if table is None:
            raise DomainMismatch(f"strategy has no table for (t={t}, agent={k})")
        size = instance.system.control_sizes[k - 1]
        if table and not 0 <= min(table.values()) <= max(table.values()) < size:
            real, act = next((real, a) for real, a in table.items() if not 0 <= a < size)
            raise DomainMismatch(f"table (t={t}, agent={k}) maps {real} to invalid action {act}")
        return instance.info.memory(t, k), table, None, None

    def rule(self, instance: Instance, t: int, layout):
        """Stage t's rule, one table lookup per agent (`stage_rule`)."""
        parts = [self.part(instance, t, k) for k in range(1, instance.agent_count + 1)]
        return stage_rule(instance, t, layout, parts)


def stage_rule(instance: Instance, t: int, layout, parts):
    """Stage t's rule: a history laid out as `layout` -> its one option,
    (joint controls, joint control index). Per agent, `parts` gives a checked
    (key schema, table, default, domain): the history's key realization looks
    up the table's entry, else the default, and a missing entry raises
    `DomainMismatch`. Without a domain the entry is the control; with one it
    is a prescription, read at the row of the history's domain realization.
    """
    lookups = []
    for k, (schema, table, default, domain) in enumerate(parts, start=1):
        rows = None if domain is None else realization_strides(instance.schema_sizes(domain))
        domain = None if domain is None else tuple_getter(layout, domain)
        size = instance.system.control_sizes[k - 1]
        lookups.append((k, size, table, default, tuple_getter(layout, schema), domain, rows))

    def rule(h):
        controls, uj = [], 0
        for k, size, table, default, key, domain, rows in lookups:
            entry = table.get(key(h), default)
            if entry is None:
                raise DomainMismatch(
                    f"strategy table (t={t}, agent={k}) missing realization {key(h)}"
                )
            if domain is not None:  # the entry is a prescription
                entry = entry.table[sum(map(operator.mul, domain(h), rows)) if rows else 0]
            controls.append(entry)
            uj = uj * size + entry
        return ((tuple(controls), uj),)

    return rule


@dataclass(frozen=True)
class CostReport:
    expected_cost: float
    per_stage_costs: tuple[float, ...]
    method: str  # "exact" | "monte_carlo"
    stderr: float | None = None
    sample_count: int | None = None
    seed: int | None = None


def _check_distribution(name: str, vec: np.ndarray):
    if not np.all(vec >= 0):  # also rejects NaN; an infinite entry fails the sum
        raise DistributionNotNormalized(name, float(vec.sum()))
    total = float(vec.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise DistributionNotNormalized(name, total)


def _per_t_probs(raw, steps: int, size: int, name: str) -> np.ndarray:
    """Accept one vector (constant over time) or one vector per step, the
    empty list being no step; `validate_instance` checks the shape and each
    step's distribution."""
    arr = _numbers(raw, name)
    if arr.shape == (0,):
        return arr.reshape(0, size)
    return np.tile(arr, (steps, 1)) if arr.ndim == 1 else arr


def validate_instance(system: SystemSpec, network) -> Instance:
    """Validate all tables and distributions and attach the information schemas.

    `network` is either a NetworkSpec (validated, delays derived) or a
    DelayMatrix supplied directly.
    """
    if isinstance(network, netgraph.NetworkSpec):
        netgraph.validate_network(network)
        delays = netgraph.compute_delay_matrix(network)
        netspec = network
    elif isinstance(network, netgraph.DelayMatrix):
        delays = netgraph.validate_delay_matrix(network.rows)
        netspec = None
    else:
        raise ShapeMismatch("network must be a NetworkSpec or DelayMatrix")

    K = system.agent_count
    if delays.agent_count != K:
        raise AgentCountMismatch(
            f"network has {delays.agent_count} agents, system has {K}"
        )
    T = system.horizon
    if T < 0:
        raise ShapeMismatch("horizon must be >= 0")
    if len(system.observation_sizes) != K or len(system.noise_sizes) != K:
        raise AgentCountMismatch("per-agent size lists must all have length K")
    for name, sizes in (
        ("state_size", (system.state_size,)),
        ("control_sizes", system.control_sizes),
        ("observation_sizes", system.observation_sizes),
        ("disturbance size", (system.disturbance_size,)),
        ("noise sizes", system.noise_sizes),
    ):
        if any(n < 1 for n in sizes):
            raise ShapeMismatch(f"{name} must be >= 1, got {list(sizes)}")

    _check_distribution("initial_probs", system.initial_probs)
    if system.initial_probs.shape != (system.state_size,):
        raise ShapeMismatch("initial_probs length must equal state_size")
    shape, want = system.disturbance_probs.shape, (T, system.disturbance_size)
    if shape != want:
        raise ShapeMismatch(f"disturbance probs must have shape {want}, got {shape}")
    for t in range(T):
        _check_distribution(f"disturbance[t={t}]", system.disturbance_probs[t])
    for k in range(K):
        shape, want = system.noise_probs[k].shape, (T + 1, system.noise_sizes[k])
        if shape != want:
            raise ShapeMismatch(f"noise[{k + 1}] probs must have shape {want}, got {shape}")
        for t in range(T + 1):
            _check_distribution(f"noise[{k + 1}][t={t}]", system.noise_probs[k][t])

    NU = system.joint_control_count
    if system.transition.shape != (T, system.state_size, NU, system.disturbance_size):
        raise ShapeMismatch(
            f"transition shape {system.transition.shape} != "
            f"({T},{system.state_size},{NU},{system.disturbance_size})"
        )
    if np.any(system.transition < 0) or np.any(system.transition >= system.state_size):
        raise ShapeMismatch("transition entries out of state range")
    if system.cost.shape != (T + 1, system.state_size, NU):
        raise ShapeMismatch(
            f"cost shape {system.cost.shape} != ({T + 1},{system.state_size},{NU})"
        )
    if not np.all(np.isfinite(system.cost)):
        raise ShapeMismatch("cost entries must be finite")
    for k in range(K):
        h = system.observation[k]
        if h.shape != (T + 1, system.state_size, system.noise_sizes[k]):
            raise ShapeMismatch(f"observation[{k + 1}] shape {h.shape} is wrong")
        if np.any(h < 0) or np.any(h >= system.observation_sizes[k]):
            raise ShapeMismatch(f"observation[{k + 1}] entries out of range")

    info = InfoStructure(delays, T)
    return Instance(system=system, delays=delays, info=info, network=netspec)


# -- trajectory evaluation ----------------------------------------------------


def validate_strategy(instance: Instance, strategy: ControlStrategy):
    """The checks of the strategy's stage rules (`ControlStrategy.part`), and
    that every table exactly enumerates the memory schema domain."""
    for t in range(instance.horizon + 1):
        for k in range(1, instance.agent_count + 1):
            memory, table, _, _ = strategy.part(instance, t, k)
            sizes = instance.schema_sizes(memory)
            if len(table) != realization_count(sizes):
                raise DomainMismatch(
                    f"table (t={t}, agent={k}) has {len(table)} entries, "
                    f"expected {realization_count(sizes)}"
                )
            for real in table:
                if tuple(int(v) for v in real) != real or any(
                    not (0 <= v < s) for v, s in zip(real, sizes)
                ):
                    raise DomainMismatch(
                        f"table (t={t}, agent={k}) has out-of-range key {real}"
                    )
    return strategy


def joint_primitives(instance: Instance):
    """Yield (prob, x0, w_seq, v_seq) over the support of the primitive variables,
    v_seq[k][t] being agent k+1's noise at stage t; prob multiplies the laws
    left to right in the order x0, w_seq, v_seq."""
    sys = instance.system
    T, K = sys.horizon, sys.agent_count
    total = sys.state_size * sys.disturbance_size**T
    for k in range(K):
        total *= sys.noise_sizes[k] ** (T + 1)
    if total > SWEEP_CAP:
        raise CapExceeded(total, SWEEP_CAP, "joint primitive enumeration")
    laws = [sys.initial_probs, *sys.disturbance_probs, *itertools.chain(*sys.noise_probs)]
    supports = [[(value, float(q)) for value, q in enumerate(law) if q] for law in laws]
    for combo in itertools.product(*supports):
        p = math.prod(q for _, q in combo)
        if p:
            values = [value for value, _ in combo]
            v_seq = tuple(tuple(values[i : i + T + 1]) for i in range(T + 1, len(values), T + 1))
            yield p, values[0], tuple(values[1 : T + 1]), v_seq


# -- forward propagation over reachable histories -------------------------------


def _stage_variables(t: int, agent_count: int, kind: str) -> InfoSchema:
    return tuple(VariableId(t, k, kind) for k in range(1, agent_count + 1))


def _check_reach(count: int):
    if count > SWEEP_CAP:
        raise CapExceeded(count, SWEEP_CAP, "reachable (state, history) pairs")


def _observation_law(sys: SystemSpec, t: int, x: int) -> dict:
    """Joint stage-t observation of all agents in state x -> probability."""
    law: dict = {}
    for v in itertools.product(*[range(s) for s in sys.noise_sizes]):
        p = 1.0
        for k, vk in enumerate(v):
            p *= float(sys.noise_probs[k][t, vk])
        if p == 0.0:
            continue
        y = tuple(int(sys.observation[k][t, x, vk]) for k, vk in enumerate(v))
        law[y] = law.get(y, 0.0) + p
    return law


def _successor_law(sys: SystemSpec, t: int, x: int, uj: int) -> dict:
    """Next state from state x under joint control uj at stage t -> probability."""
    law: dict = {}
    for w in range(sys.disturbance_size):
        p = float(sys.disturbance_probs[t, w])
        if p == 0.0:
            continue
        nxt = int(sys.transition[t, x, uj, w])
        law[nxt] = law.get(nxt, 0.0) + p
    return law


def _forward_pass(instance: Instance, keep, decide):
    """Propagate the joint law of (X_t, (y, u) history) over its reachable support.

    Pairs carry the id of their history, interned per stage in first-seen
    order. At stage t every (x, h) branches over the positive-probability joint
    observations, which append Y(t, 1..K) to h; `decide(t, layout)` returns a
    function, run once per distinct h, listing its options as (joint controls,
    joint control index) pairs. After acting, the history keeps only the
    variables in `keep[t]`, and for t < T the state branches over the
    positive-probability disturbances. Equal keys merge at every step, and
    more than SWEEP_CAP reachable pairs raises CapExceeded as soon as a stage
    passes it. Laws are built once, in `instance._cache`.

    Yields (t, layout, histories, options, pairs, children) per stage: `layout`
    names the variables of the distinct histories, `histories` and `options`
    are indexed by history id, `pairs` lists (x, history id, mass), and
    `children` lists each history's (parent id, joint observation) in id
    order. A parent id names a kept history of the previous stage; when
    nothing is cut, it indexes that stage's (history, option) pairs in order.
    """
    sys = instance.system
    T, K = sys.horizon, sys.agent_count
    states = {(x, 0): float(p) for x, p in enumerate(sys.initial_probs) if p > 0.0}
    kept, kept_histories = (), [()]
    for t in range(T + 1):
        layout = kept + _stage_variables(t, K, KIND_OBSERVATION)
        observation_laws = instance._cache.setdefault(("observation laws", t), {})
        children, histories, observed = {}, [], []
        for (x, hid), mass in states.items():
            law = observation_laws.get(x)
            if law is None:
                law = observation_laws[x] = _observation_law(sys, t, x)
            for y, p in law.items():  # each (x, h + y) is new: no merge here
                cid = children.setdefault((hid, y), len(histories))
                if cid == len(histories):
                    histories.append(kept_histories[hid] + y)
                observed.append((x, cid, mass * p))
            _check_reach(len(observed))
        rule = decide(t, layout)
        options, count = [], 0
        for x, cid, mass in observed:
            if cid == len(options):  # ids first show up in increasing order
                options.append(rule(histories[cid]))
            count += len(options[cid])
            _check_reach(count)
        yield t, layout, histories, options, observed, children
        if t == T:
            return
        full = layout + _stage_variables(t, K, KIND_CONTROL)
        kept = tuple(var for var in full if var in keep[t])
        acted = [h + controls for h, opts in zip(histories, options) for controls, _ in opts]
        if kept == full:  # nothing is cut: each acted history is kept as it is
            ids, kept_histories = iter(range(len(acted))), acted
        else:
            cut, interned = tuple_getter(full, kept), {}
            ids = iter([interned.setdefault(cut(h), len(interned)) for h in acted])
            kept_histories = list(interned)
        moves = [[(uj, next(ids)) for _, uj in opts] for opts in options]
        successor_laws = instance._cache.setdefault(("successor laws", t), {})
        states = {}
        for x, cid, mass in observed:
            for uj, kid in moves[cid]:
                law = successor_laws.get((x, uj))
                if law is None:
                    law = successor_laws[(x, uj)] = _successor_law(sys, t, x, uj)
                for nxt, p in law.items():
                    key = (nxt, kid)
                    states[key] = states.get(key, 0.0) + mass * p
                _check_reach(len(states))


def exact_strategy_cost(instance: Instance, strategy) -> CostReport:
    """Expected total cost by one forward pass over the reachable histories.

    `strategy` is a `ControlStrategy` or a `prescription.PrescriptionStrategy`:
    either supplies the per-stage `rule(instance, t, layout)` the pass acts by,
    so only the reachable histories are ever looked up.
    """
    info, T, K = instance.info, instance.horizon, instance.agent_count
    keep = [set() for _ in range(T + 1)]
    for t in range(T - 1, -1, -1):
        keep[t] = keep[t + 1].union(*[info.memory(t + 1, k) for k in range(1, K + 1)])
    cost, decide = instance.system.cost.tolist(), functools.partial(strategy.rule, instance)
    per_stage = tuple(
        math.fsum([mass * cost[t][x][uj] for x, cid, mass in pairs for _, uj in options[cid]])
        for t, _, _, options, pairs, _ in _forward_pass(instance, keep, decide)
    )
    return CostReport(math.fsum(per_stage), per_stage, "exact")


def monte_carlo_cost(instance: Instance, strategy, samples: int, seed: int = 0) -> CostReport:
    """Seeded sample mean of the total cost over independent rollouts.

    `strategy` is either strategy kind, as for `exact_strategy_cost`.
    """
    samples, seed = as_integer(samples, "samples"), as_integer(seed, "seed")
    if samples < 1:
        raise ShapeMismatch("samples must be >= 1")
    if seed < 0:
        raise ShapeMismatch(f"seed must be >= 0, got {seed}")
    sys = instance.system
    T, K = sys.horizon, sys.agent_count
    rng = np.random.default_rng(seed)
    x0s = rng.choice(sys.state_size, samples, p=sys.initial_probs)
    ws = [rng.choice(sys.disturbance_size, samples, p=p) for p in sys.disturbance_probs]
    noises = zip(sys.noise_sizes, sys.noise_probs)
    vs = [[rng.choice(n, samples, p=p) for p in probs] for n, probs in noises]
    rules, layout = [], ()
    for t in range(T + 1):
        layout += _stage_variables(t, K, KIND_OBSERVATION)
        rules.append(strategy.rule(instance, t, layout))
        layout += _stage_variables(t, K, KIND_CONTROL)
    totals = np.empty(samples)
    stage_sums = np.zeros(T + 1)
    for n in range(samples):
        x, h, costs = int(x0s[n]), (), []
        for t in range(T + 1):
            h += tuple(int(sys.observation[k][t, x, vs[k][t][n]]) for k in range(K))
            ((controls, uj),) = rules[t](h)
            h += controls
            costs.append(float(sys.cost[t, x, uj]))
            if t < T:
                x = int(sys.transition[t, x, uj, ws[t][n]])
        totals[n] = sum(costs)
        stage_sums += costs
    stderr = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return CostReport(
        float(totals.mean()), tuple(stage_sums / samples), "monte_carlo", stderr, samples, seed
    )


# -- feasible realizations ----------------------------------------------------


def feasible_schema_realizations(instance: Instance, schema: InfoSchema):
    """Sorted realizations of `schema` reachable under free controls.

    Controls are treated as free exogenous choices, so the result is the union
    of supports over all strategies. The forward pass branches over every
    joint control and carries only the schema's variables: with free controls,
    what can follow a stage depends on the state alone. It stops at the first
    stage whose layout holds the whole schema, since every realization there
    carries on unchanged to each later stage.
    """
    key = ("feas", schema)
    if key in instance._cache:
        return instance._cache[key]
    T = instance.horizon
    every = [(u, uj) for uj, u in enumerate(enumerate_realizations(instance.system.control_sizes))]

    def decide(t, layout):
        # stage-T controls enter no history, so one of them reaches every state
        options = every if t < T else every[:1]
        return lambda h: options

    found = ()
    for t, layout, histories, *_ in _forward_pass(instance, [set(schema)] * (T + 1), decide):
        if set(schema) <= set(layout):
            found = map(tuple_getter(layout, schema), histories)
            break
    instance._cache[key] = result = tuple(sorted(set(found)))
    return result


# -- instance JSON ------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    sys = instance.system
    net: dict = {"agents": instance.agent_count}
    if instance.network is not None:
        net["links"] = [
            {"from": f, "to": t, "delay": d} for f, t, d in instance.network.links
        ]
    else:
        net["delay_matrix"] = [list(r) for r in instance.delays.rows]
    return {
        "network": net,
        "system": {
            "horizon": sys.horizon,
            "state_size": sys.state_size,
            "control_sizes": list(sys.control_sizes),
            "observation_sizes": list(sys.observation_sizes),
            "disturbance": {
                "size": sys.disturbance_size,
                "probs_per_t": sys.disturbance_probs.tolist(),
            },
            "noises": [
                {"size": sys.noise_sizes[k], "probs_per_t": sys.noise_probs[k].tolist()}
                for k in range(sys.agent_count)
            ],
            "initial_probs": sys.initial_probs.tolist(),
            "transition": sys.transition.tolist(),
            "observation": [h.tolist() for h in sys.observation],
            "cost": sys.cost.tolist(),
        },
    }


def _numbers(raw, name: str) -> np.ndarray:
    """A numeric field or table of an instance document as a float array. A
    string, a boolean or any other non-number in it raises `TypeError`, which
    `instance_from_dict` reports as a malformed document."""
    for value in np.asarray(raw, dtype=object).flat:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be numeric, got {value!r}")
    return np.asarray(raw, dtype=float)


def _as_int(value, name: str) -> int:
    """An integer field of an instance document; fractional values are rejected.
    A non-number raises `TypeError`, as in `_numbers`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be numeric, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ShapeMismatch(f"{name} must be an integer, got {value!r}")
    return int(value)


def _int_array(raw, name: str) -> np.ndarray:
    """An integer table of an instance document; fractional entries are rejected."""
    arr = _numbers(raw, name)
    if not np.all(np.isfinite(arr)) or np.any(arr != np.trunc(arr)):
        raise ShapeMismatch(f"{name} entries must be integers")
    return arr.astype(int)


def instance_from_dict(data: dict) -> Instance:
    try:
        net = data["network"]
        raw = data["system"]
        K = len(raw["control_sizes"])
        T = _as_int(raw["horizon"], "horizon")
        if T < 0:
            raise ShapeMismatch("horizon must be >= 0")
        cost = _numbers(raw["cost"], "cost")
        if cost.shape[:1] != (T + 1,):  # checked before any law is tiled over the horizon
            raise ShapeMismatch(f"cost has shape {cost.shape}, horizon {T} needs {T + 1} stages")
        state_size = _as_int(raw["state_size"], "state_size")
        control_sizes = tuple(_as_int(v, "control_sizes") for v in raw["control_sizes"])
        observation_sizes = tuple(
            _as_int(v, "observation_sizes") for v in raw["observation_sizes"]
        )
        dist = raw.get("disturbance", {"size": 1, "probs_per_t": [1.0]})
        w_size = _as_int(dist["size"], "disturbance size")
        noises = raw["noises"]
        noise_sizes = tuple(_as_int(n["size"], "noise size") for n in noises)
        nu = realization_count(control_sizes)
        transition = raw.get("transition")
        if transition is None and T != 0:
            raise ShapeMismatch("transition table required when horizon > 0")
        if transition is None or len(transition) == 0:  # no step at horizon 0
            transition = np.zeros((0, state_size, nu, w_size), dtype=int)
        system = SystemSpec(
            horizon=T,
            state_size=state_size,
            control_sizes=control_sizes,
            observation_sizes=observation_sizes,
            disturbance_size=w_size,
            disturbance_probs=_per_t_probs(dist["probs_per_t"], T, w_size, "disturbance"),
            noise_sizes=noise_sizes,
            noise_probs=tuple(
                _per_t_probs(noises[k]["probs_per_t"], T + 1, noise_sizes[k], f"noise[{k + 1}]")
                for k in range(K)
            ),
            initial_probs=_numbers(raw["initial_probs"], "initial_probs"),
            transition=_int_array(transition, "transition"),
            observation=tuple(
                _int_array(raw["observation"][k], f"observation[{k + 1}]") for k in range(K)
            ),
            cost=cost,
        )
        if "links" in net:
            network = netgraph.NetworkSpec(
                agent_count=_as_int(net["agents"], "agents"),
                links=tuple(
                    tuple(_as_int(l[key], f"link {key}") for key in ("from", "to", "delay"))
                    for l in net["links"]
                ),
            )
        elif "delay_matrix" in net:
            network = netgraph.DelayMatrix(
                tuple(tuple(_as_int(v, "delay_matrix") for v in r) for r in net["delay_matrix"])
            )
            if "agents" in net and _as_int(net["agents"], "agents") != network.agent_count:
                raise AgentCountMismatch(
                    f"network.agents is {net['agents']} but the delay matrix has "
                    f"{network.agent_count} rows"
                )
        else:
            raise ShapeMismatch("network must carry either links or delay_matrix")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed instance document: {exc}") from exc
    return validate_instance(system, network)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def instance_digest(instance: Instance) -> str:
    canon = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- agent relabeling ---------------------------------------------------------


def permute_instance(instance: Instance, perm: tuple[int, ...]) -> Instance:
    """Relabel agents; perm[new_index-1] is the old index taking that position."""
    sys = instance.system
    K = sys.agent_count
    if sorted(perm) != list(range(1, K + 1)):
        raise ShapeMismatch(f"{perm} is not a permutation of 1..{K}")
    old_of_new = [p - 1 for p in perm]
    new_of_old = [0] * K
    for new, old in enumerate(old_of_new):
        new_of_old[old] = new

    control_sizes = tuple(sys.control_sizes[o] for o in old_of_new)
    # the old joint index at each new one: old control axes in the new order
    joint_map = np.arange(sys.joint_control_count).reshape(sys.control_sizes)
    joint_map = joint_map.transpose(old_of_new).ravel()

    transition = sys.transition[:, :, joint_map, :] if sys.horizon else sys.transition
    cost = sys.cost[:, :, joint_map]
    system = SystemSpec(
        horizon=sys.horizon,
        state_size=sys.state_size,
        control_sizes=control_sizes,
        observation_sizes=tuple(sys.observation_sizes[o] for o in old_of_new),
        disturbance_size=sys.disturbance_size,
        disturbance_probs=sys.disturbance_probs,
        noise_sizes=tuple(sys.noise_sizes[o] for o in old_of_new),
        noise_probs=tuple(sys.noise_probs[o] for o in old_of_new),
        initial_probs=sys.initial_probs,
        transition=transition,
        observation=tuple(sys.observation[o] for o in old_of_new),
        cost=cost,
    )
    rows = tuple(
        tuple(instance.delays.rows[old_of_new[j]][old_of_new[k]] for k in range(K))
        for j in range(K)
    )
    if instance.network is not None:
        links = tuple(
            sorted(
                (new_of_old[f - 1] + 1, new_of_old[t - 1] + 1, d)
                for f, t, d in instance.network.links
            )
        )
        return validate_instance(
            system, netgraph.NetworkSpec(agent_count=K, links=links)
        )
    return validate_instance(system, netgraph.DelayMatrix(rows))
