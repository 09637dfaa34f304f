"""Optimal-strategy solvers and cross-evaluation.

Three routes to the optimum are implemented and compared: exhaustive control
strategy enumeration (the oracle), the coordinator recursion over the
lowest-information agent's beliefs, and the per-agent decomposition in which
an agent conditions prescriptions for higher-indexed targets on their own,
coarser information. Every solver re-evaluates its emitted strategy exactly,
so reported optima are directly comparable.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .belief import (
    CandidateScorer,
    accessible_support,
    belief_tuple_key,
    initial_information_state,
    initial_state_at,
    step_kernel,
)
from .errors import CapExceeded, ShapeMismatch, WomError
from .infostruct import KIND_CONTROL, KIND_OBSERVATION, VariableId
from .prescription import (
    Prescription,
    PrescriptionStrategy,
    count_strategies,
    enumerate_prescription_tables,
    joint_control_strategy,
    prescription_space_size,
)
from .sysmodel import (
    ControlStrategy,
    CostReport,
    Instance,
    enumerate_realizations,
    exact_strategy_cost,
    feasible_schema_realizations,
    joint_primitives,
    realization_count,
    realization_strides,
    restrict_realization,
)

COST_TOL = 1e-9
_CHUNK = 1 << 18
_INNER = 1 << 10

log = logging.getLogger("womctl")


@dataclass(frozen=True)
class Caps:
    brute: int = 2**24
    tables: int = 2**20
    branches: int = 2**20


def resolve_caps(cap: int | None = None) -> Caps:
    """The caps of one solve: `cap` for all three, else `WOMCTL_CAP`, else the defaults."""
    source = "cap"
    if cap is None:
        env = os.environ.get("WOMCTL_CAP")
        if env is not None:
            source = "WOMCTL_CAP"
            try:
                cap = int(env)
            except ValueError:
                raise WomError(f"WOMCTL_CAP must be an integer, got {env!r}") from None
    if cap is None:
        return Caps()
    if cap < 1:
        raise WomError(f"{source} must be at least 1, got {cap}")
    return Caps(brute=cap, tables=cap, branches=cap)


@dataclass
class SolveResult:
    """One solver's optimum and the strategy that attains it.

    `control` holds the dense control strategy, or for a prescription
    strategy's result a function that builds it; `control_strategy` builds
    it on first read. So do a prescription DP's `belief_tree` and
    `belief_policy` from `tree` and `policy`; other solvers have none.
    """

    method: str
    agent: int | None
    optimal_cost: float
    control: ControlStrategy | Callable[[], ControlStrategy] = field(repr=False)
    prescription_strategy: PrescriptionStrategy | None
    search_size: int
    wall_time: float
    dp_value: float | None = None
    extras: dict = field(default_factory=dict)
    tree: list | Callable[[], list] = field(default=list, repr=False)
    policy: list | Callable[[], list] = field(default=list, repr=False)

    def _built(self, name: str):
        if callable(getattr(self, name)):
            setattr(self, name, getattr(self, name)())
        return getattr(self, name)

    control_strategy = property(lambda self: self._built("control"))
    belief_tree = property(lambda self: self._built("tree"))
    belief_policy = property(lambda self: self._built("policy"))


# -- brute force ---------------------------------------------------------------


def solve_brute_force(instance: Instance, cap: int | None = None) -> SolveResult:
    """Enumerate every control strategy over feasible memory realizations.

    Strategies are encoded mixed-radix with stage, then agent, then realization
    as increasingly fast digits; the reported minimizer is the one with the
    smallest encoding. Memory realizations never reachable under any strategy
    keep a fixed default action.

    Encodings are scored a chunk at a time. A chunk fixes the leading digits;
    its trailing digits, whose radix product is at most `_CHUNK`, span a cost
    tensor with one axis per digit of radix above 1. Its last axes, of at
    most `_INNER` points together, form a contiguous inner block. Each
    primitive sequence is walked as a decision tree over stages and agents:
    the memory realization on a path names a digit that the chunk either
    fixes or that branches along its axis. While a path has read only outer
    digits, each stage adds its weighted cost to the view of the tensor the
    path selects, which spans whole inner blocks. Digits are read in order,
    so below the first inner read every read is inner: there each stage's
    leaves assign their costs into a buffer shaped like the inner block,
    which they cover exactly, and on leaving that subtree the buffers are
    added to the path's view in stage order. Every strategy thus gets one
    add per primitive and stage, primitive by primitive, stage by stage.

    A chunk's tensor and buffers start with size 1 on every axis, or whole
    when the chunk is one inner block. The running sum so far does not
    depend on a digit no primitive has read, so the first read of an axis
    repeats the tensor, in place in one buffer per solve, and for an inner
    axis every stage buffer, along it. The chunk's minimum is taken on the
    grown tensor; an axis never read keeps index 0, the smallest encoding
    among equal entries.
    """
    caps = resolve_caps(cap)
    start = time.perf_counter()
    sys = instance.system
    T, K = instance.horizon, sys.agent_count

    cells = []  # (t, k, realizations, radix)
    total = 1
    for t in range(T + 1):
        for k in range(1, K + 1):
            feas = feasible_schema_realizations(instance, instance.info.memory(t, k))
            cells.append((t, k, feas, sys.control_sizes[k - 1]))
            total *= sys.control_sizes[k - 1] ** len(feas)
            if total > caps.brute:  # later cells only multiply the count
                last = (t, k) == (T, K)
                raise CapExceeded(total, caps.brute, "brute-force enumeration", exact=last)

    control_stride = realization_strides(sys.control_sizes)
    radix_of = []  # per digit
    plan = [[] for _ in range(T + 1)]  # per stage and agent, how to find its digit
    for t, k, feas, radix in cells:
        digit_of = {real: len(radix_of) + i for i, real in enumerate(feas)}
        plan[t].append(
            (instance.info.memory(t, k), digit_of, control_stride[k - 1],
             VariableId(t, k, KIND_CONTROL))
        )
        radix_of.extend([radix] * len(feas))

    split, chunk_size = len(radix_of), 1  # digits from `split` on are trailing
    while split and chunk_size * radix_of[split - 1] <= _CHUNK:
        split -= 1
        chunk_size *= radix_of[split]
    axis_digits = [g for g in range(split, len(radix_of)) if radix_of[g] > 1]
    axis_of = [-1] * len(radix_of)
    for axis, g in enumerate(axis_digits):
        axis_of[g] = axis
    shape = tuple(radix_of[g] for g in axis_digits)
    outer, inner_size = len(shape), 1  # axes from `outer` on form the inner block
    while outer and inner_size * shape[outer - 1] <= _INNER:
        outer -= 1
        inner_size *= shape[outer]
    first_shape = shape if outer == 0 else (1,) * len(shape)

    observe = [[VariableId(t, k, KIND_OBSERVATION) for k in range(1, K + 1)]
               for t in range(T + 1)]
    obs = [h.tolist() for h in sys.observation]
    transition = sys.transition.tolist()
    cost = sys.cost.tolist()
    index = [slice(None)] * len(shape)
    digit = [0] * len(radix_of)
    vals = {}
    store = np.empty(chunk_size)  # a chunk's tensor, grown in place

    def grow(axis):
        # repeats `costs` along `axis` inside `store`, so that the old tensor
        # needs no room of its own: its P blocks of Q points, one per index
        # before the axis, move from the last down, each batch of blocks to
        # where no block still to move lies
        nonlocal costs
        r, P = shape[axis], math.prod(costs.shape[:axis])
        Q, hi = costs.size // P, P
        while hi > 1:
            lo = -(-hi // r)
            batch = store[lo * Q:hi * Q].reshape(hi - lo, 1, Q)
            store[lo * r * Q:hi * r * Q].reshape(hi - lo, r, Q)[...] = batch
            hi = lo
        store[Q:r * Q].reshape(r - 1, Q)[...] = store[:Q]  # block 0 stays put
        costs = store[:r * costs.size].reshape(costs.shape[:axis] + (r,) + costs.shape[axis + 1:])

    def walk(t, k, x, uj, inner):
        # adds the primitive `p, w_seq, v_seq` into `costs` through `bufs`
        nonlocal bufs
        if k == K:
            if inner:
                bufs[t][tuple(index[outer:])] = p * cost[t][x][uj]
            else:
                costs[tuple(index)] += p * cost[t][x][uj]
            if t < T:
                x = transition[t][x][uj][w_seq[t]]
                for j, var in enumerate(observe[t + 1]):
                    vals[var] = obs[j][t + 1][x][v_seq[j][t + 1]]
                walk(t + 1, 0, x, 0, inner)
            return
        schema, digit_of, stride, control = plan[t][k]
        g = digit_of[tuple(map(vals.__getitem__, schema))]
        axis = axis_of[g]
        if axis < 0:
            vals[control] = digit[g]
            walk(t, k + 1, x, uj + digit[g] * stride, inner)
            return
        if costs.shape[axis] == 1:  # the chunk's first read of this axis
            grow(axis)
            if axis >= outer:
                bufs = [buf.repeat(shape[axis], axis - outer) for buf in bufs]
        first = not inner and axis >= outer  # the path's first inner read
        for u in range(radix_of[g]):
            index[axis] = u
            vals[control] = u
            walk(t, k + 1, x, uj + u * stride, inner or first)
        index[axis] = slice(None)
        if first:  # leaving its subtree
            view = costs[tuple(index)]
            for buf in bufs[t:]:
                view += buf

    prims = list(joint_primitives(instance))
    best_cost, best_lead, best_arg, largest = math.inf, None, 0, 0
    for lead in itertools.product(*map(range, radix_of[:split])):
        digit[:split] = lead
        costs = store[:math.prod(first_shape)].reshape(first_shape)
        costs[...] = 0.0
        bufs = [np.empty(first_shape[outer:]) for _ in range(T + 1)]
        for p, x0, w_seq, v_seq in prims:
            for j, var in enumerate(observe[0]):
                vals[var] = obs[j][0][x0][v_seq[j][0]]
            walk(0, 0, x0, 0, False)
        arg = int(costs.argmin())
        if costs.flat[arg] < best_cost:
            best_cost, best_lead = float(costs.flat[arg]), lead
            best_arg = np.ravel_multi_index(np.unravel_index(arg, costs.shape), shape)
        largest = max(largest, costs.size)
    log.debug("brute force: %d strategies, %d chunks, %d primitives, largest tensor of %d "
              "points, %.3f s", total, math.prod(radix_of[:split]), len(prims), largest,
              time.perf_counter() - start)

    digit[:split] = best_lead
    for g, u in zip(axis_digits, np.unravel_index(best_arg, shape)):
        digit[g] = int(u)
    tables = {}
    for t, k, _, _ in cells:
        schema, digit_of, _, _ = plan[t][k - 1]
        table = {real: 0 for real in enumerate_realizations(instance.schema_sizes(schema))}
        for real, g in digit_of.items():
            table[real] = digit[g]
        tables[(t, k)] = table
    strategy = ControlStrategy(tables=tables)
    report = exact_strategy_cost(instance, strategy)
    return SolveResult(
        method="brute",
        agent=None,
        optimal_cost=report.expected_cost,
        control=strategy,
        prescription_strategy=None,
        search_size=total,
        wall_time=time.perf_counter() - start,
        extras={"vectorized_cost": best_cost},
    )


# -- prescription dynamic programming ------------------------------------------


class _Pass(NamedTuple):
    """One agent pass's record; a chain is a dict from agent to `_Pass`. It
    keeps the decided `_Stage`s, the roots (mass, node, accessible map,
    beliefs) per t=0 accessible realization, the value, the candidates
    examined, the belief steps computed and served by an identical step of
    the same node, the distinct kernel entries, (support index, joint
    control) codes, read, the nodes per stage and the seconds."""

    stages: list
    roots: list
    value: float
    examined: int
    steps: int
    shared: int
    entries: int
    widths: tuple
    seconds: float


def _head_spaces(instance: Instance, j: int, caps: Caps):
    """Per stage, the candidate tables for each of agent j's own components
    1..j: per target, an int array with a row per table.

    Every stage's table counts are checked against the cap before any table
    is built.
    """
    shapes = {}
    for t in range(instance.horizon + 1):
        per_target, joint = [], 1
        for m in range(1, j + 1):
            sizes = instance.schema_sizes(instance.info.prescription_domain(t, j, m))
            csize = instance.system.control_sizes[m - 1]
            count = prescription_space_size(sizes, csize)
            if count > caps.tables:
                raise CapExceeded(count, caps.tables, "prescription enumeration")
            joint *= count
            per_target.append((sizes, csize))
        if joint > caps.tables:
            raise CapExceeded(joint, caps.tables, f"stage-{t} joint prescription search")
        shapes[t] = per_target
    return {
        t: [enumerate_prescription_tables(sizes, csize, caps.tables) for sizes, csize in per_target]
        for t, per_target in shapes.items()
    }


def _tail_tables(instance: Instance, chain: dict, j: int, t: int, keys) -> list:
    """Inherited tables for each target m above j at the belief tuples `keys`:
    per target, agent m's stage-t decisions, a row per key."""
    above = range(j + 1, instance.agent_count + 1)
    nodes = [[] for _ in above]
    for key in keys:
        for m, at in zip(above, nodes):
            n = chain[m].stages[t].index.get(key[m - j :])
            if n is None:
                raise WomError(
                    f"missing inherited decision for agent {m} at t={t}; "
                    "the belief tuple was never reached in that agent's pass"
                )
            at.append(n)
    return [chain[m].stages[t].tables[m - 1][at] for m, at in zip(above, nodes)]


def _roots(instance: Instance, j: int):
    """Agent j's t=0 nodes: (mass, accessible map, belief tuple of agents j..K)."""
    acc0 = instance.info.accessible(0, j)
    for a_real, pa in accessible_support(instance, j).items():
        pis = tuple(
            initial_state_at(
                instance, i, restrict_realization(acc0, a_real, instance.info.accessible(0, i))
            )
            for i in range(j, instance.agent_count + 1)
        )
        yield pa, dict(zip(acc0, a_real)), pis


class _Stage:
    """One stage of an agent pass, as the pass leaves it.

    Its nodes are belief tuples of agents j..K, in order of first discovery:
    `keys[n]`, and `index` from key to node. Once decided, `tables[m - 1][n]`
    is node n's table for target m, an int array per target 1..K. Below the
    horizon the stage keeps its step batches, one per agent j..K, and how its
    winners branch: `win[n]` is the combination of step rows node n's winner
    uses, and per (combination, branch) `kid` holds the next-stage node and
    `groups` each agent's group in its batch, both padded with -1.
    """

    def __init__(self):
        self.keys, self.tables, self.batches = [], [], []
        self.index: dict = {}  # key -> node
        self.win = self.kid = self.groups = None


def _check_branches(count: int, caps: Caps):
    """Raise unless a pass's `count` nodes so far are within the branch cap."""
    if count > caps.branches:
        raise CapExceeded(caps.branches + 1, caps.branches, "reachable belief branches",
                          exact=False)


def _map_columns(instance: Instance, j: int, t: int) -> dict:
    """Each variable's column in agent j's stage-t accessible maps: those of
    `accessible(0, j)`, then of each `new_info(s, j)`, s = 1..t; the last one wins."""
    news = [instance.info.new_info(s, j) for s in range(1, t + 1)]
    return {var: c for c, var in enumerate(sum(news, instance.info.accessible(0, j)))}


def _unique_rows(a, **kwargs):
    """`np.unique` of the rows of a 2-D int array, compared as raw bytes."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    found, *extras = np.unique(rows, **kwargs)
    return (found.view(a.dtype).reshape(-1, a.shape[1]), *extras)


def _distinct_rows(probs, support, controls):
    """Per (node, candidate), the index of its distinct control vector on the
    node's positive-mass `support`, where `controls` holds every candidate's
    joint-control index at each pair; and those rows as `StepKernel.step`
    reads them."""
    rows, s = support
    nodes, candidates = len(probs), controls.shape[1]
    first = np.searchsorted(rows, np.arange(nodes))
    rank = np.arange(len(rows)) - first[rows]
    grid = np.full((nodes, candidates, int(rank.max()) + 1), -1, dtype=np.int64)
    grid[rows, :, rank] = controls
    node_of = np.repeat(np.arange(nodes), candidates)[:, None]
    keyed = np.hstack([node_of, grid.reshape(len(node_of), -1)])
    distinct, row_of = _unique_rows(keyed, return_inverse=True)
    node = distinct[:, 0]
    step_controls = np.full((len(distinct), probs.shape[1]), -1, dtype=np.int64)
    r, k = np.nonzero(distinct[:, 1:] >= 0)
    step_controls[r, s[first[node[r]] + k]] = distinct[r, 1 + k]
    return row_of.reshape(nodes, candidates), probs[node], step_controls


def _expand(instance, j, t, stage, amaps, row_of, caps, before):
    """Stage t + 1 of agent j's pass from the step batches of `stage`, whose
    nodes were first reached with the accessible maps `amaps`, a row per node.

    `row_of[a]` gives each (node, candidate)'s step row in agent j + a's
    batch. Branches are followed per distinct combination of rows, in order
    of the first (node, candidate) with it, and then in new-information
    order; new nodes are numbered by their first branch, the depth-first
    first-visit order, and the first failing branch names the failure. Fills
    `stage.kid` and `stage.groups`. Returns the new stage, its nodes' maps,
    per agent their beliefs, and each (node, candidate)'s combination.
    """
    nodes, candidates = row_of[0].shape
    combos, first, combo_of = _unique_rows(
        np.stack([rows.ravel() for rows in row_of], axis=1), return_index=True, return_inverse=True
    )
    batches, columns = stage.batches, _map_columns(instance, j, t + 1)
    order = np.argsort(first, kind="stable")
    width, heads = np.diff(batches[0].start), combos[order, 0]  # heads: agent j's step rows
    lo, count = np.asarray(batches[0].start)[heads], width[heads]
    combo = np.repeat(order, count)  # per branch, its combination and place in it
    b = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    groups = [np.repeat(lo, count) + b]
    child = np.hstack([amaps[first[combo] // candidates], batches[0].z[groups[0]]])
    failed, failure = len(combo), None
    for a, batch in enumerate(batches[1:], start=1):
        new_info = instance.info.new_info(t + 1, j + a)
        z, shape = child[:, [columns[var] for var in new_info]], (len(batch.start) - 1,)
        shape += instance.schema_sizes(new_info)
        rows = np.repeat(np.arange(shape[0]), np.diff(batch.start))
        known = np.ravel_multi_index((rows, *batch.z.T), shape)  # sorted (row, z) codes
        wanted = np.ravel_multi_index((combos[combo, a], *z.T), shape)
        groups.append(np.minimum(np.searchsorted(known, wanted), len(known) - 1))
        miss = np.flatnonzero(known[groups[a]] != wanted)[:1].tolist()
        if miss and miss[0] < failed:
            failed, z_a = miss[0], tuple(z[miss[0]].tolist())
            failure = WomError(
                f"agent {j + a} new information {z_a} impossible on a positive branch"
            )
    groups = np.stack(groups, axis=1)
    keys = list(zip(*[  # per branch, its child's key
        map(batch.keys.__getitem__, g) for batch, g in zip(batches, groups.T.tolist())
    ]))
    seen = dict(zip(keys[:failed][::-1], range(failed - 1, -1, -1)))  # key -> its first branch
    _check_branches(before + len(seen), caps)
    if failure is not None:
        raise failure
    new, made = _Stage(), sorted(seen.values())
    new.keys = [keys[i] for i in made]
    new.index = dict(zip(new.keys, range(len(made))))
    stage.kid = np.full((len(combos), int(width.max())), -1, dtype=np.int64)
    stage.groups = np.full(stage.kid.shape + (len(batches),), -1, dtype=np.int64)
    stage.kid[combo, b] = np.fromiter(map(new.index.__getitem__, keys), np.int64, len(keys))
    stage.groups[combo, b] = groups
    probs = [batch.probs[g] for batch, g in zip(batches, groups[made].T)]
    return new, child[made], probs, combo_of.reshape(nodes, candidates)


def _solve_agent(instance: Instance, j: int, chain: dict, caps: Caps) -> _Pass:
    """Backward induction over agent j's reachable accessible-history tree,
    one stage at a time.

    Components for targets above j are fixed functions of the targets' belief
    tuples, inherited from their own passes; components up to j are chosen per
    reachable belief tuple. A forward sweep registers each stage's nodes, and
    a backward sweep from stage T then values and decides them.

    Each stage scores every node's joint head candidates in one
    `CandidateScorer` call. Below the horizon, every candidate steps the
    belief of every agent j..K through one call per agent of the instance's
    `step_kernel` for that (agent, stage), with the controls the scorer reads
    off that agent's support; candidates of a node that act alike on an
    agent's positive-mass support share its step. Nodes are keyed by the keys
    the steps made.
    Every candidate's branches are followed, so that lower agents can inherit
    decisions at any tuple their own candidate profiles reach.

    A node's value adds to a candidate's stage cost the probability times the
    value of each branch in new-information order, and the first minimizer in
    `itertools.product` order wins: the values and decisions of a depth-first
    recursion. The pass returns its record, a `_Pass`.

    A failure other than a cap keeps its class, and its message is prefixed
    with the agent and the stage it occurred at.
    """
    started = time.perf_counter()
    T, K = instance.horizon, instance.agent_count
    examined = computed = shared = entries = t = 0
    stages, work = [], []  # per stage, its nodes and what its backward step reads
    try:
        spaces = _head_spaces(instance, j, caps)
        stage, roots, amaps, probs = _Stage(), [], [], []  # per node, its map and beliefs
        for pa, amap, pis in _roots(instance, j):
            beliefs, key = [pi.probs for pi in pis], belief_tuple_key(pis)
            n = stage.index.setdefault(key, len(stage.keys))
            if n == len(stage.keys):
                stage.keys.append(key)
                amaps.append(list(amap.values()))
                probs.append(beliefs)
            roots.append((pa, n, amap, beliefs))
        _check_branches(len(stage.keys), caps)
        amaps = np.array(amaps, dtype=np.int64)  # a row per node, also when rows are empty
        probs = [np.array(rows) for rows in zip(*probs)]  # per agent, a row per node
        for t in range(T + 1):
            stages.append(stage)
            tails = _tail_tables(instance, chain, j, t, stage.keys)
            score = CandidateScorer(instance, j, t, spaces[t])
            support = [np.nonzero(rows > 0.0) for rows in probs]
            cost = score(probs[0], tails, support[0])
            examined += cost.size
            work.append((cost, tails, None))
            if t == T:
                break
            row_of = []
            for i, rows, pairs in zip(range(j, K + 1), probs, support):
                controls = score.controls(i, pairs, tails)
                step_of, step_probs, step_controls = _distinct_rows(rows, pairs, controls)
                stage.batches.append(step_kernel(instance, i, t).step(step_probs, step_controls))
                row_of.append(step_of)
                computed += len(step_probs)
                shared += step_of.size - len(step_probs)
                entries += stage.batches[-1].read
            stage, amaps, probs, combo_of = _expand(
                instance, j, t, stage, amaps, row_of, caps, sum(len(done.keys) for done in stages)
            )
            work[t] = (cost, tails, combo_of)
    except CapExceeded:
        raise
    except WomError as exc:
        exc.args = (f"agent {j}, stage {t}: {exc}",)
        raise

    for t in range(T, -1, -1):
        (cost, tails, combo_of), work[t] = work[t], None  # the scratch goes with its stage
        stage = stages[t]
        if combo_of is not None:  # padded groups and kids read the trailing zeros
            pz = np.append(stage.batches[0].mass, 0.0)[stage.groups[:, :, 0]]
            later = np.append(values, 0.0)
            for b in range(pz.shape[1]):
                cost += (pz[:, b] * later[stage.kid[:, b]])[combo_of]
        best = cost.argmin(axis=1)
        nodes = np.arange(len(best))
        heads_at = np.unravel_index(best, tuple(map(len, spaces[t])))
        stage.tables = [space[i] for space, i in zip(spaces[t], heads_at)] + tails
        if combo_of is not None:
            stage.win = combo_of[nodes, best]
        values = cost[nodes, best]

    total = 0.0
    for pa, n, _, _ in roots:
        total += pa * float(values[n])
    widths = tuple(len(done.keys) for done in stages)
    record = _Pass(stages, roots, total, examined, computed, shared, entries, widths,
                   time.perf_counter() - started)
    log.debug(
        "agent %d pass: %d nodes %s per stage, %d candidates, %d steps (%d shared), "
        "%d kernel entries, %.3f s",
        j, sum(widths), list(widths), examined, computed, shared, entries, record.seconds,
    )
    return record


def _solve_chain(instance: Instance, k: int, caps: Caps, chain: dict | None = None) -> dict:
    """The passes of agents K down to k, each kept in `chain` under its agent
    before the next one inherits from it; a pass that raises leaves those
    above it there."""
    chain = {} if chain is None else chain
    for j in range(instance.agent_count, k - 1, -1):
        chain[j] = _solve_agent(instance, j, chain, caps)
    return chain


def _emit_strategy(instance: Instance, k: int, chain: dict):
    """Walk agent k's decided stages stage by stage from the roots its pass
    recorded, filling laws; return the strategy and per stage the walk's
    paths as (accessible maps, parents, per agent k..K the beliefs).

    A path is a node and its accessible map, a row of an int array. Its
    children are its node's winning branches, each with its map plus the
    branch's new information, in row-major order: a depth-first walk's order
    within the stage, so of paths with one conditioning realization the same
    one writes last. Every realization the walk does not reach gets its
    (stage, target)'s default, the all-zero table.
    """
    laws, defaults, walk, roots = {}, {}, [], chain[k].roots
    nodes, parent = np.array([n for _, n, _, _ in roots]), None
    maps = np.array([list(amap.values()) for _, _, amap, _ in roots], dtype=np.int64)
    probs = [np.array(rows) for rows in zip(*[beliefs for *_, beliefs in roots])]
    for t, stage in enumerate(chain[k].stages):
        walk.append((maps, parent, probs))
        columns = _map_columns(instance, k, t)
        for m, tables in enumerate(stage.tables, start=1):
            domain = instance.info.prescription_domain(t, k, m)
            sizes, csize = instance.schema_sizes(domain), instance.system.control_sizes[m - 1]
            make = functools.partial(Prescription, k, m, t, domain, sizes, csize)
            conds = maps[:, [columns[v] for v in instance.info.conditioning_schema(t, k, m)]]
            rows = list(map(tuple, tables[nodes].tolist()))
            made = {row: make(row) for row in set(rows)}  # one per distinct table
            laws[(t, m)] = dict(zip(map(tuple, conds.tolist()), map(made.__getitem__, rows)))
            defaults[(t, m)] = make((0,) * realization_count(sizes))
        if stage.win is None:
            break
        wins = stage.win[nodes]
        parent, branch = np.nonzero(stage.kid[wins] >= 0)
        nodes, groups = stage.kid[wins[parent], branch], stage.groups[wins[parent], branch]
        maps = np.hstack([maps[parent], stage.batches[0].z[groups[:, 0]]])
        probs = [batch.probs[g] for batch, g in zip(stage.batches, groups.T)]
    return PrescriptionStrategy(owner=k, laws=laws, defaults=defaults), walk


def _belief_tree(instance: Instance, k: int, walk: list) -> list:
    """Per path of agent k's emission `walk`, depth first: its stage, its accessible
    realization by variable label and the beliefs of agents k..K its steps made."""
    rows, places = [], []
    for t, (maps, parent, probs) in enumerate(walk):
        here = np.arange(len(maps))[:, None]  # per path, its ancestors' places and its own
        place = here if t == 0 else np.hstack([place[parent], here])
        places.append(np.pad(place, ((0, 0), (0, len(walk) - 1 - t)), constant_values=-1))
        beliefs = zip(*[stack.tolist() for stack in probs])
        schema, columns = instance.info.accessible(t, k), _map_columns(instance, k, t)
        rows.extend([
            {
                "t": t,
                "accessible": dict(zip(map(VariableId.label, schema), values)),
                "beliefs": {f"agent_{i}": p for i, p in enumerate(belief, start=k)},
            }
            for values, belief in zip(maps[:, [columns[v] for v in schema]].tolist(), beliefs)
        ])
    order = np.lexsort(np.vstack(places).T[::-1])  # a path before its descendants
    return [rows[i] for i in order.tolist()]


def _belief_policy(chain: dict, k: int) -> list:
    """Per node of agent k's pass, by stage and key: its key and its tables for targets 1..k."""
    return [
        {
            "t": t,
            "belief_key": [list(part) for part in stage.keys[n]],
            "tables": {m: rows[n] for m, rows in enumerate(heads, start=1)},
        }
        for t, stage in enumerate(chain[k].stages)
        for heads in [[tables.tolist() for tables in stage.tables[:k]]]
        for n in sorted(range(len(stage.keys)), key=stage.keys.__getitem__)
    ]


def _dp_result(instance: Instance, k: int, chain: dict) -> SolveResult:
    """Agent k's emitted strategy, exactly re-evaluated, from a chain solved down to k."""
    start = time.perf_counter()
    psi, walk = _emit_strategy(instance, k, chain)
    emitted = time.perf_counter()
    report = exact_strategy_cost(instance, psi)
    log.debug("agent %d result: emission %.3f s, exact evaluation %.3f s",
              k, emitted - start, time.perf_counter() - emitted)
    passes = [j for j in chain if j >= k]
    return SolveResult(
        method="prescription-dp",
        agent=k,
        optimal_cost=report.expected_cost,
        control=functools.partial(joint_control_strategy, instance, psi),
        prescription_strategy=psi,
        search_size=chain[k].examined,
        wall_time=sum(chain[j].seconds for j in passes) + time.perf_counter() - start,
        dp_value=chain[k].value,
        extras={
            "chain_examined": {j: chain[j].examined for j in passes},
            "chain_values": {j: chain[j].value for j in passes},
        },
        tree=functools.partial(_belief_tree, instance, k, walk),
        policy=functools.partial(_belief_policy, chain, k),
    )


def solve_prescription_dp(instance: Instance, k: int, cap: int | None = None) -> SolveResult:
    """Per-agent backward recursion with inherited higher-agent components."""
    caps = resolve_caps(cap)
    if not 1 <= k <= instance.agent_count:
        raise ShapeMismatch(f"agent {k} out of range")
    return _dp_result(instance, k, _solve_chain(instance, k, caps))


def solve_common_info_dp(instance: Instance, cap: int | None = None) -> SolveResult:
    """Coordinator recursion for the highest-indexed agent (the common-information case)."""
    result = solve_prescription_dp(instance, instance.agent_count, cap)
    result.method = "common-info"
    return result


# -- static decomposition -------------------------------------------------------


def solve_prescription_static(instance: Instance, k: int, cap: int | None = None) -> SolveResult:
    """Agent k's decomposition of a one-stage problem: the horizon-0 chain.

    Agents K..k are solved as in `solve_prescription_dp`. The result reports
    the size of agent k's strategy space as its search size, and alongside it,
    for diagnosis, the relaxed value in which every accessible realization
    also picks its own components for the targets above k.
    """
    caps = resolve_caps(cap)
    if instance.horizon != 0:
        raise ShapeMismatch("static decomposition requires horizon 0")
    if not 1 <= k <= instance.agent_count:
        raise ShapeMismatch(f"agent {k} out of range")
    return _static_result(instance, _dp_result(instance, k, _solve_chain(instance, k, caps)), caps)


def _static_result(instance: Instance, res: SolveResult, caps: Caps) -> SolveResult:
    """A horizon-0 chain result for agent k as the static decomposition's row.

    The relaxed value sums, over agent k's t=0 accessible realizations, the
    mass times the least stage cost over every joint table tuple for all K
    targets on agent k's domains. Its candidates number at most agent K's
    stage-0 joint count, which the chain has checked against the cap.
    """
    start = time.perf_counter()
    k = res.agent
    tables = [
        enumerate_prescription_tables(
            instance.schema_sizes(instance.info.prescription_domain(0, k, m)), csize, caps.tables
        )
        for m, csize in enumerate(instance.system.control_sizes, start=1)
    ]
    beliefs = initial_information_state(instance, k)
    masses = accessible_support(instance, k)
    least = CandidateScorer(instance, k, 0, tables)(
        np.array([beliefs[a_real].probs for a_real in masses])
    ).min(axis=1)
    relaxed_value = math.fsum(mass * m for mass, m in zip(masses.values(), least.tolist()))
    extras = dict(res.extras)
    extras["relaxed_value"] = relaxed_value
    extras["relaxed_gap"] = abs(relaxed_value - res.optimal_cost)
    if extras["relaxed_gap"] > COST_TOL:
        extras["relaxed_gap_exceeds_tolerance"] = True
    return dataclasses.replace(
        res,
        method="prescription-static",
        search_size=count_strategies(instance, k),
        wall_time=res.wall_time + time.perf_counter() - start,
        extras=extras,
    )


# -- evaluation and comparison ---------------------------------------------------


def evaluate_prescription_strategy(
    instance: Instance, psi: PrescriptionStrategy
) -> CostReport:
    """Exact cost of the control strategy a prescription strategy induces."""
    return exact_strategy_cost(instance, psi)


@dataclass
class CompareReport:
    rows: list
    max_spread: float


def compare_agents(instance: Instance, cap: int | None = None) -> CompareReport:
    """Run every applicable solver and check the optima agree.

    The common-information row and every per-agent row come from one chain
    solved from agent K down, one pass per agent; at horizon 0 the per-agent
    rows are the static decomposition's. When a pass exceeds a cap, the agents
    below it cannot inherit its decisions, so their rows are skipped with the
    same reason.
    """
    caps = resolve_caps(cap)
    rows = []
    K = instance.agent_count

    def attempt(label, agent, fn):
        row = {"method": label, "agent": agent}
        try:
            res = fn()
        except CapExceeded as exc:
            row.update(status="skipped", reason=str(exc))
        else:
            row.update(status="ok", cost=res.optimal_cost, search_size=res.search_size,
                       wall_time=res.wall_time)
        rows.append(row)

    attempt("brute", None, lambda: solve_brute_force(instance, cap))

    chain, failure = {}, None
    try:
        _solve_chain(instance, 1, caps, chain)
    except CapExceeded as exc:
        failure = exc
    results: dict = {}

    def dp_row(k):
        if k not in chain:
            raise failure
        if k not in results:
            results[k] = _dp_result(instance, k, chain)
        return results[k]

    attempt("common-info", None, lambda: dp_row(K))
    for k in range(1, K + 1):
        if instance.horizon == 0:
            attempt(
                "prescription-static", k, lambda k=k: _static_result(instance, dp_row(k), caps)
            )
        else:
            attempt("prescription-dp", k, lambda k=k: dp_row(k))
    costs = [r["cost"] for r in rows if r["status"] == "ok"]
    spread = max(costs) - min(costs) if costs else 0.0
    if spread > COST_TOL:
        raise WomError(f"solver optima disagree by {spread}: {rows}")
    return CompareReport(rows=rows, max_spread=spread)
