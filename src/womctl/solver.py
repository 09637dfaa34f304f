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
from typing import Callable

import numpy as np

from .belief import (
    CandidateScorer,
    StepKernel,
    accessible_support,
    belief_tuple_key,
    check_domains,
    initial_information_state,
    initial_state_at,
)
from .errors import CapExceeded, ShapeMismatch, WomError
from .infostruct import KIND_CONTROL, KIND_OBSERVATION, VariableId
from .prescription import (
    CompletePrescription,
    Prescription,
    PrescriptionStrategy,
    count_strategies,
    enumerate_prescription_tables,
    joint_control_strategy,
    make_prescription,
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
    it on first read.
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

    @property
    def control_strategy(self) -> ControlStrategy:
        if callable(self.control):
            self.control = self.control()
        return self.control


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

    The running sum after the first primitives depends only on the digits
    they read. A probe walks every branch of each primitive once per solve;
    the head, the longest run of leading primitives whose axes span at most
    `_INNER` points over all chunks, is walked per chunk into a tensor of
    size 1 on every other axis, which is broadcast into the chunk's tensor.
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

    observe = [[VariableId(t, k, KIND_OBSERVATION) for k in range(1, K + 1)]
               for t in range(T + 1)]
    obs = [h.tolist() for h in sys.observation]
    transition = sys.transition.tolist()
    cost = sys.cost.tolist()
    index = [slice(None)] * len(shape)
    digit = [0] * len(radix_of)
    vals = {}
    reads = None  # while probing, the axes read so far

    def walk(t, k, x, uj, inner):
        # adds the primitive `p, w_seq, v_seq` into `costs` through `bufs`;
        # while probing it adds nothing and takes every branch of every digit
        if k == K:
            if reads is None:
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
        if reads is not None:
            reads.add(axis)
            for u in range(radix_of[g]):
                vals[control] = u
                walk(t, k + 1, x, uj + u * stride, inner)
            return
        if axis < 0:
            vals[control] = digit[g]
            walk(t, k + 1, x, uj + digit[g] * stride, inner)
            return
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

    p = w_seq = v_seq = None

    def fold(prims):
        nonlocal p, w_seq, v_seq
        for p, x0, w_seq, v_seq in prims:
            for j, var in enumerate(observe[0]):
                vals[var] = obs[j][0][x0][v_seq[j][0]]
            walk(0, 0, x0, 0, False)

    # the head: the leading primitives whose reads, over every chunk, span at
    # most `_INNER` points; each chunk broadcasts their running sums
    prim = list(joint_primitives(instance))
    head, head_axes = 0, set()
    for primitive in prim:
        reads = set(head_axes)
        fold([primitive])
        if math.prod(shape[a] for a in reads if a >= 0) > _INNER:
            break
        head, head_axes = head + 1, reads
    reads = None
    head_shape = tuple(n if a in head_axes else 1 for a, n in enumerate(shape))
    head_bufs = [np.empty(head_shape[outer:]) for _ in range(T + 1)]
    chunk_bufs = [np.empty(shape[outer:]) for _ in range(T + 1)]

    best_cost, best_lead, best_arg = math.inf, None, 0
    for lead in itertools.product(*map(range, radix_of[:split])):
        digit[:split] = lead
        costs, bufs = np.zeros(head_shape), head_bufs
        fold(prim[:head])
        costs, bufs = np.broadcast_to(costs, shape).copy(), chunk_bufs
        fold(prim[head:])
        arg = int(costs.argmin())
        if costs.flat[arg] < best_cost:
            best_cost, best_lead, best_arg = float(costs.flat[arg]), lead, arg
    log.debug("brute force: %d strategies, %d chunks, %d primitives, head of %d primitives "
              "over %d points, %.3f s", total, math.prod(radix_of[:split]), len(prim), head,
              math.prod(head_shape), time.perf_counter() - start)

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


class _Chain:
    """Each agent pass's decided stages and t=0 roots, filled from agent K
    downward, and one `StepKernel` per (agent, stage) that every pass steps
    through.

    Per agent pass it also counts the belief steps computed, the candidate
    steps served by an identical step of the same node and the distinct
    kernel entries, (support index, joint control) codes, read, and keeps the
    number of nodes at each stage.
    """

    def __init__(self):
        self.kernels: dict[tuple, StepKernel] = {}  # (agent, stage) -> kernel
        self.stages: dict[int, list] = {}  # agent -> its pass's `_Stage`s
        self.roots: dict[int, list] = {}  # agent -> [(mass, node, accessible map, beliefs)]
        self.values: dict[int, float] = {}
        self.examined: dict[int, int] = {}
        self.steps: dict[int, int] = {}
        self.shared: dict[int, int] = {}
        self.entries: dict[int, int] = {}
        self.widths: dict[int, tuple] = {}
        self.seconds: dict[int, float] = {}


def _head_spaces(instance: Instance, j: int, caps: Caps):
    """Per stage, the candidate tables for each of agent j's own components.

    Every stage's table counts are checked against the cap before any table
    is built.
    """
    shapes = {}
    for t in range(instance.horizon + 1):
        per_target = []
        joint = 1
        for m in range(1, j + 1):
            domain = instance.info.prescription_domain(t, j, m)
            sizes = instance.schema_sizes(domain)
            csize = instance.system.control_sizes[m - 1]
            count = prescription_space_size(sizes, csize)
            if count > caps.tables:
                raise CapExceeded(count, caps.tables, "prescription enumeration")
            joint *= count
            per_target.append((domain, sizes, csize))
        if joint > caps.tables:
            raise CapExceeded(joint, caps.tables, f"stage-{t} joint prescription search")
        shapes[t] = per_target
    return {
        t: [
            [
                Prescription(j, m, t, domain, sizes, csize, table)
                for table in enumerate_prescription_tables(sizes, csize, caps.tables)
            ]
            for m, (domain, sizes, csize) in enumerate(per_target, start=1)
        ]
        for t, per_target in shapes.items()
    }


def _tail_parts(instance: Instance, chain: _Chain, j: int, t: int, key) -> tuple:
    """Inherited prescriptions for targets above j at the belief tuple with key `key`."""
    parts = []
    for m in range(j + 1, instance.agent_count + 1):
        stage = chain.stages[m][t]
        n = stage.index.get(key[m - j :])
        if n is None:
            raise WomError(
                f"missing inherited decision for agent {m} at t={t}; "
                "the belief tuple was never reached in that agent's pass"
            )
        parts.append(dataclasses.replace(stage.thetas[n].parts[m - 1], owner=j))
    return tuple(parts)


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
    `keys[n]`, and `index` from key to node. Once decided, `thetas[n]` is node
    n's complete prescription. Below the horizon the stage keeps its step
    batches, one per agent j..K, and how its winners branch: `win[n]` is the
    combination of step rows node n's winner uses, and per (combination,
    branch) `kid` holds the next-stage node and `groups` each agent's group
    in its batch, both padded with -1.
    """

    def __init__(self):
        self.keys, self.thetas, self.batches = [], [], []
        self.index: dict = {}  # key -> node
        self.win = self.kid = self.groups = None

    def node(self, key, caps: Caps, before: int) -> tuple[int, bool]:
        """The node with this key, and whether it is new; `before` counts the
        pass's nodes at earlier stages."""
        if key in self.index:
            return self.index[key], False
        if before + len(self.keys) >= caps.branches:
            raise CapExceeded(
                caps.branches + 1, caps.branches, "reachable belief branches", exact=False
            )
        self.index[key] = len(self.keys)
        self.keys.append(key)
        return len(self.keys) - 1, True


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
    nodes were first reached with the accessible maps `amaps`.

    `row_of[a]` gives each (node, candidate)'s step row in agent j + a's
    batch. Branches are followed per distinct combination of rows, in order
    of the first (node, candidate) with it, and then in new-information
    order: new nodes come in depth-first first-visit order. Fills
    `stage.kid` and `stage.groups`. Returns the new stage, its nodes'
    accessible maps, per agent their beliefs a row per node, and each (node,
    candidate)'s combination.
    """
    nodes, candidates = row_of[0].shape
    combos, first, combo_of = _unique_rows(
        np.stack([rows.ravel() for rows in row_of], axis=1), return_index=True, return_inverse=True
    )
    new_info = [instance.info.new_info(t + 1, i) for i in range(j, instance.agent_count + 1)]
    batches, child, amaps_child, sources = stage.batches, _Stage(), [], []
    owner = batches[0]
    stage.kid = np.full((len(combos), max(np.diff(owner.start))), -1, dtype=np.int64)
    stage.groups = np.full(stage.kid.shape + (len(batches),), -1, dtype=np.int64)
    for u in np.argsort(first, kind="stable").tolist():
        n, rows = int(first[u]) // candidates, combos[u].tolist()
        tails = [
            {batch.z[g]: g for g in range(batch.start[r], batch.start[r + 1])}
            for batch, r in zip(batches[1:], rows[1:])
        ]
        for b, g in enumerate(range(owner.start[rows[0]], owner.start[rows[0] + 1])):
            amap = dict(amaps[n])
            amap.update(zip(new_info[0], owner.z[g]))
            groups = [g]
            for a, at in enumerate(tails, start=1):
                z_a = tuple(amap[var] for var in new_info[a])
                if z_a not in at:
                    raise WomError(
                        f"agent {j + a} new information {z_a} impossible on a positive branch"
                    )
                groups.append(at[z_a])
            key = tuple(batch.keys[g] for batch, g in zip(batches, groups))
            c, new = child.node(key, caps, before)
            if new:
                amaps_child.append(amap)
                sources.append(groups)
            stage.kid[u, b], stage.groups[u, b] = c, groups
    probs = [batch.probs[list(groups)] for batch, groups in zip(batches, zip(*sources))]
    return child, amaps_child, probs, combo_of.reshape(nodes, candidates)


def _solve_agent(instance: Instance, j: int, chain: _Chain, caps: Caps) -> float:
    """Backward induction over agent j's reachable accessible-history tree,
    one stage at a time.

    Components for targets above j are fixed functions of the targets' belief
    tuples, inherited from their own passes; components up to j are chosen per
    reachable belief tuple. A forward sweep registers each stage's nodes, and
    a backward sweep from stage T then values and decides them.

    Each stage scores every node's joint head candidates in one
    `CandidateScorer` call. Below the horizon, every candidate steps the
    belief of every agent j..K through one call per agent of the chain's
    `StepKernel` for that (agent, stage), with the controls the scorer reads
    off that agent's support; candidates of a node that act alike on an
    agent's positive-mass support share its step. Nodes are keyed by the keys
    the steps made.
    Every candidate's branches are followed, so that lower agents can inherit
    decisions at any tuple their own candidate profiles reach.

    A node's value adds to a candidate's stage cost the probability times the
    value of each branch in new-information order, and the first minimizer in
    `itertools.product` order wins: the values and decisions of a depth-first
    recursion. The pass's record is its list of decided `_Stage`s and its
    roots, (mass, node, accessible map, beliefs) per t=0 accessible
    realization, kept in the chain.

    A failure other than a cap keeps its class, and its message is prefixed
    with the agent and the stage it occurred at.
    """
    at = [0]  # the stage the pass is at
    try:
        return _agent_pass(instance, j, chain, caps, at)
    except CapExceeded:
        raise
    except WomError as exc:
        exc.args = (f"agent {j}, stage {at[0]}: {exc}",)
        raise


def _agent_pass(instance: Instance, j: int, chain: _Chain, caps: Caps, at: list) -> float:
    """The body of `_solve_agent`, keeping the stage it is at in `at[0]`."""
    started = time.perf_counter()
    T, K = instance.horizon, instance.agent_count
    spaces = _head_spaces(instance, j, caps)
    examined = computed = shared = entries = 0
    stage, roots, amaps, probs = _Stage(), [], [], []  # per node, its map and beliefs
    for pa, amap, pis in _roots(instance, j):
        beliefs = [pi.probs for pi in pis]
        n, new = stage.node(belief_tuple_key(pis), caps, 0)
        if new:
            amaps.append(amap)
            probs.append(beliefs)
        roots.append((pa, n, amap, beliefs))
    probs = [np.array(rows) for rows in zip(*probs)]  # per agent, a row per node
    stages, work = [], []  # per stage, its nodes and what its backward step reads
    for t in range(T + 1):
        at[0] = t
        stages.append(stage)
        tails = [_tail_parts(instance, chain, j, t, key) for key in stage.keys]
        for parts in tails:
            check_domains(instance, j, t, parts, first_target=j + 1)
        tail_tables = [np.array([parts[m].table for parts in tails]) for m in range(K - j)]
        head_tables = [np.array([p.table for p in space]) for space in spaces[t]]
        score = CandidateScorer(instance, j, t, head_tables)
        support = [np.nonzero(rows > 0.0) for rows in probs]
        cost = score(probs[0], tail_tables, support[0])
        examined += cost.size
        work.append((cost, tails, None))
        if t == T:
            break
        row_of = []
        for i, rows, pairs in zip(range(j, K + 1), probs, support):
            controls = score.controls(i, pairs, tail_tables)
            step_of, step_probs, step_controls = _distinct_rows(rows, pairs, controls)
            if (i, t) not in chain.kernels:
                chain.kernels[(i, t)] = StepKernel(instance, i, t)
            stage.batches.append(chain.kernels[(i, t)].step(step_probs, step_controls))
            row_of.append(step_of)
            computed += len(step_probs)
            shared += step_of.size - len(step_probs)
            entries += stage.batches[-1].read
        before = sum(len(done.keys) for done in stages)
        stage, amaps, probs, combo_of = _expand(instance, j, t, stage, amaps, row_of, caps, before)
        work[t] = (cost, tails, combo_of)

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
        for n, tail in enumerate(tails):
            heads = tuple(space[i[n]] for space, i in zip(spaces[t], heads_at))
            stage.thetas.append(CompletePrescription(owner=j, time=t, parts=heads + tail))
        if combo_of is not None:
            stage.win = combo_of[nodes, best]
        values = cost[nodes, best]

    total = 0.0
    for pa, n, _, _ in roots:
        total += pa * float(values[n])
    chain.stages[j] = stages
    chain.roots[j] = roots
    chain.values[j] = total
    chain.examined[j] = examined
    chain.steps[j] = computed
    chain.shared[j] = shared
    chain.entries[j] = entries
    chain.widths[j] = tuple(len(done.keys) for done in stages)
    chain.seconds[j] = time.perf_counter() - started
    log.debug(
        "agent %d pass: %d nodes %s per stage, %d candidates, %d steps (%d shared), "
        "%d kernel entries, %.3f s",
        j, sum(chain.widths[j]), list(chain.widths[j]), examined, computed, shared,
        entries, chain.seconds[j],
    )
    return total


def _emit_strategy(instance: Instance, k: int, chain: _Chain):
    """Walk agent k's decided stages from the roots its pass recorded,
    filling laws and collecting reachable beliefs.

    A path descends through its node's winning branches with its own
    accessible map and the posteriors its own steps made, read out of the
    stage's step batches. Laws hold the conditioning realizations the walk
    reaches; every other realization gets its (stage, target)'s default, the
    all-zero table.
    """
    laws, defaults = {}, {}
    for t in range(instance.horizon + 1):
        for m in range(1, instance.agent_count + 1):
            entries = realization_count(
                instance.schema_sizes(instance.info.prescription_domain(t, k, m))
            )
            laws[(t, m)] = {}
            defaults[(t, m)] = make_prescription(instance, t, k, m, (0,) * entries)
    belief_rows = []
    stages = chain.stages[k]
    labels = [
        [(v.label(), v) for v in instance.info.accessible(t, k)]
        for t in range(instance.horizon + 1)
    ]

    def record(t, n, amap, beliefs):
        stage = stages[t]
        for m, part in enumerate(stage.thetas[n].parts, start=1):
            cond = instance.info.conditioning_schema(t, k, m)
            laws[(t, m)][tuple(amap[v] for v in cond)] = part
        belief_rows.append(
            {
                "t": t,
                "accessible": {label: amap[v] for label, v in labels[t]},
                "beliefs": {
                    f"agent_{i}": probs.tolist() for i, probs in enumerate(beliefs, start=k)
                },
            }
        )
        if stage.win is None:
            return
        u, new_info = stage.win[n], instance.info.new_info(t + 1, k)
        for c, groups in zip(stage.kid[u].tolist(), stage.groups[u].tolist()):
            if c < 0:
                break
            child = dict(amap)
            child.update(zip(new_info, stage.batches[0].z[groups[0]]))
            record(t + 1, c, child, [b.probs[g] for b, g in zip(stage.batches, groups)])

    for _, n, amap, beliefs in chain.roots[k]:
        record(0, n, amap, beliefs)
    return PrescriptionStrategy(owner=k, laws=laws, defaults=defaults), belief_rows


def _dp_result(instance: Instance, k: int, chain: _Chain) -> SolveResult:
    """Agent k's emitted strategy, exactly re-evaluated, from a chain solved down to k."""
    start = time.perf_counter()
    psi, belief_rows = _emit_strategy(instance, k, chain)
    report = exact_strategy_cost(instance, psi)
    belief_policy = [
        {
            "t": t,
            "belief_key": [list(part) for part in stage.keys[n]],
            "tables": {m: list(p.table) for m, p in enumerate(stage.thetas[n].parts[:k], start=1)},
        }
        for t, stage in enumerate(chain.stages[k])
        for n in sorted(range(len(stage.keys)), key=stage.keys.__getitem__)
    ]
    passes = [j for j in chain.values if j >= k]
    return SolveResult(
        method="prescription-dp",
        agent=k,
        optimal_cost=report.expected_cost,
        control=functools.partial(joint_control_strategy, instance, psi),
        prescription_strategy=psi,
        search_size=chain.examined[k],
        wall_time=sum(chain.seconds[j] for j in passes) + time.perf_counter() - start,
        dp_value=chain.values[k],
        extras={
            "chain_examined": {j: chain.examined[j] for j in passes},
            "chain_values": {j: chain.values[j] for j in passes},
            "belief_tree": belief_rows,
            "belief_policy": belief_policy,
        },
    )


def solve_prescription_dp(instance: Instance, k: int, cap: int | None = None) -> SolveResult:
    """Per-agent backward recursion with inherited higher-agent components."""
    caps = resolve_caps(cap)
    if not 1 <= k <= instance.agent_count:
        raise ShapeMismatch(f"agent {k} out of range")
    chain = _Chain()
    for j in range(instance.agent_count, k - 1, -1):
        _solve_agent(instance, j, chain, caps)
    return _dp_result(instance, k, chain)


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
    chain = _Chain()
    for j in range(instance.agent_count, k - 1, -1):
        _solve_agent(instance, j, chain, caps)
    return _static_result(instance, _dp_result(instance, k, chain), caps)


def _static_result(instance: Instance, res: SolveResult, caps: Caps) -> SolveResult:
    """A horizon-0 chain result for agent k as the static decomposition's row.

    The relaxed value sums, over agent k's t=0 accessible realizations, the
    mass times the least stage cost over every joint table tuple for all K
    targets on agent k's domains. Its candidates number at most agent K's
    stage-0 joint count, which the chain has checked against the cap.
    """
    start = time.perf_counter()
    k = res.agent
    tables = []
    for m in range(1, instance.agent_count + 1):
        sizes = instance.schema_sizes(instance.info.prescription_domain(0, k, m))
        csize = instance.system.control_sizes[m - 1]
        tables.append(np.array(list(enumerate_prescription_tables(sizes, csize, caps.tables))))
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

    chain = _Chain()
    failure = None
    try:
        for j in range(K, 0, -1):
            _solve_agent(instance, j, chain, caps)
    except CapExceeded as exc:
        failure = exc
    results: dict = {}

    def dp_row(k):
        if k not in chain.values:
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
