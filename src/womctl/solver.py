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
import logging
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .belief import (
    CandidateScorer,
    DigitGrids,
    accessible_support,
    initial_information_state,
    probs_codes,
    probs_keys,
    step_kernel,
)
from .errors import CapExceeded, ShapeMismatch, WomError, as_integer, checked_index
from .infostruct import KIND_CONTROL, KIND_OBSERVATION, VariableId
from .prescription import (
    Prescription,
    PrescriptionStrategy,
    count_strategies,
    joint_control_strategy,
    prescription_space_size,
)
from .sysmodel import (
    ControlStrategy,
    CostReport,
    Instance,
    _forward_pass,
    enumerate_realizations,
    exact_strategy_cost,
    instance_digest,
    realization_count,
    realization_strides,
    restrict_realization,
    schema_rows,
    tuple_getter,
)

COST_TOL = 1e-9
_CHUNK = 1 << 17

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
    cap = as_integer(cap, source)
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


class _DigitGrid:
    """Costs over a mixed-radix digit grid, one axis per digit in encoding order.

    The tensor starts with size 1 on every axis. Sums do not depend on a digit
    nothing has read, so `grow` repeats the tensor along an axis on its first
    read, inside one buffer of `points` points. One more axis, of size 1, keeps
    every index a view.
    """

    def __init__(self, shape: tuple, points: int):
        self.shape = shape
        self.store = np.empty(points)
        self.sizes = [1] * len(shape)
        self.growths = 0
        self.zeros = {r: np.zeros(r, np.intp) for r in set(shape)}  # `take` repeats each block

    def start(self):  # zero costs at size 1 on every axis
        self.sizes[:] = [1] * len(self.shape)
        self.costs = self.store[:1].reshape(*self.sizes, 1)
        self.costs[...] = 0.0

    def grow(self, axis: int):
        # the P blocks of Q points, one per index before the axis, each become
        # r copies, which `take` writes: from a copy at the buffer's end when
        # both fit, else in place, the blocks moving from the last down, each
        # batch to where no block still to move lies
        store, size, r = self.store, self.costs.size, self.shape[axis]
        P = math.prod(self.sizes[:axis])
        Q, zeros = size // P, self.zeros[r]
        if P > 1 and size * (r + 1) <= store.size:
            old = store[store.size - size:]
            old[...] = store[:size]
            old.reshape(P, 1, Q).take(zeros, 1, store[:r * size].reshape(P, r, Q), "clip")
        else:
            hi = P
            while hi > 1:
                lo = -(-hi // r)
                batch = store[lo * Q:hi * Q].reshape(hi - lo, 1, Q)
                batch.take(zeros, 1, store[lo * r * Q:hi * r * Q].reshape(hi - lo, r, Q), "clip")
                hi = lo
            store[Q:r * Q].reshape(r - 1, Q)[...] = store[:Q]  # block 0 stays put
        self.sizes[axis] = r
        self.costs = store[:r * size].reshape(*self.sizes, 1)
        self.growths += 1

    def argmin(self, best: float):
        """The least cost, if below `best`, and its first point per axis."""
        arg = int(self.costs.argmin())
        least = float(self.costs.flat[arg])
        return (least, np.unravel_index(arg, self.sizes)) if least < best else None


def solve_brute_force(instance: Instance, cap: int | None = None) -> SolveResult:
    """Enumerate every control strategy over feasible memory realizations.

    Strategies are encoded mixed-radix with stage, then agent, then realization
    as increasingly fast digits; the reported minimizer is the one with the
    smallest encoding. Memory realizations never reachable under any strategy
    keep a fixed default action.

    One forward pass takes every joint control and cuts nothing, so its
    histories form a tree: a (history, joint control) node has the next
    stage's histories that extend it as children. A cell's feasible
    realizations are its stage's histories projected onto its memory schema,
    and the cap is checked cell by cell before the pass builds the next stage.
    A chunk fixes the leading digits; its trailing digits, of at most
    `_CHUNK` points, span a `_DigitGrid`. Each chunk walks the tree depth
    first: a history's digit per agent is fixed by the chunk or branches
    along an axis, and each node reached adds its stage cost into the view
    that its path fixes. So each strategy sums its nodes' costs in depth-first
    preorder (README). Chunks step like an odometer over the lead digits a
    walk read, so leads that no walk tells apart are walked once, in encoding
    order.
    """
    caps = resolve_caps(cap)
    start = time.perf_counter()
    sys = instance.system
    T, K, nu = instance.horizon, sys.agent_count, sys.joint_control_count
    every = [(u, uj) for uj, u in enumerate(enumerate_realizations(sys.control_sizes))]
    uncut = {VariableId(t, k, kind) for t in range(T + 1) for k in range(1, K + 1)
             for kind in (KIND_OBSERVATION, KIND_CONTROL)}
    control_stride = realization_strides(sys.control_sizes)

    cells, radix_of = [], []  # (t, k, realizations, radix) per cell, the radix per digit
    reads, strides, terms, kids = [], [], [], []  # per stage
    total, cost = 1, sys.cost.tolist()
    for t, layout, histories, _, pairs, children in _forward_pass(
        instance, [uncut] * (T + 1), lambda t, layout: lambda h: every
    ):
        digits = []  # per agent with more than one control, its digit per history
        strides.append([])
        for k in range(1, K + 1):
            reals = list(map(tuple_getter(layout, instance.info.memory(t, k)), histories))
            feas, radix = sorted(set(reals)), sys.control_sizes[k - 1]
            cells.append((t, k, feas, radix))
            total *= radix ** len(feas)
            if total > caps.brute:  # later cells only multiply the count
                last = (t, k) == (T, K)
                raise CapExceeded(total, caps.brute, "brute-force enumeration", exact=last)
            if radix > 1:  # an agent with one control always plays 0
                digit_of = {real: len(radix_of) + i for i, real in enumerate(feas)}
                digits.append([digit_of[real] for real in reals])
                strides[t].append(control_stride[k - 1])
            radix_of.extend([radix] * len(feas))
        reads.append(list(zip(*digits)) or [()] * len(histories))
        term = [0.0] * (len(histories) * nu)  # per node: history id * nu + joint control
        for x, hid, mass in pairs:  # each a left fold over the pairs, in order
            base, row = hid * nu, cost[t][x]
            for uj in range(nu):
                term[base + uj] += mass * row[uj]
        terms.append(term)
        kids.append([[] for _ in term])
        if t:  # nothing is cut, so a history's parent id is its parent node
            for hid, (node, _) in enumerate(children):
                kids[t - 1][node].append(hid)

    split, chunk_size = len(radix_of), 1  # digits from `split` on are trailing
    while split and chunk_size * radix_of[split - 1] <= _CHUNK:
        split -= 1
        chunk_size *= radix_of[split]
    axis_digits = [g for g in range(split, len(radix_of)) if radix_of[g] > 1]
    axis_of = [-1] * len(radix_of)
    for axis, g in enumerate(axis_digits):
        axis_of[g] = axis
    index = [slice(None)] * len(axis_digits)
    digit = [0] * len(radix_of)
    grid = _DigitGrid(tuple(radix_of[g] for g in axis_digits), chunk_size)
    adds = 0

    def walk(t, hid, k, uj, n):
        # history `hid` of stage t, its first k branching agents decided; the
        # path read axes below `n`
        nonlocal adds
        gs, stride = reads[t][hid], strides[t]
        while k < len(gs):
            g = gs[k]
            axis = axis_of[g]
            if axis >= 0:
                break
            lead_read[g] = True
            uj += digit[g] * stride[k]
            k += 1
        else:
            node = hid * nu + uj
            view = grid.costs[(*index[:n],)]
            view += terms[t][node]
            adds += 1
            for child in kids[t][node]:
                walk(t + 1, child, 0, 0, n)
            return
        if grid.sizes[axis] == 1:  # the chunk's first read of this axis
            grid.grow(axis)
        for u in range(radix_of[g]):
            index[axis] = u
            walk(t, hid, k + 1, uj + u * stride[k], axis + 1)
        index[axis] = slice(None)

    best_cost, best_lead, best_axes, largest, walked = math.inf, None, (), 0, 0
    while True:  # an odometer over the lead digits that some walk read
        lead_read = [False] * split
        grid.start()
        for hid in range(len(reads[0])):
            walk(0, hid, 0, 0, 0)
        found = grid.argmin(best_cost)
        if found:
            (best_cost, best_axes), best_lead = found, digit[:split]
        largest, walked = max(largest, grid.costs.size), walked + 1
        g = split - 1  # leads that agree on every read digit cost the same, and lose ties
        while g >= 0 and not (lead_read[g] and digit[g] < radix_of[g] - 1):
            g -= 1
        if g < 0:
            break
        digit[g:split] = [digit[g] + 1] + [0] * (split - g - 1)
    log.debug("brute force: %d strategies, %d chunks, %d walked, %d histories, largest tensor "
              "of %d points, %.3f s, %d growths, %d view adds", total, math.prod(radix_of[:split]),
              walked, sum(map(len, reads)), largest, time.perf_counter() - start, grid.growths,
              adds)

    digit[:split] = best_lead
    for g, u in zip(axis_digits, best_axes):
        digit[g] = int(u)
    tables, g = {}, 0
    for t, k, feas, _ in cells:
        schema = instance.info.memory(t, k)
        table = {real: 0 for real in enumerate_realizations(instance.schema_sizes(schema))}
        table.update(zip(feas, digit[g:g + len(feas)]))
        tables[(t, k)], g = table, g + len(feas)
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
    keeps the decided `_Stage`s, the roots (mass, node, accessible map, the
    agent's belief) per t=0 accessible realization, the value, the
    candidates examined, the steps of the agent's own belief computed and
    served by an identical step of the same node, the distinct entries,
    (support index, joint control) codes, those steps read from the agent's
    kernels, the nodes per stage and the seconds."""

    stages: list
    roots: list
    value: float
    examined: int
    steps: int
    shared: int
    entries: int
    widths: tuple
    seconds: float


def _head_spaces(instance: Instance, j: int, caps: Caps) -> list:
    """Per stage, the count of agent j's joint candidates over its own
    components 1..j, the product of each target's table count.

    Every stage's counts are checked against the cap before any is searched.
    """
    joints = []
    for t in range(instance.horizon + 1):
        joint, where = 1, f"agent {j}, stage {t}: "
        for m in range(1, j + 1):
            sizes = instance.schema_sizes(instance.info.prescription_domain(t, j, m))
            count = prescription_space_size(sizes, instance.system.control_sizes[m - 1])
            if count > caps.tables:
                raise CapExceeded(count, caps.tables, where + "prescription enumeration")
            joint *= count
        if joint > caps.tables:
            raise CapExceeded(joint, caps.tables, where + "joint prescription search")
        joints.append(joint)
    return joints


def _roots(instance: Instance, j: int, above: _Pass | None):
    """Agent j's t=0 roots, one per accessible realization: their masses,
    accessible maps and stacked beliefs, and the root nodes of agent j + 1's
    pass `above` at the same realizations (-1 for agent K)."""
    acc0, support = instance.info.accessible(0, j), accessible_support(instance, j)
    states, tail = initial_information_state(instance, j), np.full(len(support), -1)
    if above is not None:
        tail_of = {tuple(amap.values()): n for _, n, amap, _ in above.roots}
        acc1 = instance.info.accessible(0, j + 1)
        tail[:] = [tail_of[restrict_realization(acc0, a_real, acc1)] for a_real in support]
    maps = [dict(zip(acc0, a_real)) for a_real in support]
    return list(support.values()), maps, np.array([states[a].probs for a in support]), tail


class _Stage:
    """One stage of agent j's pass, as the pass leaves it.

    Node n is agent j's belief `probs[n]`, as its first branch made it, and
    `tail[n]`, the node of agent j + 1's stage t that holds agents j+1..K
    (-1 for agent K). Its candidates are the points of its grid in `grids`,
    over the (target m <= j, domain row) digits that its support reads and,
    below the horizon, that its tail node's grid reads. Once decided,
    `tables[m - 1][n]` is node n's table for target m, an int array per
    target 1..K. Below the horizon it keeps agent j's step `batch`;
    `combo_of[p]` is the combination of point p (its step row and, below
    agent K, its lift's combination in agent j + 1's stage), `win[n]` that
    of the winner, and per (combination, branch) `kid` holds the next-stage
    node and `groups` the group in the batch, both padded with -1.
    """

    def __init__(self, probs, tail):
        self.probs, self.tail, self.tables = probs, tail, []
        self.grids = self.batch = self.combo_of = self.win = self.kid = self.groups = None


def _check_branches(count: int, caps: Caps, j: int, t: int):
    """Raise unless the `count` nodes agent j's pass has made up to stage t
    are within the branch cap."""
    if count > caps.branches:
        raise CapExceeded(caps.branches + 1, caps.branches,
                          f"agent {j}, stage {t}: reachable belief branches", exact=False)


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


def _merge(probs, tail):
    """Nodes from a stack of agent j's beliefs and their tail nodes: per row
    its node, numbered by first row, and each node's first row. Rows merge
    on the integer codes of their beliefs and on their tail node."""
    rows = np.hstack([probs_codes(probs), tail[:, None]])
    _, first, inverse = _unique_rows(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


def _restriction(instance: Instance, j: int, t: int, edges) -> np.ndarray:
    """Per digit of agent j + 1's stage-t targets 1..j, the digit of agent j's
    it restricts to: agent j + 1's domains contain agent j's, and agent j's
    target m numbers its digits from `edges[m - 1]`."""
    info = instance.info
    return np.concatenate([
        edge + schema_rows(instance, info.prescription_domain(t, j + 1, m),
                           [info.prescription_domain(t, j, m)])[0]
        for m, edge in enumerate(edges[:-1], start=1)
    ])


def _expand(instance, j, t, stage, amaps, row_of, above, caps, before):
    """Stage t + 1 of agent j's pass from `stage`, whose nodes were first
    reached with the accessible maps `amaps`, a row per node.

    `row_of[0]` gives each point of the stage's grids its row in the
    stage's step batch and, below agent K, `row_of[1]` the combination its
    lift takes in agent j + 1's stage `above`. Branches are followed per
    distinct combination, in order of the first point with it, and then in
    new-information order. A branch's tail node is the kid of its tail
    combination at agent j + 1's branch with the new information the
    branch's map gives agent j + 1. New nodes are numbered by their first
    branch, the depth-first first-visit order, and the first failing branch
    names the failure. Fills `stage.combo_of`, `stage.kid` and
    `stage.groups`. Returns the new stage and its nodes' maps.
    """
    combos, first, combo_of = _unique_rows(
        np.stack(row_of, axis=1), return_index=True, return_inverse=True
    )
    batch = stage.batch
    order = np.argsort(first, kind="stable")
    width, heads = np.diff(batch.start), combos[order, 0]  # heads: agent j's step rows
    lo, count = np.asarray(batch.start)[heads], width[heads]
    combo = np.repeat(order, count)  # per branch, its combination and place in it
    b = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    groups = np.repeat(lo, count) + b
    child = np.hstack([amaps[stage.grids.node[first[combo]]], batch.z[groups]])
    tail, failed = np.full(len(combo), -1), len(combo)
    if above is not None:
        new_info = instance.info.new_info(t + 1, j + 1)
        z = child[:, [_map_columns(instance, j, t + 1)[var] for var in new_info]]
        shape = (len(above.batch.start) - 1, *instance.schema_sizes(new_info))
        rows = np.repeat(np.arange(shape[0]), np.diff(above.batch.start))  # per group, its row
        known = np.ravel_multi_index((rows, *above.batch.z.T), shape)  # sorted (row, z) codes
        head = above.groups[combos[combo, 1], 0]  # each tail combination's first group
        wanted = np.ravel_multi_index((rows[head], *z.T), shape)
        found = np.minimum(np.searchsorted(known, wanted), len(known) - 1)
        hit = known[found] == wanted
        tail = above.kid[combos[combo, 1], np.where(hit, found - head, 0)]
        failed = np.append(np.flatnonzero(~hit), failed)[0]
    node_of, made = _merge(batch.probs[groups[:failed]], tail[:failed])
    _check_branches(before + len(made), caps, j, t + 1)
    if failed < len(combo):
        raise WomError(f"agent {j + 1} new information {tuple(z[failed].tolist())} "
                       "impossible on a positive branch")
    stage.combo_of = combo_of
    stage.kid = np.full((len(combos), int(width.max())), -1, dtype=np.int64)
    stage.groups = np.full_like(stage.kid, -1)
    stage.kid[combo, b], stage.groups[combo, b] = node_of, groups
    return _Stage(batch.probs[groups[made]], tail[made]), child[made]


def _solve_agent(instance: Instance, j: int, chain: dict, caps: Caps) -> _Pass:
    """Backward induction over agent j's reachable accessible-history tree,
    one stage at a time.

    A node is agent j's belief together with a node of agent j + 1's pass,
    which stands for the beliefs of agents j+1..K. Components for targets
    above j are that node's decided tables; components up to j are chosen
    per node. A forward sweep registers each stage's nodes, and a backward
    sweep from stage T then values and decides them.

    A node's candidates are the points of its own digit grid (`_Stage`):
    two candidates that agree on every digit it reads have the same stage
    cost, steps and tail, so they stand for each other. One
    `CandidateScorer` call scores each stage's nodes over the grids their
    supports read. Below the horizon, each of those points steps agent j's
    belief alone, through one call of the instance's `step_kernel` for (j,
    t); a point of a node's grid steps as the scorer's point that agrees
    with it on the support's digits. A point moves agents j+1..K as the
    point of its tail node's grid with the same digits and, for target j +
    1, the tail node's decided table, whose kids give the branches' tail
    nodes. Every point's branches are followed, so that lower agents can
    inherit decisions at any node they reach.

    A node's value adds to a candidate's stage cost the probability times
    the value of each branch in new-information order, and the first
    minimizer in grid order wins, with 0 on every digit the node does not
    read: the values and decisions of a depth-first recursion over the full
    product in `itertools.product` order. The candidates examined count
    that full product. The pass returns its record, a `_Pass`.

    A failure other than a cap keeps its class, and its message is prefixed
    with the agent and the stage it occurred at.
    """
    started = time.perf_counter()
    T, above = instance.horizon, chain.get(j + 1)
    examined = computed = shared = entries = t = 0
    stages, work = [], []  # per stage, its nodes and what its backward step reads
    try:
        joints = _head_spaces(instance, j, caps)
        masses, maps, probs, tail = _roots(instance, j, above)
        node_of, made = _merge(probs, tail)
        _check_branches(len(made), caps, j, 0)
        stage = _Stage(probs[made], tail[made])
        amaps = np.array([list(amap.values()) for amap in maps], dtype=np.int64)[made]
        roots = list(zip(masses, node_of.tolist(), maps, probs))
        for t in range(T + 1):
            stages.append(stage)
            tails = [] if above is None else [
                tables[stage.tail] for tables in above.stages[t].tables[j:]
            ]
            score = CandidateScorer(instance, j, t, j, stage.probs, tails)
            examined += len(stage.probs) * joints[t]
            stage.grids = grids = score.grids
            if t == T:
                work.append((score.cost, tails, score.edges))
                break
            tail_stage = None if above is None else above.stages[t]
            if above is not None:  # the digits the tail nodes' grids read
                lift = _restriction(instance, j, t, score.edges)
                read = tail_stage.grids.read[stage.tail, :len(lift)]
                read = read @ (lift[:, None] == np.arange(score.edges[-1]))
                stage.grids = grids = DigitGrids(score.grids.read | read, score.grids.radix)
            digits = grids.digits()
            row_of = [score.grids.points(grids.node, digits)]  # each point's step row
            stage.batch = step_kernel(instance, j, t).step(len(score.grids.node), score.pairs)
            computed += len(score.grids.node)
            shared += len(stage.probs) * joints[t] - len(score.grids.node)
            entries += stage.batch.read
            if above is not None:
                lifted = np.hstack([digits[:, lift], tails[0][grids.node]])
                row_of.append(tail_stage.combo_of[
                    tail_stage.grids.points(stage.tail[grids.node], lifted)
                ])
            work.append((score.cost[row_of[0]], tails, score.edges))
            stage, amaps = _expand(instance, j, t, stage, amaps, row_of, tail_stage, caps,
                                   sum(len(done.probs) for done in stages))
    except CapExceeded:
        raise
    except WomError as exc:
        exc.args = (f"agent {j}, stage {t}: {exc}",)
        raise

    for t in range(T, -1, -1):
        (cost, tails, edges), work[t] = work[t], None  # the scratch goes with its stage
        stage = stages[t]
        grids = stage.grids
        if stage.kid is not None:  # padded groups and kids read the trailing zeros
            pz = np.append(stage.batch.mass, 0.0)[stage.groups]
            later = np.append(values, 0.0)
            for b in range(pz.shape[1]):
                cost += (pz[:, b] * later[stage.kid[:, b]])[stage.combo_of]
        least = np.flatnonzero(cost == np.minimum.reduceat(cost, grids.start)[grids.node])
        best = least[np.searchsorted(grids.node[least], np.arange(len(stage.probs)))]  # firsts
        digits = grids.digits(best)
        stage.tables = [  # in the dtype `enumerate_prescription_tables` gives
            digits[:, lo:hi].astype(np.min_scalar_type(size - 1))
            for lo, hi, size in zip(edges, edges[1:], instance.system.control_sizes)
        ] + tails
        if stage.kid is not None:
            stage.win = stage.combo_of[best]
        values = cost[best]

    total = sum(pa * float(values[n]) for pa, n, _, _ in roots)
    widths = tuple(len(done.probs) for done in stages)
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
    paths as (accessible maps, parents, nodes, agent k's beliefs).

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
    probs = np.array([pi for *_, pi in roots])
    for t, stage in enumerate(chain[k].stages):
        walk.append((maps, parent, nodes, probs))
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
        maps = np.hstack([maps[parent], stage.batch.z[groups]])
        probs = stage.batch.probs[groups]
    return PrescriptionStrategy(owner=k, laws=laws, defaults=defaults), walk


def _belief_tree(instance: Instance, k: int, chain: dict, walk: list) -> list:
    """Per path of agent k's emission `walk`, depth first: its stage, its
    accessible realization by variable label and the beliefs of agents k..K,
    agent k's as its steps made it and each higher agent's its tail node's."""
    rows, places = [], []
    for t, (maps, parent, nodes, probs) in enumerate(walk):
        here = np.arange(len(maps))[:, None]  # per path, its ancestors' places and its own
        place = here if t == 0 else np.hstack([place[parent], here])
        places.append(np.pad(place, ((0, 0), (0, len(walk) - 1 - t)), constant_values=-1))
        stacks = [probs]
        for i in range(k + 1, instance.agent_count + 1):
            nodes = chain[i - 1].stages[t].tail[nodes]
            stacks.append(chain[i].stages[t].probs[nodes])
        beliefs = zip(*[stack.tolist() for stack in stacks])
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


def _node_keys(chain: dict, j: int, t: int) -> list:
    """Per node of agent j's stage t, its belief tuple key: the `probs_keys`
    of its own belief, then its tail node's key (agent K's tail -1 reads ())."""
    stage, tails = chain[j].stages[t], _node_keys(chain, j + 1, t) if j + 1 in chain else [()]
    return [(key,) + tails[u] for key, u in zip(probs_keys(stage.probs), stage.tail.tolist())]


def _belief_policy(chain: dict, k: int) -> list:
    """Per node of agent k's pass, by stage and key: its key and its tables for targets 1..k."""
    return [
        {
            "t": t,
            "belief_key": [list(part) for part in keys[n]],
            "tables": {m: rows[n] for m, rows in enumerate(heads, start=1)},
        }
        for t, stage in enumerate(chain[k].stages)
        for keys, heads in [(_node_keys(chain, k, t), [tables.tolist() for tables in stage.tables[:k]])]
        for n in sorted(range(len(keys)), key=keys.__getitem__)
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
        tree=functools.partial(_belief_tree, instance, k, chain, walk),
        policy=functools.partial(_belief_policy, chain, k),
    )


def solve_prescription_dp(instance: Instance, k: int, cap: int | None = None) -> SolveResult:
    """Per-agent backward recursion with inherited higher-agent components."""
    caps, k = resolve_caps(cap), checked_index(k, "agent", 1, instance.agent_count)
    return _dp_result(instance, k, _solve_chain(instance, k, caps))


def solve_common_info_dp(instance: Instance, cap: int | None = None) -> SolveResult:
    """Agent K's recursion as the common-information coordinator; it names no agent."""
    result = solve_prescription_dp(instance, instance.agent_count, cap)
    result.method, result.agent = "common-info", None
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
    k = checked_index(k, "agent", 1, instance.agent_count)
    return _static_result(instance, _dp_result(instance, k, _solve_chain(instance, k, caps)))


def _static_result(instance: Instance, res: SolveResult) -> SolveResult:
    """A horizon-0 chain result for agent k as the static decomposition's row.

    The relaxed value sums, over agent k's t=0 accessible realizations, the
    mass times the least stage cost over every joint table tuple for all K
    targets on agent k's domains, on the grid each realization's belief
    reads. Those tuples number at most agent K's stage-0 joint count, which
    the chain has checked against the cap.
    """
    start = time.perf_counter()
    k = res.agent
    masses, _, probs, _ = _roots(instance, k, None)
    score = CandidateScorer(instance, k, 0, instance.agent_count, probs)
    least = np.minimum.reduceat(score.cost, score.grids.start)
    relaxed_value = math.fsum(mass * m for mass, m in zip(masses, least.tolist()))
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
    same reason. Optima further apart than `COST_TOL` raise `WomError`,
    naming the instance by its `instance_digest`.
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
            attempt("prescription-static", k, lambda k=k: _static_result(instance, dp_row(k)))
        else:
            attempt("prescription-dp", k, lambda k=k: dp_row(k))
    costs = [r["cost"] for r in rows if r["status"] == "ok"]
    spread = max(costs) - min(costs) if costs else 0.0
    if spread > COST_TOL:
        raise WomError(
            f"solver optima disagree by {spread} on instance {instance_digest(instance)}: {rows}"
        )
    return CompareReport(rows=rows, max_spread=spread)
