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
    _initial_pass,
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
    keeps the decided `_Stage`s; the roots, four arrays with an entry per t=0
    accessible realization in sorted order: its mass, its stage-0 node, its
    accessible values (a row) and the agent's belief (a row); the value, the
    candidates examined, the steps of the agent's own belief computed, one
    per grid point, and the rest of the full product, each served by the
    step of the grid point that stands for it, the distinct entries,
    (support index, joint control) codes, those steps read from the agent's
    kernels, the nodes per stage and the seconds."""

    stages: list
    roots: tuple
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
    """Agent j's t=0 roots, `belief._initial_pass`'s masses, accessible values
    and beliefs, and the root nodes of agent j + 1's pass `above` at the same
    realizations (-1 for agent K). A(0, j + 1) is a sub-schema of A(0, j): a
    root's tail is found by the row-major code of its values on A(0, j + 1)'s
    columns among the sorted codes of the roots of `above`."""
    values, masses, probs = _initial_pass(instance, j)
    tail = np.full(len(masses), -1)
    if above is not None:
        acc0, acc1 = instance.info.accessible(0, j), instance.info.accessible(0, j + 1)
        strides = np.array(realization_strides(instance.schema_sizes(acc1)), dtype=np.int64)
        _, nodes, above_values, _ = above.roots
        wanted = values[:, [acc0.index(var) for var in acc1]] @ strides
        tail = nodes[np.searchsorted(above_values @ strides, wanted)]
    return masses, values, probs, tail


class _Stage:
    """One stage of agent j's pass, as the pass leaves it.

    Node n is agent j's belief `probs[n]`, as its first branch made it, and
    `tail[n]`, the node of agent j + 1's stage t that holds agents j+1..K
    (-1 for agent K). Its candidates are the points of its grid in `grids`,
    the scorer's, over the (target m <= j, domain row) digits that its
    support reads and, below the horizon, that its tail node's grid reads.
    Once decided, `tables[m - 1][n]` is node n's table for target m, an int
    array per target 1..K. Below the horizon it keeps agent j's step
    `batch`, whose row p is grid point p and whose groups are the branches,
    `kid`, the next-stage node of each group, and `win[n]`, the winning
    point of node n.
    """

    def __init__(self, probs, tail):
        self.probs, self.tail, self.tables = probs, tail, []
        self.grids = self.batch = self.win = self.kid = None


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


def _groups(rows):
    """Per row of a 2-D int array, its group of equal rows, numbered by first
    row, and each group's first row: one stable sort of the rows as raw
    bytes and a test for where the sorted rows change."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")  # a group's first row comes first in it
    ordered = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    first = np.zeros(len(keys), dtype=bool)
    first[order[fresh]] = True
    group = np.empty_like(order)  # a first row's group counts the first rows up to it
    group[order] = (np.cumsum(first) - 1)[order[fresh]][np.cumsum(fresh) - 1]
    return group, np.flatnonzero(first)


def _merge(probs, tail):
    """Nodes from a stack of agent j's beliefs and their tail nodes: per row
    its node, numbered by first row, and each node's first row. Rows merge
    on the integer codes of their beliefs and on their tail node."""
    return _groups(np.hstack([probs_codes(probs), tail[:, None]]))


def _restriction(instance: Instance, j: int, t: int) -> tuple:
    """Per digit of agent j + 1's stage-t targets 1..j, the digit of agent j's
    it restricts to, and agent j's digit count: agent j + 1's domains contain
    agent j's, and agent j numbers its digits target by target."""
    info, lift, edge = instance.info, [], 0
    for m in range(1, j + 1):
        domain = info.prescription_domain(t, j, m)
        wider = info.prescription_domain(t, j + 1, m)
        lift.append(edge + schema_rows(instance, wider, [domain])[0])
        edge += realization_count(instance.schema_sizes(domain))
    return np.concatenate(lift), edge


def _expand(instance, j, t, stage, amaps, lifts, above, caps, before):
    """Stage t + 1 of agent j's pass from `stage`, whose nodes were first
    reached with the accessible maps `amaps`, a row per node.

    Branch g is group g of the stage's step batch: grid point p's branches
    are its row's groups, in new-information order. Below agent K, `lifts[p]`
    is the point of p's tail node's grid in agent j + 1's stage `above`
    that moves agents j+1..K, and a branch's tail node is the kid of that
    point's group with the new information the branch's map gives agent j +
    1. New nodes are numbered by their first branch, the depth-first
    first-visit order, and the first failing branch names the failure.
    Fills `stage.kid`. Returns the new stage and its nodes' maps.
    """
    batch = stage.batch
    point = np.repeat(np.arange(len(batch.start) - 1), np.diff(batch.start))  # per branch
    child = np.hstack([amaps[stage.grids.node[point]], batch.z])
    tail, failed = np.full(len(point), -1), len(point)
    if above is not None:
        new_info = instance.info.new_info(t + 1, j + 1)
        z = child[:, [_map_columns(instance, j, t + 1)[var] for var in new_info]]
        shape = (len(above.batch.start) - 1, *instance.schema_sizes(new_info))
        rows = np.repeat(np.arange(shape[0]), np.diff(above.batch.start))  # per group, its point
        known = np.ravel_multi_index((rows, *above.batch.z.T), shape)  # sorted (point, z) codes
        wanted = np.ravel_multi_index((lifts[point], *z.T), shape)
        found = np.minimum(np.searchsorted(known, wanted), len(known) - 1)
        hit = known[found] == wanted
        tail = above.kid[found]
        failed = np.append(np.flatnonzero(~hit), failed)[0]
    node_of, made = _merge(batch.probs[:failed], tail[:failed])
    _check_branches(before + len(made), caps, j, t + 1)
    if failed < len(point):
        raise WomError(f"agent {j + 1} new information {tuple(z[failed].tolist())} "
                       "impossible on a positive branch")
    stage.kid = node_of
    return _Stage(batch.probs[made], tail[made]), child[made]


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
    supports and, below the horizon, their tails read. Below the horizon,
    each of those points steps agent j's belief alone, through one call of
    the instance's `step_kernel` for (j, t). A point moves agents j+1..K as
    the point of its tail node's grid with the same digits and, for target
    j + 1, the tail node's decided table, whose kids give the branches' tail
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
        masses, amaps, probs, tail = _roots(instance, j, above)
        node_of, made = _merge(probs, tail)
        _check_branches(len(made), caps, j, 0)
        roots = masses, node_of, amaps, probs
        stage, amaps = _Stage(probs[made], tail[made]), amaps[made]
        for t in range(T + 1):
            stages.append(stage)
            tails = [] if above is None else [
                tables[stage.tail] for tables in above.stages[t].tables[j:]
            ]
            tail_stage = None if above is None or t == T else above.stages[t]
            reads = lifts = None
            if tail_stage is not None:  # the digits the tail nodes' grids read
                lift, count = _restriction(instance, j, t)
                reads = tail_stage.grids.read[stage.tail, :len(lift)]
                reads = reads @ (lift[:, None] == np.arange(count))
            score = CandidateScorer(instance, j, t, j, stage.probs, tails, reads)
            examined += len(stage.probs) * joints[t]
            stage.grids = grids = score.grids
            work.append((score.cost, tails, score.edges))
            if t == T:
                break
            if tail_stage is not None:
                lifted = np.hstack([grids.digits()[:, lift], tails[0][grids.node]])
                lifts = tail_stage.grids.points(stage.tail[grids.node], lifted)
            stage.batch = step_kernel(instance, j, t).step(len(grids.node), score.pairs)
            computed += len(grids.node)
            shared += len(stage.probs) * joints[t] - len(grids.node)
            entries += stage.batch.read
            stage, amaps = _expand(instance, j, t, stage, amaps, lifts, tail_stage, caps,
                                   sum(len(done.probs) for done in stages))
    except CapExceeded:
        raise
    except WomError as exc:
        exc.args = (f"agent {j}, stage {t}: {exc}",)
        raise

    for t in range(T, -1, -1):
        (cost, tails, edges), work[t] = work[t], None  # the scratch goes with its stage
        stage = stages[t]
        grids, batch = stage.grids, stage.batch
        if stage.kid is not None:  # each point's branches, added in order
            point = np.repeat(np.arange(len(grids.node)), np.diff(batch.start))
            np.add.at(cost, point, batch.mass * values[stage.kid])
        least = np.flatnonzero(cost == np.minimum.reduceat(cost, grids.start)[grids.node])
        best = least[np.searchsorted(grids.node[least], np.arange(len(stage.probs)))]  # firsts
        digits = grids.digits(best)
        stage.tables = [  # in the dtype `enumerate_prescription_tables` gives
            digits[:, lo:hi].astype(np.min_scalar_type(size - 1))
            for lo, hi, size in zip(edges, edges[1:], instance.system.control_sizes)
        ] + tails
        if stage.kid is not None:
            stage.win = best
        values = cost[best]

    total = sum((masses * values[node_of]).tolist())
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
    children are the groups of its node's winning point, each with its map
    plus the group's new information, in order: a depth-first walk's order
    within the stage, so of paths with one conditioning realization the same
    one writes last. Every realization the walk does not reach gets its
    (stage, target)'s default, the all-zero table.
    """
    laws, defaults, walk, parent = {}, {}, [], None
    _, nodes, maps, probs = chain[k].roots
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
        lo, count = stage.batch.start[wins], np.diff(stage.batch.start)[wins]
        parent = np.repeat(np.arange(len(wins)), count)  # per child, its path
        groups = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count - lo, count)
        nodes = stage.kid[groups]
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
    chain = _solve_chain(instance, k, caps)
    return _static_result(instance, _dp_result(instance, k, chain), chain)


def _static_result(instance: Instance, res: SolveResult, chain: dict) -> SolveResult:
    """A horizon-0 chain result for agent k, from `chain`, as the static decomposition's row.

    The relaxed value sums, over agent k's t=0 accessible realizations, the
    mass times the least stage cost over every joint table tuple for all K
    targets on agent k's domains, on the grid each realization's belief
    reads. Those tuples number at most agent K's stage-0 joint count, which
    the chain has checked against the cap.
    """
    start = time.perf_counter()
    k = res.agent
    masses, _, _, probs = chain[k].roots
    score = CandidateScorer(instance, k, 0, instance.agent_count, probs)
    least = np.minimum.reduceat(score.cost, score.grids.start)
    relaxed_value = math.fsum((masses * least).tolist())
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
            attempt("prescription-static", k,
                    lambda k=k: _static_result(instance, dp_row(k), chain))
        else:
            attempt("prescription-dp", k, lambda k=k: dp_row(k))
    costs = [r["cost"] for r in rows if r["status"] == "ok"]
    spread = max(costs) - min(costs) if costs else 0.0
    if spread > COST_TOL:
        raise WomError(
            f"solver optima disagree by {spread} on instance {instance_digest(instance)}: {rows}"
        )
    return CompareReport(rows=rows, max_spread=spread)
