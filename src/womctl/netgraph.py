"""Communication graph: validation, minimal delays, and designated information paths.

Agents are indexed 1..K. A link (k, j, delay) ships information from k to j
with the given delay; every agent implicitly reaches herself with delay 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateLink,
    ExplicitSelfLoop,
    NonPositiveDelay,
    NotStronglyConnected,
    ShapeMismatch,
    as_integer,
    checked_index,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Directed communication graph with per-link delays."""

    agent_count: int
    links: tuple[tuple[int, int, int], ...]  # (from, to, delay), 1-based agents


@dataclass(frozen=True)
class DelayMatrix:
    """All-pairs minimal communication delays; rows[j-1][k-1] is the delay from j to k."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def agent_count(self) -> int:
        return len(self.rows)

    def delay(self, source: int, target: int) -> int:
        return self.rows[source - 1][target - 1]


@dataclass(frozen=True)
class InfoPath:
    """A designated minimum-delay route between two agents."""

    agents: tuple[int, ...]
    total_delay: int


def validate_network(spec: NetworkSpec) -> NetworkSpec:
    """Check link sanity and strong connectivity; return the network unchanged."""
    k_count = spec.agent_count
    if k_count < 1:
        raise ShapeMismatch("agent_count must be positive")
    seen = set()
    for frm, to, delay in spec.links:
        if not (1 <= frm <= k_count and 1 <= to <= k_count):
            raise ShapeMismatch(f"link ({frm},{to}) references an unknown agent")
        if frm == to:
            raise ExplicitSelfLoop(f"self-loop ({frm},{to}) must stay implicit")
        as_integer(delay, f"link ({frm},{to}) delay")
        if delay < 1:
            raise NonPositiveDelay(f"link ({frm},{to}) has delay {delay}, expected >= 1")
        if (frm, to) in seen:
            raise DuplicateLink(f"duplicate link ({frm},{to})")
        seen.add((frm, to))
    paths = _all_best_paths(spec)
    for source in range(1, k_count + 1):
        for target in range(1, k_count + 1):
            if paths[source][target] is None:
                raise NotStronglyConnected(source, target)
    return spec


def compute_delay_matrix(spec: NetworkSpec) -> DelayMatrix:
    """Minimum summed link delay for every ordered agent pair (0 on the diagonal)."""
    paths = _all_best_paths(spec)
    k_count = spec.agent_count
    rows = []
    for source in range(1, k_count + 1):
        row = []
        for target in range(1, k_count + 1):
            best = paths[source][target]
            if best is None:
                raise NotStronglyConnected(source, target)
            row.append(best[0])
        rows.append(tuple(row))
    return DelayMatrix(tuple(rows))


def information_path(spec: NetworkSpec, source: int, target: int) -> InfoPath:
    """The designated minimum-delay path; ties broken by smallest agent sequence.
    An agent outside 1..K, a bool or a non-integer raises `OutOfRange`."""
    source = checked_index(source, "source", 1, spec.agent_count)
    target = checked_index(target, "target", 1, spec.agent_count)
    best = _all_best_paths(spec)[source][target]
    if best is None:
        raise NotStronglyConnected(source, target)
    delay, seq = best
    return InfoPath(agents=seq, total_delay=delay)


def validate_delay_matrix(rows) -> DelayMatrix:
    """Validate a directly supplied delay matrix.

    Off-diagonal zeros are accepted (instantaneous visibility, used by static
    instances); the diagonal must be zero and the triangle inequality must hold.
    """
    k_count = len(rows)
    if k_count < 1:
        raise ShapeMismatch("delay matrix must have at least one agent")
    tup = tuple(
        tuple(as_integer(v, f"delay matrix entry ({j + 1},{k + 1})") for k, v in enumerate(row))
        for j, row in enumerate(rows)
    )
    for row in tup:
        if len(row) != k_count:
            raise ShapeMismatch("delay matrix must be square")
    for j in range(k_count):
        if tup[j][j] != 0:
            raise ShapeMismatch(f"delay matrix diagonal entry ({j + 1},{j + 1}) must be 0")
        for k in range(k_count):
            if tup[j][k] < 0:
                raise NonPositiveDelay(f"delay matrix entry ({j + 1},{k + 1}) is negative")
    for j in range(k_count):
        for m in range(k_count):
            for k in range(k_count):
                if tup[j][k] > tup[j][m] + tup[m][k]:
                    raise ShapeMismatch(
                        f"triangle inequality violated at ({j + 1},{m + 1},{k + 1})"
                    )
    return DelayMatrix(tup)


def _all_best_paths(spec: NetworkSpec):
    """Min-plus relaxation keeping, per pair, the smallest (delay, sequence) path.

    Positive link delays keep optimal paths simple, so at most K-1 relaxation
    rounds are needed; sequences compare lexicographically to fix ties.
    """
    k_count = spec.agent_count
    best: dict[int, dict[int, tuple[int, tuple[int, ...]] | None]] = {
        s: {t: None for t in range(1, k_count + 1)} for s in range(1, k_count + 1)
    }
    for s in range(1, k_count + 1):
        best[s][s] = (0, (s,))
    edges = sorted(spec.links)
    changed = True
    while changed:
        changed = False
        for s in range(1, k_count + 1):
            for frm, to, delay in edges:
                via = best[s][frm]
                if via is None or to in via[1]:
                    continue
                cand = (via[0] + delay, via[1] + (to,))
                cur = best[s][to]
                if cur is None or cand < cur:
                    best[s][to] = cand
                    changed = True
    return best
