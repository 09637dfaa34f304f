"""Symbolic information schemas derived from the delay matrix.

Every schema is an ordered, duplicate-free tuple of VariableId in the canonical
(time, agent, kind) order with observations before controls. Schemas depend
only on the delay matrix and the horizon, never on realized values.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import IndexOrder
from .netgraph import DelayMatrix

KIND_OBSERVATION = "Y"
KIND_CONTROL = "U"


class VariableId(NamedTuple):
    time: int
    agent: int
    kind: str  # "Y" or "U"

    def label(self) -> str:
        return f"{self.kind}{self.agent}@{self.time}"


def canonical_key(var: VariableId) -> tuple[int, int, int]:
    return (var.time, var.agent, 0 if var.kind == KIND_OBSERVATION else 1)


InfoSchema = tuple  # tuple[VariableId, ...] in canonical order


def make_schema(variables: Iterable[VariableId]) -> InfoSchema:
    return tuple(sorted(set(variables), key=canonical_key))


def schema_minus(left: InfoSchema, right: InfoSchema) -> InfoSchema:
    drop = set(right)
    return tuple(v for v in left if v not in drop)


def schema_intersect(schemas: list[InfoSchema]) -> InfoSchema:
    keep = set(schemas[0])
    for s in schemas[1:]:
        keep &= set(s)
    return tuple(v for v in schemas[0] if v in keep)


class InfoStructure:
    """All per-agent schemas for one delay matrix and horizon, built eagerly."""

    def __init__(self, delays: DelayMatrix, horizon: int):
        self.delays = delays
        self.horizon = horizon
        K = delays.agent_count
        self.agent_count = K
        self._memory: dict[tuple[int, int], InfoSchema] = {}
        self._accessible: dict[tuple[int, int], InfoSchema] = {}
        self._inaccessible: dict[tuple[int, int, int], InfoSchema] = {}
        self._new_info: dict[tuple[int, int], InfoSchema] = {}
        self._equivalent_state: dict[tuple[int, int], InfoSchema] = {}
        for t in range(horizon + 1):
            for k in range(1, K + 1):
                variables = []
                for j in range(1, K + 1):
                    d = delays.delay(j, k)
                    for s in range(0, t - d + 1):
                        variables.append(VariableId(s, j, KIND_OBSERVATION))
                    for s in range(0, t - d):
                        variables.append(VariableId(s, j, KIND_CONTROL))
                self._memory[(t, k)] = make_schema(variables)
            for k in range(1, K + 1):
                self._accessible[(t, k)] = schema_intersect(
                    [self._memory[(t, j)] for j in range(1, k + 1)]
                )
            for k in range(1, K + 1):
                for i in range(k, K + 1):
                    self._inaccessible[(t, k, i)] = schema_minus(
                        self._memory[(t, k)], self._accessible[(t, i)]
                    )
                self._new_info[(t, k)] = (
                    self._accessible[(0, k)]
                    if t == 0
                    else schema_minus(self._accessible[(t, k)], self._accessible[(t - 1, k)])
                )
            for k in range(1, K + 1):
                variables = []
                for j in range(1, k + 1):
                    variables.extend(self._inaccessible[(t, j, k)])
                for j in range(k + 1, K + 1):
                    variables.extend(self._inaccessible[(t, j, j)])
                self._equivalent_state[(t, k)] = make_schema(variables)

    def memory(self, t: int, k: int) -> InfoSchema:
        return self._memory[(t, k)]

    def accessible(self, t: int, k: int) -> InfoSchema:
        return self._accessible[(t, k)]

    def inaccessible(self, t: int, k: int, i: int) -> InfoSchema:
        if i < k:
            raise IndexOrder(
                f"inaccessible({k},{i}) undefined for i < k; swap the arguments"
            )
        return self._inaccessible[(t, k, i)]

    def new_info(self, t: int, k: int) -> InfoSchema:
        return self._new_info[(t, k)]

    def equivalent_state(self, t: int, k: int) -> InfoSchema:
        """Variables accompanying the system state in agent k's sufficient state.

        The system state X_t itself is a distinguished extra coordinate, kept
        out of the schema; belief supports prepend it.
        """
        return self._equivalent_state[(t, k)]

    def tail_difference(self, t: int, k: int, i: int) -> InfoSchema:
        """Coordinates of agent i's sufficient state that close the gap to agent k's.

        This is the accessible-information difference A(k) minus A(i) (k < i).
        It contains the plain schema difference of the two sufficient states and
        can exceed it: a variable another agent never shares upward may sit in
        both the lower agent's accessible set and the higher agent's own
        unshared block. Conditioning on the full accessible difference is what
        makes the belief factorization exact.
        """
        if not k < i:
            raise IndexOrder("tail difference requires k < i")
        return schema_minus(self.accessible(t, k), self.accessible(t, i))

    def prescription_domain(self, t: int, owner: int, target: int) -> InfoSchema:
        """Input schema of the owner's prescription for the target agent."""
        if target < owner:
            return self.inaccessible(t, target, owner)
        return self.inaccessible(t, target, target)

    def conditioning_schema(self, t: int, owner: int, target: int) -> InfoSchema:
        """Information the owner's prescription law for the target conditions on."""
        if target < owner:
            return self.accessible(t, owner)
        return self.accessible(t, target)

    def index_agents(self) -> tuple[int, ...]:
        """Greedy ordering: largest final memory first, then largest running intersection."""
        T = self.horizon
        remaining = list(range(1, self.agent_count + 1))
        order: list[int] = []
        first = max(remaining, key=lambda k: (len(self._memory[(T, k)]), -k))
        order.append(first)
        remaining.remove(first)
        common = set(self._memory[(T, first)])
        while remaining:
            pick = max(
                remaining, key=lambda k: (len(common & set(self._memory[(T, k)])), -k)
            )
            order.append(pick)
            remaining.remove(pick)
            common &= set(self._memory[(T, pick)])
        return tuple(order)
