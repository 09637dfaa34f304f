"""Prescription tables, prescription strategies, and strategy translation.

A prescription is a finite lookup table an owner agent forms for a target
agent: it maps the part of the target's memory the owner cannot condition on
to a control. A prescription strategy fixes, per stage and target, one such
table for every realization of the owner's conditioning information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainMismatch, OutOfRange, SchemaMismatch, checked_index
from .infostruct import InfoSchema
from .sysmodel import (
    ControlStrategy,
    Instance,
    enumerate_realizations,
    feasible_schema_realizations,
    realization_count,
    realization_index,
    restrict_realization,
    schema_rows,
)

DEFAULT_TABLE_CAP = 2**20


@dataclass(frozen=True)
class Prescription:
    owner: int
    target: int
    time: int
    domain: InfoSchema
    domain_sizes: tuple[int, ...]
    control_size: int
    table: tuple[int, ...]  # indexed by row-major domain realization


@dataclass(frozen=True)
class CompletePrescription:
    """One owner's prescriptions for every agent at one stage."""

    owner: int
    time: int
    parts: tuple[Prescription, ...]  # targets 1..K in order


@dataclass(frozen=True)
class PrescriptionStrategy:
    """Per (stage, target) law tables keyed by conditioning realizations.

    A law may omit conditioning realizations when its (stage, target) has a
    default prescription, which then stands for every realization it omits.
    """

    owner: int
    laws: dict = field(default_factory=dict)  # (t, target) -> {cond real: Prescription}
    defaults: dict = field(default_factory=dict)  # (t, target) -> Prescription

    def lookup(self, t: int, target: int, cond_real) -> Prescription:
        """The law's entry at one conditioning realization, else the law's default."""
        law, default = self._law(t, target)
        presc = law.get(cond_real, default)
        if presc is None:
            raise DomainMismatch(
                f"law (t={t}, target={target}) missing conditioning realization {cond_real}"
            )
        return presc

    def _law(self, t: int, target: int):
        try:
            law = self.laws[(t, target)]
        except KeyError:
            raise DomainMismatch(f"strategy has no law for (t={t}, target={target})") from None
        return law, self.defaults.get((t, target))

    def part(self, instance: Instance, t: int, target: int):
        """The target's checked stage-t part of `sysmodel.stage_rule`:
        (conditioning schema, law, default, prescription domain). Each
        distinct prescription must have the domain's sizes, one entry per
        domain realization and actions below the control size, and a law
        without a default must cover every conditioning realization."""
        law, default = self._law(t, target)
        owner = checked_index(self.owner, "owner", 1, instance.agent_count)
        cond = instance.info.conditioning_schema(t, owner, target)
        domain = instance.info.prescription_domain(t, owner, target)
        dom_sizes, size = instance.schema_sizes(domain), instance.system.control_sizes[target - 1]
        rows = realization_count(dom_sizes)
        for presc in {id(p): p for p in (*law.values(), default)}.values():  # distinct ones
            if presc is None or presc.domain_sizes == dom_sizes and len(presc.table) == rows and (
                0 <= min(presc.table) <= max(presc.table) < size
            ):
                continue
            at = next((cond_real for cond_real, p in law.items() if p is presc), "default")
            where = f"law (t={t}, target={target}) prescription at {at}"
            if presc.domain_sizes != dom_sizes:
                got = presc.domain_sizes
                raise OutOfRange(f"{where} has domain sizes {got}, expected {dom_sizes}")
            if len(presc.table) != rows:
                raise OutOfRange(f"{where} has {len(presc.table)} entries, expected {rows}")
            row, u = next((row, u) for row, u in enumerate(presc.table) if not 0 <= u < size)
            raise OutOfRange(f"{where} maps row {row} to invalid action {u}")
        if default is None:
            for cond_real in enumerate_realizations(instance.schema_sizes(cond)):
                self.lookup(t, target, cond_real)  # raises at the first one missing
        return cond, law, default, domain


def _prescription_shape(instance: Instance, t, owner, target) -> tuple:
    """The checked (t, owner, target), and the domain, its sizes and the
    target's control size of the owner's stage-t prescriptions for the target."""
    t = checked_index(t, "time", 0, instance.horizon)
    owner = checked_index(owner, "owner", 1, instance.agent_count)
    target = checked_index(target, "target", 1, instance.agent_count)
    domain = instance.info.prescription_domain(t, owner, target)
    return (t, owner, target, domain, instance.schema_sizes(domain),
            instance.system.control_sizes[target - 1])


def make_prescription(
    instance: Instance, t: int, owner: int, target: int, table
) -> Prescription:
    t, owner, target, domain, sizes, control_size = _prescription_shape(instance, t, owner, target)
    table = tuple(int(v) for v in table)
    if len(table) != realization_count(sizes):
        raise DomainMismatch(
            f"prescription ({owner}->{target}, t={t}) needs "
            f"{realization_count(sizes)} entries, got {len(table)}"
        )
    if any(not (0 <= v < control_size) for v in table):
        raise OutOfRange(f"prescription ({owner}->{target}, t={t}) action out of range")
    return Prescription(owner, target, t, domain, sizes, control_size, table)


def apply_prescription(p: Prescription, realization) -> int:
    if len(realization) != len(p.domain_sizes) or any(
        not (0 <= v < s) for v, s in zip(realization, p.domain_sizes)
    ):
        raise OutOfRange(
            f"realization {tuple(realization)} outside domain sizes {p.domain_sizes}"
        )
    return p.table[realization_index(p.domain_sizes, realization)]


def prescription_space_size(domain_sizes, control_size: int) -> int:
    return control_size ** realization_count(domain_sizes)


def enumerate_prescription_tables(domain_sizes, control_size: int, cap: int = DEFAULT_TABLE_CAP):
    """All tables over the domain as rows of the narrowest unsigned dtype, in
    lexicographic order: row r holds the base-`control_size` digits of r, the
    first entry slowest. Widen the entries before weighting them."""
    required = prescription_space_size(domain_sizes, control_size)
    if required > cap:
        raise CapExceeded(required, cap, "prescription enumeration")
    rows, digits = realization_count(domain_sizes), np.arange(control_size)[:, None]
    tables = np.empty((required, rows), dtype=np.min_scalar_type(control_size - 1))
    for k in range(rows):  # split row numbers into (higher digits, digit k, lower digits)
        tables[:, k].reshape(control_size**k, control_size, -1)[...] = digits
    return tables


def enumerate_prescriptions(
    instance: Instance, t: int, owner: int, target: int, cap: int = DEFAULT_TABLE_CAP
):
    """Stream of all prescriptions the owner could form for the target at stage t."""
    t, owner, target, domain, sizes, control_size = _prescription_shape(instance, t, owner, target)
    for table in enumerate_prescription_tables(sizes, control_size, cap).tolist():
        yield Prescription(owner, target, t, domain, sizes, control_size, tuple(table))


def count_strategies(instance: Instance, mode) -> int:
    """Size of the search space: mode 'brute' or an agent index.

    Brute force counts one table per feasible memory realization per stage and
    agent. For agent k the count sums, per stage and per feasible conditioning
    realization, the product of the prescription-table counts searched jointly.
    """
    sys = instance.system
    if mode == "brute":
        total = 1
        for t in range(instance.horizon + 1):
            for k in range(1, sys.agent_count + 1):
                feas = feasible_schema_realizations(instance, instance.info.memory(t, k))
                total *= sys.control_sizes[k - 1] ** len(feas)
        return total
    k = checked_index(mode, "agent", 1, sys.agent_count)
    total = 0
    for t in range(instance.horizon + 1):
        feas = feasible_schema_realizations(instance, instance.info.accessible(t, k))
        per = 1
        for target in range(1, sys.agent_count + 1):
            domain = instance.info.prescription_domain(t, k, target)
            per *= prescription_space_size(
                instance.schema_sizes(domain), sys.control_sizes[target - 1]
            )
        total += len(feas) * per
    return total


# -- conversions between prescriptions and control laws ------------------------


def induced_control_tables(instance: Instance, psi: PrescriptionStrategy, agent: int):
    """Full memory-realization tables for one agent's actions under psi.

    The conditioning schema and the prescription domain partition the
    agent's memory, so every memory realization's action is one entry of the
    matrix whose rows are the law's prescription tables in conditioning
    order, at the realization's conditioning row and domain row.
    """
    info = instance.info
    tables = {}
    for t in range(instance.horizon + 1):
        cond, law, default, domain = psi.part(instance, t, agent)
        mem = info.memory(t, agent)
        rows = [
            law.get(cond_real, default).table
            for cond_real in enumerate_realizations(instance.schema_sizes(cond))
        ]
        row, col = schema_rows(instance, mem, [cond, domain])
        actions = np.array(rows, dtype=np.int64)[row, col]
        tables[t] = dict(zip(enumerate_realizations(instance.schema_sizes(mem)), actions.tolist()))
    return tables


def strategy_to_control_law(instance: Instance, psi: PrescriptionStrategy) -> ControlStrategy:
    """The owner's own control-law component induced by psi."""
    k = psi.owner
    return ControlStrategy(
        tables={(t, k): tab for t, tab in induced_control_tables(instance, psi, k).items()}
    )


def joint_control_strategy(instance: Instance, psi: PrescriptionStrategy) -> ControlStrategy:
    """The full-system control strategy induced by one agent's prescription strategy."""
    tables = {}
    for agent in range(1, instance.agent_count + 1):
        for t, tab in induced_control_tables(instance, psi, agent).items():
            tables[(t, agent)] = tab
    return ControlStrategy(tables=tables)


def control_law_to_strategy(
    instance: Instance, strategy: ControlStrategy, k: int
) -> PrescriptionStrategy:
    """Rebuild agent k's prescription strategy from a full control strategy.

    The diagonal component splits the owner's memory into conditioning and
    table input; components for other targets apply the same construction to
    each target's own law through the matching memory partition. Each
    target's control table is read in memory order and scattered into the
    (conditioning, domain) matrix whose rows are the law's tables.
    """
    info, k = instance.info, checked_index(k, "agent", 1, instance.agent_count)
    laws = {}
    for t in range(instance.horizon + 1):
        for target in range(1, instance.agent_count + 1):
            cond = info.conditioning_schema(t, k, target)
            domain = info.prescription_domain(t, k, target)
            mem = info.memory(t, target)
            _, g_table, _, _ = strategy.part(instance, t, target)
            try:
                actions = [g_table[r] for r in enumerate_realizations(instance.schema_sizes(mem))]
            except KeyError as exc:
                raise DomainMismatch(
                    f"strategy table (t={t}, agent={target}) missing realization {exc.args[0]}"
                ) from None
            cond_sizes, dom_sizes = instance.schema_sizes(cond), instance.schema_sizes(domain)
            tables = np.empty(
                (realization_count(cond_sizes), realization_count(dom_sizes)), dtype=np.int64
            )
            tables[tuple(schema_rows(instance, mem, [cond, domain]))] = actions
            laws[(t, target)] = {
                cond_real: make_prescription(instance, t, k, target, table)
                for cond_real, table in zip(enumerate_realizations(cond_sizes), tables.tolist())
            }
    return PrescriptionStrategy(owner=k, laws=laws)


def translate_strategy(
    instance: Instance, src: PrescriptionStrategy, i: int
) -> PrescriptionStrategy:
    """Agent i's prescription strategy producing the same actions as src everywhere."""
    if checked_index(i, "agent", 1, instance.agent_count) == src.owner:
        return src
    return control_law_to_strategy(instance, joint_control_strategy(instance, src), i)


def derive_complete(
    instance: Instance, theta: CompletePrescription, i: int
) -> CompletePrescription:
    """Re-key a complete prescription to a higher-indexed owner by projection.

    Valid only for i >= owner: every target domain of the new owner contains
    the corresponding source domain, so tables re-key by dropping coordinates.
    """
    if i < theta.owner:
        raise SchemaMismatch("complete prescriptions only project to higher owners")
    if i == theta.owner:
        return theta
    t = theta.time
    parts = []
    for target in range(1, instance.agent_count + 1):
        src = theta.parts[target - 1]
        dst_domain = instance.info.prescription_domain(t, i, target)
        if not set(src.domain) <= set(dst_domain):
            raise SchemaMismatch(
                f"cannot project prescription for target {target}: "
                f"source domain is not contained in the new domain"
            )
        (row,) = schema_rows(instance, dst_domain, [src.domain])
        table = tuple(np.take(src.table, row).tolist())
        dst_sizes = instance.schema_sizes(dst_domain)
        parts.append(Prescription(i, target, t, dst_domain, dst_sizes, src.control_size, table))
    return CompletePrescription(owner=i, time=t, parts=tuple(parts))


def complete_prescription_at(
    instance: Instance, psi: PrescriptionStrategy, t: int, accessible_real
) -> CompletePrescription:
    """The owner's complete prescription realized at one accessible-information value."""
    k = checked_index(psi.owner, "owner", 1, instance.agent_count)
    t = checked_index(t, "time", 0, instance.horizon)
    own = instance.info.accessible(t, k)
    parts = []
    for target in range(1, instance.agent_count + 1):
        cond = instance.info.conditioning_schema(t, k, target)
        cond_real = restrict_realization(own, accessible_real, cond)
        parts.append(psi.lookup(t, target, cond_real))
    return CompletePrescription(owner=k, time=t, parts=tuple(parts))
