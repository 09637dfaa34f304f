"""JSON round-trips for strategies and beliefs.

Variable identifiers serialize as [time, agent, kind]; realizations as lists
of ints. All dictionaries are emitted in deterministic key order.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .infostruct import VariableId
from .prescription import PrescriptionStrategy, make_prescription
from .sysmodel import ControlStrategy, Instance


def _var(v: VariableId):
    return [v.time, v.agent, v.kind]


def control_strategy_to_dict(instance: Instance, strategy: ControlStrategy) -> dict:
    tables = []
    for (t, k) in sorted(strategy.tables):
        schema = instance.info.memory(t, k)
        entries = [
            [list(real), int(act)] for real, act in sorted(strategy.tables[(t, k)].items())
        ]
        tables.append(
            {"t": t, "agent": k, "memory": [_var(v) for v in schema], "entries": entries}
        )
    return {"kind": "control", "tables": tables}


def control_strategy_from_dict(instance: Instance, data: dict) -> ControlStrategy:
    if data.get("kind") != "control":
        raise ShapeMismatch("not a control strategy document")
    tables = {}
    for block in data["tables"]:
        t, k = int(block["t"]), int(block["agent"])
        tables[(t, k)] = {
            tuple(int(v) for v in real): int(act) for real, act in block["entries"]
        }
    return ControlStrategy(tables=tables)


def prescription_strategy_to_dict(instance: Instance, psi: PrescriptionStrategy) -> dict:
    """Each law's own entries, and its `"default"` table when it has one."""
    info, laws = instance.info, []
    for (t, target), law in sorted(psi.laws.items()):
        block = {
            "t": t,
            "target": target,
            "conditioning": [_var(v) for v in info.conditioning_schema(t, psi.owner, target)],
            "domain": [_var(v) for v in info.prescription_domain(t, psi.owner, target)],
            "entries": [[list(cond), list(presc.table)] for cond, presc in sorted(law.items())],
        }
        if (t, target) in psi.defaults:
            block["default"] = list(psi.defaults[(t, target)].table)
        laws.append(block)
    return {"kind": "prescription", "owner": psi.owner, "laws": laws}


def prescription_strategy_from_dict(instance: Instance, data: dict) -> PrescriptionStrategy:
    """The inverse of `prescription_strategy_to_dict`. A law without a
    `"default"` table must list every conditioning realization."""
    if data.get("kind") != "prescription":
        raise ShapeMismatch("not a prescription strategy document")
    owner = int(data["owner"])
    laws, defaults = {}, {}
    for block in data["laws"]:
        t, target = int(block["t"]), int(block["target"])
        laws[(t, target)] = {
            tuple(int(v) for v in cond): make_prescription(instance, t, owner, target, table)
            for cond, table in block["entries"]
        }
        if "default" in block:
            defaults[(t, target)] = make_prescription(instance, t, owner, target, block["default"])
    return PrescriptionStrategy(owner=owner, laws=laws, defaults=defaults)


def strategy_from_dict(instance: Instance, data: dict):
    if data.get("kind") == "control":
        return control_strategy_from_dict(instance, data)
    if data.get("kind") == "prescription":
        return prescription_strategy_from_dict(instance, data)
    raise ShapeMismatch("strategy document must declare kind control|prescription")
