"""JSON round-trips for strategies and beliefs.

Variable identifiers serialize as [time, agent, kind]; realizations as lists
of ints. All dictionaries are emitted in deterministic key order.

Strategy documents are validated as they are read, like instance documents:
a missing key, a non-list where a list belongs or a value that is not an
integer raises `ShapeMismatch`; a time, agent, owner, target, realization
value or action out of range raises `OutOfRange`; a realization of the
wrong length, or a schema that is not the instance's, raises
`DomainMismatch`.
"""

from __future__ import annotations

from .errors import DomainMismatch, OutOfRange, ShapeMismatch
from .infostruct import VariableId
from .prescription import PrescriptionStrategy, make_prescription
from .sysmodel import ControlStrategy, Instance, _as_int


def _var(v: VariableId):
    return [v.time, v.agent, v.kind]


def _field(block, key: str, what: str):
    if not isinstance(block, dict) or key not in block:
        raise ShapeMismatch(f"{what} has no {key!r}")
    return block[key]


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ShapeMismatch(f"{name} must be a list, got {value!r}")
    return value


def _int(value, name: str) -> int:
    try:
        return _as_int(value, name)
    except TypeError as exc:
        raise ShapeMismatch(str(exc)) from None


def _bounded(value, name: str, high: int, low: int = 0) -> int:
    """An integer in [low, high)."""
    v = _int(value, name)
    if not low <= v < high:
        raise OutOfRange(f"{name} must be in [{low}, {high}), got {v}")
    return v


def _pairs(value, name: str) -> list:
    """A list of [key, value] pairs."""
    for pair in _list(value, name):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ShapeMismatch(f"each of {name} must be a [key, value] pair, got {pair!r}")
    return value


def _realization(instance: Instance, schema, value, name: str) -> tuple:
    sizes = instance.schema_sizes(schema)
    if len(_list(value, name)) != len(sizes):
        raise DomainMismatch(f"{name} {value!r} must have {len(sizes)} values")
    return tuple(_bounded(v, name, n) for v, n in zip(value, sizes))


def _check_schema(block: dict, key: str, schema, where: str):
    """A block's optional copy of a schema must be the instance's."""
    if key in block and block[key] != [_var(v) for v in schema]:
        raise DomainMismatch(f"{where} {key} {block[key]!r} is not the instance's")


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
    if not isinstance(data, dict) or data.get("kind") != "control":
        raise ShapeMismatch("not a control strategy document")
    sys, tables = instance.system, {}
    for block in _list(_field(data, "tables", "control strategy"), "tables"):
        t = _bounded(_field(block, "t", "control table"), "table t", instance.horizon + 1)
        k = _bounded(_field(block, "agent", "control table"), "table agent",
                     sys.agent_count + 1, low=1)
        where = f"table (t={t}, agent={k})"
        schema = instance.info.memory(t, k)
        _check_schema(block, "memory", schema, where)
        tables[(t, k)] = {
            _realization(instance, schema, real, f"{where} realization"):
                _bounded(act, f"{where} action", sys.control_sizes[k - 1])
            for real, act in _pairs(_field(block, "entries", where), f"{where} entries")
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
    if not isinstance(data, dict) or data.get("kind") != "prescription":
        raise ShapeMismatch("not a prescription strategy document")
    info, K = instance.info, instance.agent_count
    owner = _bounded(_field(data, "owner", "prescription strategy"), "owner", K + 1, low=1)
    laws, defaults = {}, {}

    def prescription(t, target, table, name):
        table = [_int(v, name) for v in _list(table, name)]
        return make_prescription(instance, t, owner, target, table)

    for block in _list(_field(data, "laws", "prescription strategy"), "laws"):
        t = _bounded(_field(block, "t", "law"), "law t", instance.horizon + 1)
        target = _bounded(_field(block, "target", "law"), "law target", K + 1, low=1)
        where = f"law (t={t}, target={target})"
        cond_schema = info.conditioning_schema(t, owner, target)
        _check_schema(block, "conditioning", cond_schema, where)
        _check_schema(block, "domain", info.prescription_domain(t, owner, target), where)
        laws[(t, target)] = {
            _realization(instance, cond_schema, cond, f"{where} condition"):
                prescription(t, target, table, f"{where} table")
            for cond, table in _pairs(_field(block, "entries", where), f"{where} entries")
        }
        if "default" in block:
            defaults[(t, target)] = prescription(t, target, block["default"], f"{where} default")
    return PrescriptionStrategy(owner=owner, laws=laws, defaults=defaults)


def strategy_from_dict(instance: Instance, data: dict):
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "control":
        return control_strategy_from_dict(instance, data)
    if kind == "prescription":
        return prescription_strategy_from_dict(instance, data)
    raise ShapeMismatch("strategy document must declare kind control|prescription")
