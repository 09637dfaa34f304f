"""Span tracing of womctl's public functions, installed from outside the package.

`Tracer.installed` replaces each traced function at every import site inside
the loaded `womctl` modules (and `InfoStructure.equivalent_state` on its
class) with a wrapper that records one span: layer name, parent span, start
and end. Spans stay in flat in-memory arrays until `write` saves them. A few
wrappers also read counts off the return value (strategies, candidates, agent
passes) or count the primitive sequences a layer enumerates.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# layer name -> (module, attribute path) of the public function it wraps
TRACED = {
    "infostruct.equivalent_state": ("womctl.infostruct", "InfoStructure.equivalent_state"),
    "belief.stage_cost": ("womctl.belief", "expected_stage_cost"),
    "belief.step": ("womctl.belief", "belief_step"),
    "prescription.joint_control": ("womctl.prescription", "joint_control_strategy"),
    "prescription.derive_complete": ("womctl.prescription", "derive_complete"),
    "sysmodel.exact_cost": ("womctl.sysmodel", "exact_strategy_cost"),
    "sysmodel.feasible": ("womctl.sysmodel", "feasible_schema_realizations"),
    "sysmodel.validate": ("womctl.sysmodel", "validate_instance"),
    "solver.brute": ("womctl.solver", "solve_brute_force"),
    "solver.dp": ("womctl.solver", "solve_prescription_dp"),
    "solver.static": ("womctl.solver", "solve_prescription_static"),
    "solver.compare": ("womctl.solver", "compare_agents"),
}

# per-layer metrics reported by the traced run, in report order
LAYER_METRICS = {
    "infostruct.equivalent_state": ("calls", "s"),
    "belief.stage_cost": ("calls", "s"),
    "belief.step": ("calls", "s"),
    "prescription.joint_control": ("calls", "s"),
    "prescription.derive_complete": ("calls", "s"),
    "sysmodel.exact_cost": ("calls", "s", "rollouts"),
    "sysmodel.feasible": ("calls", "s"),
    "sysmodel.validate": ("s",),
    "solver.brute": ("s", "self_s", "strategies", "strategies_per_s"),
    "solver.dp": (
        "s", "self_s", "candidates", "candidates_per_s", "agent_passes", "pass_useful_ratio",
    ),
    "solver.static": ("s", "candidates"),
    "solver.compare": ("s",),
}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are indexed in the order they were opened, so a parent precedes its
    children and siblings come in start order; overlapping or overhanging
    children are merged and clipped to the parent's interval.
    """
    covered = [0.0] * len(start)
    cover_end = list(start)  # how far each span's children reach so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], cover_end[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cover_end[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def _womctl_modules():
    return [m for name, m in sys.modules.items() if name == "womctl" or name.startswith("womctl.")]


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 if a span of the same layer encloses it
        self.counters: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._open = [0] * len(self.names)  # per layer, spans currently open
        self._patches: list[tuple[object, str, object]] = []
        self._dp_seen: set = set()  # (instance id, agent) passes this pass

    def add(self, layer: str, counter: str, value: float):
        key = (layer, counter)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def end_pass(self):
        """Fold the per-pass distinct DP passes into the counters."""
        self.add("solver.dp", "distinct_passes", len(self._dp_seen))
        self._dp_seen.clear()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        nid = self.names.index(layer)
        stack, open_count = self._stack, self._open
        name_id, parent, start, end, nested = (
            self.name_id, self.parent, self.start, self.end, self.nested,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(open_count[nid] > 0)
            end.append(0.0)
            stack.append(idx)
            open_count[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_count[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_primitives(self, fn):
        """Credit every primitive sequence yielded to the innermost open layer."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            layer = tracer.names[tracer.name_id[tracer._stack[-1]]] if tracer._stack else "-"
            n = 0
            for item in fn(*args, **kwargs):
                n += 1
                yield item
            tracer.add(layer, "rollouts", n)

        return counted

    def _after_brute(self, args, result):
        self.add("solver.brute", "strategies", result.search_size)

    def _after_dp(self, args, result):
        chain = result.extras["chain_examined"]
        self.add("solver.dp", "candidates", sum(chain.values()))
        self.add("solver.dp", "agent_passes", len(chain))
        self._dp_seen.update((id(args[0]), j) for j in chain)

    def _after_static(self, args, result):
        self.add("solver.static", "candidates", result.search_size)

    def _patch_everywhere(self, original, replacement):
        for module in _womctl_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _install(self):
        after = {
            "solver.brute": self._after_brute,
            "solver.dp": self._after_dp,
            "solver.static": self._after_static,
        }
        for layer, (module_name, path) in TRACED.items():
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._span(layer, original, after.get(layer)))
            else:
                original = getattr(module, path)
                self._patch_everywhere(original, self._span(layer, original, after.get(layer)))
        primitives = sys.modules["womctl.sysmodel"].joint_primitives
        self._patch_everywhere(primitives, self._count_primitives(primitives))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; the package is restored on the way out."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, outermost-span seconds and self seconds."""
        selfs = self_times(self.parent, self.start, self.end)
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in TRACED}
        for i, nid in enumerate(self.name_id):
            row = totals[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if not self.nested[i]:
                row["s"] += self.end[i] - self.start[i]
        return totals

    def write(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            nested=np.frombuffer(self.nested, dtype=np.int8),
        )


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics of LAYER_METRICS, per pass of the operation list."""
    totals = tracer.layer_totals()
    count = tracer.counters
    out = {}
    for layer, wanted in LAYER_METRICS.items():
        row = dict(totals[layer])
        for (owner, name), value in count.items():
            if owner == layer:
                row[name] = value
        if layer == "solver.brute":
            row["strategies_per_s"] = _ratio(row.get("strategies", 0), row["s"])
        if layer == "solver.dp":
            row["candidates_per_s"] = _ratio(row.get("candidates", 0), row["s"])
            row["pass_useful_ratio"] = _ratio(
                row.get("distinct_passes", 0), row.get("agent_passes", 0)
            )
        for name in wanted:
            value = row.get(name, 0)
            if not name.endswith(("_per_s", "_ratio")):
                value /= passes
            out[f"{layer}.{name}"] = value
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
