"""The benchmark's span tracer (`bench/spans.py`) wraps womctl functions by
module and attribute name: the layers of its `TRACED` table, and
`sysmodel.joint_primitives`, whose primitive sequences it counts. Every name
it wraps must resolve, so that a rename in the package fails here rather than
only in a benchmark run."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    counted = {"primitive count": ("womctl.sysmodel", "joint_primitives")}
    for layer, (module_name, path) in {**spans.TRACED, **counted}.items():
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{layer}: {module_name}.{path}")
    assert missing == []
