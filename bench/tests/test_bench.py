"""The benchmark's own checks: seeded generation, self-time arithmetic,
tracing, and a minimal-size smoke run of each workload's correctness gate.

    python3 -m pytest -q bench/tests
"""

import json
import statistics
import time
from pathlib import Path

import pytest

import hostspeed
import run
import spans
import workloads
import womctl
from womctl.prescription import count_strategies
from womctl.sysmodel import instance_digest, instance_from_dict


def _digests(workload, seed):
    return [
        instance_digest(instance_from_dict(op.doc))
        for op in workloads.GENERATORS[workload](seed)
    ]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_instances(workload):
    first = _digests(workload, 7)
    assert first == _digests(workload, 7)
    assert first != _digests(workload, 8)


def test_brute_strategy_counts_do_not_depend_on_the_seed():
    for seed in (0, 1):
        ops = workloads.oracle_brute(seed)
        counts = [count_strategies(instance_from_dict(op.doc), "brute") for op in ops]
        assert counts == [2**20, 2**20, 2**20, 2**22]


def test_self_times_on_synthetic_tree():
    # 0: root [0, 10]
    # 1:   child [1, 3]     2: grandchild [1.5, 2]
    # 3:   child [2, 4]     overlaps child 1, so [1, 4] is covered once
    # 4:   child [6, 7]
    # 5:   child [9, 12]    overhangs the root; only [9, 10] counts
    # 6: second root [20, 21], no children
    parent = [-1, 0, 1, 0, 0, 0, -1]
    start = [0.0, 1.0, 1.5, 2.0, 6.0, 9.0, 20.0]
    end = [10.0, 3.0, 2.0, 4.0, 7.0, 12.0, 21.0]
    got = spans.self_times(parent, start, end)
    assert got == pytest.approx([5.0, 1.5, 0.5, 2.0, 1.0, 3.0, 1.0])


def test_timed_samples_inside_the_block_and_leaves_the_kernel_out():
    clock = time.perf_counter
    started = clock()
    with hostspeed.timed() as timing:
        while clock() - started < 0.5:
            pass
    elapsed = clock() - started
    assert len(timing.samples) >= 5  # before the block, every 0.1 s in it, after it
    inside = sum(timing.samples[1:-1])
    assert timing.seconds == pytest.approx(elapsed - inside, abs=0.02)
    assert timing.kernel_s == statistics.median(timing.samples)
    assert timing.ref_s == pytest.approx(timing.seconds * hostspeed.REFERENCE_S / timing.kernel_s)
    with hostspeed.timed() as short:
        pass
    assert len(short.samples) == hostspeed.MIN_SAMPLES and short.seconds < 0.01


def _smoke(workload, labels):
    ops = [op for op in workloads.GENERATORS[workload](3) if op.label in labels]
    assert sorted(op.label for op in ops) == sorted(labels)
    plain, traced = run.run_pass(womctl, ops)
    assert traced == [] and run.wall(plain) > 0
    assert all(r["kernel_s"] > 0 and r["ref_s"] > 0 for r in plain)
    return {r["op"]: r for r in plain}


def test_smoke_oracle_brute():
    rec = _smoke("oracle_brute", ["d2-0"])
    assert rec["d2-0"]["ok"], rec["d2-0"]["error"]


def test_smoke_fuzz_compare_counts_the_relay_failure():
    labels = ["static-pair-2", "single-agent-3", "linked3-one-2", "relay-repro"]
    rec = _smoke("fuzz_compare", labels)
    for label in labels[:-1]:
        assert rec[label]["ok"], rec[label]["error"]
    relay = rec["relay-repro"]
    assert not relay["ok"] and relay["known"], relay["error"]
    assert relay["error"].startswith("SchemaMismatch")


def test_smoke_pomdp_horizon():
    rec = _smoke("pomdp_horizon", ["pomdp-T4"])
    assert rec["pomdp-T4"]["ok"], rec["pomdp-T4"]["error"]


def test_gate_rejects_a_wrong_optimum():
    op = workloads.fuzz_compare(0)[0]
    report = womctl.solver.compare_agents(instance_from_dict(op.doc))
    report.rows[-1]["cost"] += 1e-6
    assert "misses the oracle" in run.check(op, report)


def test_tracer_records_layers_and_restores_the_package():
    before = womctl.solver.solve_prescription_dp
    ops = [op for op in workloads.pomdp_horizon(0) if op.label == "pomdp-T4"]
    tracer = spans.Tracer()
    plain, traced = run.run_pass(womctl, ops, tracer)
    assert womctl.solver.solve_prescription_dp is before
    assert plain[0]["ok"] and traced[0]["ok"]
    layers = spans.layer_metrics(tracer, 1)
    assert set(layers) == {
        f"{layer}.{name}" for layer, names in spans.LAYER_METRICS.items() for name in names
    }
    assert layers["sysmodel.exact_cost.rollouts"] == 2 ** (2 * 4 + 2)
    assert layers["solver.dp.agent_passes"] == 1
    assert layers["solver.dp.pass_useful_ratio"] == 1.0
    assert 0 < layers["solver.dp.self_s"] < layers["solver.dp.s"]
    assert layers["sysmodel.validate.s"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    layers = [f"{layer}.{name}" for layer, names in spans.LAYER_METRICS.items() for name in names]
    layers.append("trace.overhead_s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, spans.unit(name)) for name in layers
    ]
    setup = hostspeed.Timing()
    setup.seconds, setup.kernel_s = 0.1, hostspeed.REFERENCE_S
    e2e = run.end_to_end([[{"op": "a", "latency_s": 1.0, "ref_s": 1.0, "ok": True}]], [setup])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
