import copy
import json

import hypothesis
import hypothesis.strategies as st
import pytest

from helpers import pomdp_dict
from oracles import dp_reference
from womctl.cli import main
from womctl.instances import BUNDLED, d2_dict, load_d2, static3_dict
from womctl.solver import compare_agents
from womctl.sysmodel import instance_from_dict


@pytest.fixture()
def d2_path(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(d2_dict()))
    return str(path)


@pytest.fixture()
def pomdp7_path(tmp_path):
    # 2^43690 brute-force strategies: the count has more digits than Python prints
    path = tmp_path / "pomdp7.json"
    path.write_text(json.dumps(pomdp_dict(7)))
    return str(path)


@pytest.fixture()
def static3_path(tmp_path):
    path = tmp_path / "static3.json"
    path.write_text(json.dumps(static3_dict()))
    return str(path)


def run(args):
    return main(args)


_DROP = object()


def _mutated(doc, path, value):
    """A deep copy of `doc` with the field at `path` set to `value`, or removed for `_DROP`."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def test_validate_ok(d2_path, capsys):
    assert run(["validate", d2_path]) == 0
    assert "instance ok" in capsys.readouterr().out


def test_validate_dangling_link(tmp_path, capsys):
    doc = d2_dict()
    doc["network"]["links"] = doc["network"]["links"][:1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "2" in err and "1" in err  # names the unreachable pair


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("system", "cost", 0, 0, 0), float("nan"), "cost entries must be finite"),
        (("system", "cost", 1, 1, 2), float("inf"), "cost entries must be finite"),
        (("system", "transition", 0, 0, 0, 0), 0.7, "transition entries must be integers"),
        (("system", "observation", 0, 0, 0, 0), 0.7, "observation[1] entries must be integers"),
        (("system", "state_size"), 2.5, "state_size must be an integer"),
        (("system", "initial_probs", 0), float("nan"), "initial_probs"),
        (("network", "links", 0, "delay"), 1.5, "link delay must be an integer"),
        (("network", "agents"), "two", "malformed instance document"),
        (("system", "state_size"), 0, "state_size must be >= 1"),
        (("system", "control_sizes"), [2, 0], "control_sizes must be >= 1, got [2, 0]"),
        (("system", "observation_sizes"), [0, 2], "observation_sizes must be >= 1"),
        (("system", "disturbance", "size"), -1, "disturbance size must be >= 1"),
        (("system", "noises", 1, "size"), 0, "noise sizes must be >= 1"),
        (("system", "state_size"), "2",
         "malformed instance document: state_size must be numeric, got '2'"),
        (("system", "initial_probs"), ["0.6", "0.4"],
         "malformed instance document: initial_probs must be numeric, got '0.6'"),
        (("system", "control_sizes"), [True, 2],
         "malformed instance document: control_sizes must be numeric, got True"),
        (("system", "horizon"), False,
         "malformed instance document: horizon must be numeric, got False"),
        (("system", "cost", 0, 1, 2), "1.0",
         "malformed instance document: cost must be numeric, got '1.0'"),
        (("system", "transition", 0, 0, 0, 1), True,
         "malformed instance document: transition must be numeric, got True"),
        (("system", "disturbance", "probs_per_t"), [0.7, "0.3"],
         "malformed instance document: disturbance must be numeric, got '0.3'"),
        (("system", "noises", 0, "probs_per_t"), [None],
         "malformed instance document: noise[1] must be numeric, got None"),
        (("network", "links", 0, "delay"), True,
         "malformed instance document: link delay must be numeric, got True"),
        (("system", "noises", 0, "probs_per_t"), [0.5, 0.5],
         "noise[1] probs must have shape (2, 1), got (2, 2)"),
        (("system", "disturbance", "probs_per_t"), [[0.7, 0.3], [0.7, 0.3]],
         "disturbance probs must have shape (1, 2), got (2, 2)"),
        (("system", "horizon"), -1, "horizon must be >= 0"),
        (("system", "horizon"), 10**400,
         f"cost has shape (2, 2, 4), horizon {10**400} needs {10**400 + 1} stages"),
        (("system", "horizon"), 2**62,
         f"cost has shape (2, 2, 4), horizon {2**62} needs {2**62 + 1} stages"),
        (("system", "cost", 0, 0, 0), 10**400,
         "malformed instance document: int too large to convert to float"),
    ],
    ids=["nan-cost", "inf-cost", "fractional-transition", "fractional-observation",
         "float-state-size", "nan-probability", "fractional-delay", "non-numeric-agents",
         "zero-state-size", "zero-control-size", "zero-observation-size",
         "negative-disturbance-size", "zero-noise-size", "string-size", "string-probs",
         "boolean-size", "boolean-horizon", "string-cost", "boolean-transition",
         "string-disturbance", "null-noise", "boolean-delay", "noise-table-shape",
         "disturbance-table-shape", "negative-horizon", "huge-horizon",
         "horizon-past-cost-stages", "huge-cost"],
)
def test_validate_rejects_malformed_numbers(tmp_path, capsys, path, value, message):
    doc = d2_dict()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, path, value, message",
    [
        pytest.param("d2", ("network", "agents"), 0, "agent_count must be positive",
                     id="zero-agents"),
        pytest.param("d2", ("network", "links", 0, "to"), 9,
                     "link (1,9) references an unknown agent", id="link-to-agent-9"),
        pytest.param("static3", ("network", "delay_matrix", 1), [0, 0],
                     "delay matrix must be square", id="ragged-delay-matrix"),
        pytest.param("d2", ("system", "observation_sizes"), [2, 2, 2],
                     "per-agent size lists must all have length K", id="three-observation-sizes"),
        pytest.param("d2", ("system", "initial_probs"), [1.0],
                     "initial_probs length must equal state_size", id="short-initial-probs"),
        pytest.param("d2", ("system", "transition", 0), [[[0, 1]] * 4],
                     "transition shape (1, 1, 4, 2) != (1,2,4,2)", id="one-state-transition"),
        pytest.param("d2", ("system", "transition", 0, 1, 2, 0), 2,
                     "transition entries out of state range", id="transition-to-state-2"),
        pytest.param("d2", ("system", "cost"), [[[3.0, 4.0, 4.0, 5.0]]] * 2,
                     "cost shape (2, 1, 4) != (2,2,4)", id="one-state-cost"),
        pytest.param("d2", ("system", "observation", 1), [[[0], [1]]],
                     "observation[2] shape (1, 2, 1) is wrong", id="one-stage-observation"),
        pytest.param("d2", ("system", "observation", 0, 1, 0, 0), 2,
                     "observation[1] entries out of range", id="observation-2"),
        pytest.param("d2", ("system", "transition"), _DROP,
                     "transition table required when horizon > 0", id="no-transition"),
        pytest.param("static3", ("network", "agents"), 2,
                     "network.agents is 2 but the delay matrix has 3 rows", id="agents-2-of-3"),
        pytest.param("d2", ("network", "links"), _DROP,
                     "network must carry either links or delay_matrix", id="no-links"),
    ],
)
def test_validate_rejects_a_broken_field(tmp_path, capsys, base, path, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_mutated(BUNDLED[base](), path, value)))
    assert run(["validate", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _horizon0_no_controls() -> dict:
    """One agent, horizon 0, and a control size of 0: an empty cost row per state."""
    return {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": 0,
            "state_size": 2,
            "control_sizes": [0],
            "observation_sizes": [1],
            "noises": [{"size": 1, "probs_per_t": [1.0]}],
            "initial_probs": [0.5, 0.5],
            "observation": [[[[0], [0]]]],
            "cost": [[[], []]],
        },
    }


@pytest.mark.parametrize(
    "args",
    [
        ["validate"],
        ["solve", "--method", "brute"],
        ["solve", "--method", "prescription", "--agent", "1"],
        ["compare"],
    ],
    ids=["validate", "brute", "prescription", "compare"],
)
def test_zero_control_size_is_rejected_by_every_command(tmp_path, capsys, args):
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(_horizon0_no_controls()))
    assert run([args[0], str(path)] + args[1:]) == 3
    assert "control_sizes must be >= 1, got [0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--time", "99", "time 99 is out of range 0..1"),
        ("--time", "-1", "time -1 is out of range 0..1"),
        ("--agent", "0", "agent 0 is out of range 1..2"),
        ("--agent", "9", "agent 9 is out of range 1..2"),
    ],
)
def test_schema_rejects_an_out_of_range_time_or_agent(d2_path, capsys, option, value, message):
    assert run(["schema", d2_path, option, value]) == 3
    assert message in capsys.readouterr().err


def _no_agents():
    """A horizon-0 document whose delay matrix and per-agent lists are empty."""
    return {
        "network": {"delay_matrix": []},
        "system": {
            "horizon": 0,
            "state_size": 1,
            "control_sizes": [],
            "observation_sizes": [],
            "noises": [],
            "initial_probs": [1.0],
            "observation": [],
            "cost": [[[0.0]]],
        },
    }


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_a_document_with_no_agents_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_no_agents()))
    assert run([command, str(path)]) == 3
    assert "delay matrix must have at least one agent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["validate", "--report"], ["solve", "--method", "brute", "--emit-strategy"]],
    ids=["report", "emit-strategy"],
)
def test_an_unwritable_output_path_is_an_error(d2_path, tmp_path, capsys, args):
    missing = tmp_path / "missing" / "out.json"
    assert run([args[0], d2_path, *args[1:], str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 1


def test_delays_reports_matrix(d2_path, capsys, tmp_path):
    report = tmp_path / "delays.json"
    assert run(["delays", d2_path, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["results"]["delay_matrix"] == [[0, 1], [1, 0]]
    assert data["command"] == "delays"
    assert data["instance_digest"]


def test_digest_stable_across_runs(d2_path, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["counts", d2_path, "--report", str(p1)])
    run(["counts", d2_path, "--report", str(p2)])
    d1 = json.loads(p1.read_text())
    d2r = json.loads(p2.read_text())
    assert d1["instance_digest"] == d2r["instance_digest"]
    assert d1["results"] == d2r["results"]


def test_counts_static(static3_path, tmp_path):
    report = tmp_path / "counts.json"
    assert run(["counts", static3_path, "--report", str(report)]) == 0
    counts = json.loads(report.read_text())["results"]["counts"]
    assert counts == {
        "brute": "16384",
        "agent_1": "64",
        "agent_2": "64",
        "agent_3": "256",
    }


def test_schema_json(static3_path, tmp_path):
    report = tmp_path / "schema.json"
    assert run(["schema", static3_path, "--time", "0", "--agent", "1", "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["results"]["schemas"]
    assert rows[0]["memory"] == ["Y1@0", "Y2@0", "Y3@0"]


def test_solve_emit_evaluate_simulate(d2_path, tmp_path, capsys):
    strategy = tmp_path / "psi.json"
    beliefs = tmp_path / "beliefs.json"
    assert (
        run(
            [
                "solve",
                d2_path,
                "--method",
                "prescription",
                "--agent",
                "1",
                "--emit-strategy",
                str(strategy),
                "--emit-beliefs",
                str(beliefs),
            ]
        )
        == 0
    )
    tree = dp_reference(load_d2(), 1)["belief_tree"]
    assert json.loads(beliefs.read_text()) == {"belief_tree": tree}
    assert run(["evaluate", d2_path, "--strategy", str(strategy)]) == 0
    out = capsys.readouterr().out
    assert "3.300000000" in out
    assert (
        run(["simulate", d2_path, "--strategy", str(strategy), "--samples", "2000", "--seed", "1"])
        == 0
    )


def test_solve_brute_emits_control_strategy(d2_path, tmp_path):
    strategy = tmp_path / "g.json"
    assert run(["solve", d2_path, "--method", "brute", "--emit-strategy", str(strategy)]) == 0
    doc = json.loads(strategy.read_text())
    assert doc["kind"] == "control"
    assert run(["evaluate", d2_path, "--strategy", str(strategy)]) == 0


@pytest.mark.parametrize(
    "name, args, method, agent",
    [
        ("static3", ["--method", "common-info"], "common-info", None),
        ("d2", ["--method", "common-info"], "common-info", None),
        ("static3", ["--method", "prescription", "--agent", "1"], "prescription-static", 1),
        ("static3", ["--method", "prescription", "--agent", "3"], "prescription-static", 3),
        ("d2", ["--method", "prescription", "--agent", "2"], "prescription-dp", 2),
    ],
)
def test_solve_costs_equal_the_compare_rows(tmp_path, capsys, name, args, method, agent):
    doc = BUNDLED[name]()
    path, report = tmp_path / f"{name}.json", tmp_path / "solve.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), *args, "--report", str(report)]) == 0
    solved = json.loads(report.read_text())["results"]["solve"]
    assert solved["method"] == method  # common-info reports agent K; its compare row has none
    rows = compare_agents(instance_from_dict(doc)).rows
    [row] = [r for r in rows if (r["method"], r["agent"]) == (method, agent)]
    assert solved["optimal_cost"] == row["cost"]
    assert f"optimal cost {row['cost']:.9f}" in capsys.readouterr().out


def test_solve_prescription_needs_an_agent(d2_path, capsys):
    assert run(["solve", d2_path, "--method", "prescription"]) == 3
    assert capsys.readouterr().err == "error: --agent is required for the prescription method\n"


def test_solve_cap_exit_code(d2_path):
    assert run(["solve", d2_path, "--method", "brute", "--cap", "10"]) == 2


def test_cap_env_override(d2_path, monkeypatch):
    monkeypatch.setenv("WOMCTL_CAP", "10")
    assert run(["solve", d2_path, "--method", "brute"]) == 2


_CAP_ENV_ERRORS = {
    "abc": "WOMCTL_CAP must be an integer, got 'abc'",
    "0": "WOMCTL_CAP must be at least 1, got 0",
    "-5": "WOMCTL_CAP must be at least 1, got -5",
}


@pytest.mark.parametrize("value", list(_CAP_ENV_ERRORS))
def test_cap_env_rejects_a_malformed_value(d2_path, monkeypatch, capsys, value):
    monkeypatch.setenv("WOMCTL_CAP", value)
    assert run(["solve", d2_path, "--method", "brute"]) == 3
    assert capsys.readouterr().err == f"error: {_CAP_ENV_ERRORS[value]}\n"


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cap_option_rejects_a_value_below_one(d2_path, capsys, command):
    args = [command, d2_path, "--cap", "-5"]
    if command == "solve":
        args += ["--method", "prescription", "--agent", "1"]
    assert run(args) == 3
    assert capsys.readouterr().err == "error: cap must be at least 1, got -5\n"


def test_solve_brute_long_horizon_hits_the_cap(pomdp7_path, capsys):
    assert run(["solve", pomdp7_path, "--method", "brute"]) == 2
    assert capsys.readouterr().err == (
        "error: brute-force enumeration needs more than 16777216 candidates, "
        "cap is 16777216\n"
    )


def test_compare_long_horizon_skips_brute(pomdp7_path, tmp_path):
    report = tmp_path / "cmp.json"
    assert run(["compare", pomdp7_path, "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["results"]["rows"]
    assert [(r["method"], r["status"]) for r in rows] == [
        ("brute", "skipped"), ("common-info", "ok"), ("prescription-dp", "ok"),
    ]
    assert rows[0]["reason"].startswith("brute-force enumeration needs more than")


def test_counts_long_horizon(pomdp7_path, tmp_path, capsys):
    report = tmp_path / "counts.json"
    assert run(["counts", pomdp7_path, "--report", str(report)]) == 0
    counts = json.loads(report.read_text())["results"]["counts"]
    assert counts == {"brute": "more than 10^13152", "agent_1": "87380"}
    assert "brute      more than 10^13152" in capsys.readouterr().out


def test_compare_command(d2_path, tmp_path):
    report = tmp_path / "cmp.json"
    assert run(["compare", d2_path, "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["results"]["rows"]
    assert {r["method"] for r in rows} == {"brute", "common-info", "prescription-dp"}


def test_demo_static3(tmp_path):
    report = tmp_path / "demo.json"
    assert run(["demo", "static3", "--outdir", str(tmp_path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())["results"]["demo"]["static3"]
    assert data["counts"]["brute"] == "16384"
    assert data["counts"]["agent_3"] == "256"
    assert data["counts"]["agent_2"] == "64"
    assert data["counts"]["agent_1"] == "64"
    ok = [r for r in data["compare"] if r["status"] == "ok"]
    costs = {round(r["cost"], 9) for r in ok}
    assert len(costs) == 1
    # the demo instance file round-trips through the parser
    from womctl.sysmodel import load_instance

    load_instance(str(tmp_path / "static3.json"))


def test_compare_and_demo_print_the_same_rows(static3_path, tmp_path, capsys):
    def rows(args):
        assert run(args) == 0
        return [line for line in capsys.readouterr().out.splitlines() if "searched" in line]

    compared = rows(["compare", static3_path])
    assert len(compared) == 5  # brute, common-info and three static rows
    assert rows(["demo", "static3", "--outdir", str(tmp_path)]) == compared


def test_prescription_round_trip_long_horizon(tmp_path, capsys):
    from womctl.solver import solve_prescription_dp
    from womctl.sysmodel import load_instance

    path = tmp_path / "pomdp7.json"
    path.write_text(json.dumps(pomdp_dict(7)))
    strategy = tmp_path / "psi.json"
    args = ["solve", str(path), "--method", "prescription", "--agent", "1"]
    assert run(args + ["--emit-strategy", str(strategy)]) == 0
    solved = capsys.readouterr().out.split("optimal cost ")[1].split(",")[0]
    assert run(["evaluate", str(path), "--strategy", str(strategy)]) == 0
    assert f"exact expected cost {solved}" in capsys.readouterr().out
    # on disk each law holds its own entries and its default
    psi = solve_prescription_dp(load_instance(str(path)), 1).prescription_strategy
    laws = json.loads(strategy.read_text())["laws"]
    assert len(laws) == 8
    for law in laws:
        own = psi.laws[(law["t"], law["target"])]
        assert [cond for cond, _ in law["entries"]] == [list(r) for r in sorted(own)]
        assert law["default"] == list(psi.defaults[(law["t"], law["target"])].table)


@pytest.mark.parametrize("which", ["d2", "pomdp4"])
def test_simulate_prescription_builds_no_dense_tables(which, tmp_path, monkeypatch, capsys):
    import womctl.prescription as prescription_mod
    from womctl.prescription import joint_control_strategy
    from womctl.solver import solve_prescription_dp
    from womctl.sysmodel import instance_from_dict, monte_carlo_cost

    doc = {"d2": d2_dict, "pomdp4": lambda: pomdp_dict(4)}[which]()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    strategy, report = tmp_path / "psi.json", tmp_path / "mc.json"
    inst = instance_from_dict(doc)
    psi = solve_prescription_dp(inst, 1).prescription_strategy
    dense = monte_carlo_cost(inst, joint_control_strategy(inst, psi), 3000, 4)
    assert run(["solve", str(path), "--method", "prescription", "--agent", "1",
                "--emit-strategy", str(strategy)]) == 0

    def refuse(*args):
        raise AssertionError("dense control tables built")

    monkeypatch.setattr(prescription_mod, "induced_control_tables", refuse)
    assert run(["simulate", str(path), "--strategy", str(strategy), "--samples", "3000",
                "--seed", "4", "--report", str(report)]) == 0
    got = json.loads(report.read_text())["results"]
    assert got["expected_cost"] == dense.expected_cost
    assert got["stderr"] == dense.stderr
    assert tuple(got["per_stage_costs"]) == dense.per_stage_costs


@pytest.fixture(scope="module")
def d2_documents(tmp_path_factory):
    """d2's instance file and the control and prescription documents solved from it."""
    root = tmp_path_factory.mktemp("d2_documents")
    instance = root / "d2.json"
    instance.write_text(json.dumps(d2_dict()))
    docs = {}
    for kind, method in (("control", ["brute"]), ("prescription", ["prescription", "--agent", "1"])):
        path = root / f"{kind}.json"
        assert run(["solve", str(instance), "--method", *method, "--emit-strategy", str(path)]) == 0
        docs[kind] = json.loads(path.read_text())
    return str(instance), docs


def _strategy_exits(instance, doc, path):
    """The exit codes of `evaluate` and `simulate` on `doc` written to `path`."""
    path.write_text(json.dumps(doc))
    return (
        run(["evaluate", instance, "--strategy", str(path)]),
        run(["simulate", instance, "--strategy", str(path), "--samples", "20"]),
    )


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        pytest.param("control", ("tables", 0, "entries", 0, 1), 7,
                     "(t=0, agent=1) action must be in [0, 2), got 7", id="action-7"),
        pytest.param("control", ("tables", 0, "entries", 0, 1), "1",
                     "action must be numeric, got '1'", id="action-string"),
        pytest.param("control", ("tables", 0, "entries", 0, 1), 0.5,
                     "action must be an integer, got 0.5", id="action-fraction"),
        pytest.param("control", ("tables", 0, "entries", 0, 1), True,
                     "action must be numeric, got True", id="action-bool"),
        pytest.param("control", ("tables", 0, "entries", 0, 1), 10**400,
                     "action must be in [0, 2), got 1000", id="action-huge"),
        pytest.param("control", ("tables", 0, "t"), _DROP, "control table has no 't'", id="no-t"),
        pytest.param("control", ("tables", 0, "agent"), 3,
                     "table agent must be in [1, 3), got 3", id="agent-3"),
        pytest.param("control", ("tables", 0, "entries", 0, 0), [5],
                     "realization must be in [0, 2), got 5", id="realization-5"),
        pytest.param("control", ("tables", 0, "entries", 0, 0), [0, 0],
                     "realization [0, 0] must have 1 values", id="realization-length"),
        pytest.param("prescription", ("laws", 0, "entries", 0, 1, 0), 0.5,
                     "(t=0, target=1) table must be an integer, got 0.5", id="table-fraction"),
        pytest.param("prescription", ("laws", 0, "entries", 0, 1, 0), "1",
                     "table must be numeric, got '1'", id="table-string"),
        pytest.param("prescription", ("laws", 0, "entries", 0, 1, 0), 2,
                     "prescription (1->1, t=0) action out of range", id="table-2"),
        pytest.param("prescription", ("owner",), _DROP,
                     "prescription strategy has no 'owner'", id="no-owner"),
        pytest.param("prescription", ("owner",), 3, "owner must be in [1, 3), got 3",
                     id="owner-3"),
        pytest.param("prescription", ("laws", 0, "target"), 0,
                     "law target must be in [1, 3), got 0", id="target-0"),
        pytest.param("prescription", ("laws", 0, "entries", 0, 0), ["x"],
                     "condition must be numeric, got 'x'", id="condition-string"),
        pytest.param("prescription", ("laws", 0, "t"), 1.5, "law t must be an integer, got 1.5",
                     id="t-fraction"),
        pytest.param("control", ("tables",), {}, "tables must be a list, got {}",
                     id="tables-not-a-list"),
        pytest.param("control", ("tables", 0, "entries", 0), [[0]],
                     "each of table (t=0, agent=1) entries must be a [key, value] pair, got [[0]]",
                     id="entry-not-a-pair"),
        pytest.param("prescription", ("laws", 3, "domain", 0, 2), "Y",
                     "(t=1, target=2) domain [[0, 2, 'Y'], [1, 2, 'Y']] is not the instance's",
                     id="domain"),
    ],
)
def test_malformed_strategy_documents_exit_3(
    d2_documents, tmp_path, capsys, kind, path, value, message
):
    instance, docs = d2_documents
    assert _strategy_exits(instance, _mutated(docs[kind], path, value), tmp_path / "s.json") == (3, 3)
    err = capsys.readouterr().err
    assert err.count(message) == 2 and "Traceback" not in err


def test_simulate_rejects_a_negative_seed(d2_documents, tmp_path, capsys):
    instance, docs = d2_documents
    path = tmp_path / "s.json"
    path.write_text(json.dumps(docs["control"]))
    assert run(["simulate", instance, "--strategy", str(path), "--seed", "-1"]) == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def _fields(node, path=()):
    """(path, value) of every dictionary entry and list item in a JSON document."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


@pytest.mark.parametrize("kind", ["control", "prescription"])
def test_mutated_strategy_documents_exit_0_or_3(d2_documents, tmp_path_factory, kind):
    instance, docs = d2_documents
    doc = docs[kind]
    fields = list(_fields(doc))
    keys = [path for path, _ in fields if isinstance(path[-1], str)]
    numbers = [path for path, v in fields if type(v) in (int, float)]
    mutations = st.one_of(
        st.tuples(st.sampled_from(keys), st.just(_DROP)),
        st.tuples(st.sampled_from(numbers), st.sampled_from(["1", True, 0.5, 99, -1])),
    )
    target = tmp_path_factory.mktemp("mutated") / "s.json"

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @hypothesis.given(mutations)
    def check(mutation):
        codes = _strategy_exits(instance, _mutated(doc, *mutation), target)
        assert set(codes) <= {0, 3}

    check()
