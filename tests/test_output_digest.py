"""`output_digest.py`, the tool that diffs the solvers' outputs between two
versions, on one instance."""

import json

import output_digest
from womctl.belief import accessible_support, initial_information_state
from womctl.solver import solve_prescription_dp


def test_output_digest_covers_the_178_instances():
    cases = list(output_digest.instance_set())
    assert len(cases) == 178
    assert cases[172:] == [f"tail_read_dict({s})" for s in range(6)]  # after the first 172


def test_output_digest_prints_one_line_per_instance(d2, capsys):
    assert output_digest.main(["d2"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert sorted(record) == [
        "accessible_support", "belief_step", "chain", "compare", "dp",
        "initial_information_state", "name",
    ]
    assert record["name"] == "d2"
    assert [row["status"] for row in record["compare"]] == ["ok"] * 4
    assert not any("wall_time" in row for row in record["compare"])
    assert sorted(record["chain"]) == sorted(record["dp"]) == ["1", "2"]
    cost = solve_prescription_dp(d2, 1).optimal_cost
    assert float.fromhex(record["dp"]["1"][0]) == cost  # floats by float.hex
    assert float.fromhex(record["compare"][0]["cost"]) == cost
    assert record["belief_step"]["1"] and record["belief_step"]["2"]
    for k in (1, 2):  # the t=0 API: keys, masses and beliefs by float.hex
        support = accessible_support(d2, k)
        states = initial_information_state(d2, k)
        assert record["accessible_support"][str(k)] == [
            [list(a_real), mass.hex()] for a_real, mass in support.items()
        ]
        assert record["initial_information_state"][str(k)] == [
            [list(a_real), [p.hex() for p in pi.probs.tolist()]] for a_real, pi in states.items()
        ]


def test_output_digest_rejects_an_unknown_instance(capsys):
    assert output_digest.main(["d3"]) == 2
    assert "d3" in capsys.readouterr().err
