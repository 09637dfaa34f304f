import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from helpers import random_control_strategy, random_prescription_strategy
from womctl.belief import (
    connection_term,
    initial_information_state,
    initial_state_at,
    make_information_state,
)
from womctl.errors import CapExceeded, DomainMismatch, OutOfRange
from womctl.instances import load_static3
from womctl.prescription import (
    apply_prescription,
    complete_prescription_at,
    control_law_to_strategy,
    count_strategies,
    enumerate_prescription_tables,
    enumerate_prescriptions,
    induced_control_tables,
    joint_control_strategy,
    make_prescription,
    prescription_space_size,
    strategy_to_control_law,
    translate_strategy,
)
from womctl.solver import (
    evaluate_prescription_strategy,
    solve_brute_force,
    solve_prescription_dp,
    solve_prescription_static,
)
from womctl.sysmodel import ControlStrategy, exact_strategy_cost


def test_apply_constant_prescription(static3):
    p = make_prescription(static3, 0, 3, 3, [1])
    assert p.domain == ()
    assert apply_prescription(p, ()) == 1


def test_apply_two_variable_prescription(static3):
    # agent 3's table for agent 1 over (Y1, Y2), row-major
    p = make_prescription(static3, 0, 3, 1, [0, 1, 1, 0])
    assert [v.label() for v in p.domain] == ["Y1@0", "Y2@0"]
    assert apply_prescription(p, (1, 0)) == 1
    with pytest.raises(OutOfRange):
        apply_prescription(p, (2, 0))


def test_apply_round_trip(static3):
    rng = random.Random(0)
    p = make_prescription(static3, 0, 3, 1, [rng.randrange(2) for _ in range(4)])
    table = [apply_prescription(p, real) for real in
             itertools.product(range(2), range(2))]
    assert tuple(table) == p.table


def test_enumerate_prescription_counts(static3):
    assert len(list(enumerate_prescriptions(static3, 0, 3, 1))) == 16
    assert len(list(enumerate_prescriptions(static3, 0, 3, 3))) == 2
    assert prescription_space_size((3, 2), 2) == 64
    assert len(list(enumerate_prescription_tables((3, 2), 2))) == 64


@pytest.mark.parametrize(
    "sizes, control_size",
    [((3, 2), 2), ((), 3), ((3,), 3), ((2,) * 7, 1)],
    ids=["3x2-binary", "empty-domain", "3-ternary", "128-rows-one-control"],
)
def test_enumerated_tables_are_product_rows(sizes, control_size):
    tables = enumerate_prescription_tables(sizes, control_size)
    expected = list(itertools.product(range(control_size), repeat=math.prod(sizes)))
    assert tables.dtype == np.uint8
    assert tables.shape == (len(expected), math.prod(sizes))
    assert [tuple(row) for row in tables.tolist()] == expected


def test_enumerated_tables_take_the_narrowest_unsigned_dtype():
    # at the table cap: a byte per entry, 21 MB where int64 entries took 168 MB
    assert enumerate_prescription_tables((20,), 2, 2**20).nbytes == 2**20 * 20
    wide = enumerate_prescription_tables((), 300)
    assert wide.dtype == np.uint16
    assert wide[:, 0].tolist() == list(range(300))


def test_enumerate_cap():
    with pytest.raises(CapExceeded) as err:
        list(enumerate_prescription_tables((2,) * 8, 2, cap=100))
    assert err.value.required == 2**256


def test_static_strategy_counts(static3):
    assert count_strategies(static3, "brute") == 16384
    assert count_strategies(static3, 3) == 256
    assert count_strategies(static3, 2) == 64
    assert count_strategies(static3, 1) == 64


def test_reindexed_strategy_counts(static3_reindexed):
    assert count_strategies(static3_reindexed, "brute") == 16384
    for k in (1, 2, 3):
        assert count_strategies(static3_reindexed, k) == 256


def test_counts_monotone_on_nested_instance(static3):
    sizes = [count_strategies(static3, k) for k in (1, 2, 3)]
    assert sizes[0] <= sizes[1] <= sizes[2] <= count_strategies(static3, "brute")


def test_translate_identity(d2):
    psi = random_prescription_strategy(d2, 1, random.Random(1))
    assert translate_strategy(d2, psi, 1) is psi


def test_translate_shares_higher_target_laws(static3):
    psi2 = random_prescription_strategy(static3, 2, random.Random(2))
    psi3 = translate_strategy(static3, psi2, 3)
    # the component for target 3 conditions on the same information either way
    src = psi2.laws[(0, 3)]
    dst = psi3.laws[(0, 3)]
    assert set(src) == set(dst)
    for cond in src:
        assert src[cond].table == dst[cond].table


def test_translate_round_trip_preserves_actions(d2):
    rng = random.Random(3)
    for _ in range(3):
        psi1 = random_prescription_strategy(d2, 1, rng)
        g1 = joint_control_strategy(d2, psi1)
        psi2 = translate_strategy(d2, psi1, 2)
        g2 = joint_control_strategy(d2, psi2)
        back = translate_strategy(d2, psi2, 1)
        g3 = joint_control_strategy(d2, back)
        assert g1.tables == g2.tables == g3.tables


def test_translation_action_agreement_exhaustive(d2):
    """Every agent's action, on every memory realization, is owner-independent."""
    rng = random.Random(5)
    psi = {1: random_prescription_strategy(d2, 1, rng)}
    psi[2] = translate_strategy(d2, psi[1], 2)
    tables = {k: joint_control_strategy(d2, psi[k]).tables for k in (1, 2)}
    assert tables[1] == tables[2]


def test_strategy_to_control_law_constant(d2):
    laws = {}
    for t in range(d2.horizon + 1):
        for target in (1, 2):
            cond = d2.info.conditioning_schema(t, 1, target)
            dom_n = len(
                list(
                    itertools.product(
                        *[range(s) for s in d2.schema_sizes(d2.info.prescription_domain(t, 1, target))]
                    )
                )
            )
            laws[(t, target)] = {
                real: make_prescription(d2, t, 1, target, [1] * dom_n)
                for real in itertools.product(
                    *[range(s) for s in d2.schema_sizes(cond)]
                )
            }
    from womctl.prescription import PrescriptionStrategy

    own = strategy_to_control_law(d2, PrescriptionStrategy(owner=1, laws=laws))
    for (t, k), table in own.tables.items():
        assert k == 1
        assert set(table.values()) == {1}


def test_prescription_evaluators_agree(d2):
    rng = random.Random(6)
    for _ in range(5):
        psi = random_prescription_strategy(d2, 1, rng)
        via_tables = exact_strategy_cost(d2, joint_control_strategy(d2, psi))
        via_eval = evaluate_prescription_strategy(d2, psi)
        assert math.isclose(
            via_tables.expected_cost, via_eval.expected_cost, abs_tol=1e-12
        )


def test_control_law_round_trip(d2):
    rng = random.Random(7)
    g = random_control_strategy(d2, rng)
    for k in (1, 2):
        psi = control_law_to_strategy(d2, g, k)
        again = joint_control_strategy(d2, psi)
        assert again.tables == g.tables
        own = strategy_to_control_law(d2, psi)
        for t in range(d2.horizon + 1):
            assert own.tables[(t, k)] == g.tables[(t, k)]


def test_control_law_missing_a_realization_is_a_domain_mismatch(d2):
    tables = dict(solve_brute_force(d2).control_strategy.tables)
    (real, _), *rest = tables[(1, 2)].items()
    tables[(1, 2)] = dict(rest)
    want = re.escape(f"strategy table (t=1, agent=2) missing realization {real}")
    for k in (1, 2):
        with pytest.raises(DomainMismatch, match=want):
            control_law_to_strategy(d2, ControlStrategy(tables=tables), k)


def test_control_law_reads_tables_through_the_checked_parts(d2):
    """A missing table and an action past the control size raise the stage
    rule's `DomainMismatch`, for every owner."""
    tables = dict(solve_brute_force(d2).control_strategy.tables)
    missing = {cell: table for cell, table in tables.items() if cell != (1, 2)}
    wide = {**tables, (1, 2): dict.fromkeys(tables[(1, 2)], 2)}
    for k in (1, 2):
        with pytest.raises(DomainMismatch) as err:
            control_law_to_strategy(d2, ControlStrategy(tables=missing), k)
        assert str(err.value) == "strategy has no table for (t=1, agent=2)"
        with pytest.raises(DomainMismatch) as err:
            control_law_to_strategy(d2, ControlStrategy(tables=wide), k)
        assert str(err.value) == "table (t=1, agent=2) maps (0, 0, 0, 0) to invalid action 2"


def test_control_law_round_trip_costs(d2):
    rng = random.Random(8)
    for _ in range(20):
        g = random_control_strategy(d2, rng)
        psi = control_law_to_strategy(d2, g, rng.choice([1, 2]))
        a = exact_strategy_cost(d2, g).expected_cost
        b = evaluate_prescription_strategy(d2, psi).expected_cost
        assert math.isclose(a, b, abs_tol=1e-12)


def test_static_law_shapes(static3):
    g = random_control_strategy(static3, random.Random(9))
    psi = control_law_to_strategy(static3, g, 3)
    law = psi.laws[(0, 3)]
    assert len(law) == 2  # conditioning realizations of the own observation
    for p in law.values():
        assert p.domain == ()


def test_pointwise_translation_cases(static3):
    """Direct table relations across owners for every target and realization."""
    import itertools

    rng = random.Random(10)
    psi1 = random_prescription_strategy(static3, 1, rng)
    strategies = {1: psi1}
    for i in (2, 3):
        strategies[i] = translate_strategy(static3, psi1, i)
    info = static3.info
    for j in range(1, 4):
        mem = info.memory(0, j)
        sizes = static3.schema_sizes(mem)
        tables = [induced_control_tables(static3, psi, j)[0] for psi in strategies.values()]
        for real in itertools.product(*[range(s) for s in sizes]):
            actions = {table[real] for table in tables}
            assert len(actions) == 1, (j, real)


@pytest.fixture(scope="module")
def d2_laws(d2):
    return solve_prescription_dp(d2, 1).prescription_strategy


def _owned(psi, owner):
    return dataclasses.replace(psi, owner=owner)


# (call on d2 and its DP laws, the index it names): an agent, owner or stage
# index outside its range, a bool or a non-integer raises `OutOfRange`
INDEX_CASES = {
    "evaluate-owner-0": (lambda d2, psi: exact_strategy_cost(d2, _owned(psi, 0)), "owner 0"),
    "evaluate-owner-5": (lambda d2, psi: exact_strategy_cost(d2, _owned(psi, 5)), "owner 5"),
    "evaluate-owner-bool": (
        lambda d2, psi: exact_strategy_cost(d2, _owned(psi, True)), "owner True"
    ),
    "evaluate-owner-float": (
        lambda d2, psi: exact_strategy_cost(d2, _owned(psi, 1.0)), "owner 1.0"
    ),
    "translate-0": (lambda d2, psi: translate_strategy(d2, psi, 0), "agent 0"),
    "translate-3": (lambda d2, psi: translate_strategy(d2, psi, 3), "agent 3"),
    "translate-bool": (lambda d2, psi: translate_strategy(d2, psi, True), "agent True"),
    "control-law-0": (
        lambda d2, psi: control_law_to_strategy(d2, joint_control_strategy(d2, psi), 0), "agent 0"
    ),
    "count-str": (lambda d2, psi: count_strategies(d2, "x"), "agent 'x'"),
    "count-bool": (lambda d2, psi: count_strategies(d2, True), "agent True"),
    "count-float": (lambda d2, psi: count_strategies(d2, 1.5), "agent 1.5"),
    "dp-0": (lambda d2, psi: solve_prescription_dp(d2, 0), "agent 0"),
    "dp-float": (lambda d2, psi: solve_prescription_dp(d2, 1.5), "agent 1.5"),
    "static-4": (lambda d2, psi: solve_prescription_static(load_static3(), 4), "agent 4"),
    "initial-3": (lambda d2, psi: initial_state_at(d2, 3, ()), "agent 3"),
    "information-state-3": (lambda d2, psi: make_information_state(d2, 3, 0, [1.0]), "agent 3"),
    "information-state-t5": (lambda d2, psi: make_information_state(d2, 1, 5, [1.0]), "time 5"),
    "complete-t5": (lambda d2, psi: complete_prescription_at(d2, psi, 5, ()), "time 5"),
    "complete-owner-0": (
        lambda d2, psi: complete_prescription_at(d2, _owned(psi, 0), 0, ()), "owner 0"
    ),
    "make-owner-0": (lambda d2, psi: make_prescription(d2, 0, 0, 1, [0]), "owner 0"),
    "make-target-3": (lambda d2, psi: make_prescription(d2, 0, 1, 3, [0]), "target 3"),
    "make-t9": (lambda d2, psi: make_prescription(d2, 9, 1, 1, [0]), "time 9"),
    "make-t-bool": (lambda d2, psi: make_prescription(d2, True, 1, 1, [0]), "time True"),
    "enumerate-owner-3": (lambda d2, psi: list(enumerate_prescriptions(d2, 0, 3, 1)), "owner 3"),
    "enumerate-target-float": (
        lambda d2, psi: list(enumerate_prescriptions(d2, 0, 1, 1.0)), "target 1.0"
    ),
    "connection-0": (lambda d2, psi: connection_term(d2, _agent2_belief(d2), 0), "agent 0"),
    "connection-bool": (lambda d2, psi: connection_term(d2, _agent2_belief(d2), True), "agent True"),
}


def _agent2_belief(d2):
    return next(iter(initial_information_state(d2, 2).values()))


@pytest.mark.parametrize("name", list(INDEX_CASES))
def test_api_indices_outside_their_range_raise_out_of_range(name, d2, d2_laws):
    call, named = INDEX_CASES[name]
    with pytest.raises(OutOfRange, match=re.escape(f"{named} is out of range ")):
        call(d2, d2_laws)


def test_api_indices_take_numpy_integers(d2, d2_laws):
    assert count_strategies(d2, np.int64(2)) == count_strategies(d2, 2)
    index = np.int64(1)
    assert make_prescription(d2, np.int64(0), index, index, [1]) == make_prescription(d2, 0, 1, 1, [1])
    assert list(enumerate_prescriptions(d2, 0, 2, index)) == list(enumerate_prescriptions(d2, 0, 2, 1))
    pi2 = _agent2_belief(d2)
    assert connection_term(d2, pi2, index).low_agent == 1
    assert translate_strategy(d2, d2_laws, np.int64(1)) is d2_laws
    report = exact_strategy_cost(d2, _owned(d2_laws, np.int64(1)))
    assert report == exact_strategy_cost(d2, d2_laws)
