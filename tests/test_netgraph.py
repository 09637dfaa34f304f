import random

import numpy as np
import pytest

from oracles import all_pairs_min_delay
from womctl.errors import (
    DuplicateLink,
    ExplicitSelfLoop,
    NonPositiveDelay,
    NotStronglyConnected,
    ShapeMismatch,
)
from womctl.netgraph import (
    NetworkSpec,
    compute_delay_matrix,
    information_path,
    validate_delay_matrix,
    validate_network,
)

RELAY3 = NetworkSpec(3, ((1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)))


def random_connected(rng, k):
    """A directed ring plus random chords, so the graph is strongly connected."""
    links = [] if k == 1 else [(i + 1, (i + 1) % k + 1, rng.randint(1, 4)) for i in range(k)]
    seen = {(f, t) for f, t, _ in links}
    for _ in range(rng.randint(0, 2 * k)):
        f, t = rng.randint(1, k), rng.randint(1, k)
        if f != t and (f, t) not in seen:
            seen.add((f, t))
            links.append((f, t, rng.randint(1, 4)))
    return NetworkSpec(k, tuple(sorted(links)))


def test_validate_relay_network():
    assert validate_network(RELAY3) is RELAY3


def test_validate_singleton():
    validate_network(NetworkSpec(1, ()))


def test_missing_reverse_path_names_pair():
    with pytest.raises(NotStronglyConnected) as err:
        validate_network(NetworkSpec(2, ((1, 2, 1),)))
    assert (err.value.source, err.value.target) == (2, 1)


def test_link_error_cases():
    with pytest.raises(NonPositiveDelay):
        validate_network(NetworkSpec(2, ((1, 2, 0), (2, 1, 1))))
    with pytest.raises(DuplicateLink):
        validate_network(NetworkSpec(2, ((1, 2, 1), (1, 2, 2), (2, 1, 1))))
    with pytest.raises(ExplicitSelfLoop):
        validate_network(NetworkSpec(2, ((1, 1, 1), (1, 2, 1), (2, 1, 1))))


def test_relay_delay_matrix():
    d = compute_delay_matrix(RELAY3)
    assert d.rows == ((0, 1, 1), (1, 0, 2), (1, 2, 0))


def test_diagonal_is_zero():
    rng = random.Random(5)
    for _ in range(10):
        spec = random_connected(rng, rng.randint(1, 5))
        d = compute_delay_matrix(spec)
        assert all(d.delay(k, k) == 0 for k in range(1, spec.agent_count + 1))


def test_directed_ring_matches_enumeration():
    spec = NetworkSpec(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)))
    d = compute_delay_matrix(spec)
    oracle = all_pairs_min_delay(4, spec.links)
    for s in range(1, 5):
        for t in range(1, 5):
            assert d.delay(s, t) == oracle[(s, t)]


def test_random_graphs_match_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        spec = random_connected(rng, rng.randint(2, 6))
        d = compute_delay_matrix(spec)
        oracle = all_pairs_min_delay(spec.agent_count, spec.links)
        for s in range(1, spec.agent_count + 1):
            for t in range(1, spec.agent_count + 1):
                assert d.delay(s, t) == oracle[(s, t)]


def test_information_path_forced_relay():
    path = information_path(RELAY3, 2, 3)
    assert path.agents == (2, 1, 3)
    assert path.total_delay == 2


def test_information_path_self():
    path = information_path(RELAY3, 2, 2)
    assert path.agents == (2,) and path.total_delay == 0


def test_information_path_lexicographic_tie():
    spec = NetworkSpec(4, ((1, 2, 1), (2, 4, 1), (1, 3, 1), (3, 4, 1), (4, 1, 1)))
    path = information_path(spec, 1, 4)
    assert path.agents == (1, 2, 4)


def test_path_delay_matches_matrix():
    rng = random.Random(23)
    for _ in range(10):
        spec = random_connected(rng, rng.randint(2, 6))
        d = compute_delay_matrix(spec)
        for s in range(1, spec.agent_count + 1):
            for t in range(1, spec.agent_count + 1):
                assert information_path(spec, s, t).total_delay == d.delay(s, t)


def test_triangle_inequality_exhaustive():
    rng = random.Random(31)
    for _ in range(10):
        spec = random_connected(rng, rng.randint(2, 6))
        d = compute_delay_matrix(spec)
        n = spec.agent_count
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    assert d.delay(a, c) <= d.delay(a, b) + d.delay(b, c)


def test_direct_matrix_validation():
    validate_delay_matrix([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ShapeMismatch):
        validate_delay_matrix([[0, 1], [1, 1]])  # bad diagonal
    with pytest.raises(NonPositiveDelay):
        validate_delay_matrix([[0, -1], [1, 0]])
    with pytest.raises(ShapeMismatch):
        validate_delay_matrix([[0, 5, 1], [1, 0, 1], [1, 3, 0]])  # triangle broken


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None], ids=repr)
def test_non_integer_delays_are_rejected(bad):
    with pytest.raises(ShapeMismatch, match=r"delay matrix entry \(1,2\) must be an integer"):
        validate_delay_matrix(((0, bad), (1, 0)))
    with pytest.raises(ShapeMismatch, match=r"link \(1,2\) delay must be an integer"):
        validate_network(NetworkSpec(2, ((1, 2, bad), (2, 1, 1))))


def test_numpy_integer_delays_pass():
    assert validate_delay_matrix(np.array([[0, 1], [2, 0]])).rows == ((0, 1), (2, 0))
    assert all(type(v) is int for row in validate_delay_matrix(np.array([[0, 1], [2, 0]])).rows
               for v in row)
    spec = NetworkSpec(2, ((1, 2, np.int64(2)), (2, 1, np.int32(1))))
    assert validate_network(spec) is spec
    assert compute_delay_matrix(spec).rows == ((0, 2), (1, 0))


def test_non_integer_delays_fail_instance_validation():
    """A fractional delay reaches neither the schema derivation nor a
    solver: `validate_instance` raises `ShapeMismatch`, not a `TypeError`."""
    from womctl.instances import d2_dict
    from womctl.netgraph import DelayMatrix
    from womctl.sysmodel import instance_from_dict, validate_instance

    system = instance_from_dict(d2_dict()).system
    with pytest.raises(ShapeMismatch, match="must be an integer, got 1.5"):
        validate_instance(system, DelayMatrix(((0, 1.5), (1, 0))))
    with pytest.raises(ShapeMismatch, match="must be an integer, got 1.5"):
        validate_instance(system, NetworkSpec(2, ((1, 2, 1.5), (2, 1, 1))))
    assert validate_instance(system, DelayMatrix(((0, 1), (1, 0)))).delays.rows == ((0, 1), (1, 0))
