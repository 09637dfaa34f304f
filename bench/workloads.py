"""Seeded instance generators, one per benchmark workload.

Every generator takes the workload seed and returns the fixed list of
operations one pass of that workload runs. Instances are plain JSON-shaped
dicts, the same format `womctl.sysmodel.instance_from_dict` reads, so the
program only ever sees the generated inputs.

The seed changes numbers (costs and distributions), never sizes, network
shapes or transition tables. Strategy and primitive-sequence counts are
therefore the same for every seed, and so, up to the values themselves, is
the work each operation does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMPARE = "compare_agents"
DP_AGENT1 = "solve_prescription_dp_agent1"

WHY = {
    "oracle_brute": (
        "compare_agents on seeded-cost d2 (2^20 strategies) and d2ext (2^22) "
        "shapes: brute-force rollout dominates, the DP path does little work"
    ),
    "fuzz_compare": (
        "compare_agents on the eight criterion-3 shapes plus the relay repro: "
        "candidate search (stage cost, belief step, schemas) dominates"
    ),
    "pomdp_horizon": (
        "single-agent POMDP, prescription DP for T=4..7: tiny search, exact "
        "re-evaluation rolls out 2^(2T+2) primitive sequences"
    ),
}


@dataclass(frozen=True)
class Operation:
    """One closed-loop operation: a call into the public API on one instance."""

    label: str
    call: str  # COMPARE or DP_AGENT1
    doc: dict
    known_defect: str | None = None  # exception class name this op raises today


def _probs(rng: random.Random, n: int) -> list[float]:
    vec = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(vec)
    return [v / total for v in vec]


def _costs(rng: random.Random, stages: int, x_size: int, nu: int) -> list:
    return [
        [[round(rng.uniform(0.0, 2.0), 3) for _ in range(nu)] for _ in range(x_size)]
        for _ in range(stages)
    ]


def _gated(stages: int, x_size: int, nu: int) -> list:
    """Binary disturbance gates the control: x stays put when w = 0, else it
    moves by the joint control index plus one. Fixed for every seed, so the
    reachable histories, and with them the strategy counts, are too."""
    table = [
        [[x, (x + u + 1) % x_size] for u in range(nu)] for x in range(x_size)
    ]
    return [table] * stages


def _links(pairs) -> list[dict]:
    return [{"from": f, "to": t, "delay": d} for f, t, d in pairs]


def _mutual(agents: int, delay: int = 1) -> list[dict]:
    return _links(
        (f, t, delay) for f in range(1, agents + 1) for t in range(1, agents + 1) if f != t
    )


def _noiseless(agents: int) -> list[dict]:
    return [{"size": 1, "probs_per_t": [1.0]} for _ in range(agents)]


def _noisy(rng: random.Random, agents: int) -> list[dict]:
    return [{"size": 2, "probs_per_t": _probs(rng, 2)} for _ in range(agents)]


# -- oracle_brute ---------------------------------------------------------------


def _d2_shape(rng: random.Random) -> dict:
    """The bundled d2 system with seeded stage costs (2^20 brute strategies)."""
    transition = [
        [
            [[(x + u1 + u2 + w) % 2 for w in range(2)] for u1 in range(2) for u2 in range(2)]
            for x in range(2)
        ]
    ]
    ident = [[x] for x in range(2)]
    return {
        "network": {"agents": 2, "links": _mutual(2)},
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [2, 2],
            "observation_sizes": [2, 2],
            "disturbance": {"size": 2, "probs_per_t": [0.7, 0.3]},
            "noises": _noiseless(2),
            "initial_probs": [0.6, 0.4],
            "transition": transition,
            "observation": [[ident, ident], [ident, ident]],
            "cost": _costs(rng, 2, 2, 4),
        },
    }


def _d2ext_shape(rng: random.Random) -> dict:
    """The bundled d2ext system with seeded stage costs (2^22 brute strategies)."""
    transition_t = [[[(x + u1 + w) % 2 for w in range(2)] for u1 in range(2)] for x in range(2)]
    ident = [[x] for x in range(2)]
    blind = [[0] for _ in range(2)]
    return {
        "network": {"agents": 2, "links": _mutual(2)},
        "system": {
            "horizon": 2,
            "state_size": 2,
            "control_sizes": [2, 1],
            "observation_sizes": [2, 2],
            "disturbance": {"size": 2, "probs_per_t": [0.7, 0.3]},
            "noises": _noiseless(2),
            "initial_probs": [0.6, 0.4],
            "transition": [transition_t, transition_t],
            "observation": [[ident, blind, blind], [ident, ident, ident]],
            "cost": _costs(rng, 3, 2, 2),
        },
    }


def oracle_brute(seed: int) -> list[Operation]:
    rng = random.Random(f"oracle_brute/{seed}")
    ops = [Operation(f"d2-{i}", COMPARE, _d2_shape(rng)) for i in range(3)]
    ops.append(Operation("d2ext-0", COMPARE, _d2ext_shape(rng)))
    return ops


# -- fuzz_compare ---------------------------------------------------------------


def _flip(x_size: int) -> list:
    return [[x % 2, 1 - (x % 2)] for x in range(x_size)]


def _static_nested(rng, x_size):
    return {
        "network": {"agents": 3, "delay_matrix": [[0, 1, 1], [0, 0, 1], [0, 0, 0]]},
        "system": {
            "horizon": 0,
            "state_size": x_size,
            "control_sizes": [2, 2, 2],
            "observation_sizes": [2, 2, 2],
            "noises": _noisy(rng, 3),
            "initial_probs": _probs(rng, x_size),
            "observation": [[_flip(x_size)]] * 3,
            "cost": _costs(rng, 1, x_size, 8),
        },
    }


def _static_pair(rng, x_size):
    return {
        "network": {"agents": 2, "delay_matrix": [[0, 1], [0, 0]]},
        "system": {
            "horizon": 0,
            "state_size": x_size,
            "control_sizes": [2, 2],
            "observation_sizes": [2, 2],
            "noises": _noisy(rng, 2),
            "initial_probs": _probs(rng, x_size),
            "observation": [[_flip(x_size)]] * 2,
            "cost": _costs(rng, 1, x_size, 4),
        },
    }


def _shared_observation(rng, x_size):
    obs = [[x % 2] for x in range(x_size)]
    return {
        "network": {"agents": 2, "links": _mutual(2)},
        "system": {
            "horizon": 1,
            "state_size": x_size,
            "control_sizes": [2, 2],
            "observation_sizes": [2, 2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noiseless(2),
            "initial_probs": _probs(rng, x_size),
            "transition": _gated(1, x_size, 4),
            "observation": [[obs, obs]] * 2,
            "cost": _costs(rng, 2, x_size, 4),
        },
    }


def _noisy_passive(rng, delay):
    return {
        "network": {"agents": 2, "links": _mutual(2, delay)},
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [2, 1],
            "observation_sizes": [2, 2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noisy(rng, 2),
            "initial_probs": _probs(rng, 2),
            "transition": _gated(1, 2, 2),
            "observation": [[_flip(2), _flip(2)]] * 2,
            "cost": _costs(rng, 2, 2, 2),
        },
    }


def _single_agent(rng, x_size):
    return {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": 1,
            "state_size": x_size,
            "control_sizes": [2],
            "observation_sizes": [2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noisy(rng, 1),
            "initial_probs": _probs(rng, x_size),
            "transition": _gated(1, x_size, 2),
            "observation": [[_flip(x_size), _flip(x_size)]],
            "cost": _costs(rng, 2, x_size, 2),
        },
    }


def _observer(rng, _variant):
    ident = [[x] for x in range(2)]
    blind = [[0] for _ in range(2)]
    return {
        "network": {"agents": 2, "links": _mutual(2)},
        "system": {
            "horizon": 2,
            "state_size": 2,
            "control_sizes": [2, 1],
            "observation_sizes": [2, 2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noiseless(2),
            "initial_probs": _probs(rng, 2),
            "transition": _gated(2, 2, 2),
            "observation": [[ident, blind, blind], [ident, ident, ident]],
            "cost": _costs(rng, 3, 2, 2),
        },
    }


def _linked_three(rng, x_size, control_sizes):
    obs = [[x % 2] for x in range(x_size)]
    nu = control_sizes[0] * control_sizes[1] * control_sizes[2]
    return {
        "network": {"agents": 3, "links": _mutual(3)},
        "system": {
            "horizon": 1,
            "state_size": x_size,
            "control_sizes": list(control_sizes),
            "observation_sizes": [2, 2, 2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noiseless(3),
            "initial_probs": _probs(rng, x_size),
            "transition": _gated(1, x_size, nu),
            "observation": [[obs, obs]] * 3,
            "cost": _costs(rng, 2, x_size, nu),
        },
    }


def relay_repro(rng: random.Random) -> dict:
    """Minimal relay network on which agent 1's prescription DP fails today.

    Links 1->2 d2, 1->3 d1, 2->1 d1, 2->3 d1, 3->2 d1; K=3, T=1, |X|=2, every
    control size 1, noise-free identity observations.
    """
    ident = [[x] for x in range(2)]
    return {
        "network": {
            "agents": 3,
            "links": _links([(1, 2, 2), (1, 3, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)]),
        },
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [1, 1, 1],
            "observation_sizes": [2, 2, 2],
            "disturbance": {"size": 2, "probs_per_t": _probs(rng, 2)},
            "noises": _noiseless(3),
            "initial_probs": _probs(rng, 2),
            "transition": _gated(1, 2, 1),
            "observation": [[ident, ident]] * 3,
            "cost": _costs(rng, 2, 2, 1),
        },
    }


# (label, builder, variants): two instances per criterion-3 shape; the variant
# is the state size, the link delay, or only the instance's index
FUZZ_SHAPES = [
    ("static-nested3", _static_nested, (2, 3)),
    ("static-pair", _static_pair, (2, 3)),
    ("shared-obs", _shared_observation, (2, 3)),
    ("noisy-passive", _noisy_passive, (1, 2)),
    ("single-agent", _single_agent, (2, 3)),
    ("observer-T2", _observer, (0, 1)),
    ("linked3-one", lambda rng, x: _linked_three(rng, x, (2, 1, 1)), (2, 3)),
    ("linked3-two", lambda rng, _v: _linked_three(rng, 2, (2, 2, 1)), (0, 1)),
]


def fuzz_compare(seed: int) -> list[Operation]:
    rng = random.Random(f"fuzz_compare/{seed}")
    ops = [
        Operation(f"{label}-{variant}", COMPARE, build(rng, variant))
        for label, build, variants in FUZZ_SHAPES
        for variant in variants
    ]
    ops.append(Operation("relay-repro", COMPARE, relay_repro(rng), "SchemaMismatch"))
    return ops


# -- pomdp_horizon --------------------------------------------------------------

POMDP_HORIZONS = (4, 5, 6, 7)


def pomdp(rng: random.Random, horizon: int) -> dict:
    """|X|=|W|=|V|=2; the control flips the state, the cost is mismatch plus action."""
    flip = [[x, 1 - x] for x in range(2)]
    transition_t = [[[(x + u + w) % 2 for w in range(2)] for u in range(2)] for x in range(2)]
    action_cost = round(rng.uniform(0.1, 0.5), 3)
    cost_t = [[float(u != x) + action_cost * u for u in range(2)] for x in range(2)]
    slip = rng.uniform(0.1, 0.3)
    error = rng.uniform(0.1, 0.3)
    p0 = rng.uniform(0.3, 0.7)
    return {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": horizon,
            "state_size": 2,
            "control_sizes": [2],
            "observation_sizes": [2],
            "disturbance": {"size": 2, "probs_per_t": [1.0 - slip, slip]},
            "noises": [{"size": 2, "probs_per_t": [1.0 - error, error]}],
            "initial_probs": [p0, 1.0 - p0],
            "transition": [transition_t] * horizon,
            "observation": [[flip] * (horizon + 1)],
            "cost": [cost_t] * (horizon + 1),
        },
    }


def pomdp_horizon(seed: int) -> list[Operation]:
    rng = random.Random(f"pomdp_horizon/{seed}")
    return [Operation(f"pomdp-T{T}", DP_AGENT1, pomdp(rng, T)) for T in POMDP_HORIZONS]


GENERATORS = {
    "oracle_brute": oracle_brute,
    "fuzz_compare": fuzz_compare,
    "pomdp_horizon": pomdp_horizon,
}
