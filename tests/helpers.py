"""Shared builders for the tests: random strategies, fuzzed instances, walkers."""

from __future__ import annotations

import random

from womctl.belief import belief_step, initial_information_state
from womctl.prescription import (
    PrescriptionStrategy,
    complete_prescription_at,
    make_prescription,
)
from womctl.sysmodel import (
    ControlStrategy,
    Instance,
    enumerate_realizations,
    instance_from_dict,
    realization_count,
)


def random_prescription_strategy(instance: Instance, k: int, rng: random.Random):
    laws = {}
    for t in range(instance.horizon + 1):
        for target in range(1, instance.agent_count + 1):
            cond = instance.info.conditioning_schema(t, k, target)
            dom = instance.info.prescription_domain(t, k, target)
            entries = realization_count(instance.schema_sizes(dom))
            csize = instance.system.control_sizes[target - 1]
            law = {}
            for real in enumerate_realizations(instance.schema_sizes(cond)):
                law[real] = make_prescription(
                    instance, t, k, target, [rng.randrange(csize) for _ in range(entries)]
                )
            laws[(t, target)] = law
    return PrescriptionStrategy(owner=k, laws=laws)


def random_control_strategy(instance: Instance, rng: random.Random) -> ControlStrategy:
    tables = {}
    for t in range(instance.horizon + 1):
        for k in range(1, instance.agent_count + 1):
            sizes = instance.schema_sizes(instance.info.memory(t, k))
            csize = instance.system.control_sizes[k - 1]
            tables[(t, k)] = {
                real: rng.randrange(csize) for real in enumerate_realizations(sizes)
            }
    return ControlStrategy(tables=tables)


def copy_observation_strategy(instance: Instance) -> ControlStrategy:
    """Each agent plays her newest own observation (requires |U^k| >= |Y^k|)."""
    tables = {}
    for t in range(instance.horizon + 1):
        for k in range(1, instance.agent_count + 1):
            schema = instance.info.memory(t, k)
            own = max(
                (i for i, v in enumerate(schema) if v.agent == k and v.kind == "Y"),
                key=lambda i: schema[i].time,
            )
            sizes = instance.schema_sizes(schema)
            tables[(t, k)] = {
                real: real[own] for real in enumerate_realizations(sizes)
            }
    return ControlStrategy(tables=tables)


def reachable_branches(instance: Instance, psi: PrescriptionStrategy, k: int):
    """Every positive-probability branch of agent k's filter under psi.

    Yields (t, accessible-variable map, belief, branch probability).
    """
    from womctl.belief import accessible_support

    init = initial_information_state(instance, k)
    acc0 = instance.info.accessible(0, k)
    mass0 = accessible_support(instance, k)
    out = []

    def rec(t, amap, pi, prob):
        out.append((t, dict(amap), pi, prob))
        if t == instance.horizon:
            return
        a_real = tuple(amap[v] for v in instance.info.accessible(t, k))
        theta = complete_prescription_at(instance, psi, t, a_real)
        for z, (pz, nxt) in belief_step(instance, pi, theta).items():
            child = dict(amap)
            for var, val in zip(instance.info.new_info(t + 1, k), z):
                child[var] = val
            rec(t + 1, child, nxt, prob * pz)

    for a0, pi in init.items():
        rec(0, dict(zip(acc0, a0)), pi, mass0[a0])
    return out


def pomdp_dict(horizon: int) -> dict:
    """Single-agent POMDP document: |X|=|W|=|V|=2, the control flips the state,
    the cost is state mismatch plus an action charge."""
    flip = [[x, 1 - x] for x in range(2)]
    stage = [[[(x + u + w) % 2 for w in range(2)] for u in range(2)] for x in range(2)]
    cost = [[float(u != x) + 0.3 * u for u in range(2)] for x in range(2)]
    return {
        "network": {"agents": 1, "links": []},
        "system": {
            "horizon": horizon,
            "state_size": 2,
            "control_sizes": [2],
            "observation_sizes": [2],
            "disturbance": {"size": 2, "probs_per_t": [0.8, 0.2]},
            "noises": [{"size": 2, "probs_per_t": [0.85, 0.15]}],
            "initial_probs": [0.4, 0.6],
            "transition": [stage] * horizon,
            "observation": [[flip] * (horizon + 1)],
            "cost": [cost] * (horizon + 1),
        },
    }


def _norm(rng, n):
    vec = [rng.uniform(0.1, 1.0) for _ in range(n)]
    s = sum(vec)
    return [v / s for v in vec]


def _rand_cost(rng, x_size, nu):
    return [[round(rng.uniform(0.0, 2.0), 3) for _ in range(nu)] for _ in range(x_size)]


def _rand_transition(rng, x_size, nu, w_size):
    return [
        [[rng.randrange(x_size) for _ in range(w_size)] for _ in range(nu)]
        for _ in range(x_size)
    ]


def fuzz_instance(seed: int) -> Instance:
    """Deterministic family of small instances within the brute-force cap.

    Rotates through static nested three-agent systems, static two-agent
    systems, one-stage two-agent dynamics (shared noise-free observation or
    noisy observations with a passive second agent), single-agent problems,
    a three-stage shape with one active controller, and one-stage three-agent
    dynamics over fully connected or relay topologies.
    """
    rng = random.Random(909 + seed)
    kind = seed % 8

    if kind == 0:  # static, three agents, nested visibility
        x_size = rng.choice([2, 3])
        flip = [[x % 2, 1 - (x % 2)] for x in range(x_size)]
        doc = {
            "network": {"agents": 3, "delay_matrix": [[0, 1, 1], [0, 0, 1], [0, 0, 0]]},
            "system": {
                "horizon": 0,
                "state_size": x_size,
                "control_sizes": [2, 2, 2],
                "observation_sizes": [2, 2, 2],
                "noises": [
                    {"size": 2, "probs_per_t": _norm(rng, 2)} for _ in range(3)
                ],
                "initial_probs": _norm(rng, x_size),
                "observation": [[flip]] * 3,
                "cost": [_rand_cost(rng, x_size, 8)],
            },
        }
    elif kind == 1:  # static, two agents, agent 1 sees both observations
        x_size = rng.choice([2, 3])
        flip = [[x % 2, 1 - (x % 2)] for x in range(x_size)]
        doc = {
            "network": {"agents": 2, "delay_matrix": [[0, 1], [0, 0]]},
            "system": {
                "horizon": 0,
                "state_size": x_size,
                "control_sizes": [2, 2],
                "observation_sizes": [2, 2],
                "noises": [{"size": 2, "probs_per_t": _norm(rng, 2)} for _ in range(2)],
                "initial_probs": _norm(rng, x_size),
                "observation": [[flip]] * 2,
                "cost": [_rand_cost(rng, x_size, 4)],
            },
        }
    elif kind == 2:  # one stage, both agents act, shared noise-free observation
        x_size = rng.choice([2, 3])
        obs = [[x % 2] for x in range(x_size)]
        doc = {
            "network": {
                "agents": 2,
                "links": [
                    {"from": 1, "to": 2, "delay": 1},
                    {"from": 2, "to": 1, "delay": 1},
                ],
            },
            "system": {
                "horizon": 1,
                "state_size": x_size,
                "control_sizes": [2, 2],
                "observation_sizes": [2, 2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(2)],
                "initial_probs": _norm(rng, x_size),
                "transition": [_rand_transition(rng, x_size, 4, 2)],
                "observation": [[obs, obs]] * 2,
                "cost": [_rand_cost(rng, x_size, 4), _rand_cost(rng, x_size, 4)],
            },
        }
    elif kind == 3:  # one stage, noisy observations, passive second agent
        x_size = 2
        flip = [[x, 1 - x] for x in range(x_size)]
        delay = rng.choice([1, 2])
        doc = {
            "network": {
                "agents": 2,
                "links": [
                    {"from": 1, "to": 2, "delay": delay},
                    {"from": 2, "to": 1, "delay": delay},
                ],
            },
            "system": {
                "horizon": 1,
                "state_size": x_size,
                "control_sizes": [2, 1],
                "observation_sizes": [2, 2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 2, "probs_per_t": _norm(rng, 2)} for _ in range(2)],
                "initial_probs": _norm(rng, x_size),
                "transition": [_rand_transition(rng, x_size, 2, 2)],
                "observation": [[flip, flip]] * 2,
                "cost": [_rand_cost(rng, x_size, 2), _rand_cost(rng, x_size, 2)],
            },
        }
    elif kind == 4:  # single agent, one stage, noisy
        x_size = rng.choice([2, 3])
        flip = [[x % 2, 1 - (x % 2)] for x in range(x_size)]
        doc = {
            "network": {"agents": 1, "links": []},
            "system": {
                "horizon": 1,
                "state_size": x_size,
                "control_sizes": [2],
                "observation_sizes": [2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 2, "probs_per_t": _norm(rng, 2)}],
                "initial_probs": _norm(rng, x_size),
                "transition": [_rand_transition(rng, x_size, 2, 2)],
                "observation": [[flip, flip]],
                "cost": [_rand_cost(rng, x_size, 2), _rand_cost(rng, x_size, 2)],
            },
        }
    elif kind == 5:  # three stages, one active controller, observer second agent
        x_size = 2
        ident = [[x] for x in range(x_size)]
        blind = [[0] for _ in range(x_size)]
        doc = {
            "network": {
                "agents": 2,
                "links": [
                    {"from": 1, "to": 2, "delay": 1},
                    {"from": 2, "to": 1, "delay": 1},
                ],
            },
            "system": {
                "horizon": 2,
                "state_size": x_size,
                "control_sizes": [2, 1],
                "observation_sizes": [2, 2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(2)],
                "initial_probs": _norm(rng, x_size),
                "transition": [
                    _rand_transition(rng, x_size, 2, 2),
                    _rand_transition(rng, x_size, 2, 2),
                ],
                "observation": [[ident, blind, blind], [ident, ident, ident]],
                "cost": [_rand_cost(rng, x_size, 2) for _ in range(3)],
            },
        }
    elif kind == 6:  # one stage, three fully linked agents, one active controller
        x_size = rng.choice([2, 3])
        obs = [[x % 2] for x in range(x_size)]
        links = [
            {"from": f, "to": t, "delay": 1}
            for f in (1, 2, 3)
            for t in (1, 2, 3)
            if f != t
        ]
        doc = {
            "network": {"agents": 3, "links": links},
            "system": {
                "horizon": 1,
                "state_size": x_size,
                "control_sizes": [2, 1, 1],
                "observation_sizes": [2, 2, 2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(3)],
                "initial_probs": _norm(rng, x_size),
                "transition": [_rand_transition(rng, x_size, 2, 2)],
                "observation": [[obs, obs]] * 3,
                "cost": [_rand_cost(rng, x_size, 2), _rand_cost(rng, x_size, 2)],
            },
        }
    else:  # one stage, three fully linked agents, two active controllers
        x_size = 2
        obs = [[x % 2] for x in range(x_size)]
        links = [
            {"from": f, "to": t, "delay": 1}
            for f in (1, 2, 3)
            for t in (1, 2, 3)
            if f != t
        ]
        doc = {
            "network": {"agents": 3, "links": links},
            "system": {
                "horizon": 1,
                "state_size": x_size,
                "control_sizes": [2, 2, 1],
                "observation_sizes": [2, 2, 2],
                "disturbance": {"size": 2, "probs_per_t": _norm(rng, 2)},
                "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(3)],
                "initial_probs": _norm(rng, x_size),
                "transition": [_rand_transition(rng, x_size, 4, 2)],
                "observation": [[obs, obs]] * 3,
                "cost": [_rand_cost(rng, x_size, 4), _rand_cost(rng, x_size, 4)],
            },
        }
    return instance_from_dict(doc)


def relay_dict() -> dict:
    """Three agents on the relay links 1->2 (delay 2), 1->3, 2->1, 2->3 and
    3->2 (delay 1), T=1, noise-free identity observations, one control each.

    Y1@0 enters agent 1's t=1 state through agent 3's unshared block, which
    the filter cannot read off agent 1's t=0 state, so agent 1's first step
    fails with `SchemaMismatch`.
    """
    ident = [[x] for x in range(2)]
    links = [(1, 2, 2), (1, 3, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)]
    return {
        "network": {
            "agents": 3,
            "links": [{"from": f, "to": t, "delay": d} for f, t, d in links],
        },
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [1, 1, 1],
            "observation_sizes": [2, 2, 2],
            "disturbance": {"size": 2, "probs_per_t": [0.6, 0.4]},
            "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(3)],
            "initial_probs": [0.3, 0.7],
            "transition": [[[[x, (x + 1) % 2]] for x in range(2)]],
            "observation": [[ident, ident]] * 3,
            "cost": [[[0.5], [1.5]], [[1.0], [0.25]]],
        },
    }


def relay_ring_dict() -> dict:
    """The system of `relay_dict` at T=2, every stage with its stage-0
    transition, observations and cost, on the ring 1->3 (delay 2), 3->2
    (delay 1) and 2->1 (delay 2).

    Agents 3 and 2 solve. Y1@0 re-enters agent 1's equivalent state at t=2,
    which agent 1's stage-1 filter cannot read off its stage-1 state, so
    agent 1's pass fails at stage 1 with `SchemaMismatch`. Brute force gives
    3.248. The same links at T=1 solve.
    """
    doc = relay_dict()
    system = doc["system"]
    system["horizon"] = 2
    system["transition"] = system["transition"][:1] * 2
    system["observation"] = [laws[:1] * 3 for laws in system["observation"]]
    system["cost"] = system["cost"][:1] * 3
    links = [(1, 3, 2), (3, 2, 1), (2, 1, 2)]
    doc["network"]["links"] = [{"from": f, "to": t, "delay": d} for f, t, d in links]
    return doc


def tail_read_dict(seed: int) -> dict:
    """Three agents on the delays [[0, 1, 2], [0, 0, 1], [1, 1, 0]], T=1, a
    binary state with a uniform initial law, controls of sizes 2, 1 and 2,
    noise-free observations Y1 = Y2 = X and Y3 = 0, a disturbance of law
    (0.7, 0.3), `x' = (x + u + w) % 2` over the joint control index u and
    costs in [0, 2] drawn from `seed`. Brute force counts 32,768 strategies.

    At stage 0 agent 2 knows Y2@0, which equals Y1@0, so its support reads
    one row of agent 1's table; agent 3's grid still reads both Y1@0 rows,
    so agent 2's tail grids read a digit its own support does not.
    """
    rng = random.Random(seed)
    ident = [[x] for x in range(2)]
    nu = 2 * 1 * 2
    return {
        "network": {"agents": 3, "delay_matrix": [[0, 1, 2], [0, 0, 1], [1, 1, 0]]},
        "system": {
            "horizon": 1,
            "state_size": 2,
            "control_sizes": [2, 1, 2],
            "observation_sizes": [2, 2, 1],
            "disturbance": {"size": 2, "probs_per_t": [0.7, 0.3]},
            "noises": [{"size": 1, "probs_per_t": [1.0]} for _ in range(3)],
            "initial_probs": [0.5, 0.5],
            "transition": [[[[(x + u + w) % 2 for w in range(2)] for u in range(nu)]
                            for x in range(2)]],
            "observation": [[ident] * 2, [ident] * 2, [[[0], [0]]] * 2],
            "cost": [_rand_cost(rng, 2, nu) for _ in range(2)],
        },
    }


def random_topology_instance(seed: int) -> Instance:
    """A random word-of-mouth network within the brute-force cap.

    Two or three agents on a strongly connected link set: a directed cycle
    through the agents in random order, plus each other ordered pair with
    probability 1/2, every link with delay 1 or 2. Each agent's observation
    is noise-free or flipped by its own noise, and controls have one or two
    values. The horizon is 1 or 2, or 0 for one seed in five. While brute
    force would count more than 2**24 strategies, agents are made passive
    (one control value) from the last, keeping one active, and then the
    horizon is shortened.
    """
    from womctl.prescription import count_strategies

    rng = random.Random(7331 + seed)
    agents = rng.choice([2, 3])
    order = rng.sample(range(1, agents + 1), agents)
    pairs = {(order[i - 1], order[i]) for i in range(agents)}
    pairs |= {
        (f, t)
        for f in range(1, agents + 1)
        for t in range(1, agents + 1)
        if f != t and rng.random() < 0.5
    }
    links = [{"from": f, "to": t, "delay": rng.choice([1, 2])} for f, t in sorted(pairs)]
    active = [rng.random() < 0.6 for _ in range(agents)]
    active[rng.randrange(agents)] = True
    noisy = [rng.random() < 0.5 for _ in range(agents)]
    noises = [
        {"size": 2, "probs_per_t": _norm(rng, 2)} if n else {"size": 1, "probs_per_t": [1.0]}
        for n in noisy
    ]
    tables = [[[x, 1 - x] if n else [x] for x in range(2)] for n in noisy]
    initial = _norm(rng, 2)
    disturbance = {"size": 2, "probs_per_t": _norm(rng, 2)}
    tstream = random.Random(rng.random())  # transitions and costs, drawn per joint-control size
    horizon = rng.choice([0, 1, 1, 2, 2])

    def build(horizon, control_sizes):
        nu = realization_count(control_sizes)
        system = {
            "horizon": horizon,
            "state_size": 2,
            "control_sizes": control_sizes,
            "observation_sizes": [2] * agents,
            "noises": noises,
            "initial_probs": initial,
            "observation": [[table] * (horizon + 1) for table in tables],
            "cost": [_rand_cost(tstream, 2, nu) for _ in range(horizon + 1)],
        }
        if horizon:
            system.update(
                disturbance=disturbance,
                transition=[_rand_transition(tstream, 2, nu, 2) for _ in range(horizon)],
            )
        return instance_from_dict({"network": {"agents": agents, "links": links}, "system": system})

    while True:
        inst = build(horizon, [2 if a else 1 for a in active])
        if count_strategies(inst, "brute") <= 2**24:
            return inst
        if sum(active) > 1:
            active[max(k for k, a in enumerate(active) if a)] = False
        else:
            horizon -= 1
