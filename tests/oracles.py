"""Independent reference implementations used only by the tests.

These deliberately avoid the package's evaluation paths: delays come from
exhaustive simple-path enumeration, memories from an event-level message
simulation, costs from a standalone trajectory enumerator, feasible
realizations from every primitive sequence times every control sequence, and
posteriors from direct conditioning of the joint distribution.
"""

from __future__ import annotations

import functools
import itertools
import math


def all_pairs_min_delay(agent_count, links):
    """Min total delay per ordered pair by enumerating all simple paths."""
    out = {}
    adj = {}
    for frm, to, d in links:
        adj.setdefault(frm, []).append((to, d))
    for s in range(1, agent_count + 1):
        for t in range(1, agent_count + 1):
            if s == t:
                out[(s, t)] = 0
                continue
            best = math.inf
            stack = [(s, 0, {s})]
            while stack:
                node, dist, seen = stack.pop()
                for to, d in adj.get(node, []):
                    if to in seen:
                        continue
                    if to == t:
                        best = min(best, dist + d)
                    else:
                        stack.append((to, dist + d, seen | {to}))
            out[(s, t)] = best
    return out


def propagation_knowledge(agent_count, links, horizon):
    """Per (t, agent), the items known after reception and observation.

    Items are ('Y', j, s) and ('U', j, s). Each agent injects her observation
    at its stage and her control at the next stage; everything an agent learns
    is forwarded onward in the same stage it arrives.
    """
    out_links = {}
    for frm, to, d in links:
        out_links.setdefault(frm, []).append((to, d))
    knows = {k: set() for k in range(1, agent_count + 1)}
    arrivals = {}  # (time, agent) -> list of items
    snapshots = {}

    def deliver(item, agent, t):
        if item in knows[agent]:
            return
        knows[agent].add(item)
        for to, d in out_links.get(agent, []):
            arrivals.setdefault((t + d, to), []).append(item)

    for t in range(horizon + 1):
        for k in range(1, agent_count + 1):
            for item in arrivals.pop((t, k), []):
                deliver(item, k, t)
        for k in range(1, agent_count + 1):
            deliver(("Y", k, t), k, t)
        for k in range(1, agent_count + 1):
            snapshots[(t, k)] = frozenset(knows[k])
        # controls generated at t become known (and forwardable) at t+1
        for k in range(1, agent_count + 1):
            arrivals.setdefault((t + 1, k), []).append(("U", k, t))
    return snapshots


def hand_rolled_cost(instance, strategy_tables):
    """Expected cost by direct enumeration, building memories from the
    delay formula rather than the package's schema machinery."""
    sys = instance.system
    K, T = sys.agent_count, sys.horizon
    delays = instance.delays

    def memory_key(t, k, y, u):
        variables = []
        for j in range(1, K + 1):
            d = delays.delay(j, k)
            for s in range(0, t - d + 1):
                variables.append((s, j, 0, y[(s, j)]))
            for s in range(0, t - d):
                variables.append((s, j, 1, u[(s, j)]))
        variables.sort()
        return tuple(v[-1] for v in variables)

    def w_seqs():
        return itertools.product(range(sys.disturbance_size), repeat=T)

    def v_seqs():
        spaces = []
        for k in range(K):
            spaces.append(
                list(itertools.product(range(sys.noise_sizes[k]), repeat=T + 1))
            )
        return itertools.product(*spaces)

    total = 0.0
    for x0 in range(sys.state_size):
        p0 = float(sys.initial_probs[x0])
        if p0 == 0:
            continue
        for w in w_seqs():
            pw = p0
            for t in range(T):
                pw *= float(sys.disturbance_probs[t, w[t]])
            if pw == 0:
                continue
            for v in v_seqs():
                p = pw
                for k in range(K):
                    for t in range(T + 1):
                        p *= float(sys.noise_probs[k][t, v[k][t]])
                if p == 0:
                    continue
                x = x0
                y, u = {}, {}
                run_cost = 0.0
                for t in range(T + 1):
                    for k in range(1, K + 1):
                        y[(t, k)] = int(sys.observation[k - 1][t, x, v[k - 1][t]])
                    uj = 0
                    for k in range(1, K + 1):
                        act = strategy_tables[(t, k)][memory_key(t, k, y, u)]
                        u[(t, k)] = act
                        uj = uj * sys.control_sizes[k - 1] + act
                    run_cost += float(sys.cost[t, x, uj])
                    if t < T:
                        x = int(sys.transition[t, x, uj, w[t]])
                total += p * run_cost
    return total


def joint_primitives_reference(instance):
    """(prob, x0, w_seq, v_seq) by nested loops over x0, then w_seq, then
    every agent's noise sequence, with the probability built as prefix
    products; `sysmodel.joint_primitives` must yield exactly these."""
    from womctl.errors import CapExceeded
    from womctl.sysmodel import SWEEP_CAP

    sys = instance.system
    T, K = sys.horizon, sys.agent_count
    total = sys.state_size * sys.disturbance_size**T
    for k in range(K):
        total *= sys.noise_sizes[k] ** (T + 1)
    if total > SWEEP_CAP:
        raise CapExceeded(total, SWEEP_CAP, "joint primitive enumeration")
    w_space = list(itertools.product(range(sys.disturbance_size), repeat=T))
    v_spaces = [
        list(itertools.product(range(sys.noise_sizes[k]), repeat=T + 1))
        for k in range(K)
    ]
    for x0 in range(sys.state_size):
        p0 = float(sys.initial_probs[x0])
        if p0 == 0.0:
            continue
        for w_seq in w_space:
            pw = p0
            for t, w in enumerate(w_seq):
                pw *= float(sys.disturbance_probs[t, w])
            if pw == 0.0:
                continue
            for v_combo in itertools.product(*v_spaces):
                p = pw
                for k in range(K):
                    for t in range(T + 1):
                        p *= float(sys.noise_probs[k][t, v_combo[k][t]])
                if p == 0.0:
                    continue
                yield p, x0, w_seq, v_combo


def feasible_realizations(instance, schemas):
    """{schema: sorted realizations} over every primitive sequence rolled out
    under every control sequence (controls are free, so this is the union of
    supports over all strategies)."""
    from womctl.sysmodel import joint_primitives

    sys = instance.system
    K, T = sys.agent_count, sys.horizon
    control_space = list(
        itertools.product(*[range(sys.control_sizes[k]) for _ in range(T) for k in range(K)])
    )
    found = {schema: set() for schema in schemas}
    for _, x0, w_seq, v_seq in joint_primitives(instance):
        for flat in control_space:
            y, u = {}, {}
            x = x0
            for t in range(T + 1):
                for k in range(1, K + 1):
                    y[(t, k)] = int(sys.observation[k - 1][t, x, v_seq[k - 1][t]])
                if t < T:
                    controls = flat[t * K : (t + 1) * K]
                    for k in range(1, K + 1):
                        u[(t, k)] = controls[k - 1]
                    x = int(sys.transition[t, x, instance.joint_control_index(controls), w_seq[t]])
            for schema in schemas:
                found[schema].add(schema_values(schema, y, u))
    return {schema: tuple(sorted(vals)) for schema, vals in found.items()}


def rule_reference(instance, strategy, t, layout):
    """Per-history joint controls of a control or prescription strategy at
    stage t, as a function h -> (controls,): one tuple-keyed lookup per agent
    or target, in the order and with the errors of the package's rules.

    Before any lookup every agent's or target's part is checked in agent
    order. A control table must exist and map every realization to an action
    below the agent's control size. A law must exist; each of its
    prescriptions, in law order and then the default, must have the domain
    sizes of the prescription domain and every entry below the control size;
    a law without a default must hold every conditioning realization."""
    from womctl.errors import DomainMismatch, OutOfRange
    from womctl.sysmodel import ControlStrategy, enumerate_realizations, realization_strides

    info, sizes = instance.info, instance.system.control_sizes
    lookups = []
    if isinstance(strategy, ControlStrategy):
        for k in range(1, instance.agent_count + 1):
            if (t, k) not in strategy.tables:
                raise DomainMismatch(f"strategy has no table for (t={t}, agent={k})")
            table = strategy.tables[(t, k)]
            for real, act in table.items():
                if act < 0 or act >= sizes[k - 1]:
                    raise DomainMismatch(
                        f"table (t={t}, agent={k}) maps {real} to invalid action {act}"
                    )
            lookups.append((k, table, [layout.index(v) for v in info.memory(t, k)]))

        def rule(h):
            controls = []
            for k, table, pos in lookups:
                real = tuple(h[i] for i in pos)
                try:
                    controls.append(table[real])
                except KeyError:
                    raise DomainMismatch(
                        f"strategy table (t={t}, agent={k}) missing realization {real}"
                    ) from None
            return (tuple(controls),)

        return rule
    for target in range(1, instance.agent_count + 1):
        if (t, target) not in strategy.laws:
            raise DomainMismatch(f"strategy has no law for (t={t}, target={target})")
        law, default = strategy.laws[(t, target)], strategy.defaults.get((t, target))
        cond = info.conditioning_schema(t, strategy.owner, target)
        domain = info.prescription_domain(t, strategy.owner, target)
        dom_sizes = instance.schema_sizes(domain)
        entries = list(law.items()) + ([("default", default)] if default is not None else [])
        for at, presc in entries:
            if presc.domain_sizes != dom_sizes:
                raise OutOfRange(
                    f"law (t={t}, target={target}) prescription at {at} has domain "
                    f"sizes {presc.domain_sizes}, expected {dom_sizes}"
                )
            for row, u in enumerate(presc.table):
                if u < 0 or u >= sizes[target - 1]:
                    raise OutOfRange(
                        f"law (t={t}, target={target}) prescription at {at} maps row {row} "
                        f"to invalid action {u}"
                    )
        if default is None:
            for cond_real in enumerate_realizations(instance.schema_sizes(cond)):
                if cond_real not in law:
                    raise DomainMismatch(
                        f"law (t={t}, target={target}) missing conditioning realization "
                        f"{cond_real}"
                    )
        strides = realization_strides(dom_sizes)
        row = [(layout.index(var), stride) for var, stride in zip(domain, strides)]
        lookups.append((law, default, [layout.index(v) for v in cond], row))

    def rule(h):
        controls = []
        for law, default, cond_pos, row in lookups:
            presc = law.get(tuple([h[i] for i in cond_pos]), default)
            controls.append(presc.table[sum([h[i] * s for i, s in row])])
        return (tuple(controls),)

    return rule


def forward_pass_reference(instance, keep, decide):
    """The forward pass keyed by (x, history tuple): every (x, h) branches over
    the joint observations, `decide(t, layout)(h)` lists its joint controls and
    is called once per pair, the acted history is cut to `keep[t]` and the
    state branches over the disturbances, by laws built here per pair. Equal
    keys merge; the pair counts are checked against `SWEEP_CAP` at the
    package's points. Yields (t, layout, acted), `acted` listing (x, h,
    controls, joint index, mass)."""
    from womctl.errors import CapExceeded
    from womctl.infostruct import KIND_CONTROL, KIND_OBSERVATION
    from womctl.sysmodel import SWEEP_CAP, _stage_variables

    def check(count):
        if count > SWEEP_CAP:
            raise CapExceeded(count, SWEEP_CAP, "reachable (state, history) pairs")

    def observation_law(t, x):  # joint observation -> probability, noise products in agent order
        law = {}
        for v in itertools.product(*[range(s) for s in sys.noise_sizes]):
            p = 1.0
            for k, vk in enumerate(v):
                p *= float(sys.noise_probs[k][t, vk])
            if p == 0.0:
                continue
            y = tuple(int(sys.observation[k][t, x, vk]) for k, vk in enumerate(v))
            law[y] = law.get(y, 0.0) + p
        return law

    def successor_law(t, x, uj):  # next state -> probability
        law = {}
        for w in range(sys.disturbance_size):
            p = float(sys.disturbance_probs[t, w])
            if p:
                nxt = int(sys.transition[t, x, uj, w])
                law[nxt] = law.get(nxt, 0.0) + p
        return law

    sys = instance.system
    T, K = sys.horizon, sys.agent_count
    states = {(x, ()): float(p) for x, p in enumerate(sys.initial_probs) if p > 0.0}
    kept = ()
    for t in range(T + 1):
        layout = kept + _stage_variables(t, K, KIND_OBSERVATION)
        observed = {}
        for (x, h), mass in states.items():
            for y, p in observation_law(t, x).items():
                key = (x, h + y)
                observed[key] = observed.get(key, 0.0) + mass * p
            check(len(observed))
        rule = decide(t, layout)
        acted = []
        for (x, h), mass in observed.items():
            for controls in rule(h):
                acted.append((x, h, controls, instance.joint_control_index(controls), mass))
            check(len(acted))
        yield t, layout, acted
        if t == T:
            return
        full = layout + _stage_variables(t, K, KIND_CONTROL)
        cut = [i for i, var in enumerate(full) if var in keep[t]]
        kept = tuple(full[i] for i in cut)
        states = {}
        for x, h, controls, uj, mass in acted:
            full_h = h + controls
            cut_h = tuple(full_h[i] for i in cut)
            for nxt, p in successor_law(t, x, uj).items():
                key = (nxt, cut_h)
                states[key] = states.get(key, 0.0) + mass * p
            check(len(states))


def exact_cost_reference(instance, strategy):
    """(expected cost, per-stage costs) by `forward_pass_reference`, each
    stage's terms summed by `math.fsum`."""
    info, T, K = instance.info, instance.horizon, instance.agent_count
    keep = [set() for _ in range(T + 1)]
    for t in range(T - 1, -1, -1):
        keep[t] = keep[t + 1].union(*[info.memory(t + 1, k) for k in range(1, K + 1)])
    decide = functools.partial(rule_reference, instance, strategy)
    per_stage = tuple(
        math.fsum([mass * float(instance.system.cost[t, x, uj]) for x, _, _, uj, mass in acted])
        for t, _, acted in forward_pass_reference(instance, keep, decide)
    )
    return math.fsum(per_stage), per_stage


def feasible_sweep_reference(instance, schema):
    """Sorted realizations of `schema` by `forward_pass_reference` under free
    controls (only the first stage-T control), read at the first stage whose
    layout holds the whole schema."""
    from womctl.sysmodel import enumerate_realizations

    T = instance.horizon
    every = list(enumerate_realizations(instance.system.control_sizes))
    decide = lambda t, layout: lambda h: every if t < T else every[:1]  # noqa: E731
    for t, layout, acted in forward_pass_reference(instance, [set(schema)] * (T + 1), decide):
        if set(schema) <= set(layout):
            pos = [layout.index(v) for v in schema]
            return tuple(sorted({tuple(h[i] for i in pos) for _, h, _, _, _ in acted}))
    return ()


def joint_trajectories(instance, control_strategy):
    """List of (prob, y map, u map, state list) under a full control strategy."""
    from womctl.sysmodel import joint_primitives

    sys = instance.system
    K, T = sys.agent_count, sys.horizon
    rows = []
    for p, x0, w_seq, v_seq in joint_primitives(instance):
        y, u = {}, {}
        xs = [x0]
        x = x0
        for t in range(T + 1):
            for j in range(1, K + 1):
                y[(t, j)] = int(sys.observation[j - 1][t, x, v_seq[j - 1][t]])
            controls = []
            for j in range(1, K + 1):
                real = tuple(
                    (y if var.kind == "Y" else u)[(var.time, var.agent)]
                    for var in instance.info.memory(t, j)
                )
                controls.append(control_strategy.tables[(t, j)][real])
            for j in range(1, K + 1):
                u[(t, j)] = controls[j - 1]
            if t < T:
                x = int(sys.transition[t, x, instance.joint_control_index(controls), w_seq[t]])
                xs.append(x)
        rows.append((p, y, u, xs))
    return rows


def schema_values(schema, y, u, xs=None):
    out = []
    for var in schema:
        src = y if var.kind == "Y" else u
        out.append(src[(var.time, var.agent)])
    return tuple(out)


def bayes_posteriors(instance, control_strategy, k, t):
    """Direct-conditioning posteriors {a realization: {state realization: prob}}."""
    acc = instance.info.accessible(t, k)
    supp = instance.info.equivalent_state(t, k)
    posts = {}
    for p, y, u, xs in joint_trajectories(instance, control_strategy):
        a = schema_values(acc, y, u)
        s = (xs[t],) + schema_values(supp, y, u)
        posts.setdefault(a, {})
        posts[a][s] = posts[a].get(s, 0.0) + p
    out = {}
    for a, dist in posts.items():
        total = sum(dist.values())
        out[a] = {s: mass / total for s, mass in dist.items()}
    return out


def predictive_new_info(instance, control_strategy, k, t):
    """Direct {a_t realization: {z_{t+1} realization: prob}} for t < horizon."""
    acc = instance.info.accessible(t, k)
    znew = instance.info.new_info(t + 1, k)
    posts = {}
    for p, y, u, xs in joint_trajectories(instance, control_strategy):
        a = schema_values(acc, y, u)
        z = schema_values(znew, y, u)
        posts.setdefault(a, {})
        posts[a][z] = posts[a].get(z, 0.0) + p
    out = {}
    for a, dist in posts.items():
        total = sum(dist.values())
        out[a] = {z: mass / total for z, mass in dist.items()}
    return out


def _strategy_encoding(instance):
    """The brute-force encoding: per (t, k) cell its feasible memory
    realizations and radix, each cell's first digit, and each digit's weight
    (`suffix[g + 1]`), stage then agent then realization from the slowest."""
    from womctl.sysmodel import feasible_schema_realizations

    sys = instance.system
    cells = []  # (t, k, realizations, radix)
    for t in range(instance.horizon + 1):
        for k in range(1, sys.agent_count + 1):
            feas = feasible_schema_realizations(instance, instance.info.memory(t, k))
            cells.append((t, k, feas, sys.control_sizes[k - 1]))
    flat_radix, flat_cell_of = [], {}
    for t, k, feas, radix in cells:
        flat_cell_of[(t, k)] = len(flat_radix)
        flat_radix.extend([radix] * len(feas))
    suffix = [1] * (len(flat_radix) + 1)
    for c in range(len(flat_radix) - 1, -1, -1):
        suffix[c] = suffix[c + 1] * flat_radix[c]
    return cells, flat_cell_of, flat_radix, suffix


def _decoded_tables(instance, cells, flat_cell_of, suffix, best_id):
    """The dense tables of strategy `best_id`, 0 on infeasible realizations."""
    from womctl.sysmodel import enumerate_realizations

    tables = {}
    for t, k, feas, radix in cells:
        sizes = instance.schema_sizes(instance.info.memory(t, k))
        table = {real: 0 for real in enumerate_realizations(sizes)}
        base = flat_cell_of[(t, k)]
        for local, real in enumerate(feas):
            table[real] = (best_id // suffix[base + local + 1]) % radix
        tables[(t, k)] = table
    return tables


def brute_force_reference(instance, chunk=1 << 18):
    """(best cost, tables) of exhaustive search by per-id digit decoding.

    Every strategy id in a chunk of `chunk` consecutive ids is rolled out over
    every primitive sequence at once, its digits decoded with integer gathers,
    and sums its costs primitive by primitive, then stage by stage. The ids
    are those of `solve_brute_force`, and ties go to the smallest, so its
    tables must equal these unless two strategies' costs tie to rounding; its
    `vectorized_cost` sums in another order (`brute_force_tree_reference`).
    """
    import numpy as np

    from womctl.sysmodel import joint_primitives, realization_count, realization_index

    sys = instance.system
    T, K = instance.horizon, sys.agent_count
    cells, flat_cell_of, flat_radix, suffix = _strategy_encoding(instance)
    total = suffix[0]
    suffix_np = np.asarray(suffix[1:], dtype=np.int64)  # weight of each digit
    radix_np = np.asarray(flat_radix, dtype=np.int64)

    lookup = {}  # (t, k) -> (sizes, code -> local index)
    for t, k, feas, _ in cells:
        sizes = instance.schema_sizes(instance.info.memory(t, k))
        table = np.full(max(1, realization_count(sizes)), -1, dtype=np.int64)
        for local, real in enumerate(feas):
            table[realization_index(sizes, real)] = local
        lookup[(t, k)] = (sizes, table)

    prim = list(joint_primitives(instance))
    control_stride = [1] * K
    for k in range(K - 2, -1, -1):
        control_stride[k] = control_stride[k + 1] * sys.control_sizes[k + 1]

    best_cost, best_id = math.inf, -1
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        ids = np.arange(lo, hi, dtype=np.int64)
        costs = np.zeros(hi - lo)
        for p, x0, w_seq, v_seq in prim:
            x = np.full(hi - lo, x0, dtype=np.int64)
            vals = {}
            for t in range(T + 1):
                for k in range(1, K + 1):
                    vals[(t, k, "Y")] = sys.observation[k - 1][t, x, v_seq[k - 1][t]]
                uj = np.zeros(hi - lo, dtype=np.int64)
                for k in range(1, K + 1):
                    sizes, code_table = lookup[(t, k)]
                    code = np.zeros(hi - lo, dtype=np.int64)
                    for var, size in zip(instance.info.memory(t, k), sizes):
                        code = code * size + vals[var]
                    gidx = flat_cell_of[(t, k)] + code_table[code]
                    u = (ids // suffix_np[gidx]) % radix_np[gidx]
                    vals[(t, k, "U")] = u
                    uj += u * control_stride[k - 1]
                costs += p * sys.cost[t][x, uj]
                if t < T:
                    x = sys.transition[t][x, uj, w_seq[t]]
        arg = int(np.argmin(costs))
        if costs[arg] < best_cost:
            best_cost, best_id = float(costs[arg]), lo + arg
    return best_cost, _decoded_tables(instance, cells, flat_cell_of, suffix, best_id)


def history_tree_reference(instance):
    """Per stage, (layout, acted) of `forward_pass_reference` with every joint
    control taken at every stage and nothing cut: the history tree brute
    force walks."""
    from womctl.infostruct import KIND_CONTROL, KIND_OBSERVATION, VariableId
    from womctl.sysmodel import enumerate_realizations

    T, K = instance.horizon, instance.agent_count
    every = list(enumerate_realizations(instance.system.control_sizes))
    uncut = {VariableId(t, k, kind) for t in range(T + 1) for k in range(1, K + 1)
             for kind in (KIND_OBSERVATION, KIND_CONTROL)}
    decide = lambda t, layout: lambda h: every  # noqa: E731
    return [(layout, acted) for _, layout, acted in
            forward_pass_reference(instance, [uncut] * (T + 1), decide)]


def brute_force_tree_reference(instance, chunk=1 << 18):
    """(best cost, tables) of exhaustive search over `history_tree_reference`.

    A (history, joint control) node costs the left fold from 0.0 of mass times
    stage cost over the history's (state, history) pairs in pass order. Every
    strategy id in a chunk of `chunk` consecutive ids, its digits decoded
    against `feasible_schema_realizations`, sums the costs of the nodes it
    reaches in depth-first preorder: the stage-0 histories in first-seen
    order, and after each node the histories that extend it, in first-seen
    order. Encoding, float addition order and tie-breaking are those of
    `solve_brute_force`, so its `vectorized_cost` and tables must equal these
    exactly.
    """
    import numpy as np

    sys = instance.system
    K, nu = sys.agent_count, sys.joint_control_count
    cells, flat_cell_of, flat_radix, suffix = _strategy_encoding(instance)
    total = suffix[0]
    digit_of = {(t, k): {real: flat_cell_of[(t, k)] + i for i, real in enumerate(feas)}
                for t, k, feas, _ in cells}
    control_stride = [math.prod(sys.control_sizes[k + 1:]) for k in range(K)]

    stages = []  # per stage: {history: (node costs by joint control, digit per agent)}
    kids = {}  # (stage, parent history, joint control) -> child histories in first-seen order
    for t, (layout, acted) in enumerate(history_tree_reference(instance)):
        costs = {}
        for x, h, _, uj, mass in acted:
            costs.setdefault(h, [0.0] * nu)[uj] += mass * float(sys.cost[t, x, uj])
        stages.append({})
        for h, row in costs.items():
            digits = [
                digit_of[(t, k)][tuple(h[layout.index(v)] for v in instance.info.memory(t, k))]
                for k in range(1, K + 1)
            ]
            stages[t][h] = np.asarray(row), digits
            if t:
                parent, uj = h[:-2 * K], instance.joint_control_index(h[-2 * K:-K])
                kids.setdefault((t - 1, parent, uj), []).append(h)

    best_cost, best_id = math.inf, -1
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        ids = np.arange(lo, hi, dtype=np.int64)
        totals = np.zeros(hi - lo)

        @functools.cache
        def value(g):  # digit g of every id
            return (ids // suffix[g + 1]) % flat_radix[g]

        def visit(t, h, reach):
            node_costs, digits = stages[t][h]
            uj = np.zeros(hi - lo, dtype=np.int64)
            for k, g in enumerate(digits):
                uj += value(g) * control_stride[k]
            np.add(totals, node_costs[uj], out=totals, where=reach)
            for u in range(nu):
                children = kids.get((t, h, u), ())
                if children and (below := reach & (uj == u)).any():
                    for child in children:
                        visit(t + 1, child, below)

        for h in stages[0]:
            visit(0, h, np.ones(hi - lo, dtype=bool))
        arg = int(np.argmin(totals))
        if totals[arg] < best_cost:
            best_cost, best_id = float(totals[arg]), lo + arg
    return best_cost, _decoded_tables(instance, cells, flat_cell_of, suffix, best_id)


def trace_step_reference(instance, k, t, state_values, controls, w, v_vector):
    """`womctl.belief.StepKernel.advance` at one point, decoded, by a
    dictionary of every variable known after the step: the stage-t state's
    coordinates, the stage-t controls and the fresh stage-t+1 observations.
    Returns (next state values, new-information values)."""
    from womctl.errors import SchemaMismatch
    from womctl.infostruct import KIND_CONTROL, KIND_OBSERVATION

    sys = instance.system
    support = instance.info.equivalent_state(t, k)
    x = state_values[0]
    values = tuple(state_values[1:])
    uj = instance.joint_control_index(controls)
    x_next = int(sys.transition[t, x, uj, w])

    known = dict(zip(support, values))
    for j in range(1, sys.agent_count + 1):
        known[(t + 1, j, KIND_OBSERVATION)] = int(
            sys.observation[j - 1][t + 1, x_next, v_vector[j - 1]]
        )
        known[(t, j, KIND_CONTROL)] = controls[j - 1]

    def read(schema):
        out = []
        for var in schema:
            if var not in known:
                raise SchemaMismatch(f"variable {var} not derivable from the state")
            out.append(known[var])
        return tuple(out)

    next_state = (x_next,) + read(instance.info.equivalent_state(t + 1, k))
    new_info = read(instance.info.new_info(t + 1, k))
    return next_state, new_info


def initial_pass_reference(instance, k):
    """`womctl.belief._initial_pass` as a scalar loop over (x0, t=0 noises):
    agent k's initial beliefs and the mass of each accessible realization,
    both keyed in sorted order."""
    import numpy as np

    from womctl.belief import InformationState, _support_sizes
    from womctl.errors import SchemaMismatch
    from womctl.infostruct import KIND_OBSERVATION
    from womctl.sysmodel import realization_count, realization_index

    sys = instance.system
    acc = instance.info.accessible(0, k)
    support = instance.info.equivalent_state(0, k)
    sizes = _support_sizes(instance, support)
    total = realization_count(sizes)
    masses: dict[tuple, np.ndarray] = {}
    support_mass: dict[tuple, float] = {}
    noise_axes = [range(sys.noise_sizes[j]) for j in range(sys.agent_count)]
    for x0 in range(sys.state_size):
        p0 = float(sys.initial_probs[x0])
        if p0 == 0.0:
            continue
        for v in itertools.product(*noise_axes):
            p = p0
            for j in range(sys.agent_count):
                p *= float(sys.noise_probs[j][0, v[j]])
            if p == 0.0:
                continue
            y = {
                (0, j, KIND_OBSERVATION): int(sys.observation[j - 1][0, x0, v[j - 1]])
                for j in range(1, sys.agent_count + 1)
            }
            try:
                a_real = tuple(y[var] for var in acc)
                s_real = (x0,) + tuple(y[var] for var in support)
            except KeyError as exc:
                raise SchemaMismatch(
                    f"initial schema variable {exc.args[0]} is not a t=0 observation"
                ) from exc
            if a_real not in masses:
                masses[a_real] = np.zeros(total)
            masses[a_real][realization_index(sizes, s_real)] += p
            support_mass[a_real] = support_mass.get(a_real, 0.0) + p
    states = {}
    for a_real in sorted(masses):
        vec = masses[a_real]
        states[a_real] = InformationState(agent=k, time=0, support=support, probs=vec / vec.sum())
    return states, dict(sorted(support_mass.items()))


def controls_from_state_reference(instance, theta, support, values):
    """The controls theta's prescriptions give at one state: each part applied
    to its domain's coordinates, read by variable name."""
    from womctl.errors import SchemaMismatch
    from womctl.prescription import apply_prescription

    var_vals = dict(zip(support, values))
    controls = []
    for target in range(1, instance.agent_count + 1):
        part = theta.parts[target - 1]
        try:
            inputs = tuple(var_vals[v] for v in part.domain)
        except KeyError as exc:
            raise SchemaMismatch(
                f"prescription domain variable {exc.args[0]} is not a state coordinate"
            ) from exc
        controls.append(apply_prescription(part, inputs))
    return tuple(controls)


def belief_step_reference(instance, pi, theta):
    """`womctl.belief.belief_step` as a scalar loop: one `trace_step_reference`
    per positive-mass support point, disturbance and noise vector, with the
    controls recomputed from theta at every support point."""
    import numpy as np

    from womctl.belief import (
        ZERO_TOL,
        InformationState,
        _check_theta,
        _support_sizes,
    )
    from womctl.errors import SchemaMismatch
    from womctl.sysmodel import index_realization, realization_count, realization_index

    sys = instance.system
    k, t = pi.agent, pi.time
    if t >= sys.horizon:
        raise SchemaMismatch("no stage follows the horizon")
    _check_theta(instance, k, t, theta)
    support = instance.info.equivalent_state(t, k)
    next_support = instance.info.equivalent_state(t + 1, k)
    next_sizes = _support_sizes(instance, next_support)
    next_total = realization_count(next_sizes)
    sizes = _support_sizes(instance, pi.support)
    noise_axes = [range(sys.noise_sizes[j]) for j in range(sys.agent_count)]
    acc: dict[tuple, np.ndarray] = {}
    for s_idx in np.nonzero(pi.probs > 0.0)[0]:
        ps = float(pi.probs[s_idx])
        s_vals = index_realization(sizes, int(s_idx))
        controls = controls_from_state_reference(instance, theta, support, s_vals[1:])
        for w in range(sys.disturbance_size):
            pw = ps * float(sys.disturbance_probs[t, w])
            if pw == 0.0:
                continue
            for v in itertools.product(*noise_axes):
                p = pw
                for j in range(sys.agent_count):
                    p *= float(sys.noise_probs[j][t + 1, v[j]])
                if p == 0.0:
                    continue
                s_next, z = trace_step_reference(instance, k, t, s_vals, controls, w, v)
                if z not in acc:
                    acc[z] = np.zeros(next_total)
                acc[z][realization_index(next_sizes, s_next)] += p
    out = {}
    for z in sorted(acc):
        vec = acc[z]
        mass = float(vec.sum())
        if mass <= ZERO_TOL:
            continue
        out[z] = (
            mass,
            InformationState(agent=k, time=t + 1, support=next_support, probs=vec / mass),
        )
    return out


def dp_reference(instance, k):
    """Prescription DP for agent k by per-candidate stage-cost calls.

    Solves agents K..k in turn. Every node tries its joint head candidates in
    `itertools.product` order, scores each with `expected_stage_cost`, and
    keeps the first strict minimum. Beliefs advance through
    `belief_step_reference`, and the strategy is emitted by replaying the
    decided tree. Returns the dict of what
    `solve_prescription_dp` reports: dp_value, chain_values, chain_examined,
    belief_policy, belief_tree, the prescription laws and the control tables
    of the emitted strategy.
    """
    import dataclasses

    from womctl.belief import expected_stage_cost
    from womctl.prescription import (
        CompletePrescription,
        PrescriptionStrategy,
        derive_complete,
        enumerate_prescriptions,
        joint_control_strategy,
        make_prescription,
    )
    from womctl.sysmodel import enumerate_realizations, realization_count

    K, T = instance.agent_count, instance.horizon
    info = instance.info
    decisions, values, examined = {}, {}, {}

    def theta_at(j, t, pis, heads):
        tails = [
            dataclasses.replace(
                decisions[m][(t, _tuple_key(pis[m - j:]))][m - 1], owner=j
            )
            for m in range(j + 1, K + 1)
        ]
        return CompletePrescription(owner=j, time=t, parts=heads + tuple(tails))

    def children(j, t, amap, pis, theta):
        tail_steps = {
            i: belief_step_reference(instance, pis[i - j], derive_complete(instance, theta, i))
            for i in range(j + 1, K + 1)
        }
        for z, (pz, pi_next) in belief_step_reference(instance, pis[0], theta).items():
            child = dict(amap)
            child.update(zip(info.new_info(t + 1, j), z))
            pis_child = [pi_next]
            for i in range(j + 1, K + 1):
                z_i = tuple(child[var] for var in info.new_info(t + 1, i))
                pis_child.append(tail_steps[i][z_i][1])
            yield pz, child, tuple(pis_child)

    def solve(j):
        spaces = {
            t: [list(enumerate_prescriptions(instance, t, j, m)) for m in range(1, j + 1)]
            for t in range(T + 1)
        }
        memo, chosen, count = {}, {}, 0

        def visit(t, amap, pis):
            nonlocal count
            key = (t, _tuple_key(pis))
            if key in memo:
                return memo[key]
            best_val, best_heads = math.inf, None
            for heads in itertools.product(*spaces[t]):
                count += 1
                theta = theta_at(j, t, pis, heads)
                val = expected_stage_cost(instance, pis[0], theta)
                if t < T:
                    for pz, child, pis_child in children(j, t, amap, pis, theta):
                        val += pz * visit(t + 1, child, pis_child)
                if val < best_val:
                    best_val, best_heads = val, heads
            memo[key] = best_val
            chosen[key] = best_heads
            return best_val

        total = 0.0
        for pa, amap, pis in _reference_roots(instance, j):
            total += pa * visit(0, amap, pis)
        decisions[j], values[j], examined[j] = chosen, total, count

    for j in range(K, k - 1, -1):
        solve(j)

    laws = {}
    for t in range(T + 1):
        for m in range(1, K + 1):
            entries = realization_count(instance.schema_sizes(info.prescription_domain(t, k, m)))
            zero = make_prescription(instance, t, k, m, (0,) * entries)
            cond_sizes = instance.schema_sizes(info.conditioning_schema(t, k, m))
            laws[(t, m)] = {real: zero for real in enumerate_realizations(cond_sizes)}
    tree = []

    def replay(t, amap, pis):
        theta = theta_at(k, t, pis, decisions[k][(t, _tuple_key(pis))])
        for m, part in enumerate(theta.parts, start=1):
            laws[(t, m)][tuple(amap[v] for v in info.conditioning_schema(t, k, m))] = part
        tree.append(
            {
                "t": t,
                "accessible": {v.label(): amap[v] for v in info.accessible(t, k)},
                "beliefs": {f"agent_{pi.agent}": [float(p) for p in pi.probs] for pi in pis},
            }
        )
        if t < T:
            for _, child, pis_child in children(k, t, amap, pis, theta):
                replay(t + 1, child, pis_child)

    for _, amap, pis in _reference_roots(instance, k):
        replay(0, amap, pis)
    return {
        "dp_value": values[k],
        "chain_values": values,
        "chain_examined": examined,
        "belief_policy": [
            {
                "t": t,
                "belief_key": [list(part) for part in key],
                "tables": {m: list(p.table) for m, p in enumerate(heads, start=1)},
            }
            for (t, key), heads in sorted(decisions[k].items())
        ],
        "belief_tree": tree,
        "laws": laws,
        "tables": joint_control_strategy(instance, PrescriptionStrategy(k, laws)).tables,
    }


def relaxed_reference(instance, k):
    """Relaxed value of agent k's static decomposition by plain loops.

    For each realization of agent k's t=0 accessible information, takes the
    least unnormalized stage cost over every joint tuple of tables for all K
    targets on agent k's prescription domains, summing p * cost over the
    (x0, noise) rows that produce the realization. Returns the fsum of those
    minima.
    """
    sys = instance.system
    K = sys.agent_count
    domains = [instance.info.prescription_domain(0, k, m) for m in range(1, K + 1)]
    acc = instance.info.accessible(0, k)
    rows_by_leaf = {}
    for x0 in range(sys.state_size):
        for v in itertools.product(*(range(n) for n in sys.noise_sizes)):
            p = float(sys.initial_probs[x0])
            for j in range(K):
                p *= float(sys.noise_probs[j][0, v[j]])
            if p == 0.0:
                continue
            y = {(0, j, "Y"): int(sys.observation[j - 1][0, x0, v[j - 1]]) for j in range(1, K + 1)}
            rows_by_leaf.setdefault(tuple(y[var] for var in acc), []).append((p, x0, y))

    def row(domain, y):
        index = 0
        for var in domain:
            index = index * instance.variable_size(var) + y[var]
        return index

    spaces = []
    for m, domain in enumerate(domains, start=1):
        entries = math.prod(instance.variable_size(var) for var in domain)
        spaces.append(list(itertools.product(range(sys.control_sizes[m - 1]), repeat=entries)))
    minima = []
    for leaf in sorted(rows_by_leaf):
        best = math.inf
        for tables in itertools.product(*spaces):
            total = 0.0
            for p, x0, y in rows_by_leaf[leaf]:
                controls = [table[row(domain, y)] for table, domain in zip(tables, domains)]
                total += p * float(sys.cost[0, x0, instance.joint_control_index(controls)])
            best = min(best, total)
        minima.append(best)
    return math.fsum(minima)


class _ReferenceStage:
    """A stage of the reference pass: node keys in first-visit order, `index`
    from key to node, per node agent j's belief (`probs`), its node in agent
    j + 1's stage found by key (`tail`, -1 for agent K), its tables for
    targets 1..K (`decided`, one row each, stacked per target into `tables`
    once the pass ends) and its winner's branches as (z, mass, child key,
    child beliefs of agents j..K)."""

    def __init__(self):
        self.keys, self.probs, self.tail, self.decided, self.tables, self.branches = (
            [], [], [], [], [], []
        )
        self.index = {}


def _tuple_key(pis):
    """The key of a tuple of beliefs: each element rounded as
    `rint(p * 1e12) / 1e12`, ties to even."""
    import numpy as np

    return tuple(tuple((np.rint(pi.probs * 1e12) / 1e12).tolist()) for pi in pis)


def _reference_roots(instance, j):
    """Agent j's t=0 roots: (mass, accessible map, beliefs of agents j..K)."""
    from womctl.belief import accessible_support, initial_state_at
    from womctl.sysmodel import restrict_realization

    acc0 = instance.info.accessible(0, j)
    for a_real, pa in accessible_support(instance, j).items():
        pis = tuple(
            initial_state_at(
                instance, i, restrict_realization(acc0, a_real, instance.info.accessible(0, i))
            )
            for i in range(j, instance.agent_count + 1)
        )
        yield pa, dict(zip(acc0, a_real)), pis


def _inherited_nodes(instance, chain, j, t, key):
    """Per agent m above j, its node at stage t in its reference pass: the
    one whose key is the tail of the belief tuple `key` from agent m on."""
    from womctl.errors import WomError

    nodes = []
    for m in range(j + 1, instance.agent_count + 1):
        n = chain[m].stages[t].index.get(key[m - j:])
        if n is None:
            raise WomError(
                f"missing inherited decision for agent {m} at t={t}; "
                "the belief tuple was never reached in that agent's pass"
            )
        nodes.append(n)
    return nodes


def _advance_branch(instance, j, t, amap, z, pi_next, tail_steps):
    """Child accessible map and belief tuple after observing z."""
    from womctl.errors import WomError

    amap_child = dict(amap)
    amap_child.update(zip(instance.info.new_info(t + 1, j), z))
    pis_child = [pi_next]
    for i in range(j + 1, instance.agent_count + 1):
        z_i = tuple(amap_child[var] for var in instance.info.new_info(t + 1, i))
        steps_i = tail_steps[i]
        if z_i not in steps_i:
            raise WomError(
                f"agent {i} new information {z_i} impossible on a positive branch"
            )
        pis_child.append(steps_i[z_i][1])
    return amap_child, tuple(pis_child)


def _reference_spaces(instance, j, caps):
    """Per stage, the tables of each of agent j's targets 1..j, from
    `enumerate_prescription_tables`. Every stage's counts are checked
    against the cap, with the solver's messages, before any table is built."""
    from womctl.errors import CapExceeded
    from womctl.prescription import enumerate_prescription_tables

    shapes = []
    for t in range(instance.horizon + 1):
        joint, where, per_target = 1, f"agent {j}, stage {t}: ", []
        for m in range(1, j + 1):
            sizes = instance.schema_sizes(instance.info.prescription_domain(t, j, m))
            csize = instance.system.control_sizes[m - 1]
            count = csize ** math.prod(sizes)
            if count > caps.tables:
                raise CapExceeded(count, caps.tables, where + "prescription enumeration")
            joint *= count
            per_target.append((sizes, csize))
        if joint > caps.tables:
            raise CapExceeded(joint, caps.tables, where + "joint prescription search")
        shapes.append(per_target)
    return [
        [enumerate_prescription_tables(sizes, csize, caps.tables) for sizes, csize in per_target]
        for per_target in shapes
    ]


def _reference_controls(instance, j, t, tables, tails, pi):
    """Every candidate's joint control at each positive-mass support index of
    agent `pi.agent`'s stage-t belief `pi`, a row per index, candidates in
    `itertools.product` order over agent j's target stacks `tables` with the
    tables `tails` for targets j+1..K; and those indices' states."""
    import numpy as np

    from womctl.sysmodel import STATE, realization_strides, schema_rows

    domains = [
        instance.info.prescription_domain(t, j, m) for m in range(1, instance.agent_count + 1)
    ]
    support_schema = instance.info.equivalent_state(t, pi.agent)
    x, *rows = schema_rows(instance, support_schema, [(STATE,)] + domains, state=True)
    support = np.flatnonzero(pi.probs > 0.0)
    index = np.indices([len(stack) for stack in tables]).reshape(len(tables), -1)
    controls = np.zeros((len(support), index.shape[1]), dtype=np.int64)
    strides = realization_strides(instance.system.control_sizes)
    for m, (row, stride) in enumerate(zip(rows, strides)):
        at = row[support]
        if m < j:
            controls += stride * tables[m][index[m][None, :], at[:, None]].astype(np.int64)
        else:
            controls += stride * np.asarray(tails[m - j])[at].astype(np.int64)[:, None]
    return controls, x[support], support


def solve_agent_reference(instance, j, chain, caps):
    """Agent j's pass as a depth-first recursion, one node at a time.

    This is the search `solver._solve_agent` ran before it went stage by
    stage, over the full product of `enumerate_prescription_tables`' stacks
    with its own scoring and its kernel calls made on one-row stacks, and it
    returns the same `_Pass` record. Every candidate steps the beliefs of
    every agent j..K, and a node's inherited tables are found by looking its
    belief tuple's 12-decimal keys up in the higher agents' reference
    stages, so the chain must be one of reference passes. Its stages are
    `_ReferenceStage`s, its roots (mass, node, accessible map, agent j's
    belief), and a branch's tail beliefs are those of the tail passes' nodes
    its key finds. Steps, shared steps and kernel entries count agent j's
    own kernel only. A failure other than a cap names the agent and the
    stage of the visit it left open.
    """
    import time

    import numpy as np

    from womctl.belief import StepKernel
    from womctl.errors import CapExceeded, WomError
    from womctl.solver import _Pass

    started = time.perf_counter()
    T, K = instance.horizon, instance.agent_count
    spaces = _reference_spaces(instance, j, caps)
    kernels: dict = {}  # per (stage, agent), built on the first step
    read: set = set()  # the (stage, support index and joint control code) pairs agent j stepped
    memo: dict = {}
    stages = [_ReferenceStage() for _ in range(T + 1)]
    examined = nodes = computed = shared = 0
    open_stages = []  # the stages of the visits in progress

    def step(t, pi, controls, done):
        nonlocal computed, shared
        own = pi.agent == j
        if controls in done:
            shared += own
            return done[controls]
        if (t, pi.agent) not in kernels:
            kernels[(t, pi.agent)] = StepKernel(instance, pi.agent, t)
        computed += own
        kernel = kernels[(t, pi.agent)]
        support = np.flatnonzero(pi.probs > 0.0)
        uj = np.array(controls, dtype=np.int64)
        if own:
            codes = support * instance.system.joint_control_count + uj
            read.update((t, code) for code in codes.tolist())
        pairs = (np.zeros_like(support), support, uj, pi.probs[support])
        done[controls] = kernel.branches(kernel.step(1, pairs), 0)
        return done[controls]

    def visit(t, amap, pis):
        nonlocal examined, nodes
        key = (t, _tuple_key(pis))
        if key in memo:
            return memo[key]
        stage = stages[t]
        n = stage.index[key[1]] = len(stage.keys)
        stage.keys.append(key[1])
        stage.probs.append(pis[0].probs)
        stage.decided.append(None)
        stage.branches.append(None)
        nodes += 1
        open_stages.append(t)
        if nodes > caps.branches:
            raise CapExceeded(nodes, caps.branches, "reachable belief branches", exact=False)
        above = _inherited_nodes(instance, chain, j, t, key[1])
        stage.tail.append(above[0] if above else -1)
        tails = [chain[m].stages[t].tables[m - 1][u] for m, u in enumerate(above, start=j + 1)]
        controls, x, support = _reference_controls(instance, j, t, spaces[t], tails, pis[0])
        stage_cost = np.zeros(controls.shape[1])
        for xs, s, uj in zip(x.tolist(), support.tolist(), controls):  # ascending support order
            stage_cost += pis[0].probs[s] * instance.system.cost[t, xs, uj]
        examined += len(stage_cost)
        if t == T:
            best = int(stage_cost.argmin())
            best_val = float(stage_cost[best])
            best_decision = (best, [])
        else:
            controls = [
                list(map(tuple, _reference_controls(instance, j, t, spaces[t], tails, pi)[0].T.tolist()))
                for pi in pis
            ]
            done = [{} for _ in pis]  # per agent, the node's steps by control tuple
            best_val, best_decision = math.inf, None
            for c, val in enumerate(stage_cost.tolist()):
                steps, *tail = [
                    step(t, pi, ctrl[c], seen) for pi, ctrl, seen in zip(pis, controls, done)
                ]
                tail_steps = dict(zip(range(j + 1, K + 1), tail))
                # every child is visited so lower agents can inherit decisions
                # at any tuple their own candidate profiles can reach
                branches = []
                for z, (pz, pi_next) in steps.items():
                    amap_child, pis_child = _advance_branch(
                        instance, j, t, amap, z, pi_next, tail_steps
                    )
                    val += pz * visit(t + 1, amap_child, pis_child)
                    child_key = _tuple_key(pis_child)
                    beliefs = [pi_next.probs] + [
                        chain[m].stages[t + 1].probs[u]
                        for m, u in enumerate(
                            _inherited_nodes(instance, chain, j, t + 1, child_key), start=j + 1
                        )
                    ]
                    branches.append((z, pz, child_key, beliefs))
                if val < best_val:
                    best_val, best_decision = val, (c, branches)
        memo[key] = best_val
        best, stage.branches[n] = best_decision
        index = np.unravel_index(best, [len(stack) for stack in spaces[t]])
        stage.decided[n] = [space[i] for space, i in zip(spaces[t], index)] + tails
        open_stages.pop()
        return best_val

    total, roots = 0.0, []
    try:
        for pa, amap, pis in _reference_roots(instance, j):
            total += pa * visit(0, amap, pis)
            n = stages[0].index[_tuple_key(pis)]
            roots.append((pa, n, amap, pis[0].probs))
    except CapExceeded:
        raise
    except WomError as exc:
        exc.args = (f"agent {j}, stage {open_stages[-1] if open_stages else 0}: {exc}",)
        raise
    for stage in stages:
        stage.tables = [np.array(rows) for rows in zip(*stage.decided)]
        stage.tail = np.array(stage.tail)
    return _Pass(
        stages, roots, total, examined, computed, shared, len(read),
        tuple(len(stage.keys) for stage in stages),
        time.perf_counter() - started,
    )
