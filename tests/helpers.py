"""Independent re-implementations used as test oracles.

Everything here recomputes expected values along a different path than the
library code: the linear program below re-states the timing constraints for
scipy's solver, the grid searches enumerate alternatives directly, the
recomputing run memory prices every order a solver asks for in full, the
reference time-chain step, its walk along an order and the ant
construction read node attributes and scan every node where the library
reads its per-node timing table and open candidates, the reference colony
weighs each ant step from the raw trails and desirabilities where the
library keeps each pass's weights, the anchored-order check scans a whole
order where the solvers compare ranks, and the reference tabu search times
every move of every iteration in full and assembles in move order where the
library ranks one scan per order by objective floor.
"""

import math
from collections import deque

import numpy as np

from evroute import AcoParams, Instance, NodeKind, Schedule, TsParams, bfd_initial, meta
from evroute.core import TIME_TOL, objective_floor
from evroute.errors import NoSolutionFoundError
from evroute.meta import ETA_EPS, _RunMemo, _admissible_moves, _moves, aco_select, pheromone_update
from evroute.schedule import propagate_times

_GRID_MARGIN = 8  # minutes explored above each chain/window lower bound


def _walk(inst, u, charge):
    nd = inst.nodes[u]
    if charge[u] and nd.charging is not None and nd.kind is not NodeKind.END:
        return nd.charging.walk_time
    return 0.0


def lp_min_arrival(inst: Instance, order, charge, target):
    """Minimal feasible arrival at ``target`` for fixed order and charge
    flags, via scipy linprog over the timing constraints."""
    from scipy.optimize import linprog

    n = len(order)
    pos = {u: i for i, u in enumerate(order)}
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, u in enumerate(order):
        nd = inst.nodes[u]
        w_u = _walk(inst, u, charge)
        if nd.kind is NodeKind.FIXED:
            row = [0.0] * n
            row[i] = 1.0
            A_eq.append(row)
            b_eq.append(nd.fixed_arrival - w_u)
        elif nd.kind is NodeKind.SEPARATOR:
            rank = inst.separators.index(u)
            row = [0.0] * n
            row[i] = -1.0
            if rank == 0:
                row[0] = 1.0
                A_ub.append(row)
                b_ub.append(-w_u)
            else:
                A_ub.append(row)
                b_ub.append(-(inst.nodes[inst.separators[rank - 1]].a_max + w_u))
        else:
            row = [0.0] * n
            row[i] = -1.0
            A_ub.append(row)
            b_ub.append(-(nd.a_min - w_u))
        row = [0.0] * n
        row[i] = 1.0
        A_ub.append(row)
        b_ub.append(nd.a_max - nd.duration - w_u)
        if i > 0:
            p = order[i - 1]
            pn = inst.nodes[p]
            w_p = _walk(inst, p, charge)
            w_here = _walk(inst, u, charge)
            row = [0.0] * n
            row[i] = -1.0
            if pn.kind is NodeKind.SEPARATOR:
                A_ub.append(row)
                b_ub.append(-(pn.a_max + w_p + inst.travel[p, u] + w_here))
            else:
                row[i - 1] = 1.0
                A_ub.append(row)
                b_ub.append(-(pn.duration + 2.0 * w_p + inst.travel[p, u] + w_here))
    c = [0.0] * n
    c[pos[target]] = 1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq or None, b_eq=b_eq or None,
        bounds=[(0.0, None)] * n, method="highs",
    )
    return res.fun if res.success else None


def grid_min_arrivals(inst: Instance, order, charge, targets):
    """Minimal arrivals at each target over 1-minute-grid schedules.

    Free nodes take integer arrivals from their lower bound upward (delaying
    a prefix never lowers later chain bounds, so a small band above every
    lower bound covers all minimizers); fixed nodes take their exact pin.
    Returns a dict target -> best value found, or None when no grid
    schedule is feasible.
    """
    n = len(order)
    best = {t: math.inf for t in targets}
    found = [False]

    def options(i, prev_arrival):
        u = order[i]
        nd = inst.nodes[u]
        w_u = _walk(inst, u, charge)
        if i == 0:
            lo = max(0.0, nd.a_min - w_u)
        else:
            p = order[i - 1]
            pn = inst.nodes[p]
            w_p = _walk(inst, p, charge)
            if pn.kind is NodeKind.SEPARATOR:
                chain = pn.a_max + w_p + inst.travel[p, u] + w_u
            else:
                chain = prev_arrival + pn.duration + 2.0 * w_p + inst.travel[p, u] + w_u
            if nd.kind is NodeKind.SEPARATOR:
                rank = inst.separators.index(u)
                ref = arrivals[0] if rank == 0 else inst.nodes[inst.separators[rank - 1]].a_max
                lo = max(chain, ref + w_u)
            elif nd.kind is NodeKind.FIXED:
                pin = nd.fixed_arrival - w_u
                return [pin] if chain <= pin + 1e-9 else []
            else:
                lo = max(chain, nd.a_min - w_u)
        hi = nd.a_max - nd.duration - w_u
        if lo > hi + 1e-9:
            return []
        # the exact lower bound plus the 1-minute grid above it; sub-minute
        # boundary values would otherwise make tight chains unreachable
        start = math.ceil(lo - 1e-9)
        stop = min(math.floor(hi + 1e-9), start + _GRID_MARGIN)
        out = [lo]
        out.extend(float(t) for t in range(start, stop + 1) if t > lo + 1e-9)
        return out

    arrivals = [0.0] * n

    def rec(i):
        if i == n:
            found[0] = True
            for t in targets:
                best[t] = min(best[t], arrivals[order.index(t)])
            return
        for a in options(i, arrivals[i - 1] if i > 0 else 0.0):
            arrivals[i] = a
            rec(i + 1)

    rec(0)
    if not found[0]:
        return None
    return best


def brute_min_stop_count(inst: Instance, order):
    """Minimum stop count over all charge subsets that stay feasible."""
    from evroute import propagate_times

    chargeable = [u for u in range(inst.n - 1) if inst.nodes[u].charging is not None]
    best = None
    for mask in range(1 << len(chargeable)):
        charge = [0] * inst.n
        m, i = mask, 0
        while m:
            if m & 1:
                charge[chargeable[i]] = 1
            m >>= 1
            i += 1
        if propagate_times(order, charge, inst) is None:
            continue
        if _reference_ranges(order, _reference_gains(order, charge, inst), inst)[1] is not None:
            continue
        count = sum(charge[:-1])
        if best is None or count < best:
            best = count
    return best


def _reference_gains(order, charge, inst):
    """Capped gains in their own pass over the range chain."""
    gains = [0.0] * inst.n
    cur = inst.k_start
    last = len(order) - 1
    for pos, u in enumerate(order):
        node = inst.nodes[u]
        if charge[u] and node.charging is not None and u != inst.n - 1:
            gains[u] = max(0.0, min(node.charging.max_gain, inst.k_max - cur))
        if pos < last:
            cur = min(cur + gains[u], inst.k_max) - inst.dist_rows[u][order[pos + 1]]
    return tuple(gains)


def _reference_ranges(order, gains, inst):
    """Arrival ranges and first deficit in a second pass over the chain."""
    from evroute.core import RANGE_TOL

    k = [math.nan] * inst.n
    cur = inst.k_start
    k[order[0]] = cur
    deficit = order[0] if cur < inst.k_min - RANGE_TOL else None
    prev = order[0]
    for u in order[1:]:
        cur = min(cur + gains[prev], inst.k_max) - inst.dist_rows[prev][u]
        k[u] = cur
        if deficit is None and cur < inst.k_min - RANGE_TOL:
            deficit = u
        prev = u
    return tuple(k), deficit


def reference_assemble(order, inst):
    """``assemble_schedule`` with the charging planner written plainly.

    Every charge set the planner considers is priced from scratch: gains,
    ranges, a full ``propagate_times`` and the objective, each in its own
    pass, and each round of the end-charge loop recomputes its base.
    """
    from evroute import objective_value, propagate_times
    from evroute.core import RANGE_TOL
    from evroute.schedule import EXTRA_STOP_FRACTION, RANK_EPS

    w = inst.weights
    nodes, n = inst.nodes, inst.n
    charge = [0] * n
    if propagate_times(order, charge, inst) is None:
        return None
    pos_of = {u: i for i, u in enumerate(order)}

    def ranked_candidates(ranges, limit_pos):
        cands = []
        for u in order[:limit_pos]:
            node = nodes[u]
            if charge[u] or node.charging is None or u == n - 1:
                continue
            head = min(node.charging.max_gain, inst.k_max - ranges[u])
            if head <= RANGE_TOL:
                continue
            cands.append((-head / (2.0 * node.charging.walk_time + RANK_EPS), u))
        cands.sort()
        return [u for _, u in cands]

    added = []
    while True:
        ranges, deficit = _reference_ranges(order, _reference_gains(order, charge, inst), inst)
        if deficit is None:
            break
        for u in ranked_candidates(ranges, pos_of[deficit]):
            charge[u] = 1
            if propagate_times(order, charge, inst) is not None:
                added.append(u)
                break
            charge[u] = 0
        else:
            return None
    for u in reversed(added):
        charge[u] = 0
        if _reference_ranges(order, _reference_gains(order, charge, inst), inst)[1] is not None:
            charge[u] = 1
    while w.wc > 0:
        gains = _reference_gains(order, charge, inst)
        ranges, _ = _reference_ranges(order, gains, inst)
        base = objective_value(order, propagate_times(order, charge, inst), charge, ranges, inst)
        progressed = False
        for u in ranked_candidates(ranges, len(order)):
            charge[u] = 1
            trial_times = propagate_times(order, charge, inst)
            if trial_times is None:
                charge[u] = 0
                continue
            trial_gains = _reference_gains(order, charge, inst)
            trial_ranges, _ = _reference_ranges(order, trial_gains, inst)
            trial_obj = objective_value(order, trial_times, charge, trial_ranges, inst)
            if trial_obj < base or sum(trial_gains) - sum(gains) >= EXTRA_STOP_FRACTION * inst.k_max:
                progressed = True
            else:
                charge[u] = 0
            break
        if not progressed:
            break

    gains = _reference_gains(order, charge, inst)
    timed = propagate_times(order, charge, inst)
    ranges, deficit = _reference_ranges(order, gains, inst)
    if timed is None or deficit is not None:
        return None
    obj = objective_value(order, timed, charge, ranges, inst)
    return Schedule(tuple(order), timed, tuple(charge), gains, ranges, obj)


def reference_time_step(inst, prev, a_prev, w_prev, v, w_v, a0):
    """The time-chain step read from node attributes and kinds, as
    ``schedule._time_step`` computed it before the per-node timing table;
    the float expressions are the same, in the same order."""
    nodes = inst.nodes
    pn = nodes[prev]
    if pn.kind is NodeKind.SEPARATOR:
        lb = pn.a_max + w_prev + inst.travel_rows[prev][v] + w_v
    else:
        lb = a_prev + pn.duration + 2.0 * w_prev + inst.travel_rows[prev][v] + w_v
    node = nodes[v]
    if node.kind is NodeKind.FIXED:
        a_v = node.fixed_arrival - w_v
        if lb > a_v + TIME_TOL:
            return None
    else:
        if node.kind is NodeKind.SEPARATOR:
            ref = inst.day_ref[v]
            a_v = (a0 if ref is None else ref) + w_v
        else:
            a_v = node.a_min - w_v
        if not a_v > lb:
            a_v = lb
    if a_v > node.a_max - node.duration - w_v + TIME_TOL:
        return None
    return a_v


def reference_propagate_times(order, charge, inst):
    """Arrivals along ``order`` by a plain loop over
    :func:`reference_time_step` from the route start, as
    ``schedule.propagate_times`` walked an order before ``_retime`` took the
    walk over: a tuple with the nodes off the order left NaN, or None when
    the start window or a step breaks."""
    start = inst.nodes[0]
    w_prev = _walk(inst, 0, charge)
    a0 = max(0.0, start.a_min - w_prev)
    if a0 > start.a_max - start.duration - w_prev + TIME_TOL:
        return None
    arrival = [math.nan] * inst.n
    arrival[0] = a_prev = a0
    prev = 0
    for u in order[1:]:
        w_u = _walk(inst, u, charge)
        a_u = reference_time_step(inst, prev, a_prev, w_prev, u, w_u, a0)
        if a_u is None:
            return None
        arrival[u] = a_u
        prev, a_prev, w_prev = u, a_u, w_u
    return tuple(arrival)


def reference_construct_route(inst, anchored, tau, eta, p, rng):
    """One ant's route by a full scan of every interior node per step, as
    ``meta._construct_route`` built it before it kept the open candidates
    and a list of window tops: the order, or None on a dead end."""
    n = inst.n
    nodes = inst.nodes
    rank = inst.anchor_rank
    visited = [False] * n
    order = [0]
    current = 0
    a0 = a_cur = max(0.0, nodes[0].a_min)
    next_anchor = 0
    tops = [nd.a_max - nd.duration + 1e-6 for nd in nodes]
    for _ in range(n - 2):
        pending = anchored[next_anchor] if next_anchor < len(anchored) else None
        top1 = top2 = math.inf
        tightest = None
        for u in range(1, n - 1):
            if not visited[u]:
                t = tops[u]
                if t < top1:
                    top1, top2, tightest = t, top1, u
                elif t < top2:
                    top2 = t
        cands = []
        arrivals = []
        for v in range(1, n - 1):
            if visited[v]:
                continue
            r = rank.get(v)
            if r is not None and r != next_anchor:
                continue
            a_v = reference_time_step(inst, current, a_cur, 0.0, v, 0.0, a0)
            if a_v is None:
                continue
            if pending is not None and v != pending:
                if reference_time_step(inst, v, a_v, 0.0, pending, 0.0, a0) is None:
                    continue
            node_v = nodes[v]
            dep_v = node_v.a_max if node_v.kind is NodeKind.SEPARATOR else a_v + node_v.duration
            if dep_v > (top2 if v == tightest else top1):
                continue
            cands.append(v)
            arrivals.append(a_v)
        if not cands:
            return None
        tau_row = tau[current]
        eta_row = eta[current]
        chosen = aco_select(
            cands, [tau_row[v] for v in cands], [eta_row[v] for v in cands], p.alpha, p.beta, rng
        )
        a_cur = arrivals[cands.index(chosen)]
        visited[chosen] = True
        order.append(chosen)
        if chosen in rank:
            next_anchor += 1
        current = chosen
    order.append(n - 1)
    return order


def reference_aco(inst, params=None, rng_seed=0, trace=None):
    """``meta.aco`` with every ant built by :func:`reference_construct_route`,
    which weighs each step from the raw trails and desirabilities, and every
    completed route assembled in full."""
    p = AcoParams() if params is None else params
    w = inst.weights
    rng = np.random.default_rng(rng_seed)
    anchored = meta.anchored_sequence(inst)
    eta = (1.0 / (w.wd * inst.dist + w.wt * inst.travel + ETA_EPS)).tolist()
    tau = np.full((inst.n, inst.n), p.tau0, dtype=float)
    best = None
    for it in range(p.iterations):
        tau_rows = tau.tolist()
        solutions = []
        for _ in range(p.ants):
            order = reference_construct_route(inst, anchored, tau_rows, eta, p, rng)
            sched = None if order is None else meta.assemble_schedule(order, inst)
            if sched is not None:
                solutions.append(sched)
        for s in solutions:
            if best is None or s.objective < best.objective:
                best = s
        tau = pheromone_update(tau, solutions, best, p.rho, w)
        if trace is not None:
            trace.note_best(math.inf if best is None else best.objective)
            trace.record("colony", iteration=it, feasible_ants=len(solutions))
    if best is None:
        raise NoSolutionFoundError("every ant route was infeasible in every iteration")
    return best


def route_distance(s: Schedule, inst: Instance) -> float:
    return sum(inst.dist[s.order[i], s.order[i + 1]] for i in range(len(s.order) - 1))


def day_delay_sum(s: Schedule, inst: Instance) -> float:
    total = 0.0
    for i, u in enumerate(inst.separators):
        ref = s.arrival[0] if i == 0 else inst.nodes[inst.separators[i - 1]].a_max
        total += s.arrival[u] - ref
    return total


class RecomputingMemo(_RunMemo):
    """Pass-through stand-in for a solver's run memory: evaluates every
    request, and assembles every order in full, ignoring any arrivals or
    span handed over."""

    def assemble(self, order, *timing):
        return meta.assemble_schedule(order, self.inst)

    def repair(self, key, compute):
        return compute()


def respects_anchor_order(order, inst):
    """True when fixed events and separators appear in canonical order: a
    scan of the whole order, as the library checked each order before its
    solvers screened moves and slots by rank."""
    ranks = inst.anchor_rank
    last = -1
    for u in order:
        r = ranks.get(u)
        if r is not None:
            if r < last:
                return False
            last = r
    return True


def reference_tabu_search(inst, params=None, trace=None):
    """``meta.tabu_search`` as it searched before it kept one ranked scan
    per order: each iteration times every move of the current order that
    keeps the anchored order in full, in move order, with no pairwise follow
    table in front, and assembles each time-feasible candidate it has not
    assembled before unless its objective floor with a full battery at the
    end lies above the best candidate so far."""
    p = TsParams() if params is None else params
    current = bfd_initial(inst)
    best = current
    half_n = math.ceil(inst.event_count / 2)
    len_swap = half_n if p.tabu_len_swap is None else p.tabu_len_swap
    len_insert = half_n if p.tabu_len_insert is None else p.tabu_len_insert
    tabu = {"swap": deque(maxlen=len_swap), "insert": deque(maxlen=len_insert)}
    seen = {}  # order -> schedule, or None when infeasible
    moves = _moves(len(current.order))
    zeros = [0] * inst.n
    for _ in range(p.iterations):
        chosen = None
        for move, _, _, _ in _admissible_moves(current.order, inst.anchor_rank, moves):
            order = move.apply(current.order)
            if order not in seen:
                arrival = propagate_times(order, zeros, inst)
                if arrival is None:
                    seen[order] = None
                elif chosen is None or not objective_floor(order, arrival, inst.k_max, inst) > chosen[1].objective:
                    seen[order] = meta.assemble_schedule(order, inst)
            sched = seen.get(order)
            if sched is None:
                continue
            is_tabu = move in tabu[move.kind]
            if is_tabu and not (p.aspiration and sched.objective < best.objective):
                continue
            if chosen is None or sched.objective < chosen[1].objective:
                chosen = (move, sched, is_tabu)
        if chosen is None:
            break
        move, sched, was_tabu = chosen
        tabu[move.kind].append(move.inverse())
        current = sched
        if current.objective < best.objective:
            best = current
        if trace is not None:
            trace.note_best(best.objective)
            trace.record("move", move=move, tabu=was_tabu, objective=sched.objective)
    return best
