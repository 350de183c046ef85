"""From a visit order to a full schedule.

Forward earliest-arrival propagation, battery range propagation, the greedy
parallel-charging planner shared by every solver, and the best-fit
decreasing construction that seeds the searches.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import (
    DAY_END,
    PINNED,
    Instance,
    NodeKind,
    RANGE_TOL,
    Schedule,
    TIME_TOL,
    _route_start,
    objective_value,
)
from .errors import NoInitialSolutionError

RANK_EPS = 0.1          # minutes; keeps the stop ranking finite for zero-walk stations
EXTRA_STOP_FRACTION = 0.10  # of battery capacity; justifies a stop beyond feasibility


def anchored_sequence(inst: Instance) -> tuple[int, ...]:
    """Fixed events and separators in their required visit order."""
    return tuple(inst.anchor_rank)


def _time_step(
    inst: Instance, prev: int, a_prev: float, w_prev: float, v: int, w_v: float, a0: float
) -> float | None:
    """Earliest arrival at ``v`` straight after ``prev``, or None.

    ``prev`` is reached at ``a_prev``, ``w_prev`` and ``w_v`` are the
    one-way charger walks taken at the two nodes (zero when not charging)
    and ``a0`` is the route start.  The vehicle leaves after the stay plus
    the walk there and back, or a separator at its latest departure plus the
    walk, then travels and walks to ``v``.  Fixed events are pinned to their
    arrival less the walk, other nodes wait for their window, separators for
    their day reference.  Returns None when the pin or the window top of
    ``v`` breaks.  Both nodes are read from :attr:`Instance.timing`.
    """
    timing = inst.timing
    kind, duration, a_max, _, _ = timing[prev]
    if kind == DAY_END:
        lb = a_max + w_prev + inst.travel_rows[prev][v] + w_v
    else:
        lb = a_prev + duration + 2.0 * w_prev + inst.travel_rows[prev][v] + w_v
    kind, _, _, base, top = timing[v]
    if kind == PINNED:
        a_v = base - w_v
        if lb > a_v + TIME_TOL:
            return None
    else:
        # Separator lower bounds add the walk; windowed nodes subtract it.
        if kind == DAY_END:
            a_v = (a0 if base is None else base) + w_v
        else:
            a_v = base - w_v
        if not a_v > lb:  # max(lb, a_v), NaN included, without a builtin call in the hot loop
            a_v = lb
    if a_v > top - w_v + TIME_TOL:
        return None
    return a_v


def propagate_times(
    order: Sequence[int], charge: Sequence[int], inst: Instance
) -> tuple[float, ...] | None:
    """Earliest feasible arrival times along ``order`` for given charge
    flags, per node, or None when the timetable breaks.

    Fixed nodes are pinned to their constant arrival shifted by the walk to
    the charger; other nodes are clamped into their windows, separators
    against the previous day's reference.  The route starts as
    :func:`_route_start` says.  Nodes off ``order`` are left NaN: it may be
    a partial order (missing interior nodes) as long as it runs from the
    start node to the end node.  The walk is :func:`_retime`'s.
    """
    if not order or order[0] != 0 or order[-1] != inst.n - 1:
        raise ValueError("order must run from the start node to the end node")
    arrival = _retime(order, charge, None, 0, len(order), inst)
    return None if arrival is None else tuple(arrival)


def _range_pass(
    order: Sequence[int],
    charge: Sequence[int],
    inst: Instance,
    ref: tuple[tuple[float, ...], tuple[float, ...], int | None] | None = None,
    lo: int = 0,
) -> tuple[tuple[float, ...], tuple[float, ...], int | None]:
    """One walk of the range chain: gains, arrival ranges and first deficit.

    Each flagged node with a charger (the end node has none) charges to the
    smaller of its total gain and the headroom on arrival; the charge is
    applied before departure and capped at the battery maximum, and each
    edge then consumes its distance.

    ``ref``, when given, is this function's result for ``order`` under
    flags that differ from ``charge`` only at position ``lo``.  The ranges
    up to ``lo`` are then unchanged, so the walk starts there, as
    :func:`_retime` does.  After ``lo`` it stops at the first range equal to
    its old one, since every later step then has the same inputs as before,
    once the first deficit is known: found by this walk, or the
    reference's, when that one lies at or before ``lo`` or not before the
    stop.  The result equals a full pass bit for bit.
    """
    gain_cap = inst.gain_cap
    dist = inst.dist_rows
    k_max = inst.k_max
    floor = inst.k_min - RANGE_TOL
    if ref is None:
        lo = 0
        gains = [0.0] * inst.n
        k = [math.nan] * inst.n  # equal to no range: a full pass never stops
        u = order[0]
        cur = k[u] = inst.k_start
        deficit = u if cur < floor else None
    else:
        gains, k = list(ref[0]), list(ref[1])
        u = order[lo]
        cur = k[u]
        # the reference's first deficit, and the last position at which the
        # walk may stop on it without a deficit of its own
        later = ref[2]
        ahead = len(order) if later is None else order.index(later)
        deficit = None
        if ahead <= lo:  # among the unchanged ranges
            deficit = later
    # The comparisons below pick the operand that max(0.0, min(cap, k_max -
    # cur)) and min(cur + gain, k_max) pick, NaN and signed zero included,
    # without a builtin call in the hot loop.
    gains[u] = 0.0
    cap = gain_cap[u]
    if charge[u] and cap is not None:
        g = k_max - cur
        if not g < cap:
            g = cap
        gains[u] = g if 0.0 < g else 0.0
    for q in range(lo + 1, len(order)):
        v = order[q]
        cur += gains[u]
        if k_max < cur:
            cur = k_max
        cur -= dist[u][v]
        if cur == k[v] and (deficit is not None or q <= ahead):
            if deficit is None:
                deficit = later
            break
        k[v] = cur
        if deficit is None and cur < floor:
            deficit = v
        if charge[v]:
            cap = gain_cap[v]
            if cap is not None:
                g = k_max - cur
                if not g < cap:
                    g = cap
                gains[v] = g if 0.0 < g else 0.0
        u = v
    return tuple(gains), tuple(k), deficit


def _retime(
    order: Sequence[int],
    charge: Sequence[int],
    arrival: Sequence[float] | None,
    lo: int,
    hi: int,
    inst: Instance,
) -> Sequence[float] | None:
    """Arrivals along ``order`` under ``charge`` from position ``lo`` on, or
    None when the timetable breaks: the one walk of the time chain.

    ``arrival`` holds the feasible per-node arrivals of a reference: an
    order under its own charge flags that agrees with this one, node and
    flag, before position ``lo``, and visits the same nodes in the same
    order with the same flags from position ``hi`` on (a flipped stop at
    ``p`` passes ``(p, p + 1)``, a node inserted at ``p`` the same, a
    reordered span its bounds).  The chain before ``lo`` is unchanged, so
    the re-timing starts there; from ``hi`` on it stops at the first
    arrival equal to its old one, since every later step then has the same
    inputs as before, and inside the span no arrival can be trusted.  The
    result equals a full timing bit for bit.  ``lo == 0`` moves the route
    start and times the whole order from it, as does ``arrival`` None (no
    feasible reference); nodes off the order are then left NaN.
    """
    walk = inst.walk
    if lo == 0 or arrival is None:
        a0, started = _route_start(inst, walk[0] if charge[0] else 0.0)
        if not started:
            return None
        new = [math.nan] * inst.n
        new[0] = a0
        lo, hi = 1, len(order)
    else:
        new = list(arrival)
        a0 = arrival[order[0]]
    prev = order[lo - 1]
    a_prev = new[prev]
    w_prev = walk[prev] if charge[prev] else 0.0
    for q in range(lo, len(order)):
        v = order[q]
        w_v = walk[v] if charge[v] else 0.0
        a_v = _time_step(inst, prev, a_prev, w_prev, v, w_v, a0)
        if a_v is None:
            return None
        if q >= hi and a_v == arrival[v]:
            break
        new[v] = a_v
        prev, a_prev, w_prev = v, a_v, w_v
    return new


def plan_charging(
    order: Sequence[int],
    inst: Instance,
    *,
    arrival: Sequence[float] | None = None,
) -> tuple[tuple[int, ...], tuple[float, ...]] | None:
    """Greedy parallel-charging decisions for a visit order.

    Starting from no stops, while the battery dips below the reserve the
    candidate stops strictly before the deficit are ranked by achievable
    gain per minute of walking and the best rank that keeps the timetable
    feasible is added.  Redundant stops are dropped afterwards.  When the
    end-of-route charge carries weight, further stops are added while they
    improve the objective or contribute at least a tenth of the capacity.
    Returns None when deficits remain with every candidate exhausted.

    ``arrival``, when given, must hold the order's feasible arrivals
    without stops, as :func:`propagate_times` returns them; the planner
    then skips that first timing.  Callers that derive an order from one
    already timed get it from :func:`_retime` at a fraction of a full pass.

    Each charge set is timed and ranged from the last one's timing and
    ranges, from the flipped stop's position on (see :func:`_retime` and
    :func:`_range_pass`); the results equal full passes bit for bit.
    """
    gain_cap = inst.gain_cap
    walk = inst.walk
    k_max = inst.k_max
    charge = [0] * inst.n
    if arrival is None:
        arrival = propagate_times(order, charge, inst)
        if arrival is None:
            return None
    pos_of = {u: i for i, u in enumerate(order)}
    added: list[int] = []

    def first_timed_stop(ranges, limit_pos):
        """The best-ranked new stop before position ``limit_pos`` that
        keeps the timetable, flagged, with the arrivals it leads to; else
        None.  Stops rank by achievable gain per minute of walking."""
        cands = []
        for u in order[:limit_pos]:
            cap = gain_cap[u]
            if charge[u] or cap is None:
                continue
            head = k_max - ranges[u]
            if not head < cap:  # min(cap, head), as in _range_pass
                head = cap
            if head <= RANGE_TOL:
                continue
            cands.append((-head / (2.0 * walk[u] + RANK_EPS), u))
        cands.sort()
        for _, u in cands:
            charge[u] = 1
            p = pos_of[u]
            trial = _retime(order, charge, arrival, p, p + 1, inst)
            if trial is not None:
                return u, trial
            charge[u] = 0
        return None

    # each charge set's range pass resumes from the last one's at the
    # flipped stop
    state = gains, ranges, deficit = _range_pass(order, charge, inst)
    while deficit is not None:
        stop = first_timed_stop(ranges, pos_of[deficit])
        if stop is None:
            return None
        u, arrival = stop
        added.append(u)
        state = gains, ranges, deficit = _range_pass(order, charge, inst, state, pos_of[u])

    # Drop stops the remaining set already covers; removal never tightens
    # the timetable, so only the battery needs rechecking.  The arrivals
    # held so far still include the dropped walks.  The last stop added is
    # not tried: without it the set is the one that had the deficit.
    dropped = False
    for u in reversed(added[:-1]):
        charge[u] = 0
        trial = _range_pass(order, charge, inst, state, pos_of[u])
        if trial[2] is None:
            state, dropped = trial, True
        else:
            charge[u] = 1
    gains, ranges, _ = state

    if inst.weights.wc > 0:
        # Each accepted stop's arrivals, gains, ranges and objective are
        # the next round's base; only the best addable rank is tried per
        # round, re-timed from the held arrivals.
        if dropped:
            arrival = propagate_times(order, charge, inst)
        obj = objective_value(order, arrival, charge, ranges, inst)
        total = sum(gains)
        while (stop := first_timed_stop(ranges, len(order))) is not None:
            u, trial = stop
            trial_state = _range_pass(order, charge, inst, state, pos_of[u])
            trial_gains, trial_ranges, _ = trial_state
            trial_obj = objective_value(order, trial, charge, trial_ranges, inst)
            # Incremental charge is net of capping at later stops; it
            # equals the end-of-route range increase by conservation.
            trial_total = sum(trial_gains)
            if not (trial_obj < obj or trial_total - total >= EXTRA_STOP_FRACTION * inst.k_max):
                charge[u] = 0
                break
            arrival, state, gains, ranges = trial, trial_state, trial_gains, trial_ranges
            obj, total = trial_obj, trial_total

    return tuple(charge), gains


def _price(order: Sequence[int], charge: Sequence[int], inst: Instance) -> Schedule | None:
    """The schedule of ``order`` under the charge flags ``charge``, or None
    when its timetable or its battery breaks.

    The order is timed in full, each flagged station charges to its cap
    (see :func:`_range_pass`) and the result is priced under
    ``inst.weights``.  This is the one place where charge flags become a
    schedule: assembly and the exact search's leaves both end here.
    """
    arrival = propagate_times(order, charge, inst)
    if arrival is None:
        return None
    gains, ranges, deficit = _range_pass(order, charge, inst)
    if deficit is not None:
        return None
    obj = objective_value(order, arrival, charge, ranges, inst)
    return Schedule(tuple(order), arrival, tuple(charge), gains, ranges, obj)


def assemble_schedule(
    order: Sequence[int],
    inst: Instance,
    *,
    arrival: Sequence[float] | None = None,
) -> Schedule | None:
    """Plan charging, then time, range and price the result (:func:`_price`).

    Returns None when the order admits no feasible schedule.  A returned
    schedule is priced under ``inst.weights`` and passes
    :func:`evroute.core.validate` against ``inst``; to plan under other
    weights, pass ``replace(inst, weights=w)``.

    ``arrival`` hands the order's arrivals without stops to
    :func:`plan_charging` (see there), so that a caller that has already
    timed the order, and dropped it if that failed, does not pay for the
    timing twice.  The final timing and range check run either way: wrong
    arrivals could change the plan, never return an invalid schedule.
    """
    planned = plan_charging(order, inst, arrival=arrival)
    if planned is None:
        return None
    return _price(order, planned[0], inst)


def waiting_slack(s: Schedule, inst: Instance) -> float:
    """Total idle minutes along the route: arrival minus earliest possible
    arrival from the predecessor, summed over the used edges."""
    nodes = inst.nodes
    walk = inst.walk
    travel = inst.travel_rows
    total = 0.0
    for i in range(len(s.order) - 1):
        u, v = s.order[i], s.order[i + 1]
        nu = nodes[u]
        w_u = walk[u] if s.charge[u] else 0.0
        w_v = walk[v] if s.charge[v] else 0.0
        if nu.kind is NodeKind.SEPARATOR:
            dep = nu.a_max + w_u
        else:
            dep = s.arrival[u] + nu.duration + 2.0 * w_u
        total += s.arrival[v] - (dep + travel[u][v] + w_v)
    return total


def bfd_initial(inst: Instance) -> Schedule:
    """Best-fit-decreasing construction.

    Fixed events and separators are laid out chronologically; flexible
    events, longest stay first, are inserted into the feasible position
    that leaves the least idle time.  A gap is skipped when
    :attr:`~evroute.core.Instance.follows` rejects either pair it makes;
    each other gap is timed without stops from the inserted event on,
    against the current order's arrivals, and only the gaps that pass go on
    to charging and pricing.  Raises
    :class:`~evroute.errors.NoInitialSolutionError` when some flexible
    event fits nowhere.

    The schedule is built once per instance object, on the first request,
    and kept on it (:attr:`~evroute.core.Instance.bfd_start`), so every
    later call, and every solver seeded from it, returns the same object.
    ``replace(inst, ...)`` and :func:`~evroute.gen.load` make new instances
    with their own start; a failed build is not kept and raises again.
    """
    return inst.bfd_start


def _build_bfd(inst: Instance) -> Schedule:
    """The construction behind :func:`bfd_initial`, run once per instance."""
    order = [0, *anchored_sequence(inst), inst.n - 1]
    flexible = sorted(
        (nd for nd in inst.nodes[1:-1] if nd.kind is NodeKind.FLEXIBLE),
        key=lambda nd: (-nd.duration, nd.id),
    )
    zeros = [0] * inst.n
    # arrivals of the current order without stops; None re-times in full
    arrival = propagate_times(order, zeros, inst)
    follows = inst.follows
    best_sched: Schedule | None = None
    for nd in flexible:
        best = None
        for p in range(1, len(order)):
            if not (follows[order[p - 1]][nd.id] and follows[nd.id][order[p]]):
                continue  # fails the timing without stops
            cand = order[:p] + [nd.id] + order[p:]
            cand_arrival = _retime(cand, zeros, arrival, p, p + 1, inst)
            if cand_arrival is None:
                continue
            sched = assemble_schedule(cand, inst, arrival=cand_arrival)
            if sched is None:
                continue
            slack = waiting_slack(sched, inst)
            if best is None or slack < best[0] - 1e-12:
                best = (slack, cand, sched, cand_arrival)
        if best is None:
            raise NoInitialSolutionError(
                f"flexible event {nd.id} fits in no gap of the current order"
            )
        _, order, best_sched, arrival = best
    if best_sched is None:  # no flexible events at all
        best_sched = assemble_schedule(order, inst, arrival=arrival)
        if best_sched is None:
            raise NoInitialSolutionError("anchored skeleton admits no feasible schedule")
    return best_sched
