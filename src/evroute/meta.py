"""Metaheuristics over visit orders.

Tabu search with swap/insert moves, adaptive large neighborhood search with
three repair operators, and ant colony optimization.  All three share the
assembly pipeline (greedy charging planner plus earliest-time propagation)
for candidate evaluation, assemble each distinct order at most once per
call, and are deterministic given their RNG seed; the generator is numpy's
PCG64.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import DAY_END, Instance, NodeKind, Schedule, Weights, objective_lower_bound
from .errors import NoSolutionFoundError
from .exact import solve_completion
from .schedule import (
    _retime,
    _route_start,
    _time_step,
    anchored_sequence,
    assemble_schedule,
    bfd_initial,
    propagate_times,
    respects_anchor_order,
)

ETA_EPS = 1e-6
PHEROMONE_FLOOR = 1e-9
OBJECTIVE_SHIFT_EPS = 1e-6
_RANDOM_REPAIR_ATTEMPTS = 50

REPAIR_RANDOM = "random"
REPAIR_CONSTRUCTIVE = "constructive"
REPAIR_EXACT = "exactMip"
_ALL_REPAIRS = (REPAIR_RANDOM, REPAIR_CONSTRUCTIVE, REPAIR_EXACT)


class Move(NamedTuple):
    """Elementary reordering move on interior positions.

    A move is the named tuple ``(kind, i, j)``; tabu search records it in
    its trace events as such, and JSON writes it as a list.
    """

    kind: str  # "swap" or "insert"
    i: int
    j: int

    def apply(self, order: Sequence[int]) -> tuple[int, ...]:
        out = list(order)
        if self.kind == "swap":
            out[self.i], out[self.j] = out[self.j], out[self.i]
        else:
            node = out.pop(self.i)
            out.insert(self.j, node)
        return tuple(out)

    def inverse(self) -> "Move":
        if self.kind == "swap":
            return self
        return Move("insert", self.j, self.i)


@dataclass(frozen=True)
class TsParams:
    """Tabu search parameters; list lengths default to half the event count."""

    tabu_len_swap: int | None = None
    tabu_len_insert: int | None = None
    iterations: int = 500
    aspiration: bool = False

    def __post_init__(self):
        for ln in (self.tabu_len_swap, self.tabu_len_insert):
            if ln is not None and ln < 0:
                raise ValueError("tabu lengths must be non-negative")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


@dataclass(frozen=True)
class AlnsParams:
    dod_scheme: str = "static"  # static, increasing or random
    dod_static: float = 0.5
    iterations: int = 500
    repair_set: tuple[str, ...] = _ALL_REPAIRS
    segment: int = 20
    reaction: float = 0.2
    exact_repair_max_removed: int = 9

    def __post_init__(self):
        if self.dod_scheme not in ("static", "increasing", "random"):
            raise ValueError(f"unknown destruction scheme {self.dod_scheme!r}")
        if not 0.0 < self.dod_static <= 1.0:
            raise ValueError("dod_static must lie in (0, 1]")
        if not 0.0 <= self.reaction <= 1.0:
            raise ValueError("reaction must lie in [0, 1]")
        if any(op not in _ALL_REPAIRS for op in self.repair_set) or not self.repair_set:
            raise ValueError(f"repair_set must be a non-empty subset of {_ALL_REPAIRS}")
        if self.segment < 1:
            raise ValueError("segment must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


@dataclass(frozen=True)
class AcoParams:
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.01
    ants: int = 10
    iterations: int = 200
    tau0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.ants < 1:
            raise ValueError("at least one ant is required")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")


class SearchTrace:
    """Compact in-memory record of one solver run.

    Solvers write through :meth:`note_best`, once per iteration in
    iteration order, and :meth:`record`, once per event.  The best
    objectives sit in one ``array('d')``; each event's shape (kind plus
    field names) is stored once, and its field values go onto one flat
    list, so a long run keeps no dict or tuple per event.  The read-only
    views :attr:`best` and :attr:`events` rebuild ``[(iteration,
    objective), ...]`` and ``[{"kind": kind, **fields}, ...]`` in recording
    order, every field as it was recorded.
    """

    def __init__(self):
        self._best = array("d")
        self._shapes: dict[tuple[str, tuple[str, ...]], int] = {}
        self._shape_of = array("I")  # per event, the index of its shape
        self._values: list = []      # every event's field values, in order

    def note_best(self, objective: float) -> None:
        """Append the best objective after the next iteration."""
        self._best.append(objective)

    def record(self, kind: str, **fields) -> None:
        """Append one event of ``kind`` with ``fields``."""
        shape = (kind, tuple(fields))
        self._shape_of.append(self._shapes.setdefault(shape, len(self._shapes)))
        self._values.extend(fields.values())

    @property
    def best(self) -> list[tuple[int, float]]:
        return list(enumerate(self._best))

    @property
    def events(self) -> list[dict]:
        shapes = list(self._shapes)
        values = iter(self._values)
        out = []
        for s in self._shape_of:
            kind, names = shapes[s]
            event = {"kind": kind}
            for name, v in zip(names, values):  # names first: draws len(names) values
                # consecutive events may share one recorded list; hand out copies
                event[name] = v.copy() if type(v) is list else v
            out.append(event)
        return out


_UNSEEN = object()


class _RunMemo:
    """One solver call's memory of evaluated solutions.

    Maps each visit order to its assembled schedule (None when infeasible)
    and each deterministic ALNS repair, keyed by ``(operator, base,
    removed)``, to its result.  Tabu search cycles, ants retrace routes and
    random repairs redraw orders, so a revisit then costs one lookup instead
    of a timing and an assembly (Woodruff and Zemel, "Hashing vectors for
    tabu search", 1993).  Each solver call makes its own and drops it on
    return, so no state outlives the call.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._seen: dict[tuple, Schedule | None] = {}
        self._zeros = [0] * inst.n

    def assemble(
        self, order: Sequence[int], arrival: Sequence[float] | None, lo: int, hi: int
    ) -> Schedule | None:
        """The order's schedule, assembled on its first request.

        ``arrival`` holds the arrivals without stops of a reference order
        that differs from ``order`` only in positions ``lo`` to ``hi - 1``,
        or None to time ``order`` in full.  A new order is first re-timed
        from ``lo`` (:func:`~evroute.schedule._retime`); one that fails is
        remembered as None without an assembly.
        """
        key = tuple(order)
        seen = self._seen
        sched = seen.get(key, _UNSEEN)  # one hash of the key on a revisit
        if sched is not _UNSEEN:
            return sched
        arrival = _retime(key, self._zeros, arrival, lo, hi, self.inst)
        if arrival is None:
            seen[key] = None
            return None
        sched = seen[key] = assemble_schedule(key, self.inst, arrival=arrival)
        return sched

    def repair(self, key: tuple, compute: Callable[[], Schedule | None]) -> Schedule | None:
        seen = self._seen
        if key in seen:
            return seen[key]
        sched = seen[key] = compute()
        return sched


def _moves(n: int) -> list[tuple[Move, int, int]]:
    """Every swap and insert on interior positions, each with the span of
    positions it reorders, ``lo`` to ``hi - 1``."""
    out = []
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            out.append((Move("swap", i, j), i, j + 1))
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i != j:
                out.append((Move("insert", i, j), min(i, j), max(i, j) + 1))
    return out


def _admissible_moves(
    order: Sequence[int], rank: dict[int, int], moves: Sequence[tuple[Move, int, int]]
) -> list[tuple[Move, int, int]]:
    """The moves of ``moves`` (from :func:`_moves`), with their spans, whose
    applied order keeps the anchored order, given that ``order`` keeps it.

    A move shifts every node of its span by one place except the moving
    ones: both ends of a swap, position ``i`` of an insert.  So the anchored
    order breaks exactly when a moving node is anchored and the span holds
    another anchored node, which prefix counts tell in O(1) per move
    (Savelsbergh, ORSA J. Computing 4(2), 1992).
    """
    anchored = [u in rank for u in order]
    pre = list(accumulate(anchored, initial=0))
    return list(compress(moves, [
        pre[hi] - pre[lo] < 2 or not (anchored[m.i] or m.kind == "swap" and anchored[m.j])
        for m, lo, hi in moves
    ]))


def tabu_search(
    inst: Instance,
    params: TsParams | None = None,
    rng_seed: int = 0,
    trace: SearchTrace | None = None,
) -> Schedule:
    """Tabu search over the full swap/insert neighborhood.

    Each iteration evaluates every move that keeps fixed events and
    separators in order, takes the best non-tabu feasible candidate (a tabu
    one only under aspiration, when it beats the best so far) and makes the
    move's inverse tabu.  The search is deterministic; ``rng_seed`` is
    accepted for interface symmetry only.
    """
    del rng_seed  # exhaustive neighborhood, nothing stochastic
    p = TsParams() if params is None else params
    current = bfd_initial(inst)
    best = current
    half_n = math.ceil(inst.event_count / 2)
    len_swap = half_n if p.tabu_len_swap is None else p.tabu_len_swap
    len_insert = half_n if p.tabu_len_insert is None else p.tabu_len_insert
    tabu: dict[str, deque] = {
        "swap": deque(maxlen=len_swap),
        "insert": deque(maxlen=len_insert),
    }
    memo = _RunMemo(inst)
    assemble = memo.assemble
    moves = _moves(len(current.order))
    zeros = [0] * inst.n
    # arrivals without stops of each order the search has stood on; it
    # cycles through few of them
    arrivals: dict[tuple[int, ...], Sequence[float]] = {}
    for _ in range(p.iterations):
        chosen: tuple[Move, Schedule, bool] | None = None
        # a move changes only its span, so each candidate is re-timed from
        # the current order's arrivals
        arrival = arrivals.get(current.order)
        if arrival is None:
            arrival = arrivals[current.order] = propagate_times(current.order, zeros, inst).arrival
        # current.order keeps the anchored order: BFD built it, or it passed
        # this screen
        for move, lo, hi in _admissible_moves(current.order, inst.anchor_rank, moves):
            sched = assemble(move.apply(current.order), arrival, lo, hi)
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


def _removable(inst: Instance) -> list[int]:
    return [
        nd.id
        for nd in inst.nodes[1:-1]
        if nd.kind in (NodeKind.FIXED, NodeKind.FLEXIBLE)
    ]


def _valid_positions(order: list[int], node: int, inst: Instance) -> list[int]:
    """Slots ``p`` in ``1..len(order) - 1`` at which inserting ``node``, which
    ``order`` does not hold, before ``order[p]`` keeps the anchored order.

    In an order that keeps it the anchored nodes sit in rank order, so the
    slots form one run: after the last anchored node ranked below ``node``,
    up to the first ranked above it.  An order that breaks it has none.
    """
    if not respects_anchor_order(order, inst):
        return []
    rank = inst.anchor_rank
    r = rank.get(node)
    lo, hi = 1, len(order) - 1
    if r is not None:
        for k, u in enumerate(order):
            ru = rank.get(u)
            if ru is None:
                continue
            if ru > r:
                hi = k
                break
            lo = k + 1
    return list(range(lo, hi + 1))


def _repair_random(memo, base, removed, rng):
    inst = memo.inst
    for _ in range(_RANDOM_REPAIR_ATTEMPTS):
        order = list(base)
        ok = True
        for m in rng.permutation(removed):
            positions = _valid_positions(order, int(m), inst)
            if not positions:
                ok = False
                break
            order.insert(positions[int(rng.integers(0, len(positions)))], int(m))
        if not ok:
            continue
        sched = memo.assemble(order, None, 0, len(order))
        if sched is not None:
            return sched
    return None


def _repair_constructive(memo, base, removed):
    """Cheapest insertion on weighted distance plus travel time deltas."""
    inst = memo.inst
    w = inst.weights
    dist = inst.dist_rows
    travel = inst.travel_rows
    zeros = [0] * inst.n
    order = list(base)
    # arrivals of the order built so far without stops; each trial
    # insertion is re-timed from its slot on (None times it in full)
    timed = propagate_times(order, zeros, inst)
    arrival = timed.arrival if timed.feasible_times else None
    remaining = sorted(removed)
    while remaining:
        cands = []
        for m in remaining:
            for p in _valid_positions(order, m, inst):
                a, b = order[p - 1], order[p]
                delta = w.wd * (dist[a][m] + dist[m][b] - dist[a][b]) + w.wt * (
                    travel[a][m] + travel[m][b] - travel[a][b]
                )
                cands.append((delta, m, p))
        cands.sort()
        placed = False
        for _, m, p in cands:
            trial = order[:p] + [m] + order[p:]
            trial_arrival = _retime(trial, zeros, arrival, p, p + 1, inst)
            if trial_arrival is not None:
                order, arrival = trial, trial_arrival
                remaining.remove(m)
                placed = True
                break
        if not placed:
            return None
    # arrival already times the finished order: it is its own reference
    return memo.assemble(order, arrival, len(order), len(order))


def _probabilities(ops, op_weights) -> list[float]:
    total = sum(op_weights[op] for op in ops)
    return [op_weights[op] / total for op in ops]


def _roulette(rng, ops, probs):
    r = float(rng.random())
    acc = 0.0
    for op, pr in zip(ops, probs):
        acc += pr
        if r < acc:
            return op
    return ops[-1]


def alns(
    inst: Instance,
    params: AlnsParams | None = None,
    rng_seed: int = 0,
    trace: SearchTrace | None = None,
) -> Schedule:
    """Adaptive large neighborhood search.

    Per iteration a destruction degree's worth of events is removed
    uniformly at random and the route is rebuilt by a repair operator drawn
    by roulette over adaptive weights.  Candidates are accepted on strict
    improvement.  Operator weights are refreshed every ``segment``
    iterations from scored outcomes (new global best 3, improved current 2,
    accepted 1, else 0).
    """
    p = AlnsParams() if params is None else params
    rng = np.random.default_rng(rng_seed)
    current = bfd_initial(inst)
    best = current
    removable = _removable(inst)
    n_events = len(removable)
    ops = [op for op in _ALL_REPAIRS if op in p.repair_set]
    op_weights = {op: 1.0 for op in ops}
    # rebuilt on each weight update; trace events share them until then
    probs = _probabilities(ops, op_weights)
    weight_list = [op_weights[o] for o in ops]
    scores = {op: 0.0 for op in ops}
    uses = {op: 0 for op in ops}
    memo = _RunMemo(inst)

    for it in range(p.iterations):
        if p.dod_scheme == "static":
            dod = math.ceil(p.dod_static * n_events)
        elif p.dod_scheme == "increasing":
            frac = it / max(p.iterations - 1, 1)
            dod = 1 + math.floor((n_events - 1) * frac)
        else:
            dod = int(rng.integers(1, n_events + 1))
        dod = min(max(dod, 1), n_events)
        removed = sorted(int(u) for u in rng.choice(removable, size=dod, replace=False))
        removed_set = set(removed)
        base = [u for u in current.order if u not in removed_set]
        op = _roulette(rng, ops, probs)
        uses[op] += 1
        if op == REPAIR_RANDOM:
            cand = _repair_random(memo, base, removed, rng)
        elif op == REPAIR_EXACT and len(removed) <= p.exact_repair_max_removed:
            cand = memo.repair(
                (op, tuple(base), tuple(removed)),
                lambda: solve_completion(inst, base, removed),
            )
        else:
            if op == REPAIR_EXACT and trace is not None:
                trace.record("exact_repair_timeout", iteration=it, removed=len(removed))
            cand = memo.repair(
                (REPAIR_CONSTRUCTIVE, tuple(base), tuple(removed)),
                lambda: _repair_constructive(memo, base, removed),
            )
        accepted = False
        if cand is not None:
            if cand.objective < best.objective:
                scores[op] += 3.0
                accepted = True
            elif cand.objective < current.objective:
                scores[op] += 2.0
                accepted = True
            if accepted:
                current = cand
                if cand.objective < best.objective:
                    best = cand
        if trace is not None:
            trace.note_best(best.objective)
            trace.record(
                "repair",
                iteration=it,
                operator=op,
                probabilities=probs,
                weights=weight_list,
                accepted=accepted,
                feasible=cand is not None,
            )
        if (it + 1) % p.segment == 0:
            for o in ops:
                if uses[o]:
                    op_weights[o] = (1.0 - p.reaction) * op_weights[o] + p.reaction * (
                        scores[o] / uses[o]
                    )
                scores[o] = 0.0
                uses[o] = 0
            probs = _probabilities(ops, op_weights)
            weight_list = [op_weights[o] for o in ops]
    return best


def aco_select(candidates: Sequence[int], tau, eta, alpha: float, beta: float, rng) -> int:
    """Sample the next node: probability of each candidate is proportional
    to pheromone^alpha times desirability^beta."""
    if len(candidates) == 0:
        raise ValueError("empty candidate set")
    weights = [(t ** alpha) * (e ** beta) for t, e in zip(tau, eta)]
    total = sum(weights)
    r = float(rng.random()) * total
    acc = 0.0
    for cand, wgt in zip(candidates, weights):
        acc += wgt
        if r < acc:
            return cand
    return candidates[-1]


def pheromone_update(
    tau: np.ndarray,
    iteration_solutions: Sequence[Schedule],
    best_so_far: Schedule | None,
    rho: float,
    weights: Weights,
) -> np.ndarray:
    """Evaporate all trails, then reinforce the edges of this iteration's
    solutions plus the best so far by the inverse shifted objective.

    The objective is shifted by the instance's sound lower bound so the
    deposit denominator stays at least ``OBJECTIVE_SHIFT_EPS``.  Trails are
    floored at ``PHEROMONE_FLOOR``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    shift = objective_lower_bound(weights) - OBJECTIVE_SHIFT_EPS
    out = (1.0 - rho) * np.asarray(tau, dtype=float)
    deposits = list(iteration_solutions)
    if best_so_far is not None:
        deposits.append(best_so_far)
    for s in deposits:
        g = 1.0 / (s.objective - shift)
        for i in range(len(s.order) - 1):
            out[s.order[i], s.order[i + 1]] += g
    np.maximum(out, PHEROMONE_FLOOR, out=out)
    return out


def _by_top(inst: Instance) -> list[tuple[float, int]]:
    """The interior nodes as ``(top, id)`` pairs in ascending order, ``top``
    being the latest arrival without a walk plus 1e-6, closed by ``(inf,
    n - 1)``: the list :func:`_construct_route` reads window tops from."""
    by_top = sorted((t.top + 1e-6, u) for u, t in enumerate(inst.timing[1:-1], 1))
    by_top.append((math.inf, inst.n - 1))
    return by_top


def _construct_route(inst, anchored, by_top, tau, eta, p, rng):
    """One ant's route with its arrivals without stops, or None on a dead
    end.

    Candidates must keep the anchored total order, be reachable inside
    their own window and leave the next pending anchored node reachable;
    an ant with no admissible candidate abandons the route.  So the open
    candidates are the unvisited flexible events, in id order, and the
    pending anchored node at its id position.  ``by_top`` comes from
    :func:`_by_top`.  The arrivals come back per node, the end node's left
    NaN: the route start, then one time step per visit.
    """
    n = inst.n
    timing = inst.timing
    rank = inst.anchor_rank
    visited = [False] * n
    free = [v for v in range(1, n - 1) if v not in rank]
    order = [0]
    arrival = [math.nan] * n
    current = 0
    a0 = a_cur = arrival[0] = _route_start(inst, 0.0)[0]
    next_anchor = 0
    pending = anchored[0] if anchored else None
    first = second = 0  # by_top positions of the two tightest unvisited tops
    for _ in range(n - 2):
        # arrivals never decrease along a route, so a candidate whose
        # departure outruns any other unvisited window top strands that
        # node; the two tightest tops decide it for every candidate (the
        # end node is never visited, so the scans stop at it)
        while visited[by_top[first][1]]:
            first += 1
        top1, tightest = by_top[first]
        if second <= first:
            second = first + 1
        while visited[by_top[second][1]]:
            second += 1
        top2 = by_top[second][0]
        if pending is None:
            open_ = free
        else:
            open_ = free.copy()
            insort(open_, pending)
        cands = []
        arrivals = []
        for v in open_:
            a_v = _time_step(inst, current, a_cur, 0.0, v, 0.0, a0)
            if a_v is None:
                continue
            kind, duration, a_max, _, _ = timing[v]
            dep_v = a_max if kind == DAY_END else a_v + duration
            if dep_v > (top2 if v == tightest else top1):
                continue
            if pending is not None and v != pending:
                if _time_step(inst, v, a_v, 0.0, pending, 0.0, a0) is None:
                    continue
            cands.append(v)
            arrivals.append(a_v)
        if not cands:
            return None
        tau_row = tau[current]
        eta_row = eta[current]
        chosen = aco_select(
            cands,
            [tau_row[v] for v in cands],
            [eta_row[v] for v in cands],
            p.alpha,
            p.beta,
            rng,
        )
        a_cur = arrival[chosen] = arrivals[cands.index(chosen)]
        visited[chosen] = True
        order.append(chosen)
        if chosen == pending:
            next_anchor += 1
            pending = anchored[next_anchor] if next_anchor < len(anchored) else None
        else:
            free.remove(chosen)
        current = chosen
    order.append(n - 1)
    return order, arrival


def aco(
    inst: Instance,
    params: AcoParams | None = None,
    rng_seed: int = 0,
    trace: SearchTrace | None = None,
) -> Schedule:
    """Ant colony optimization over visit orders.

    Ants build orders node by node, biased by pheromone and by the inverse
    of the weighted edge cost; construction steps must keep the visited
    window, the next anchored node and every unvisited window reachable,
    and ants with no admissible step abandon the route.  Completed routes
    that assemble to no feasible schedule are discarded too.  After every
    colony pass the pheromone matrix is evaporated and reinforced.  Raises
    :class:`~evroute.errors.NoSolutionFoundError` when no ant ever produces
    a feasible schedule.
    """
    w = inst.weights
    p = AcoParams() if params is None else params
    rng = np.random.default_rng(rng_seed)
    n = inst.n
    anchored = anchored_sequence(inst)
    dist = inst.dist
    travel = inst.travel
    eta = 1.0 / (w.wd * dist + w.wt * travel + ETA_EPS)
    eta = eta.tolist()
    tau = np.full((n, n), p.tau0, dtype=float)
    memo = _RunMemo(inst)
    by_top = _by_top(inst)
    # a route comes timed up to its last visit; the memo times the step into
    # the end node, or the whole route when the start window breaks, and
    # remembers a route that fails as None
    started = _route_start(inst, 0.0)[1]
    best: Schedule | None = None
    for it in range(p.iterations):
        tau_rows = tau.tolist()
        solutions = []
        for _ in range(p.ants):
            route = _construct_route(inst, anchored, by_top, tau_rows, eta, p, rng)
            if route is None:
                continue
            order, arrival = route
            last = len(order) - 1
            sched = memo.assemble(order, arrival, last if started else 0, last + 1)
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
