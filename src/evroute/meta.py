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

from .core import (
    DAY_END,
    Instance,
    NodeKind,
    Schedule,
    TIME_TOL,
    Weights,
    _route_start,
    objective_floor,
    objective_lower_bound,
)
from .errors import NoSolutionFoundError
from .exact import solve_completion
from .schedule import (
    _retime,
    _time_step,
    anchored_sequence,
    assemble_schedule,
    bfd_initial,
    propagate_times,
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
        if self.iterations < 1:  # unlike TS and ALNS, ACO has no start solution to return
            raise ValueError("iterations must be at least 1")
        # written so that NaN fails each check
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and non-negative")
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be finite and positive")


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
    tabu search", 1993).  An order screened out by its objective floor is
    held apart with its arrivals without stops and its floor, so that a
    revisit costs one lookup too, and a later, higher ceiling assembles it
    from them.  Each solver call makes its own and drops it on return, so no
    state outlives the call.  The best-fit-decreasing start the solvers seed
    from is not held here: it lives on the instance
    (:attr:`~evroute.core.Instance.bfd_start`), since it depends on the
    instance alone.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._seen: dict[tuple, Schedule | None] = {}
        self._screened: dict[tuple[int, ...], tuple[Sequence[float], float]] = {}
        self._zeros = [0] * inst.n

    def assemble(
        self, order: Sequence[int], arrival: Sequence[float] | None, lo: int, hi: int, ceiling: float
    ) -> Schedule | None:
        """The order's schedule, assembled on its first request whose
        ``ceiling`` admits it.

        ``arrival`` holds the arrivals without stops of a reference order
        that differs from ``order`` only in positions ``lo`` to ``hi - 1``,
        or None to time ``order`` in full.  A new order is first re-timed
        from ``lo`` (:func:`~evroute.schedule._retime`); one that fails is
        remembered as None without an assembly.  An order whose objective
        floor (:func:`~evroute.core.objective_floor`) lies strictly above
        ``ceiling`` cannot price at or below it: it comes back None,
        unassembled, and is held for a later request.  Every floor passes
        an infinite ceiling, so none is computed for one.
        """
        key = tuple(order)
        seen = self._seen
        sched = seen.get(key, _UNSEEN)  # one hash of the key on a revisit
        if sched is not _UNSEEN:
            return sched
        screened = self._screened
        held = screened.get(key)
        if held is None:
            arrival = _retime(key, self._zeros, arrival, lo, hi, self.inst)
            if arrival is None:
                seen[key] = None
                return None
            if ceiling < math.inf:
                held = screened[key] = (arrival, objective_floor(key, arrival, self.inst))
        if held is not None:
            if held[1] > ceiling:
                return None
            del screened[key]
            arrival = held[0]
        sched = seen[key] = assemble_schedule(key, self.inst, arrival=arrival)
        return sched

    def repair(self, key: tuple, compute: Callable[[], Schedule | None]) -> Schedule | None:
        seen = self._seen
        if key in seen:
            return seen[key]
        sched = seen[key] = compute()
        return sched


def _moves(n: int) -> list[tuple[Move, int, int, tuple[tuple[int, int], ...]]]:
    """Every swap and insert on interior positions, each with the span of
    positions it reorders, ``lo`` to ``hi - 1``, and the position pairs
    ``(a, b)`` of the order it applies to whose nodes it makes adjacent,
    ``b``'s node right after ``a``'s: three or four per move."""
    out = []
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            if j == i + 1:
                pairs = ((i - 1, j), (j, i), (i, j + 1))
            else:
                pairs = ((i - 1, j), (j, i + 1), (j - 1, i), (i, j + 1))
            out.append((Move("swap", i, j), i, j + 1, pairs))
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i < j:
                out.append((Move("insert", i, j), i, j + 1, ((i - 1, i + 1), (j, i), (i, j + 1))))
            elif i > j:
                out.append((Move("insert", i, j), j, i + 1, ((j - 1, i), (i, j), (i - 1, i + 1))))
    return out


def _admissible_moves(order: Sequence[int], rank: dict[int, int], moves: Sequence[tuple]) -> list[tuple]:
    """The entries of ``moves`` (from :func:`_moves`) whose move, applied to
    ``order``, keeps the anchored order, given that ``order`` keeps it.

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
        for m, lo, hi, _ in moves
    ]))


def _scan(order: tuple[int, ...], inst: Instance, moves: Sequence[tuple]) -> tuple[Sequence[float], list]:
    """The neighbourhood of ``order``, a time-feasible order that keeps the
    anchored order, as tabu search walks it: the order's arrivals without
    stops, and ``(move, candidate, lo, hi)`` in move order for each move of
    ``moves`` (from :func:`_moves`) that keeps the anchored order and makes
    no pair adjacent that :attr:`~evroute.core.Instance.follows` rejects.
    The order's own pairs all pass, so a candidate that passes has only
    passing pairs; one that fails cannot be timed without stops."""
    follows = inst.follows
    cands = []
    for move, lo, hi, pairs in _admissible_moves(order, inst.anchor_rank, moves):
        for a, b in pairs:
            if not follows[order[a]][order[b]]:
                break
        else:
            cands.append((move, move.apply(order), lo, hi))
    return propagate_times(order, [0] * inst.n, inst), cands


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
    move's inverse tabu.  Within an iteration, a candidate whose objective
    floor lies above the best choice so far is screened out before the
    charging planner (Glover and Laguna, *Tabu Search*, 1997, candidate
    lists); it could not have been chosen, so the search is unchanged.
    Each order the search stands on is scanned once (:func:`_scan`), and a
    later visit walks the candidates that scan kept, less those the run
    memory has since found infeasible: the moves skipped either way could
    never be chosen.  The search starts from the instance's
    best-fit-decreasing start (:func:`~evroute.schedule.bfd_initial`),
    built on the first request and shared with every later solver call on
    the same instance object.  The search is deterministic; ``rng_seed`` is
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
    settled = memo._seen
    moves = _moves(len(current.order))
    # the scan of each order the search has stood on; it cycles through few
    # of them
    scans: dict[tuple[int, ...], tuple[Sequence[float], list]] = {}
    for _ in range(p.iterations):
        chosen: tuple[Move, Schedule, bool] | None = None
        # current.order keeps the anchored order: BFD built it, or it passed
        # the scan
        arrival, cands = scans.get(current.order) or _scan(current.order, inst, moves)
        kept = []
        for cand in cands:
            move, order, lo, hi = cand
            # only a strictly lower objective replaces the choice, so a
            # candidate whose floor lies above it need not be assembled
            ceiling = math.inf if chosen is None else chosen[1].objective
            # a move changes only its span, so each candidate is re-timed
            # from the current order's arrivals
            sched = assemble(order, arrival, lo, hi, ceiling)
            if sched is None:
                if order not in settled:  # held by its floor, not infeasible
                    kept.append(cand)
                continue
            kept.append(cand)
            is_tabu = move in tabu[move.kind]
            if is_tabu and not (p.aspiration and sched.objective < best.objective):
                continue
            if chosen is None or sched.objective < chosen[1].objective:
                chosen = (move, sched, is_tabu)
        scans[current.order] = (arrival, kept)
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
    ``order`` does not hold, before ``order[p]`` keeps the anchored order,
    given that ``order`` keeps it.

    The anchored nodes then sit in rank order, so the slots form one
    non-empty run: after the last anchored node ranked below ``node``, up to
    the first ranked above it.  ALNS only asks for orders that keep it: each
    base is a subsequence of its current order, and each insertion keeps it.
    """
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
    """The first of up to ``_RANDOM_REPAIR_ATTEMPTS`` random reinsertions of
    ``removed`` into ``base`` that assembles.  A drawn order with a pair the
    follow table rejects fails its timing without stops, so it is dropped
    before the memo sees it; the draws stay the same."""
    inst = memo.inst
    follows = inst.follows
    for _ in range(_RANDOM_REPAIR_ATTEMPTS):
        order = list(base)
        for m in rng.permutation(removed):
            positions = _valid_positions(order, int(m), inst)
            order.insert(positions[int(rng.integers(0, len(positions)))], int(m))
        if not all(follows[u][v] for u, v in zip(order, order[1:])):
            continue
        sched = memo.assemble(order, None, 0, len(order), math.inf)
        if sched is not None:
            return sched
    return None


def _repair_constructive(memo, base, removed):
    """Cheapest insertion on weighted distance plus travel time deltas."""
    inst = memo.inst
    w = inst.weights
    dist = inst.dist_rows
    travel = inst.travel_rows
    follows = inst.follows
    zeros = [0] * inst.n
    order = list(base)
    # arrivals of the order built so far without stops; each trial
    # insertion is re-timed from its slot on (None times it in full)
    arrival = propagate_times(order, zeros, inst)
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
            if not (follows[order[p - 1]][m] and follows[m][order[p]]):
                continue  # fails the timing without stops
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
    return memo.assemble(order, arrival, len(order), len(order), math.inf)


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
    iterations from scored outcomes (new best 3, else 0).  The search
    starts from the instance's best-fit-decreasing start
    (:func:`~evroute.schedule.bfd_initial`), built on the first request and
    shared with every later solver call on the same instance object.
    """
    p = AlnsParams() if params is None else params
    rng = np.random.default_rng(rng_seed)
    best = bfd_initial(inst)
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
            # no draw without an event to remove
            dod = int(rng.integers(1, n_events + 1)) if n_events else 0
        dod = min(max(dod, 1), n_events)
        removed = sorted(int(u) for u in rng.choice(removable, size=dod, replace=False))
        removed_set = set(removed)
        base = [u for u in best.order if u not in removed_set]
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
        accepted = cand is not None and cand.objective < best.objective
        if accepted:
            scores[op] += 3.0
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
    return _draw(candidates, [(t ** alpha) * (e ** beta) for t, e in zip(tau, eta)], rng)


def _draw(candidates: Sequence[int], weights: Sequence[float], rng) -> int:
    """Sample a candidate with probability proportional to its weight: the
    draw behind :func:`aco_select` and every ant step."""
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
    being the latest arrival without a walk plus ``TIME_TOL``, closed by
    ``(inf, n - 1)``: the list :func:`_construct_route` reads window tops
    from."""
    by_top = sorted((t.top + TIME_TOL, u) for u, t in enumerate(inst.timing[1:-1], 1))
    by_top.append((math.inf, inst.n - 1))
    return by_top


def _pass_weights(tau: list[list[float]], eta_beta: list[list[float]], alpha: float):
    """The step weights of one colony pass, pheromone^alpha times
    desirability^beta: ``weights(u, cands)`` lists those of the steps from
    ``u`` to each of ``cands``.  ``tau`` holds the pass's trails and
    ``eta_beta`` each desirability to the power beta.  Each weight is
    computed by :func:`aco_select`'s float expression on first use and kept
    for the rest of the pass."""
    rows = [[None] * len(tau) for _ in tau]

    def weights(u: int, cands: Sequence[int]) -> list[float]:
        row, tau_row, eta_row = rows[u], tau[u], eta_beta[u]
        out = []
        for v in cands:
            x = row[v]
            if x is None:
                x = row[v] = (tau_row[v] ** alpha) * eta_row[v]
            out.append(x)
        return out

    return weights


def _construct_route(inst, anchored, by_top, weights, rng):
    """One ant's route with its arrivals without stops, or None on a dead
    end.

    ``weights`` is the colony pass's lookup from :func:`_pass_weights`; a
    step draws among its candidates as :func:`aco_select` does.

    Candidates must keep the anchored total order, be reachable inside
    their own window and leave the next pending anchored node reachable;
    an ant with no admissible candidate abandons the route.  So the open
    candidates are the unvisited flexible events, in id order, and the
    pending anchored node at its id position.  ``by_top`` comes from
    :func:`_by_top`.  The arrivals come back per node, the end node's left
    NaN: the route start, then one time step per visit; they are None when
    the start node's window breaks at the route start.
    """
    n = inst.n
    timing = inst.timing
    follows = inst.follows
    rank = inst.anchor_rank
    visited = [False] * n
    free = [v for v in range(1, n - 1) if v not in rank]
    order = [0]
    arrival = [math.nan] * n
    current = 0
    a0, started = _route_start(inst, 0.0)
    a_cur = arrival[0] = a0
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
        follows_current = follows[current]
        for v in open_:
            # the table rejects only steps that the time step rejects, so
            # it screens both steps before either is timed
            if not follows_current[v]:
                continue
            via = pending is not None and v != pending
            if via and not follows[v][pending]:
                continue
            a_v = _time_step(inst, current, a_cur, 0.0, v, 0.0, a0)
            if a_v is None:
                continue
            kind, duration, a_max, _, _ = timing[v]
            dep_v = a_max if kind == DAY_END else a_v + duration
            if dep_v > (top2 if v == tightest else top1):
                continue
            if via and _time_step(inst, v, a_v, 0.0, pending, 0.0, a0) is None:
                continue
            cands.append(v)
            arrivals.append(a_v)
        if not cands:
            return None
        chosen = _draw(cands, weights(current, cands), rng)
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
    return order, arrival if started else None


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
    that assemble to no feasible schedule are discarded too.  Within a
    colony pass each step's weight is computed once and shared by its ants
    (:func:`_pass_weights`); after every pass the pheromone matrix is
    evaporated and reinforced.  Raises
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
    eta_beta = [[e ** p.beta for e in row] for row in eta.tolist()]
    tau = np.full((n, n), p.tau0, dtype=float)
    memo = _RunMemo(inst)
    by_top = _by_top(inst)
    # a route comes timed up to its last visit; the memo times the step into
    # the end node, or the whole route when it comes untimed, and remembers
    # a route that fails as None
    best: Schedule | None = None
    for it in range(p.iterations):
        weights = _pass_weights(tau.tolist(), eta_beta, p.alpha)
        solutions = []
        for _ in range(p.ants):
            route = _construct_route(inst, anchored, by_top, weights, rng)
            if route is None:
                continue
            order, arrival = route
            last = len(order) - 1
            sched = memo.assemble(order, arrival, last, last + 1, math.inf)
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
