"""Metaheuristics over visit orders.

Tabu search with swap/insert moves, adaptive large neighborhood search with
three repair operators, and ant colony optimization.  All three share the
assembly pipeline (greedy charging planner plus earliest-time propagation)
for candidate evaluation and are deterministic given their RNG seed; the
generator is numpy's PCG64.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Instance, NodeKind, Schedule, Weights, objective_lower_bound
from .errors import NoSolutionFoundError
from .exact import solve_completion
from .schedule import (
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


@dataclass(frozen=True)
class Move:
    """Elementary reordering move on interior positions."""

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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")


@dataclass
class SearchTrace:
    """In-memory run record: best objective per iteration plus solver events."""

    best: list[tuple[int, float]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)


def _moves(order: Sequence[int]) -> list[Move]:
    n = len(order)
    out = []
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            out.append(Move("swap", i, j))
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i != j:
                out.append(Move("insert", i, j))
    return out


def tabu_search(
    inst: Instance,
    weights: Weights | None = None,
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
    w = inst.weights if weights is None else weights
    p = TsParams() if params is None else params
    current = bfd_initial(inst, w)
    best = current
    half_n = math.ceil(inst.event_count / 2)
    len_swap = half_n if p.tabu_len_swap is None else p.tabu_len_swap
    len_insert = half_n if p.tabu_len_insert is None else p.tabu_len_insert
    tabu: dict[str, deque] = {
        "swap": deque(maxlen=len_swap),
        "insert": deque(maxlen=len_insert),
    }
    for it in range(p.iterations):
        chosen: tuple[Move, Schedule, bool] | None = None
        for move in _moves(current.order):
            cand_order = move.apply(current.order)
            if not respects_anchor_order(cand_order, inst):
                continue
            sched = assemble_schedule(cand_order, inst, w)
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
            trace.best.append((it, best.objective))
            trace.events.append(
                {"kind": "move", "move": move, "tabu": was_tabu, "objective": sched.objective}
            )
    return best


def _removable(inst: Instance) -> list[int]:
    return [
        nd.id
        for nd in inst.nodes[1:-1]
        if nd.kind in (NodeKind.FIXED, NodeKind.FLEXIBLE)
    ]


def _valid_positions(order: list[int], node: int, inst: Instance) -> list[int]:
    out = []
    for p in range(1, len(order) + 1 - 1):
        if respects_anchor_order(order[:p] + [node] + order[p:], inst):
            out.append(p)
    return out


def _repair_random(inst, w, base, removed, rng):
    zeros = [0] * inst.n
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
        if not propagate_times(order, zeros, inst).feasible_times:
            continue
        sched = assemble_schedule(order, inst, w)
        if sched is not None:
            return sched
    return None


def _repair_constructive(inst, w, base, removed):
    """Cheapest insertion on weighted distance plus travel time deltas."""
    dist = inst.dist_rows
    travel = inst.travel_rows
    zeros = [0] * inst.n
    order = list(base)
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
            if propagate_times(trial, zeros, inst).feasible_times:
                order = trial
                remaining.remove(m)
                placed = True
                break
        if not placed:
            return None
    return assemble_schedule(order, inst, w)


def _roulette(rng, ops, op_weights):
    total = sum(op_weights[op] for op in ops)
    probs = [op_weights[op] / total for op in ops]
    r = float(rng.random())
    acc = 0.0
    for op, pr in zip(ops, probs):
        acc += pr
        if r < acc:
            return op, probs
    return ops[-1], probs


def alns(
    inst: Instance,
    weights: Weights | None = None,
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
    w = inst.weights if weights is None else weights
    p = AlnsParams() if params is None else params
    rng = np.random.default_rng(rng_seed)
    current = bfd_initial(inst, w)
    best = current
    removable = _removable(inst)
    n_events = len(removable)
    ops = [op for op in _ALL_REPAIRS if op in p.repair_set]
    op_weights = {op: 1.0 for op in ops}
    scores = {op: 0.0 for op in ops}
    uses = {op: 0 for op in ops}

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
        op, probs = _roulette(rng, ops, op_weights)
        uses[op] += 1
        if op == REPAIR_RANDOM:
            cand = _repair_random(inst, w, base, removed, rng)
        elif op == REPAIR_CONSTRUCTIVE:
            cand = _repair_constructive(inst, w, base, removed)
        else:
            if len(removed) <= p.exact_repair_max_removed:
                cand = solve_completion(inst, base, removed, w)
            else:
                if trace is not None:
                    trace.events.append(
                        {"kind": "exact_repair_timeout", "iteration": it, "removed": len(removed)}
                    )
                cand = _repair_constructive(inst, w, base, removed)
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
            trace.best.append((it, best.objective))
            trace.events.append(
                {
                    "kind": "repair",
                    "iteration": it,
                    "operator": op,
                    "probabilities": probs,
                    "weights": [op_weights[o] for o in ops],
                    "accepted": accepted,
                    "feasible": cand is not None,
                }
            )
        if (it + 1) % p.segment == 0:
            for o in ops:
                if uses[o]:
                    op_weights[o] = (1.0 - p.reaction) * op_weights[o] + p.reaction * (
                        scores[o] / uses[o]
                    )
                scores[o] = 0.0
                uses[o] = 0
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


def _construct_route(inst, anchored, tau, eta, p, rng):
    """One ant's route, or None on a dead end.

    Candidates must keep the anchored total order, be reachable inside
    their own window and leave the next pending anchored node reachable;
    an ant with no admissible candidate abandons the route.  Arrivals are
    propagated without charging.
    """
    n = inst.n
    nodes = inst.nodes
    rank = inst.anchor_rank
    visited = [False] * n
    order = [0]
    current = 0
    a0 = a_cur = max(0.0, nodes[0].a_min)
    next_anchor = 0
    for _ in range(n - 2):
        pending = anchored[next_anchor] if next_anchor < len(anchored) else None
        cands = []
        arrivals = []
        for v in range(1, n - 1):
            if visited[v]:
                continue
            r = rank.get(v)
            if r is not None and r != next_anchor:
                continue
            a_v = _time_step(inst, current, a_cur, 0.0, v, 0.0, a0)
            if a_v is None:
                continue
            if pending is not None and v != pending:
                if _time_step(inst, v, a_v, 0.0, pending, 0.0, a0) is None:
                    continue
            # arrivals never decrease along a route, so a candidate whose
            # departure outruns any unvisited window strands that node
            node_v = nodes[v]
            dep_v = node_v.a_max if node_v.kind is NodeKind.SEPARATOR else a_v + node_v.duration
            stranded = False
            for u in range(1, n - 1):
                if visited[u] or u == v:
                    continue
                nu = nodes[u]
                if dep_v > nu.a_max - nu.duration + 1e-6:
                    stranded = True
                    break
            if stranded:
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
        a_cur = arrivals[cands.index(chosen)]
        visited[chosen] = True
        order.append(chosen)
        if chosen in rank:
            next_anchor += 1
        current = chosen
    order.append(n - 1)
    return order


def aco(
    inst: Instance,
    weights: Weights | None = None,
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
    w = inst.weights if weights is None else weights
    p = AcoParams() if params is None else params
    rng = np.random.default_rng(rng_seed)
    n = inst.n
    anchored = anchored_sequence(inst)
    dist = inst.dist
    travel = inst.travel
    eta = 1.0 / (w.wd * dist + w.wt * travel + ETA_EPS)
    eta = eta.tolist()
    tau = np.full((n, n), p.tau0, dtype=float)
    best: Schedule | None = None
    for it in range(p.iterations):
        tau_rows = tau.tolist()
        solutions = []
        for _ in range(p.ants):
            order = _construct_route(inst, anchored, tau_rows, eta, p, rng)
            if order is None:
                continue
            sched = assemble_schedule(order, inst, w)
            if sched is not None:
                solutions.append(sched)
        for s in solutions:
            if best is None or s.objective < best.objective:
                best = s
        tau = pheromone_update(tau, solutions, best, p.rho, w)
        if trace is not None:
            trace.best.append((it, math.inf if best is None else best.objective))
            trace.events.append(
                {"kind": "colony", "iteration": it, "feasible_ants": len(solutions)}
            )
    if best is None:
        raise NoSolutionFoundError("every ant route was infeasible in every iteration")
    return best
