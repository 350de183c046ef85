"""Exact solving.

An exhaustive oracle for tiny instances, a depth-first branch-and-bound
over visit orders, the same search restricted to completing a partial
order (used by the neighborhood-search repair), and an emitter that writes
the model as a portable Big-M linear program text file.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import product

from .core import Instance, NodeKind, Schedule, _floor, _route_start
from .errors import InstanceTooLargeError, NoInitialSolutionError
from .schedule import (
    _price,
    _time_step,
    anchored_sequence,
    assemble_schedule,
    bfd_initial,
    propagate_times,
)

ORACLE_MAX_NODES = 10
LEAF_ENUM_MAX_CHARGEABLE = 12
_BOUND_TOL = 1e-12


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    TIME_LIMIT = "timeLimit"
    INFEASIBLE = "infeasible"
    HEURISTIC_LEAF = "heuristicLeaf"


@dataclass(frozen=True)
class BnBConfig:
    time_limit: float = 15.0

    def __post_init__(self):
        if not self.time_limit > 0:  # NaN included
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class ExactResult:
    schedule: Schedule | None
    status: SolveStatus
    nodes_explored: int = 0
    incumbents: tuple[tuple[int, float], ...] = ()

    @property
    def objective(self) -> float | None:
        return None if self.schedule is None else self.schedule.objective


def _chargeable(inst: Instance) -> list[int]:
    return [u for u in range(inst.n - 1) if inst.nodes[u].charging is not None]


def _interleavings(anchored, flexible, n):
    """All full orders keeping the anchored nodes in their canonical order."""
    flexible = tuple(sorted(flexible))

    def rec(prefix, ai, remaining):
        if ai == len(anchored) and not remaining:
            yield (0, *prefix, n - 1)
            return
        if ai < len(anchored):
            yield from rec(prefix + [anchored[ai]], ai + 1, remaining)
        for i, f in enumerate(remaining):
            yield from rec(prefix + [f], ai, remaining[:i] + remaining[i + 1 :])

    yield from rec([], 0, flexible)


def _best_charging(order, inst, chargeable):
    """Best schedule over all charge-flag subsets for a fixed order, or None.

    Gains are always charged to the cap: extra charge costs no time in this
    model, so it can only help the end-of-route term.
    """
    best = None
    for flags in product((0, 1), repeat=len(chargeable)):
        charge = [0] * inst.n
        for u, f in zip(chargeable, flags):
            charge[u] = f
        sched = _price(order, charge, inst)
        if sched is not None and (
            best is None or (sched.objective, sched.charge) < (best.objective, best.charge)
        ):
            best = sched
    return best


def oracle(inst: Instance) -> Schedule | None:
    """Ground truth by exhaustive enumeration of orders and charge subsets.

    Guarded to at most 10 nodes; larger instances raise
    :class:`InstanceTooLargeError`.  Ties prefer the lexicographically
    smallest order, then the smallest charge vector.  Returns None when the
    instance is infeasible.
    """
    n = inst.n
    if n > ORACLE_MAX_NODES:
        raise InstanceTooLargeError(f"oracle is guarded to {ORACLE_MAX_NODES} nodes, got {n}")
    anchored = list(anchored_sequence(inst))
    anchored_set = set(anchored)
    flexible = [u for u in range(1, n - 1) if u not in anchored_set]
    chargeable = _chargeable(inst)
    zeros = [0] * n
    best: Schedule | None = None
    for order in _interleavings(anchored, flexible, n):
        if propagate_times(order, zeros, inst) is None:
            continue
        sched = _best_charging(order, inst, chargeable)
        if sched is not None and (best is None or (
            (sched.objective, sched.order, sched.charge) < (best.objective, best.order, best.charge)
        )):
            best = sched
    return best


class _Timeout(Exception):
    pass


class _Search:
    """Depth-first branch-and-bound over the completions of a partial order.

    Complete orders are priced by ``price(order, inst)``, which returns a
    schedule or None.
    Subtrees are cut on anchored-order violations, on earliest-time
    infeasibility of the partial order and on an optimistic objective bound
    against the incumbent: the objective floor (:func:`~evroute.core._floor`)
    of the exact distance so far plus a shortest exit from every node still
    to leave, the day lengths seen so far and the earliest route start.
    """

    def __init__(self, inst: Instance, deadline: float | None, price):
        self.inst = inst
        self.deadline = deadline
        self.price = price
        dist = inst.dist_rows
        n = inst.n
        self.min_out = [min(dist[u][v] for v in range(n) if v != u) for u in range(n)]
        self.best: Schedule | None = None
        self.best_obj = math.inf
        self.explored = 0
        self.leaves = 0
        self.incumbents: list[tuple[int, float]] = []

    def offer(self, schedule: Schedule | None):
        if schedule is not None and schedule.objective < self.best_obj:
            self.best = schedule
            self.best_obj = schedule.objective
            self.incumbents.append((self.explored, self.best_obj))

    def tick(self):
        self.explored += 1
        if self.deadline is not None and self.explored % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout

    def run(self, base, removed) -> bool:
        """Search every order that keeps ``base`` as a subsequence and places
        each ``removed`` node before the end node.  Returns False when the
        deadline cut the search short.

        Arrivals are propagated without charging: charging only tightens the
        timetable (walks extend departures and separator lower bounds, and
        shift fixed pins and window tops down), so infeasibility here rules
        out every charge assignment.  Anchors are placed in rank order, so
        the count placed so far is the rank of the next one allowed.
        """
        inst = self.inst
        n = inst.n
        dist = inst.dist_rows
        rank = inst.anchor_rank
        day_ref = inst.day_ref
        min_out = self.min_out
        a0 = _route_start(inst, 0.0)[0]
        # the earliest start over both charging choices at the start node
        a0_floor = _route_start(inst, inst.walk[0])[0]
        removed = sorted(removed)
        placed_removed = [False] * n
        path = [0]

        def dfs(bi, last, a_last, dist_so_far, sep_sum, anchors, remaining_min):
            # remaining_min = min_out[last] + sum of min_out over unplaced nodes
            self.tick()
            if bi == len(base):
                self.leaves += 1
                self.offer(self.price(path, inst))
                return
            remaining_after = remaining_min - min_out[last]
            nxt = base[bi]
            cands = [u for u in removed if not placed_removed[u]]
            if nxt != n - 1 or not cands:
                cands.insert(0, nxt)
            for v in cands:
                r = rank.get(v)
                if r is not None and r != anchors:
                    continue
                a_v = _time_step(inst, last, a_last, 0.0, v, 0.0, a0)
                if a_v is None:
                    continue
                dist_v = dist_so_far + dist[last][v]
                sep_v = sep_sum
                if v in day_ref:
                    ref = day_ref[v]
                    sep_v = sep_sum + (a_v - (a0 if ref is None else ref))
                floor = _floor(dist_v + remaining_after, sep_v, a0_floor, inst)
                if floor >= self.best_obj - _BOUND_TOL:
                    continue
                path.append(v)
                anchors_v = anchors if r is None else anchors + 1
                if v == nxt:
                    dfs(bi + 1, v, a_v, dist_v, sep_v, anchors_v, remaining_after)
                else:
                    placed_removed[v] = True
                    dfs(bi, v, a_v, dist_v, sep_v, anchors_v, remaining_after)
                    placed_removed[v] = False
                path.pop()

        remaining0 = (
            sum(min_out[u] for u in base[1:-1])
            + sum(min_out[u] for u in removed)
            + min_out[0]
        )
        try:
            dfs(1, 0, a0, 0.0, 0.0, 0, remaining0)
        except _Timeout:
            return False
        return True


def solve_exact(
    inst: Instance,
    cfg: BnBConfig | None = None,
) -> ExactResult:
    """Depth-first branch-and-bound over visit orders.

    The search completes the order start -> end with every interior node;
    subtrees are cut on anchored-order violations, earliest-time
    infeasibility of the partial order, and an optimistic objective bound
    against the incumbent (seeded from the instance's best-fit-decreasing
    start, :func:`~evroute.schedule.bfd_initial`, built on the first
    request and shared with every later solver call on the same instance
    object).  Charging is resolved per complete order: exactly, by
    subset enumeration, while the chargeable node count stays within
    :data:`LEAF_ENUM_MAX_CHARGEABLE`, otherwise by the greedy planner, in
    which case an exhausted tree reports ``heuristicLeaf`` instead of
    ``optimal``.
    """
    cfg = BnBConfig() if cfg is None else cfg
    deadline = time.monotonic() + cfg.time_limit
    chargeable = _chargeable(inst)
    leaf_enum = len(chargeable) <= LEAF_ENUM_MAX_CHARGEABLE
    price = partial(_best_charging, chargeable=chargeable) if leaf_enum else assemble_schedule
    search = _Search(inst, deadline, price)
    try:
        search.offer(bfd_initial(inst))
    except NoInitialSolutionError:
        pass

    exhausted = search.run([0, inst.n - 1], range(1, inst.n - 1))
    if not exhausted:
        status = SolveStatus.TIME_LIMIT
    elif search.best is None:
        status = SolveStatus.INFEASIBLE
    elif search.leaves and not leaf_enum:
        status = SolveStatus.HEURISTIC_LEAF
    else:
        status = SolveStatus.OPTIMAL
    return ExactResult(search.best, status, search.explored, tuple(search.incumbents))


def solve_completion(inst: Instance, base_order, removed) -> Schedule | None:
    """Optimal re-insertion of ``removed`` nodes into ``base_order``.

    The surviving order is kept as a subsequence; removed nodes may go
    anywhere that respects the anchored total order.  Complete orders are
    priced by the greedy charging planner, exactly like the heuristic
    repairs, and the search has no deadline: it always runs to the end, so
    the result dominates any repair over the same removal set.  Its size is
    bounded by the caller's removal count (ALNS's
    ``exact_repair_max_removed``).  ``base_order`` and ``removed`` together
    must hold every node exactly once.
    """
    base = list(base_order)
    removed = list(removed)
    if not base or base[0] != 0 or base[-1] != inst.n - 1:
        raise ValueError("base order must run from the start node to the end node")
    if sorted(base + removed) != list(range(inst.n)):
        raise ValueError("base order and removed nodes overlap or miss a node")
    search = _Search(inst, None, assemble_schedule)
    search.run(base, removed)
    return search.best


# --- portable linear model -------------------------------------------------


@dataclass(frozen=True)
class LinearRow:
    name: str
    coeffs: dict[str, float]
    sense: str  # one of <=, >=, =
    rhs: float


@dataclass(frozen=True)
class LinearModel:
    """Big-M linearization of one instance, printable as a text file."""

    variables: tuple[tuple[str, str, float | None, float | None], ...]
    rows: tuple[LinearRow, ...]
    objective: tuple[dict[str, float], float]
    m_time: float
    m_range: float

    def to_text(self) -> str:
        def term(c, v):
            return f"{c:+.6f} {v}"

        lines = [
            "# multi-day EV routing, Big-M linear model, format v1",
            "# variables: a_<u> arrival, k_<u> range, ct_<u> charge gain,",
            "#            x_<u>_<v> edge use (binary), r_<u> charging stop (binary)",
            f"# M_time {self.m_time:.6f} M_range {self.m_range:.6f}",
        ]
        obj_terms = " ".join(term(c, v) for v, c in self.objective[0].items())
        const = self.objective[1]
        lines.append(f"min: {obj_terms}" + (f" {const:+.6f}" if const else ""))
        for row in self.rows:
            body = " ".join(term(c, v) for v, c in row.coeffs.items())
            lines.append(f"{row.name}: {body} {row.sense} {row.rhs:.6f}")
        for name, kind, lb, ub in self.variables:
            if kind == "binary":
                lines.append(f"bin {name}")
            else:
                lo = "-inf" if lb is None else f"{lb:.6f}"
                hi = "+inf" if ub is None else f"{ub:.6f}"
                lines.append(f"bound {lo} <= {name} <= {hi}")
        return "\n".join(lines) + "\n"


def linearize(inst: Instance) -> LinearModel:
    """Emit the model with conditional constraints rewritten via Big-M.

    The result is a portable description for external MIP tools; nothing in
    this package consumes it for solving.  Products of binaries with
    constants stay linear, so only the edge-conditioned time and range
    chains need Big-M slack.
    """
    n = inst.n
    nodes = inst.nodes
    m_time = max(nd.a_max for nd in nodes) - min(nd.a_min for nd in nodes)
    m_range = inst.k_max + float(inst.dist.max())
    walk = inst.walk
    day_ref = inst.day_ref

    def gain_cap(u):
        c = nodes[u].charging
        return 0.0 if c is None else c.max_gain

    variables: list[tuple[str, str, float | None, float | None]] = []
    for u in range(n):
        variables.append((f"a_{u}", "continuous", 0.0, None))
        variables.append((f"k_{u}", "continuous", 0.0, None))
    for u in range(n - 1):
        variables.append((f"ct_{u}", "continuous", 0.0, None))
        variables.append((f"r_{u}", "binary", None, None))
    for u in range(n):
        for v in range(n):
            if u != v:
                variables.append((f"x_{u}_{v}", "binary", None, None))

    rows: list[LinearRow] = []

    def add(name, coeffs, sense, rhs):
        rows.append(LinearRow(name, coeffs, sense, rhs))

    for u in range(n):
        add(
            f"flow_out_{u}",
            {f"x_{u}_{v}": 1.0 for v in range(n) if v != u},
            "=",
            1.0 if u != n - 1 else 0.0,
        )
        add(
            f"flow_in_{u}",
            {f"x_{v}_{u}": 1.0 for v in range(n) if v != u},
            "=",
            1.0 if u != 0 else 0.0,
        )
    for u in range(n):
        for v in range(u + 1, n):
            add(f"no_two_cycle_{u}_{v}", {f"x_{u}_{v}": 1.0, f"x_{v}_{u}": 1.0}, "<=", 1.0)

    for u in range(n):
        node = nodes[u]
        has_r = u != n - 1
        if node.kind is NodeKind.FIXED:
            coeffs = {f"a_{u}": 1.0}
            if has_r and walk[u]:
                coeffs[f"r_{u}"] = walk[u]
            add(f"pinned_arrival_{u}", coeffs, "=", node.fixed_arrival)
        if u in day_ref:
            # Day boundaries measure their lower bound against the previous
            # day reference and add the walk instead of subtracting it.
            ref = day_ref[u]
            coeffs = {f"a_{u}": 1.0}
            if has_r and walk[u]:
                coeffs[f"r_{u}"] = -walk[u]
            if ref is None:
                coeffs["a_0"] = coeffs.get("a_0", 0.0) - 1.0
                add(f"window_lo_{u}", coeffs, ">=", 0.0)
            else:
                add(f"window_lo_{u}", coeffs, ">=", ref)
        else:
            coeffs = {f"a_{u}": 1.0}
            if has_r and walk[u]:
                coeffs[f"r_{u}"] = walk[u]
            add(f"window_lo_{u}", coeffs, ">=", node.a_min)
        coeffs = {f"a_{u}": 1.0}
        if has_r and walk[u]:
            coeffs[f"r_{u}"] = walk[u]
        add(f"window_hi_{u}", coeffs, "<=", node.a_max - node.duration)

    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            coeffs = {f"a_{v}": 1.0, f"x_{u}_{v}": -m_time}
            if v != n - 1 and walk[v]:
                coeffs[f"r_{v}"] = -walk[v]
            if u in day_ref:
                if walk[u]:
                    coeffs[f"r_{u}"] = coeffs.get(f"r_{u}", 0.0) - walk[u]
                rhs = nodes[u].a_max + float(inst.travel[u, v]) - m_time
            else:
                coeffs[f"a_{u}"] = -1.0
                if u != n - 1 and walk[u]:
                    coeffs[f"r_{u}"] = coeffs.get(f"r_{u}", 0.0) - 2.0 * walk[u]
                rhs = nodes[u].duration + float(inst.travel[u, v]) - m_time
            add(f"chain_time_{u}_{v}", coeffs, ">=", rhs)

    add("start_range", {"k_0": 1.0}, "=", inst.k_start)
    for u in range(n):
        add(f"reserve_{u}", {f"k_{u}": 1.0}, ">=", inst.k_min)
    for u in range(n - 1):
        add(f"gain_cap_{u}", {f"ct_{u}": 1.0, f"r_{u}": -gain_cap(u)}, "<=", 0.0)
        add(f"capacity_{u}", {f"k_{u}": 1.0, f"ct_{u}": 1.0}, "<=", inst.k_max)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            d_uv = float(inst.dist[u, v])
            coeffs = {f"k_{v}": 1.0, f"k_{u}": -1.0, f"x_{u}_{v}": m_range}
            if u != n - 1:
                coeffs[f"ct_{u}"] = -1.0
            add(f"chain_range_hi_{u}_{v}", dict(coeffs), "<=", m_range - d_uv)
            coeffs[f"x_{u}_{v}"] = -m_range
            add(f"chain_range_lo_{u}_{v}", coeffs, ">=", -m_range - d_uv)

    w = inst.weights
    obj: dict[str, float] = {}
    const = 0.0
    for u in range(n):
        for v in range(n):
            if u != v:
                obj[f"x_{u}_{v}"] = w.wd * float(inst.dist[u, v])
    for u, ref in day_ref.items():
        obj[f"a_{u}"] = obj.get(f"a_{u}", 0.0) + w.wt
        if ref is None:
            obj["a_0"] = obj.get("a_0", 0.0) - w.wt
        else:
            const -= w.wt * ref
    obj[f"k_{n - 1}"] = obj.get(f"k_{n - 1}", 0.0) - w.wc
    for u in range(n - 1):
        obj[f"r_{u}"] = obj.get(f"r_{u}", 0.0) + inst.epsilon
    obj["a_0"] = obj.get("a_0", 0.0) + inst.epsilon

    return LinearModel(tuple(variables), tuple(rows), (obj, const), m_time, m_range)
