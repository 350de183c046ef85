"""Domain model for multi-day electric-vehicle routing with parallel charging.

Times are minutes since the instance epoch, distances and battery state are
kilometers of drivable range.  A problem is a directed complete graph over
event nodes; a candidate solution is a visit order plus arrival times,
charging decisions and propagated battery ranges.  This module holds the
immutable types, the objective function, the constraint validator and the
preference-to-weight normalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

TIME_TOL = 1e-6    # minutes; strict "<" over continuous time is checked as "<= tol"
RANGE_TOL = 1e-6   # kilometers
OBJECTIVE_TOL = 1e-9  # relative to max(1, |objective|)
DEFAULT_EPSILON = 1e-3
_DEGENERATE_SPAN = 1e-9


class NodeKind(enum.Enum):
    START = "start"
    FIXED = "fixed"
    FLEXIBLE = "flexible"
    SEPARATOR = "separator"
    END = "end"


# Kind codes of NodeTiming: how a node's arrival is bounded below.
PINNED = 0     # fixed event: arrives at its pin less the walk
WINDOWED = 1   # start, flexible event, end: waits for a_min less the walk
DAY_END = 2    # separator: waits for its day reference plus the walk


class NodeTiming(NamedTuple):
    """One node's row of :attr:`Instance.timing`."""

    kind: int             # PINNED, WINDOWED or DAY_END
    duration: float
    a_max: float
    base: float | None    # pin, a_min, or day reference (None on the first day)
    top: float            # a_max - duration: the latest arrival without a walk


class ConstraintId(str, enum.Enum):
    """Constraint families reported by :func:`validate`."""

    FLOW = "flow"
    SELF_CYCLE = "selfCycle"
    TWO_CYCLE = "twoCycle"
    FIXED_ARRIVAL = "fixedArrival"
    WINDOW = "window"
    SEPARATOR_WINDOW = "separatorWindow"
    TIME_CHAIN = "timeChain"
    END_NODE_CHARGE = "endNodeCharge"
    MIN_RANGE = "minRange"
    GAIN_CAP = "gainCap"
    MAX_RANGE = "maxRange"
    RANGE_CHAIN = "rangeChain"
    DOMAIN = "domain"
    OBJECTIVE = "objective"


@dataclass(frozen=True)
class StationMeta:
    """Raw station attributes, kept for reporting and scoring only."""

    power_kw: float
    walk_meters: float
    plug_count: int


@dataclass(frozen=True)
class ChargingOption:
    """Preselected charging station reachable from an event node.

    ``walk_time`` is the one-way walk in minutes, ``rate`` the range gain in
    km per minute of dwell and ``max_gain`` the total gain available while
    staying at the node.
    """

    walk_time: float
    rate: float
    max_gain: float
    station: StationMeta | None = None

    def __post_init__(self):
        fields = (self.walk_time, self.rate, self.max_gain)
        if not all(math.isfinite(x) for x in fields):
            raise ValueError(f"charging option fields must be finite, got {fields}")
        if self.walk_time < 0 or self.rate < 0 or self.max_gain < 0:
            raise ValueError("charging option fields must be non-negative")


@dataclass(frozen=True)
class EventNode:
    """One appointment, day boundary or route endpoint.

    ``a_min``/``a_max`` bound the stay: earliest arrival and latest
    departure.  ``fixed_arrival`` pins the arrival of time-fixed events and
    is present exactly for ``kind == FIXED``.
    """

    id: int
    kind: NodeKind
    a_min: float
    a_max: float
    duration: float
    fixed_arrival: float | None = None
    charging: ChargingOption | None = None

    def __post_init__(self):
        for name in ("a_min", "a_max", "duration", "fixed_arrival"):
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise ValueError(f"node {self.id}: {name} must be finite, got {x}")
        if self.duration < 0:
            raise ValueError(f"node {self.id}: negative duration")
        if self.a_min + self.duration > self.a_max:
            raise ValueError(f"node {self.id}: window shorter than duration")
        if (self.fixed_arrival is not None) != (self.kind is NodeKind.FIXED):
            raise ValueError(f"node {self.id}: fixed_arrival present iff kind is fixed")
        if self.fixed_arrival is not None:
            if not (self.a_min <= self.fixed_arrival <= self.a_max - self.duration):
                raise ValueError(f"node {self.id}: fixed_arrival outside window")
        if self.kind is NodeKind.END and self.charging is not None:
            raise ValueError("end node cannot carry a charging option")


@dataclass(frozen=True)
class Weights:
    """Normalized objective weights.

    ``prefs`` is the user preference triple (distance, time, end charge)
    summing to one; ``bounds`` holds the (lower, upper) estimates of each
    objective summand that were used for normalization, in the same order.
    """

    wd: float
    wt: float
    wc: float
    prefs: tuple[float, float, float] = (1.0, 0.0, 0.0)
    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0), (-1.0, 0.0))

    def __post_init__(self):
        if len(self.prefs) != 3 or len(self.bounds) != 3 or any(len(b) != 2 for b in self.bounds):
            raise ValueError("prefs and bounds must hold a value and a (lower, upper) pair per objective summand")
        values = (self.wd, self.wt, self.wc, *self.prefs, *(x for b in self.bounds for x in b))
        if not all(math.isfinite(x) for x in values):
            raise ValueError("weights, prefs and bounds must be finite")
        if min(self.wd, self.wt, self.wc) < 0:
            raise ValueError("weights must be non-negative")
        if min(self.prefs) < 0 or abs(sum(self.prefs) - 1.0) > 1e-9:
            raise ValueError("prefs must be non-negative and sum to 1")


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance.

    ``nodes[0]`` is the route start, ``nodes[-1]`` the route end and
    ``separators`` lists the day-boundary nodes in day order.  ``dist`` and
    ``travel`` are full n-by-n matrices; no symmetry or triangle inequality
    is assumed.
    """

    nodes: tuple[EventNode, ...]
    dist: np.ndarray
    travel: np.ndarray
    k_min: float
    k_max: float
    k_start: float
    separators: tuple[int, ...] = ()
    weights: Weights = Weights(1.0, 0.0, 0.0)
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "separators", tuple(self.separators))
        n = len(self.nodes)
        if n < 2:
            raise ValueError("an instance needs at least a start and an end node")
        for mat_name in ("dist", "travel"):
            mat = np.asarray(getattr(self, mat_name), dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"{mat_name} must be {n}x{n}")
            if (mat < 0).any() or np.isinf(mat).any():
                raise ValueError(f"{mat_name} entries must be finite and non-negative")
            if np.diagonal(mat).any():
                raise ValueError(f"{mat_name} diagonal must be zero")
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, mat_name, mat)
        if not (0 <= self.k_min <= self.k_start <= self.k_max < math.inf):
            raise ValueError("battery bounds must satisfy 0 <= k_min <= k_start <= k_max < inf")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and non-negative")
        if any(b <= a for a, b in zip(self.separators, self.separators[1:])):
            raise ValueError("separators must be strictly increasing")
        if any(s in (0, n - 1) for s in self.separators):
            raise ValueError("separators exclude the start and end nodes")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node at position {i} carries id {node.id}")
        if self.nodes[0].kind is not NodeKind.START:
            raise ValueError("node 0 must have kind start")
        if self.nodes[-1].kind is not NodeKind.END:
            raise ValueError("last node must have kind end")
        sep_set = set(self.separators)
        for i, node in enumerate(self.nodes):
            if (i in sep_set) != (node.kind is NodeKind.SEPARATOR):
                raise ValueError(f"node {i}: separator kind and separator list disagree")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def event_count(self) -> int:
        """Number of optimized events: fixed plus flexible nodes."""
        return sum(1 for nd in self.nodes if nd.kind in (NodeKind.FIXED, NodeKind.FLEXIBLE))

    @cached_property
    def dist_rows(self) -> tuple[tuple[float, ...], ...]:
        """Distance matrix as nested tuples for tight inner loops."""
        return tuple(tuple(row) for row in self.dist.tolist())

    @cached_property
    def travel_rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(row) for row in self.travel.tolist())

    @cached_property
    def walk(self) -> tuple[float, ...]:
        """One-way walk to each node's charger in minutes, 0 without one."""
        return tuple(0.0 if nd.charging is None else nd.charging.walk_time for nd in self.nodes)

    @cached_property
    def gain_cap(self) -> tuple[float | None, ...]:
        """Total gain of each node's charger in km, None without one."""
        return tuple(None if nd.charging is None else nd.charging.max_gain for nd in self.nodes)

    @cached_property
    def anchor_rank(self) -> dict[int, int]:
        """Fixed events and separators, in their required visit order, mapped
        to their rank: chronological by pinned arrival or latest departure,
        ties by id."""
        anchored = sorted(
            (nd for nd in self.nodes[1:-1] if nd.kind in (NodeKind.FIXED, NodeKind.SEPARATOR)),
            key=lambda nd: (nd.fixed_arrival if nd.kind is NodeKind.FIXED else nd.a_max, nd.id),
        )
        return {nd.id: r for r, nd in enumerate(anchored)}

    @cached_property
    def day_ref(self) -> dict[int, float | None]:
        """Separators in day order, mapped to the time their day is measured
        from: the latest departure of the previous separator, or None for the
        first day, which is measured from the route start."""
        refs = [None, *(self.nodes[u].a_max for u in self.separators[:-1])]
        return dict(zip(self.separators, refs))

    @cached_property
    def timing(self) -> tuple[NodeTiming, ...]:
        """Per node, what the time-chain step reads: kind code, duration,
        latest departure, base time and latest arrival without a walk."""
        rows = []
        for nd in self.nodes:
            if nd.kind is NodeKind.FIXED:
                kind, base = PINNED, nd.fixed_arrival
            elif nd.kind is NodeKind.SEPARATOR:
                kind, base = DAY_END, self.day_ref[nd.id]
            else:
                kind, base = WINDOWED, nd.a_min
            rows.append(NodeTiming(kind, nd.duration, nd.a_max, base, nd.a_max - nd.duration))
        return tuple(rows)

    @cached_property
    def follows(self) -> tuple[tuple[bool, ...], ...]:
        """Per ``[u][v]``, whether ``v`` may directly follow ``u`` in an order
        timed without stops.

        False exactly when ``u``'s earliest departure plus the travel to
        ``v`` lies above ``v``'s pin, or else its latest arrival, by more
        than ``TIME_TOL``.  The earliest departure is the pin or window
        opening plus the stay, or a separator's latest departure.  These are
        the sums the time-chain step forms without walks, a node reached
        later leaves no earlier, and rounding is monotone, so an order with
        a False pair fails that timing (Savelsbergh, ORSA J. Computing 4(2),
        1992).  A NaN sum passes, as in the step; and since NaN travel can
        leave a windowed node's arrival NaN, windowed nodes then reject no
        successor.
        """
        timing = self.timing
        dep = np.array([t.a_max if t.kind == DAY_END else t.base + t.duration for t in timing])
        limit = np.array([(t.base if t.kind == PINNED else t.top) + TIME_TOL for t in timing])
        if np.isnan(self.travel).any():
            dep[[t.kind == WINDOWED for t in timing]] = -math.inf
        return tuple(map(tuple, (~(dep[:, None] + self.travel > limit)).tolist()))

    @cached_property
    def bfd_start(self) -> Schedule:
        """The best-fit-decreasing initial solution
        (:func:`~evroute.schedule.bfd_initial`), built on first request and
        then shared by every solver seeded from it.  A failed build stores
        nothing, so each request raises
        :class:`~evroute.errors.NoInitialSolutionError` again."""
        from .schedule import _build_bfd  # deferred: schedule builds on this module

        return _build_bfd(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self.dist, other.dist)
            and np.array_equal(self.travel, other.travel)
            and (self.k_min, self.k_max, self.k_start) == (other.k_min, other.k_max, other.k_start)
            and self.separators == other.separators
            and self.weights == other.weights
            and self.epsilon == other.epsilon
        )


@dataclass(frozen=True)
class Schedule:
    """Candidate solution over a full visit order.

    Edge usage is derived from ``order``: the edge (u, v) is used exactly
    when v directly follows u.  ``charge`` holds the per-node 0/1 charging
    flags, ``gain`` the realized range gain and ``ranges`` the battery range
    on arrival, all indexed by node id.
    """

    order: tuple[int, ...]
    arrival: tuple[float, ...]
    charge: tuple[int, ...]
    gain: tuple[float, ...]
    ranges: tuple[float, ...]
    objective: float

    def __post_init__(self):
        lengths = {len(self.arrival), len(self.charge), len(self.gain), len(self.ranges)}
        if len(lengths) != 1:
            raise ValueError("per-node vectors must share one length")

    @property
    def stops(self) -> int:
        return sum(self.charge[:-1])


@dataclass(frozen=True)
class Violation:
    """One violated constraint, located and quantified."""

    constraint_id: ConstraintId
    location: str
    detail: str
    magnitude: float


def separator_ref(u: int, s: Schedule, inst: Instance) -> float:
    """Reference time a separator's day is measured against.

    The first separator is measured against the route start time, every
    later one against the latest departure of the preceding separator.
    """
    if u not in inst.day_ref:
        raise ValueError(f"node {u} is not a separator")
    ref = inst.day_ref[u]
    return s.arrival[0] if ref is None else ref


def _route_start(inst: Instance, w0: float) -> tuple[float, bool]:
    """The route start under the start node's charger walk ``w0``, and
    whether the start node's window holds it.

    The start is the start node's own earliest arrival less the walk, never
    before 0: later arrivals only delay the chain, so the window lower
    bound is the earliest start that can ever be feasible.
    """
    a0 = max(0.0, inst.nodes[0].a_min - w0)
    return a0, not a0 > inst.timing[0].top - w0 + TIME_TOL


def _route_sums(order: Sequence[int], arrival: Sequence[float], inst: Instance) -> tuple[float, float]:
    """Route distance and summed day lengths: the objective's first two summands."""
    dist = inst.dist_rows
    total_d = 0.0
    prev = order[0]
    for u in order[1:]:
        total_d += dist[prev][u]
        prev = u
    a0 = arrival[0]
    days = 0.0
    for u, ref in inst.day_ref.items():
        days += arrival[u] - (a0 if ref is None else ref)
    return total_d, days


def objective_value(
    order: Sequence[int],
    arrival: Sequence[float],
    charge: Sequence[int],
    ranges: Sequence[float],
    inst: Instance,
) -> float:
    """Objective over raw solution vectors; see :func:`evaluate_objective`."""
    w = inst.weights
    total_d, sep_total = _route_sums(order, arrival, inst)
    stops = 0
    last = inst.n - 1
    for u in range(last):
        if charge[u]:
            stops += 1
    return (
        w.wd * total_d
        + w.wt * sep_total
        - w.wc * ranges[last]
        + inst.epsilon * stops
        + inst.epsilon * arrival[0]
    )


def objective_floor(order: Sequence[int], arrival: Sequence[float], inst: Instance) -> float:
    """A lower bound on the objective of any schedule of ``order``.

    ``arrival`` holds the order's arrivals without stops.  Charging walks
    never make a departure or a separator arrival earlier, so the day
    lengths cannot shrink; the end range is at most ``k_max``, the stop
    count at least 0 and the route start at least its earliest under the
    start node's walk.  The summands are added in the order
    :func:`objective_value` adds them, and rounding is monotone, so the
    floor holds in floating point too.
    """
    total_d, days = _route_sums(order, arrival, inst)
    return _floor(total_d, days, _route_start(inst, inst.walk[0])[0], inst)


def _floor(total_d: float, days: float, a0_min: float, inst: Instance) -> float:
    """The objective with a full battery at the end and no stops, for the
    distance ``total_d``, the day lengths ``days`` and the route start
    ``a0_min``: :func:`objective_floor` and the exact search's bound."""
    w = inst.weights
    return w.wd * total_d + w.wt * days - w.wc * inst.k_max + inst.epsilon * a0_min


def evaluate_objective(s: Schedule, inst: Instance) -> float:
    """Weighted route cost: distance, day lengths, end-of-route charge, plus
    a small epsilon on the stop count and the departure time."""
    if len(s.arrival) != inst.n or len(s.order) != inst.n:
        raise ValueError("schedule and instance dimensions disagree")
    return objective_value(s.order, s.arrival, s.charge, s.ranges, inst)


def validate(s: Schedule, inst: Instance) -> list[Violation]:
    """Check every model constraint and report all violations found.

    Returns an empty list exactly when the schedule is feasible and its
    reported objective is the objective of its own vectors under
    ``inst.weights``.  Checks are exhaustive rather than first-found so
    fuzz failures stay diagnosable.  Every check is written as
    ``not <holds>``, so a NaN in the schedule or the instance fails it
    instead of passing silently; non-finite schedule entries and used edges
    are also reported as domain violations.
    """
    out: list[Violation] = []
    n = inst.n
    nodes = inst.nodes
    walk = inst.walk

    def bad(cid: ConstraintId, loc: str, detail: str, mag: float):
        out.append(Violation(cid, loc, detail, mag))

    if len(s.arrival) != n:
        bad(ConstraintId.DOMAIN, "schedule", f"expected {n} per-node entries, got {len(s.arrival)}", abs(len(s.arrival) - n))
        return out

    order = s.order
    # Flow structure: the derived edge set must give every interior node one
    # incoming and one outgoing edge, which holds iff order is a permutation
    # from the start node to the end node.
    counts = [0] * n
    known_ids = True
    for u in order:
        if 0 <= u < n:
            counts[u] += 1
        else:
            known_ids = False
            bad(ConstraintId.FLOW, f"node {u}", "unknown node id in order", 1.0)
    for u, c in enumerate(counts):
        if c != 1:
            bad(ConstraintId.FLOW, f"node {u}", f"visited {c} times", abs(c - 1))
    if len(order) == 0 or order[0] != 0:
        bad(ConstraintId.FLOW, "node 0", "order must begin at the start node", 1.0)
    if len(order) == 0 or order[-1] != n - 1:
        bad(ConstraintId.FLOW, f"node {n - 1}", "order must finish at the end node", 1.0)
    for i in range(len(order) - 1):
        if order[i] == order[i + 1]:
            bad(ConstraintId.SELF_CYCLE, f"edge {order[i]}->{order[i]}", "self-cycle", 1.0)
    for i in range(len(order) - 2):
        if order[i] == order[i + 2] and order[i] != order[i + 1]:
            bad(ConstraintId.TWO_CYCLE, f"edge {order[i]}<->{order[i + 1]}", "two-node cycle", 1.0)

    # Per-node checks.
    for u, node in enumerate(nodes):
        a_u = s.arrival[u]
        r_u = s.charge[u]
        w_u = walk[u] if r_u else 0.0
        for what, x in (("arrival", a_u), ("charge gain", s.gain[u]), ("range", s.ranges[u])):
            if not math.isfinite(x):
                bad(ConstraintId.DOMAIN, f"node {u}", f"non-finite {what} {x}", math.inf)
        if not a_u >= -TIME_TOL:
            bad(ConstraintId.DOMAIN, f"node {u}", f"negative arrival {a_u:.6f}", -a_u)
        if not s.gain[u] >= -RANGE_TOL:
            bad(ConstraintId.DOMAIN, f"node {u}", f"negative charge gain {s.gain[u]:.6f}", -s.gain[u])
        if r_u not in (0, 1):
            bad(ConstraintId.DOMAIN, f"node {u}", f"charge flag {r_u} outside 0/1", 1.0)
        elif r_u == 1 and node.charging is None:
            bad(ConstraintId.DOMAIN, f"node {u}", "charging flagged without a charging option", 1.0)
        if u == n - 1:
            if r_u or not s.gain[u] <= RANGE_TOL:
                bad(ConstraintId.END_NODE_CHARGE, f"node {u}", "charging at the end node", max(1.0, s.gain[u]))
        else:
            cap = r_u * (node.charging.max_gain if node.charging else 0.0)
            if not s.gain[u] <= cap + RANGE_TOL:
                bad(ConstraintId.GAIN_CAP, f"node {u}", f"gain {s.gain[u]:.6f} exceeds cap {cap:.6f}", s.gain[u] - cap)
            if not s.ranges[u] + s.gain[u] <= inst.k_max + RANGE_TOL:
                over = s.ranges[u] + s.gain[u] - inst.k_max
                bad(ConstraintId.MAX_RANGE, f"node {u}", f"charged range exceeds capacity by {over:.6f}", over)
        if not s.ranges[u] >= inst.k_min - RANGE_TOL:
            bad(ConstraintId.MIN_RANGE, f"node {u}", f"range {s.ranges[u]:.6f} below reserve {inst.k_min:.6f}", inst.k_min - s.ranges[u])

        if node.kind is NodeKind.FIXED:
            pinned = node.fixed_arrival - r_u * w_u
            dev = abs(a_u - pinned)
            if not dev <= TIME_TOL:
                bad(ConstraintId.FIXED_ARRIVAL, f"node {u}", f"arrival {a_u:.6f} != pinned {pinned:.6f}", dev)
        if node.kind is NodeKind.SEPARATOR:
            lo = separator_ref(u, s, inst) + r_u * w_u
            hi = node.a_max - node.duration - r_u * w_u
            if not a_u >= lo - TIME_TOL:
                bad(ConstraintId.SEPARATOR_WINDOW, f"node {u}", f"arrival {a_u:.6f} before day reference {lo:.6f}", lo - a_u)
            if not a_u <= hi + TIME_TOL:
                bad(ConstraintId.SEPARATOR_WINDOW, f"node {u}", f"arrival {a_u:.6f} after latest {hi:.6f}", a_u - hi)
        else:
            lo = node.a_min - r_u * w_u
            hi = node.a_max - node.duration - r_u * w_u
            if not a_u >= lo - TIME_TOL:
                bad(ConstraintId.WINDOW, f"node {u}", f"arrival {a_u:.6f} before earliest {lo:.6f}", lo - a_u)
            if not a_u <= hi + TIME_TOL:
                bad(ConstraintId.WINDOW, f"node {u}", f"arrival {a_u:.6f} after latest {hi:.6f}", a_u - hi)

    # Per-edge checks along the derived edges.
    travel = inst.travel_rows
    dist = inst.dist_rows
    if len(order) > 0 and order[0] == 0 and counts[0] == 1:
        if not abs(s.ranges[0] - inst.k_start) <= RANGE_TOL:
            bad(ConstraintId.RANGE_CHAIN, "node 0", f"start range {s.ranges[0]:.6f} != {inst.k_start:.6f}", abs(s.ranges[0] - inst.k_start))
    for i in range(len(order) - 1):
        u, v = order[i], order[i + 1]
        if u == v or not (0 <= u < n and 0 <= v < n):
            continue
        if not (math.isfinite(dist[u][v]) and math.isfinite(travel[u][v])):
            bad(ConstraintId.DOMAIN, f"edge {u}->{v}", f"non-finite distance {dist[u][v]} or travel time {travel[u][v]}", math.inf)
        nu = nodes[u]
        w_u = walk[u] if s.charge[u] else 0.0
        w_v = walk[v] if s.charge[v] else 0.0
        if nu.kind is NodeKind.SEPARATOR:
            dep = nu.a_max + w_u
        else:
            dep = s.arrival[u] + nu.duration + 2.0 * w_u
        lhs = dep + travel[u][v] + w_v
        if not lhs <= s.arrival[v] + TIME_TOL:
            bad(ConstraintId.TIME_CHAIN, f"edge {u}->{v}", f"departure+travel {lhs:.6f} after arrival {s.arrival[v]:.6f}", lhs - s.arrival[v])
        expect = s.ranges[u] + s.gain[u] - dist[u][v]
        dev = abs(s.ranges[v] - expect)
        if not dev <= RANGE_TOL:
            bad(ConstraintId.RANGE_CHAIN, f"edge {u}->{v}", f"range {s.ranges[v]:.6f} != propagated {expect:.6f}", dev)

    if len(order) > 0 and known_ids:
        obj = objective_value(order, s.arrival, s.charge, s.ranges, inst)
        dev = abs(s.objective - obj)
        if not dev <= OBJECTIVE_TOL * max(1.0, abs(obj)):
            bad(ConstraintId.OBJECTIVE, "schedule", f"objective {s.objective!r} != recomputed {obj!r}", dev)
    return out


def objective_lower_bound(weights: Weights) -> float:
    """Sound floor of the objective for the instance the weights came from.

    Uses the per-node shortest-edge distance bound, zero for the day-length
    summand (day lengths are non-negative by construction) and the full
    battery for the end-charge summand.  Epsilon terms are non-negative and
    therefore dropped.
    """
    return weights.wd * weights.bounds[0][0] + weights.wc * weights.bounds[2][0]


def normalize_weights(inst: Instance, prefs: Sequence[float]) -> Weights:
    """Turn a user preference triple into normalized objective weights.

    Each preference is divided by the estimated spread of its summand: the
    upper estimate comes from evaluating the best-fit-decreasing initial
    solution, the distance/time lower estimates from summing each node's
    shortest outgoing edge, and the end-charge summand is bounded by the
    battery capacity window.
    """
    prefs = tuple(float(p) for p in prefs)
    if (
        len(prefs) != 3
        or not all(math.isfinite(p) for p in prefs)
        or min(prefs) < 0
        or abs(sum(prefs) - 1.0) > 1e-9
    ):
        raise ValueError("prefs must be three finite non-negative values summing to 1")
    from .schedule import bfd_initial  # deferred: schedule builds on this module

    bootstrap = Weights(prefs[0], prefs[1], prefs[2], prefs=prefs)
    initial = bfd_initial(replace(inst, weights=bootstrap))  # raises NoInitialSolutionError

    dist = inst.dist_rows
    travel = inst.travel_rows
    upper_d, upper_t = _route_sums(initial.order, initial.arrival, inst)
    # Only nodes with an outgoing edge contribute to the lower estimates.
    idx = range(inst.n)
    lower_d = sum(min(dist[u][v] for v in idx if v != u) for u in range(inst.n - 1))
    lower_t = sum(min(travel[u][v] for v in idx if v != u) for u in range(inst.n - 1))
    bounds = (
        (lower_d, upper_d),
        (lower_t, upper_t),
        (-inst.k_max, -inst.k_min),
    )
    w = tuple(
        p / max(hi - lo, _DEGENERATE_SPAN) for p, (lo, hi) in zip(prefs, bounds)
    )
    return Weights(w[0], w[1], w[2], prefs=prefs, bounds=bounds)
