"""Seeded synthetic instances.

Stands in for the map, traffic and charging-network services: coordinates,
asymmetric jittered distance matrices, per-day event windows, charging
station candidates with score-based preselection, and JSON persistence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    ChargingOption,
    DEFAULT_EPSILON,
    EventNode,
    Instance,
    NodeKind,
    StationMeta,
    Weights,
)
from .errors import (
    GenerationFailedError,
    InstanceFormatError,
    NoInitialSolutionError,
    UnsupportedVersionError,
)

FORMAT_VERSION = 1

DAY_MINUTES = 1440
DAY_START = 7 * 60          # 07:00, first possible departure
DAY_END = 19 * 60           # 19:00, latest day activity / separator arrival
SEPARATOR_EARLIEST = 17 * 60
WALK_M_PER_MIN = 80.0
KM_PER_KWH = 5.0
MIN_RESERVE_FRACTION = 0.05
MAX_EVENTS_PER_DAY = 12
DEFAULT_PREFS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
_STATION_POWERS_KW = (11.0, 22.0, 50.0, 75.0, 150.0, 300.0)
_MAX_INSTANCE_DRAWS = 60
_MAX_DAY_DRAWS = 100


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic instance generator.

    ``event_count`` pins the exact number of events when set; otherwise the
    count is drawn up to ``max_events`` subject to the per-day capacity.
    ``noise`` is the multiplicative jitter range applied independently per
    direction, so distance matrices come out asymmetric.
    """

    seed: int
    max_events: int = 120
    max_days: int = 5
    area_km: float = 50.0
    fixed_fraction: float = 0.5
    station_probability: float = 0.7
    stations_per_event: int = 5
    max_walk_meters: float = 500.0
    speed_kmh: float = 40.0
    noise: tuple[float, float] = (1.0, 1.3)
    event_count: int | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_events < 1:
            raise ValueError("max_events must be at least 1")
        if self.max_days < 1:
            raise ValueError("max_days must be at least 1")
        # written so that NaN fails every check
        if not (math.inf > self.area_km > 0):
            raise ValueError("area_km must be positive and finite")
        if not (math.inf > self.speed_kmh > 0):
            raise ValueError("speed_kmh must be positive and finite")
        if not (math.inf > self.max_walk_meters >= 0):
            raise ValueError("max_walk_meters must be non-negative and finite")
        if self.stations_per_event < 1:
            raise ValueError("stations_per_event must be at least 1")
        for p in (self.fixed_fraction, self.station_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not 1.0 <= self.noise[0] <= self.noise[1] < math.inf:
            raise ValueError("noise range must satisfy 1 <= lo <= hi < inf")
        if self.event_count is not None and self.event_count < 1:
            raise ValueError("event_count must be at least 1 when given")


@dataclass(frozen=True)
class StationCandidate:
    """One charging station returned for an event location."""

    power_kw: float
    walk_meters: float
    plug_count: int
    compatible: bool = True

    def __post_init__(self):
        if self.power_kw < 0 or self.walk_meters < 0 or self.plug_count < 0:
            raise ValueError("station attributes must be non-negative")


def charging_score(c: StationCandidate, cfg: GenConfig) -> float:
    """Score in [0, 1] combining charging power, walking distance and plugs."""
    if not c.compatible:
        raise ValueError("incompatible candidates are excluded before scoring")
    if c.walk_meters > cfg.max_walk_meters:
        raise ValueError("candidate beyond the walking-distance cap")
    return (
        0.5 * min(c.power_kw / 150.0, 1.0)
        + 0.3 * (1.0 - c.walk_meters / cfg.max_walk_meters)
        + 0.2 * min(c.plug_count, 4) / 4.0
    )


def preselect_station(
    candidates: list[StationCandidate], cfg: GenConfig
) -> tuple[int, StationCandidate] | None:
    """Pick the best-scoring usable candidate; ties prefer shorter walks,
    then the earlier candidate index.  None when nothing is usable."""
    best = None
    for i, c in enumerate(candidates):
        if not c.compatible or c.walk_meters > cfg.max_walk_meters:
            continue
        key = (-charging_score(c, cfg), c.walk_meters, i)
        if best is None or key < best[0]:
            best = (key, i, c)
    if best is None:
        return None
    return best[1], best[2]


def _option_from_station(c: StationCandidate, duration: float) -> ChargingOption:
    rate = round(c.power_kw * KM_PER_KWH / 60.0, 6)
    return ChargingOption(
        walk_time=round(c.walk_meters / WALK_M_PER_MIN, 6),
        rate=rate,
        max_gain=round(rate * duration, 6),
        station=StationMeta(c.power_kw, c.walk_meters, c.plug_count),
    )


class _RedrawInstance(Exception):
    pass


def _draw_stations(rng, cfg: GenConfig) -> list[StationCandidate]:
    count = int(rng.integers(1, cfg.stations_per_event + 1))
    out = []
    for _ in range(count):
        out.append(
            StationCandidate(
                power_kw=float(rng.choice(_STATION_POWERS_KW)),
                walk_meters=float(rng.integers(0, int(cfg.max_walk_meters) + 1)),
                plug_count=int(rng.integers(1, 7)),
                compatible=bool(rng.random() < 0.9),
            )
        )
    return out


def _draw_day_events(rng, cfg: GenConfig, day: int, count: int, next_id: int):
    """Windows for one day's events; fixed windows are laid out left to right."""
    offset = day * DAY_MINUTES
    dur_hi = max(16, min(120, 480 // max(count, 1)))
    for _ in range(_MAX_DAY_DRAWS):
        durations = [int(rng.integers(15, dur_hi + 1)) for _ in range(count)]
        is_fixed = [bool(rng.random() < cfg.fixed_fraction) for _ in range(count)]
        # First reachable slot leaves an hour for the morning leg.
        cursor = DAY_START + 60 + int(rng.integers(0, 46))
        specs = []
        overfull = False
        for dur, fixed in zip(durations, is_fixed):
            if fixed:
                start = cursor + int(rng.integers(0, 20))
                if start + dur > DAY_END - 30:
                    overfull = True
                    break
                specs.append((NodeKind.FIXED, offset + start, dur))
                cursor = start + dur + 25 + int(rng.integers(0, 31))
            else:
                specs.append((NodeKind.FLEXIBLE, None, dur))
        if overfull:
            continue
        nodes = []
        for kind, start, dur in specs:
            if kind is NodeKind.FIXED:
                nodes.append(
                    EventNode(
                        id=next_id + len(nodes),
                        kind=kind,
                        a_min=float(start),
                        a_max=float(start + dur),
                        duration=float(dur),
                        fixed_arrival=float(start),
                    )
                )
            else:
                nodes.append(
                    EventNode(
                        id=next_id + len(nodes),
                        kind=kind,
                        a_min=float(offset + DAY_START),
                        a_max=float(offset + DAY_END),
                        duration=float(dur),
                    )
                )
        return nodes
    raise _RedrawInstance


def _attach_charging(rng, cfg: GenConfig, node: EventNode) -> EventNode:
    if rng.random() >= cfg.station_probability:
        return node
    picked = preselect_station(_draw_stations(rng, cfg), cfg)
    if picked is None:
        return node
    return replace(node, charging=_option_from_station(picked[1], node.duration))


def _draw_instance(rng, cfg: GenConfig) -> Instance:
    days = int(rng.integers(1, cfg.max_days + 1))
    if cfg.event_count is not None:
        n_events = cfg.event_count
        days = max(days, math.ceil(n_events / MAX_EVENTS_PER_DAY))
        if days > cfg.max_days:
            raise GenerationFailedError(
                f"{n_events} events exceed the capacity of {cfg.max_days} days"
            )
    else:
        cap = min(cfg.max_events, days * MAX_EVENTS_PER_DAY)
        n_events = int(rng.integers(1, cap + 1))
    per_day = [n_events // days] * days
    for d in range(n_events % days):
        per_day[d] += 1

    nodes: list[EventNode] = [
        EventNode(0, NodeKind.START, float(DAY_START), float(DAY_END), 0.0)
    ]
    home = rng.uniform(0.0, cfg.area_km, 2)
    coords = [home]
    separators = []
    for day in range(days):
        center = rng.uniform(0.1 * cfg.area_km, 0.9 * cfg.area_km, 2)
        day_nodes = _draw_day_events(rng, cfg, day, per_day[day], len(nodes))
        for nd in day_nodes:
            nd = _attach_charging(rng, cfg, nd)
            nodes.append(nd)
            coords.append(np.clip(center + rng.uniform(-5.0, 5.0, 2), 0.0, cfg.area_km))
        offset = day * DAY_MINUTES
        sep = EventNode(
            id=len(nodes),
            kind=NodeKind.SEPARATOR,
            a_min=float(offset + SEPARATOR_EARLIEST),
            a_max=float(offset + DAY_MINUTES + DAY_START),
            duration=float(DAY_MINUTES + DAY_START - DAY_END),
        )
        if rng.random() < cfg.station_probability:
            wallbox = StationCandidate(11.0, 0.0, 1)
            sep = replace(sep, charging=_option_from_station(wallbox, sep.duration))
        separators.append(sep.id)
        nodes.append(sep)
        coords.append(home)
    nodes.append(
        EventNode(
            id=len(nodes),
            kind=NodeKind.END,
            a_min=0.0,
            a_max=float((days + 1) * DAY_MINUTES),
            duration=0.0,
        )
    )
    coords.append(home)

    n = len(nodes)
    pts = np.vstack(coords)
    diff = pts[:, None, :] - pts[None, :, :]
    eucl = np.sqrt((diff * diff).sum(axis=2))
    factors = rng.uniform(cfg.noise[0], cfg.noise[1], (n, n))
    dist = np.round(eucl * factors, 6)
    np.fill_diagonal(dist, 0.0)
    travel = np.round(dist / cfg.speed_kmh * 60.0, 6)

    k_max = float(rng.integers(150, 401))
    k_start = round(float(rng.uniform(0.3, 0.8)) * k_max, 6)
    k_min = round(MIN_RESERVE_FRACTION * k_max, 6)

    return Instance(
        nodes=tuple(nodes),
        dist=dist,
        travel=travel,
        k_min=k_min,
        k_max=k_max,
        k_start=k_start,
        separators=tuple(separators),
        weights=Weights(*DEFAULT_PREFS, prefs=DEFAULT_PREFS),
        epsilon=DEFAULT_EPSILON,
    )


def generate(cfg: GenConfig) -> Instance:
    """Deterministic instance synthesis for one seed.

    Re-draws until the best-fit-decreasing construction finds a feasible
    schedule, which also certifies that at least one feasible schedule
    exists, then normalizes the default preference triple into weights.
    Raises :class:`~evroute.errors.GenerationFailedError` after a bounded
    number of attempts.
    """
    from .core import normalize_weights

    rng = np.random.default_rng(cfg.seed)
    for _ in range(_MAX_INSTANCE_DRAWS):
        try:
            inst = _draw_instance(rng, cfg)
        except _RedrawInstance:
            continue
        try:
            weights = normalize_weights(inst, DEFAULT_PREFS)
        except NoInitialSolutionError:
            continue
        return replace(inst, weights=weights)
    raise GenerationFailedError(
        f"no feasible instance for seed {cfg.seed} within {_MAX_INSTANCE_DRAWS} draws"
    )


def _require_int_minutes(value: float, what: str) -> int:
    if not float(value).is_integer():
        raise ValueError(f"{what} must be whole minutes to serialize, got {value}")
    return int(value)


def _node_to_json(node: EventNode) -> dict:
    charging = None
    if node.charging is not None:
        c = node.charging
        charging = {
            "walk_time": c.walk_time,
            "rate": c.rate,
            "max_gain": c.max_gain,
            "station": None
            if c.station is None
            else {
                "power_kw": c.station.power_kw,
                "walk_meters": c.station.walk_meters,
                "plug_count": c.station.plug_count,
            },
        }
    return {
        "id": node.id,
        "kind": node.kind.value,
        "a_min": _require_int_minutes(node.a_min, f"node {node.id} a_min"),
        "a_max": _require_int_minutes(node.a_max, f"node {node.id} a_max"),
        "duration": _require_int_minutes(node.duration, f"node {node.id} duration"),
        "fixed_arrival": None
        if node.fixed_arrival is None
        else _require_int_minutes(node.fixed_arrival, f"node {node.id} fixed_arrival"),
        "charging": charging,
    }


def save(inst: Instance, path) -> None:
    """Write an instance as versioned JSON (UTF-8, row-major matrices)."""
    doc = {
        "version": FORMAT_VERSION,
        "k_min": inst.k_min,
        "k_max": inst.k_max,
        "k_start": inst.k_start,
        "epsilon": inst.epsilon,
        "separators": list(inst.separators),
        "weights": {
            "wd": inst.weights.wd,
            "wt": inst.weights.wt,
            "wc": inst.weights.wc,
            "prefs": list(inst.weights.prefs),
            "bounds": [list(b) for b in inst.weights.bounds],
        },
        "nodes": [_node_to_json(nd) for nd in inst.nodes],
        "dist": inst.dist.tolist(),
        "travel": inst.travel.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _node_from_json(obj: dict) -> EventNode:
    charging = None
    if obj.get("charging") is not None:
        c = obj["charging"]
        station = None
        if c.get("station") is not None:
            s = c["station"]
            station = StationMeta(_number(s["power_kw"]), _number(s["walk_meters"]), _integer(s["plug_count"]))
        charging = ChargingOption(
            walk_time=_number(c["walk_time"]),
            rate=_number(c["rate"]),
            max_gain=_number(c["max_gain"]),
            station=station,
        )
    fixed = obj.get("fixed_arrival")
    return EventNode(
        id=_integer(obj["id"]),
        kind=NodeKind(obj["kind"]),
        a_min=_number(obj["a_min"]),
        a_max=_number(obj["a_max"]),
        duration=_number(obj["duration"]),
        fixed_arrival=None if fixed is None else _number(fixed),
        charging=charging,
    )


def _number(x) -> float:
    """A JSON number as a float; a string or a boolean is never converted."""
    if type(x) is not float and type(x) is not int:
        raise TypeError(f"expected a JSON number, got {x!r}")
    return float(x)


def _integer(x) -> int:
    """A JSON integer; a fraction, a string or a boolean is never converted."""
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {x!r}")
    return x


def _matrix(rows) -> np.ndarray:
    if not {type(x) for row in rows for x in row} <= {float, int}:
        raise TypeError("expected a matrix of JSON numbers")
    return np.asarray(rows, dtype=float)


def _reject_constant(token: str):
    raise InstanceFormatError(f"non-finite number {token} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise InstanceFormatError(f"number literal {literal} overflows to infinity")
    return value


def load(path) -> Instance:
    """Read an instance file written by :func:`save`.

    Malformed JSON raises :class:`InstanceFormatError` with the failing
    offset; an unknown version raises :class:`UnsupportedVersionError`;
    schema or invariant problems (a string or a boolean for a number, a
    fraction for an integer included), ``NaN``/``Infinity`` tokens and number
    literals too large for a float raise :class:`InstanceFormatError`.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"invalid JSON: {e.msg} at offset {e.pos}", offset=e.pos) from e
    except ValueError as e:  # an integer literal beyond the interpreter's digit limit
        raise InstanceFormatError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level value must be an object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported instance format version {version!r}")
    try:
        w = doc["weights"]
        weights = Weights(
            _number(w["wd"]),
            _number(w["wt"]),
            _number(w["wc"]),
            prefs=tuple(_number(p) for p in w["prefs"]),
            bounds=tuple(tuple(_number(x) for x in b) for b in w["bounds"]),
        )
        return Instance(
            nodes=tuple(_node_from_json(nd) for nd in doc["nodes"]),
            dist=_matrix(doc["dist"]),
            travel=_matrix(doc["travel"]),
            k_min=_number(doc["k_min"]),
            k_max=_number(doc["k_max"]),
            k_start=_number(doc["k_start"]),
            separators=tuple(_integer(s) for s in doc["separators"]),
            weights=weights,
            epsilon=_number(doc["epsilon"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise InstanceFormatError(f"invalid instance content: {e}") from e
