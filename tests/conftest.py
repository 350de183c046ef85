import numpy as np
import pytest

from evroute import (
    ChargingOption,
    EventNode,
    GenConfig,
    Instance,
    NodeKind,
    Weights,
    generate,
)

# Canonical small instance used by the recorded reference values.
SEED42_CFG = GenConfig(seed=42, event_count=6, max_days=1)

# Values recorded from the exhaustive oracle on the canonical instance
# before the solvers were built; regression-pinned here.
SEED42_ORACLE_OBJECTIVE = 0.85102509261808
SEED42_ORACLE_ORDER = (0, 5, 2, 3, 4, 1, 6, 7, 8)
SEED42_WEIGHTED_OBJECTIVE = 4.949628668367042  # prefs (0.5, 0.3, 0.2), epsilon 0.01
SEED42_BOUNDS = ((12.340726, 42.723389), (18.511089, 425.017326), (-152.0, -7.6))


@pytest.fixture(scope="session")
def seed42():
    return generate(SEED42_CFG)


def wide_node(i, kind=NodeKind.FLEXIBLE, duration=0.0, a_min=0.0, a_max=100000.0, **kw):
    return EventNode(id=i, kind=kind, a_min=a_min, a_max=a_max, duration=duration, **kw)


def two_node_instance(d01=10.0, weights=Weights(1.0, 0.0, 0.0), epsilon=0.0, **kw):
    """Start and end only, one edge."""
    nodes = (
        wide_node(0, NodeKind.START),
        wide_node(1, NodeKind.END),
    )
    dist = np.array([[0.0, d01], [d01, 0.0]])
    defaults = dict(k_min=0.0, k_max=1000.0, k_start=1000.0)
    defaults.update(kw)
    return Instance(
        nodes=nodes,
        dist=dist,
        travel=dist / 40.0 * 60.0,
        separators=(),
        weights=weights,
        epsilon=epsilon,
        **defaults,
    )


def no_start_instance():
    """A flexible event that fits before no fixed event: BFD finds no start."""
    nodes = (
        wide_node(0, NodeKind.START, a_min=0.0, a_max=100.0),
        EventNode(1, NodeKind.FLEXIBLE, a_min=0.0, a_max=50.0, duration=50.0),
        EventNode(2, NodeKind.FIXED, a_min=0.0, a_max=60.0, duration=60.0, fixed_arrival=0.0),
        wide_node(3, NodeKind.END),
    )
    dist = np.zeros((4, 4))
    return Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=10.0, k_start=10.0)


def line_instance(n_flexible, durations=None, dist=None, travel=None, charging=None, **kw):
    """Start, a run of flexible events, end; wide windows, generous battery."""
    count = n_flexible + 2
    durations = durations or [30.0] * n_flexible
    nodes = [wide_node(0, NodeKind.START)]
    for i in range(n_flexible):
        opt = None if charging is None else charging.get(i + 1)
        nodes.append(wide_node(i + 1, NodeKind.FLEXIBLE, duration=durations[i], charging=opt))
    nodes.append(wide_node(count - 1, NodeKind.END))
    if dist is None:
        dist = np.full((count, count), 10.0)
        np.fill_diagonal(dist, 0.0)
    dist = np.asarray(dist, dtype=float)
    if travel is None:
        travel = dist / 40.0 * 60.0
    defaults = dict(k_min=0.0, k_max=1000.0, k_start=1000.0)
    defaults.update(kw)
    return Instance(
        nodes=tuple(nodes),
        dist=dist,
        travel=np.asarray(travel, dtype=float),
        separators=(),
        weights=Weights(1.0, 0.0, 0.0),
        epsilon=0.0,
        **defaults,
    )


def small_ensemble(count, events=(3, 4, 5), max_days=1, start_seed=1):
    """Generated instances cycling through the given event counts."""
    out = []
    for i in range(count):
        seed = start_seed + i
        out.append(generate(GenConfig(seed=seed, event_count=events[i % len(events)], max_days=max_days)))
    return out


def option(walk_time=0.0, rate=1.0, max_gain=100.0):
    return ChargingOption(walk_time=walk_time, rate=rate, max_gain=max_gain)
