"""Self-test of the benchmark's checker.

    python3 evbench/test_checker.py        (or: python3 -m pytest evbench/test_checker.py)

A feasible schedule must pass; one corrupted copy per constraint family
must be flagged under that family; a schedule priced over an edge whose
distance is NaN must be rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from checker import FAMILIES, check
from env import import_evroute

ev = import_evroute()


def _base():
    """A three-day instance (two or more separators) and its BFD schedule."""
    inst = ev.generate(ev.GenConfig(seed=11, event_count=14, max_days=3))
    assert len(inst.separators) >= 2
    return inst, ev.bfd_initial(inst)


def _set(vec, u, value):
    out = list(vec)
    out[u] = value
    return tuple(out)


def _first(inst, s, kind):
    """First node of ``kind`` along the order."""
    return next(u for u in s.order if inst.nodes[u].kind.value == kind)


def corruptions(inst, s):
    """One corrupted schedule per constraint family."""
    last = inst.n - 1
    order = list(s.order)
    flex = _first(inst, s, "flexible")
    fixed = _first(inst, s, "fixed")
    sep = inst.separators[0]
    mid = order[len(order) // 2]
    chargeable = next(u for u in order[:-1] if inst.nodes[u].charging is not None)
    no_station = next(u for u in order[1:-1] if inst.nodes[u].charging is None)
    a, b = (order.index(u) for u in inst.separators[:2])
    swapped = list(order)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    cap = inst.nodes[chargeable].charging.max_gain
    before_end = order[-2]
    nb = inst.nodes[before_end]
    leave = nb.a_max if nb.kind.value == "separator" else s.arrival[before_end] + nb.duration
    return {
        "finite": replace(s, ranges=_set(s.ranges, mid, math.inf)),
        "route": replace(s, order=tuple(order[:-2] + order[-1:])),
        "separatorDays": replace(s, order=tuple(swapped)),
        "chargeFlag": replace(s, charge=_set(s.charge, no_station, 1)),
        "window": replace(s, arrival=_set(s.arrival, flex, inst.nodes[flex].a_max)),
        "pin": replace(s, arrival=_set(s.arrival, fixed, s.arrival[fixed] + 5.0)),
        "separatorWindow": replace(s, arrival=_set(s.arrival, sep, inst.nodes[sep].a_max)),
        "timeChain": replace(s, arrival=_set(s.arrival, last, leave + inst.travel[before_end][last] - 1.0)),
        "startRange": replace(s, ranges=_set(s.ranges, 0, s.ranges[0] + 1.0)),
        "rangeChain": replace(s, ranges=_set(s.ranges, mid, s.ranges[mid] + 1.0)),
        "reserve": replace(s, ranges=_set(s.ranges, mid, inst.k_min - 1.0)),
        "gainCap": replace(s, charge=_set(s.charge, chargeable, 1), gain=_set(s.gain, chargeable, cap + 1.0)),
        "capacity": replace(s, charge=_set(s.charge, chargeable, 1), gain=_set(s.gain, chargeable, inst.k_max)),
        "endCharge": replace(s, gain=_set(s.gain, last, 1.0)),
        "objective": replace(s, objective=s.objective + 1e-6),
    }


def test_feasible_schedules_pass():
    inst, s = _base()
    assert check(s, inst) == []
    small = ev.generate(ev.GenConfig(seed=42, event_count=6, max_days=1))
    assert check(ev.oracle(small), small) == []


def test_each_family_is_flagged():
    inst, s = _base()
    cases = corruptions(inst, s)
    assert set(cases) == set(FAMILIES)
    for family, bad in cases.items():
        flagged = {f for f, _ in check(bad, inst)}
        assert family in flagged, (family, flagged)


def test_nan_distance_on_a_used_edge_is_rejected():
    # core.validate returns [] for this schedule: every NaN comparison is false.
    inst = ev.generate(ev.GenConfig(seed=42, event_count=6, max_days=1))
    o = ev.bfd_initial(inst).order
    dist = np.array(inst.dist)
    dist[o[1], o[2]] = math.nan
    broken = replace(inst, dist=dist)
    s = ev.bfd_initial(broken)
    assert math.isnan(s.objective)
    flagged = {f for f, _ in check(s, broken)}
    assert "finite" in flagged, flagged


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
    sys.exit(0)
