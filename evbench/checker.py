"""Feasibility and objective checker, written from the model as README states it.

It shares no code with ``evroute.core.validate``: a fault in the library's
validator cannot hide the same fault in a solver.  Every comparison is
written so that a NaN operand fails it, and every value a schedule depends
on must be finite.  ``check`` returns a list of ``(family, detail)`` pairs;
an empty list means the schedule is feasible and its reported objective is
the objective of its vectors.
"""

from __future__ import annotations

import math

TOL = 1e-6          # minutes and kilometres, as the model's validator uses
OBJECTIVE_TOL = 1e-9

FAMILIES = (
    "finite",
    "route",
    "separatorDays",
    "chargeFlag",
    "window",
    "pin",
    "separatorWindow",
    "timeChain",
    "startRange",
    "rangeChain",
    "reserve",
    "gainCap",
    "capacity",
    "endCharge",
    "objective",
)


def _le(a, b) -> bool:
    """a <= b within TOL; False when either side is NaN."""
    return a <= b + TOL


def check(s, inst) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []

    def bad(family: str, detail: str) -> None:
        out.append((family, detail))

    nodes = inst.nodes
    n = len(nodes)
    last = n - 1
    vectors = {"arrival": s.arrival, "charge": s.charge, "gain": s.gain, "ranges": s.ranges}
    for name, vec in vectors.items():
        if len(vec) != n:
            bad("route", f"{name} has {len(vec)} entries for {n} nodes")
            return out

    # The route: a permutation of all nodes from the start node to the end node.
    order = list(s.order)
    if sorted(order) != list(range(n)) or order[0] != 0 or order[-1] != last:
        bad("route", f"order {order} is not a start-to-end permutation of {n} nodes")
        return out
    pos = {u: i for i, u in enumerate(order)}
    if [pos[u] for u in inst.separators] != sorted(pos[u] for u in inst.separators):
        bad("separatorDays", "day separators visited out of day order")

    # Every number the schedule consists of or is priced from must be finite.
    for name in ("arrival", "gain", "ranges"):
        for u, x in enumerate(vectors[name]):
            if not math.isfinite(x):
                bad("finite", f"{name}[{u}] = {x}")
    if not math.isfinite(s.objective):
        bad("finite", f"objective = {s.objective}")
    for u, v in zip(order, order[1:]):
        for name, mat in (("dist", inst.dist), ("travel", inst.travel)):
            if not math.isfinite(float(mat[u][v])):
                bad("finite", f"{name}[{u}][{v}] on a used edge = {mat[u][v]}")

    def walk(u: int) -> float:
        opt = nodes[u].charging
        return opt.walk_time if s.charge[u] == 1 and opt is not None and u != last else 0.0

    def day_ref(u: int) -> float:
        """A day is measured from the route start (first day) or from the
        previous separator's latest departure."""
        k = inst.separators.index(u)
        return s.arrival[0] if k == 0 else nodes[inst.separators[k - 1]].a_max

    for u, node in enumerate(nodes):
        kind = node.kind.value
        flag = s.charge[u]
        if flag not in (0, 1):
            bad("chargeFlag", f"node {u}: flag {flag}")
            continue
        if flag and node.charging is None:
            bad("chargeFlag", f"node {u}: charges without a station")
        if u == last:
            if flag or not s.gain[u] == 0.0:
                bad("endCharge", f"end node charges (flag {flag}, gain {s.gain[u]})")
        else:
            cap = node.charging.max_gain if (flag and node.charging is not None) else 0.0
            if not (-TOL <= s.gain[u] and _le(s.gain[u], cap)):
                bad("gainCap", f"node {u}: gain {s.gain[u]} outside [0, {cap}]")
            if not _le(s.ranges[u] + s.gain[u], inst.k_max):
                bad("capacity", f"node {u}: {s.ranges[u]} + {s.gain[u]} above {inst.k_max}")
        if not _le(inst.k_min, s.ranges[u]):
            bad("reserve", f"node {u}: range {s.ranges[u]} below {inst.k_min}")

        w = walk(u)
        a = s.arrival[u]
        latest = node.a_max - node.duration - w
        if kind == "fixed":
            if not abs(a - (node.fixed_arrival - w)) <= TOL:
                bad("pin", f"node {u}: arrival {a}, pinned {node.fixed_arrival - w}")
        elif kind == "separator":
            if not (_le(day_ref(u) + w, a) and _le(a, latest)):
                bad("separatorWindow", f"node {u}: arrival {a} outside [{day_ref(u) + w}, {latest}]")
        elif not (_le(node.a_min - w, a) and _le(a, latest)):
            bad("window", f"node {u}: arrival {a} outside [{node.a_min - w}, {latest}]")
        if kind == "fixed" and not _le(a, latest):
            bad("window", f"node {u}: arrival {a} after {latest}")

    # Time chain: leave after the stay plus the walk to the charger and back
    # (a separator at its latest departure plus one walk), drive, then walk
    # from the car to the next event's charger.
    for u, v in zip(order, order[1:]):
        nu = nodes[u]
        if nu.kind.value == "separator":
            leave = nu.a_max + walk(u)
        else:
            leave = s.arrival[u] + nu.duration + 2.0 * walk(u)
        if not _le(leave + inst.travel[u][v] + walk(v), s.arrival[v]):
            bad("timeChain", f"edge {u}->{v}: ready {leave + inst.travel[u][v] + walk(v)}, arrival {s.arrival[v]}")

    # Range chain: charge before leaving, then every edge consumes its distance.
    if not abs(s.ranges[0] - inst.k_start) <= TOL:
        bad("startRange", f"start range {s.ranges[0]} != {inst.k_start}")
    for u, v in zip(order, order[1:]):
        expect = s.ranges[u] + s.gain[u] - inst.dist[u][v]
        if not abs(s.ranges[v] - expect) <= TOL:
            bad("rangeChain", f"edge {u}->{v}: range {s.ranges[v]}, propagated {expect}")

    w8 = inst.weights
    distance = sum(float(inst.dist[u][v]) for u, v in zip(order, order[1:]))
    day_lengths = sum(s.arrival[u] - day_ref(u) for u in inst.separators)
    stops = sum(s.charge[u] for u in range(last))
    recomputed = (
        w8.wd * distance
        + w8.wt * day_lengths
        - w8.wc * s.ranges[last]
        + inst.epsilon * (stops + s.arrival[0])
    )
    if not abs(recomputed - s.objective) <= OBJECTIVE_TOL * max(1.0, abs(recomputed)):
        bad("objective", f"reported {s.objective}, recomputed {recomputed}")
    return out
