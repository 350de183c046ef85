"""Watch the greedy charging planner repair a battery deficit, and the
validator flag a corrupted schedule.

Run:  python3 demos/03_charging_planner.py
"""

from dataclasses import replace

import numpy as np

from evroute import (
    ChargingOption,
    EventNode,
    Instance,
    NodeKind,
    Weights,
    assemble_schedule,
    plan_charging,
    validate,
)

# Start -> two errands -> destination, 205 km of driving on a 205 km battery
# that starts full minus nothing to spare.  Both errands have a charger:
# A gains up to 80 km for a 10 minute walk, B 30 km for a 2 minute walk.
wide = dict(a_min=0.0, a_max=100000.0)
nodes = (
    EventNode(0, NodeKind.START, duration=0.0, **wide),
    EventNode(1, NodeKind.FLEXIBLE, duration=60.0, **wide,
              charging=ChargingOption(walk_time=10.0, rate=2.0, max_gain=80.0)),
    EventNode(2, NodeKind.FLEXIBLE, duration=30.0, **wide,
              charging=ChargingOption(walk_time=2.0, rate=1.0, max_gain=30.0)),
    EventNode(3, NodeKind.END, duration=0.0, **wide),
)
dist = np.array(
    [
        [0.0, 10.0, 10.0, 200.0],
        [10.0, 0.0, 10.0, 200.0],
        [10.0, 10.0, 0.0, 200.0],
        [200.0, 200.0, 200.0, 0.0],
    ]
)
inst = Instance(
    nodes=nodes, dist=dist, travel=dist * 1.5, k_min=0.0, k_max=1000.0,
    k_start=205.0, weights=Weights(1.0, 0.0, 0.0), epsilon=0.001,
)
order = (0, 1, 2, 3)

# Without stops every edge just consumes its distance.
ranges = [inst.k_start]
for u, v in zip(order, order[1:]):
    ranges.append(ranges[-1] - float(dist[u, v]))
deficit = next(u for u, r in zip(order, ranges) if r < inst.k_min)
print(f"uncharged ranges {ranges} -> first deficit at node {deficit}")

# The planner ranks achievable gain against walking time: 30/(2*2+0.1)
# beats 80/(2*10+0.1), so the short-walk station goes first.
charge, gains = plan_charging(order, inst)
print(f"planned stops {charge}, gains {gains}")

sched = assemble_schedule(order, inst)
print(f"assembled objective {sched.objective:.6f}; violations: {validate(sched, inst)}")

# Corrupt the battery bookkeeping and the validator pinpoints it.
broken = replace(sched, ranges=tuple(r - 50.0 for r in sched.ranges))
print()
print("after corrupting the range chain:")
for v in validate(broken, inst):
    print(f"  {v.constraint_id.value:<12} {v.location:<12} magnitude {v.magnitude:.3f}")
