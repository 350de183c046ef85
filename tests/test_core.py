import math
from dataclasses import replace

import numpy as np
import pytest

from evroute import (
    ChargingOption,
    ConstraintId,
    EventNode,
    GenConfig,
    Instance,
    NodeKind,
    Schedule,
    Weights,
    assemble_schedule,
    bfd_initial,
    evaluate_objective,
    generate,
    normalize_weights,
    objective_lower_bound,
    oracle,
    separator_ref,
    validate,
)
from evroute.errors import NoInitialSolutionError

from conftest import (
    SEED42_BOUNDS,
    SEED42_WEIGHTED_OBJECTIVE,
    two_node_instance,
    wide_node,
)
from helpers import _reference_ranges, day_delay_sum, route_distance


def make_schedule(inst, order, arrival=None, charge=None, gain=None, ranges=None, objective=0.0):
    n = inst.n
    return Schedule(
        order=tuple(order),
        arrival=tuple(arrival if arrival is not None else [0.0] * n),
        charge=tuple(charge if charge is not None else [0] * n),
        gain=tuple(gain if gain is not None else [0.0] * n),
        ranges=tuple(ranges if ranges is not None else [inst.k_start] * n),
        objective=objective,
    )


class TestEvaluateObjective:
    def test_distance_only(self):
        inst = two_node_instance(d01=10.0, weights=Weights(1.0, 0.0, 0.0))
        s = assemble_schedule((0, 1), inst)
        assert evaluate_objective(s, inst) == pytest.approx(10.0, abs=1e-12)

    def test_end_range_only(self):
        inst = two_node_instance(d01=10.0, weights=Weights(0.0, 0.0, 1.0), k_start=60.0, k_max=60.0)
        s = assemble_schedule((0, 1), inst)
        assert s.ranges[1] == pytest.approx(50.0)
        assert evaluate_objective(s, inst) == pytest.approx(-50.0, abs=1e-12)

    def test_seed42_weighted_optimum_matches_recorded_oracle_value(self, seed42):
        inst = replace(
            seed42, weights=normalize_weights(seed42, (0.5, 0.3, 0.2)), epsilon=0.01
        )
        best = oracle(inst)
        assert best.objective == pytest.approx(SEED42_WEIGHTED_OBJECTIVE, abs=1e-9)
        assert evaluate_objective(best, inst) == pytest.approx(SEED42_WEIGHTED_OBJECTIVE, abs=1e-12)

    def test_dimension_mismatch_rejected(self, seed42):
        inst = two_node_instance()
        s = assemble_schedule((0, 1), inst)
        with pytest.raises(ValueError):
            evaluate_objective(s, seed42)


class TestSeparatorRef:
    def test_first_separator_uses_route_start(self, seed42):
        s = assemble_schedule(bfd_initial(seed42).order, seed42)
        u = seed42.separators[0]
        assert separator_ref(u, s, seed42) == s.arrival[0]

    def test_later_separator_uses_previous_latest_departure(self):
        inst = generate(GenConfig(seed=3, event_count=4, max_days=3))
        assert len(inst.separators) >= 2
        s = bfd_initial(inst)
        u = inst.separators[1]
        prev = inst.separators[0]
        assert separator_ref(u, s, inst) == inst.nodes[prev].a_max

    def test_non_separator_rejected(self, seed42):
        s = bfd_initial(seed42)
        with pytest.raises(ValueError):
            separator_ref(0, s, seed42)

    def test_empty_separator_set_skips_day_sum(self):
        inst = two_node_instance(weights=Weights(0.0, 1.0, 0.0))
        s = assemble_schedule((0, 1), inst)
        # no separators: the day-length summand is empty
        assert evaluate_objective(s, inst) == pytest.approx(0.0, abs=1e-12)


class TestValidate:
    def test_oracle_schedule_is_clean(self, seed42):
        assert validate(oracle(seed42), seed42) == []

    def test_duplicate_visit_is_flow_violation(self, seed42):
        s = assemble_schedule(bfd_initial(seed42).order, seed42)
        order = list(s.order)
        order[3] = order[1]  # non-adjacent duplicate
        bad = replace(s, order=tuple(order))
        ids = {v.constraint_id for v in validate(bad, seed42)}
        assert ConstraintId.FLOW in ids

    def test_min_range_magnitude(self, seed42):
        s = assemble_schedule(bfd_initial(seed42).order, seed42)
        ranges = list(s.ranges)
        victim = s.order[2]
        ranges[victim] = seed42.k_min - 1.0
        bad = replace(s, ranges=tuple(ranges))
        hits = [v for v in validate(bad, seed42) if v.constraint_id is ConstraintId.MIN_RANGE]
        assert len(hits) == 1
        assert hits[0].magnitude == pytest.approx(1.0, abs=1e-9)

    def test_nan_distance_on_used_edge_is_reported(self, seed42):
        # A NaN edge makes every later range NaN; each NaN comparison is
        # false, so a validator written as "x > bound" would pass it.
        o = bfd_initial(seed42).order
        d = seed42.dist.copy()
        d[o[1], o[2]] = math.nan
        inst = replace(seed42, dist=d)
        s = bfd_initial(inst)
        assert math.isnan(s.objective)
        found = validate(s, inst)
        assert found
        domain = {v.location for v in found if v.constraint_id is ConstraintId.DOMAIN}
        assert f"edge {o[1]}->{o[2]}" in domain
        assert f"node {o[2]}" in domain

    def test_non_finite_schedule_entries_are_domain_violations(self, seed42):
        s = assemble_schedule(bfd_initial(seed42).order, seed42)
        u = s.order[2]
        for field in ("arrival", "gain", "ranges"):
            for x in (math.nan, math.inf):
                values = list(getattr(s, field))
                values[u] = x
                found = validate(replace(s, **{field: tuple(values)}), seed42)
                assert any(
                    v.constraint_id is ConstraintId.DOMAIN and v.location == f"node {u}" for v in found
                ), (field, x)

    def test_wrong_objective_is_reported(self, seed42):
        s = assemble_schedule(bfd_initial(seed42).order, seed42)
        assert validate(replace(s, objective=s.objective * (1 + 1e-12)), seed42) == []
        for wrong in (s.objective - 1.0, s.objective * (1 + 1e-6), math.nan):
            found = validate(replace(s, objective=wrong), seed42)
            assert [v.constraint_id for v in found] == [ConstraintId.OBJECTIVE], wrong

    def test_objective_is_checked_under_the_instance_weights(self, seed42):
        weighted = replace(seed42, weights=normalize_weights(seed42, (0.2, 0.3, 0.5)))
        s = assemble_schedule(bfd_initial(seed42).order, weighted)
        assert validate(s, weighted) == []
        found = validate(s, seed42)
        assert [v.constraint_id for v in found] == [ConstraintId.OBJECTIVE]


class TestFiniteInput:
    @pytest.mark.parametrize("field", ["a_min", "a_max", "duration", "fixed_arrival"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_event_node_rejects_non_finite(self, field, x):
        kw = dict(id=1, kind=NodeKind.FIXED, a_min=0.0, a_max=100.0, duration=10.0, fixed_arrival=5.0)
        kw[field] = x
        with pytest.raises(ValueError, match="finite"):
            EventNode(**kw)

    @pytest.mark.parametrize("field", ["walk_time", "rate", "max_gain"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_charging_option_rejects_non_finite(self, field, x):
        kw = dict(walk_time=1.0, rate=1.0, max_gain=10.0)
        kw[field] = x
        with pytest.raises(ValueError, match="finite"):
            ChargingOption(**kw)


    @pytest.mark.parametrize("field", ["wd", "wt", "wc", "prefs", "bounds"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_weights_reject_non_finite(self, field, x):
        kw = dict(wd=1.0, wt=0.0, wc=0.0)
        if field == "prefs":
            kw["prefs"] = (x, 0.0, 0.0)
        elif field == "bounds":
            kw["bounds"] = ((0.0, x), (0.0, 1.0), (-1.0, 0.0))
        else:
            kw[field] = x
        with pytest.raises(ValueError, match="finite"):
            Weights(**kw)

    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"prefs": (1.0,)}, "prefs"),
            ({"prefs": (1.0, 0.0, 0.0, 0.0)}, "prefs"),
            ({"bounds": ((0.0, 1.0), (0.0, 1.0), ())}, "bounds"),
            ({"bounds": ((0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0))}, "bounds"),
            ({"bounds": ((0.0, 1.0), (0.0, 1.0))}, "bounds"),
        ],
        ids=["one-pref", "four-prefs", "empty-bound", "three-value-bound", "two-bounds"],
    )
    def test_weights_reject_badly_shaped_prefs_and_bounds(self, kw, match):
        with pytest.raises(ValueError, match=match):
            Weights(1.0, 0.0, 0.0, **kw)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_normalize_weights_rejects_non_finite_prefs(self, seed42, x):
        with pytest.raises(ValueError, match="finite"):
            normalize_weights(seed42, (x, 1.0, 1.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
    def test_instance_rejects_a_bad_epsilon(self, seed42, x):
        with pytest.raises(ValueError, match="epsilon"):
            replace(seed42, epsilon=x)

    @pytest.mark.parametrize("bounds", [
        {"k_max": math.inf},
        {"k_max": math.inf, "k_start": math.inf},
        {"k_max": math.inf, "k_start": math.inf, "k_min": math.inf},
    ])
    def test_instance_rejects_infinite_battery_bounds(self, seed42, bounds):
        with pytest.raises(ValueError, match="battery bounds"):
            replace(seed42, **bounds)

    @pytest.mark.parametrize("matrix", ["dist", "travel"])
    def test_instance_rejects_infinite_matrix_entries(self, seed42, matrix):
        mat = getattr(seed42, matrix).copy()
        mat[0, 1] = math.inf
        with pytest.raises(ValueError, match=f"{matrix} entries"):
            replace(seed42, **{matrix: mat})


class TestNormalizeWeights:
    def test_single_preference_formula(self):
        # distance spread is exactly 100 - 40 = 60 by construction
        nodes = (
            wide_node(0, NodeKind.START),
            wide_node(1, NodeKind.FLEXIBLE, duration=10.0),
            wide_node(2, NodeKind.END),
        )
        dist = np.array([[0.0, 60.0, 20.0], [20.0, 0.0, 40.0], [9.0, 9.0, 0.0]])
        inst = Instance(
            nodes=nodes,
            dist=dist,
            travel=dist,
            k_min=0.0,
            k_max=1000.0,
            k_start=1000.0,
            weights=Weights(1.0, 0.0, 0.0),
            epsilon=0.0,
        )
        w = normalize_weights(inst, (1.0, 0.0, 0.0))
        assert w.bounds[0] == (40.0, 100.0)
        assert w.wd == pytest.approx(1.0 / 60.0, abs=1e-15)
        assert w.wt == 0.0 and w.wc == 0.0

    def test_degenerate_bounds_stay_finite(self):
        inst = two_node_instance(d01=10.0)
        w = normalize_weights(inst, (1.0, 0.0, 0.0))
        # sole node's shortest exit equals the route itself
        assert w.bounds[0][0] == w.bounds[0][1]
        assert math.isfinite(w.wd) and w.wd == pytest.approx(1.0 / 1e-9)

    def test_seed42_bounds_match_independent_recomputation(self, seed42):
        w = normalize_weights(seed42, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
        assert w.bounds == SEED42_BOUNDS
        # independent recomputation of the upper estimates from the BFD run
        b = bfd_initial(replace(seed42, weights=w))
        assert route_distance(b, seed42) == pytest.approx(w.bounds[0][1], abs=1e-9)
        assert day_delay_sum(b, seed42) == pytest.approx(w.bounds[1][1], abs=1e-9)
        lower_d = sum(
            min(seed42.dist[u, v] for v in range(seed42.n) if v != u)
            for u in range(seed42.n - 1)
        )
        assert w.bounds[0][0] == pytest.approx(lower_d, abs=1e-9)
        assert w.bounds[2] == (-seed42.k_max, -seed42.k_min)

    def test_invalid_prefs_rejected(self, seed42):
        with pytest.raises(ValueError):
            normalize_weights(seed42, (0.5, 0.5, 0.5))

    def test_infeasible_instance_raises_no_initial_solution(self):
        nodes = (
            wide_node(0, NodeKind.START, a_min=0.0, a_max=10.0),
            EventNode(1, NodeKind.FIXED, a_min=5.0, a_max=15.0, duration=10.0, fixed_arrival=5.0),
            EventNode(2, NodeKind.FIXED, a_min=5.0, a_max=15.0, duration=10.0, fixed_arrival=5.0),
            wide_node(3, NodeKind.END),
        )
        dist = np.zeros((4, 4))
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=10.0, k_start=10.0)
        with pytest.raises(NoInitialSolutionError):
            normalize_weights(inst, (1.0, 0.0, 0.0))


class TestProperties:
    def test_derived_edge_degrees(self):
        # derived x has out-degree 1 except the end node, in-degree 1 except the start
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            perm = [0] + list(rng.permutation(range(1, n - 1))) + [n - 1]
            x = np.zeros((n, n), dtype=int)
            for a, b in zip(perm, perm[1:]):
                x[a, b] = 1
            out_deg = x.sum(axis=1)
            in_deg = x.sum(axis=0)
            assert out_deg[n - 1] == 0 and (out_deg[: n - 1] == 1).all()
            assert in_deg[0] == 0 and (in_deg[1:] == 1).all()

    def test_objective_monotone_in_separator_arrivals_and_end_range(self, seed42):
        s = oracle(seed42)
        base = evaluate_objective(s, seed42)
        for u in seed42.separators:
            arrival = list(s.arrival)
            arrival[u] += 7.0
            assert evaluate_objective(replace(s, arrival=tuple(arrival)), seed42) >= base
        ranges = list(s.ranges)
        ranges[-1] += 5.0
        assert evaluate_objective(replace(s, ranges=tuple(ranges)), seed42) <= base

    def test_objective_monotone_in_start_when_epsilon_dominates(self, seed42):
        # The route-start coefficient is epsilon minus the day-length weight,
        # so monotonicity in the start time needs epsilon >= wt (or no
        # separators); with separators present and wt > epsilon the sign flips.
        s = oracle(seed42)
        w = seed42.weights
        inst_eps = replace(seed42, epsilon=w.wt + 1e-3)
        arrival = list(s.arrival)
        arrival[0] += 3.0
        bumped = replace(s, arrival=tuple(arrival))
        assert evaluate_objective(bumped, inst_eps) >= evaluate_objective(s, inst_eps)
        # and the documented flip when wt exceeds epsilon
        inst_flip = replace(seed42, epsilon=0.0)
        assert evaluate_objective(bumped, inst_flip) < evaluate_objective(s, inst_flip)

    def test_pref_rescaling_keeps_oracle_argmin(self, seed42):
        prefs = (0.6, 0.3, 0.1)
        scaled = tuple(p * 4.0 for p in prefs)
        renorm = tuple(p / sum(scaled) for p in scaled)
        w1 = normalize_weights(seed42, prefs)
        w2 = normalize_weights(seed42, renorm)
        assert oracle(replace(seed42, weights=w1)).order == oracle(replace(seed42, weights=w2)).order

    def test_extra_charge_never_lowers_later_ranges(self, seed42):
        s = oracle(seed42)
        charged = [u for u in s.order[:-1] if s.charge[u]]
        if not charged:
            pytest.skip("no charging stop in the optimal schedule")
        base_ranges, _ = _reference_ranges(s.order, s.gain, seed42)
        u = charged[0]
        gains = list(s.gain)
        headroom = seed42.k_max - (base_ranges[u] + gains[u])
        gains[u] += min(1.0, max(headroom, 0.0))
        bumped, _ = _reference_ranges(s.order, gains, seed42)
        pos = s.order.index(u)
        for later in s.order[pos + 1 :]:
            assert bumped[later] >= base_ranges[later] - 1e-9

    def test_assembled_fuzz_schedules_validate(self):
        from evroute import anchored_sequence

        rng = np.random.default_rng(7)
        checked = 0
        for seed in range(1, 13):
            inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
            anchored = list(anchored_sequence(inst))
            flex = [u for u in range(1, inst.n - 1) if u not in set(anchored)]
            for _ in range(12):
                order = list(anchored)
                for f in flex:
                    order.insert(int(rng.integers(0, len(order) + 1)), f)
                order = [0] + order + [inst.n - 1]
                s = assemble_schedule(order, inst)
                if s is not None:
                    assert validate(s, inst) == []
                    checked += 1
        assert checked >= 25  # the bulk planner/validator agreement run lives in test_schedule


def test_objective_lower_bound_is_sound(seed42):
    lb = objective_lower_bound(seed42.weights)
    assert oracle(seed42).objective >= lb
    b = bfd_initial(seed42)
    assert b.objective >= lb
