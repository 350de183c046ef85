import itertools
from dataclasses import replace

import numpy as np
import pytest

from evroute import (
    EventNode,
    GenConfig,
    Instance,
    NodeKind,
    Weights,
    anchored_sequence,
    assemble_schedule,
    bfd_initial,
    generate,
    load,
    normalize_weights,
    oracle,
    plan_charging,
    propagate_times,
    save,
    validate,
    waiting_slack,
)
from evroute.errors import NoInitialSolutionError

from conftest import line_instance, no_start_instance, option, two_node_instance, wide_node
from evroute.schedule import _range_pass

from helpers import (
    _reference_ranges,
    brute_min_stop_count,
    grid_min_arrivals,
    lp_min_arrival,
    respects_anchor_order,
)


class TestPropagateTimes:
    def test_flexible_chain_telescopes(self):
        inst = line_instance(3, durations=[20.0, 30.0, 40.0], dist=np.zeros((5, 5)))
        t = propagate_times((0, 1, 2, 3, 4), [0] * 5, inst)
        assert t is not None
        assert t == (0.0, 0.0, 20.0, 50.0, 90.0)

    def test_fixed_arrival_shifts_for_charger_walk(self):
        nodes = (
            wide_node(0, NodeKind.START),
            EventNode(1, NodeKind.FIXED, a_min=0.0, a_max=1000.0, duration=30.0,
                      fixed_arrival=600.0, charging=option(walk_time=5.0)),
            wide_node(2, NodeKind.END),
        )
        dist = np.zeros((3, 3))
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=100.0, k_start=100.0)
        t = propagate_times((0, 1, 2), [0, 1, 0], inst)
        assert t is not None
        assert t[1] == pytest.approx(595.0, abs=1e-12)

    def test_seed42_oracle_arrivals_reproduced(self, seed42):
        best = oracle(seed42)
        t = propagate_times(best.order, best.charge, seed42)
        assert t is not None
        assert t == best.arrival

    def test_separator_departure_uses_latest_departure(self, seed42):
        s = bfd_initial(seed42)
        sep = seed42.separators[0]
        pos = s.order.index(sep)
        nxt = s.order[pos + 1]
        dep = seed42.nodes[sep].a_max + (
            seed42.nodes[sep].charging.walk_time if s.charge[sep] else 0.0
        )
        assert s.arrival[nxt] >= dep + seed42.travel[sep, nxt] - 1e-9

    def test_partial_orders_accepted(self, seed42):
        t = propagate_times((0, seed42.n - 1), [0] * seed42.n, seed42)
        assert t is not None

    def test_bad_endpoints_rejected(self, seed42):
        with pytest.raises(ValueError):
            propagate_times((1, 2), [0] * seed42.n, seed42)


class TestPropagateRanges:
    def test_subtraction_chain(self):
        inst = line_instance(1, dist=np.array([[0.0, 30.0, 99.0], [30.0, 0.0, 30.0], [99.0, 30.0, 0.0]]),
                             k_start=100.0, k_max=100.0)
        _, ranges, deficit = _range_pass((0, 1, 2), [0, 0, 0], inst)
        assert ranges == (100.0, 70.0, 40.0)
        assert deficit is None

    def test_charge_shifts_later_ranges_linearly(self):
        inst = line_instance(
            1,
            dist=np.array([[0.0, 30.0, 99.0], [30.0, 0.0, 30.0], [99.0, 30.0, 0.0]]),
            k_start=100.0,
            k_max=1000.0,
            charging={1: option(max_gain=50.0)},
        )
        gains, ranges, _ = _range_pass((0, 1, 2), [0, 1, 0], inst)
        assert gains == (0.0, 50.0, 0.0)
        assert ranges == (100.0, 70.0, 90.0)

    def test_capacity_caps_gain_at_charge_time(self):
        inst = line_instance(
            1,
            dist=np.array([[0.0, 10.0, 9.0], [10.0, 0.0, 20.0], [9.0, 20.0, 0.0]]),
            k_start=100.0,
            k_max=100.0,
            charging={1: option(max_gain=30.0)},
        )
        # arrival range at the middle node is 90; requested 30, headroom 10
        gains, ranges, deficit = _range_pass((0, 1, 2), [0, 1, 0], inst)
        assert gains[1] == pytest.approx(10.0)
        assert ranges[2] == pytest.approx(80.0)
        assert deficit is None

    def test_first_deficit_node_reported(self):
        inst = line_instance(1, dist=np.full((3, 3), 60.0) - np.diag([60.0] * 3),
                             k_start=100.0, k_max=100.0, k_min=10.0)
        _, _, deficit = _range_pass((0, 1, 2), [0] * 3, inst)
        assert deficit == 2


class TestPlanCharging:
    def test_no_stops_when_route_feasible_and_charge_unweighted(self, seed42):
        w = replace(seed42.weights, wc=0.0)
        inst = replace(seed42, k_start=seed42.k_max, k_max=seed42.k_max, weights=w)
        order = bfd_initial(inst).order
        charge, gains = plan_charging(order, inst)
        assert sum(charge) == 0 and sum(gains) == 0.0

    def test_ranking_prefers_gain_per_walk_minute(self):
        # candidates: A gains 80 for 10 min walk, B gains 30 for 2 min walk;
        # 30/4.1 beats 80/20.1, so B is picked first
        dist = np.array(
            [
                [0.0, 10.0, 10.0, 200.0],
                [10.0, 0.0, 10.0, 200.0],
                [10.0, 10.0, 0.0, 200.0],
                [200.0, 200.0, 200.0, 0.0],
            ]
        )
        inst = line_instance(
            2,
            dist=dist,
            k_start=205.0,
            k_max=1000.0,
            charging={1: option(walk_time=10.0, max_gain=80.0), 2: option(walk_time=2.0, max_gain=30.0)},
        )
        charge, gains = plan_charging((0, 1, 2, 3), inst)
        assert charge == (0, 0, 1, 0)
        assert gains[2] == pytest.approx(30.0)

    def test_no_candidate_before_deficit_is_infeasible(self):
        dist = np.array(
            [
                [0.0, 200.0, 10.0],
                [200.0, 0.0, 10.0],
                [10.0, 10.0, 0.0],
            ]
        )
        inst = line_instance(1, dist=dist, k_start=50.0, k_max=500.0,
                             charging={1: option(max_gain=400.0)})
        # the deficit appears on the first edge; the only charger sits beyond it
        assert plan_charging((0, 1, 2), inst) is None

    def test_stop_count_matches_enumeration_when_charge_unweighted(self):
        mismatches = []
        for seed in range(1, 31):
            inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
            from evroute import normalize_weights

            inst = replace(inst, weights=normalize_weights(inst, (0.5, 0.5, 0.0)))
            order = bfd_initial(inst).order
            planned = plan_charging(order, inst)
            assert planned is not None
            best = brute_min_stop_count(inst, order)
            if sum(planned[0][:-1]) != best:
                mismatches.append(seed)
        assert mismatches == []


class TestAssemble:
    def test_two_node_objective(self):
        inst = two_node_instance(d01=10.0, weights=Weights(1.0, 0.0, 0.0), epsilon=0.5)
        s = assemble_schedule((0, 1), inst)
        assert s.objective == pytest.approx(10.0 + 0.5 * s.arrival[0], abs=1e-12)

    def test_seed42_oracle_order_matches_oracle_value(self, seed42):
        best = oracle(seed42)
        s = assemble_schedule(best.order, seed42)
        assert s.objective == pytest.approx(best.objective, abs=1e-9)

    def test_fixed_window_violation_is_infeasible(self, seed42):
        fixed = [nd.id for nd in seed42.nodes if nd.kind is NodeKind.FIXED]
        assert len(fixed) >= 2
        order = list(bfd_initial(seed42).order)
        i, j = order.index(fixed[0]), order.index(fixed[1])
        order[i], order[j] = order[j], order[i]
        assert assemble_schedule(order, seed42) is None

    def test_thousand_random_orders_agree_with_validator(self):
        rng = np.random.default_rng(11)
        tested = feasible = 0
        for seed in range(1, 26):
            inst = generate(GenConfig(seed=seed, event_count=3 + seed % 4, max_days=2))
            anchored = list(anchored_sequence(inst))
            flex = [u for u in range(1, inst.n - 1) if u not in set(anchored)]
            for _ in range(42):
                order = list(anchored)
                for f in flex:
                    order.insert(int(rng.integers(0, len(order) + 1)), f)
                order = [0] + order + [inst.n - 1]
                tested += 1
                s = assemble_schedule(order, inst)
                if s is not None:
                    feasible += 1
                    assert validate(s, inst) == []
        assert tested >= 1000
        assert feasible >= 100


class TestBfdInitial:
    def test_without_flexible_events_order_is_chronological(self):
        inst = generate(GenConfig(seed=9, event_count=4, max_days=1, fixed_fraction=1.0))
        assert all(nd.kind is not NodeKind.FLEXIBLE for nd in inst.nodes)
        s = bfd_initial(inst)
        assert s.order == (0, *anchored_sequence(inst), inst.n - 1)

    def test_single_gap_insertion(self):
        inst = generate(GenConfig(seed=2, event_count=2, max_days=1, fixed_fraction=0.5))
        s = bfd_initial(inst)
        assert validate(s, inst) == []
        assert respects_anchor_order(s.order, inst)

    def test_seed7_matches_exhaustive_best_fit(self):
        # Three flexible events: replay the insertion sequence with a brute
        # search over positions and compare the chosen position each round.
        inst = generate(GenConfig(seed=7, event_count=3, max_days=1, fixed_fraction=0.0))
        flex = sorted(
            (nd for nd in inst.nodes[1:-1] if nd.kind is NodeKind.FLEXIBLE),
            key=lambda nd: (-nd.duration, nd.id),
        )
        assert len(flex) == 3
        order = [0, *anchored_sequence(inst), inst.n - 1]
        for nd in flex:
            scored = []
            for p in range(1, len(order)):
                cand = order[:p] + [nd.id] + order[p:]
                s = assemble_schedule(cand, inst)
                if s is not None:
                    scored.append((round(waiting_slack(s, inst), 9), p))
            assert scored, "event must fit somewhere"
            best_p = min(scored)[1]
            order = order[:best_p] + [nd.id] + order[best_p:]
        assert bfd_initial(inst).order == tuple(order)

    def test_unplaceable_flexible_event_raises(self):
        inst = no_start_instance()
        with pytest.raises(NoInitialSolutionError):
            bfd_initial(inst)
        # a failed build is not kept: the second request fails the same way
        with pytest.raises(NoInitialSolutionError):
            bfd_initial(inst)


class TestSharedStart:
    CFG = GenConfig(seed=5, event_count=8, max_days=2)

    def test_built_once_per_instance(self):
        inst = generate(self.CFG)
        assert bfd_initial(inst) is bfd_initial(inst)

    def test_replace_gets_its_own_start(self):
        inst = generate(self.CFG)
        bfd_initial(inst)
        w = normalize_weights(inst, (0.2, 0.3, 0.5))
        other = replace(inst, weights=w)
        cold = bfd_initial(replace(generate(self.CFG), weights=w))
        assert repr(bfd_initial(other)) == repr(cold)
        # the weights change the start's objective, so a start kept across
        # replace would show
        assert repr(cold) != repr(bfd_initial(inst))

    def test_load_gets_its_own_start(self, tmp_path):
        inst = generate(self.CFG)
        start = bfd_initial(inst)
        save(inst, tmp_path / "inst.json")
        loaded = load(tmp_path / "inst.json")
        assert bfd_initial(loaded) is not start
        assert repr(bfd_initial(loaded)) == repr(bfd_initial(generate(self.CFG)))


class TestOptimalityProperties:
    def test_earliest_times_match_linear_program(self):
        # no feasible arrival vector starts earlier or reaches any separator
        # earlier than forward propagation does
        for seed in range(1, 11):
            inst = generate(GenConfig(seed=seed, event_count=3, max_days=1))
            best = oracle(inst)
            for target in [0, *inst.separators]:
                lp = lp_min_arrival(inst, best.order, best.charge, target)
                assert lp is not None
                assert best.arrival[target] == pytest.approx(lp, abs=1e-6)

    def test_earliest_times_beat_minute_grid(self):
        for seed in range(1, 11):
            inst = generate(GenConfig(seed=seed, event_count=3, max_days=1))
            best = oracle(inst)
            targets = [0, *inst.separators]
            grid = grid_min_arrivals(inst, best.order, best.charge, targets)
            assert grid is not None
            for target in targets:
                # nothing in the searched set beats propagation, and the
                # earliest vector itself is in the set, so the minima agree
                assert grid[target] == pytest.approx(best.arrival[target], abs=1e-9)

    def test_full_capped_gains_beat_gain_grid(self):
        from evroute import objective_value

        for seed in range(1, 11):
            inst = generate(GenConfig(seed=seed, event_count=3, max_days=1))
            best = oracle(inst)
            charged = [u for u in best.order[:-1] if best.charge[u]]
            if not charged:
                continue
            base_obj = best.objective
            fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
            for combo in itertools.product(fractions, repeat=len(charged)):
                gains = [0.0] * inst.n
                for u, frac in zip(charged, combo):
                    gains[u] = frac * inst.nodes[u].charging.max_gain
                # propagate with capping; skip any infeasible gain vector
                ranges, deficit = _reference_ranges(best.order, gains, inst)
                if deficit is not None:
                    continue
                obj = objective_value(best.order, best.arrival, best.charge, ranges, inst)
                assert obj >= base_obj - 1e-9
