import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from evroute import (
    AcoParams,
    AlnsParams,
    GenConfig,
    Move,
    Schedule,
    SearchTrace,
    TsParams,
    Weights,
    aco,
    aco_select,
    alns,
    bfd_initial,
    generate,
    hybrid_dispatch,
    oracle,
    pheromone_update,
    solve_completion,
    tabu_search,
    validate,
)
from evroute import meta
from evroute.errors import NoSolutionFoundError
from evroute.meta import PHEROMONE_FLOOR, _repair_constructive, _removable, _RunMemo

from conftest import SEED42_ORACLE_OBJECTIVE
from helpers import RecomputingMemo


class _StubRng:
    """Feeds a fixed sequence of uniforms to the sampler."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestMoves:
    def test_swap_is_self_inverse(self):
        order = (0, 1, 2, 3, 4)
        m = Move("swap", 1, 3)
        assert m.inverse().apply(m.apply(order)) == order

    def test_insert_inverse_restores(self):
        order = (0, 1, 2, 3, 4)
        m = Move("insert", 1, 3)
        moved = m.apply(order)
        assert moved == (0, 2, 3, 1, 4)
        assert m.inverse().apply(moved) == order


@pytest.mark.parametrize("params", [TsParams, AlnsParams, AcoParams])
def test_negative_iterations_rejected(params):
    with pytest.raises(ValueError, match="iterations"):
        params(iterations=-1)


class TestTabuSearch:
    def test_zero_iterations_returns_bfd(self, seed42):
        start = bfd_initial(seed42)
        got = tabu_search(seed42, params=TsParams(iterations=0))
        assert got.order == start.order
        assert got.objective == start.objective

    def test_default_tabu_length_is_half_event_count(self):
        inst = generate(GenConfig(seed=13, event_count=10, max_days=1))
        assert inst.event_count == 10
        assert math.ceil(inst.event_count / 2) == 5  # resolved default

    def test_seed42_reaches_oracle_optimum(self, seed42):
        got = tabu_search(seed42, params=TsParams(iterations=200))
        assert got.objective == pytest.approx(SEED42_ORACLE_OBJECTIVE, abs=1e-9)

    def test_no_tabu_move_selected_without_aspiration(self, seed42):
        trace = SearchTrace()
        tabu_search(seed42, params=TsParams(iterations=60, aspiration=False), trace=trace)
        assert trace.events
        assert all(not ev["tabu"] for ev in trace.events if ev["kind"] == "move")

    def test_best_objective_non_increasing(self, seed42):
        trace = SearchTrace()
        tabu_search(seed42, params=TsParams(iterations=60), trace=trace)
        objs = [o for _, o in trace.best]
        assert objs == sorted(objs, reverse=True)

    def test_deterministic(self, seed42):
        a = tabu_search(seed42, params=TsParams(iterations=40), rng_seed=1)
        b = tabu_search(seed42, params=TsParams(iterations=40), rng_seed=99)
        assert a.order == b.order and a.objective == b.objective

    def test_result_validates(self, seed42):
        got = tabu_search(seed42, params=TsParams(iterations=30))
        assert validate(got, seed42) == []


class TestAlns:
    def test_zero_iterations_returns_bfd(self, seed42):
        start = bfd_initial(seed42)
        got = alns(seed42, params=AlnsParams(iterations=0))
        assert got.order == start.order

    def test_default_scheme_is_static_half(self):
        p = AlnsParams()
        assert p.dod_scheme == "static" and p.dod_static == 0.5

    @staticmethod
    def _removal_sizes(inst, monkeypatch, scheme):
        """The number of removed events per iteration of a 12-iteration run
        with the constructive repair only, read from its repair keys."""
        sizes = []

        class Recording(_RunMemo):
            def repair(self, key, compute):
                sizes.append(len(key[2]))
                return super().repair(key, compute)

        monkeypatch.setattr(meta, "_RunMemo", Recording)
        params = AlnsParams(dod_scheme=scheme, iterations=12, repair_set=("constructive",))
        got = alns(inst, params=params, rng_seed=1)
        assert validate(got, inst) == []
        return sizes

    def test_increasing_scheme_grows_the_removal(self, seed42, monkeypatch):
        sizes = self._removal_sizes(seed42, monkeypatch, "increasing")
        assert sizes == [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]

    def test_random_scheme_draws_the_removal(self, seed42, monkeypatch):
        sizes = self._removal_sizes(seed42, monkeypatch, "random")
        assert len(sizes) == 12
        assert all(1 <= k <= 6 for k in sizes)
        assert len(set(sizes)) > 1

    def test_exact_repair_dominates_constructive_per_removal_set(self, seed42):
        rng = np.random.default_rng(3)
        removable = _removable(seed42)
        start = bfd_initial(seed42)
        wins = 0
        for _ in range(12):
            removed = sorted(int(u) for u in rng.choice(removable, size=3, replace=False))
            base = [u for u in start.order if u not in set(removed)]
            exact = solve_completion(seed42, base, removed)
            constructive = _repair_constructive(_RunMemo(seed42), base, removed)
            if constructive is None:
                continue
            assert exact is not None
            assert exact.objective <= constructive.objective + 1e-9
            wins += 1
        assert wins >= 8

    def test_weights_nonnegative_and_probabilities_sum_to_one(self, seed42):
        trace = SearchTrace()
        alns(seed42, params=AlnsParams(iterations=45, segment=9), rng_seed=5, trace=trace)
        for ev in trace.events:
            if ev["kind"] != "repair":
                continue
            assert all(w >= 0.0 for w in ev["weights"])
            assert sum(ev["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_oversized_removal_falls_back_to_constructive(self, seed42):
        trace = SearchTrace()
        p = AlnsParams(iterations=30, exact_repair_max_removed=1, repair_set=("exactMip",))
        alns(seed42, params=p, rng_seed=2, trace=trace)
        assert any(ev["kind"] == "exact_repair_timeout" for ev in trace.events)

    def test_best_objective_non_increasing_and_valid(self, seed42):
        trace = SearchTrace()
        got = alns(seed42, params=AlnsParams(iterations=50), rng_seed=4, trace=trace)
        objs = [o for _, o in trace.best]
        assert objs == sorted(objs, reverse=True)
        assert validate(got, seed42) == []

    def test_deterministic(self, seed42):
        p = AlnsParams(iterations=40)
        a = alns(seed42, params=p, rng_seed=7)
        b = alns(seed42, params=p, rng_seed=7)
        assert a.order == b.order and a.objective == b.objective


class TestAcoSelect:
    def test_uniform_candidates_split_evenly(self):
        cands = [10, 11, 12, 13]
        tau = [1.0] * 4
        eta = [1.0] * 4
        # probability boundaries sit at 0.25 steps, checked to 1e-12
        for i, r in enumerate([0.25 - 1e-12, 0.5 - 1e-12, 0.75 - 1e-12, 1.0 - 1e-12]):
            assert aco_select(cands, tau, eta, 1.0, 2.0, _StubRng([r])) == cands[i]
        for i, r in enumerate([0.0, 0.25 + 1e-12, 0.5 + 1e-12, 0.75 + 1e-12]):
            assert aco_select(cands, tau, eta, 1.0, 2.0, _StubRng([r])) == cands[i]

    def test_single_candidate_certain(self):
        assert aco_select([5], [2.0], [0.1], 1.0, 2.0, _StubRng([0.999999])) == 5

    def test_two_thirds_one_third_split(self):
        # tau (1,2), eta (0.5,0.25), alpha 1, beta 2 -> weights (0.25, 0.125)
        cands = [1, 2]
        tau = [1.0, 2.0]
        eta = [0.5, 0.25]
        boundary = 2.0 / 3.0
        assert aco_select(cands, tau, eta, 1.0, 2.0, _StubRng([boundary - 1e-12])) == 1
        assert aco_select(cands, tau, eta, 1.0, 2.0, _StubRng([boundary + 1e-12])) == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            aco_select([], [], [], 1.0, 2.0, _StubRng([0.5]))


class TestPheromoneUpdate:
    @staticmethod
    def _weights_with_floor(floor):
        # objective_lower_bound = wd*lower_d + wc*lower_c
        return Weights(1.0, 0.0, 0.0, prefs=(1.0, 0.0, 0.0),
                       bounds=((floor, floor + 1.0), (0.0, 1.0), (-1.0, 0.0)))

    def test_pure_evaporation(self):
        w = self._weights_with_floor(0.0)
        tau = np.ones((3, 3))
        out = pheromone_update(tau, [], None, 0.01, w)
        assert out == pytest.approx(np.full((3, 3), 0.99), abs=1e-12)

    def test_single_deposit_quarter(self):
        w = self._weights_with_floor(0.0)
        # shifted objective of exactly 4: objective = 4 + floor - 1e-6
        s = Schedule(order=(0, 1, 2), arrival=(0.0,) * 3, charge=(0,) * 3,
                     gain=(0.0,) * 3, ranges=(1.0,) * 3, objective=4.0 - 1e-6)
        tau = np.ones((3, 3))
        out = pheromone_update(tau, [s], None, 0.0, w)
        assert out[0, 1] == pytest.approx(1.25, abs=1e-12)
        assert out[1, 2] == pytest.approx(1.25, abs=1e-12)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_reinforcement_is_inverse_shifted_objective(self):
        w = self._weights_with_floor(2.0)
        s = Schedule(order=(0, 1), arrival=(0.0,) * 2, charge=(0,) * 2,
                     gain=(0.0,) * 2, ranges=(1.0,) * 2, objective=10.0)
        out = pheromone_update(np.zeros((2, 2)) + 1.0, [s], None, 0.0, w)
        expected = 1.0 + 1.0 / (10.0 - (2.0 - 1e-6))
        assert out[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_full_evaporation_hits_floor(self):
        w = self._weights_with_floor(0.0)
        out = pheromone_update(np.ones((2, 2)), [], None, 1.0, w)
        assert (out == PHEROMONE_FLOOR).all()


class TestAco:
    def test_single_event_unique_order(self):
        inst = generate(GenConfig(seed=1, max_events=1, max_days=1))
        got = aco(inst, params=AcoParams(iterations=5, ants=4), rng_seed=0)
        best = oracle(inst)
        assert got.order == best.order

    def test_defaults_match_tuned_values(self):
        p = AcoParams()
        assert (p.alpha, p.beta, p.rho, p.ants) == (1.0, 2.0, 0.01, 10)

    def test_seed42_reaches_oracle_optimum(self, seed42):
        # recorded: rng seed 0 with 100 iterations reaches the optimum
        got = aco(seed42, params=AcoParams(iterations=100), rng_seed=0)
        assert got.objective == pytest.approx(SEED42_ORACLE_OBJECTIVE, abs=1e-9)

    def test_best_objective_non_increasing_and_valid(self, seed42):
        trace = SearchTrace()
        got = aco(seed42, params=AcoParams(iterations=30), rng_seed=1, trace=trace)
        objs = [o for _, o in trace.best if math.isfinite(o)]
        assert objs == sorted(objs, reverse=True)
        assert validate(got, seed42) == []

    def test_deterministic(self, seed42):
        p = AcoParams(iterations=25)
        a = aco(seed42, params=p, rng_seed=9)
        b = aco(seed42, params=p, rng_seed=9)
        assert a.order == b.order and a.objective == b.objective

    def test_routes_fail_without_assembly_when_the_start_window_breaks(self, seed42, monkeypatch):
        # the route starts at 0, after the start node's window has closed:
        # every ant route fails its timing and none reaches the planner
        start = replace(seed42.nodes[0], a_min=-30.0, a_max=-20.0, duration=0.0)
        inst = replace(seed42, nodes=(start, *seed42.nodes[1:]))
        assembled = []
        monkeypatch.setattr(meta, "assemble_schedule", lambda *args, **kw: assembled.append(args))
        with pytest.raises(NoSolutionFoundError):
            aco(inst, params=AcoParams(iterations=3), rng_seed=0)
        assert assembled == []


class TestSearchTrace:
    def test_round_trip_keeps_order_and_types(self):
        shared = [0.5, 0.5]
        expected = [
            {"kind": "dispatch", "solver": "alns", "projected_aco_s": math.inf},
            {"kind": "repair", "iteration": 0, "operator": "random", "probabilities": shared,
             "weights": [1.0, 1.0], "accepted": True, "feasible": False},
            {"kind": "exact_repair_timeout", "iteration": 1, "removed": 4},
            {"kind": "repair", "iteration": 1, "operator": "exactMip", "probabilities": shared,
             "weights": [1.0, 1.0], "accepted": False, "feasible": True},
            {"kind": "dispatch", "solver": "exact", "status": "optimal"},
            {"kind": "exact_repair_timeout", "iteration": 2, "removed": 5},
            {"kind": "dispatch", "solver": "ts"},
            {"kind": "stop"},
            {"kind": "move", "move": Move("insert", 2, 1), "tabu": False, "objective": 0.25},
            # values of different types under one event shape
            {"kind": "mixed", "value": 1},
            {"kind": "mixed", "value": 2.5},
            {"kind": "mixed", "value": True},
            {"kind": "mixed", "value": 2**70},
            {"kind": "flag", "value": True},
            {"kind": "flag", "value": 0},
        ]
        trace = SearchTrace()
        for event in expected:
            trace.record(event["kind"], **{k: v for k, v in event.items() if k != "kind"})
        for objective in (3.0, 2.0, 2.0):
            trace.note_best(objective)

        got = trace.events
        assert got == expected
        assert [[(k, type(v)) for k, v in e.items()] for e in got] == [
            [(k, type(v)) for k, v in e.items()] for e in expected
        ]
        assert trace.best == [(0, 3.0), (1, 2.0), (2, 2.0)]
        # each view is rebuilt: changing it leaves the record as it was
        got[1]["probabilities"].append(1.0)
        assert trace.events[3]["probabilities"] == [0.5, 0.5]
        assert trace.events == expected

    def test_solver_traces_serialise_to_json(self, seed42):
        inst = generate(GenConfig(seed=1, event_count=16, max_days=2))
        runs = [
            lambda t: tabu_search(seed42, params=TsParams(iterations=10), trace=t),
            lambda t: alns(seed42, params=AlnsParams(iterations=30), rng_seed=1, trace=t),
            lambda t: aco(seed42, params=AcoParams(iterations=5), rng_seed=1, trace=t),
            lambda t: hybrid_dispatch(seed42, trace=t),
            lambda t: hybrid_dispatch(inst, trace=t, ts_params=TsParams(iterations=3)),
        ]
        for run in runs:
            trace = SearchTrace()
            run(trace)
            assert trace.events
            json.dumps({"best": trace.best, "events": trace.events})


class TestRunMemo:
    CONFIGS = [(1, 6, 1), (2, 7, 1), (3, 8, 1), (4, 10, 2), (5, 12, 3), (6, 14, 3)]

    @staticmethod
    def _runs(inst):
        """Every solver once.  Small removal sets make ALNS draw repeated
        repairs; at two removed nodes it runs the completion search, beyond
        that the constructive fallback."""
        out = []
        for solve in (
            lambda t: tabu_search(inst, params=TsParams(iterations=25), trace=t),
            lambda t: alns(inst, params=AlnsParams(iterations=60, dod_static=0.3,
                                                   exact_repair_max_removed=2), rng_seed=3, trace=t),
            lambda t: aco(inst, params=AcoParams(iterations=8), rng_seed=3, trace=t),
        ):
            trace = SearchTrace()
            try:
                sched = solve(trace)
            except NoSolutionFoundError:
                sched = None
            out.append((sched, trace.best, trace.events))
        return out

    @pytest.mark.parametrize("seed, events, days", CONFIGS)
    def test_memo_leaves_every_output_unchanged(self, monkeypatch, seed, events, days):
        inst = generate(GenConfig(seed=seed, event_count=events, max_days=days))
        remembered = self._runs(inst)
        monkeypatch.setattr(meta, "_RunMemo", RecomputingMemo)
        assert self._runs(inst) == remembered

    def test_alns_remembered_repairs_equal_fresh_ones(self, seed42, monkeypatch):
        # a stale repair is rarely accepted, so equal outputs alone would
        # not notice a key that misses part of what the repair depends on
        outcomes = Counter()

        class Checked(_RunMemo):
            def repair(self, key, compute):
                remembered = key in self._seen
                got = super().repair(key, compute)
                outcomes[remembered, got == compute()] += 1
                return got

        monkeypatch.setattr(meta, "_RunMemo", Checked)
        alns(seed42, params=AlnsParams(iterations=100), rng_seed=1)
        assert outcomes[True, True] > 0
        assert outcomes[True, False] == outcomes[False, False] == 0

    def test_tabu_search_assembles_each_order_once(self, seed42, monkeypatch):
        # an order whose re-timing without stops fails is priced right there,
        # without an assembly
        assembled = Counter()
        failed_timing = Counter()
        looked_up = Counter()
        real_assemble = meta.assemble_schedule
        real_retime = meta._retime
        real_lookup = _RunMemo.assemble

        def counting_assemble(order, inst, **kw):
            assembled[tuple(order)] += 1
            return real_assemble(order, inst, **kw)

        def counting_retime(order, *args):
            got = real_retime(order, *args)
            if got is None:
                failed_timing[tuple(order)] += 1
            return got

        def counting_lookup(memo, order, *timing):
            looked_up[tuple(order)] += 1
            return real_lookup(memo, order, *timing)

        monkeypatch.setattr(meta, "assemble_schedule", counting_assemble)
        monkeypatch.setattr(meta, "_retime", counting_retime)
        monkeypatch.setattr(_RunMemo, "assemble", counting_lookup)
        tabu_search(seed42, params=TsParams(iterations=200))
        assert max(assembled.values()) == 1
        assert max(failed_timing.values()) == 1
        assert not set(assembled) & set(failed_timing)
        assert set(assembled) | set(failed_timing) == set(looked_up)
        # the search revisits orders, so the memo saves assemblies
        assert sum(looked_up.values()) > 2 * (len(assembled) + len(failed_timing))
