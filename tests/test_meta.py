import json
import math
from collections import Counter
from dataclasses import replace
from functools import partial

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
    solve_exact,
    tabu_search,
    validate,
)
from evroute import meta, schedule
from evroute.errors import NoSolutionFoundError
from evroute.meta import PHEROMONE_FLOOR, _admissible_moves, _moves, _repair_constructive, _removable, _RunMemo
from evroute.schedule import _retime

from conftest import SEED42_ORACLE_OBJECTIVE, two_node_instance
from helpers import RecomputingMemo, reference_tabu_search, respects_anchor_order


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

    @pytest.mark.parametrize("n", range(3, 9))
    def test_each_move_lists_the_pairs_it_makes_adjacent(self, n):
        order = tuple(range(10, 10 + n))
        before = set(zip(order, order[1:]))
        for move, lo, hi, pairs in _moves(n):
            moved = move.apply(order)
            assert moved[:lo] == order[:lo] and moved[hi:] == order[hi:]
            made = {(order[a], order[b]) for a, b in pairs}
            assert made == set(zip(moved, moved[1:])) - before


@pytest.mark.parametrize("params", [TsParams, AlnsParams, AcoParams])
def test_negative_iterations_rejected(params):
    with pytest.raises(ValueError, match="iterations"):
        params(iterations=-1)


def test_aco_needs_an_iteration():
    # TS and ALNS return their BFD start after no iteration; ACO has none
    with pytest.raises(ValueError, match="iteration"):
        AcoParams(iterations=0)


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

    def test_aspiration_takes_a_tabu_move_only_to_beat_the_best(self):
        inst = generate(GenConfig(seed=9, event_count=12, max_days=2))
        trace = SearchTrace()
        p = TsParams(iterations=60, aspiration=True, tabu_len_swap=6, tabu_len_insert=6)
        tabu_search(inst, params=p, trace=trace)
        # the best objective before each iteration
        before = [bfd_initial(inst).objective] + [obj for _, obj in trace.best]
        taken = [(ev["objective"], before[i]) for i, ev in enumerate(trace.events) if ev["tabu"]]
        assert taken
        assert all(obj < best for obj, best in taken)

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

    @pytest.mark.parametrize("scheme", ["static", "increasing", "random"])
    def test_every_scheme_runs_with_nothing_to_remove(self, scheme):
        inst = two_node_instance()
        got = alns(inst, params=AlnsParams(iterations=3, dod_scheme=scheme))
        assert got.order == (0, 1)
        assert validate(got, inst) == []

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

    @pytest.mark.parametrize("scheme", ["static", "increasing", "random"])
    def test_every_order_handed_to_the_memo_keeps_the_anchored_order(self, monkeypatch, scheme):
        # the slot rule trusts that each base keeps the anchored order
        inst = generate(GenConfig(seed=4, event_count=10, max_days=2))
        handed = []
        real_assemble = _RunMemo.assemble

        def checking_assemble(memo, order, *timing):
            handed.append(respects_anchor_order(order, inst))
            return real_assemble(memo, order, *timing)

        monkeypatch.setattr(_RunMemo, "assemble", checking_assemble)
        trace = SearchTrace()
        p = AlnsParams(iterations=60, dod_scheme=scheme, dod_static=0.3, exact_repair_max_removed=3)
        alns(inst, params=p, rng_seed=3, trace=trace)
        used = {ev["operator"] for ev in trace.events if ev["kind"] == "repair"}
        assert used == {"random", "constructive", "exactMip"}
        assert handed and all(handed)

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
    @pytest.mark.parametrize("field", ["alpha", "beta", "tau0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        # either one would break the roulette: every ant takes its last candidate
        with pytest.raises(ValueError, match=field):
            AcoParams(**{field: value})

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
        routes = []
        real_construct = meta._construct_route

        def recording_construct(*args):
            routes.append(real_construct(*args))
            return routes[-1]

        monkeypatch.setattr(meta, "_construct_route", recording_construct)
        with pytest.raises(NoSolutionFoundError):
            aco(inst, params=AcoParams(iterations=3), rng_seed=0)
        assert assembled == []
        # completed routes come without arrivals, for the memo to time in full
        completed = [route for route in routes if route is not None]
        assert completed and all(arrival is None for _, arrival in completed)


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
            lambda t: hybrid_dispatch(inst, trace=t),
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
        """ALNS and ACO once, the solvers that keep a run memory.  Small
        removal sets make ALNS draw repeated repairs; at two removed nodes it
        runs the completion search, beyond that the constructive fallback."""
        out = []
        for solve in (
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

    def test_only_a_finite_ceiling_computes_a_floor(self, seed42, monkeypatch):
        # ACO routes and ALNS repairs are assembled unscreened; tabu search
        # ranks its candidates by their floors
        floors = Counter()
        real_floor = meta.objective_floor

        def counting_floor(order, arrival, k_end, inst):
            floors[solver] += 1
            return real_floor(order, arrival, k_end, inst)

        monkeypatch.setattr(meta, "objective_floor", counting_floor)
        for solver, solve in (
            ("aco", lambda: aco(seed42, params=AcoParams(iterations=5), rng_seed=1)),
            ("alns", lambda: alns(seed42, params=AlnsParams(iterations=30), rng_seed=1)),
            ("ts", lambda: tabu_search(seed42, params=TsParams(iterations=5))),
        ):
            solve()
        assert floors["aco"] == floors["alns"] == 0
        assert floors["ts"] > 0

    def test_tabu_search_assembles_each_order_once(self, seed42, monkeypatch):
        # an order whose re-timing without stops fails is dropped right
        # there, without an assembly; one whose objective floor lies above
        # the iteration's best candidate so far stays timed, for a later
        # iteration or another scan that meets it, and is never re-timed;
        # one that holds a pair the follow table rejects is never timed
        assembled = Counter()
        failed_timing = Counter()
        timed = Counter()
        real_assemble = meta.assemble_schedule
        real_retime = meta._retime

        def counting_assemble(order, inst, **kw):
            assembled[tuple(order)] += 1
            return real_assemble(order, inst, **kw)

        def counting_retime(order, *args):
            got = real_retime(order, *args)
            timed[tuple(order)] += 1
            if got is None:
                failed_timing[tuple(order)] += 1
            return got

        monkeypatch.setattr(meta, "assemble_schedule", counting_assemble)
        monkeypatch.setattr(meta, "_retime", counting_retime)
        iterations = 200
        trace = SearchTrace()
        tabu_search(seed42, params=TsParams(iterations=iterations), trace=trace)
        assert max(assembled.values()) == 1
        assert max(failed_timing.values()) == 1
        assert max(timed.values()) == 1
        assert not set(assembled) & set(failed_timing)
        screened = set(timed) - set(failed_timing) - set(assembled)
        # the orders scanned: the one before each move, and the last one when
        # the search stopped early for want of a move
        order = bfd_initial(seed42).order
        scanned = []
        for event in trace.events:
            scanned.append(order)
            order = event["move"].apply(order)
        if len(trace.events) < iterations:
            scanned.append(order)
        moves = _moves(len(order))
        neighbours = Counter(
            c for o in set(scanned) for c in {move.apply(o) for move, *_ in _admissible_moves(o, seed42.anchor_rank, moves)}
        )
        candidates = set(neighbours)
        follows = seed42.follows
        rejected = {c for c in candidates if not all(follows[u][v] for u, v in zip(c, c[1:]))}
        zeros = [0] * seed42.n
        assert all(_retime(c, zeros, None, 0, len(c), seed42) is None for c in rejected)
        assert not rejected & set(timed)
        assert set(assembled) | set(failed_timing) | screened | rejected == candidates
        # the table and the floor screen fire: some orders are never timed,
        # some never assembled, and some that two scans meet are timed once
        assert rejected
        assert screened
        assert {c for c, k in neighbours.items() if k > 1} & set(timed)
        # the search revisits orders, whose scans it keeps
        assert len(set(scanned)) < len(scanned)

    def test_best_first_assembles_fewer_orders_than_the_reference_loop(self, seed42, monkeypatch):
        # the reference assembles in move order under a floor with a full
        # battery at the end; the ranked scans stop sooner, with the same run
        assembled = Counter()
        real_assemble = meta.assemble_schedule

        def counting_assemble(order, inst, **kw):
            assembled[solver] += 1
            return real_assemble(order, inst, **kw)

        monkeypatch.setattr(meta, "assemble_schedule", counting_assemble)
        runs = {}
        for solver, solve in (("ts", tabu_search), ("reference", reference_tabu_search)):
            trace = SearchTrace()
            sched = solve(seed42, params=TsParams(iterations=200), trace=trace)
            runs[solver] = repr((sched, trace.best, trace.events))
        assert runs["ts"] == runs["reference"]
        assert 0 < assembled["ts"] < assembled["reference"]


class TestSharedStart:
    """Tabu search, ALNS and the exact search seed from the instance's one
    best-fit-decreasing start: warm or cold, they give the same results."""

    CFG = GenConfig(seed=3, event_count=7, max_days=2)
    CALLS = [
        partial(tabu_search, params=TsParams(iterations=8)),
        *(partial(alns, params=AlnsParams(iterations=4, repair_set=(op,)), rng_seed=1) for op in meta._ALL_REPAIRS),
        # schedule, status, nodes explored and incumbents
        lambda inst, trace: solve_exact(inst),
    ]

    @staticmethod
    def _outcome(call, inst):
        """The call's result on ``inst`` and its trace, by ``repr``."""
        trace = SearchTrace()
        return repr((call(inst, trace=trace), trace.best, trace.events))

    @pytest.mark.parametrize("warm_up", [bfd_initial, solve_exact, tabu_search])
    def test_warm_equals_cold(self, warm_up):
        # cold: each call on a fresh instance, so each builds the start
        cold = [self._outcome(call, generate(self.CFG)) for call in self.CALLS]
        inst = generate(self.CFG)
        warm_up(inst)
        assert [self._outcome(call, inst) for call in self.CALLS] == cold

    def test_one_instance_builds_once(self, monkeypatch):
        inst = generate(self.CFG)  # weight normalization builds on its own instance
        builds = []
        real = schedule._build_bfd
        monkeypatch.setattr(schedule, "_build_bfd", lambda i: builds.append(i) or real(i))
        for call in self.CALLS:
            self._outcome(call, inst)
        assert builds == [inst]
