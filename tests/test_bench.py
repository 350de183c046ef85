import csv
import math

import pytest

from evroute import (
    BenchConfig,
    GenConfig,
    SearchTrace,
    SolverReport,
    aco,
    generate,
    hybrid_dispatch,
    quality,
    quality_shift,
    run_benchmark,
    tabu_search,
    validate,
)
from evroute import bench
from evroute.core import ConstraintId, Violation
from evroute.errors import EvrouteError, NoInitialSolutionError

from conftest import no_start_instance


class TestQuality:
    def test_identity(self):
        assert quality(5.0, 5.0, 2.0) == 1.0

    def test_ratio(self):
        # reference+shift 10, objective+shift 12
        assert quality(9.0, 7.0, 3.0) == pytest.approx(0.833333, abs=1e-6)

    def test_reference_must_be_best(self):
        with pytest.raises(ValueError):
            quality(5.0, 6.0, 1.0)

    def test_shift_must_make_positive(self):
        with pytest.raises(ValueError):
            quality(-5.0, -5.0, 1.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, 0.5, math.nan)])
    def test_nan_rejected(self, args):
        with pytest.raises(ValueError):
            quality(*args)

    @pytest.mark.parametrize("args", [
        (math.inf, 0.5, 1.0),   # used to give 0.0, outside (0, 1]
        (1.0, -math.inf, 1.0),
        (math.inf, math.inf, 1.0),
        (1.0, 0.5, math.inf),
        (-math.inf, -math.inf, math.inf),
    ])
    def test_infinite_rejected(self, args):
        with pytest.raises(ValueError):
            quality(*args)

    def test_oracle_backed_qualities_bounded(self):
        from evroute import oracle, tabu_search, TsParams

        for seed in (1, 2, 3):
            inst = generate(GenConfig(seed=seed, event_count=4, max_days=1))
            shift = quality_shift(inst.weights)
            ref = oracle(inst).objective
            got = tabu_search(inst, params=TsParams(iterations=50))
            q = quality(got.objective, min(ref, got.objective), shift)
            assert 0.0 < q <= 1.0


class TestHybridDispatch:
    def test_small_goes_exact(self):
        inst = generate(GenConfig(seed=1, event_count=10, max_days=1))
        trace = SearchTrace()
        sched = hybrid_dispatch(inst, budget=15.0, trace=trace)
        assert sched is not None
        assert [e for e in trace.events if e["kind"] == "dispatch"][-1]["solver"] == "exact"

    def test_medium_goes_tabu(self):
        inst = generate(GenConfig(seed=1, event_count=30, max_days=3))
        trace = SearchTrace()
        sched = hybrid_dispatch(inst, budget=15.0, trace=trace)
        assert sched is not None
        assert [e for e in trace.events if e["kind"] == "dispatch"][-1]["solver"] == "ts"

    def test_large_goes_tabu_whatever_the_budget(self):
        inst = generate(GenConfig(seed=1, event_count=45))
        expected = repr(tabu_search(inst, rng_seed=0))
        for budget in (1e-6, 15.0):
            trace = SearchTrace()
            sched = hybrid_dispatch(inst, budget=budget, trace=trace)
            assert [e["solver"] for e in trace.events if e["kind"] == "dispatch"] == ["ts"]
            assert repr(sched) == expected
        assert validate(sched, inst) == []

    def test_falls_back_to_aco_when_tabu_search_finds_no_start(self, monkeypatch):
        def no_start(inst, **kw):
            raise NoInitialSolutionError("no start")

        inst = generate(GenConfig(seed=1, event_count=16, max_days=2))
        monkeypatch.setattr(bench, "tabu_search", no_start)
        trace = SearchTrace()
        sched = hybrid_dispatch(inst, rng_seed=3, trace=trace)
        assert [e["solver"] for e in trace.events if e["kind"] == "dispatch"] == ["ts", "aco"]
        assert repr(sched) == repr(aco(inst, rng_seed=3))
        assert validate(sched, inst) == []


class TestSolverReport:
    def test_quality_cap_enforced(self):
        with pytest.raises(ValueError):
            SolverReport("ts", 0, 4, 1.0, 1.5, 1.0, "feasible")

    @pytest.mark.parametrize("q", [0.0, -0.0, -0.5, -math.inf])
    def test_quality_not_above_zero_rejected(self, q):
        with pytest.raises(ValueError):
            SolverReport("ts", 0, 4, 1.0, q, 1.0, "feasible")

    def test_negative_wall_time_rejected(self):
        with pytest.raises(ValueError):
            SolverReport("ts", 0, 4, 1.0, 1.0, -1.0, "feasible")

    @pytest.mark.parametrize("obj, q, wall_ms", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)])
    def test_nan_rejected(self, obj, q, wall_ms):
        with pytest.raises(ValueError):
            SolverReport("ts", 0, 4, obj, q, wall_ms, "feasible")


class TestRunBenchmark:
    def test_empty_solver_set_writes_header_only(self, tmp_path):
        cfg = BenchConfig(out_dir=str(tmp_path), seeds=(0, 1), solvers=(), sizes=(3,))
        runs, agg = run_benchmark(cfg)
        assert runs.read_text().strip() == "n_events,seed,solver,objective,quality,shift,status,wall_time_ms"
        assert agg.read_text().strip() == "n_events,solver,runs,solved,mean_quality,mean_wall_time_ms"

    def test_rows_one_to_one_with_pairs_and_exact_quality_is_one(self, tmp_path):
        cfg = BenchConfig(
            out_dir=str(tmp_path),
            seeds=(0, 1, 2),
            solvers=("exact", "alns"),
            sizes=(3,),
            per_run_time_limit=20.0,
        )
        runs, agg = run_benchmark(cfg)
        with runs.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        keys = {(r["seed"], r["solver"]) for r in rows}
        assert len(keys) == 6
        for r in rows:
            if r["solver"] == "exact" and r["status"] == "optimal":
                assert float(r["quality"]) == 1.0
        agg_rows = list(csv.DictReader(agg.open()))
        assert {(r["n_events"], r["solver"]) for r in agg_rows} == {("3", "exact"), ("3", "alns")}

    def test_instance_without_a_start_reports_it_per_solver(self, tmp_path, monkeypatch):
        # the start the solvers share is built before their timed calls;
        # when it fails, each seeded solver still reports that as its status
        monkeypatch.setattr(bench, "generate", lambda cfg: no_start_instance())
        cfg = BenchConfig(out_dir=str(tmp_path), seeds=(0,), solvers=("exact", "ts", "alns"), sizes=(2,))
        runs, _ = run_benchmark(cfg)
        status = {r["solver"]: r["status"] for r in csv.DictReader(runs.open())}
        assert status == {"exact": "infeasible", "ts": "noInitialSolution", "alns": "noInitialSolution"}

    def test_failure_leaves_marker(self, tmp_path):
        cfg = BenchConfig(out_dir=str(tmp_path), seeds=(0,), solvers=("exact",), sizes=(99,))
        with pytest.raises(Exception):
            run_benchmark(cfg)
        assert (tmp_path / "INCOMPLETE").exists()

    def test_completed_rerun_removes_the_marker(self, tmp_path, monkeypatch):
        # a run aborted by a failing validation leaves the marker; a rerun
        # into the same directory that completes removes it
        cfg = BenchConfig(out_dir=str(tmp_path), seeds=(0,), solvers=("ts",), sizes=(3,))
        violation = Violation(ConstraintId.OBJECTIVE, "route", "forced", 1.0)
        with monkeypatch.context() as m:
            m.setattr(bench, "validate", lambda sched, inst: [violation])
            with pytest.raises(EvrouteError, match="fails validation"):
                run_benchmark(cfg)
        assert (tmp_path / "INCOMPLETE").exists()
        runs, _ = run_benchmark(cfg)
        assert not (tmp_path / "INCOMPLETE").exists()
        assert [r["status"] for r in csv.DictReader(runs.open())] == ["feasible"]

    def test_default_protocol_values(self):
        cfg = BenchConfig(out_dir="x")
        assert len(cfg.seeds) == 100
        assert cfg.per_run_time_limit == 15.0

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
    def test_time_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match="per_run_time_limit"):
            BenchConfig(out_dir="x", per_run_time_limit=limit)

    @pytest.mark.parametrize("field, entries", [
        ("seeds", (0, 1, 0)), ("sizes", (4, 4)), ("solvers", ("ts", "ts")),
    ])
    def test_repeated_entry_rejected(self, field, entries):
        # a repeated entry would run the same (size, seed, solver) twice and
        # count it twice in the aggregate means
        with pytest.raises(ValueError, match=f"{field} repeat an entry"):
            BenchConfig(out_dir="x", **{field: entries})
