import csv
import math

import pytest

from evroute import (
    AcoParams,
    AlnsParams,
    BenchConfig,
    GenConfig,
    SearchTrace,
    SolverReport,
    generate,
    hybrid_dispatch,
    quality,
    quality_shift,
    run_benchmark,
    validate,
)
from evroute import bench
from evroute.core import ConstraintId, Violation
from evroute.errors import EvrouteError

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
        from evroute import TsParams

        sched = hybrid_dispatch(inst, budget=15.0, trace=trace, ts_params=TsParams(iterations=5))
        assert sched is not None
        assert [e for e in trace.events if e["kind"] == "dispatch"][-1]["solver"] == "ts"

    def test_large_goes_aco_whatever_the_budget(self):
        inst = generate(GenConfig(seed=0, event_count=80, max_days=8))
        trace = SearchTrace()
        sched = hybrid_dispatch(
            inst,
            budget=1e-6,
            trace=trace,
            alns_params=AlnsParams(iterations=3, repair_set=("constructive",)),
            aco_params=AcoParams(iterations=2, ants=2),
        )
        assert [e["solver"] for e in trace.events if e["kind"] == "dispatch"] == ["aco"]
        assert validate(sched, inst) == []

    def test_large_falls_back_to_alns_when_no_ant_finds_a_route(self):
        # one colony pass of ten ants finds no route on this instance
        inst = generate(GenConfig(seed=1, event_count=45))
        trace = SearchTrace()
        sched = hybrid_dispatch(
            inst,
            rng_seed=0,
            trace=trace,
            alns_params=AlnsParams(iterations=3, repair_set=("constructive",)),
            aco_params=AcoParams(iterations=1),
        )
        assert [e["solver"] for e in trace.events if e["kind"] == "dispatch"] == ["aco", "alns"]
        assert validate(sched, inst) == []


class TestSolverReport:
    def test_quality_cap_enforced(self):
        with pytest.raises(ValueError):
            SolverReport("ts", 0, 4, 1.0, 1.5, 1.0, "feasible")

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
