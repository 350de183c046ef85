"""Benchmark harness and the size-based hybrid dispatcher.

Runs the selected solvers over seeded instance ensembles, scores solution
quality against the exact optimum (or the best known value when the exact
solver times out) and writes per-run and aggregate CSV reports.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .core import Instance, Weights, objective_lower_bound
from .errors import NoInitialSolutionError, NoSolutionFoundError
from .exact import BnBConfig, SolveStatus, solve_exact
from .gen import GenConfig, generate
from .meta import (
    AcoParams,
    AlnsParams,
    SearchTrace,
    TsParams,
    aco,
    alns,
    tabu_search,
)

SOLVER_IDS = ("exact", "ts", "alns", "aco", "hybrid")
EXACT_SIZE_LIMIT = 15   # events; below this the exact solver answers
TS_SIZE_LIMIT = 45      # events; below this tabu search answers


@dataclass(frozen=True)
class BenchConfig:
    """Ensemble benchmark settings.

    ``sizes`` are exact event counts; every (size, seed) pair becomes one
    generated instance and one CSV row per attempted solver.
    ``per_run_time_limit`` reaches only the exact search: the ``exact``
    solver and ``hybrid``'s exact branch.  Tabu search, ALNS and ACO run
    all their iterations (ROADMAP item 3 gives them a deadline).
    """

    out_dir: str
    seeds: tuple[int, ...] = tuple(range(100))
    per_run_time_limit: float = 15.0
    solvers: tuple[str, ...] = ("exact", "ts", "alns", "aco")
    sizes: tuple[int, ...] = (4, 6, 8)

    def __post_init__(self):
        if not self.per_run_time_limit > 0:  # NaN included
            raise ValueError("per_run_time_limit must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for s in self.solvers:
            if s not in SOLVER_IDS:
                raise ValueError(f"unknown solver id {s!r}")


@dataclass(frozen=True)
class SolverReport:
    """One solver run on one instance."""

    solver: str
    seed: int
    n_events: int
    objective: float | None
    quality: float | None
    wall_time_ms: float
    status: str

    def __post_init__(self):
        if self.quality is not None and self.quality > 1.0 + 1e-9:
            raise ValueError("quality cannot exceed 1")
        if self.wall_time_ms < 0:
            raise ValueError("wall time cannot be negative")


def quality(objective: float, reference: float, shift: float) -> float:
    """Solution quality in (0, 1]: shifted best-known over shifted objective.

    ``shift`` must make both values strictly positive; use
    :func:`quality_shift` for the instance at hand.  Equals 1 exactly when
    the objective matches the reference.
    """
    if reference > objective + 1e-9:
        raise ValueError("reference must not exceed the objective being scored")
    if reference + shift <= 0 or objective + shift <= 0:
        raise ValueError("shift fails to make both values positive")
    return (reference + shift) / (objective + shift)


def quality_shift(weights: Weights) -> float:
    """Affine shift making objectives positive: one minus the sound floor."""
    return 1.0 - objective_lower_bound(weights)


def hybrid_dispatch(
    inst: Instance,
    budget: float = 15.0,
    rng_seed: int = 0,
    trace: SearchTrace | None = None,
    ts_params: TsParams | None = None,
    alns_params: AlnsParams | None = None,
    aco_params: AcoParams | None = None,
):
    """Pick a solver by instance size and answer within the time budget.

    Small instances go to the exact solver, medium ones to tabu search,
    large ones to ant colony optimization unless its projected runtime
    (first-iteration time times the iteration count) overruns the budget,
    in which case the neighborhood search takes over.
    """
    n_events = inst.event_count

    def note(solver, **extra):
        if trace is not None:
            trace.record("dispatch", solver=solver, **extra)

    if n_events < EXACT_SIZE_LIMIT:
        res = solve_exact(inst, BnBConfig(time_limit=budget))
        note("exact", status=res.status.value)
        return res.schedule
    if n_events < TS_SIZE_LIMIT:
        note("ts")
        return tabu_search(inst, ts_params, rng_seed, trace)
    p = AcoParams() if aco_params is None else aco_params
    start = time.perf_counter()
    try:
        aco(inst, replace(p, iterations=1), rng_seed)
        probe = time.perf_counter() - start
    except NoSolutionFoundError:
        probe = float("inf")
    projected = probe * p.iterations
    if projected > budget:
        note("alns", projected_aco_s=projected)
        return alns(inst, alns_params, rng_seed, trace)
    note("aco", projected_aco_s=projected)
    return aco(inst, p, rng_seed, trace)


def run_solver(solver: str, inst: Instance, limit: float, rng_seed: int):
    start = time.perf_counter()
    sched = None
    status = "feasible"
    try:
        if solver == "exact":
            res = solve_exact(inst, BnBConfig(time_limit=limit))
            sched, status = res.schedule, res.status.value
        elif solver == "ts":
            sched = tabu_search(inst, rng_seed=rng_seed)
        elif solver == "alns":
            sched = alns(inst, rng_seed=rng_seed)
        elif solver == "aco":
            sched = aco(inst, rng_seed=rng_seed)
        elif solver == "hybrid":
            sched = hybrid_dispatch(inst, budget=limit, rng_seed=rng_seed)
            status = "feasible" if sched is not None else "infeasible"
        else:
            raise ValueError(f"unknown solver id {solver!r}")
    except NoInitialSolutionError:
        status = "noInitialSolution"
    except NoSolutionFoundError:
        status = "noSolutionFound"
    wall_ms = (time.perf_counter() - start) * 1000.0
    return sched, status, wall_ms


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6f}"


RUN_COLUMNS = ["n_events", "seed", "solver", "objective", "quality", "shift", "status", "wall_time_ms"]
AGG_COLUMNS = ["n_events", "solver", "runs", "solved", "mean_quality", "mean_wall_time_ms"]


def run_benchmark(cfg: BenchConfig) -> tuple[Path, Path]:
    """Run the configured ensemble and write ``runs.csv`` and
    ``aggregate.csv`` into the output directory.

    Per-run rows appear in (size, seed, solver) order, one row per pair
    attempted.  Quality is scored against the exact objective when the
    exact solver finished optimally, otherwise against the best value any
    selected solver found; the affine shift used is documented per row in
    the ``shift`` column.  Wall time is measured around the solver call
    only.  On generation or I/O failure a marker file ``INCOMPLETE`` is
    left next to any partial results and the error is re-raised.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    agg_path = out / "aggregate.csv"
    rows: list[tuple[SolverReport, float]] = []
    try:
        for size in cfg.sizes:
            for seed in cfg.seeds:
                inst = generate(GenConfig(seed=seed, event_count=size))
                shift = quality_shift(inst.weights)
                results = {
                    solver: run_solver(solver, inst, cfg.per_run_time_limit, seed)
                    for solver in sorted(cfg.solvers)
                }
                exact_res = results.get("exact")
                if exact_res is not None and exact_res[1] == SolveStatus.OPTIMAL.value:
                    reference = exact_res[0].objective
                else:
                    known = [r[0].objective for r in results.values() if r[0] is not None]
                    reference = min(known) if known else None
                for solver in sorted(cfg.solvers):
                    sched, status, wall_ms = results[solver]
                    obj = None if sched is None else sched.objective
                    q = None
                    if obj is not None and reference is not None:
                        q = quality(obj, min(reference, obj), shift)
                    rows.append((SolverReport(solver, seed, size, obj, q, wall_ms, status), shift))
        with runs_path.open("w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(RUN_COLUMNS)
            for report, shift in rows:
                wr.writerow(
                    [
                        report.n_events,
                        report.seed,
                        report.solver,
                        _fmt(report.objective),
                        _fmt(report.quality),
                        _fmt(shift),
                        report.status,
                        _fmt(report.wall_time_ms),
                    ]
                )
        agg: dict[tuple[int, str], list[SolverReport]] = {}
        for report, _ in rows:
            agg.setdefault((report.n_events, report.solver), []).append(report)
        with agg_path.open("w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(AGG_COLUMNS)
            for (size, solver) in sorted(agg):
                group = agg[(size, solver)]
                scored = [r.quality for r in group if r.quality is not None]
                mean_q = sum(scored) / len(scored) if scored else None
                mean_w = sum(r.wall_time_ms for r in group) / len(group)
                wr.writerow([size, solver, len(group), len(scored), _fmt(mean_q), _fmt(mean_w)])
    except Exception as e:
        (out / "INCOMPLETE").write_text(f"benchmark aborted: {e}\n", encoding="utf-8")
        raise
    return runs_path, agg_path
