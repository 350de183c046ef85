"""Benchmark harness and the size-based hybrid dispatcher.

Runs the selected solvers over seeded instance ensembles, scores solution
quality against the exact optimum (or the best known value when the exact
solver times out) and writes per-run and aggregate CSV reports.  The
dispatcher runs the exact search on small instances, tabu search on the rest.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .core import Instance, Weights, objective_lower_bound, validate
from .errors import EvrouteError, NoInitialSolutionError, NoSolutionFoundError
from .exact import BnBConfig, SolveStatus, solve_exact
from .gen import GenConfig, generate
from .meta import SearchTrace, aco, alns, tabu_search
from .schedule import bfd_initial

SOLVER_IDS = ("exact", "ts", "alns", "aco", "hybrid")
EXACT_SIZE_LIMIT = 15   # events; below this the exact solver answers


@dataclass(frozen=True)
class BenchConfig:
    """Ensemble benchmark settings.

    ``sizes`` are exact event counts; every (size, seed) pair becomes one
    generated instance and one CSV row per attempted solver.  A repeated
    seed, size or solver is rejected: the means would count it twice.
    ``per_run_time_limit`` reaches only the exact search: the ``exact``
    solver and ``hybrid``'s exact branch.  Tabu search, ALNS and ACO run
    all their iterations (ROADMAP item 5 gives them a deadline).
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
        for name in ("seeds", "sizes", "solvers"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} repeat an entry: {entries!r}")


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
        # written so that NaN fails each check
        if self.objective is not None and not self.objective == self.objective:
            raise ValueError("objective must be a number, got NaN")
        if self.quality is not None and not 0.0 < self.quality <= 1.0 + 1e-9:
            raise ValueError(f"quality must be a number in (0, 1], got {self.quality}")
        if not self.wall_time_ms >= 0:
            raise ValueError(f"wall time must be a non-negative number, got {self.wall_time_ms}")


def quality(objective: float, reference: float, shift: float) -> float:
    """Solution quality in (0, 1]: shifted best-known over shifted objective.

    ``shift`` must make both values strictly positive; use
    :func:`quality_shift` for the instance at hand.  Equals 1 exactly when
    the objective matches the reference.
    """
    # written so that NaN fails each check
    if not all(-math.inf < x < math.inf for x in (objective, reference, shift)):
        raise ValueError(f"objective {objective}, reference {reference} and shift {shift} must be finite")
    if not reference <= objective + 1e-9:
        raise ValueError(f"reference {reference} must be a number no greater than the objective {objective}")
    if not (reference + shift > 0 and objective + shift > 0):
        raise ValueError(f"shift {shift} fails to make both values positive")
    return (reference + shift) / (objective + shift)


def quality_shift(weights: Weights) -> float:
    """Affine shift making objectives positive: one minus the sound floor."""
    return 1.0 - objective_lower_bound(weights)


def hybrid_dispatch(
    inst: Instance,
    budget: float = 15.0,
    rng_seed: int = 0,
    trace: SearchTrace | None = None,
):
    """Pick a solver by instance size alone.

    Below ``EXACT_SIZE_LIMIT`` events the exact search answers within
    ``budget`` seconds; from there on tabu search answers, and ant colony
    optimization only when tabu search finds no start (the solvers'
    measured quality: ROADMAP item 10).  ``budget`` reaches the exact
    search only.  The trace gets one ``dispatch`` event per solver started.
    """

    def note(solver, **extra):
        if trace is not None:
            trace.record("dispatch", solver=solver, **extra)

    if inst.event_count < EXACT_SIZE_LIMIT:
        res = solve_exact(inst, BnBConfig(time_limit=budget))
        note("exact", status=res.status.value)
        return res.schedule
    note("ts")
    try:
        return tabu_search(inst, rng_seed=rng_seed, trace=trace)
    except NoInitialSolutionError:
        note("aco")
        return aco(inst, rng_seed=rng_seed, trace=trace)


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
    only: the best-fit-decreasing start the solvers share is built before
    the first call on each instance (:func:`~evroute.schedule.bfd_initial`)
    and counted in no solver's time.  Each schedule is then checked by
    :func:`~evroute.core.validate`, and the first violation raises
    :class:`~evroute.errors.EvrouteError`.
    On that, on generation or on I/O failure a marker file ``INCOMPLETE``
    is left next to any partial results and the error is re-raised; a run
    that completes removes the marker an earlier run left.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    agg_path = out / "aggregate.csv"
    marker = out / "INCOMPLETE"
    rows: list[tuple[SolverReport, float]] = []
    try:
        for size in cfg.sizes:
            for seed in cfg.seeds:
                inst = generate(GenConfig(seed=seed, event_count=size))
                shift = quality_shift(inst.weights)
                # the solvers share the instance's start: build it untimed,
                # so no solver's wall time pays for it
                try:
                    bfd_initial(inst)
                except NoInitialSolutionError:
                    pass  # each seeded solver reports it as its own status
                results = {}
                for solver in sorted(cfg.solvers):
                    results[solver] = run_solver(solver, inst, cfg.per_run_time_limit, seed)
                    sched = results[solver][0]
                    violations = [] if sched is None else validate(sched, inst)
                    if violations:
                        v = violations[0]
                        raise EvrouteError(
                            f"the {solver} schedule for {size} events, seed {seed}, fails validation:"
                            f" {v.constraint_id.value} at {v.location}: {v.detail}"
                        )
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
        marker.write_text(f"benchmark aborted: {e}\n", encoding="utf-8")
        raise
    marker.unlink(missing_ok=True)
    return runs_path, agg_path
