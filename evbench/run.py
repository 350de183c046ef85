#!/usr/bin/env python3
"""The evroute benchmark.

    python3 evbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Generates the workload's instances from ``--seed``, times their set-up
(generate with weight normalisation, save, load, best-fit-decreasing
reference), then solves them in a closed loop, one call at a time from a
single caller, in whole rounds until ``--seconds`` are used up.  Every
call is timed from outside and every output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``; the per-layer
metrics of a traced run with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from checker import check
from env import OUT_DIR, import_evroute
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, call_solver, gen_config, select_cases

SETUP_REPEATS = 7
HEURISTICS = ("ts", "alns", "aco")
OBJ_TOL = 1e-9
OVERHEAD_SHARE = 3   # a traced run also solves 1/3 of the instances untraced
RANDOM_ORDERS = 20   # anchor-respecting orders per instance the optimum must beat


class Bench:
    def __init__(self, ev, workload, seed: int):
        self.ev = ev
        self.workload = workload
        self.seed = seed
        self.cases = select_cases(ev, workload, seed)
        self.instances = []
        self.bfd_objective: list[float] = []
        self.optimum: dict[int, float] = {}
        self.oracle: dict[int, float | None] = {}
        self.random_best: dict[int, float] = {}
        self.first_objective: dict[tuple[int, int], float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate, save and load every instance and price its BFD order."""
        ev = self.ev
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        pairs = []
        for case in self.cases:
            inst = ev.gen.generate(gen_config(ev, case.stratum, case.gen_seed))
            path = OUT_DIR / f"{self.workload.name}-{self.seed}-{case.index}.json"
            ev.gen.save(inst, path)
            pairs.append((inst, ev.gen.load(path)))
        bfd = [ev.schedule.bfd_initial(loaded).objective for _, loaded in pairs]
        elapsed = perf_counter() - start
        for case, (inst, loaded) in zip(self.cases, pairs):
            if not loaded == inst:
                self.problems.append(f"case {case.index}: load(save(x)) != x")
        self.instances = [loaded for _, loaded in pairs]
        self.bfd_objective = bfd
        return elapsed

    # -- solving ------------------------------------------------------------

    @contextmanager
    def untraced(self):
        """Keep reference computations out of the per-layer figures."""
        if self.tracer is None:
            yield
            return
        was = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = was

    def run_round(self, count: int | None = None) -> dict:
        """Solve the first ``count`` instances (all by default) with every
        solver once.  Returns per-solver wall times, qualities and the calls'
        results."""
        ev = self.ev
        out = {"time": {s: 0.0 for s in self.workload.solvers}, "quality": {s: [] for s in HEURISTICS},
               "calls": []}
        for case, inst in list(zip(self.cases, self.instances))[:count]:
            for k, (solver, params) in enumerate(self.workload.calls):
                self.attempted += 1
                start = perf_counter()
                try:
                    sched, info = call_solver(ev, solver, params, inst, case.gen_seed)
                except (ev.NoSolutionFoundError, ev.NoInitialSolutionError) as e:
                    sched, info = None, e
                elapsed = perf_counter() - start
                out["time"][solver] += elapsed
                if sched is None:
                    self.failed += 1
                    continue
                q = self.check_call(case, inst, (k, solver), sched, info)
                if q is not None:
                    out["quality"][solver].append(q)
                out["calls"].append((case.index, solver, elapsed, info))
        return out

    def check_call(self, case, inst, call, sched, info):
        """Check one returned schedule of the workload's ``call`` (index and
        solver); returns its quality for heuristics."""
        ev = self.ev
        k, solver = call
        where = f"case {case.index} ({case.stratum.label}, gen seed {case.gen_seed}) call {k} {solver}"
        with self.untraced():
            found = check(sched, inst)
        if found:
            self.problems.append(f"{where}: checker {found[:3]}")
        if ev.core.validate(sched, inst):
            self.problems.append(f"{where}: core.validate rejects the schedule")
        obj = sched.objective
        key = (case.index, k)
        if self.first_objective.setdefault(key, obj) != obj:
            self.problems.append(f"{where}: objective {obj} differs from earlier round {self.first_objective[key]}")
        if solver != "aco" and not obj <= self.bfd_objective[case.index] + OBJ_TOL:
            self.problems.append(f"{where}: objective {obj} above BFD {self.bfd_objective[case.index]}")
        if solver == "exact":
            with self.untraced():
                self.check_exact(case, inst, info, where)
            return None
        shift = 1.0 - ev.objective_lower_bound(inst.weights)
        if self.workload.name == "desk":
            ref = self.optimum.get(case.index)
            if ref is None:
                self.problems.append(f"{where}: no proven optimum to score against")
                return None
            if obj < ref - OBJ_TOL:
                self.problems.append(f"{where}: objective {obj} below the proven optimum {ref}")
        else:
            ref = ev.objective_lower_bound(inst.weights)
        q = (ref + shift) / (obj + shift)
        if not 0.0 < q <= 1.0 + OBJ_TOL:
            self.problems.append(f"{where}: quality {q} outside (0, 1]")
        return q

    def check_exact(self, case, inst, res, where):
        ev = self.ev
        status = res.status.value
        obj = res.schedule.objective
        if status != "optimal":
            self.problems.append(f"{where}: status {status}, expected optimal")
            return
        self.optimum[case.index] = obj
        if inst.n <= ev.exact.ORACLE_MAX_NODES:
            if case.index not in self.oracle:
                best = ev.exact.oracle(inst)
                self.oracle[case.index] = None if best is None else best.objective
            ref = self.oracle[case.index]
            if ref is None or not abs(obj - ref) <= OBJ_TOL:
                self.problems.append(f"{where}: objective {obj} disagrees with the oracle {ref}")
        if case.index not in self.random_best:
            self.random_best[case.index] = self.best_random_order(case, inst)
        if not obj <= self.random_best[case.index] + OBJ_TOL:
            self.problems.append(f"{where}: optimum {obj} above a random order's {self.random_best[case.index]}")

    def best_random_order(self, case, inst) -> float:
        """Best assembled objective over random anchor-respecting orders."""
        sched = self.ev.schedule
        rng = np.random.default_rng([self.seed, case.index])
        anchored = list(sched.anchored_sequence(inst))
        flexible = sorted(set(range(1, inst.n - 1)) - set(anchored))
        best = math.inf
        for _ in range(RANDOM_ORDERS):
            order = list(anchored)
            for u in rng.permutation(flexible):
                order.insert(int(rng.integers(0, len(order) + 1)), int(u))
            s = sched.assemble_schedule([0, *order, inst.n - 1], inst)
            if s is not None:
                best = min(best, s.objective)
        return best

    # -- the timed loop -------------------------------------------------------

    def rounds(self, seconds: float) -> list[dict]:
        """Whole rounds until the next one would overrun ``seconds``."""
        done = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            done.append(self.run_round())
            last = perf_counter() - t0
            if perf_counter() - start + last > seconds:
                return done


def solve_s(r: dict) -> float:
    return sum(r["time"].values())


def median_of(rounds, f):
    return statistics.median(f(r) for r in rounds)


def end_to_end(setup_times, rounds) -> dict:
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (median_of(rounds, solve_s), "s"),
    }
    for s in HEURISTICS:
        m[f"{s}_s"] = (median_of(rounds, lambda r: r["time"][s]), "s")
    for s in HEURISTICS:
        scores = rounds[0]["quality"][s]
        m[f"{s}_quality"] = (statistics.fmean(scores) if scores else 0.0, "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(bench, plain, traced_rounds, rt, at) -> dict:
    """Per-layer figures.

    ``plain`` is an untraced pass over the first instances, ``rt`` the
    tracer's totals right after the traced rounds and ``at`` those after
    the traced set-up pass that follows them.  Counts are per round; times
    per call come from the rounds, except for the set-up functions.
    """
    k = len(traced_rounds)
    m: dict[str, tuple[float, str]] = {}

    def count(name):
        return (rt.calls.get(name, 0) / k, "count")

    def per_call(name, scale, unit, t=rt, times=None):
        times = t.total if times is None else times
        return (_ratio(times.get(name, 0.0), t.calls.get(name, 0)) * scale, unit)

    for name in ("gen.generate", "core.normalize_weights", "gen.save", "gen.load", "schedule.bfd_initial"):
        m[f"{name}.ms_per_call"] = per_call(name, 1e3, "ms", at)
    m["core.objective_value.calls"] = count("core.objective_value")
    m["core.objective_value.us_per_call"] = per_call("core.objective_value", 1e6, "us")
    m["core.validate.us_per_call"] = per_call("core.validate", 1e6, "us")
    asm = "schedule.assemble_schedule"
    m[f"{asm}.calls"] = count(asm)
    m[f"{asm}.us_per_call"] = per_call(asm, 1e6, "us")
    m[f"{asm}.feasible_ratio"] = (1.0 - _ratio(rt.none_returns.get(asm, 0), rt.calls.get(asm, 0)), "ratio")
    m["schedule.plan_charging.self_us_per_call"] = per_call(
        "schedule.plan_charging", 1e6, "us", times=rt.self_time)
    for name in ("schedule.propagate_times", "schedule.respects_anchor_order"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.us_per_call"] = per_call(name, 1e6, "us")
    m["exact.leaf.propagate_times.calls"] = (
        rt.site_calls.get(("schedule.propagate_times", "exact"), 0) / k, "count")
    for name in ("schedule.charge_gains", "schedule.propagate_ranges"):
        m[f"{name}.us_per_call"] = per_call(name, 1e6, "us")

    iters = {s: 0 for s in HEURISTICS}
    alns_feasible = alns_accepted = feasible_ants = nodes = incumbents = 0
    exact_time = 0.0
    for r in traced_rounds:
        for _, solver, elapsed, info in r["calls"]:
            if solver == "exact":
                nodes += info.nodes_explored
                incumbents += len(info.incumbents)
                exact_time += elapsed
                continue
            iters[solver] += len(info.best)
            if solver == "alns":
                repairs = [e for e in info.events if e["kind"] == "repair"]
                alns_feasible += sum(e["feasible"] for e in repairs)
                alns_accepted += sum(e["accepted"] for e in repairs)
            elif solver == "aco":
                feasible_ants += sum(e["feasible_ants"] for e in info.events)
    ts_time = rt.total.get("meta.tabu_search", 0.0)
    alns_time = rt.total.get("meta.alns", 0.0)
    aco_time = rt.total.get("meta.aco", 0.0)
    ants = iters["aco"] * bench.ev.AcoParams().ants
    m["meta.ts.ms_per_iter"] = (_ratio(ts_time, iters["ts"]) * 1e3, "ms")
    m["meta.ts.assemblies_per_iter"] = (_ratio(rt.parent_calls.get((asm, "meta.tabu_search"), 0), iters["ts"]), "count")
    m["meta.alns.ms_per_iter"] = (_ratio(alns_time, iters["alns"]) * 1e3, "ms")
    m["meta.alns.feasible_repair_ratio"] = (_ratio(alns_feasible, iters["alns"]), "ratio")
    m["meta.alns.accepted_ratio"] = (_ratio(alns_accepted, iters["alns"]), "ratio")
    m["meta.aco.ms_per_iter"] = (_ratio(aco_time, iters["aco"]) * 1e3, "ms")
    m["meta.aco.ants_per_s"] = (_ratio(ants, aco_time), "1/s")
    m["meta.aco.feasible_ant_ratio"] = (_ratio(feasible_ants, ants), "ratio")
    m["exact.solve_exact.ms_per_call"] = per_call("exact.solve_exact", 1e3, "ms")
    m["exact.solve_exact.nodes"] = (nodes / k, "count")
    m["exact.solve_exact.nodes_per_s"] = (_ratio(nodes, exact_time), "1/s")
    m["exact.solve_exact.incumbents"] = (incumbents / k, "count")
    m["exact.solve_completion.calls"] = count("exact.solve_completion")
    m["exact.solve_completion.ms_per_call"] = per_call("exact.solve_completion", 1e3, "ms")
    for layer in ("core", "schedule", "meta", "exact"):   # gen works in set-up only
        own = sum(t for name, t in rt.self_time.items() if name.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (own / k, "s")

    # Overhead: the same calls, traced against untraced, in this process.
    subset = {c for c, _, _, _ in plain["calls"]}
    traced = median_of(traced_rounds, lambda r: sum(e for c, _, e, _ in r["calls"] if c in subset))
    m["trace.overhead_ratio"] = (traced / solve_s(plain) - 1.0, "ratio")
    m["trace.spans_per_round"] = (rt.spans / k, "count")
    return m


def report(totals, file=sys.stderr) -> None:
    """Self and total time of every traced function, largest total first."""
    print(f"{'function':42s} {'calls':>10s} {'total ms':>12s} {'self ms':>12s}", file=file)
    for name in sorted(totals.calls, key=lambda n: -totals.total[n]):
        print(f"{name:42s} {totals.calls[name]:10d} {totals.total[name] * 1e3:12.1f} "
              f"{totals.self_time[name] * 1e3:12.1f}", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    ev = import_evroute()
    bench = Bench(ev, WORKLOADS[args.workload], args.seed)
    setup_times = [bench.setup() for _ in range(SETUP_REPEATS)]

    if not args.trace:
        rounds = bench.rounds(args.seconds)
        metrics = end_to_end(setup_times, rounds)
    else:
        plain = bench.run_round(count=max(1, len(bench.cases) // OVERHEAD_SHARE))
        tracer = Tracer()
        bench.tracer = tracer
        modules = {name: getattr(ev, name) for name in LAYERS}
        replaced = tracer.install(modules)
        tracer.active = True
        try:
            traced = bench.rounds(args.seconds)
            rounds_totals = tracer.totals()
            bench.setup()
        finally:
            tracer.active = False
            tracer.uninstall(replaced)
        all_totals = tracer.totals()
        metrics = per_layer(bench, plain, traced, rounds_totals, all_totals)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.npz"
        tracer.write(path)
        report(all_totals)
        print(f"spans: {tracer.spans_seen} seen, {len(tracer.span_id)} kept in {path}", file=sys.stderr)

    for p in bench.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
    result = {
        "correct": not bench.problems and not bad,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
