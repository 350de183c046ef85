"""Acceptance criteria, one test per criterion.

Each test prints one summary line.  References for quality scoring come
from the exhaustive oracle where the node count allows it and from the
branch-and-bound solver with proven optimal status otherwise (the two are
shown equivalent by criterion 1).
"""

import csv
import io
import statistics
import time
from dataclasses import replace

import numpy as np

from evroute import (
    AcoParams,
    AlnsParams,
    BnBConfig,
    ConstraintId,
    GenConfig,
    SolveStatus,
    TsParams,
    aco,
    alns,
    bfd_initial,
    generate,
    normalize_weights,
    oracle,
    plan_charging,
    quality,
    quality_shift,
    solve_exact,
    tabu_search,
    validate,
)
from evroute.cli import main
from evroute.exact import ORACLE_MAX_NODES

from helpers import _reference_ranges, brute_min_stop_count, grid_min_arrivals, lp_min_arrival


def _report(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def _exact_reference(inst, limit=120.0):
    """Proven-optimal objective; oracle-equivalent per criterion 1."""
    if inst.n <= ORACLE_MAX_NODES:
        best = oracle(inst)
        assert best is not None
        return best.objective
    res = solve_exact(inst, BnBConfig(time_limit=limit))
    assert res.status is SolveStatus.OPTIMAL, res.status
    return res.objective


def test_criterion_1_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1, 21):
        inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
        assert inst.n <= 8
        ref = oracle(inst)
        res = solve_exact(inst, BnBConfig(time_limit=15.0))
        assert res.status is SolveStatus.OPTIMAL
        worst = max(worst, abs(res.objective - ref.objective))
    elapsed = time.perf_counter() - start
    _report(1, "oracle agreement", worst <= 1e-9 and elapsed < 120.0,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_validator_soundness(seed42):
    rng = np.random.default_rng(20)
    clean_runs = 0
    producers_per_seed = 6
    seeds = range(1, 35)  # 34 seeds x 6 producers > 200 runs
    for seed in seeds:
        inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
        schedules = [bfd_initial(inst)]
        schedules.append(tabu_search(inst, params=TsParams(iterations=25)))
        schedules.append(alns(inst, params=AlnsParams(iterations=25), rng_seed=seed))
        schedules.append(aco(inst, params=AcoParams(iterations=10, ants=6), rng_seed=seed))
        schedules.append(solve_exact(inst).schedule)
        schedules.append(oracle(inst))
        for s in schedules:
            assert s is not None
            assert validate(s, inst) == []
            clean_runs += 1
    assert clean_runs >= 200

    # one deliberate corruption per constraint family
    s = oracle(seed42)
    fixed = next(nd.id for nd in seed42.nodes if nd.kind.value == "fixed")
    flexible = next(nd.id for nd in seed42.nodes if nd.kind.value == "flexible")
    sep = seed42.separators[0]
    chargeable = next(
        u for u in range(1, seed42.n - 1) if seed42.nodes[u].charging is not None
    )
    n = seed42.n

    def mutate(**kw):
        return replace(s, **kw)

    def with_order(fn):
        order = list(s.order)
        fn(order)
        return mutate(order=tuple(order))

    def with_vec(name, node, value):
        vec = list(getattr(s, name))
        vec[node] = value
        return mutate(**{name: tuple(vec)})

    cases = {
        ConstraintId.FLOW: with_order(lambda o: o.__setitem__(1, o[3])),
        ConstraintId.SELF_CYCLE: with_order(lambda o: o.__setitem__(2, o[1])),
        ConstraintId.TWO_CYCLE: with_order(lambda o: o.__setitem__(3, o[1])),
        ConstraintId.FIXED_ARRIVAL: with_vec("arrival", fixed, s.arrival[fixed] + 7.0),
        ConstraintId.WINDOW: with_vec("arrival", flexible, seed42.nodes[flexible].a_max + 50.0),
        ConstraintId.SEPARATOR_WINDOW: with_vec("arrival", sep, s.arrival[0] - 10.0),
        ConstraintId.TIME_CHAIN: with_vec("arrival", s.order[2], s.arrival[s.order[1]] - 100.0),
        ConstraintId.END_NODE_CHARGE: with_vec("charge", n - 1, 1),
        ConstraintId.MIN_RANGE: with_vec("ranges", s.order[2], seed42.k_min - 1.0),
        ConstraintId.GAIN_CAP: with_vec("gain", flexible, 5.0),
        ConstraintId.MAX_RANGE: replace(
            s,
            charge=tuple(1 if u == chargeable else c for u, c in enumerate(s.charge)),
            gain=tuple(seed42.k_max if u == chargeable else g for u, g in enumerate(s.gain)),
        ),
        ConstraintId.RANGE_CHAIN: with_vec("ranges", s.order[3], s.ranges[s.order[3]] + 5.0),
        ConstraintId.DOMAIN: with_vec("arrival", flexible, -5.0),
    }
    missed = []
    for cid, bad in cases.items():
        got = {v.constraint_id for v in validate(bad, seed42)}
        if cid not in got:
            missed.append((cid, sorted(g.value for g in got)))
    _report(2, "validator soundness", clean_runs >= 200 and not missed,
            f"{clean_runs} clean runs, missed families: {missed}")


def test_criterion_3_metaheuristic_quality_desk_scale():
    qualities = {"ts": [], "alns": [], "aco": []}
    for seed in range(1, 51):
        inst = generate(GenConfig(seed=seed, event_count=6 + seed % 3, max_days=1))
        ref = _exact_reference(inst)
        shift = quality_shift(inst.weights)
        runs = {
            "ts": tabu_search(inst, rng_seed=seed),
            "alns": alns(inst, rng_seed=seed),
            "aco": aco(inst, rng_seed=seed),
        }
        for name, sched in runs.items():
            qualities[name].append(quality(sched.objective, min(ref, sched.objective), shift))
    means = {name: statistics.mean(vals) for name, vals in qualities.items()}
    ranking = sorted(means, key=means.get, reverse=True)
    ok = all(m >= 0.95 for m in means.values())
    _report(
        3,
        "metaheuristic quality",
        ok,
        "means " + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
        + f"; observed ranking {'>='.join(ranking)} (reported, not asserted)",
    )


def test_criterion_4_tabu_size_study_direction():
    import math

    quality_half, quality_sixth = [], []
    for seed in range(1, 31):
        inst = generate(GenConfig(seed=seed, event_count=8, max_days=1))
        ref = _exact_reference(inst)
        shift = quality_shift(inst.weights)
        n_events = inst.event_count
        for bucket, length in ((quality_half, math.ceil(n_events / 2)), (quality_sixth, math.ceil(n_events / 6))):
            got = tabu_search(
                inst,
                params=TsParams(tabu_len_swap=length, tabu_len_insert=length, iterations=150),
            )
            bucket.append(quality(got.objective, min(ref, got.objective), shift))
    mean_half = statistics.mean(quality_half)
    mean_sixth = statistics.mean(quality_sixth)
    _report(4, "tabu size study", mean_half >= mean_sixth - 0.01,
            f"N/2 mean {mean_half:.4f} vs N/6 mean {mean_sixth:.4f}")


def test_criterion_5_charging_planner_minimality():
    mismatches = []
    for seed in range(1, 51):
        inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
        assert inst.n <= 8
        inst = replace(inst, weights=normalize_weights(inst, (0.5, 0.5, 0.0)))
        order = bfd_initial(inst).order
        planned = plan_charging(order, inst)
        assert planned is not None
        stops = sum(planned[0][:-1])
        best = brute_min_stop_count(inst, order)
        if stops != best:
            mismatches.append((seed, stops, best))
    _report(5, "charging planner minimality", not mismatches, f"mismatches: {mismatches}")


def test_criterion_6_aco_arithmetic():
    from evroute import aco_select, pheromone_update, Schedule, Weights

    class Stub:
        def __init__(self, v):
            self.v = v

        def random(self):
            return self.v

    ok = True
    # selection probabilities: uniform four-way, singleton, and 2/3 vs 1/3
    cands = [0, 1, 2, 3]
    for i, r in enumerate([0.25 - 1e-12, 0.5 - 1e-12, 0.75 - 1e-12, 1.0 - 1e-12]):
        ok &= aco_select(cands, [1.0] * 4, [1.0] * 4, 1.0, 2.0, Stub(r)) == i
    ok &= aco_select([9], [3.0], [0.5], 1.0, 2.0, Stub(0.999)) == 9
    boundary = 2.0 / 3.0
    ok &= aco_select([1, 2], [1.0, 2.0], [0.5, 0.25], 1.0, 2.0, Stub(boundary - 1e-12)) == 1
    ok &= aco_select([1, 2], [1.0, 2.0], [0.5, 0.25], 1.0, 2.0, Stub(boundary + 1e-12)) == 2

    w = Weights(1.0, 0.0, 0.0, prefs=(1.0, 0.0, 0.0),
                bounds=((0.0, 1.0), (0.0, 1.0), (-1.0, 0.0)))
    out = pheromone_update(np.ones((2, 2)), [], None, 0.01, w)
    ok &= abs(out[0, 1] - 0.99) <= 1e-12
    s = Schedule((0, 1), (0.0, 0.0), (0, 0), (0.0, 0.0), (1.0, 1.0), objective=4.0 - 1e-6)
    out = pheromone_update(np.ones((2, 2)), [s], None, 0.0, w)
    ok &= abs(out[0, 1] - 1.25) <= 1e-12
    s10 = replace(s, objective=10.0 - 1e-6)
    out = pheromone_update(np.ones((2, 2)), [s10], None, 0.0, w)
    ok &= abs(out[0, 1] - (1.0 + 1.0 / 10.0)) <= 1e-12
    _report(6, "ACO arithmetic", ok)


def test_criterion_7_exact_blowup_direction():
    def median_wall(event_count, seeds, limit=15.0):
        times = []
        capped = 0
        for seed in seeds:
            inst = generate(GenConfig(seed=seed, event_count=event_count, max_days=5))
            start = time.perf_counter()
            res = solve_exact(inst, BnBConfig(time_limit=limit))
            times.append(time.perf_counter() - start)
            if res.status is SolveStatus.TIME_LIMIT:
                capped += 1
        return statistics.median(times), capped

    med8, _ = median_wall(8, range(5))
    med18, _ = median_wall(18, range(5))
    _, capped20 = median_wall(20, range(2))
    ok = med18 >= 10.0 * med8 and capped20 >= 1
    _report(7, "exact solver blow-up", ok,
            f"median 8 events {med8 * 1000:.1f}ms, 18 events {med18 * 1000:.1f}ms, "
            f"cap engaged on {capped20} of 2 runs at 20 events")


def _strip_wall_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if "wall_time" not in name]
    out = io.StringIO()
    wr = csv.writer(out, lineterminator="\n")
    for row in rows:
        wr.writerow([row[i] for i in keep])
    return out.getvalue()


def test_criterion_8_determinism(tmp_path):
    # Measured wall-time columns cannot be bitwise reproducible; every other
    # byte of the reports must be.  Wall columns are stripped before the
    # comparison and the remainder is compared byte for byte.
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "11", "--events", "5", "--max-days", "1", "--out", str(inst_path)]) == 0
    solve_outputs = []
    for rep in range(2):
        out = tmp_path / f"solve_{rep}.csv"
        rc = main([
            "solve", str(inst_path), "--solver", "ts", "--seed", "4",
            "--time-limit", "10", "--out", str(out),
        ])
        assert rc == 0
        solve_outputs.append(_strip_wall_columns(out.read_text()))
    bench_outputs = []
    for rep in range(2):
        out_dir = tmp_path / f"bench_{rep}"
        rc = main([
            "bench", "--seeds", "2", "--sizes", "3", "--solvers", "exact,alns",
            "--time-limit", "10", "--out", str(out_dir),
        ])
        assert rc == 0
        bench_outputs.append(
            (
                _strip_wall_columns((out_dir / "runs.csv").read_text()),
                _strip_wall_columns((out_dir / "aggregate.csv").read_text()),
            )
        )
    ok = solve_outputs[0] == solve_outputs[1] and bench_outputs[0] == bench_outputs[1]
    _report(8, "determinism", ok)


def test_criterion_9_timing_and_gain_optimality():
    import itertools

    from evroute import objective_value

    counter_time = counter_gain = 0
    for seed in range(1, 11):
        inst = generate(GenConfig(seed=seed, event_count=3, max_days=1))
        assert inst.n <= 6
        best = oracle(inst)
        targets = [0, *inst.separators]
        grid = grid_min_arrivals(inst, best.order, best.charge, targets)
        for target in targets:
            if grid[target] < best.arrival[target] - 1e-9:
                counter_time += 1
            lp = lp_min_arrival(inst, best.order, best.charge, target)
            if lp is None or abs(lp - best.arrival[target]) > 1e-6:
                counter_time += 1
        charged = [u for u in best.order[:-1] if best.charge[u]]
        for combo in itertools.product((0.0, 0.25, 0.5, 0.75, 1.0), repeat=len(charged)):
            gains = [0.0] * inst.n
            for u, frac in zip(charged, combo):
                gains[u] = frac * inst.nodes[u].charging.max_gain
            ranges, deficit = _reference_ranges(best.order, gains, inst)
            if deficit is not None:
                continue
            obj = objective_value(best.order, best.arrival, best.charge, ranges, inst)
            if obj < best.objective - 1e-9:
                counter_gain += 1
    _report(9, "earliest-time and full-gain optimality",
            counter_time == 0 and counter_gain == 0,
            f"{counter_time} timing counterexamples, {counter_gain} gain counterexamples")
