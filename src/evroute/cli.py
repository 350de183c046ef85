"""Command-line interface.

Subcommands: ``gen`` writes instance files, ``solve`` runs one solver on one
instance and emits a one-row report CSV, ``bench`` runs the ensemble
harness, ``lp`` writes the Big-M linear model text.  Exit codes: 0 success,
1 infeasible, 2 usage error, 3 internal error (a ``solve`` schedule that
fails validation included: its violations go to stderr, no row is written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import BenchConfig, SOLVER_IDS, run_benchmark, run_solver
from .core import normalize_weights, validate
from .errors import EvrouteError, NoInitialSolutionError, NoSolutionFoundError
from .exact import linearize
from .gen import GenConfig, generate, load, save

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if (
        len(parts) != 3
        or not all(math.isfinite(x) and x >= 0 for x in parts)
        or abs(sum(parts) - 1.0) > 1e-9
    ):
        raise argparse.ArgumentTypeError(
            "expected three comma-separated finite non-negative numbers summing to 1"
        )
    return tuple(parts)  # type: ignore[return-value]


def _parse_positive(text: str) -> float:
    x = float(text)
    if not x > 0:  # NaN included
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return x


def _parse_non_negative(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return x


def _parse_count(text: str) -> int:
    x = int(text)
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return x


def _parse_seed(text: str) -> int:
    x = int(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative seed, got {text!r}")
    return x


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(_parse_count(x) for x in text.split(","))


def _parse_seeds(text: str) -> tuple[int, ...]:
    if "," not in text:
        return tuple(range(_parse_count(text)))
    return tuple(_parse_seed(x) for x in text.split(","))


def _parse_solvers(text: str) -> tuple[str, ...]:
    solvers = tuple(text.split(","))
    if not set(solvers) <= set(SOLVER_IDS):
        raise argparse.ArgumentTypeError(f"expected solvers out of {','.join(SOLVER_IDS)}, got {text!r}")
    return solvers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    time_limit_help = ("seconds for the exact search (exact, and hybrid's exact branch); "
                       "ts, alns and aco run all their iterations")

    g = sub.add_parser("gen", help="generate instance files")
    g.add_argument("--seed", type=_parse_seed, required=True)
    g.add_argument("--count", type=_parse_count, default=1, help="number of consecutive seeds")
    g.add_argument("--out", required=True, help="output file (count=1) or directory")
    g.add_argument("--events", type=int, default=None, help="exact event count")
    g.add_argument("--max-events", type=int, default=120)
    g.add_argument("--max-days", type=int, default=5)
    g.add_argument("--area-km", type=float, default=50.0)
    g.add_argument("--fixed-fraction", type=float, default=0.5)
    g.add_argument("--station-probability", type=float, default=0.7)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("instance", help="instance JSON path")
    s.add_argument("--solver", choices=SOLVER_IDS, default="hybrid")
    s.add_argument("--time-limit", type=_parse_positive, default=15.0, help=time_limit_help)
    s.add_argument("--seed", type=_parse_seed, default=0, help="solver RNG seed")
    s.add_argument("--weights", type=_parse_weights, default=None, metavar="WD,WT,WC",
                   help="preference triple, renormalized against the instance")
    s.add_argument("--epsilon", type=_parse_non_negative, default=None)
    s.add_argument("--out", default=None, help="report CSV path (default stdout)")

    b = sub.add_parser("bench", help="run the benchmark ensemble")
    b.add_argument("--seeds", type=_parse_seeds, default=tuple(range(100)),
                   help="count, or comma-separated seed list")
    b.add_argument("--sizes", type=_parse_sizes, default=(4, 6, 8), help="comma-separated event counts")
    b.add_argument("--solvers", type=_parse_solvers, default=("exact", "ts", "alns", "aco"),
                   help=f"comma-separated subset of {','.join(SOLVER_IDS)}")
    b.add_argument("--time-limit", type=_parse_positive, default=15.0, help=time_limit_help)
    b.add_argument("--out", required=True, help="output directory")

    l = sub.add_parser("lp", help="emit the Big-M linear model as text")
    l.add_argument("instance", help="instance JSON path")
    l.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _cmd_gen(args) -> int:
    cfg_kwargs = dict(
        max_events=args.max_events,
        max_days=args.max_days,
        area_km=args.area_km,
        fixed_fraction=args.fixed_fraction,
        station_probability=args.station_probability,
        event_count=args.events,
    )
    seeds = range(args.seed, args.seed + args.count)
    try:
        configs = [GenConfig(seed=seed, **cfg_kwargs) for seed in seeds]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    if args.count == 1:
        paths = [out]
        out.parent.mkdir(parents=True, exist_ok=True)
    else:
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"instance_{seed}.json" for seed in seeds]
    for cfg, path in zip(configs, paths):
        inst = generate(cfg)
        save(inst, path)
        print(path)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = load(args.instance)
    if args.epsilon is not None:
        inst = replace(inst, epsilon=args.epsilon)
    if args.weights is not None:
        inst = replace(inst, weights=normalize_weights(inst, args.weights))
    sched, status, wall_ms = run_solver(args.solver, inst, args.time_limit, args.seed)
    violations = [] if sched is None else validate(sched, inst)
    if violations:
        print(f"error: the {args.solver} schedule fails validation:", file=sys.stderr)
        for v in violations:
            print(f"  {v.constraint_id.value} at {v.location}: {v.detail}", file=sys.stderr)
        return EXIT_INTERNAL
    header = "solver,seed,n_events,objective,status,stops,order,wall_time_ms"
    if sched is None:
        row = f"{args.solver},{args.seed},{inst.event_count},,{status},,,{wall_ms:.6f}"
    else:
        order_txt = " ".join(str(u) for u in sched.order)
        row = (
            f"{args.solver},{args.seed},{inst.event_count},{sched.objective:.6f},"
            f"{status},{sched.stops},{order_txt},{wall_ms:.6f}"
        )
    text = header + "\n" + row + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK if sched is not None else EXIT_INFEASIBLE


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        out_dir=args.out,
        seeds=args.seeds,
        per_run_time_limit=args.time_limit,
        solvers=args.solvers,
        sizes=args.sizes,
    )
    runs_path, agg_path = run_benchmark(cfg)
    print(runs_path)
    print(agg_path)
    return EXIT_OK


def _cmd_lp(args) -> int:
    inst = load(args.instance)
    text = linearize(inst).to_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lp":
            return _cmd_lp(args)
        parser.error(f"unknown command {args.command!r}")
    except (NoInitialSolutionError, NoSolutionFoundError):
        print("infeasible: no feasible schedule found", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EvrouteError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
