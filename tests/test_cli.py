import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import evroute.bench
import evroute.cli
from evroute import bfd_initial, load
from evroute.cli import main


@pytest.fixture()
def instance_path(tmp_path):
    p = tmp_path / "inst.json"
    rc = main(["gen", "--seed", "7", "--events", "4", "--max-days", "1", "--out", str(p)])
    assert rc == 0
    return p


def test_gen_writes_multiple_files(tmp_path):
    out = tmp_path / "batch"
    rc = main(["gen", "--seed", "3", "--count", "2", "--events", "3", "--max-days", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "instance_3.json").exists() and (out / "instance_4.json").exists()


def test_solve_writes_report_csv(instance_path, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["solve", str(instance_path), "--solver", "exact", "--time-limit", "10", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["status"] == "optimal"
    assert float(rows[0]["objective"]) > 0


def test_solve_stdout_and_weights_flag(instance_path, capsys):
    rc = main(["solve", str(instance_path), "--solver", "ts", "--weights", "0.5,0.3,0.2", "--epsilon", "0.01"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("solver,seed,n_events,objective")


def test_lp_output(instance_path, tmp_path):
    out = tmp_path / "model.lp"
    rc = main(["lp", str(instance_path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# multi-day EV routing")
    assert "min:" in text and "flow_out_0:" in text and "bin x_0_1" in text


def test_bench_subcommand(tmp_path):
    out = tmp_path / "bench"
    rc = main([
        "bench", "--seeds", "2", "--sizes", "3", "--solvers", "exact,ts",
        "--time-limit", "10", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "runs.csv").exists() and (out / "aggregate.csv").exists()


@pytest.mark.parametrize("limit", ["nan", "-1", "0"])
def test_time_limit_must_be_positive(instance_path, tmp_path, limit, capsys):
    assert main(["solve", str(instance_path), "--solver", "ts", "--time-limit", limit]) == 2
    out = tmp_path / "bench"
    assert main(["bench", "--seeds", "1", "--sizes", "3", "--time-limit", limit, "--out", str(out)]) == 2
    assert not out.exists()
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--solvers", "foo"), ("--solvers", "exact,"), ("--seeds", "0"), ("--seeds", "-2"), ("--seeds", "1,-1"),
    ("--sizes", "-3"), ("--sizes", "0"), ("--sizes", "4,0"), ("--sizes", ","),
])
def test_bad_bench_arguments_are_usage_errors(tmp_path, flag, value, capsys):
    out = tmp_path / "bench"
    args = {"--seeds": "1", "--sizes": "3", "--solvers": "ts", flag: value}
    argv = ["bench", "--time-limit", "1", "--out", str(out)]
    for name, text in args.items():
        argv += [name, text]
    assert main(argv) == 2
    assert not out.exists()
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gen_count_must_be_positive(tmp_path, count, capsys):
    out = tmp_path / "batch"
    assert main(["gen", "--seed", "3", "--count", count, "--events", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert "argument --count" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--weights", "nan,1,1"), ("--weights", "inf,0,0"), ("--epsilon", "nan"), ("--epsilon", "inf"),
])
def test_non_finite_weights_and_epsilon_are_usage_errors(instance_path, flag, value, capsys):
    assert main(["solve", str(instance_path), "--solver", "ts", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--weights", "1,1,1"], ["--weights", "0.5,0.5,0.5"], ["--weights=-0.5,1,0.5"],
])
def test_weights_off_the_simplex_are_usage_errors(instance_path, argv, capsys):
    assert main(["solve", str(instance_path), "--solver", "ts", *argv]) == 2
    err = capsys.readouterr().err
    assert "summing to 1" in err
    assert "internal error" not in err


def test_usage_error_exit_code():
    assert main(["solve"]) == 2
    assert main(["unknown-command"]) == 2


def test_infeasible_exit_code(tmp_path, instance_path):
    # make the instance impossible: two identical pinned events
    doc = json.loads(Path(instance_path).read_text())
    fixed = [nd for nd in doc["nodes"] if nd["kind"] == "fixed"]
    if len(fixed) < 2:
        pytest.skip("instance has fewer than two fixed events")
    fixed[1]["fixed_arrival"] = fixed[0]["fixed_arrival"]
    fixed[1]["a_min"] = fixed[0]["a_min"]
    fixed[1]["a_max"] = fixed[0]["a_max"]
    fixed[1]["duration"] = fixed[0]["duration"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    rc = main(["solve", str(p), "--solver", "exact"])
    assert rc == 1


def test_internal_error_exit_code(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == 3


def test_solve_rejects_a_schedule_that_fails_validation(instance_path, tmp_path, monkeypatch, capsys):
    sched = bfd_initial(load(instance_path))
    ranges = list(sched.ranges)
    ranges[1] += 1.0
    broken = replace(sched, ranges=tuple(ranges))
    monkeypatch.setattr(evroute.cli, "run_solver", lambda *args: (broken, "feasible", 1.0))
    out = tmp_path / "run.csv"
    rc = main(["solve", str(instance_path), "--solver", "ts", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rangeChain at" in captured.err


def test_bench_rejects_a_schedule_that_fails_validation(tmp_path, monkeypatch, capsys):
    def broken_solver(solver, inst, limit, rng_seed):
        sched = bfd_initial(inst)
        ranges = list(sched.ranges)
        ranges[1] += 1.0
        return replace(sched, ranges=tuple(ranges)), "feasible", 1.0

    monkeypatch.setattr(evroute.bench, "run_solver", broken_solver)
    out = tmp_path / "bench"
    rc = main(["bench", "--seeds", "1", "--sizes", "3", "--solvers", "ts", "--out", str(out)])
    assert rc == 3
    assert (out / "INCOMPLETE").exists()
    assert not (out / "runs.csv").exists()
    err = capsys.readouterr().err
    assert "the ts schedule for 3 events, seed 0, fails validation: rangeChain at" in err


def test_gen_rejects_a_bad_config_before_writing(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["gen", "--seed", "1", "--count", "2", "--events", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert "event_count" in capsys.readouterr().err


@pytest.mark.parametrize("area", ["nan", "inf"])
def test_gen_rejects_a_non_finite_area_before_writing(tmp_path, capsys, area):
    out = tmp_path / "batch"
    assert main(["gen", "--seed", "1", "--count", "2", "--events", "6", "--area-km", area,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "area_km" in capsys.readouterr().err


def test_negative_seeds_are_usage_errors(instance_path, tmp_path, capsys):
    out = tmp_path / "neg.json"
    assert main(["gen", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "argument --seed" in capsys.readouterr().err
    assert main(["solve", str(instance_path), "--solver", "aco", "--seed", "-1"]) == 2
    assert "argument --seed" in capsys.readouterr().err
