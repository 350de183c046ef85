"""The benchmark's workloads: which instances each one generates and which
solver calls it makes on them.

A workload's instances come from generator seeds drawn from
``numpy.random.default_rng([seed, workload id])``.  Candidates are kept
when they fall into one of the workload's strata, defined by input
properties only (event count, days, fixed events, minutes of flexible
events), so that two seeds ask for similar amounts of work; nothing is
chosen by how a solver behaves on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Stratum:
    """``copies`` instances of ``event_count`` events over at most
    ``max_days`` days whose properties satisfy ``accept``."""

    event_count: int
    max_days: int
    copies: int
    accept: Callable[[dict], bool]
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    wid: int
    strata: tuple[Stratum, ...]
    # Solver calls per instance: solver name and the parameters that differ
    # from the library defaults.
    calls: tuple[tuple[str, dict], ...]

    @property
    def solvers(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(solver for solver, _ in self.calls))


def _half_fixed(props: dict) -> bool:
    return props["fixed"] == math.ceil(props["events"] / 2)


def _packed(lo: float, hi: float):
    """Half the events fixed, and flexible events of ``lo``-``hi`` minutes on
    average: how packed the days are sets how many orders are feasible, and
    with it most of the searches' work."""

    def accept(props: dict) -> bool:
        flexible = props["events"] - props["fixed"]
        return _half_fixed(props) and lo * flexible <= props["flex_minutes"] <= hi * flexible

    return accept


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            wid=1,
            strata=tuple(
                Stratum(ev, 1, 4, _packed(35, 50),
                        f"{ev} events, 1 day, {math.ceil(ev / 2)} fixed, flexible 35-50 min")
                for ev in (6, 7, 8)
            ),
            calls=(("exact", {}), ("ts", {}), ("alns", {}), ("aco", {})),
        ),
        Workload(
            name="multiday",
            wid=2,
            strata=(
                Stratum(
                    30, 5, 12,
                    lambda p: p["days"] == 3 and _packed(29, 34)(p),
                    "30 events, 3 days, 15 fixed, flexible 29-34 min",
                ),
            ),
            # ALNS runs 9 iterations as three 3-iteration calls, one per repair
            # operator: the default roulette draws each operator a third of the
            # time before its first weight update (iteration 20), but how often
            # it draws the costly random repair varies with the solver seed.
            # Split, every round does the same mix.
            calls=(
                ("ts", {"iterations": 5}),
                ("alns", {"iterations": 3, "repair_set": ("random",)}),
                ("alns", {"iterations": 3, "repair_set": ("constructive",)}),
                ("alns", {"iterations": 3, "repair_set": ("exactMip",)}),
                ("aco", {"iterations": 30}),
            ),
        ),
    )
}

def properties(inst, events: int) -> dict:
    kinds = [nd.kind.value for nd in inst.nodes]
    return {
        "events": events,
        "days": len(inst.separators),
        "fixed": kinds.count("fixed"),
        "flex_minutes": sum(nd.duration for nd in inst.nodes if nd.kind.value == "flexible"),
    }


@dataclass(frozen=True)
class Case:
    """One instance of a workload: its generator config and stratum."""

    index: int
    gen_seed: int
    stratum: Stratum


def select_cases(ev, workload: Workload, seed: int, max_draws: int = 2000) -> list[Case]:
    """Draw generator seeds until every stratum holds its copies."""
    rng = np.random.default_rng([seed, workload.wid])
    cases: list[Case] = []
    for stratum in workload.strata:
        kept = 0
        for _ in range(max_draws):
            if kept == stratum.copies:
                break
            gen_seed = int(rng.integers(0, 2**31 - 1))
            try:
                inst = ev.gen.generate(gen_config(ev, stratum, gen_seed))
            except ev.GenerationFailedError:
                continue
            if stratum.accept(properties(inst, stratum.event_count)):
                cases.append(Case(len(cases), gen_seed, stratum))
                kept += 1
        if kept < stratum.copies:
            raise RuntimeError(f"{workload.name}: stratum '{stratum.label}' not filled in {max_draws} draws")
    return cases


def gen_config(ev, stratum: Stratum, gen_seed: int):
    return ev.GenConfig(seed=gen_seed, event_count=stratum.event_count, max_days=stratum.max_days)


def call_solver(ev, solver: str, params: dict, inst, rng_seed: int):
    """One solver call as ``evroute solve``/``evroute bench`` make it, with
    ``params`` overriding library defaults.

    Returns ``(schedule, info)``: the ``ExactResult`` for the exact search,
    the filled ``SearchTrace`` for the metaheuristics.
    """
    if solver == "exact":
        res = ev.exact.solve_exact(inst, ev.BnBConfig())
        return res.schedule, res
    fn, params_type = {
        "ts": (ev.meta.tabu_search, ev.TsParams),
        "alns": (ev.meta.alns, ev.AlnsParams),
        "aco": (ev.meta.aco, ev.AcoParams),
    }[solver]
    trace = ev.SearchTrace()
    return fn(inst, params=params_type(**params), rng_seed=rng_seed, trace=trace), trace
