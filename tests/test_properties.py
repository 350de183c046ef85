"""Property tests over generated instances.

Examples are derived from a fixed seed (``derandomize``), so every run of
the suite checks the same instances.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from evroute import (
    AcoParams,
    AlnsParams,
    GenConfig,
    NodeKind,
    SolveStatus,
    TsParams,
    aco,
    alns,
    assemble_schedule,
    bfd_initial,
    generate,
    hybrid_dispatch,
    load,
    oracle,
    respects_anchor_order,
    save,
    solve_completion,
    solve_exact,
    tabu_search,
    validate,
)
from evroute.errors import GenerationFailedError, NoSolutionFoundError
from evroute.meta import _admissible_moves, _moves, _valid_positions

PROPERTY_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_nodes):
    """A generated instance of at most ``max_nodes`` nodes."""
    max_days = draw(st.integers(1, 2))
    events = draw(st.integers(1, max_nodes - 2 - max_days))
    seed = draw(st.integers(0, 2**31 - 1))
    try:
        return generate(GenConfig(seed=seed, event_count=events, max_days=max_days))
    except GenerationFailedError:
        reject()


def completions(base, removed):
    """Every order that keeps ``base`` as a subsequence and places each
    removed node somewhere before the end node."""
    if not removed:
        return {tuple(base)}
    out = set()
    for u in removed:
        rest = [x for x in removed if x != u]
        for p in range(1, len(base)):
            out |= completions(base[:p] + [u] + base[p:], rest)
    return out


@PROPERTY_SETTINGS
@given(instances(max_nodes=10))
def test_solve_exact_agrees_with_oracle(inst):
    assert inst.n <= 10
    best = oracle(inst)
    res = solve_exact(inst)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(best.objective, abs=1e-9)


@PROPERTY_SETTINGS
@given(st.data())
def test_solve_completion_matches_brute_force(data):
    inst = data.draw(instances(max_nodes=8))
    assert inst.n <= 8
    removable = [nd.id for nd in inst.nodes if nd.kind in (NodeKind.FIXED, NodeKind.FLEXIBLE)]
    removed = data.draw(
        st.lists(st.sampled_from(removable), min_size=1, max_size=min(3, len(removable)), unique=True)
    )
    base = [u for u in bfd_initial(inst).order if u not in removed]
    best = None
    for order in completions(base, removed):
        if not respects_anchor_order(order, inst):
            continue
        s = assemble_schedule(order, inst)
        if s is not None and (best is None or s.objective < best):
            best = s.objective
    got = solve_completion(inst, base, removed)
    # the removed nodes' BFD positions are one completion, so one exists
    assert best is not None and got is not None
    assert got.objective == pytest.approx(best, abs=1e-9)


@PROPERTY_SETTINGS
@given(instances(max_nodes=12))
def test_load_save_round_trip(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        save(inst, path)
        assert load(path) == inst


@PROPERTY_SETTINGS
@given(instances(max_nodes=10), st.integers(0, 2**16))
def test_every_solver_returns_a_schedule_that_validates(inst, rng_seed):
    results = [
        solve_exact(inst).schedule,
        tabu_search(inst, params=TsParams(iterations=5)),
        alns(inst, params=AlnsParams(iterations=10), rng_seed=rng_seed),
        hybrid_dispatch(inst, rng_seed=rng_seed),
    ]
    try:
        results.append(aco(inst, params=AcoParams(ants=5, iterations=3), rng_seed=rng_seed))
    except NoSolutionFoundError:
        pass
    for sched in results:
        assert validate(sched, inst) == []


def _with_entry(sched, field, u, value):
    entries = list(getattr(sched, field))
    entries[u] = value
    return replace(sched, **{field: tuple(entries)})


@PROPERTY_SETTINGS
@given(st.data())
def test_a_corrupted_schedule_always_yields_a_violation(data):
    inst = data.draw(instances(max_nodes=10))
    sched = bfd_initial(inst)
    assert validate(sched, inst) == []
    n = inst.n
    corruption = data.draw(st.sampled_from(["nan arrival", "range", "charge flag", "duplicate", "end gain"]))
    u = data.draw(st.integers(0, n - 1))
    if corruption == "nan arrival":
        bad = _with_entry(sched, "arrival", u, math.nan)
    elif corruption == "range":
        shift = data.draw(st.sampled_from([-1e-3, 1e-3]))
        bad = _with_entry(sched, "ranges", u, sched.ranges[u] + shift)
    elif corruption == "charge flag":
        bad = _with_entry(sched, "charge", u, 2)
    elif corruption == "duplicate":
        i = data.draw(st.integers(1, len(sched.order) - 2))
        order = list(sched.order)
        order.insert(data.draw(st.integers(1, len(order) - 1)), order[i])
        bad = replace(sched, order=tuple(order))
    else:
        bad = _with_entry(sched, "gain", n - 1, data.draw(st.floats(1e-3, 100.0)))
    assert validate(bad, inst) != []


@st.composite
def orders(draw, inst, keep_anchor_order):
    """A full visit order of ``inst``; with ``keep_anchor_order`` its fixed
    events and separators sit in rank order on the slots they drew."""
    interior = draw(st.permutations(range(1, inst.n - 1)))
    if keep_anchor_order:
        rank = inst.anchor_rank
        slots = [k for k, u in enumerate(interior) if u in rank]
        for k, u in zip(slots, sorted((u for u in interior if u in rank), key=rank.get)):
            interior[k] = u
    return [0, *interior, inst.n - 1]


@PROPERTY_SETTINGS
@given(st.data())
def test_tabu_screen_admits_exactly_the_anchor_respecting_moves(data):
    inst = data.draw(instances(max_nodes=12))
    order = tuple(data.draw(orders(inst, keep_anchor_order=True)))
    assert respects_anchor_order(order, inst)
    moves = _moves(inst.n)
    expected = [m for m, _, _ in moves if respects_anchor_order(m.apply(order), inst)]
    assert _admissible_moves(order, inst.anchor_rank, moves) == expected


@PROPERTY_SETTINGS
@given(st.data())
def test_valid_positions_match_brute_force(data):
    inst = data.draw(instances(max_nodes=12))
    order = data.draw(orders(inst, keep_anchor_order=data.draw(st.booleans())))
    node = order.pop(data.draw(st.integers(1, len(order) - 2)))
    # the reference: every slot whose insertion keeps the anchored order
    expected = [
        p for p in range(1, len(order)) if respects_anchor_order(order[:p] + [node] + order[p:], inst)
    ]
    assert _valid_positions(order, node, inst) == expected
