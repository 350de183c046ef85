"""Property tests over generated instances.

Examples are derived from a fixed seed (``derandomize``), so every run of
the suite checks the same instances.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from evroute import (
    AcoParams,
    AlnsParams,
    ChargingOption,
    EventNode,
    GenConfig,
    Instance,
    NodeKind,
    SearchTrace,
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
    plan_charging,
    propagate_times,
    save,
    solve_completion,
    solve_exact,
    tabu_search,
    validate,
)
from evroute import meta
from evroute.core import RANGE_TOL, TIME_TOL, Weights, objective_floor
from evroute.errors import GenerationFailedError, NoInitialSolutionError, NoSolutionFoundError
from evroute.meta import (
    ETA_EPS,
    _RunMemo,
    _admissible_moves,
    _by_top,
    _construct_route,
    _moves,
    _pass_weights,
    _valid_positions,
)
from evroute.schedule import _range_pass, _retime, _time_step

from helpers import (
    RecomputingMemo,
    _reference_gains,
    _reference_ranges,
    reference_aco,
    reference_assemble,
    reference_construct_route,
    reference_propagate_times,
    reference_tabu_search,
    reference_time_step,
    respects_anchor_order,
)

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
    expected = [m for m, *_ in moves if respects_anchor_order(m.apply(order), inst)]
    admitted = _admissible_moves(order, inst.anchor_rank, moves)
    assert [m for m, *_ in admitted] == expected


@PROPERTY_SETTINGS
@given(st.data())
def test_valid_positions_match_brute_force(data):
    # ALNS asks only for orders that keep the anchored order
    inst = data.draw(instances(max_nodes=12))
    order = data.draw(orders(inst, keep_anchor_order=True))
    node = order.pop(data.draw(st.integers(1, len(order) - 2)))
    # the reference: every slot whose insertion keeps the anchored order
    expected = [
        p for p in range(1, len(order)) if respects_anchor_order(order[:p] + [node] + order[p:], inst)
    ]
    assert _valid_positions(order, node, inst) == expected


@st.composite
def multiday_instances(draw):
    """A generated instance of 20-30 events over 2-3 days, where most orders
    need charging stops."""
    seed = draw(st.integers(0, 2**31 - 1))
    events = draw(st.integers(20, 30))
    try:
        return generate(GenConfig(seed=seed, event_count=events, max_days=draw(st.integers(2, 3))))
    except GenerationFailedError:
        reject()


@st.composite
def grid_instances(draw):
    """A small instance on a one-minute grid whose id order is its visit
    order.  Some windows open exactly one walk after the uncharged arrival,
    so a stop there leaves its own arrival unchanged and delays only the
    departure."""
    count = draw(st.integers(4, 8))
    small = st.integers(0, 4)
    travel = np.array(draw(st.lists(st.lists(small, min_size=count, max_size=count),
                                    min_size=count, max_size=count)), dtype=float)
    np.fill_diagonal(travel, 0.0)
    start_walk = draw(st.sampled_from([None, 1.0, 2.0]))
    nodes = [EventNode(0, NodeKind.START, 0.0, 1000.0, 0.0,
                       charging=None if start_walk is None else ChargingOption(start_walk, 1.0, 50.0))]
    separators = []
    ref = arrival = 0.0
    for u in range(1, count - 1):
        prev = nodes[-1]
        depart = prev.a_max if prev.kind is NodeKind.SEPARATOR else arrival + prev.duration
        lb = depart + float(travel[u - 1, u])
        walk = draw(st.sampled_from([None, 0.0, 1.0, 2.0, 3.0]))
        charging = None if walk is None else ChargingOption(walk, 1.0, 50.0)
        kind = draw(st.sampled_from([NodeKind.FLEXIBLE, NodeKind.FLEXIBLE, NodeKind.FIXED, NodeKind.SEPARATOR]))
        duration = 0.0 if kind is NodeKind.SEPARATOR else float(draw(small))
        pin = None
        if kind is NodeKind.SEPARATOR:
            a_min = 0.0
            arrival = max(lb, ref)
            separators.append(u)
        elif kind is NodeKind.FIXED:
            a_min = float(draw(st.integers(0, 12)))
            arrival = pin = max(lb, a_min) + draw(st.integers(0, 3))
        else:
            a_min = draw(st.sampled_from([lb + (walk or 0.0), float(draw(st.integers(0, 12)))]))
            arrival = max(lb, a_min)
        a_max = arrival + duration + draw(st.integers(0, 10))
        if kind is NodeKind.SEPARATOR:
            ref = a_max
        nodes.append(EventNode(u, kind, a_min, a_max, duration, fixed_arrival=pin, charging=charging))
    nodes.append(EventNode(count - 1, NodeKind.END, 0.0, 1000.0, 0.0))
    return Instance(nodes=tuple(nodes), dist=travel, travel=travel, k_min=0.0, k_max=100.0,
                    k_start=100.0, separators=tuple(separators))


@PROPERTY_SETTINGS
@given(st.data())
def test_retiming_a_flipped_stop_equals_full_propagation(data):
    source = data.draw(st.sampled_from(["small", "multiday", "grid"]))
    if source == "grid":
        inst = data.draw(grid_instances())
        order = list(range(inst.n))
    elif source == "multiday":
        inst = data.draw(multiday_instances())
        order = list(bfd_initial(inst).order)
    else:
        inst = data.draw(instances(max_nodes=12))
        order = data.draw(orders(inst, keep_anchor_order=data.draw(st.booleans())))
    chargers = [u for u in order if inst.nodes[u].charging is not None]
    stops = data.draw(st.sets(st.sampled_from(chargers), max_size=3)) if chargers else set()
    charge = [int(u in stops) for u in range(inst.n)]
    base = reference_propagate_times(order, charge, inst)
    if base is None:
        charge = [0] * inst.n
        base = reference_propagate_times(order, charge, inst)
        if base is None:
            reject()
    # every position, the route start and the end included, both directions
    for p, u in enumerate(order):
        flipped = list(charge)
        flipped[u] = 1 - flipped[u]
        _assert_retimed(_retime(order, flipped, base, p, p + 1, inst), order, flipped, inst)


@PROPERTY_SETTINGS
@given(st.data())
def test_timing_in_full_equals_the_reference_walk(data):
    # the identity order of a grid instance, the BFD order or any order,
    # under any flags (those of charger-less nodes and the end node
    # included); the start node may get a charger, and its window may break
    # at the route start, with or without the walk to a start charger
    source = data.draw(st.sampled_from(["grid", "small", "multiday"]))
    if source == "grid":
        inst = data.draw(grid_instances())
        order = list(range(inst.n))
    else:
        inst = data.draw(instances(max_nodes=12) if source == "small" else multiday_instances())
        if data.draw(st.booleans()):
            order = list(bfd_initial(inst).order)
        else:
            order = data.draw(orders(inst, keep_anchor_order=data.draw(st.booleans())))
    start = inst.nodes[0]
    variant = data.draw(st.sampled_from(["as drawn", "start charger", "short start", "closed start"]))
    if variant != "as drawn":
        walk = float(data.draw(st.integers(0, 30)))
        start = replace(start, charging=ChargingOption(walk, 1.0, 50.0))
    if variant == "short start":  # breaks when the start charger is flagged
        start = replace(start, a_min=0.0, a_max=walk / 2.0, duration=0.0)
    elif variant == "closed start":  # closes before 0, where every route starts
        start = replace(start, a_min=-30.0, a_max=-20.0, duration=0.0)
    inst = replace(inst, nodes=(start, *inst.nodes[1:]))
    drawn = data.draw(st.lists(st.sampled_from((0, 0, 1)), min_size=inst.n, max_size=inst.n))
    zeros = [0] * inst.n
    # the drawn flags, none, and the start node's alone
    for charge in (drawn, zeros, [1, *zeros[1:]]):
        _assert_retimed(_retime(order, charge, None, 0, len(order), inst), order, charge, inst)


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(st.data())
def test_assembly_equals_the_reference_planner(data):
    # multi-day orders take two draws in three: they need the most stops,
    # so they drive the planner's resumed range passes furthest
    multiday = data.draw(st.sampled_from([False, True, True]))
    inst = data.draw(multiday_instances() if multiday else instances(max_nodes=10))
    base = list(bfd_initial(inst).order)
    candidates = [base]
    for _ in range(4):
        i = data.draw(st.integers(1, len(base) - 2))
        j = data.draw(st.integers(1, len(base) - 2))
        moved = list(base)
        moved.insert(j, moved.pop(i))
        candidates.append(moved)
    for order in candidates:
        # repr compares every float bit for bit
        assert repr(assemble_schedule(order, inst)) == repr(reference_assemble(order, inst))
        # the planner's gains are its flags' gains, whatever passes it resumed
        planned = plan_charging(order, inst)
        if planned is not None:
            assert repr(planned[1]) == repr(_reference_gains(order, planned[0], inst))


def _reference_range_pass(order, charge, inst):
    gains = _reference_gains(order, charge, inst)
    return (gains, *_reference_ranges(order, gains, inst))


@PROPERTY_SETTINGS
@given(st.data())
def test_range_pass_equals_the_reference_chain(data):
    inst = data.draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    order = data.draw(orders(inst, keep_anchor_order=True))
    # flags on nodes without a charger and on the end node must be ignored
    charge = data.draw(st.lists(st.sampled_from((0, 1)), min_size=inst.n, max_size=inst.n))
    # repr compares every float bit for bit
    assert repr(_range_pass(order, charge, inst)) == repr(_reference_range_pass(order, charge, inst))


@st.composite
def range_cases(draw):
    """An instance, a full order of it and drawn charge flags (the end
    node's and charger-less nodes' included) for the range chain.  The start
    range is sometimes drawn low, so that deficits come early, and an edge
    of the order sometimes gets a NaN distance."""
    inst = draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    order = draw(orders(inst, keep_anchor_order=draw(st.booleans())))
    if draw(st.booleans()):
        inst = replace(inst, k_start=inst.k_min + draw(st.floats(0.0, 1.0)) * (inst.k_max - inst.k_min))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(order) - 2))
        dist = inst.dist.copy()
        dist[order[k], order[k + 1]] = math.nan
        inst = replace(inst, dist=dist)
    charge = draw(st.lists(st.sampled_from((0, 1)), min_size=inst.n, max_size=inst.n))
    return inst, order, charge


@PROPERTY_SETTINGS
@given(range_cases())
def test_resuming_the_range_pass_at_a_flipped_flag_equals_the_full_pass(case):
    # every position, so each flag goes on or off before, at and after the
    # first deficit, the start and end nodes included
    _assert_range_passes_equal_the_reference(*case)


def _assert_range_passes_equal_the_reference(inst, order, charge):
    """A full pass under ``charge``, and full and resumed passes with each
    position's flag flipped, equal the reference chain."""
    ref = _range_pass(order, charge, inst)
    # repr compares every float bit for bit, the sign of zero and NaN included
    assert repr(ref) == repr(_reference_range_pass(order, charge, inst))
    for p, u in enumerate(order):
        flipped = list(charge)
        flipped[u] = 1 - flipped[u]
        want = repr(_reference_range_pass(order, flipped, inst))
        assert repr(_range_pass(order, flipped, inst)) == want
        assert repr(_range_pass(order, flipped, inst, ref, p)) == want, p


@PROPERTY_SETTINGS
@given(range_cases(), st.data())
def test_a_chain_of_resumed_range_passes_equals_the_full_pass(case, data):
    # each pass resumes from the one before, as the planner adds, drops and
    # tries stops
    inst, order, charge = case
    state = _range_pass(order, charge, inst)
    for p in data.draw(st.lists(st.integers(0, len(order) - 1), min_size=1, max_size=12)):
        charge[order[p]] = 1 - charge[order[p]]
        state = _range_pass(order, charge, inst, state, p)
        assert repr(state) == repr(_reference_range_pass(order, charge, inst)), p


@st.composite
def tie_cases(draw):
    """A one-day instance on whole kilometres and minutes with wide windows,
    a full order of it and drawn charge flags (the end node's included).

    Small whole numbers make the range chain meet its ties: a charge that
    fills the battery exactly (range plus gain equal to ``k_max``), a
    headroom equal to a charger's total gain, and zero headroom or zero
    gain.  Chargers' total gains are also drawn as ``-0.0`` and as
    ``RANGE_TOL``, the stop ranking's threshold; ``k_max`` and ``k_start``
    as ``-0.0``; and an edge of the order sometimes gets a NaN distance.
    The end-of-route charge sometimes carries weight, so that assembly runs
    its end-charge loop.
    """
    n = draw(st.integers(3, 8))
    k_max = draw(st.sampled_from([-0.0, 0.0, 3.0, 5.0, 8.0]))
    k_min = float(draw(st.integers(0, int(k_max))))
    k_start = float(draw(st.integers(int(k_min), int(k_max))))
    if k_start == 0.0 and draw(st.booleans()):
        k_start = -0.0
    caps = st.sampled_from([None, None, 0.0, -0.0, RANGE_TOL, 1.0, 2.0, 3.0, 5.0])
    nodes = []
    for u in range(n):
        kind = NodeKind.START if u == 0 else NodeKind.END if u == n - 1 else NodeKind.FLEXIBLE
        cap = None if u == n - 1 else draw(caps)
        charging = None if cap is None else ChargingOption(float(draw(st.integers(0, 2))), 1.0, cap)
        duration = 0.0 if u in (0, n - 1) else float(draw(st.integers(0, 3)))
        nodes.append(EventNode(u, kind, 0.0, 1000.0, duration, charging=charging))
    matrix = st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    dist, travel = (np.array(draw(matrix), dtype=float) for _ in range(2))
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(travel, 0.0)
    weights = Weights(1.0, 0.0, draw(st.sampled_from([0.0, 1.0])))
    inst = Instance(tuple(nodes), dist, travel, k_min, k_max, k_start, weights=weights)
    order = draw(orders(inst, keep_anchor_order=False))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        dist[order[k], order[k + 1]] = math.nan
        inst = replace(inst, dist=dist)
    charge = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    return inst, order, charge


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(tie_cases())
def test_range_chain_ties_equal_the_reference(case):
    # The range pass picks min's and max's operands by comparisons; on ties,
    # signed zeros and NaN it must pick the same ones, in full and resumed
    # passes and in the assemblies that chain them.  (Where it compares the
    # headroom with a charger's total gain, a tie holds the same float or
    # zeros of either sign, which the clamp at zero makes alike: there the
    # tie may go either way.)
    inst, order, charge = case
    _assert_range_passes_equal_the_reference(inst, order, charge)
    assert repr(assemble_schedule(order, inst)) == repr(reference_assemble(order, inst))


@st.composite
def timed_orders(draw):
    """An instance, a visit order of it that is time-feasible without
    stops, and that order's arrivals.  The order is the identity on grid
    instances, else the BFD order or, sometimes, one move away from it.
    Grid instances are drawn twice as often: their pinned, clamped and
    separator arrivals often equal the old ones inside a moved span, where
    the re-timing must not stop."""
    source = draw(st.sampled_from(["grid", "small", "grid", "multiday"]))
    if source == "grid":
        inst = draw(grid_instances())
        order = list(range(inst.n))
    else:
        inst = draw(instances(max_nodes=12) if source == "small" else multiday_instances())
        order = list(bfd_initial(inst).order)
        if len(order) > 3 and draw(st.booleans()):
            move, *_ = draw(st.sampled_from(_moves(len(order))))
            moved = list(move.apply(order))
            if propagate_times(moved, [0] * inst.n, inst) is not None:
                order = moved
    arrival = propagate_times(order, [0] * inst.n, inst)
    if arrival is None:
        reject()
    return inst, order, arrival


def _assert_retimed(got, order, charge, inst):
    """``got``, a timing of ``order`` under ``charge`` by ``_retime``, and
    ``propagate_times`` both equal the reference walk."""
    want = reference_propagate_times(order, charge, inst)
    # repr compares every float bit for bit, NaN included
    assert repr(propagate_times(order, charge, inst)) == repr(want)
    assert repr(None if got is None else tuple(got)) == repr(want)


@PROPERTY_SETTINGS
@given(timed_orders())
def test_retiming_a_span_equals_full_propagation(case):
    inst, order, arrival = case
    zeros = [0] * inst.n
    # every tabu move, with the span it reorders
    for move, lo, hi, _ in _moves(len(order)):
        moved = move.apply(order)
        _assert_retimed(_retime(moved, zeros, arrival, lo, hi, inst), moved, zeros, inst)
    # every slot of every removed node, against the order without it
    for k in range(1, len(order) - 1):
        rest = order[:k] + order[k + 1:]
        rest_arrival = propagate_times(rest, zeros, inst)
        if rest_arrival is None:
            continue
        for p in range(1, len(rest)):
            cand = rest[:p] + [order[k]] + rest[p:]
            _assert_retimed(_retime(cand, zeros, rest_arrival, p, p + 1, inst), cand, zeros, inst)


@PROPERTY_SETTINGS
@given(timed_orders())
def test_assembly_with_handed_arrivals_equals_full_assembly(case):
    inst, order, _ = case
    zeros = [0] * inst.n
    for move, *_ in _moves(len(order)):
        moved = move.apply(order)
        arrival = propagate_times(moved, zeros, inst)
        if arrival is not None:
            got = assemble_schedule(moved, inst, arrival=arrival)
            assert repr(got) == repr(assemble_schedule(moved, inst))


@PROPERTY_SETTINGS
@given(st.data())
def test_objective_floor_never_exceeds_the_assembled_objective(data):
    # on the instance as generated, without the epsilon terms, without the
    # end-charge weight, and with a charger at the start node, which the
    # generator never places there
    days = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**31 - 1))
    events = data.draw(st.integers(days, 10))
    try:
        inst = generate(GenConfig(seed=seed, event_count=events, max_days=days))
    except GenerationFailedError:
        reject()
    option = ChargingOption(data.draw(st.floats(0.0, 30.0)), 1.0, data.draw(st.floats(1.0, inst.k_max)))
    variants = [
        inst,
        replace(inst, epsilon=0.0),
        replace(inst, weights=replace(inst.weights, wc=0.0)),
        replace(inst, nodes=(replace(inst.nodes[0], charging=option), *inst.nodes[1:])),
    ]
    for _ in range(8):
        order = data.draw(orders(inst, keep_anchor_order=True))
        for v in variants:
            arrival = propagate_times(order, [0] * v.n, v)
            if arrival is None:
                continue
            sched = assemble_schedule(order, v)
            if sched is not None:
                assert objective_floor(order, arrival, v) <= sched.objective


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.data())
def test_tabu_search_equals_full_pricing(data):
    # the search re-times each candidate from the current order's arrivals;
    # pricing every candidate in full must give the same run
    inst = data.draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    iterations = data.draw(st.integers(1, 4))

    def run():
        trace = SearchTrace()
        try:
            sched = tabu_search(inst, params=TsParams(iterations=iterations), trace=trace)
        except NoInitialSolutionError:
            reject()
        return repr((sched, trace.best, trace.events))

    remembered = run()
    with mock.patch.object(meta, "_RunMemo", RecomputingMemo):
        assert run() == remembered


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(st.data())
def test_tabu_search_equals_the_reference_loop(data):
    # the search scans each order it stands on once and skips the moves the
    # follow table rejects; handing every move of every iteration to the
    # memo must give the same run, with and without aspiration and tabu lists
    small = data.draw(st.booleans())
    inst = data.draw(instances(max_nodes=12) if small else multiday_instances())
    lengths = st.one_of(st.none(), st.integers(0, 3))
    params = TsParams(
        tabu_len_swap=data.draw(lengths),
        tabu_len_insert=data.draw(lengths),
        iterations=data.draw(st.integers(1, 60 if small else 3)),
        aspiration=data.draw(st.booleans()),
    )

    def run(solve):
        trace = SearchTrace()
        try:
            sched = solve(inst, params=params, trace=trace)
        except NoInitialSolutionError:
            reject()
        return repr((sched, trace.best, trace.events))

    assert run(tabu_search) == run(reference_tabu_search)


@PROPERTY_SETTINGS
@given(st.data())
def test_no_order_the_follow_table_rejects_can_be_timed(data):
    # the BFD order of a 1-3-day instance, every move of it and drawn
    # orders, all keeping the anchored order; sometimes with a NaN travel
    # time on an edge of the BFD order, which the time step lets through
    # and which leaves a windowed node's arrival NaN downstream
    days = data.draw(st.integers(1, 3))
    try:
        inst = generate(GenConfig(seed=data.draw(st.integers(0, 2**31 - 1)),
                                  event_count=data.draw(st.integers(days, 12)), max_days=days))
        base = list(bfd_initial(inst).order)
    except (GenerationFailedError, NoInitialSolutionError):
        reject()
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(base) - 2))
        travel = inst.travel.copy()
        travel[base[k], base[k + 1]] = math.nan
        inst = replace(inst, travel=travel)
    candidates = [base, *(list(m.apply(base)) for m, *_ in _moves(len(base)))]
    candidates += [data.draw(orders(inst, keep_anchor_order=True)) for _ in range(8)]
    zeros = [0] * inst.n
    follows = inst.follows
    for order in candidates:
        rejected = not all(follows[u][v] for u, v in zip(order, order[1:]))
        if rejected and respects_anchor_order(order, inst):
            assert _retime(order, zeros, None, 0, len(order), inst) is None, order


# minutes with awkward binary fractions, so that sums round
_MINUTES = st.integers(0, 10**7).map(lambda k: k / 6143.0)


@st.composite
def kind_instances(draw):
    """An instance holding one node of every kind, a first-day and a
    later-day separator, and random fractional times and travel."""
    count = 6  # start, fixed, flexible, first separator, second separator, end
    travel = np.array(draw(st.lists(st.lists(_MINUTES, min_size=count, max_size=count),
                                    min_size=count, max_size=count)))
    np.fill_diagonal(travel, 0.0)

    def window():
        a_min, duration, slack = draw(_MINUTES), draw(_MINUTES), draw(_MINUTES)
        return a_min, a_min + duration + slack, duration

    def charging():
        walk = draw(st.integers(1, 10**5)) / 4999.0
        return draw(st.sampled_from([None, ChargingOption(walk, 1.0, 50.0)]))

    a_min, a_max, duration = window()
    pin = min(a_min + draw(st.floats(0.0, 1.0)) * (a_max - duration - a_min), a_max - duration)
    if pin < a_min:  # rounding left no room for a pin
        reject()
    sep1 = draw(_MINUTES)
    sep2 = sep1 + draw(_MINUTES)
    nodes = (
        EventNode(0, NodeKind.START, *window(), charging=charging()),
        EventNode(1, NodeKind.FIXED, a_min, a_max, duration, fixed_arrival=pin, charging=charging()),
        EventNode(2, NodeKind.FLEXIBLE, *window(), charging=charging()),
        EventNode(3, NodeKind.SEPARATOR, 0.0, sep1, 0.0, charging=charging()),
        EventNode(4, NodeKind.SEPARATOR, 0.0, sep2, 0.0, charging=charging()),
        EventNode(5, NodeKind.END, *window()),
    )
    return Instance(nodes=nodes, dist=travel, travel=travel, k_min=0.0, k_max=100.0,
                    k_start=100.0, separators=(3, 4))


@PROPERTY_SETTINGS
@given(kind_instances(), st.data())
def test_table_time_step_equals_the_attribute_step(inst, data):
    # every ordered pair of kinds (the first-day separator 3 and the
    # later-day separator 4 apart), charging at neither, one or both ends
    assert inst.day_ref == {3: None, 4: inst.nodes[3].a_max}
    a_prev = data.draw(_MINUTES)
    a0 = data.draw(_MINUTES)
    for prev in range(inst.n - 1):
        for v in range(1, inst.n):
            if v == prev:
                continue
            for w_prev in {0.0, inst.walk[prev]}:
                for w_v in {0.0, inst.walk[v]}:
                    got = _time_step(inst, prev, a_prev, w_prev, v, w_v, a0)
                    want = reference_time_step(inst, prev, a_prev, w_prev, v, w_v, a0)
                    assert repr(got) == repr(want), (prev, v, w_prev, w_v)


@PROPERTY_SETTINGS
@given(kind_instances(), st.data())
def test_follow_table_is_the_step_from_the_earliest_departure(inst, data):
    # a pair is rejected exactly when the step without walks from the
    # earliest departure fails, the route start left out (a0 = -inf); one
    # pair's travel is drawn to land its sum just inside the tolerance
    earliest = [nd.fixed_arrival if nd.kind is NodeKind.FIXED else nd.a_min for nd in inst.nodes]
    u = data.draw(st.integers(0, inst.n - 2))
    v = data.draw(st.integers(1, inst.n - 1).filter(lambda v: v != u))
    nu, nv = inst.nodes[u], inst.nodes[v]
    dep = nu.a_max if nu.kind is NodeKind.SEPARATOR else earliest[u] + nu.duration
    limit = nv.fixed_arrival if nv.kind is NodeKind.FIXED else nv.a_max - nv.duration
    if limit - dep >= 0:
        travel = inst.travel.copy()
        travel[u, v] = limit - dep + TIME_TOL / 2
        inst = replace(inst, travel=travel)
    for prev in range(inst.n - 1):
        for nxt in range(1, inst.n):
            if nxt != prev:
                step = reference_time_step(inst, prev, earliest[prev], 0.0, nxt, 0.0, -math.inf)
                assert inst.follows[prev][nxt] == (step is not None), (prev, nxt)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(st.data())
def test_ant_construction_equals_the_full_scan(data):
    # sometimes with a NaN travel time, often on an edge out of the start
    # node, which every ant weighs: the time step lets NaN through, so the
    # follow table must reject no step that the time step takes
    inst = data.draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    n = inst.n
    if data.draw(st.booleans()):
        u = data.draw(st.one_of(st.just(0), st.integers(0, n - 2)))
        v = data.draw(st.integers(1, n - 1).filter(lambda v: v != u))
        travel = inst.travel.copy()
        travel[u, v] = math.nan
        inst = replace(inst, travel=travel)
    p = AcoParams()
    w = inst.weights
    eta = (1.0 / (w.wd * inst.dist + w.wt * inst.travel + ETA_EPS)).tolist()
    tau = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.01, 2.0, (n, n)).tolist()
    anchored = meta.anchored_sequence(inst)
    by_top = _by_top(inst)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    memo = _RunMemo(inst)
    # one colony pass's weights, as aco builds them; the reference weighs
    # each step from the raw trails and desirabilities
    weights = _pass_weights(tau, [[e ** p.beta for e in row] for row in eta], p.alpha)
    for _ in range(8):
        route = _construct_route(inst, anchored, by_top, weights, rng)
        want = reference_construct_route(inst, anchored, tau, eta, p, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (route is None) == (want is None)
        if route is None:
            continue
        order, arrival = route
        assert order == want
        # as aco hands it over: the memo times the step into the end node
        last = len(order) - 1
        got = memo.assemble(order, arrival, last, last + 1, math.inf)
        assert repr(got) == repr(assemble_schedule(order, inst))


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.data())
def test_colony_equals_the_run_that_weighs_each_step_from_the_trails(data):
    # three or more colony passes, so that each pass's weights must follow
    # the trails the pass before it laid; alpha and beta are drawn, so that
    # the powers are not the defaults' exact ones
    inst = data.draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    params = AcoParams(
        alpha=data.draw(st.sampled_from([1.0, 0.5, 2.0])),
        beta=data.draw(st.sampled_from([2.0, 1.0, 3.5])),
        rho=data.draw(st.sampled_from([0.01, 0.3])),
        ants=data.draw(st.integers(2, 6)),
        iterations=data.draw(st.integers(3, 5)),
    )
    rng_seed = data.draw(st.integers(0, 2**32 - 1))
    trace, ref_trace = SearchTrace(), SearchTrace()
    try:
        got = aco(inst, params=params, rng_seed=rng_seed, trace=trace)
    except NoSolutionFoundError:
        with pytest.raises(NoSolutionFoundError):
            reference_aco(inst, params=params, rng_seed=rng_seed)
        return
    # repr compares every float bit for bit
    assert repr(got) == repr(reference_aco(inst, params=params, rng_seed=rng_seed, trace=ref_trace))
    assert trace.best == ref_trace.best
    assert trace.events == ref_trace.events


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.data())
def test_random_repair_never_times_an_order_the_follow_table_rejects(data):
    # every order the random repair hands to the run memory, which times it,
    # has only pairs the table passes; the run is the one without the screen
    inst = data.draw(st.one_of(instances(max_nodes=12), multiday_instances()))
    params = AlnsParams(iterations=data.draw(st.integers(1, 3)), repair_set=(meta.REPAIR_RANDOM,))
    rng_seed = data.draw(st.integers(0, 2**32 - 1))
    handed = []

    class Recording(_RunMemo):
        def assemble(self, order, *timing):
            handed.append(tuple(order))
            return super().assemble(order, *timing)

    with mock.patch.object(meta, "_RunMemo", Recording):
        try:
            got = alns(inst, params=params, rng_seed=rng_seed)
        except NoInitialSolutionError:
            reject()
    follows = inst.follows
    assert all(follows[u][v] for order in handed for u, v in zip(order, order[1:]))
    with mock.patch.object(meta, "_RunMemo", RecomputingMemo):
        assert repr(alns(inst, params=params, rng_seed=rng_seed)) == repr(got)
