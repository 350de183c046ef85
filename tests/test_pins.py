"""Golden outputs of the deterministic solver paths.

Two instances are stored as instance files, so no random stream enters
them: an 8-event single-day one and a 30-event three-day one, written by
``save`` from ``generate(GenConfig(seed=1, event_count=8, max_days=1))``
and ``generate(GenConfig(seed=1, event_count=30, max_days=3))``.  For best-fit
decreasing (BFD), tabu search and assembly on fixed orders, each test pins
the objective, the visit order and a sha256 of the full ``repr`` of the
output, which covers every float bit for bit.  A change that is meant to
leave solver outputs alone must leave every pin here as it is.  ALNS and
ACO draw from numpy's generator, whose streams may differ across numpy
versions; ``TestRunMemo`` in ``test_meta.py`` covers them instead.

The same outputs are pinned a second time under the preferences
(0.2, 0.3, 0.5), normalised against each instance and carried by the
instance, so the end-charge term weighs in and the planner's end-charge
rounds run.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from evroute import (
    Move,
    SearchTrace,
    TsParams,
    assemble_schedule,
    bfd_initial,
    load,
    normalize_weights,
    tabu_search,
)

DATA = Path(__file__).parent / "data"
PREFS = (0.2, 0.3, 0.5)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def day():
    return load(DATA / "pin_day.json")


@pytest.fixture(scope="module")
def multiday():
    return load(DATA / "pin_multiday.json")


def weighted(inst):
    return replace(inst, weights=normalize_weights(inst, PREFS))


def pinned_orders(base):
    """Twenty short swaps and inserts spread over the interior of ``base``.
    Most break the timetable, as most candidates of a search do; the rest
    need charging stops."""
    inner = len(base) - 2
    out = []
    for k in range(20):
        i = 1 + (5 * k) % inner
        j = min(i + 1 + k % 3, inner)
        out.append(Move("swap" if k % 2 else "insert", i, j).apply(base))
    return out


BFD_PINS = {
    "day": (
        0.9091040675329816,
        (0, 3, 2, 1, 5, 4, 7, 8, 6, 9, 10),
        'bdb5e34abefd58b66f9406e685994d4c4a0344de2cdb51527ec76f225ccebc79',
    ),
    "multiday": (
        0.9643094330112827,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 29, 31, 33, 34),
        '580bf4ed10ecd8ae79e43be06f2d0932df38d9cef32258ada48c5db1c044e57e',
    ),
}
TABU_PINS = {
    "day": (
        0.8967033423567252,
        (0, 3, 2, 1, 5, 7, 8, 4, 6, 9, 10),
        'a3dda65836cb9af1151ec9c297bd86950c4ec8bd02488147f5d436240c3b0f16',
    ),
    "multiday": (
        0.7716333537712077,
        (0, 3, 5, 6, 4, 7, 2, 8, 9, 1, 10, 11, 21, 19, 12, 15, 13, 14, 16, 17, 18, 20, 22, 25, 24, 23, 26, 27, 29, 30, 28, 32, 31, 33, 34),
        '9aa85a55731b698c1a472e3d8f01a28942af1d1a8bde3345558cd3f29d79e0d5',
    ),
}
# one entry per pinned order: None where assembly finds no schedule
ASSEMBLY_PINS = [
    None,
    None,
    None,
    None,
    None,
    None,
    (
        0.983262862527742,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 31, 29, 33, 34),
        '398085c266962c25e53272fda287c944fb81fc02ee95f7f57d8d6402d1fce935',
    ),
    None,
    None,
    None,
    None,
    None,
    (
        0.9575819525867784,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 30, 32, 28, 29, 31, 33, 34),
        'f57cd9197e03067f4e95b9e385ae7138066128e8a804de025939d7dcdcf0e45b',
    ),
    (
        0.9643094330112827,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 29, 31, 33, 34),
        '580bf4ed10ecd8ae79e43be06f2d0932df38d9cef32258ada48c5db1c044e57e',
    ),
    None,
    None,
    None,
    None,
    (
        0.9594606502207881,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 23, 26, 27, 32, 30, 28, 29, 31, 33, 34),
        '67520607864dee4ebbced4c2d06caf280664c9de24e46bed7acc3fdd73d709c4',
    ),
    (
        0.9931643159240886,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 31, 29, 28, 33, 34),
        '30921da87eeedc9cb6e3d657ff9c98d6c86bb69b7e0e41f0f3b4dd62ca1f11cb',
    ),
]

WEIGHTED_BFD_PINS = {
    "day": (
        0.5044181609855549,
        (0, 3, 2, 1, 5, 4, 7, 8, 6, 9, 10),
        '01fc07c32b141d8dffa29aafbfd7e6d97f6eff1796c03f0fbf185ea07f2d42eb',
    ),
    "multiday": (
        0.6536909636793562,
        (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 29, 31, 33, 34),
        'aff7ef7a416d0be91a46bf453b9b527ab3dc03cb346c92482cb18b03b9580b9c',
    ),
}
WEIGHTED_TABU_PINS = {
    "day": (
        0.5023575984951345,
        (0, 3, 2, 1, 5, 7, 4, 8, 6, 9, 10),
        '241642bf6bedc4d1a28dbdd39774179492f40c2f69b4e3bac1f7f705822f6dea',
    ),
    "multiday": (
        0.4199269366143132,
        (0, 3, 5, 6, 4, 7, 2, 8, 9, 1, 10, 11, 21, 19, 12, 15, 13, 14, 16, 17, 18, 20, 22, 25, 24, 23, 26, 27, 29, 30, 28, 32, 31, 33, 34),
        'c816d348f2569733fa6515bb2635fc76858adadbcc41572349181b736a6a0508',
    ),
}
WEIGHTED_ASSEMBLY_PINS = {
    "day": [
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        (
            0.5044181609855549,
            (0, 3, 2, 1, 5, 4, 7, 8, 6, 9, 10),
            '01fc07c32b141d8dffa29aafbfd7e6d97f6eff1796c03f0fbf185ea07f2d42eb',
        ),
        (
            0.5671217252518761,
            (0, 3, 2, 1, 5, 7, 8, 6, 4, 9, 10),
            'cb8c429c4a2ffb41319b12994b57afe812b02e43c6b7fe37c481ed89b9ad738c',
        ),
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        (
            0.5044181609855549,
            (0, 3, 2, 1, 5, 4, 7, 8, 6, 9, 10),
            '01fc07c32b141d8dffa29aafbfd7e6d97f6eff1796c03f0fbf185ea07f2d42eb',
        ),
        None,
        None,
        None,
    ],
    "multiday": [
        None,
        None,
        None,
        None,
        None,
        None,
        (
            0.6721932865001756,
            (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 31, 29, 33, 34),
            '9b79b39cf3cf844c9906d340311cefdc6c74a21a9fdd5be31e8bbe1c4a4d2853',
        ),
        None,
        None,
        None,
        None,
        None,
        (
            0.647123602634134,
            (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 30, 32, 28, 29, 31, 33, 34),
            '3d2405c2f18773999e12e4287c6813d3759fd34f66176f987cdf109109439091',
        ),
        (
            0.6536909636793562,
            (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 28, 29, 31, 33, 34),
            'aff7ef7a416d0be91a46bf453b9b527ab3dc03cb346c92482cb18b03b9580b9c',
        ),
        None,
        None,
        None,
        None,
        (
            0.6489083034698979,
            (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 23, 26, 27, 32, 30, 28, 29, 31, 33, 34),
            '78378d97e1dd97a35a7e1c38624e64f35e838b7399bc330b63119e75ebc2689f',
        ),
        (
            0.6818590774195235,
            (0, 3, 4, 5, 6, 7, 2, 8, 1, 9, 10, 11, 19, 12, 15, 13, 14, 16, 17, 21, 18, 20, 22, 25, 24, 26, 23, 27, 32, 30, 31, 29, 28, 33, 34),
            'aa7172619551084375d9fffab6d7e093464b96a9e2e7312fb77840d5ed52fadf',
        ),
    ],
}


@pytest.mark.parametrize("name", ["day", "multiday"])
def test_bfd_initial_is_pinned(name, request):
    sched = bfd_initial(request.getfixturevalue(name))
    assert (sched.objective, sched.order, digest(sched)) == BFD_PINS[name]


@pytest.mark.parametrize("name, iterations", [("day", 50), ("multiday", 5)])
def test_tabu_search_is_pinned(name, iterations, request):
    trace = SearchTrace()
    sched = tabu_search(request.getfixturevalue(name), params=TsParams(iterations=iterations), trace=trace)
    got = (sched.objective, sched.order, digest((sched, trace.best, trace.events)))
    assert got == TABU_PINS[name]


def test_assembly_on_fixed_orders_is_pinned(multiday):
    base = bfd_initial(multiday).order
    scheds = [assemble_schedule(order, multiday) for order in pinned_orders(base)]
    got = [
        None if s is None else (s.objective, s.order, digest(s))
        for s in scheds
    ]
    assert got == ASSEMBLY_PINS


@pytest.mark.parametrize("name", ["day", "multiday"])
def test_weighted_bfd_initial_is_pinned(name, request):
    inst = weighted(request.getfixturevalue(name))
    assert inst.weights.wc > 0
    sched = bfd_initial(inst)
    assert (sched.objective, sched.order, digest(sched)) == WEIGHTED_BFD_PINS[name]


@pytest.mark.parametrize("name, iterations", [("day", 50), ("multiday", 5)])
def test_weighted_tabu_search_is_pinned(name, iterations, request):
    trace = SearchTrace()
    sched = tabu_search(weighted(request.getfixturevalue(name)), params=TsParams(iterations=iterations), trace=trace)
    got = (sched.objective, sched.order, digest((sched, trace.best, trace.events)))
    assert got == WEIGHTED_TABU_PINS[name]


@pytest.mark.parametrize("name", ["day", "multiday"])
def test_weighted_assembly_on_fixed_orders_is_pinned(name, request):
    inst = weighted(request.getfixturevalue(name))
    scheds = [assemble_schedule(order, inst) for order in pinned_orders(bfd_initial(inst).order)]
    got = [
        None if s is None else (s.objective, s.order, digest(s))
        for s in scheds
    ]
    assert got == WEIGHTED_ASSEMBLY_PINS[name]
