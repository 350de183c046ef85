"""Span recorder installed around the public functions of evroute's layers.

``meta`` and ``exact`` import the schedule and core functions by name, so
a wrapper is installed in every module namespace that holds a layer
function; each installed wrapper is a probe tagged with that namespace
(its *site*).  A span records name, start, end and parent span.  Spans are
kept in memory, up to a cap, and written out at the end; the per-name
aggregates (calls, total time, self time, ``None`` returns, calls per
site and per parent) cover every span, kept or not.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("gen", "core", "schedule", "meta", "exact")
# Per-element sort key called inside anchored_sequence: not a layer boundary.
NOT_TRACED = frozenset({"anchor_key"})


@dataclass(frozen=True)
class Totals:
    """Aggregates of every span recorded up to one moment."""

    calls: dict
    total: dict
    self_time: dict
    none_returns: dict
    site_calls: dict
    parent_calls: dict
    spans: int


class Tracer:
    def __init__(self, span_cap: int = 1_000_000):
        self.span_cap = span_cap
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Per name id: calls, total seconds, self seconds, None returns.
        self._calls: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        self._none: list[int] = []
        # Per probe: (name id, site) and calls.
        self._probes: list[tuple[int, str]] = []
        self._probe_calls: list[int] = []
        self._parent_calls: dict[tuple[int, int], int] = defaultdict(int)
        self._stack: list[list] = []   # [span id, name id, child seconds]
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            for agg, zero in ((self._calls, 0), (self._total, 0.0), (self._self, 0.0), (self._none, 0)):
                agg.append(zero)
        return self._name_ids[name]

    def wrap(self, fn, name: str, site: str):
        nid = self._name_id(name)
        pid = len(self._probes)
        self._probes.append((nid, site))
        self._probe_calls.append(0)
        tracer = self
        stack = self._stack
        calls, total, self_time, none = self._calls, self._total, self._self, self._none
        probe_calls, parent_calls = self._probe_calls, self._parent_calls
        cap = self.span_cap
        ids, names, parents, starts, ends = (
            self.span_id, self.span_name, self.span_parent, self.span_start, self.span_end)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, nid, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[nid] += 1
                total[nid] += elapsed
                self_time[nid] += elapsed - frame[2]
                probe_calls[pid] += 1
                if parent is None:
                    parent_calls[(nid, -1)] += 1
                else:
                    parent[2] += elapsed
                    parent_calls[(nid, parent[1])] += 1
                if result is None:
                    none[nid] += 1
                if sid < cap:
                    ids.append(sid)
                    names.append(nid)
                    parents.append(-1 if parent is None else parent[0])
                    starts.append(start)
                    ends.append(end)

        return probe

    def install(self, modules: dict[str, object]) -> list[tuple[object, str, object]]:
        """Wrap every public layer function in every given namespace.

        ``modules`` maps a layer's short name to its module.  Returns the
        replaced attributes so that :meth:`uninstall` can restore them.
        """
        replaced = []
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in NOT_TRACED or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("evroute.") or home not in modules:
                    continue
                setattr(mod, attr, self.wrap(obj, f"{home}.{attr}", site))
                replaced.append((mod, attr, obj))
        return replaced

    @staticmethod
    def uninstall(replaced) -> None:
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)

    @property
    def spans_seen(self) -> int:
        return self._next_id

    def totals(self) -> Totals:
        names = self.names

        def by_name(agg):
            return {name: agg[i] for i, name in enumerate(names) if self._calls[i]}

        site_calls: dict[tuple[str, str], int] = defaultdict(int)
        for (nid, site), c in zip(self._probes, self._probe_calls):
            site_calls[(names[nid], site)] += c
        return Totals(
            by_name(self._calls),
            by_name(self._total),
            by_name(self._self),
            by_name(self._none),
            dict(site_calls),
            {(names[n], "" if p < 0 else names[p]): c for (n, p), c in self._parent_calls.items()},
            self.spans_seen,
        )

    def write(self, path: Path) -> None:
        """Write the kept spans (times in seconds since the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        t0 = float(start.min()) if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=start - t0,
            end=np.frombuffer(self.span_end, dtype=np.float64) - t0,
            spans_seen=np.array(self.spans_seen),
        )
