"""In-memory span tracing for the benchmark's traced run.

The tracer wraps linkbound's functions from outside: each target is
replaced in every linkbound module that binds it, so a name imported with
``from .channel import snr_cdf`` is wrapped in the importing module too,
and methods are replaced on their class. Nothing under ``src/`` changes.

A span is (name, start, end, id, parent id, extra). Each thread keeps its
own stack of open spans, so spans nest correctly inside the CLI's thread
pool; a span opened on a thread with an empty stack (a sweep point on a
pool thread) is parented to the request span that is open at the time.
Spans stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _table_extra(args, kwargs, _result):
    """(cells, blocks) of a finished StieltjesTable build."""
    table = args[0]
    bound = inspect.signature(type(table).__init__).bind(*args, **kwargs)
    return (int(bound.arguments["n_terms"]), int(table.mass.size))


# (span name, "module:attribute path", extra(args, kwargs, result) or None).
# The span name is "<layer>.<function>"; extras are summed per name.
TARGETS = (
    ("channel.snr_cdf", "linkbound.channel:snr_cdf",
     lambda a, k, r: int(np.size(a[1]))),
    ("channel.sample_snr", "linkbound.channel:sample_snr",
     lambda a, k, r: int(np.size(r))),
    ("channel.capacity", "linkbound.channel:capacity_bits_per_slot", None),
    ("arrival.generate_arrivals", "linkbound.arrival:generate_arrivals", None),
    ("inverse_moment.truncation_point", "linkbound.inverse_moment:truncation_point", None),
    ("inverse_moment.grid_bound", "linkbound.inverse_moment:inverse_moment_bound_many", None),
    ("inverse_moment.exact", "linkbound.inverse_moment:exact_inverse_moment", None),
    ("inverse_moment.table.build", "linkbound.inverse_moment:StieltjesTable.__init__",
     _table_extra),
    ("inverse_moment.table.bound", "linkbound.inverse_moment:StieltjesTable.bound", None),
    ("service.factor", "linkbound.service:ServiceCharacterization.log_per_slot_bound", None),
    ("service.factor_many",
     "linkbound.service:ServiceCharacterization.log_per_slot_bound_many", None),
    ("service.compute", "linkbound.service:ServiceCharacterization._compute_log", None),
    ("bounds.stability_region", "linkbound.bounds:stability_region", None),
    ("bounds.backlog_bound", "linkbound.bounds:backlog_bound", None),
    ("bounds.delay_bound", "linkbound.bounds:delay_bound", None),
    ("simulator.run_replication", "linkbound.simulator:run_replication",
     lambda a, k, r: int(bool(r[2]))),
    ("simulator.replication_rng", "linkbound.simulator:replication_rng", None),
    ("cli.run_scenario", "linkbound.cli:run_scenario", None),
    ("cli.point", "linkbound.cli:_evaluate_point", None),
    ("cli.emit", "linkbound.cli:rows_to_csv", None),
)
REQUEST_SPAN = "cli.run_scenario"


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans from wrapped linkbound functions; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request = 0
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, extra):
        tracer = self
        is_request = name == REQUEST_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._request
            if is_request:
                tracer._request = sid
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    info = extra(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((name, start, end, sid, parent, info))

        return traced

    def install(self) -> None:
        """Wrap every target wherever a linkbound module or class binds it."""
        for name, target, extra in TARGETS:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, extra)
            if isinstance(owner, type):
                bindings = [owner]
            else:
                bindings = [mod for mod_name, mod in list(sys.modules.items())
                            if mod_name.split(".")[0] == "linkbound"
                            and getattr(mod, attr, None) is original]
            for holder in bindings:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Dump the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tid\tparent\textra\n")
            for name, start, end, sid, parent, info in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{sid}\t{parent}\t"
                         f"{'' if info is None else info}\n")

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds, self seconds, summed extras.

        Self time is a span's duration minus the union of its children's
        intervals within it, so concurrent children on pool threads are not
        subtracted twice. Also counts the route each per-slot factor miss
        took, read from the spans it opened.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        stats = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                     "extra": None})
        routes = defaultdict(int)
        for name, start, end, sid, _parent, info in self.spans:
            kids = children.get(sid, ())
            covered = 0.0
            cursor = start
            for _, k_start, k_end, *_ in sorted(kids, key=lambda s: s[1]):
                lo, hi = max(k_start, cursor), min(k_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = stats[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
            if info is not None:
                if entry["extra"] is None:
                    entry["extra"] = info
                elif isinstance(info, tuple):
                    entry["extra"] = tuple(a + b for a, b in zip(entry["extra"], info))
                else:
                    entry["extra"] += info
            if name == "service.compute":
                routes[_route({k[0] for k in kids})] += 1
        return {"spans": dict(stats), "routes": dict(routes)}


def _route(child_names: set) -> str:
    """Route a per-slot factor miss took, read from the spans it opened."""
    if "inverse_moment.exact" in child_names:
        return "exact"
    if "inverse_moment.grid_bound" in child_names:
        return "direct"
    if "inverse_moment.table.bound" in child_names:
        return "table"
    return "quadratic"
