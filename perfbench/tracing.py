"""Spans around the public calls of each layer, for traced runs only.

A traced run replaces module and class attributes that the program looks
up at call time (``repro.serve.server.fingerprint``,
``repro.sim.compiled.compile_programs``, ``LogPMachine.run`` ...) with
wrappers that record one span per call: name, start, end, span id,
parent span id, request id and a few counts taken from the arguments or
the result.  Parents follow a context variable, so spans nest per
asyncio task and across ``asyncio.to_thread``.  Spans stay in memory
until the process dumps them; ``layer_metrics`` turns them into the
``layer.metric`` numbers listed in :data:`PER_LAYER`.

Every wrapped name must exist: a target that a later change renamed or
removed stops the run with :class:`TraceTargetMissing` naming it, rather
than reporting an idle layer.  Untraced runs install no wrappers, so
they measure the program as shipped.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Every per-layer metric, in report order, with its unit.  A traced run
#: reports all of them on every workload; a layer the workload does not
#: exercise reads 0.
PER_LAYER: list[tuple[str, str]] = [
    ("protocol.self_ms", "ms"),
    ("protocol.bytes_in", "bytes"),
    ("protocol.bytes_out", "bytes"),
    ("server.submit_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.points_per_batch", "points"),
    ("server.sharded_frac", "ratio"),
    ("server.errors", "count"),
    ("server.shed", "count"),
    ("registry.fingerprint_calls", "count"),
    ("registry.fingerprint_ms", "ms"),
    ("registry.build_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.evictions", "count"),
    ("cache.journal_records", "count"),
    ("cache.journal_ms", "ms"),
    ("cache.snapshots", "count"),
    ("cache.snapshot_ms", "ms"),
    ("sweep.grid_map_calls", "count"),
    ("sweep.grid_map_self_ms", "ms"),
    ("sweep.sweep_map_ms", "ms"),
    ("sweep.groups.compiled", "count"),
    ("sweep.groups.folded", "count"),
    ("sweep.groups.forked", "count"),
    ("sweep.groups.machine", "count"),
    ("supervise.map_calls", "count"),
    ("supervise.chunks", "count"),
    ("supervise.map_ms", "ms"),
    ("supervise.restarts", "count"),
    ("supervise.deaths", "count"),
    ("compiler.calls", "count"),
    ("compiler.ranks", "ranks"),
    ("compiler.ms", "ms"),
    ("grid.eval_ms", "ms"),
    ("grid.points", "points"),
    ("grid.tapes", "count"),
    ("grid.fallbacks", "count"),
    ("grid.vectorized_ratio", "ratio"),
    ("fold.fold_ms", "ms"),
    ("fold.eval_ms", "ms"),
    ("fold.classes", "count"),
    ("fold.ranks_per_class", "ratio"),
    ("fold.divergent", "count"),
    ("machine.runs", "count"),
    ("machine.ms", "ms"),
    ("machine.messages", "count"),
    ("machine.us_per_message", "us"),
    ("live.fit_ms", "ms"),
    ("live.run_ms", "ms"),
    ("live.overhead_ms", "ms"),
    ("live.validate_ms", "ms"),
    ("live.messages", "count"),
    ("live.exact_violations", "count"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]


class TraceTargetMissing(RuntimeError):
    """A wrapped name no longer exists in the program."""


@dataclass(frozen=True)
class Target:
    """One public call to wrap: ``module:attr.path`` and its span name.

    ``attrs(args, kwargs, result)`` returns the counts to keep on the
    span; ``request(args, kwargs, result)`` the request id, when the call
    knows it; ``before(kwargs)`` may add keyword arguments (``grid_map``
    gets a report to read the dispatch decisions from).
    """

    path: str
    span: str
    attrs: Callable | None = None
    request: Callable | None = None
    before: Callable | None = None


def _grid_report(kwargs: dict) -> None:
    if kwargs.get("report") is None:
        from repro.sim.sweep import GridMapReport

        kwargs["report"] = GridMapReport()


_GROUP_PATHS = {
    "compiled": "compiled",
    "compiled-folded": "folded",
    "compiled-forked": "forked",
    "machine": "machine",
}


def _grid_groups(args, kwargs, result) -> dict:
    out: Counter = Counter()
    for group in kwargs["report"].groups:
        out[_GROUP_PATHS.get(group.path, group.path)] += 1
    return dict(out)


def _grid_eval(points_arg: int):
    def attrs(args, kwargs, result) -> dict:
        return {
            "points": len(args[points_arg]),
            "tapes": result.tapes,
            "fallbacks": result.fallbacks,
        }

    return attrs


def _folded_eval(args, kwargs, result) -> dict:
    return {
        "points": len(args[1]),
        "tapes": result.tapes,
        "divergent": len(result.divergent),
    }


def _chunks(args, kwargs, result) -> dict:
    items = args[2] if len(args) > 2 else kwargs["items"]
    size = args[3] if len(args) > 3 else kwargs.get("chunksize", 1)
    return {"chunks": -(-len(items) // max(1, int(size)))}


#: The simulation layers, wrapped wherever they run in-process.
SIM_TARGETS = [
    Target("repro.sim.supervise:SupervisedPool.map", "supervise.map",
           attrs=_chunks),
    Target("repro.sim.compiled:compile_programs", "compiler.compile",
           attrs=lambda a, kw, r: {"ranks": r.P}),
    Target("repro.sim.compiled:evaluate_grid", "grid.eval",
           attrs=_grid_eval(1)),
    Target("repro.sim.compiled:evaluate_forked", "grid.eval",
           attrs=_grid_eval(2)),
    Target("repro.sim.compiled:fold_program", "fold.fold",
           attrs=lambda a, kw, r: {"classes": r.n_classes, "ranks": r.P}),
    Target("repro.sim.compiled:evaluate_folded_grid", "fold.eval",
           attrs=_folded_eval),
    Target("repro.sim.machine:LogPMachine.run", "machine.run",
           attrs=lambda a, kw, r: {"messages": r.total_messages}),
]

#: Inside the ``python -m repro.serve`` process.
SERVE_TARGETS = [
    Target("repro.serve.server:SimulationServer.submit", "server.submit",
           request=lambda a, kw, r: r.id),
    Target("repro.serve.server:Job.wait", "server.wait",
           request=lambda a, kw, r: a[0].id),
    Target("repro.serve.server:fingerprint", "registry.fingerprint"),
    Target("repro.serve.server:build", "registry.build"),
    Target("repro.serve.cache:ResultCache.get", "cache.get",
           attrs=lambda a, kw, r: {"hit": int(r is not None)}),
    Target("repro.serve.cache:ResultCache.put", "cache.put"),
    Target("repro.serve.cache:CachePersistence.record", "cache.journal"),
    Target("repro.serve.cache:CachePersistence.snapshot", "cache.snapshot"),
    Target("repro.serve.server:grid_map", "sweep.grid_map",
           attrs=_grid_groups, before=_grid_report),
    Target("repro.serve.server:sweep_map", "sweep.sweep_map"),
    *SIM_TARGETS,
]

#: Inside the grid study process (it calls ``repro.sim.sweep.*``).
GRID_TARGETS = [
    Target("repro.sim.sweep:grid_map", "sweep.grid_map",
           attrs=_grid_groups, before=_grid_report),
    Target("repro.sim.sweep:sweep_map", "sweep.sweep_map"),
    *SIM_TARGETS,
]

#: Inside the live-run process (it calls ``repro.live.*``).
LIVE_TARGETS = [
    Target("repro.live:fit_live", "live.fit"),
    Target("repro.live:run_live", "live.run",
           attrs=lambda a, kw, r: {
               "messages": r.total_messages,
               "makespan_s": r.makespan * r.config.cycle_s,
           }),
    Target("repro.live:validate_live", "live.validate",
           attrs=lambda a, kw, r: {
               "exact_violations": len(r.exact_violations)
           }),
    *SIM_TARGETS,
]


def _resolve(path: str):
    """``module:a.b`` -> (owner, attribute name, current value)."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetMissing(f"traced module {module_name} is gone: {exc}")
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetMissing(f"traced name {path} is gone ({part})")
    value = getattr(owner, parts[-1], None)
    if not callable(value):
        raise TraceTargetMissing(f"traced name {path} is gone or not callable")
    return owner, parts[-1], value


#: Marks a wrapped call that raised (its span keeps no counts).
_FAILED = object()


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (name, start, end, span id, parent id, request id, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def install(self, targets) -> None:
        """Wrap every target; all are resolved before any is replaced."""
        resolved = [(t, *_resolve(t.path)) for t in targets]
        for target, owner, attr, fn in resolved:
            setattr(owner, attr, self.wrap(fn, target))

    def wrap(self, fn, target: Target):
        spans = self.spans
        ids = self._ids
        pid = self._pid
        name = target.span
        attrs_of = target.attrs
        request_of = target.request
        before = target.before

        def enter():
            parent = _CURRENT.get()
            sid = next(ids)
            req = parent[1] if parent is not None else None
            return parent, sid, req, _CURRENT.set((sid, req))

        def leave(parent, sid, req, start, end, args, kwargs, result):
            attrs = None
            if result is not _FAILED:
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                if request_of is not None:
                    req = request_of(args, kwargs, result)
            spans.append((
                name, start, end, sid,
                parent[0] if parent is not None else None, req, attrs,
            ))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if os.getpid() != pid:
                    return await fn(*args, **kwargs)
                if before is not None:
                    before(kwargs)
                parent, sid, req, token = enter()
                result = _FAILED
                start = time.monotonic()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.monotonic()
                    _CURRENT.reset(token)
                    leave(parent, sid, req, start, end, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                # A forked pool worker: its spans could never be reported.
                return fn(*args, **kwargs)
            if before is not None:
                before(kwargs)
            parent, sid, req, token = enter()
            result = _FAILED
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                _CURRENT.reset(token)
                leave(parent, sid, req, start, end, args, kwargs, result)

        return wrapper

    @staticmethod
    def cost_per_span(calls: int = 20_000) -> float:
        """Seconds one wrapped call adds over a bare call, measured here."""

        def noop(x):
            return x

        wrapped = Tracer().wrap(
            noop, Target("perfbench:noop", "noop", attrs=lambda a, kw, r: None)
        )
        best = float("inf")
        for _ in range(3):
            t0 = time.monotonic()
            for i in range(calls):
                noop(i)
            t1 = time.monotonic()
            for i in range(calls):
                wrapped(i)
            t2 = time.monotonic()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def dump(self, path: str) -> None:
        """Write every span, with request ids filled in from parents."""
        by_id = {s[3]: s for s in self.spans}
        rows = []
        for s in self.spans:
            req = s[5]
            parent = s[4]
            while req is None and parent is not None:
                p = by_id.get(parent)
                if p is None:
                    break
                req, parent = p[5], p[4]
            rows.append([s[0], s[1], s[2], s[3], s[4], req, s[6]])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"cost_per_span": self.cost_per_span(), "spans": rows}, fh)



def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _self_times(spans: list) -> dict:
    """span id -> duration minus the part of it its children cover."""
    kids: dict = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            kids[s[4]].append((s[1], s[2]))
    out = {}
    for s in spans:
        start, end = s[1], s[2]
        covered = 0.0
        intervals = kids.get(s[3])
        if intervals:
            cur_lo = cur_hi = None
            for lo, hi in sorted(intervals):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out[s[3]] = (end - start) - covered
    return out


def layer_metrics(
    spans: list,
    window: tuple[float, float],
    cost_per_span: float,
    extra: dict | None = None,
) -> dict:
    """Every :data:`PER_LAYER` metric from one process's spans.

    Times are self times in ms summed over spans that start inside the
    timed ``window``.  ``live.fit_ms`` and ``live.validate_ms`` are the
    exceptions: fitting happens during set-up and validation after the
    timed phase, so they are whole span durations over the run.
    ``extra`` supplies the numbers that do not come from spans (server
    counters, client byte counts, generator lateness).
    """
    t0, t1 = window
    selfs = _self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    attr: Counter = Counter()
    total_s: Counter = Counter()
    in_window = 0
    for s in spans:
        name = s[0]
        total_s[name] += s[2] - s[1]
        if name in ("live.fit", "live.validate"):
            calls[name] += 1
            for k, v in (s[6] or {}).items():
                attr[name, k] += v
            continue
        if not t0 <= s[1] < t1:
            continue
        in_window += 1
        calls[name] += 1
        self_s[name] += selfs[s[3]]
        for k, v in (s[6] or {}).items():
            attr[name, k] += v

    def ms(name: str) -> float:
        return self_s[name] * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {name: 0.0 for name, _unit in PER_LAYER}
    m.update({
        "server.submit_ms": ms("server.submit"),
        "server.wait_ms": ms("server.wait"),
        "registry.fingerprint_calls": calls["registry.fingerprint"],
        "registry.fingerprint_ms": ms("registry.fingerprint"),
        "registry.build_ms": ms("registry.build"),
        "cache.hit_ratio": ratio(attr["cache.get", "hit"], calls["cache.get"]),
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.journal_records": calls["cache.journal"],
        "cache.journal_ms": ms("cache.journal"),
        "cache.snapshots": calls["cache.snapshot"],
        "cache.snapshot_ms": ms("cache.snapshot"),
        "sweep.grid_map_calls": calls["sweep.grid_map"],
        "sweep.grid_map_self_ms": ms("sweep.grid_map"),
        "sweep.sweep_map_ms": ms("sweep.sweep_map"),
        "supervise.map_calls": calls["supervise.map"],
        "supervise.chunks": attr["supervise.map", "chunks"],
        "supervise.map_ms": ms("supervise.map"),
        "compiler.calls": calls["compiler.compile"],
        "compiler.ranks": attr["compiler.compile", "ranks"],
        "compiler.ms": ms("compiler.compile"),
        "grid.eval_ms": ms("grid.eval"),
        "grid.points": attr["grid.eval", "points"],
        "grid.tapes": attr["grid.eval", "tapes"],
        "grid.fallbacks": attr["grid.eval", "fallbacks"],
        "grid.vectorized_ratio": (
            1.0 - ratio(attr["grid.eval", "fallbacks"], attr["grid.eval", "points"])
            if attr["grid.eval", "points"] else 0.0
        ),
        "fold.fold_ms": ms("fold.fold"),
        "fold.eval_ms": ms("fold.eval"),
        "fold.classes": attr["fold.fold", "classes"],
        "fold.ranks_per_class": ratio(
            attr["fold.fold", "ranks"], attr["fold.fold", "classes"]
        ),
        "fold.divergent": attr["fold.eval", "divergent"],
        "machine.runs": calls["machine.run"],
        "machine.ms": ms("machine.run"),
        "machine.messages": attr["machine.run", "messages"],
        "machine.us_per_message": ratio(
            self_s["machine.run"] * 1e6, attr["machine.run", "messages"]
        ),
        "live.fit_ms": total_s["live.fit"] * 1e3,
        "live.run_ms": ms("live.run"),
        "live.overhead_ms": (
            self_s["live.run"] - attr["live.run", "makespan_s"]
        ) * 1e3 if calls["live.run"] else 0.0,
        "live.validate_ms": total_s["live.validate"] * 1e3,
        "live.messages": attr["live.run", "messages"],
        "live.exact_violations": attr["live.validate", "exact_violations"],
        "trace.spans": in_window,
        "trace.wall_ms": (t1 - t0) * 1e3,
        "trace.overhead_frac": ratio(in_window * cost_per_span, t1 - t0),
    })
    for group in ("compiled", "folded", "forked", "machine"):
        m[f"sweep.groups.{group}"] = attr["sweep.grid_map", group]
    if extra:
        unknown = set(extra) - set(m)
        if unknown:
            raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
        m.update(extra)
    return m
