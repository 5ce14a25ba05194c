"""Performance benchmark entry point: ``python -m repro.bench``.

Times the simulator's hot paths on fixed workloads and writes a
``BENCH_<date>.json`` report.  The workload shapes match
``benchmarks/test_perf_simulator.py`` so the numbers line up with the
pytest-benchmark suite:

* ``engine_dispatch`` — 20k no-op events through the raw event engine;
* ``stream`` / ``stream_traced`` — a 2000-message pipelined point-to-point
  stream (the paper's Section 4.1 schedule), untraced and traced;
* ``stalls`` — a 15-sender many-to-one flood in the capacity-stall
  regime (Section 4.1.2);
* ``fuzz_smoke`` — 60 seeds of the differential fuzz harness under
  deterministic latency, every per-seed check included (the committed
  ``BENCH_2026-08-*`` records timed it without checks 5 and 6, so
  their ``fuzz_smoke`` numbers are not comparable);
* ``fabric_ring`` / ``fabric_contended`` — the stream workload routed
  through a ring :class:`~repro.sim.net.TopologyFabric` and a flood
  through a :class:`~repro.sim.net.ContentionFabric` (the network-fabric
  smoke numbers CI archives);
* ``chaos_broadcast`` — the self-healing broadcast under one crash per
  run, its per-run fault reports written by ``--fault-report-out``;
* ``compiled_grid`` / ``compiled_grid_machine`` — an o-sensitivity
  parameter grid (dense overhead sweep of a pipelined optimal-tree
  broadcast at several ``P``) through :func:`repro.sim.sweep.grid_map`
  on the compiled schedule evaluator and on the event machine; the
  report records ``compiled_grid_speedup`` (machine / compiled), the
  headline number for the DAG-evaluator fast path (target >= 10x);
* ``compiled_vs_machine`` — the compiled evaluator over a mixed
  verification grid (o-sweep plus an L x g box that crosses capacity
  and schedule-region boundaries, stalls included); the machine runs
  the same grid and every ``(makespan, stall_time)`` pair must be
  bit-identical, or the benchmark aborts;
* ``compiled_seed_sweep`` / ``compiled_seed_sweep_machine`` — a
  binomial broadcast+reduce under seeded :class:`JitteredLatency`
  replayed over a (point x seed) product grid through
  :func:`~repro.sim.compiled.grid.evaluate_seed_grid` versus one
  serial machine run per (point, seed); bit-identity on every column
  is verified before timing, and the report records
  ``compiled_seed_sweep_speedup`` (target >= 5x at 500 seeds);
* ``compiled_topology_grid`` / ``compiled_topology_grid_machine`` —
  the pipelined-broadcast o-sweep routed through a deterministic ring
  :class:`~repro.sim.net.TopologyFabric` on both backends (the per-hop
  delay lowering's headline grid), compiled-vs-machine parity checked
  before timing, speedup recorded as
  ``compiled_topology_grid_speedup``;
* ``folded_broadcast_grid`` — a binomial broadcast at ``P = 2**17``
  built class-compactly (:func:`~repro.algorithms.broadcast.binomial_tree_folded`),
  folded (:func:`~repro.sim.compiled.fold_tree`), and evaluated over an
  o-sweep grid by rank equivalence classes
  (:func:`~repro.sim.compiled.evaluate_folded_grid`) — ~3 200 classes
  standing in for 131 072 ranks, no per-rank object ever materialized;
* ``folded_vs_unfolded`` — the same binomial broadcast pipeline at
  ``P = 2**14`` end to end on both paths: generators compiled and
  evaluated per rank versus the class-compact constructor folded and
  evaluated per class, bit-identity verified first, with the headline
  ``folded_vs_unfolded_speedup`` recorded (target >= 50x);
* ``tape_cost`` — what a tape costs, counted in scalar evaluations:
  for five grid shapes (``stream`` at P = 6, a ``bcast_tree`` o-sweep,
  a jittered seed grid, and folded broadcasts at P = 64 and 2,048) it
  times one recording, one replay over the rest of the grid and one
  scalar evaluation, and reports ``(record + replay) / scalar`` per
  shape from medians in ``tape_cost_ratios``.  The yield rule of
  :func:`~repro.sim.compiled.grid._cover` takes its constants from
  these ratios;
* ``shard_cost`` — one process-pool round trip against in-process work
  per point: ``_eval_shard`` timed in-process on 1, 32 and 256 compiled
  ``bcast_tree`` points at P = 4, 8, 16 (1 and 8 machine ``flood``
  points at k = 4, 12) and its 1-point chunk through a started 2-worker
  :class:`~repro.sim.supervise.SupervisedPool`.  ``shard_cost`` reports
  the round trip ``r_ms`` and per-point cost ``c_us`` per shape and
  ``shard_points``, ``S = ceil(r / min c)`` per backend class with
  ``r`` from the cheapest chunk, from medians.  The server's two shard
  sizes come from it;
* ``serve_degraded`` — serving throughput *under fire*: machine-backend
  sweeps sharded across a :class:`~repro.sim.supervise.SupervisedPool`,
  one pool worker SIGKILLed a fixed delay into each request (every
  8th in the full profile) that is still running then.  One timed run
  is a whole server session; its
  results must be bit-identical to the serial ``grid_map`` (a parity
  failure raises), and the report records
  ``serve_degraded_requests_per_s`` plus the worker deaths of each run.

``--only PREFIX`` runs just the workloads whose name starts with
``PREFIX`` (e.g. ``--only compiled`` for the grid-evaluator pair, or
``--only folded`` for ``folded_broadcast_grid`` + ``folded_vs_unfolded``).

Every entry of ``timings_s`` runs its workload ``--reps`` times
(default 3) and records ``{n, min, median, max}`` wall seconds; every
``*_speedup`` is a ratio of medians from the same run, so host drift
between runs cancels.  The report also records the process peak RSS
(``max_rss_kb``, from ``resource.getrusage``) and the host fingerprint.
``--smoke`` shrinks every workload ~10x for CI smoke coverage; speedups
are only meaningful at the full sizes.  The report is a record, not a
gate: the repo's regression gate is perfbench's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import sys
import time
from typing import Callable

from .core import LogPParams
from .sim import Engine, LogPMachine, Recv, Send, run_programs
from .sim.fuzz import fuzz_sweep
from .sim.net import ContentionFabric, TopologyFabric

__all__ = ["run_all", "main"]

#: Machine parameters of the fixed-shape workloads.
_STREAM = LogPParams(L=6, o=2, g=4, P=2)
_STALLS = LogPParams(L=8, o=1, g=4, P=16)
_CHAOS = LogPParams(L=6.0, o=2.0, g=4.0, P=8)
#: The o-sweep grids' fixed ``L``/``g`` and swept ``o`` interval.
_O_SWEEP = {"L": 6.0, "g": 4.0, "o_range": (0.25, 8.0)}
#: The folded grids' fixed ``L``/``g`` (dyadic o-steps of 1/8 from 0.25).
_FOLDED = {"L": 8.0, "g": 4.0}

#: ``<stem>_speedup`` = median of the reference timing / median of the
#: fast timing, for each ``stem: (reference, fast)`` pair.
_SPEEDUPS = {
    "compiled_grid": ("compiled_grid_machine_s", "compiled_grid_s"),
    "compiled_seed_sweep": (
        "compiled_seed_sweep_machine_s",
        "compiled_seed_sweep_s",
    ),
    "compiled_topology_grid": (
        "compiled_topology_grid_machine_s",
        "compiled_topology_grid_s",
    ),
    "folded_vs_unfolded": (
        "folded_vs_unfolded_unfolded_s",
        "folded_vs_unfolded_folded_s",
    ),
}


def _peak_rss_kb() -> int:
    """Process peak RSS in KB (``ru_maxrss``; high-watermark, monotone).

    0 where the :mod:`resource` module is unavailable (non-POSIX) —
    the report then records no memory figure rather than a wrong one.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        rss //= 1024
    return rss


def _timed(fn: Callable[[], object], reps: int) -> dict:
    """Run ``fn`` ``reps`` times: ``{n, min, median, max}`` wall seconds."""
    return _interleaved([fn], reps)[0]


def _interleaved(fns: list, reps: int) -> list[dict]:
    """:func:`_timed` for several functions, one call of each per rep,
    so that host drift hits them alike."""
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return [
        {
            "n": reps,
            "min": min(s),
            "median": statistics.median(s),
            "max": max(s),
        }
        for s in samples
    ]


def _check_parity(name: str, got: list, want: list, unit: str) -> None:
    """Raise unless ``got`` equals ``want`` bit for bit.

    Any drift is a correctness bug, not noise: a timing is only worth
    recording for an exact result.
    """
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b)
        raise RuntimeError(f"{name} divergence on {bad}/{len(want)} {unit}")


def _as_dict(p: LogPParams) -> dict:
    return {"L": p.L, "o": p.o, "g": p.g, "P": p.P}


# ----------------------------------------------------------------------
# Workloads (shapes mirror benchmarks/test_perf_simulator.py)
# ----------------------------------------------------------------------


def _engine_dispatch(n_events: int) -> None:
    eng = Engine()

    def noop() -> None:
        pass

    for i in range(n_events):
        eng.schedule(float(i), noop)
    eng.run()


def _stream_prog(k: int):
    def prog(rank: int, P: int):
        if rank == 0:
            for i in range(k):
                yield Send(1, payload=i)
            return None
        total = 0
        for _ in range(k):
            m = yield Recv()
            total += m.payload
        return total

    return prog


def _flood_prog(k: int):
    def prog(rank: int, P: int):
        if rank == 0:
            for _ in range(k * (P - 1)):
                yield Recv()
            return None
        for _ in range(k):
            yield Send(0)
        return None

    return prog


def _stream(k: int, trace: bool) -> None:
    run_programs(_STREAM, _stream_prog(k), trace=trace)


def _stalls(k: int) -> None:
    run_programs(_STALLS, _flood_prog(k), trace=False)


def _fabric_ring(k: int) -> None:
    """The stream workload over a ring TopologyFabric (routed flights)."""
    LogPMachine(
        _STREAM, fabric=TopologyFabric.ring(2, L=_STREAM.L), trace=False
    ).run(_stream_prog(k))


def _fabric_contended(k: int) -> None:
    """Many-to-one flood over a contended ring: every message queues."""
    p = LogPParams(L=8, o=1, g=4, P=8)
    LogPMachine(
        p, fabric=ContentionFabric.ring(8, L=8), trace=False
    ).run(_flood_prog(k))


def _fuzz(seeds: int) -> None:
    summary = fuzz_sweep(range(seeds), ("fixed",), workers=1)
    if not summary.ok:
        raise RuntimeError(
            "fuzz failures during benchmark: " + "; ".join(summary.failures[:3])
        )


def _chaos_broadcast(
    n_victims: int, collect: list | None = None
) -> None:
    """Self-healing broadcast under one crash per run, CM-5 parameters.

    Times the full fault path end to end: heartbeat traffic, crash
    injection, detection, re-graft, and root-accounted termination.
    With ``collect`` it also appends one serializable fault-report
    summary per run — the smoke profile ships these as the CI artifact.
    """
    from .algorithms.broadcast import (
        ft_broadcast_program,
        ft_heartbeat_config,
    )
    from .sim.faults import CrashStop, FaultPlan

    p = _CHAOS
    hb = ft_heartbeat_config(p, horizon=20_000.0)
    factory = ft_broadcast_program(42, poll=hb.period / 2, deadline=15_000.0)
    for victim in range(1, n_victims + 1):
        at = 10.0 * victim
        machine = LogPMachine(
            p, heartbeat=hb, fault_plan=FaultPlan([CrashStop(victim, at)])
        )
        res = machine.run(factory)
        bad = [
            r
            for r in range(p.P)
            if r != victim and res.value(r) != 42
        ]
        if bad:
            raise RuntimeError(
                f"chaos_broadcast: survivors {bad} missed the value "
                f"(victim {victim} at t={at})"
            )
        if collect is not None:
            rep = res.fault_report()
            collect.append(
                {
                    "victim": victim,
                    "crash_at": at,
                    "makespan": res.makespan,
                    "crashes": [
                        [e.rank, e.time, e.kind] for e in rep.crashes
                    ],
                    "suspicions": len(rep.suspects),
                    "heartbeats_sent": rep.heartbeats_sent,
                    "dropped_at_dead_interface": rep.dropped_at_dead_interface,
                    "gave_up_sends": rep.gave_up_sends,
                    "wedged_ranks": rep.wedged_ranks,
                }
            )


def _serve_degraded_requests(
    n_requests: int, n_points: int
) -> tuple[list, list]:
    """``n_requests`` distinct machine-backend sweeps plus their serial
    ground truth.  Distinct points and seeds everywhere: no request is
    servable from cache, so every one exercises the supervised pool."""
    from .serve import SweepRequest
    from .serve.server import _eval_shard, canonical_latency

    requests, expected = [], []
    for r in range(n_requests):
        raw = [
            (4.0 + 0.01 * (r * n_points + i), 1.0, 4.0, 8, None)
            for i in range(n_points)
        ]
        pts = [LogPParams(L=L, o=o, g=g, P=P) for (L, o, g, P, _G) in raw]
        requests.append(
            SweepRequest.make(
                "flood", pts, args={"k": 12}, seed=r, backend="machine"
            )
        )
        expected.append(
            _eval_shard(
                "flood", {"k": 12}, r, "machine", canonical_latency(None), raw
            )
        )
    return requests, expected


def _serve_degraded(
    requests: list, expected: list, kill_delay: float, kill_every: int
) -> int:
    """Serve ``requests`` one at a time on a fresh supervised 2-worker
    server, SIGKILLing one random pool worker ``kill_delay`` seconds
    into every ``kill_every``-th request that is still running then.

    At most one kill lands per request, so no point can exhaust its
    ``max_attempts`` retries and be quarantined as poison.  Returns the
    worker deaths the pool observed.  Raises if any served result
    deviates from the precomputed serial ground truth — degraded
    throughput is only worth measuring when it is still correct.
    """
    import asyncio
    import os
    import random
    import signal

    from .serve import ServeConfig, SimulationServer

    rng = random.Random(0xDE6)

    def kill_one(pool) -> None:
        pids = pool.pids()
        if pids:
            try:
                os.kill(rng.choice(pids), signal.SIGKILL)
            except ProcessLookupError:
                pass

    async def _run() -> tuple[list, int]:
        config = ServeConfig(workers=2, batch_window=0.0)
        loop = asyncio.get_running_loop()
        got = []
        async with SimulationServer(config) as server:
            for i, request in enumerate(requests):
                job = await server.submit(request)
                timer = None
                if i % kill_every == 0:
                    timer = loop.call_later(kill_delay, kill_one, server._pool)
                got.append(await job.wait())
                if timer is not None:
                    timer.cancel()
            return got, server._pool.deaths

    got, deaths = asyncio.run(_run())
    _check_parity("serve_degraded", got, expected, "requests")
    return deaths


def _bcast_stream_factory(k: int):
    """Pipelined optimal-tree broadcast of ``k`` items, any ``P``.

    The tree shape is the optimal single-item broadcast tree for the
    paper's base parameters at each ``P`` (cached), so one factory
    serves a grid whose ``P`` varies.
    """
    from .algorithms.broadcast import (
        optimal_broadcast_tree,
        pipelined_broadcast_program,
    )

    trees: dict[int, list[list[int]]] = {}

    def factory(rank: int, P: int):
        children = trees.get(P)
        if children is None:
            children = optimal_broadcast_tree(
                LogPParams(L=6, o=2, g=4, P=P)
            ).children
            trees[P] = children
        return pipelined_broadcast_program(children, range(k))(rank, P)

    return factory


def _o_sweep_grid(n_o: int, ps: tuple[int, ...]) -> list[LogPParams]:
    """Dense overhead sweep per ``_O_SWEEP`` for each ``P`` in ``ps``."""
    lo, hi = _O_SWEEP["o_range"]
    return [
        LogPParams(
            L=_O_SWEEP["L"],
            o=lo + i * (hi - lo) / (n_o - 1),
            g=_O_SWEEP["g"],
            P=P,
        )
        for P in ps
        for i in range(n_o)
    ]


def _compiled_grid(n_o: int, ps: tuple[int, ...], k: int, backend: str) -> None:
    from .sim.sweep import grid_map

    grid_map(_bcast_stream_factory(k), _o_sweep_grid(n_o, ps), backend=backend)


def _compiled_vs_machine(n_o: int, box: int, k: int) -> None:
    """Bit-identity check: compiled vs machine over a mixed grid.

    The grid combines the o-sweep (few schedule regions) with an
    ``L x g`` box (many regions: capacity steps, arrival-order
    crossings, capacity-stall clamps), so both the tape-covered fast
    path and the scalar-replay fallback are exercised.
    """
    from .sim.sweep import grid_map

    grid = _o_sweep_grid(n_o, (8,)) + [
        LogPParams(L=float(L), o=2.0, g=float(g), P=8)
        for L in range(1, box + 1)
        for g in range(1, box // 2 + 1)
    ]
    fac = _bcast_stream_factory(k)
    _check_parity(
        "compiled_vs_machine",
        grid_map(fac, grid, backend="compiled"),
        grid_map(fac, grid, backend="machine"),
        "grid points",
    )


def _bcast_reduce_factory():
    """Binomial broadcast then binomial reduce: the seeded-sweep shape.

    Single-phase tree traffic (14 messages at P=8) keeps the recorded
    tape count low under drawn latencies — the regime the seed axis
    vectorizes.  Order-sensitive collectives (all-reduce, multi-round
    exchanges) fragment into one region per global message ordering and
    replay scalar instead: still exact, just not the fast path this
    workload gates.
    """
    from .sim.collectives import binomial_broadcast, binomial_reduce

    def factory(rank: int, P: int):
        got = yield from binomial_broadcast(rank, P, 17)
        return (yield from binomial_reduce(rank, P, got + rank))

    return factory


def _seed_sweep_latency(params: LogPParams, seed: int):
    from .sim.latency import JitteredLatency

    return JitteredLatency(params.L, scale_frac=0.02, seed=seed)


def _seed_sweep_grid() -> list[LogPParams]:
    # Both points sit in the same schedule-ordering regime, so the
    # recorded tapes stay few (~5); an o=1 point would fragment the
    # region cover (~13 tapes) and halve the headline speedup.
    return [
        LogPParams(L=6.0, o=2.0, g=4.0, P=8),
        LogPParams(L=6.0, o=3.0, g=4.0, P=8),
    ]


def _compiled_seed_sweep(seeds: range):
    from .sim.compiled import compile_programs
    from .sim.compiled.grid import evaluate_seed_grid

    prog = compile_programs(_bcast_reduce_factory(), 8)
    res = evaluate_seed_grid(
        prog, _seed_sweep_grid(), seeds, _seed_sweep_latency
    )
    if res.fallbacks:
        raise RuntimeError(
            f"compiled_seed_sweep: {res.fallbacks} scalar fallbacks — "
            "tape coverage regressed, the timing no longer measures the "
            "vectorized path"
        )
    return res


def _seed_sweep_machine(seeds: range) -> list[tuple[float, float]]:
    factory = _bcast_reduce_factory()
    out: list[tuple[float, float]] = []
    for params in _seed_sweep_grid():
        for s in seeds:
            res = LogPMachine(
                params, latency=_seed_sweep_latency(params, s), trace=False
            ).run(factory)
            out.append((res.makespan, res.total_stall_time))
    return out


def _seed_sweep_verify(seeds: range) -> int:
    """Bit-identity of every (point, seed) column vs the serial machine.

    Runs once before the timed passes; returns the recorded tape count
    for the report.
    """
    res = _compiled_seed_sweep(seeds)
    _check_parity(
        "compiled_seed_sweep",
        list(zip(res.makespans, res.total_stall_times)),
        _seed_sweep_machine(seeds),
        "(point, seed) columns",
    )
    return res.tapes


def _compiled_topology_grid(n_o: int, k: int, backend: str) -> list:
    from .sim.sweep import grid_map

    return grid_map(
        _bcast_stream_factory(k),
        _o_sweep_grid(n_o, (8,)),
        backend=backend,
        fabric=TopologyFabric.ring(8, L=6),
    )


def _folded_points(P: int, n_o: int) -> list[LogPParams]:
    """Dyadic o-sweep (multiples of 1/8) at fixed ``_FOLDED`` ``L``/``g``
    — the folded evaluator's exactness guard requires dyadic parameters."""
    return [
        LogPParams(o=0.25 + 0.125 * i, P=P, **_FOLDED) for i in range(n_o)
    ]


def _folded_broadcast_grid(P: int, n_o: int) -> int:
    """Build + fold + grid-evaluate a binomial broadcast at huge ``P``.

    The whole pipeline is Θ(classes): the class-compact constructor
    never materializes per-rank children lists, ``fold_tree`` converts
    classes directly, and the folded grid tapes weight aggregates by
    class multiplicity.  Returns the class count for the report.
    """
    from .algorithms.broadcast import binomial_tree_folded
    from .sim.compiled import evaluate_folded_grid, fold_tree

    folded = fold_tree(binomial_tree_folded(P))
    res = evaluate_folded_grid(folded, _folded_points(P, n_o))
    if res.divergent:
        raise RuntimeError(
            f"folded_broadcast_grid: {len(res.divergent)} point(s) "
            "diverged — the workload no longer measures the folded path"
        )
    return res.classes


def _unfolded_broadcast_pipeline(P: int, pts: list[LogPParams]) -> list:
    """The per-rank reference pipeline: compile generators, evaluate."""
    from .algorithms.broadcast import binomial_tree
    from .sim.collectives import tree_broadcast
    from .sim.compiled import compile_programs, evaluate

    kids = binomial_tree(P)

    def fac(rank: int, P_: int):
        return tree_broadcast(
            rank, P_, 7 if rank == 0 else None, kids, root=0
        )

    prog = compile_programs(fac, P)
    return [
        (r.makespan, r.total_stall_time)
        for r in (evaluate(prog, p) for p in pts)
    ]


def _folded_broadcast_pipeline(P: int, pts: list[LogPParams]) -> list:
    """The per-class pipeline for the same broadcast, Θ(classes)."""
    from .algorithms.broadcast import binomial_tree_folded
    from .sim.compiled import evaluate_folded, fold_tree

    folded = fold_tree(binomial_tree_folded(P))
    return [
        (r.makespan, r.total_stall_time)
        for r in (evaluate_folded(folded, p) for p in pts)
    ]


def _tape_cost_shapes() -> list:
    """The grid shapes ``tape_cost`` prices: ``(name, ops, columns)``.

    ``ops`` are the record, replay-input and fallback operations
    :func:`~repro.sim.compiled.grid._cover` runs for that shape; the shapes are the yield rule's test cases plus the
    P = 2,048 fold of perfbench's ``grid_sweep``.
    """
    from .algorithms.broadcast import binomial_tree, pipelined_broadcast_program
    from .serve.registry import build
    from .sim.compiled import compile_programs, fold_program
    from .sim.compiled.fold import _folded_grid_ops
    from .sim.compiled.grid import _grid_ops, _seed_grid_ops
    from .sim.latency import JitteredLatency

    core = dict(
        enforce_capacity=True, hw_barrier_cost=0.0, compute_jitter=None,
        max_events=50_000_000,
    )
    stream = build("stream", {"k": 16}, None)
    bcast = build("bcast_tree", {"k": 8}, None)
    shapes = []
    pts = [
        LogPParams(L=1.0 + (i % 10) * 1.37, o=0.5 + (i // 10 % 5) * 0.61,
                   g=0.5, P=6)
        for i in range(50)
    ]
    ops = _grid_ops(compile_programs(stream, 6), pts, None, None, None, core)
    shapes.append(("stream_p6", ops, range(len(pts))))
    pts = [LogPParams(L=6.0, o=0.25 + 7.75 * i / 127, g=4.0, P=8)
           for i in range(128)]
    ops = _grid_ops(compile_programs(bcast, 8), pts, None, None, None, core)
    shapes.append(("bcast_osweep_p8", ops, range(len(pts))))
    pts = [LogPParams(L=6.0, o=1.0 + 0.75 * i, g=4.0, P=8) for i in range(4)]
    ops, (drawn, _fixed) = _seed_grid_ops(
        compile_programs(bcast, 8), pts, list(range(10)),
        lambda p, s: JitteredLatency(6.0, scale_frac=0.25, seed=s),
        None, core,
    )
    shapes.append(("jitter_seeds_p8", ops, drawn))
    for P in (64, 2048):
        folded = fold_program(compile_programs(
            pipelined_broadcast_program(binomial_tree(P), [0]), P
        ))
        pts = [LogPParams(L=4.0 + i, o=2.0, g=4.0, P=P) for i in range(16)]
        ops = _folded_grid_ops(folded, pts, None, None, True, None, 0.0, None)
        shapes.append((f"fold_p{P}", ops, range(len(pts))))
    return shapes


def _tape_cost(reps: int, timings: dict) -> dict:
    """Time one recording, one replay over the rest of the grid and one
    scalar evaluation per shape; return ``(record + replay) / scalar``
    per shape, from medians.  The timings land in ``timings``."""
    from .sim.compiled.grid import _replay

    ratios = {}
    for name, ops, cols in _tape_cost_shapes():
        ref, rest = cols[0], list(cols[1:])
        rec, _ = ops.record(ref)
        inputs = ops.replay_inputs(rec, rest)
        stem = f"tape_cost_{name}"
        timings[f"{stem}_record_s"] = _timed(lambda: ops.record(ref), reps)
        timings[f"{stem}_replay_s"] = _timed(
            lambda: _replay(rec.tape, *inputs), reps
        )
        timings[f"{stem}_scalar_s"] = _timed(lambda: ops.fallback(ref), reps)
        cost = (
            timings[f"{stem}_record_s"]["median"]
            + timings[f"{stem}_replay_s"]["median"]
        )
        ratios[name] = round(cost / timings[f"{stem}_scalar_s"]["median"], 2)
    return ratios


def _shard_cost(reps: int, timings: dict) -> dict:
    """Price one pool round trip against in-process work per point.

    The shapes: ``bcast_tree`` (k = 8) o-sweeps at P = 4, 8 and 16, the
    cheapest compiled work per point that perfbench's ``serve_cold``
    serves (one tape replay a point), and ``flood`` at P = 8 with
    k = 4 (``serve_cold``'s machine floods) and k = 12
    (``serve_degraded``'s).  Per shape,
    :func:`~repro.serve.server._eval_shard` runs in-process on 1, 32 and
    256 compiled points (1 and 8 machine points), and its 1-point chunk
    runs through ``map`` on a started 2-worker
    :class:`~repro.sim.supervise.SupervisedPool`, all of a shape's runs
    interleaved rep by rep.  The pool is built here, not from
    ``REPRO_SWEEP_WORKERS``, so it forks even where that pins sweeps to
    one process.  ``r`` is the pool median minus the in-process median
    of the 1-point chunk; ``c`` is the per-point slope, (256 - 32) for
    compiled shapes and (8 - 1) for machine ones.  ``S = ceil(r / min
    c)`` per backend class is the shard size whose cheapest work repays
    one round trip, with ``r`` taken from the shape whose 1-point chunk
    runs fastest in-process.  A round trip is a fixed cost, but the
    difference of two medians also carries the chunk's own run time in
    two processes: the waiting side's wake-up, which grows with the
    wait, and the speed gap between the two cores.  That noise is least
    for the cheapest chunk.  Medians throughout; the timings land in
    ``timings``.
    """
    import math
    from functools import partial

    from .serve.server import _eval_shard
    from .sim.supervise import SupervisedPool

    shapes = [
        (f"bcast_p{P}", "compiled", ("bcast_tree", (("k", 8),), None, "auto"),
         [(4.0, 1.0 + 3.0 * i / 256, 4.0, P, None) for i in range(256)])
        for P in (4, 8, 16)
    ] + [
        (f"flood_k{k}", "machine", ("flood", (("k", k),), None, "machine"),
         [(4.0, 1.0 + i / 8.0, 2.0, 8, None) for i in range(8)])
        for k in (4, 12)
    ]
    r_ms, c_us, one = {}, {}, {}
    with SupervisedPool(2) as pool:
        for name, cls, shard_args, raw in shapes:
            fn = partial(_eval_shard, *shard_args, None)
            sizes = (1, 32, 256) if cls == "compiled" else (1, 8)
            fn(raw[:1])  # warm the in-process imports and caches
            pool.map(fn, [raw[:1]])  # starts the pool on the first shape
            *inproc, pooled = _interleaved(
                [*(lambda m=m: fn(raw[:m]) for m in sizes),
                 lambda: pool.map(fn, [raw[:1]])],
                reps,
            )
            stem = f"shard_cost_{name}"
            for m, t in zip(sizes, inproc):
                timings[f"{stem}_{m}_s"] = t
            timings[f"{stem}_pool_s"] = pooled
            med = {m: t["median"] for m, t in zip(sizes, inproc)}
            lo, hi = sizes[-2:]
            one[name] = med[1]
            r_ms[name] = (pooled["median"] - med[1]) * 1e3
            c_us[name] = (med[hi] - med[lo]) / (hi - lo) * 1e6
    r = r_ms[min(one, key=one.get)]
    return {
        "r_ms": {n: round(v, 4) for n, v in r_ms.items()},
        "c_us": {n: round(v, 2) for n, v in c_us.items()},
        "shard_points": {
            cls: math.ceil(r * 1e3 / min(
                c_us[name] for name, of, _a, _p in shapes if of == cls
            ))
            for cls in ("compiled", "machine")
        },
    }


# ----------------------------------------------------------------------


def run_all(
    *,
    smoke: bool = False,
    reps: int = 3,
    only: str | None = None,
) -> dict:
    """Run every benchmark; returns the report dict (see module doc).

    ``only`` restricts the run to workloads whose name starts with it.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    scale = 10 if smoke else 1
    n_events = 20_000 // scale
    k_stream = 2_000 // scale
    k_stalls = 150 // scale
    seeds = 60 // scale
    n_victims = 3 if smoke else 7
    n_o = 128 if smoke else 1024
    grid_ps = (4, 8) if smoke else (4, 8, 16)
    k_grid = 16 if smoke else 32
    vs_n_o = 32 if smoke else 64
    vs_box = 8 if smoke else 16
    n_seeds = 50 if smoke else 500
    topo_n_o = 64 if smoke else 512
    folded_P = 2**17
    folded_n_o = 16 if smoke else 64
    fvu_P = 2**10 if smoke else 2**14
    fvu_n_o = 8
    degraded_reqs = 10 if smoke else 48
    degraded_points = 8 if smoke else 16
    degraded_kill_delay = 0.005
    # A kill costs its request the pool's 50 ms retry backoff; killing
    # in every full-profile request would triple the workload's time.
    degraded_kill_every = 1 if smoke else 8

    def want(name: str) -> bool:
        return only is None or name.startswith(only)

    timings: dict[str, dict] = {}
    if want("engine_dispatch"):
        timings["engine_dispatch_s"] = _timed(
            lambda: _engine_dispatch(n_events), reps
        )
    if want("stream"):
        timings["stream_s"] = _timed(lambda: _stream(k_stream, False), reps)
        timings["stream_traced_s"] = _timed(
            lambda: _stream(k_stream, True), reps
        )
    if want("stalls"):
        timings["stalls_s"] = _timed(lambda: _stalls(k_stalls), reps)
    if want("fabric_ring"):
        timings["fabric_ring_s"] = _timed(lambda: _fabric_ring(k_stream), reps)
    if want("fabric_contended"):
        timings["fabric_contended_s"] = _timed(
            lambda: _fabric_contended(k_stalls), reps
        )
    if want("fuzz_smoke"):
        timings["fuzz_smoke_s"] = _timed(lambda: _fuzz(seeds), reps)
    fault_reports: list = []
    if want("chaos_broadcast"):
        timings["chaos_broadcast_s"] = _timed(
            lambda: _chaos_broadcast(n_victims), reps
        )
        _chaos_broadcast(n_victims, collect=fault_reports)
    if want("compiled_grid"):
        timings["compiled_grid_s"] = _timed(
            lambda: _compiled_grid(n_o, grid_ps, k_grid, "compiled"), reps
        )
        timings["compiled_grid_machine_s"] = _timed(
            lambda: _compiled_grid(n_o, grid_ps, k_grid, "machine"), reps
        )
    if want("compiled_vs_machine"):
        timings["compiled_vs_machine_s"] = _timed(
            lambda: _compiled_vs_machine(vs_n_o, vs_box, k_grid), reps
        )
    seed_sweep_tapes: int | None = None
    if want("compiled_seed_sweep"):
        seed_axis = range(n_seeds)
        seed_sweep_tapes = _seed_sweep_verify(seed_axis)
        timings["compiled_seed_sweep_s"] = _timed(
            lambda: _compiled_seed_sweep(seed_axis), reps
        )
        timings["compiled_seed_sweep_machine_s"] = _timed(
            lambda: _seed_sweep_machine(seed_axis), reps
        )
    if want("compiled_topology_grid"):
        _check_parity(
            "compiled_topology_grid",
            _compiled_topology_grid(topo_n_o, k_grid, "compiled"),
            _compiled_topology_grid(topo_n_o, k_grid, "machine"),
            "points",
        )
        timings["compiled_topology_grid_s"] = _timed(
            lambda: _compiled_topology_grid(topo_n_o, k_grid, "compiled"),
            reps,
        )
        timings["compiled_topology_grid_machine_s"] = _timed(
            lambda: _compiled_topology_grid(topo_n_o, k_grid, "machine"),
            reps,
        )
    folded_classes: int | None = None
    folded_rss_kb: int | None = None
    if want("folded_broadcast_grid"):
        # The full P=2**17 size runs even under --smoke: huge P at small
        # cost is the point of the folded path, and CI's folded-smoke
        # job pins exactly this workload.  Only the grid width shrinks.
        rss0 = _peak_rss_kb()
        folded_classes = _folded_broadcast_grid(folded_P, folded_n_o)
        folded_rss_kb = _peak_rss_kb() - rss0
        timings["folded_broadcast_grid_s"] = _timed(
            lambda: _folded_broadcast_grid(folded_P, folded_n_o), reps
        )
    if want("folded_vs_unfolded"):
        fvu_pts = _folded_points(fvu_P, fvu_n_o)
        _check_parity(
            "folded_vs_unfolded",
            _folded_broadcast_pipeline(fvu_P, fvu_pts),
            _unfolded_broadcast_pipeline(fvu_P, fvu_pts),
            f"points at P={fvu_P}",
        )
        timings["folded_vs_unfolded_folded_s"] = _timed(
            lambda: _folded_broadcast_pipeline(fvu_P, fvu_pts), reps
        )
        timings["folded_vs_unfolded_unfolded_s"] = _timed(
            lambda: _unfolded_broadcast_pipeline(fvu_P, fvu_pts), reps
        )
    tape_cost: dict | None = None
    if want("tape_cost"):
        tape_cost = _tape_cost(reps, timings)
    shard_cost: dict | None = None
    if want("shard_cost"):
        shard_cost = _shard_cost(reps, timings)
    degraded_deaths: list[int] = []
    if want("serve_degraded"):
        dg_requests, dg_expected = _serve_degraded_requests(
            degraded_reqs, degraded_points
        )
        timings["serve_degraded_s"] = _timed(
            lambda: degraded_deaths.append(
                _serve_degraded(
                    dg_requests,
                    dg_expected,
                    degraded_kill_delay,
                    degraded_kill_every,
                )
            ),
            reps,
        )

    from .hostinfo import host_fingerprint

    report: dict = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "host": host_fingerprint(),
        "smoke": smoke,
        "reps": reps,
        "workloads": {
            "engine_dispatch": {"events": n_events},
            "stream": {"k": k_stream, **_as_dict(_STREAM)},
            "stalls": {"k": k_stalls, **_as_dict(_STALLS)},
            "fabric_ring": {"k": k_stream, "fabric": "TopologyFabric[Ring2]"},
            "fabric_contended": {
                "k": k_stalls,
                "fabric": "ContentionFabric[Ring8]",
            },
            "fuzz_smoke": {"seeds": seeds, "latencies": ["fixed"]},
            "chaos_broadcast": {"victims": n_victims, **_as_dict(_CHAOS)},
            "compiled_grid": {
                "n_o": n_o,
                "ps": list(grid_ps),
                "k": k_grid,
                **_O_SWEEP,
            },
            "compiled_vs_machine": {
                "n_o": vs_n_o,
                "box": vs_box,
                "k": k_grid,
            },
            "compiled_seed_sweep": {
                "family": "binomial bcast+reduce",
                "P": 8,
                "points": len(_seed_sweep_grid()),
                "seeds": n_seeds,
                "latency": "jittered(scale_frac=0.02)",
                "tapes": seed_sweep_tapes,
            },
            "compiled_topology_grid": {
                "n_o": topo_n_o,
                "k": k_grid,
                "fabric": "TopologyFabric[Ring8]",
            },
            "folded_broadcast_grid": {
                "P": folded_P,
                "n_o": folded_n_o,
                **_FOLDED,
                "family": "binomial broadcast",
                "classes": folded_classes,
                "rss_delta_kb": folded_rss_kb,
            },
            "folded_vs_unfolded": {
                "P": fvu_P,
                "points": fvu_n_o,
                "family": "binomial broadcast",
            },
            "serve_degraded": {
                "requests": degraded_reqs,
                "points": degraded_points,
                "kill_delay_s": degraded_kill_delay,
                "kill_every": degraded_kill_every,
                "family": "flood",
                "backend": "machine",
                "pool": "SupervisedPool[2]",
            },
        },
        "timings_s": timings,
    }
    if degraded_deaths:
        report["serve_degraded_requests_per_s"] = round(
            degraded_reqs / timings["serve_degraded_s"]["median"], 1
        )
        report["serve_degraded_worker_deaths"] = degraded_deaths
    if tape_cost is not None:
        report["tape_cost_ratios"] = tape_cost
    if shard_cost is not None:
        report["shard_cost"] = shard_cost
    if fault_reports:
        report["fault_reports"] = fault_reports
    for stem, (ref, fast) in _SPEEDUPS.items():
        if ref in timings and fast in timings:
            report[f"{stem}_speedup"] = round(
                timings[ref]["median"] / timings[fast]["median"], 2
            )
    rss = _peak_rss_kb()
    if rss:
        report["max_rss_kb"] = rss
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="~10x smaller workloads (CI)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="runs of each timed workload; the report records n, min, "
        "median and max, and speedups are ratios of medians (default 3)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default BENCH_<date>.json; '-' for stdout only)",
    )
    parser.add_argument(
        "--only", default=None, metavar="PREFIX",
        help="run only workloads whose name starts with PREFIX "
        "(e.g. 'compiled' for the grid-evaluator pair, 'folded' for "
        "folded_broadcast_grid + folded_vs_unfolded)",
    )
    parser.add_argument(
        "--fault-report-out", default=None, metavar="PATH",
        help="also write the chaos_broadcast per-run fault-report "
        "summaries to PATH as JSON (CI uploads this as an artifact)",
    )
    args = parser.parse_args(argv)
    report = run_all(smoke=args.smoke, reps=args.reps, only=args.only)

    for key, t in report["timings_s"].items():
        print(
            f"{key:32s} {t['median'] * 1e3:9.2f} ms median "
            f"(min {t['min'] * 1e3:.2f}, max {t['max'] * 1e3:.2f}, "
            f"n={t['n']})"
        )
    for stem in _SPEEDUPS:
        if f"{stem}_speedup" in report:
            print(
                f"{stem + ' speedup':32s} {report[stem + '_speedup']:9.2f} x "
                "(ratio of medians)"
            )
    for shape, ratio in report.get("tape_cost_ratios", {}).items():
        print(
            f"{'tape_cost ' + shape:32s} {ratio:9.2f} x "
            "((record + replay) / scalar, medians)"
        )
    if "shard_cost" in report:
        sc = report["shard_cost"]
        for shape, c in sc["c_us"].items():
            print(
                f"{'shard_cost ' + shape:32s} r {sc['r_ms'][shape]:.3f} ms, "
                f"c {c:.2f} us/point"
            )
        for cls, size in sc["shard_points"].items():
            print(f"{'shard_cost S ' + cls:32s} {size:9d} points")
    if "max_rss_kb" in report:
        print(f"{'peak RSS':32s} {report['max_rss_kb'] / 1024:9.1f} MB")

    if args.fault_report_out is not None:
        with open(args.fault_report_out, "w") as fh:
            json.dump(report.get("fault_reports", []), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.fault_report_out}")

    out = args.out
    if out != "-":
        if out is None:
            out = f"BENCH_{report['date']}.json"
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
