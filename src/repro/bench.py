"""Performance benchmark entry point: ``python -m repro.bench``.

Times the simulator's hot paths on fixed workloads and writes a
``BENCH_<date>.json`` report comparing against the recorded pre-fast-path
baseline (:data:`PR1_BASELINE`).  The workload shapes match
``benchmarks/test_perf_simulator.py`` so the numbers line up with the
pytest-benchmark suite:

* ``engine_dispatch`` — 20k no-op events through the raw event engine;
* ``stream`` / ``stream_traced`` — a 2000-message pipelined point-to-point
  stream (the paper's Section 4.1 schedule), untraced and traced;
* ``stalls`` — a 15-sender many-to-one flood in the capacity-stall
  regime (Section 4.1.2);
* ``fuzz_smoke`` — 60 seeds of the differential fuzz harness under
  deterministic latency;
* ``fabric_ring`` / ``fabric_contended`` — the stream workload routed
  through a ring :class:`~repro.sim.net.TopologyFabric` and a flood
  through a :class:`~repro.sim.net.ContentionFabric` (the network-fabric
  smoke numbers CI archives);
* ``compiled_grid`` / ``compiled_grid_machine`` — an o-sensitivity
  parameter grid (dense overhead sweep of a pipelined optimal-tree
  broadcast at several ``P``) through :func:`repro.sim.sweep.grid_map`
  on the compiled schedule evaluator and on the event machine; the
  report records ``compiled_grid_speedup`` (machine / compiled), the
  headline number for the DAG-evaluator fast path (target >= 10x);
* ``compiled_vs_machine`` — the compiled evaluator over a mixed
  verification grid (o-sweep plus an L x g box that crosses capacity
  and schedule-region boundaries, stalls included); the machine runs
  the same grid untimed and every ``(makespan, stall_time)`` pair must
  be bit-identical, or the benchmark aborts;
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
* ``serve_degraded`` — serving throughput *under fire*: machine-backend
  sweeps sharded across a :class:`~repro.sim.supervise.SupervisedPool`
  while a killer thread SIGKILLs one pool worker per period.  Every
  result is checked bit-identical to the serial ``grid_map`` before the
  timing counts (a parity failure raises), and the report records
  ``serve_degraded_requests_per_s`` plus the observed worker-death
  count — the self-healing overhead baseline.

``--only PREFIX`` runs just the workloads whose name starts with
``PREFIX`` (e.g. ``--only compiled`` for the grid-evaluator pair, or
``--only folded`` for ``folded_broadcast_grid`` + ``folded_vs_unfolded``).

Every report records the process peak RSS (``max_rss_kb``, from
``resource.getrusage``) alongside the timings; ``--baseline`` gates it
with its own, looser slack (``--max-mem-regression``, default 25%),
because an allocator high-watermark is coarser than a best-of-N timing
but a symmetry-folding or tape-layout regression that doubles memory
must still fail loudly.
``--backend {machine,compiled,auto}`` selects the backend timed by
``compiled_grid`` (default ``compiled``; the machine reference timing
is always taken on the machine).  Backend resolution has the same
refusal semantics as :func:`repro.sim.sweep.grid_map`: asking for the
compiled path under a nondeterministic timing configuration is a loud
``ValueError``, never a silent fallback.

Each timing is the best of ``--reps`` runs (default 7): minimum, not
mean, because scheduling noise only ever adds time.  ``--smoke`` shrinks
every workload ~10x for CI smoke coverage and omits the baseline
comparison (speedups are only meaningful at the calibrated sizes).

``--baseline PATH`` compares the run against any previously written
``BENCH_*.json``: per-workload ratios are printed and the process exits
nonzero if any shared hot-path timing regressed more than
``--max-regression`` (default 5%) — the CI regression gate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from typing import Callable

from .core import LogPParams
from .sim import Engine, LogPMachine, Recv, Send, run_programs
from .sim.fuzz import fuzz_sweep
from .sim.net import ContentionFabric, TopologyFabric

__all__ = ["PR1_BASELINE", "run_all", "compare_reports", "main"]

#: Best-of-7 seconds on the reference container at the pre-fast-path
#: commit (PR 1, 9032830), same workloads as below.  The fast-path
#: acceptance bar is >= 2x on ``engine_dispatch_s`` and ``stream_s``.
PR1_BASELINE: dict[str, float] = {
    "engine_dispatch_s": 0.028509,
    "stream_s": 0.035726,
    "stream_traced_s": 0.052693,
    "stalls_s": 0.037877,
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


def _best_of(fn: Callable[[], None], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


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


def _stream(k: int, trace: bool) -> None:
    p = LogPParams(L=6, o=2, g=4, P=2)

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

    run_programs(p, prog, trace=trace)


def _stalls(k: int) -> None:
    p = LogPParams(L=8, o=1, g=4, P=16)

    def prog(rank: int, P: int):
        if rank == 0:
            for _ in range(k * (P - 1)):
                yield Recv()
            return None
        for _ in range(k):
            yield Send(0)
        return None

    run_programs(p, prog, trace=False)


def _fabric_ring(k: int) -> None:
    """The stream workload over a ring TopologyFabric (routed flights)."""
    p = LogPParams(L=6, o=2, g=4, P=2)
    machine = LogPMachine(
        p, fabric=TopologyFabric.ring(2, L=6), trace=False
    )

    def prog(rank: int, P: int):
        if rank == 0:
            for i in range(k):
                yield Send(1, payload=i)
            return None
        for _ in range(k):
            yield Recv()
        return None

    machine.run(prog)


def _fabric_contended(k: int) -> None:
    """Many-to-one flood over a contended ring: every message queues."""
    p = LogPParams(L=8, o=1, g=4, P=8)
    machine = LogPMachine(
        p, fabric=ContentionFabric.ring(8, L=8), trace=False
    )

    def prog(rank: int, P: int):
        if rank == 0:
            for _ in range(k * (P - 1)):
                yield Recv()
            return None
        for _ in range(k):
            yield Send(0)
        return None

    machine.run(prog)


def _fuzz(seeds: int) -> None:
    # compiled_check/chaos_check=False keeps this workload's cost
    # identical to what records predating the compiled backend and the
    # chaos harness measured (each has its own workload); correctness
    # sweeps in tests and CI run with the checks on.
    summary = fuzz_sweep(
        range(seeds),
        ("fixed",),
        workers=1,
        compiled_check=False,
        chaos_check=False,
    )
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

    p = LogPParams(L=6.0, o=2.0, g=4.0, P=8)
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
    requests: list, expected: list, *, kill_period: float
) -> tuple[float, int, dict]:
    """Serve ``requests`` on a supervised 2-worker server while a killer
    thread SIGKILLs one random pool worker every ``kill_period`` seconds.

    Returns ``(elapsed_s, worker_deaths, stats)``.  Raises if any served
    pair deviates from the precomputed serial ground truth — degraded
    throughput is only worth measuring when it is still correct.
    """
    import asyncio
    import os as _os
    import random as _random
    import signal as _signal
    import threading

    from .serve import ServeConfig, SimulationServer

    async def _run() -> tuple[float, int, dict]:
        config = ServeConfig(workers=2, batch_window=0.0, shard_min_points=2)
        async with SimulationServer(config) as server:
            stop = threading.Event()
            rng = _random.Random(0xDE6)

            def killer() -> None:
                while not stop.wait(kill_period):
                    pool = server._pool
                    pids = pool.pids() if hasattr(pool, "pids") else []
                    if pids:
                        try:
                            _os.kill(rng.choice(pids), _signal.SIGKILL)
                        except ProcessLookupError:
                            pass

            thread = threading.Thread(target=killer, daemon=True)
            t0 = time.perf_counter()
            thread.start()
            try:
                for i, (request, want) in enumerate(zip(requests, expected)):
                    job = await server.submit(request)
                    got = await job.wait()
                    if list(got) != list(want):
                        raise RuntimeError(
                            f"serve_degraded parity failure on request {i}: "
                            "supervised result deviates from serial grid_map"
                        )
            finally:
                stop.set()
                thread.join()
            elapsed = time.perf_counter() - t0
            deaths = getattr(server._pool, "deaths", 0)
            return elapsed, deaths, server.stats_snapshot()

    return asyncio.run(_run())


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
    """Dense overhead sweep at fixed L=6, g=4, for each ``P`` in ``ps``."""
    return [
        LogPParams(L=6.0, o=0.25 + i * 7.75 / (n_o - 1), g=4.0, P=P)
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
    path and the scalar-replay fallback are exercised.  Equality is
    exact — any drift is a correctness bug, not noise.
    """
    from .sim.sweep import grid_map

    grid = _o_sweep_grid(n_o, (8,)) + [
        LogPParams(L=float(L), o=2.0, g=float(g), P=8)
        for L in range(1, box + 1)
        for g in range(1, box // 2 + 1)
    ]
    fac = _bcast_stream_factory(k)
    compiled = grid_map(fac, grid, backend="compiled")
    machine = grid_map(fac, grid, backend="machine")
    if compiled != machine:
        bad = sum(1 for a, b in zip(compiled, machine) if a != b)
        raise RuntimeError(
            f"compiled/machine divergence on {bad}/{len(grid)} grid points"
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


def _compiled_seed_sweep(seeds: range) -> None:
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
    for the report.  Any drift aborts the benchmark — the speedup is
    only worth reporting for an exact replay.
    """
    from .sim.compiled import compile_programs
    from .sim.compiled.grid import evaluate_seed_grid

    prog = compile_programs(_bcast_reduce_factory(), 8)
    res = evaluate_seed_grid(
        prog, _seed_sweep_grid(), seeds, _seed_sweep_latency
    )
    got = list(zip(res.makespans, res.total_stall_times))
    want = _seed_sweep_machine(seeds)
    if got != want:
        bad = sum(1 for a, b in zip(got, want) if a != b)
        raise RuntimeError(
            f"compiled_seed_sweep divergence on {bad}/{len(want)} "
            "(point, seed) columns"
        )
    return res.tapes


def _topology_grid(n_o: int) -> list[LogPParams]:
    return _o_sweep_grid(n_o, (8,))


def _compiled_topology_grid(n_o: int, k: int, backend: str) -> None:
    from .sim.sweep import grid_map

    grid_map(
        _bcast_stream_factory(k),
        _topology_grid(n_o),
        backend=backend,
        fabric=TopologyFabric.ring(8, L=6),
    )


def _folded_points(P: int, n_o: int) -> list[LogPParams]:
    """Dyadic o-sweep (multiples of 1/8) at fixed L=8, g=4 — the
    folded evaluator's exactness guard requires dyadic parameters."""
    return [
        LogPParams(L=8.0, o=0.25 + 0.125 * i, g=4.0, P=P)
        for i in range(n_o)
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


def _folded_vs_unfolded_verify(P: int, pts: list[LogPParams]) -> None:
    """Bit-identity of the two pipelines, run once before timing."""
    folded = _folded_broadcast_pipeline(P, pts)
    unfolded = _unfolded_broadcast_pipeline(P, pts)
    if folded != unfolded:
        bad = sum(1 for a, b in zip(folded, unfolded) if a != b)
        raise RuntimeError(
            f"folded_vs_unfolded divergence on {bad}/{len(pts)} points "
            f"at P={P}"
        )


def _topology_grid_verify(n_o: int, k: int) -> None:
    """Compiled-vs-machine parity for the routed grid, run once untimed."""
    from .sim.sweep import grid_map

    fac = _bcast_stream_factory(k)
    grid = _topology_grid(n_o)
    fabric = TopologyFabric.ring(8, L=6)
    compiled = grid_map(fac, grid, backend="compiled", fabric=fabric)
    machine = grid_map(fac, grid, backend="machine", fabric=fabric)
    if compiled != machine:
        bad = sum(1 for a, b in zip(compiled, machine) if a != b)
        raise RuntimeError(
            f"compiled_topology_grid divergence on {bad}/{len(grid)} points"
        )


# ----------------------------------------------------------------------


def run_all(
    *,
    smoke: bool = False,
    reps: int = 7,
    only: str | None = None,
    backend: str = "compiled",
) -> dict:
    """Run every benchmark; returns the report dict (see module doc).

    ``only`` restricts the run to workloads whose name starts with it;
    ``backend`` is the backend timed by ``compiled_grid``.
    """
    scale = 10 if smoke else 1
    n_events = 20_000 // scale
    k_stream = 2_000 // scale
    k_stalls = 150 // scale
    seeds = 60 // scale
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
    degraded_reqs = 10 if smoke else 48
    degraded_points = 8 if smoke else 16
    degraded_kill_period = 0.03 if smoke else 1.0

    def want(name: str) -> bool:
        return only is None or name.startswith(only)

    timings: dict[str, float] = {}
    if want("engine_dispatch"):
        timings["engine_dispatch_s"] = _best_of(
            lambda: _engine_dispatch(n_events), reps
        )
    if want("stream"):
        timings["stream_s"] = _best_of(lambda: _stream(k_stream, False), reps)
        timings["stream_traced_s"] = _best_of(
            lambda: _stream(k_stream, True), reps
        )
    if want("stalls"):
        timings["stalls_s"] = _best_of(lambda: _stalls(k_stalls), reps)
    if want("fabric_ring"):
        timings["fabric_ring_s"] = _best_of(
            lambda: _fabric_ring(k_stream), reps
        )
    if want("fabric_contended"):
        timings["fabric_contended_s"] = _best_of(
            lambda: _fabric_contended(k_stalls), reps
        )
    if want("fuzz_smoke"):
        timings["fuzz_smoke_s"] = _best_of(
            lambda: _fuzz(seeds), max(1, reps // 3)
        )
    fault_reports: list = []
    if want("chaos_broadcast"):
        n_victims = 3 if smoke else 7
        timings["chaos_broadcast_s"] = _best_of(
            lambda: _chaos_broadcast(n_victims), max(1, reps // 3)
        )
        _chaos_broadcast(n_victims, collect=fault_reports)
    if want("compiled_grid"):
        timings["compiled_grid_s"] = _best_of(
            lambda: _compiled_grid(n_o, grid_ps, k_grid, backend),
            max(1, reps // 2),
        )
        timings["compiled_grid_machine_s"] = _best_of(
            lambda: _compiled_grid(n_o, grid_ps, k_grid, "machine"),
            max(1, reps // 3),
        )
    if want("compiled_vs_machine"):
        timings["compiled_vs_machine_s"] = _best_of(
            lambda: _compiled_vs_machine(vs_n_o, vs_box, k_grid),
            max(1, reps // 3),
        )
    seed_sweep_tapes: int | None = None
    if want("compiled_seed_sweep"):
        seed_axis = range(n_seeds)
        seed_sweep_tapes = _seed_sweep_verify(seed_axis)
        timings["compiled_seed_sweep_s"] = _best_of(
            lambda: _compiled_seed_sweep(seed_axis), max(1, reps // 2)
        )
        timings["compiled_seed_sweep_machine_s"] = _best_of(
            lambda: _seed_sweep_machine(seed_axis), max(1, reps // 3)
        )
    if want("compiled_topology_grid"):
        _topology_grid_verify(topo_n_o, k_grid)
        timings["compiled_topology_grid_s"] = _best_of(
            lambda: _compiled_topology_grid(topo_n_o, k_grid, "compiled"),
            max(1, reps // 2),
        )
        timings["compiled_topology_grid_machine_s"] = _best_of(
            lambda: _compiled_topology_grid(topo_n_o, k_grid, "machine"),
            max(1, reps // 3),
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
        timings["folded_broadcast_grid_s"] = _best_of(
            lambda: _folded_broadcast_grid(folded_P, folded_n_o),
            max(1, reps // 2),
        )
    if want("folded_vs_unfolded"):
        fvu_pts = _folded_points(fvu_P, 8)
        _folded_vs_unfolded_verify(fvu_P, fvu_pts)
        timings["folded_vs_unfolded_folded_s"] = _best_of(
            lambda: _folded_broadcast_pipeline(fvu_P, fvu_pts),
            max(1, reps // 2),
        )
        timings["folded_vs_unfolded_unfolded_s"] = _best_of(
            lambda: _unfolded_broadcast_pipeline(fvu_P, fvu_pts),
            max(1, reps // 3),
        )
    serve_metrics: dict[str, float] = {}
    degraded_deaths = 0
    if want("serve_degraded"):
        # One instrumented run (not best-of-N): the SIGKILL schedule is
        # wall-clock-driven, so repeats would not reduce variance — the
        # correctness check inside is the hard gate, the timing a
        # baseline with the usual --baseline slack.
        dg_requests, dg_expected = _serve_degraded_requests(
            degraded_reqs, degraded_points
        )
        dg_elapsed, degraded_deaths, _dg_stats = _serve_degraded(
            dg_requests, dg_expected, kill_period=degraded_kill_period
        )
        timings["serve_degraded_s"] = round(dg_elapsed, 4)
        serve_metrics["serve_degraded_requests_per_s"] = round(
            len(dg_requests) / dg_elapsed, 1
        )
        serve_metrics["serve_degraded_worker_deaths"] = degraded_deaths

    from .hostinfo import host_fingerprint

    report: dict = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "host": host_fingerprint(),
        "smoke": smoke,
        "reps": reps,
        "workloads": {
            "engine_dispatch": {"events": n_events},
            "stream": {"k": k_stream, "L": 6, "o": 2, "g": 4, "P": 2},
            "stalls": {"k": k_stalls, "L": 8, "o": 1, "g": 4, "P": 16},
            "fabric_ring": {"k": k_stream, "fabric": "TopologyFabric[Ring2]"},
            "fabric_contended": {
                "k": k_stalls,
                "fabric": "ContentionFabric[Ring8]",
            },
            "fuzz_smoke": {"seeds": seeds, "latencies": ["fixed"]},
            "chaos_broadcast": {
                "P": 8,
                "L": 6,
                "o": 2,
                "g": 4,
                "victims": 3 if smoke else 7,
            },
            "compiled_grid": {
                "n_o": n_o,
                "ps": list(grid_ps),
                "k": k_grid,
                "L": 6,
                "g": 4,
                "o_range": [0.25, 8.0],
                "backend": backend,
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
                "L": 8,
                "g": 4,
                "family": "binomial broadcast",
                "classes": folded_classes,
                "rss_delta_kb": folded_rss_kb,
            },
            "folded_vs_unfolded": {
                "P": fvu_P,
                "points": 8,
                "family": "binomial broadcast",
            },
            "serve_degraded": {
                "requests": degraded_reqs,
                "points": degraded_points,
                "kill_period_s": degraded_kill_period,
                "worker_deaths": degraded_deaths,
                "family": "flood",
                "backend": "machine",
                "pool": "SupervisedPool[2]",
            },
        },
        "timings_s": timings,
    }
    if serve_metrics:
        report.update(serve_metrics)
    if fault_reports:
        report["fault_reports"] = fault_reports
    if (
        "compiled_grid_s" in timings
        and "compiled_grid_machine_s" in timings
        and timings["compiled_grid_s"] > 0
    ):
        report["compiled_grid_speedup"] = round(
            timings["compiled_grid_machine_s"] / timings["compiled_grid_s"], 2
        )
    for stem in ("compiled_seed_sweep", "compiled_topology_grid"):
        fast, ref = timings.get(f"{stem}_s"), timings.get(f"{stem}_machine_s")
        if fast and ref:
            report[f"{stem}_speedup"] = round(ref / fast, 2)
    fast = timings.get("folded_vs_unfolded_folded_s")
    ref = timings.get("folded_vs_unfolded_unfolded_s")
    if fast and ref:
        report["folded_vs_unfolded_speedup"] = round(ref / fast, 2)
    rss = _peak_rss_kb()
    if rss:
        report["max_rss_kb"] = rss
    if not smoke and all(key in timings for key in PR1_BASELINE):
        report["baseline_pr1_s"] = dict(PR1_BASELINE)
        report["speedup_vs_pr1"] = {
            key: round(PR1_BASELINE[key] / timings[key], 3)
            for key in PR1_BASELINE
        }
    return report


def compare_reports(
    report: dict,
    baseline: dict,
    *,
    max_regression: float = 0.05,
    max_mem_regression: float = 0.25,
) -> tuple[dict[str, float], list[str]]:
    """Compare a report against a prior ``BENCH_*.json``.

    Returns ``(ratios, regressions)``: per-workload ``current /
    baseline`` timing ratios over the keys both reports share, and the
    list of workloads whose ratio exceeds ``1 + max_regression``.
    Workloads only one side measured are skipped — reports from
    different PRs stay comparable as workloads are added.

    Peak RSS (``max_rss_kb``) is gated too, under its own
    ``max_mem_regression`` slack: an allocator high-watermark is
    coarser than a best-of-N timing (interpreter heap reuse, import
    order), so 25% by default — wide enough for noise, narrow enough
    that a folding or tape-layout change reintroducing per-rank
    materialization fails loudly.
    """
    base_timings = baseline.get("timings_s", {})
    timings = report.get("timings_s", {})
    ratios: dict[str, float] = {}
    regressions: list[str] = []
    for key in sorted(set(timings) & set(base_timings)):
        base = base_timings[key]
        if base <= 0:
            continue
        ratio = timings[key] / base
        ratios[key] = round(ratio, 3)
        if ratio > 1.0 + max_regression:
            regressions.append(key)
    base_rss = baseline.get("max_rss_kb", 0)
    rss = report.get("max_rss_kb", 0)
    if base_rss > 0 and rss > 0:
        ratio = rss / base_rss
        ratios["max_rss_kb"] = round(ratio, 3)
        if ratio > 1.0 + max_mem_regression:
            regressions.append("max_rss_kb")
    return ratios, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="~10x smaller workloads, no baseline comparison (CI)",
    )
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument(
        "--out", default=None,
        help="output path (default BENCH_<date>.json; '-' for stdout only)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="prior BENCH_*.json to compare against; exits 1 if any "
        "shared workload regressed more than --max-regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.05, metavar="FRAC",
        help="allowed slowdown vs --baseline before failing (default 0.05)",
    )
    parser.add_argument(
        "--max-mem-regression", type=float, default=0.25, metavar="FRAC",
        help="allowed peak-RSS growth vs --baseline before failing "
        "(default 0.25; looser than timings — see compare_reports)",
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
    parser.add_argument(
        "--backend", default="compiled",
        choices=("machine", "compiled", "auto"),
        help="backend timed by compiled_grid (default compiled); refusal "
        "semantics as in repro.sim.sweep.grid_map",
    )
    args = parser.parse_args(argv)
    report = run_all(
        smoke=args.smoke, reps=args.reps, only=args.only, backend=args.backend
    )

    for key, val in report["timings_s"].items():
        line = f"{key:24s} {val * 1e3:9.2f} ms"
        if "speedup_vs_pr1" in report and key in report["speedup_vs_pr1"]:
            line += f"   {report['speedup_vs_pr1'][key]:5.2f}x vs PR 1"
        print(line)
    for stem in ("compiled_grid", "compiled_seed_sweep", "compiled_topology_grid"):
        key = f"{stem}_speedup"
        if key in report:
            print(
                f"{stem + ' speedup':24s} "
                f"{report[key]:9.2f} x (machine / compiled)"
            )
    if "folded_vs_unfolded_speedup" in report:
        print(
            f"{'folded speedup':24s} "
            f"{report['folded_vs_unfolded_speedup']:9.2f} x "
            "(unfolded / folded)"
        )
    if "max_rss_kb" in report:
        print(f"{'peak RSS':24s} {report['max_rss_kb'] / 1024:9.1f} MB")

    regressed = False
    if args.baseline is not None:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        ratios, regressions = compare_reports(
            report,
            baseline,
            max_regression=args.max_regression,
            max_mem_regression=args.max_mem_regression,
        )
        report["baseline_path"] = args.baseline
        report["baseline_ratio"] = ratios
        print(f"vs {args.baseline}:")
        for key, ratio in ratios.items():
            flag = "  REGRESSED" if key in regressions else ""
            print(f"  {key:22s} {ratio:6.3f}x{flag}")
        if regressions:
            regressed = True
            print(
                f"REGRESSION: {len(regressions)} workload(s) slowed more "
                f"than {args.max_regression:.0%}: {', '.join(regressions)}"
            )
        else:
            print(f"no regression beyond {args.max_regression:.0%}")

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
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
