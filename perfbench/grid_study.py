"""``grid_sweep``: a fixed study of ``grid_map`` calls in one process.

Usage (started by ``perfbench/run.py``)::

    python -m perfbench.grid_study --seed N --seconds S --mode run \
        [--spans-out FILE] [--tiny]

Six groups, each sized to a similar share of the study's wall time on a
2-vCPU host, so a 2x slip in any one of them moves ``points_per_s`` by
about a seventh:

* ``bcast_osweep``: large ``bcast_tree`` o-sweeps at P = 8, 16, 32,
  replayed from a few tapes;
* ``lg_box``: an L x g box whose control flow changes often, so it
  records many tapes;
* ``stream_scalar``: a ``stream`` sweep past the tape budget, so most
  points fall back to the scalar evaluator;
* ``jitter``: seeded ``JitteredLatency`` sweeps (per-point draws on the
  tape);
* ``fold``: a single-item binomial broadcast at P in the thousands,
  which folds to rank classes;
* ``contention``: ``ContentionFabric`` floods, machine-only, fanned over
  ``sweep_map(workers=2)`` without a pool (the ephemeral-pool path).

``--mode setup`` stops after imports, building the study and one small
warm-up call per group, and reports when it got there.  ``--mode run``
then repeats whole passes over the study until ``--seconds`` have
passed, and afterwards checks a fixed sample of each group's points
against ``LogPMachine``.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

from perfbench import tracing
from perfbench.common import vm_hwm_mb


@dataclass
class Call:
    group: str
    points: list
    run: Callable[[list], list]
    #: Fresh timing configuration for a machine reference run.
    machine_kwargs: Callable[[], dict]
    programs: object


def _contention_point(k: int, pt):
    """One flood point on a contended ring (runs in a pool worker)."""
    from repro.serve.registry import build
    from repro.sim import sweep
    from repro.sim.net import ContentionFabric

    flood = build("flood", {"k": k}, None)
    fabric = ContentionFabric.ring(pt.P, L=8)
    return sweep.grid_map(flood, [pt], backend="machine", fabric=fabric)[0]


def build_study(seed: int, tiny: bool) -> list[Call]:
    from repro.algorithms.broadcast import binomial_tree, pipelined_broadcast_program
    from repro.core import LogPParams
    from repro.serve.registry import build
    from repro.sim import sweep
    from repro.sim.latency import JitteredLatency
    from repro.sim.net import ContentionFabric

    rng = random.Random(seed)
    scale = 8 if tiny else 1
    bcast = build("bcast_tree", {"k": 8}, None)
    stream = build("stream", {"k": 16}, None)
    calls: list[Call] = []

    def plain(programs, **kw):
        return lambda pts: sweep.grid_map(programs, pts, **kw)

    def no_timing():
        return {}

    for P, n in ((8, 4500), (16, 3000), (32, 600)):
        n //= scale
        pts = [LogPParams(L=6.0, o=1.0 + 3.0 * i / n, g=4.0, P=P)
               for i in range(n)]
        calls.append(Call("bcast_osweep", pts, plain(bcast), no_timing, bcast))

    for c in range(2):
        nL, ng = (6, 6) if not tiny else (2, 3)
        pts = [LogPParams(L=2.0 + 18.0 * i / nL + 0.125 * c, o=2.0,
                          g=1.0 + 9.0 * j / ng, P=16)
               for i in range(nL) for j in range(ng)]
        calls.append(Call("lg_box", pts, plain(bcast), no_timing, bcast))

    for c in range(2):
        n = 50 // scale
        pts = [LogPParams(L=1.0 + (i % 10) * 1.37 + 0.25 * c,
                          o=0.5 + (i // 10 % 5) * 0.61,
                          g=0.5 + (i // 50) * 1.13, P=6)
               for i in range(n)]
        calls.append(Call("stream_scalar", pts, plain(stream), no_timing, stream))

    for c in range(2):
        n = 40 // scale
        jseed = rng.randrange(1 << 20)
        pts = [LogPParams(L=6.0, o=1.0 + 3.0 * i / n, g=4.0, P=8)
               for i in range(n)]

        def jitter_kwargs(jseed=jseed):
            return {"latency": JitteredLatency(6.0, scale_frac=0.25, seed=jseed)}

        def run_jitter(pts, jseed=jseed):
            return sweep.grid_map(
                bcast, pts,
                latency=JitteredLatency(6.0, scale_frac=0.25, seed=jseed),
            )

        calls.append(Call("jitter", pts, run_jitter, jitter_kwargs, bcast))

    for P in ((2048,) * 4 if not tiny else (512,) * 4):
        fold_prog = pipelined_broadcast_program(binomial_tree(P), [0])
        n = 16 // (2 if tiny else 1)
        pts = [LogPParams(L=4.0 + i, o=2.0, g=4.0, P=P) for i in range(n)]
        calls.append(Call("fold", pts, plain(fold_prog), no_timing, fold_prog))

    flood = build("flood", {"k": 8}, None)
    for c in range(4):
        n = 72 // scale
        pts = [LogPParams(L=8.0, o=1.0 + (i % 24) / 8.0,
                          g=1.0 + (i // 24) * 0.5 + 0.25 * c, P=8)
               for i in range(n)]
        calls.append(Call(
            "contention", pts,
            lambda pts: sweep.sweep_map(
                functools.partial(_contention_point, 8), pts, workers=2
            ),
            lambda: {"fabric": ContentionFabric.ring(8, L=8)},
            flood,
        ))
    rng.shuffle(calls)
    return calls


def check_against_machine(calls: list[Call], results: dict) -> list[str]:
    """First, middle and last point of each group's first call must equal
    ``LogPMachine`` run directly at that point."""
    from repro.sim.machine import LogPMachine

    errors = []
    checked = set()
    for i, call in enumerate(calls):
        if call.group in checked or i not in results:
            continue
        checked.add(call.group)
        n = len(call.points)
        for j in sorted({0, n // 2, n - 1}):
            pt = call.points[j]
            res = LogPMachine(pt, trace=False, **call.machine_kwargs()).run(
                call.programs
            )
            want = (res.makespan, res.total_stall_time)
            got = tuple(results[i][j])
            if got != want:
                errors.append(
                    f"grid_sweep: call {i} ({call.group}) point {j} {pt}: "
                    f"grid_map {list(got)} != LogPMachine {list(want)}"
                )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.grid_study")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans_out:
        tracer = tracing.Tracer()
        tracer.install(tracing.GRID_TARGETS)
    calls = build_study(args.seed, args.tiny)
    seen = set()
    for call in calls:  # warm-up: one small call per group
        if call.group not in seen:
            seen.add(call.group)
            call.run(call.points[:4])
    t_ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0

    attempted = 0
    errors: list[str] = []
    results: dict = {}
    passes = []  # one segment per whole pass over the study
    t0 = time.monotonic()
    while True:
        pass_start, pass_points, latencies = time.monotonic(), 0, []
        for i, call in enumerate(calls):
            attempted += 1
            s = time.monotonic()
            try:
                out = call.run(call.points)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errors.append(f"grid_sweep: call {i} ({call.group}): "
                              f"{type(exc).__name__}: {exc}")
                continue
            latencies.append((time.monotonic() - s) * 1e3)
            pass_points += len(call.points)
            results.setdefault(i, out)
        passes.append({"ops": len(latencies), "points": pass_points,
                       "seconds": time.monotonic() - pass_start,
                       "latencies_ms": latencies})
        if time.monotonic() - t0 >= args.seconds or args.tiny:
            break
    t1 = time.monotonic()
    rss = vm_hwm_mb()
    failed = len(errors)
    mismatches = check_against_machine(calls, results)
    failed += len(mismatches)
    errors += mismatches
    if tracer is not None:
        tracer.dump(args.spans_out)
    print(json.dumps({
        "t_ready": t_ready,
        "window": [t0, t1],
        "segments": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": rss,
        "detail": {
            "calls_per_pass": len(calls),
            "passes": attempted // len(calls),
            "groups": sorted(seen),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
