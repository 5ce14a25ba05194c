"""``live_run``: back-to-back ``repro.live`` runs on 2 ranks.

Usage (started by ``perfbench/run.py``)::

    python -m perfbench.live_loop --seed N --seconds S --mode run \
        [--spans-out FILE] [--tiny]

Set-up is the imports plus one ``fit_live`` on 3 ranks (the gap probe
needs two senders and a receiver).  The timed phase cycles the
``stream``, ``bcast_tree`` and ``flood`` families through ``run_live``
on 2 ranks, one run after another, and keeps every result.  After the
timed phase each run is checked by ``validate_live`` against the
fitted parameters; a run that breaks an exact clause is a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from perfbench import tracing
from perfbench.common import vm_hwm_mb

FAMILIES = ("stream", "bcast_tree", "flood")
RANKS = 2
K = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.live_loop")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans_out:
        tracer = tracing.Tracer()
        tracer.install(tracing.LIVE_TARGETS)
    import repro.live as live

    config = live.LiveConfig()
    fitted = live.fit_live(3, config, trials=1 if args.tiny else 2,
                           measure_depth=False)
    t_ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0

    start = args.seed % len(FAMILIES)
    order = FAMILIES[start:] + FAMILIES[:start]
    runs, latencies, errors = [], [], []
    attempted = 0
    t0 = time.monotonic()
    while time.monotonic() - t0 < args.seconds:
        name = order[attempted % len(order)]
        attempted += 1
        marker = live.family_program(name, {"k": K}, None)
        s = time.monotonic()
        try:
            result = live.run_live(marker, RANKS, config=config)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            errors.append(f"live_run: run {attempted - 1} ({name}): "
                          f"{type(exc).__name__}: {exc}")
            continue
        latencies.append((time.monotonic() - s) * 1e3)
        runs.append((attempted - 1, name, marker, result))
    t1 = time.monotonic()
    rss = vm_hwm_mb()
    failed = len(errors)
    for i, name, marker, result in runs:
        check = live.validate_live(result, fitted, programs=marker)
        if not check.exact_ok:
            failed += 1
            errors.append(
                f"live_run: run {i} ({name}): exact clause(s) broken: "
                + "; ".join(str(v) for v in check.exact_violations[:3])
            )
    if tracer is not None:
        tracer.dump(args.spans_out)
    print(json.dumps({
        "t_ready": t_ready,
        "window": [t0, t1],
        # One segment: runs last ~65 ms, too few per second for more.
        "segments": [{"ops": len(latencies), "points": len(latencies),
                      "seconds": t1 - t0, "latencies_ms": latencies}],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": rss,
        "detail": {
            "ranks": RANKS,
            "families": list(order),
            "fitted": {"L": fitted.L, "o": fitted.o, "g": fitted.effective_g},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
