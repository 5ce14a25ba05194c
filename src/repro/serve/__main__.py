"""``python -m repro.serve``: run the TCP simulation server (or a probe).

Normal mode binds the JSON-lines protocol (:mod:`repro.serve.protocol`)
and serves until interrupted::

    python -m repro.serve --host 127.0.0.1 --port 7413 \
        --cache-dir /var/tmp/repro-cache --max-pending 100000 \
        --default-deadline 300

``--smoke`` instead runs the self-checking parity/throughput probe
(:mod:`repro.serve.smoke`) against an in-process server on an ephemeral
port and exits nonzero on any parity failure — the CI serve job's
entry point::

    python -m repro.serve --smoke --out serve_smoke.json

``--chaos`` runs the service chaos harness (:mod:`repro.serve.chaos`):
SIGKILLs pool workers mid-sweep, kills and restarts a real server
subprocess mid-job, truncates the cache journal mid-write — and exits
nonzero unless every surviving result stayed bit-identical to the
serial ``grid_map`` and no run outlived its deadline::

    python -m repro.serve --chaos --out serve_chaos.json
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from .protocol import start_tcp_server
from .server import ServeConfig, SimulationServer
from .smoke import run_smoke


async def _serve_forever(args) -> int:
    config = ServeConfig(
        workers=args.workers,
        batch_window=args.batch_window,
        cache_entries=args.cache_entries,
        max_pending_points=args.max_pending,
        default_deadline=args.default_deadline,
        cache_dir=args.cache_dir,
        snapshot_every=args.snapshot_every,
    )
    server = SimulationServer(config)
    tcp = await start_tcp_server(server, args.host, args.port)
    host, port = tcp.sockets[0].getsockname()[:2]
    print(
        f"repro.serve listening on {host}:{port} "
        f"(workers={server.workers}, batch_window={config.batch_window}s)",
        flush=True,
    )
    try:
        await tcp.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.aclose()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7413,
        help="TCP port (0 picks an ephemeral port; default 7413)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size; with 2 or more, every batch that gives "
        "2 workers a measured shard size each runs on the pool, and 1 "
        "evaluates every batch in-process (default: REPRO_SWEEP_WORKERS, "
        "then cpu count)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="coalescing horizon: compatible points arriving within one "
        "window merge into one grid evaluation (default 0.002)",
    )
    parser.add_argument("--cache-entries", type=int, default=65_536)
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the result cache under DIR (write-ahead journal + "
        "snapshot, replayed on restart with fingerprint validation); "
        "default: in-memory only",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=256, metavar="N",
        help="with --cache-dir: compact the journal into a snapshot "
        "once it holds as many results as the last snapshot, and at "
        "least N (a floor, not a period; default 256)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None, metavar="POINTS",
        help="admission bound: refuse (overloaded error frame) any "
        "request that would push the in-flight point count past this; "
        "default: unbounded",
    )
    parser.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline applied to jobs that don't carry their own; "
        "an expired job fails with a deadline-exceeded error frame "
        "(default: none)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the self-checking parity/throughput probe and exit",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the service chaos harness (worker SIGKILLs, server "
        "kill -9 + journal replay, torn-tail recovery, kill -9 after "
        "compaction, deadline and overload drills) and exit",
    )
    parser.add_argument(
        "--chaos-points", type=int, default=500, metavar="N",
        help="with --chaos: sweep size for the worker-kill drill "
        "(default 500, the acceptance grid)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="with --smoke/--chaos: write the JSON report artifact",
    )
    args = parser.parse_args(argv)
    if args.smoke and args.chaos:
        parser.error("--smoke and --chaos are mutually exclusive")
    if args.smoke:
        return run_smoke(args.out)
    if args.chaos:
        from .chaos import run_service_chaos

        return run_service_chaos(args.out, points=args.chaos_points)
    try:
        return asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
