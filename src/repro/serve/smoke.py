"""Self-checking serve probe: parity, throughput, and hit rate in one run.

``python -m repro.serve --smoke`` (the CI serve job) executes this
end-to-end check against a real TCP server on an ephemeral port:

1. **Parity.**  A mixed sweep — an overhead sweep at two ``P`` (the
   compiled fast path) plus a capacity-stall flood (machine-heavy
   semantics) — is submitted over the wire three ways: cold cache via
   ``backend="compiled"``, the identical request again (warm cache),
   and ``backend="machine"``; two half-sweeps are also submitted
   concurrently so the batcher coalesces them, and a seeded
   jittered-latency request (two coalesced halves, compiled backend)
   must match the machine backend's ground truth bit for bit.  Every
   served pair must be *bit-identical* to ``grid_map`` computed
   directly in this process, and the warm pass must be served entirely
   from cache.
2. **Throughput.**  A burst of small submissions over one connection;
   sustained requests/sec is recorded (informational here — perfbench's
   ``serve_hot`` workload measures this read path under its bounds).
3. **Pool.**  When the server has a pool (``REPRO_SWEEP_WORKERS`` or
   the CPU count above 1), at least one batch must have run on it.
4. **Artifact.**  A JSON report (parity verdicts, requests/sec, cache
   hit rate, server counters) written for CI to upload.

Any parity failure returns nonzero — this probe is a correctness gate
first and a telemetry source second.
"""

from __future__ import annotations

import asyncio
import json
import time

from ..core import LogPParams
from ..sim.sweep import grid_map
from .protocol import ServeClient, start_tcp_server
from .registry import build
from .server import (
    _SHARD_SCALAR,
    ServeConfig,
    SimulationServer,
    build_latency,
    canonical_latency,
)

__all__ = ["run_smoke"]


def _mixed_points(n_o: int) -> list[dict]:
    """An o-sweep at P in {4, 8}: wire-format (dict) grid points."""
    return [
        {"L": 6.0, "o": 0.25 + i * 7.75 / (n_o - 1), "g": 4.0, "P": P}
        for P in (4, 8)
        for i in range(n_o)
    ]


def _expected(
    program: str,
    args: dict,
    points: list[dict],
    backend: str,
    latency: dict | None = None,
):
    """The ground truth: grid_map run directly, no server involved."""
    pts = [LogPParams(L=d["L"], o=d["o"], g=d["g"], P=d["P"]) for d in points]
    return grid_map(
        build(program, dict(args), None),
        pts,
        backend=backend,
        latency=build_latency(canonical_latency(latency)),
    )


async def _smoke(n_o: int, burst: int) -> dict:
    server = SimulationServer(ServeConfig(batch_window=0.005))
    tcp = await start_tcp_server(server)
    host, port = tcp.sockets[0].getsockname()[:2]
    report: dict = {"checks": {}, "host": host, "port": port}
    checks = report["checks"]
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        checks[name] = {"ok": bool(passed), "detail": detail}
        ok = ok and passed

    try:
        client = await ServeClient.connect(host, port)
        assert await client.ping()

        sweep_points = _mixed_points(n_o)
        # Two machine shards' worth of points: with a pool, this batch
        # runs on it.
        flood_points = [
            {"L": 8.0 * (i + 1), "o": 1.0, "g": 4.0 if i % 2 == 0 else 2.0,
             "P": 8}
            for i in range(2 * _SHARD_SCALAR)
        ]
        want_sweep = _expected("bcast_tree", {"k": 8}, sweep_points, "compiled")
        want_flood = _expected("flood", {"k": 6}, flood_points, "machine")

        # 1a. Cold cache, compiled backend, with progress streaming.
        cold = await client.submit(
            "bcast_tree", sweep_points, args={"k": 8},
            backend="compiled", stream=True,
        )
        got = [tuple(p) for p in cold["results"]]
        check(
            "cold_compiled_parity",
            got == want_sweep,
            f"{len(got)} points, sources={cold['sources']}",
        )
        check(
            "progress_streamed",
            bool(cold["progress"])
            and cold["progress"][-1][0] == len(sweep_points),
            f"{len(cold['progress'])} progress frames",
        )

        # 1b. Warm cache: identical request served without simulation.
        warm = await client.submit(
            "bcast_tree", sweep_points, args={"k": 8}, backend="compiled"
        )
        check(
            "warm_cache_parity",
            [tuple(p) for p in warm["results"]] == want_sweep,
        )
        check(
            "warm_served_from_cache",
            warm["sources"]["cache"] == len(sweep_points),
            f"sources={warm['sources']}",
        )

        # 1c. Machine backend on the flood (stall-regime semantics).
        flood = await client.submit(
            "flood", flood_points, args={"k": 6}, backend="machine"
        )
        check(
            "machine_backend_parity",
            [tuple(p) for p in flood["results"]] == want_flood,
        )

        # 1d. Coalescing: two concurrent half-sweeps on separate
        # connections land in one batch and still match point for point.
        half = len(sweep_points) // 2
        parts = [sweep_points[:half], sweep_points[half:]]
        pre_batches = (await client.stats())["batches"]
        c2 = await ServeClient.connect(host, port)
        c3 = await ServeClient.connect(host, port)
        try:
            r2, r3 = await asyncio.gather(
                c2.submit(
                    "bcast_tree", parts[0], args={"k": 9}, backend="auto"
                ),
                c3.submit(
                    "bcast_tree", parts[1], args={"k": 9}, backend="auto"
                ),
            )
        finally:
            await c2.aclose()
            await c3.aclose()
        want9 = _expected("bcast_tree", {"k": 9}, sweep_points, "compiled")
        got9 = [tuple(p) for p in r2["results"] + r3["results"]]
        post_batches = (await client.stats())["batches"]
        check("coalesced_parity", got9 == want9)
        check(
            "coalesced_into_few_batches",
            post_batches - pre_batches <= 2,
            f"{post_batches - pre_batches} batches for 2 concurrent jobs",
        )

        # 1e. Seeded-latency sweep: two concurrent halves of a jittered
        # request coalesce into one batch, the compiled backend serves
        # it, and every pair is bit-identical to the machine backend
        # under the same spec — the seed-axis lowering's wire witness.
        jitter = {"kind": "jittered", "L": 6.0, "scale_frac": 0.1, "seed": 11}
        c4 = await ServeClient.connect(host, port)
        c5 = await ServeClient.connect(host, port)
        try:
            r4, r5 = await asyncio.gather(
                c4.submit(
                    "bcast_tree", parts[0], args={"k": 7},
                    backend="compiled", latency=jitter,
                ),
                c5.submit(
                    "bcast_tree", parts[1], args={"k": 7},
                    backend="compiled", latency=jitter,
                ),
            )
        finally:
            await c4.aclose()
            await c5.aclose()
        want_jit = _expected(
            "bcast_tree", {"k": 7}, sweep_points, "machine", latency=jitter
        )
        got_jit = [tuple(p) for p in r4["results"] + r5["results"]]
        check(
            "seeded_latency_compiled_parity",
            got_jit == want_jit,
            f"{len(got_jit)} jittered points vs machine ground truth",
        )

        # 2. Throughput burst: distinct tiny requests, then re-request.
        burst_pts = [
            [{"L": 6.0, "o": 0.5 + 0.01 * i, "g": 4.0, "P": 4}]
            for i in range(burst)
        ]
        t0 = time.perf_counter()
        for pts in burst_pts:
            await client.submit("stream", pts, args={"k": 4})
        for pts in burst_pts:  # warm pass: pure cache service
            await client.submit("stream", pts, args={"k": 4})
        elapsed = time.perf_counter() - t0
        report["burst_requests"] = 2 * burst
        report["burst_seconds"] = round(elapsed, 4)
        report["requests_per_s"] = round(2 * burst / elapsed, 1)

        stats = await client.stats()
        report["server_stats"] = stats
        check(
            "cache_hits_observed",
            stats["cache"]["hits"] >= len(sweep_points) + burst,
            f"hit_rate={stats['cache']['hit_rate']}",
        )
        if stats["workers"] > 1:
            check(
                "pool_sharded_batches",
                stats["sharded_batches"] > 0,
                f"{stats['sharded_batches']} of {stats['batches']} batches "
                f"on {stats['workers']} workers",
            )
        health = stats.get("health", {})
        check(
            "health_ready",
            health.get("status") == "ok"
            and health.get("ready") is True
            and health.get("inflight_points") == 0,
            f"status={health.get('status')} "
            f"pool={health.get('pool', {}).get('kind')}",
        )
        await client.aclose()
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.aclose()
    report["ok"] = ok
    return report


def run_smoke(out: str | None = None, *, n_o: int = 24, burst: int = 50) -> int:
    """Run the probe; write the artifact to ``out``; 0 iff all checks pass."""
    report = asyncio.run(_smoke(n_o, burst))
    for name, res in report["checks"].items():
        flag = "ok " if res["ok"] else "FAIL"
        detail = f"  ({res['detail']})" if res["detail"] else ""
        print(f"  {flag} {name}{detail}")
    print(
        f"  {report['burst_requests']} requests in "
        f"{report['burst_seconds']}s = {report['requests_per_s']} req/s; "
        f"cache hit rate "
        f"{report['server_stats']['cache']['hit_rate']:.2%}"
    )
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {out}")
    if not report["ok"]:
        print("serve smoke: FAILED")
        return 1
    print("serve smoke: all checks passed")
    return 0
