"""Service-level chaos harness: kill things, demand bit-identical results.

``python -m repro.serve --chaos`` runs six drills against the real
service stack (no mocks, no injected seams — actual SIGKILLs, a real
server subprocess, real journal bytes) and exits nonzero unless every
surviving result is bit-identical to the serial ``grid_map`` and no
run outlives its deadline:

1. **Workers SIGKILLed mid-sweep.**  A killer thread SIGKILLs a random
   :class:`~repro.sim.supervise.SupervisedPool` worker every ~120 ms
   while a ``--chaos-points``-point machine-backend sweep runs through
   ``sweep_map``.  The pool must restart workers, resubmit orphaned
   chunks, and return the full submission-order result list —
   bit-identical to the same grid evaluated serially in this process.
2. **Server killed mid-job; journal replay.**  A real ``python -m
   repro.serve --cache-dir D`` subprocess serves a batch of requests,
   is SIGKILLed while a heavy job is mid-computation, and is restarted
   on the same cache dir.  The restarted server must replay the
   journal (``dropped_stale == 0``), serve the original requests
   entirely from the warm cache, and return bit-identical pairs.
3. **Torn journal tail.**  The journal from drill 2 is truncated
   mid-record (the crash-consistency case fsync-per-record does not
   rule out).  A third server must drop exactly the torn record
   (``torn_tails == 1``), keep every whole one, and recompute the
   missing point to the same bits.
4. **Kill -9 after compaction.**  Drill 2's requests on a fresh cache
   dir with ``--snapshot-every 2``, so the server compacts three times
   and is SIGKILLed with both a snapshot and a non-empty journal on
   disk.  The second life must load every computed point from the two
   (``loaded == points``, ``dropped_stale == 0``) and serve all of them
   warm and bit-identical.
5. **Deadline over a wedged-slow job.**  A heavy machine-backend
   request with a short deadline must fail with a typed
   ``deadline-exceeded`` error frame — promptly, not after the
   computation — and leave the server responsive.
6. **Overload shedding.**  With a small ``max_pending_points``, an
   oversized request must be refused with a typed ``overloaded`` frame
   (plus ``retry_after``) while an in-bounds request still succeeds.

Like :mod:`repro.serve.smoke`, this writes a JSON artifact for CI and
is a correctness gate first, telemetry second.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from ..sim.faults import ExponentialBackoffRetry
from ..sim.supervise import SupervisedPool
from ..sim.sweep import sweep_map
from .cache import CachePersistence
from .protocol import ServeClient, start_tcp_server
from .server import (
    ServeConfig,
    SimulationServer,
    _eval_shard,
    canonical_latency,
)

__all__ = ["run_service_chaos"]

#: Wall-clock slack (seconds) allowed past a job deadline before the
#: harness calls it a hang.  Generous: CI runs this on one busy core.
DEADLINE_SLACK = 5.0


def _point_eval(program, args, backend, raw_pt):
    """One grid point, evaluated exactly as a server shard would."""
    return _eval_shard(
        program, dict(args), None, backend, canonical_latency(None), [raw_pt]
    )[0]


# ----------------------------------------------------------------------
# Drill 1: SIGKILL pool workers mid-sweep.
# ----------------------------------------------------------------------


def _worker_kill_drill(check, points: int) -> None:
    rng = random.Random(20260808)
    raw_pts = [
        (4.0 + (i % 7), 0.5 + 0.25 * (i % 5), 2.0 + (i % 3), 8, None)
        for i in range(points)
    ]
    args = {"k": 12}
    want = _eval_shard(
        "flood", dict(args), None, "machine", canonical_latency(None), raw_pts
    )

    pool = SupervisedPool(
        4,
        retry=ExponentialBackoffRetry(base=0.02, mult=2.0, cap=0.2),
        max_attempts=10,  # random kills must never frame an innocent item
        map_deadline=240.0,
    )
    stop = threading.Event()

    def killer() -> None:
        while not stop.wait(0.12):
            pids = pool.pids()
            if pids:
                try:
                    os.kill(rng.choice(pids), signal.SIGKILL)
                except ProcessLookupError:
                    pass  # lost the race with a natural restart

    thread = threading.Thread(target=killer, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    try:
        from functools import partial

        got = sweep_map(
            partial(_point_eval, "flood", args, "machine"),
            raw_pts,
            workers=4,
            chunksize=4,
            pool=pool,
        )
    finally:
        stop.set()
        thread.join()
        pool.close(drain=False)
    elapsed = time.perf_counter() - t0

    check(
        "workers_killed_bit_identical",
        got == want,
        f"{points} points in {elapsed:.1f}s, "
        f"{pool.deaths} worker deaths, {pool.restarts} restarts",
    )
    check(
        "workers_actually_died",
        pool.deaths >= 1,
        f"deaths={pool.deaths} (killer fired every 0.12s for {elapsed:.1f}s)",
    )


# ----------------------------------------------------------------------
# Drills 2-4: kill -9 a real server subprocess; replay the journal.
# ----------------------------------------------------------------------


def _spawn_server(
    cache_dir: str, snapshot_every: int | None = None
) -> tuple[subprocess.Popen, str, int]:
    src = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    extra = [] if snapshot_every is None else [
        "--snapshot-every", str(snapshot_every)
    ]
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--workers", "1",
            "--batch-window", "0.002", "--cache-dir", cache_dir,
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        bufsize=0,
    )
    buf = b""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.25)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buf += chunk
            m = re.search(rb"listening on ([\d.]+):(\d+)", buf)
            if m:
                return proc, m.group(1).decode(), int(m.group(2))
        if proc.poll() is not None:
            break
    _stop_server(proc)
    raise RuntimeError(f"server subprocess never reported a port: {buf!r}")


def _stop_server(proc: subprocess.Popen) -> None:
    """SIGKILL a :func:`_spawn_server` process, reap it, close its pipe."""
    proc.kill()
    proc.wait(timeout=30)
    proc.stdout.close()


def _rpc(host, port, call):
    """``call(client)`` on a fresh connection to a server subprocess."""

    async def go():
        client = await ServeClient.connect(host, port)
        try:
            return await call(client)
        finally:
            await client.aclose()

    return asyncio.run(go())


def _submit_once(host, port, **kw):
    return _rpc(host, port, lambda client: client.submit(**kw))


def _stats_once(host, port):
    return _rpc(host, port, lambda client: client.stats())


def _heavy_points(n: int) -> list[dict]:
    """``n`` *distinct* machine-backend grid points: a batch that takes
    whole seconds, so a SIGKILL (or a short deadline) lands while it is
    genuinely mid-computation.  Identical points would collapse to one
    cached key and finish instantly."""
    return [
        {"L": 4.0 + 0.01 * i, "o": 1.0, "g": 4.0, "P": 16} for i in range(n)
    ]


def _fire_and_forget(host, port, payload) -> None:
    """Submit without waiting for the result (the job we kill mid-way)."""

    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            while True:
                frame = json.loads(await asyncio.wait_for(reader.readline(), 30))
                if frame.get("op") == "accepted":
                    return
                if frame.get("op") == "error":
                    raise RuntimeError(frame.get("error"))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    asyncio.run(go())


def _kill_drill_requests() -> tuple[list, dict]:
    """Six 2-point requests and their serial ``grid_map`` pairs."""
    requests = [
        {
            "program": "bcast_tree",
            "points": [
                {"L": 4.0 + i, "o": 0.5, "g": 2.0, "P": 8},
                {"L": 4.0 + i, "o": 1.5, "g": 2.0, "P": 8},
            ],
            "args": {"k": 6},
            "seed": i,  # distinct seeds -> distinct groups -> one
            "backend": "compiled",  # journal append per finished group
        }
        for i in range(6)
    ]
    want = {
        i: _eval_shard(
            r["program"], dict(r["args"]), r["seed"], r["backend"],
            canonical_latency(None),
            [(p["L"], p["o"], p["g"], p["P"], None) for p in r["points"]],
        )
        for i, r in enumerate(requests)
    }
    return requests, want


def _serve_warm(check, name: str, host, port, requests, want) -> None:
    """Every request again: all points from the cache, same bits."""
    n_points = sum(len(r["points"]) for r in requests)
    warm_ok, cache_hits = True, 0
    for i, r in enumerate(requests):
        frame = _submit_once(host, port, **r)
        warm_ok = warm_ok and [tuple(p) for p in frame["results"]] == want[i]
        cache_hits += frame["sources"].get("cache", 0)
    check(
        name,
        warm_ok and cache_hits == n_points,
        f"{cache_hits}/{n_points} points served from the replayed cache",
    )


def _server_kill_drills(check, tmpdir: str) -> None:
    requests, want = _kill_drill_requests()
    n_points = sum(len(r["points"]) for r in requests)
    journal = Path(tmpdir) / CachePersistence.JOURNAL

    # --- Drill 2: first life computes; kill -9 lands mid-heavy-job.
    proc, host, port = _spawn_server(tmpdir)
    try:
        first = {}
        for i, r in enumerate(requests):
            frame = _submit_once(host, port, **r)
            first[i] = [tuple(p) for p in frame["results"]]
        parity = all(first[i] == want[i] for i in want)
        check(
            "first_life_parity", parity,
            f"{n_points} points over {len(requests)} requests",
        )
        # A heavy machine-backend job the server will die in the middle
        # of: accepted, then SIGKILL with the batch mid-computation.
        # Points must be *distinct* — identical points dedupe to one
        # cached key and would finish (and journal) before the kill.
        _fire_and_forget(
            host, port,
            {
                "op": "submit", "program": "flood",
                "points": _heavy_points(400),
                "args": {"k": 40}, "seed": None, "backend": "machine",
            },
        )
        time.sleep(0.4)
    finally:
        _stop_server(proc)
    lines = journal.read_bytes().splitlines(keepends=True)
    complete = sum(1 for ln in lines if ln.endswith(b"\n"))
    check(
        "journal_survived_kill9",
        journal.exists() and complete >= n_points,
        f"{complete} complete records after SIGKILL",
    )

    # --- Second life: replay the journal, serve everything warm.
    proc, host, port = _spawn_server(tmpdir)
    try:
        stats = _stats_once(host, port)
        persist = stats.get("persistence") or {}
        check(
            "journal_replayed",
            persist.get("loaded", 0) >= n_points
            and persist.get("dropped_stale", 0) == 0,
            f"loaded={persist.get('loaded')} "
            f"dropped_stale={persist.get('dropped_stale')} "
            f"torn_tails={persist.get('torn_tails')}",
        )
        _serve_warm(
            check, "replayed_results_bit_identical_and_warm",
            host, port, requests, want,
        )
    finally:
        _stop_server(proc)  # SIGKILL again: the journal must stay untouched

    # --- Drill 3: tear the journal tail mid-record, then recover.
    data = journal.read_bytes()
    whole = sum(1 for ln in data.splitlines(keepends=True) if ln.endswith(b"\n"))
    journal.write_bytes(data[:-7])
    proc, host, port = _spawn_server(tmpdir)
    try:
        stats = _stats_once(host, port)
        persist = stats.get("persistence") or {}
        check(
            "torn_tail_dropped_cleanly",
            persist.get("torn_tails", 0) == 1
            and persist.get("loaded", 0) == whole - 1
            and persist.get("dropped_stale", 0) == 0,
            f"loaded={persist.get('loaded')} "
            f"torn_tails={persist.get('torn_tails')}",
        )
        torn_ok, cache_hits = True, 0
        for i, r in enumerate(requests):
            frame = _submit_once(host, port, **r)
            torn_ok = torn_ok and [tuple(p) for p in frame["results"]] == want[i]
            cache_hits += frame["sources"].get("cache", 0)
        check(
            "torn_tail_recovery_bit_identical",
            torn_ok and n_points - 1 <= cache_hits < n_points,
            f"{cache_hits} warm + {n_points - cache_hits} recomputed, "
            "all bit-identical",
        )
    finally:
        _stop_server(proc)


def _compacted_kill_drill(check, tmpdir: str) -> None:
    """Drill 4: SIGKILL with both a snapshot and a journal on disk.

    At ``--snapshot-every 2`` the six 2-point groups compact after the
    1st, 2nd and 4th (the growth rule doubles the due point with the
    snapshot), leaving 8 points in the snapshot and 4 in the journal.
    """
    requests, want = _kill_drill_requests()
    n_points = sum(len(r["points"]) for r in requests)
    cache_dir = Path(tmpdir)
    proc, host, port = _spawn_server(tmpdir, snapshot_every=2)
    try:
        first = [
            [tuple(p) for p in _submit_once(host, port, **r)["results"]]
            for r in requests
        ]
        persist = _stats_once(host, port).get("persistence") or {}
    finally:
        _stop_server(proc)
    parity = all(first[i] == want[i] for i in want)
    records = (cache_dir / CachePersistence.JOURNAL).read_bytes().count(b"\n")
    check(
        "killed_after_compaction",
        parity
        and persist.get("snapshots", 0) >= 2
        and (cache_dir / CachePersistence.SNAPSHOT).exists()
        and records > 0,
        f"parity={parity}, snapshots={persist.get('snapshots')}, "
        f"{records} journal record(s) at the SIGKILL",
    )

    proc, host, port = _spawn_server(tmpdir, snapshot_every=2)
    try:
        persist = _stats_once(host, port).get("persistence") or {}
        check(
            "compacted_replay_complete",
            persist.get("loaded") == n_points
            and persist.get("dropped_stale", 0) == 0,
            f"loaded={persist.get('loaded')} of {n_points}, "
            f"dropped_stale={persist.get('dropped_stale')}",
        )
        _serve_warm(
            check, "compacted_replay_bit_identical_and_warm",
            host, port, requests, want,
        )
    finally:
        _stop_server(proc)


# ----------------------------------------------------------------------
# Drills 5 + 6: deadline expiry and overload shedding (in-process).
# ----------------------------------------------------------------------


async def _deadline_drill(check) -> None:
    server = SimulationServer(ServeConfig(workers=1, batch_window=0.002))
    tcp = await start_tcp_server(server)
    host, port = tcp.sockets[0].getsockname()[:2]
    try:
        client = await ServeClient.connect(host, port)
        deadline = 0.3
        t0 = time.perf_counter()
        try:
            await client.submit(
                "flood",
                _heavy_points(400),
                args={"k": 40},
                backend="machine",
                deadline=deadline,
            )
            check("deadline_enforced", False, "slow job returned a result")
        except RuntimeError as exc:
            elapsed = time.perf_counter() - t0
            check(
                "deadline_enforced",
                str(exc) == "deadline-exceeded"
                and elapsed < deadline + DEADLINE_SLACK,
                f"failed as {exc!r} after {elapsed:.2f}s "
                f"(deadline {deadline}s)",
            )
        alive = await client.ping()
        small = await client.submit(
            "bcast_tree", [{"L": 6.0, "o": 1.0, "g": 4.0, "P": 8}],
            args={"k": 6}, backend="compiled",
        )
        stats = await client.stats()
        check(
            "server_responsive_after_expiry",
            alive
            and len(small["results"]) == 1
            and stats["deadline_expired"] >= 1,
            f"deadline_expired={stats['deadline_expired']}, "
            f"health={stats['health']['status']}",
        )
        await client.aclose()
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.aclose(drain=False)


async def _overload_drill(check) -> None:
    server = SimulationServer(
        ServeConfig(workers=1, batch_window=0.2, max_pending_points=4)
    )
    tcp = await start_tcp_server(server)
    host, port = tcp.sockets[0].getsockname()[:2]
    try:
        client = await ServeClient.connect(host, port)
        filler = await ServeClient.connect(host, port)
        # Three points parked in the 0.2s coalescing window...
        fill_task = asyncio.create_task(
            filler.submit(
                "bcast_tree",
                [{"L": 4.0 + i, "o": 1.0, "g": 2.0, "P": 8} for i in range(3)],
                args={"k": 6}, backend="compiled",
            )
        )
        await asyncio.sleep(0.05)
        # ...so three more would exceed max_pending_points=4: shed.
        try:
            await client.submit(
                "bcast_tree",
                [{"L": 9.0 + i, "o": 1.0, "g": 2.0, "P": 8} for i in range(3)],
                args={"k": 6}, backend="compiled",
            )
            check("overload_shed", False, "oversized request was accepted")
        except RuntimeError as exc:
            check("overload_shed", str(exc) == "overloaded", f"refused: {exc!r}")
        fill = await fill_task
        one = await client.submit(
            "bcast_tree", [{"L": 20.0, "o": 1.0, "g": 2.0, "P": 8}],
            args={"k": 6}, backend="compiled",
        )
        stats = await client.stats()
        check(
            "overload_recovery",
            len(fill["results"]) == 3
            and len(one["results"]) == 1
            and stats["shed"] >= 1,
            f"shed={stats['shed']}, inflight drained, in-bounds request ok",
        )
        await filler.aclose()
        await client.aclose()
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.aclose(drain=False)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def run_service_chaos(out: str | None = None, *, points: int = 500) -> int:
    """Run all drills; write the artifact to ``out``; 0 iff all pass."""
    report: dict = {"checks": {}, "points": points}
    checks = report["checks"]
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        checks[name] = {"ok": bool(passed), "detail": detail}
        ok = ok and passed
        flag = "ok " if passed else "FAIL"
        print(f"  {flag} {name}" + (f"  ({detail})" if detail else ""))

    drills = [
        ("worker_kill_drill", lambda: _worker_kill_drill(check, points)),
        (
            "server_kill_drills",
            lambda: _server_kill_drills(
                check, tempfile.mkdtemp(prefix="repro-chaos-")
            ),
        ),
        (
            "compacted_kill_drill",
            lambda: _compacted_kill_drill(
                check, tempfile.mkdtemp(prefix="repro-chaos-")
            ),
        ),
        ("deadline_drill", lambda: asyncio.run(_deadline_drill(check))),
        ("overload_drill", lambda: asyncio.run(_overload_drill(check))),
    ]
    for name, drill in drills:
        try:
            drill()
        except Exception as exc:  # noqa: BLE001 - a drill crash is a failure
            check(name, False, f"crashed: {type(exc).__name__}: {exc}")

    report["ok"] = ok
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {out}")
    if not ok:
        print("serve chaos: FAILED")
        return 1
    print("serve chaos: all drills passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro.serve
    sys.exit(run_service_chaos())
