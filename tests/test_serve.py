"""The serving contract: bit-identical results from every serving path.

``repro.serve`` may answer a point from the LRU cache, from another
job's in-flight computation, from a coalesced cross-request batch, or
from a pool shard — and each answer must be exactly what the serial
loop ``[run(point) for point in points]`` produces.  These tests pin
that equality cold-cache, warm-cache, and coalesced, against both
``sweep_map(workers=1)`` over per-point machine runs and direct
``grid_map``, plus the cache/dedup/registry/protocol plumbing around
it.
"""

import asyncio
import json

import pytest

from repro.core import LogPParams
from repro.serve import (
    CacheKey,
    ResultCache,
    ServeConfig,
    SimulationServer,
    SweepRequest,
    serve_sweep,
)
from repro.serve.cache import point_key
from repro.serve.registry import build, canonical_args, fingerprint
from repro.sim import LogPMachine
from repro.sim.sweep import grid_map, sweep_map

O_SWEEP = [
    LogPParams(L=6.0, o=0.5 + 0.75 * i, g=4.0, P=P)
    for P in (2, 4)
    for i in range(6)
]
FLOOD_POINTS = [
    LogPParams(L=8.0, o=1.0, g=4.0, P=8),
    LogPParams(L=16.0, o=1.0, g=2.0, P=8),
]


def _machine_pair(spec):
    """One point on the event machine: the serial reference semantics.

    Module-level and fully derived from ``spec`` (program name, args,
    point tuple), per the sweep runner's determinism contract.
    """
    program, args, (L, o, g, P, _G) = spec
    res = LogPMachine(
        LogPParams(L=L, o=o, g=g, P=P), trace=False
    ).run(build(program, dict(args), None))
    return (res.makespan, res.total_stall_time)


def _serial_reference(program: str, args: dict, points) -> list:
    """The ISSUE's ground truth: ``sweep_map(workers=1)`` per point."""
    specs = [
        (program, canonical_args(args), point_key(p)) for p in points
    ]
    return sweep_map(_machine_pair, specs, workers=1)


def _serve(coro):
    return asyncio.run(coro)


class TestServedVsSerialDeterminism:
    """The tentpole invariant: served == serial, bit for bit."""

    def test_cold_cache_machine_backend(self):
        request = SweepRequest.make(
            "bcast_tree", O_SWEEP, args={"k": 6}, backend="machine"
        )
        served = serve_sweep(request)
        assert served == _serial_reference("bcast_tree", {"k": 6}, O_SWEEP)

    def test_cold_cache_compiled_backend(self):
        request = SweepRequest.make(
            "bcast_tree", O_SWEEP, args={"k": 6}, backend="compiled"
        )
        served = serve_sweep(request)
        assert served == _serial_reference("bcast_tree", {"k": 6}, O_SWEEP)

    def test_warm_cache_is_bit_identical_and_simulation_free(self):
        async def run():
            request = SweepRequest.make(
                "bcast_tree", O_SWEEP, args={"k": 6}, backend="machine"
            )
            async with SimulationServer() as server:
                cold_job = await server.submit(request)
                cold = await cold_job.wait()
                warm_job = await server.submit(request)
                warm = await warm_job.wait()
                return cold, warm, warm_job.sources

        cold, warm, warm_sources = _serve(run())
        assert cold == warm
        assert warm == _serial_reference("bcast_tree", {"k": 6}, O_SWEEP)
        assert warm_sources == {
            "cache": len(O_SWEEP),
            "inflight": 0,
            "computed": 0,
        }

    def test_coalesced_batch_is_bit_identical(self):
        """Two concurrent half-sweeps merge into ONE grid evaluation and
        still reproduce the serial loop point for point."""
        half = len(O_SWEEP) // 2

        async def run():
            config = ServeConfig(batch_window=0.05)
            async with SimulationServer(config) as server:
                j1 = await server.submit(
                    SweepRequest.make(
                        "bcast_tree", O_SWEEP[:half], args={"k": 6}
                    )
                )
                j2 = await server.submit(
                    SweepRequest.make(
                        "bcast_tree", O_SWEEP[half:], args={"k": 6}
                    )
                )
                r1 = await j1.wait()
                r2 = await j2.wait()
                return r1 + r2, server.stats_snapshot()

        merged, stats = _serve(run())
        assert stats["batches"] == 1
        assert stats["largest_batch"] == len(O_SWEEP)
        assert merged == _serial_reference("bcast_tree", {"k": 6}, O_SWEEP)

    def test_stall_regime_machine_parity(self):
        served = serve_sweep(
            SweepRequest.make(
                "flood", FLOOD_POINTS, args={"k": 6}, backend="machine"
            )
        )
        assert served == _serial_reference("flood", {"k": 6}, FLOOD_POINTS)
        # Stalls really happen in this regime — nonzero second component.
        assert any(stall > 0 for _mk, stall in served)

    def test_mixed_p_request_matches_grid_map(self):
        request = SweepRequest.make(
            "bcast_tree", O_SWEEP, args={"k": 6}, backend="auto"
        )
        served = serve_sweep(request)
        direct = grid_map(
            build("bcast_tree", {"k": 6}, None), O_SWEEP, backend="auto"
        )
        assert served == direct


class TestPooledServing:
    """Batches served on a 2-worker ``SupervisedPool``.  ``workers=2`` is
    explicit: under CI's ``REPRO_SWEEP_WORKERS=1`` a default server
    starts no pool."""

    def test_every_batch_kind_is_served_on_the_pool(self, monkeypatch):
        from repro.serve import server as server_mod
        from repro.serve.server import build_latency, canonical_latency
        from repro.sim.supervise import SupervisedPool

        S = server_mod._SHARD_COMPILED
        S_machine = server_mod._SHARD_MACHINE
        maps = []  # items (shards) per SupervisedPool.map call
        real_map = SupervisedPool.map

        def spy(self, fn, items, *args, **kwargs):
            maps.append(len(items))
            return real_map(self, fn, items, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "map", spy)

        def o_sweep(n, Ps, L=6.0):
            per = -(-n // len(Ps))
            return [
                LogPParams(L=L, o=0.5 + 4.0 * i / per, g=4.0, P=P)
                for P in Ps
                for i in range(per)
            ][:n]

        box = [
            LogPParams(
                L=1.0 + (i % 10) * 1.37, o=0.5 + (i // 10 % 5) * 0.61,
                g=0.5 + (i // 50) * 0.25, P=6,
            )
            for i in range(2 * S)
        ]
        jitter = {"kind": "jittered", "L": 6.0, "scale_frac": 0.1, "seed": 11}
        halves = o_sweep(2 * S, (4,), L=7.0)
        # (case, requests submitted together, shards per map call).
        table = [
            ("mixed-P o-sweep", [
                ("bcast_tree", o_sweep(2 * S, (2, 4, 8)), {"k": 6}, "auto",
                 None),
            ], [2]),
            ("scalar-heavy stream", [
                ("stream", box, {"k": 16}, "auto", None),
            ], [2]),
            ("jittered latency", [
                ("bcast_tree", o_sweep(2 * S, (8,)), {"k": 7}, "compiled",
                 jitter),
            ], [2]),
            ("machine flood", [
                ("flood", [
                    LogPParams(L=8.0 + i, o=1.0, g=4.0, P=8)
                    for i in range(2 * S_machine)
                ], {"k": 6}, "machine", None),
            ], [2]),
            ("two coalescing jobs", [
                ("bcast_tree", halves[:S], {"k": 5}, "auto", None),
                ("bcast_tree", halves[S:], {"k": 5}, "auto", None),
            ], [2]),
            ("one point short of two shards", [
                ("bcast_tree", o_sweep(2 * S - 1, (4,), L=9.0), {"k": 6},
                 "compiled", None),
            ], []),
        ]

        async def run():
            config = ServeConfig(workers=2, batch_window=0.0)
            async with SimulationServer(config) as server:
                for case, requests, shards in table:
                    first = len(maps)
                    jobs = [
                        await server.submit(SweepRequest.make(
                            program, pts, args=args, backend=backend,
                            latency=latency,
                        ))
                        for program, pts, args, backend, latency in requests
                    ]
                    for job, (program, pts, args, backend, latency) in zip(
                        jobs, requests
                    ):
                        direct = grid_map(
                            build(program, args, None), pts, backend=backend,
                            latency=build_latency(canonical_latency(latency)),
                        )
                        assert await job.wait() == direct, case
                    assert maps[first:] == shards, case
                return server.stats_snapshot()

        stats = _serve(run())
        assert stats["batches"] == len(table)
        assert stats["sharded_batches"] == len(table) - 1


class TestDedupAndProgress:
    def test_identical_concurrent_jobs_compute_once(self):
        async def run():
            request = SweepRequest.make(
                "stream", O_SWEEP[:4], args={"k": 4}
            )
            config = ServeConfig(batch_window=0.05)
            async with SimulationServer(config) as server:
                j1 = await server.submit(request)
                j2 = await server.submit(request)
                r1 = await j1.wait()
                r2 = await j2.wait()
                return r1, r2, j2.sources, server.stats_snapshot()

        r1, r2, j2_sources, stats = _serve(run())
        assert r1 == r2
        assert j2_sources["inflight"] == 4 and j2_sources["computed"] == 0
        assert stats["computed"] == 4  # not 8: the dedup did its job
        assert stats["served_inflight"] == 4

    def test_progress_stream_reaches_total(self):
        async def run():
            request = SweepRequest.make("stream", O_SWEEP, args={"k": 4})
            async with SimulationServer() as server:
                job = await server.submit(request)
                seen = []
                async for done, total in job.updates():
                    seen.append((done, total))
                await job.wait()
                return seen, job.total

        seen, total = _serve(run())
        assert seen[-1] == (total, total)
        assert [d for d, _t in seen] == sorted(d for d, _t in seen)

    def test_run_request_convenience(self):
        async def run():
            async with SimulationServer() as server:
                return await server.run_request(
                    SweepRequest.make("stream", O_SWEEP[:2], args={"k": 4})
                )

        assert _serve(run()) == _serial_reference(
            "stream", {"k": 4}, O_SWEEP[:2]
        )

    def test_serve_sweep_accepts_request_lists(self):
        reqs = [
            SweepRequest.make("stream", O_SWEEP[:2], args={"k": 4}),
            SweepRequest.make("flood", FLOOD_POINTS[:1], args={"k": 4}),
        ]
        out = serve_sweep(reqs)
        assert len(out) == 2 and len(out[0]) == 2 and len(out[1]) == 1


class TestFailureHandling:
    def test_unknown_family_refuses_at_submit(self):
        with pytest.raises(KeyError, match="no_such_family"):
            SweepRequest.make("no_such_family", O_SWEEP[:1])

    def test_unhashable_args_refuse_at_make(self):
        with pytest.raises(TypeError, match="'k' has unhashable type list"):
            SweepRequest.make("stream", O_SWEEP[:1], args={"k": [1, 2]})

    def test_bad_backend_refuses_at_submit(self):
        with pytest.raises(ValueError, match="backend"):
            SweepRequest.make("stream", O_SWEEP[:1], backend="gpu")

    def test_empty_points_refuse(self):
        with pytest.raises(ValueError, match="at least one point"):
            SweepRequest.make("stream", [])

    def test_batch_failure_fails_the_job_and_server_survives(self):
        async def run():
            async with SimulationServer() as server:
                bad = SweepRequest.make(
                    "stream", O_SWEEP[:2], args={"k": -5}
                )
                job = await server.submit(bad)
                with pytest.raises(ValueError, match="k must be"):
                    await job.wait()
                # The server keeps serving after a failed batch.
                good = await server.run_request(
                    SweepRequest.make("stream", O_SWEEP[:2], args={"k": 4})
                )
                return good, server.stats_snapshot()

        good, stats = _serve(run())
        assert good == _serial_reference("stream", {"k": 4}, O_SWEEP[:2])
        assert stats["errors"] == 1

    def test_failed_keys_are_not_cached(self):
        async def run():
            async with SimulationServer() as server:
                bad = SweepRequest.make(
                    "stream", O_SWEEP[:2], args={"k": -5}
                )
                job = await server.submit(bad)
                with pytest.raises(ValueError):
                    await job.wait()
                return len(server.cache), server.stats_snapshot()

        entries, stats = _serve(run())
        assert entries == 0
        assert stats["inflight"] == 0  # failed flights are reaped

    def test_submit_that_raises_publishes_no_future(self, monkeypatch):
        # A raise while submit routes a point must leave no in-flight
        # future behind, or aclose() waits on it forever.
        import repro.serve.server as server_mod

        real_group = server_mod._Group
        raised = []

        def group_that_fails_once(shape):
            if not raised:
                raised.append(shape)
                raise RuntimeError("injected group failure")
            return real_group(shape)

        monkeypatch.setattr(server_mod, "_Group", group_that_fails_once)

        async def run():
            server = await SimulationServer().start()
            with pytest.raises(RuntimeError, match="injected group failure"):
                await server.submit(
                    SweepRequest.make("stream", O_SWEEP[:2], args={"k": 4})
                )
            inflight = server.stats_snapshot()["inflight"]
            await asyncio.wait_for(server.aclose(), 5)
            return inflight

        assert _serve(run()) == 0


class TestCacheAndKeys:
    def test_lru_eviction_and_stats(self):
        cache = ResultCache(max_entries=2)
        k1 = CacheKey("f", (1.0,), None, "auto")
        k2 = CacheKey("f", (2.0,), None, "auto")
        k3 = CacheKey("f", (3.0,), None, "auto")
        cache.put(k1, (1.0, 0.0))
        cache.put(k2, (2.0, 0.0))
        assert cache.get(k1) == (1.0, 0.0)  # refreshes k1's recency
        cache.put(k3, (3.0, 0.0))  # evicts k2, the least recent
        assert cache.get(k2) is None
        assert cache.get(k1) == (1.0, 0.0)
        assert cache.get(k3) == (3.0, 0.0)
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3 and cache.stats.misses == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_key_separates_seed_backend_and_fingerprint(self):
        pt = point_key(O_SWEEP[0])
        base = CacheKey("fp1", pt, None, "auto")
        assert base != CacheKey("fp1", pt, 7, "auto")
        assert base != CacheKey("fp1", pt, None, "machine")
        assert base != CacheKey("fp2", pt, None, "auto")

    def test_point_key_distinguishes_loggp(self):
        from repro.core import LogGPParams

        logp = LogPParams(L=6, o=2, g=4, P=2)
        loggp = LogGPParams(L=6, o=2, g=4, P=2, G=0.5)
        assert point_key(logp) != point_key(loggp)

    def test_tiny_cache_still_serves_correct_results(self):
        served = serve_sweep(
            SweepRequest.make("stream", O_SWEEP, args={"k": 4}),
            config=ServeConfig(cache_entries=2),
        )
        assert served == _serial_reference("stream", {"k": 4}, O_SWEEP)


class TestRegistry:
    def test_fingerprint_stable_and_arg_sensitive(self):
        a = fingerprint("stream", {"k": 4})
        assert a == fingerprint("stream", {"k": 4})
        assert a != fingerprint("stream", {"k": 5})
        assert a != fingerprint("flood", {"k": 4})

    def test_unknown_args_refuse(self):
        with pytest.raises(ValueError, match="unknown args"):
            build("stream", {"k": 4, "bogus": 1}, None)

    def test_families_lists_builtins(self):
        from repro.serve import families

        names = families()
        for expected in ("stream", "flood", "bcast_tree"):
            assert expected in names and names[expected]


class TestWireProtocol:
    def test_tcp_roundtrip_with_progress_and_stats(self):
        from repro.serve.protocol import ServeClient, start_tcp_server

        points = [
            {"L": 6.0, "o": 0.5 + i, "g": 4.0, "P": 4} for i in range(4)
        ]
        want = _serial_reference(
            "stream",
            {"k": 4},
            [LogPParams(L=d["L"], o=d["o"], g=d["g"], P=d["P"]) for d in points],
        )

        async def run():
            server = SimulationServer()
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            client = await ServeClient.connect(host, port)
            try:
                assert await client.ping()
                frame = await client.submit(
                    "stream", points, args={"k": 4}, stream=True
                )
                stats = await client.stats()
                with pytest.raises(RuntimeError, match="unknown program"):
                    await client.submit("nope", points)
                return frame, stats
            finally:
                await client.aclose()
                tcp.close()
                await tcp.wait_closed()
                await server.aclose()

        frame, stats = _serve(run())
        assert [tuple(p) for p in frame["results"]] == want
        assert frame["progress"][-1] == [len(points), len(points)]
        assert stats["requests"] == 1
        assert stats["cache"]["entries"] == len(points)

    def test_malformed_frames_keep_the_connection_alive(self):
        from repro.serve.protocol import ServeClient, start_tcp_server

        async def run():
            server = SimulationServer()
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                writer.write(b'{"op": "teleport"}\n')
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                frames = [
                    __import__("json").loads(await reader.readline())
                    for _ in range(3)
                ]
                return frames
            finally:
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                await server.aclose()

        frames = _serve(run())
        assert frames[0]["op"] == "error" and "JSON" in frames[0]["error"]
        assert frames[1]["op"] == "error" and "teleport" in frames[1]["error"]
        assert frames[2]["op"] == "pong"


def _submit_line(tag, program, points, args, **extra) -> bytes:
    frame = {"op": "submit", "tag": tag, "program": program,
             "points": points, "args": args, **extra}
    return json.dumps(frame).encode() + b"\n"


def _wire_pairs(program, args, points) -> list:
    """``grid_map``'s pairs for wire points, as a result frame lists them."""
    return [
        list(pair)
        for pair in grid_map(
            build(program, args, None),
            [LogPParams(**p) for p in points],
            backend="auto",
        )
    ]


async def _tcp_session(exchange):
    """Run ``exchange(server, reader, writer)`` against a one-process
    TCP server on an ephemeral port, then tear everything down."""
    from repro.serve.protocol import start_tcp_server

    server = SimulationServer(ServeConfig(workers=1))
    tcp = await start_tcp_server(server)
    host, port = tcp.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await exchange(server, reader, writer)
    finally:
        writer.close()
        await writer.wait_closed()
        tcp.close()
        await tcp.wait_closed()
        await server.aclose()


async def _frames(reader, n: int) -> list:
    return [
        json.loads(await asyncio.wait_for(reader.readline(), 30))
        for _ in range(n)
    ]


class TestHitPath:
    """A submit whose every point is cached is answered by the read
    loop in the turn that parsed it: no task and no gather, and a
    turn's replies leave the connection's outbox in one write."""

    POINTS = [
        {"L": 6.0, "o": 0.5 + 0.25 * i, "g": 4.0, "P": 4} for i in range(8)
    ]

    def test_all_hit_job_is_finished_at_submit(self):
        request = SweepRequest.make("bcast_tree", O_SWEEP, args={"k": 6})

        async def run():
            async with SimulationServer(ServeConfig(workers=1)) as server:
                cold = await (await server.submit(request)).wait()
                job = await server.submit(request)
                finished = job.finished
                active = server.stats_snapshot()["health"]["active_jobs"]
                coro = job.wait()
                try:
                    coro.send(None)
                except StopIteration as stop:
                    return cold, finished, active, job.sources, stop.value
                coro.close()
                raise AssertionError("wait() on a finished job suspended")

        cold, finished, active, sources, warm = _serve(run())
        assert finished and active == 0
        assert sources == {"cache": len(O_SWEEP), "inflight": 0, "computed": 0}
        assert warm == cold == grid_map(
            build("bcast_tree", {"k": 6}, None), O_SWEEP, backend="auto"
        )

    def _hit_burst(self, monkeypatch, n: int):
        """Warm ``POINTS``, then send ``n`` one-point submits of them in
        one client write.  Returns the reply frames and the sizes of the
        server's ``StreamWriter.write`` calls while it answered."""
        writes = []
        real_write = asyncio.StreamWriter.write

        async def exchange(server, reader, writer):
            writer.write(
                _submit_line("warm", "bcast_tree", self.POINTS, {"k": 6})
            )
            await writer.drain()
            warm = await _frames(reader, 2)
            assert warm[1]["op"] == "result", warm

            def counting(self, data):
                if self is not writer:
                    writes.append(len(data))
                return real_write(self, data)

            monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
            writer.write(b"".join(
                _submit_line(i, "bcast_tree", [self.POINTS[i % 8]], {"k": 6})
                for i in range(n)
            ))
            await writer.drain()
            return await _frames(reader, 2 * n)

        return _serve(_tcp_session(exchange)), writes

    def test_a_burst_of_hits_is_answered_in_fewer_writes(self, monkeypatch):
        want = _wire_pairs("bcast_tree", {"k": 6}, self.POINTS)
        frames, writes = self._hit_burst(monkeypatch, 32)
        by_tag = {}
        for frame in frames:
            by_tag.setdefault(frame["tag"], []).append(frame)
        assert sorted(by_tag) == list(range(32))
        for tag, (accepted, result) in by_tag.items():
            assert set(accepted) == {"op", "tag", "job", "total"}
            assert (accepted["op"], accepted["total"]) == ("accepted", 1)
            assert set(result) == {"op", "tag", "job", "results", "sources"}
            assert result["op"] == "result"
            assert result["job"] == accepted["job"]
            assert result["results"] == [want[tag % 8]]
            assert result["sources"] == {
                "cache": 1, "inflight": 0, "computed": 0
            }
        assert len({pair[0]["job"] for pair in by_tag.values()}) == 32
        # Two frames a request, in fewer writes than requests.
        assert 0 < len(writes) < 32, writes

    def test_a_long_burst_is_written_in_bounded_pieces(self, monkeypatch):
        # The outbox is written once it holds OUTBOX_BYTES, so drain()
        # sees the bytes of a burst long before the burst is answered.
        from repro.serve.protocol import OUTBOX_BYTES

        want = _wire_pairs("bcast_tree", {"k": 6}, self.POINTS)
        frames, writes = self._hit_burst(monkeypatch, 1024)
        results = {f["tag"]: f["results"] for f in frames if f["op"] == "result"}
        assert results == {i: [want[i % 8]] for i in range(1024)}
        longest = max(
            len(json.dumps(f, separators=(",", ":"))) + 1 for f in frames
        )
        assert sum(writes) > OUTBOX_BYTES
        assert max(writes) < OUTBOX_BYTES + longest, writes

    def test_one_connection_mixes_every_kind_of_request(self):
        hit = self.POINTS[:3]
        miss = [{**p, "L": 9.0} for p in self.POINTS[:4]]
        miss_stream = [{**p, "L": 11.0} for p in self.POINTS[:5]]
        submits = {
            "hit": (hit, False, "cache"),
            "miss": (miss, False, "computed"),
            "hit-stream": (hit, True, "cache"),
            "miss-stream": (miss_stream, True, "computed"),
        }

        async def exchange(server, reader, writer):
            writer.write(_submit_line("warm", "bcast_tree", hit, {"k": 6}))
            await writer.drain()
            await _frames(reader, 2)
            lines = [
                _submit_line(tag, "bcast_tree", pts, {"k": 6}, stream=stream)
                for tag, (pts, stream, _source) in submits.items()
            ]
            lines[2:2] = [
                b'{"op": "stats", "tag": "stats"}\n',
                b"not json\n",
                b'{"op": "ping", "tag": "ping"}\n',
            ]
            writer.write(b"".join(lines))
            await writer.drain()
            frames = []
            while sum(f["op"] == "result" for f in frames) < len(submits):
                frames += await _frames(reader, 1)
            # The connection is still up after all of that.
            writer.write(b'{"op": "ping", "tag": "after"}\n')
            await writer.drain()
            frames += await _frames(reader, 1)
            return frames

        frames = _serve(_tcp_session(exchange))
        by_tag = {}
        for frame in frames:
            by_tag.setdefault(frame.get("tag"), []).append(frame)
        assert [f["op"] for f in by_tag["stats"]] == ["stats"]
        assert [f["op"] for f in by_tag["ping"]] == ["pong"]
        assert [f["op"] for f in by_tag["after"]] == ["pong"]
        (bad,) = by_tag[None]
        assert bad["op"] == "error" and "bad JSON" in bad["error"]
        for tag, (pts, stream, source) in submits.items():
            ops = [f["op"] for f in by_tag[tag]]
            assert ops[0] == "accepted" and ops[-1] == "result", (tag, ops)
            progress = [
                (f["done"], f["total"]) for f in by_tag[tag][1:-1]
            ]
            assert set(ops[1:-1]) <= {"progress"}, (tag, ops)
            if stream:
                assert progress[-1] == (len(pts), len(pts)), tag
                assert progress == sorted(progress), tag
            else:
                assert not progress, tag
            result = by_tag[tag][-1]
            assert result["results"] == _wire_pairs(
                "bcast_tree", {"k": 6}, pts
            ), tag
            assert result["sources"][source] == len(pts), tag
        # An all-hit stream is answered in one turn: one progress frame.
        assert [f["op"] for f in by_tag["hit-stream"]] == [
            "accepted", "progress", "result"
        ]

    def test_refused_submits_are_answered_and_the_connection_kept(self):
        point = [{"L": 6.0, "o": 1.0, "g": 4.0, "P": 4}]

        async def exchange(server, reader, writer):
            real_submit = server.submit
            calls = []

            async def flaky(request):
                calls.append(request)
                if len(calls) == 1:
                    raise KeyError("lost")
                return await real_submit(request)

            server.submit = flaky
            writer.write(
                _submit_line("unhashable", "stream", point, {"k": [1, 2]})
                + _submit_line("raises", "stream", point, {"k": 4})
                + _submit_line("good", "stream", point, {"k": 4})
            )
            await writer.drain()
            return await _frames(reader, 4)

        frames = _serve(_tcp_session(exchange))
        assert frames[0] == {
            "op": "error", "tag": "unhashable",
            "error": "TypeError: program arg 'k' has unhashable type list; "
                     "args must be hashable scalars",
        }
        assert frames[1] == {
            "op": "error", "tag": "raises", "error": "KeyError: 'lost'"
        }
        assert [f["op"] for f in frames[2:]] == ["accepted", "result"]
        assert frames[3]["results"] == _wire_pairs("stream", {"k": 4}, point)

    def test_a_frame_that_is_not_an_object_is_answered(self):
        async def exchange(server, reader, writer):
            writer.write(b'[1, 2]\n{"op": "ping", "tag": "p"}\n')
            await writer.drain()
            return await _frames(reader, 2)

        frames = _serve(_tcp_session(exchange))
        assert frames[0]["op"] == "error" and "JSON object" in frames[0]["error"]
        assert frames[1] == {"op": "pong", "tag": "p"}


class TestFrameFormatting:
    """A job's own frames are formatted directly, not by the encoder;
    each must be byte for byte ``_encode`` of its frame dict, which in
    turn must be what ``json.dumps`` writes."""

    TAGS = [
        0, -1, -(2**63), 2**64 + 1, 10**30, 1.5, -0.0, 1e-300, 1e300,
        "r1", 'say "hi"', "back\\slash", "ctl\x00\x01\x1f\x7f\n\t",
        "ünïcødé €😀", "", None, True, False, [], {},
        [1, [2.5, None, {"a": [True, "x"]}]], {"z": 1, "a": {"b": [1, "y"]}},
    ]
    RESULTS = [
        [(0.0, -0.0)],
        [(5e-324, 1e300), (-5e-324, -1e-300)],
        [(1.0, 2.0), (75.0, 0.0), (-3.0, 1e16), (1e22, 123456789.0)],
        [(1 / 3, 2 / 3), (0.1, 0.2 + 0.1)],
        [(0.1 * i, 1.0 / (i + 1)) for i in range(1000)],
        [(3, 0)],  # not floats: the encoder writes them
    ]

    @staticmethod
    def _job(results):
        from types import SimpleNamespace

        n = len(results)
        return SimpleNamespace(
            id=4321, total=n,
            sources={"cache": n - 2, "inflight": 1, "computed": 1},
        )

    @pytest.mark.parametrize("tag", TAGS, ids=repr)
    def test_frames_equal_the_encoders_bytes(self, tag):
        from repro.serve.protocol import (
            _ENCODER,
            _accepted,
            _encode,
            _progress,
            _result,
        )

        text = _ENCODER.encode(tag)
        for results in self.RESULTS:
            job = self._job(results)
            frames = [
                (_accepted(text, job),
                 {"op": "accepted", "tag": tag, "job": job.id,
                  "total": job.total}),
                (_progress(text, job, job.total - 1),
                 {"op": "progress", "tag": tag, "job": job.id,
                  "done": job.total - 1, "total": job.total}),
                (_result(text, job, results),
                 {"op": "result", "tag": tag, "job": job.id,
                  "results": [list(pair) for pair in results],
                  "sources": job.sources}),
            ]
            for got, obj in frames:
                want = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
                assert _encode(obj) == want
                assert got == want

    def test_a_non_finite_value_takes_the_encoders_path(self):
        from repro.serve.protocol import _ENCODER, _encode, _result

        inf, nan = float("inf"), float("nan")
        results = [(inf, 1.0), (-inf, nan), (2.5, inf)]
        job = self._job(results)
        got = _result(_ENCODER.encode("t"), job, results)
        assert got == _encode(
            {"op": "result", "tag": "t", "job": job.id,
             "results": [list(pair) for pair in results],
             "sources": job.sources}
        )
        assert b"[Infinity,1.0],[-Infinity,NaN],[2.5,Infinity]" in got

    def test_an_all_hit_stream_is_the_encoders_frames_in_order(self):
        from repro.serve.protocol import _encode

        points = TestHitPath.POINTS[:5]
        tag = {"id": 'q"7', "n": [1, 2.5]}

        async def exchange(server, reader, writer):
            writer.write(_submit_line("warm", "bcast_tree", points, {"k": 6}))
            await writer.drain()
            await _frames(reader, 2)
            writer.write(
                _submit_line(tag, "bcast_tree", points, {"k": 6}, stream=True)
            )
            await writer.drain()
            return [
                await asyncio.wait_for(reader.readline(), 30)
                for _ in range(3)
            ]

        lines = _serve(_tcp_session(exchange))
        job = json.loads(lines[0])["job"]
        n = len(points)
        assert lines == [
            _encode({"op": "accepted", "tag": tag, "job": job, "total": n}),
            _encode({"op": "progress", "tag": tag, "job": job, "done": n,
                     "total": n}),
            _encode({"op": "result", "tag": tag, "job": job,
                     "results": _wire_pairs("bcast_tree", {"k": 6}, points),
                     "sources": {"cache": n, "inflight": 0, "computed": 0}}),
        ]


class TestOneStepPerHit:
    """An answered hit canonicalizes and fingerprints its args once,
    keys its points with ``CacheKey``s, makes no event and awaits
    ``drain()`` once."""

    POINTS = TestHitPath.POINTS

    def test_a_submit_canonicalizes_and_fingerprints_once(self, monkeypatch):
        import repro.serve.registry as registry
        import repro.serve.server as server_mod

        calls = {"canonical_args": 0, "fingerprint": 0}
        real_canonical = registry.canonical_args
        real_fingerprint = server_mod.fingerprint

        def canonical(args):
            calls["canonical_args"] += 1
            return real_canonical(args)

        def fingerprint_(name, args):
            calls["fingerprint"] += 1
            return real_fingerprint(name, args)

        monkeypatch.setattr(registry, "canonical_args", canonical)
        monkeypatch.setattr(server_mod, "canonical_args", canonical)
        monkeypatch.setattr(server_mod, "fingerprint", fingerprint_)
        submits = [
            _submit_line(i, "bcast_tree", self.POINTS[: 1 + i % 8],
                         {"k": 6}, stream=i % 2 == 0)
            for i in range(12)
        ]

        async def exchange(server, reader, writer):
            frames = []
            for line in submits:  # the first computes, the rest hit
                writer.write(line)
                await writer.drain()
                frames += await _frames(reader, 1)
                while frames[-1]["op"] != "result":
                    frames += await _frames(reader, 1)
            return frames

        frames = _serve(_tcp_session(exchange))
        assert sum(f["op"] == "result" for f in frames) == len(submits)
        assert calls == {
            "canonical_args": len(submits), "fingerprint": len(submits)
        }

    def test_a_job_finished_at_submit_makes_no_event(self, monkeypatch):
        request = SweepRequest.make("stream", O_SWEEP[:3], args={"k": 4})
        made = []

        class CountingEvent(asyncio.Event):
            def __init__(self):
                made.append(self)
                super().__init__()

        async def run():
            async with SimulationServer(ServeConfig(workers=1)) as server:
                cold = await server.submit(request)
                streamed = [u async for u in cold.updates()]
                await cold.wait()
                monkeypatch.setattr(asyncio, "Event", CountingEvent)
                job = await server.submit(request)
                updates = [u async for u in job.updates()]
                return job.finished, updates, streamed, await job.wait()

        finished, updates, streamed, results = _serve(run())
        assert finished and made == []
        assert updates == [(3, 3)]
        assert streamed[-1] == (3, 3)  # a job that waits still streams
        assert results == _serial_reference("stream", {"k": 4}, O_SWEEP[:3])

    def test_a_burst_of_hits_awaits_one_drain_a_submit(self, monkeypatch):
        drains = []
        real_drain = asyncio.StreamWriter.drain

        async def exchange(server, reader, writer):
            writer.write(
                _submit_line("warm", "bcast_tree", self.POINTS, {"k": 6})
            )
            await writer.drain()
            await _frames(reader, 2)

            async def counting(self):
                if self is not writer:
                    drains.append(1)
                return await real_drain(self)

            monkeypatch.setattr(asyncio.StreamWriter, "drain", counting)
            writer.write(b"".join(
                _submit_line(i, "bcast_tree", [self.POINTS[i % 8]], {"k": 6},
                             stream=i % 2 == 1)
                for i in range(16)
            ))
            await writer.drain()
            return await _frames(reader, 16 * 2 + 8)

        frames = _serve(_tcp_session(exchange))
        assert [f["op"] for f in frames].count("result") == 16
        assert len(drains) == 16

    def test_keys_in_the_server_are_cache_keys(self):
        """Every key the server stores or waits on is a ``CacheKey``: a
        plain tuple with equal fields would alias it in a dict."""
        latency = {"kind": "jittered", "L": 6.0, "scale_frac": 0.1, "seed": 7}
        requests = [
            SweepRequest.make("stream", O_SWEEP[:4], args={"k": 4}),
            SweepRequest.make("stream", O_SWEEP[2:6], args={"k": 4}),
            SweepRequest.make("stream", O_SWEEP[:4], args={"k": 4},
                              latency=latency, seed=3),
        ]

        async def run():
            async with SimulationServer(ServeConfig(workers=1)) as server:
                jobs = [await server.submit(r) for r in requests]
                waiting = list(server._inflight)
                pending = [
                    key for group in server._pending.values()
                    for key, _raw in group.entries
                ]
                for job in jobs:
                    await job.wait()
                again = await server.submit(requests[0])
                return waiting, pending, list(server.cache._store), again

        waiting, pending, stored, again = _serve(run())
        assert waiting and pending and len(stored) == 10
        for key in waiting + pending + stored:
            assert type(key) is CacheKey, key
        assert again.sources["cache"] == 4


class TestCacheKeyTuple:
    FIELDS = {
        "fingerprint": "fp",
        "point": (6.0, 1.0, 4.0, 4, None),
        "seed": None,
        "backend": "auto",
        "latency": None,
    }
    OTHER = {
        "fingerprint": "fq",
        "point": (6.0, 1.0, 4.0, 8, None),
        "seed": 3,
        "backend": "machine",
        "latency": ("fixed", ("L", 6.0)),
    }

    def test_equal_and_hash_equal_exactly_when_fields_are(self):
        base = CacheKey(**self.FIELDS)
        for same in (
            CacheKey(*self.FIELDS.values()),
            CacheKey("fp", (6.0, 1.0, 4.0, 4, None), None, "auto"),
            CacheKey("fp", (6, 1, 4, 4, None), None, "auto"),  # 6 == 6.0
        ):
            assert same == base and hash(same) == hash(base)
            assert {base: 1}[same] == 1
        for name, value in self.OTHER.items():
            other = CacheKey(**{**self.FIELDS, name: value})
            assert other != base, name
            assert other not in {base: 1}, name

    def test_pickle_keeps_the_type_and_the_fields(self):
        import pickle

        for fields in (self.FIELDS, self.OTHER):
            key = CacheKey(**fields)
            back = pickle.loads(pickle.dumps(key))
            assert type(back) is CacheKey
            assert back == key and back._asdict() == fields

    def test_journal_and_snapshot_round_trip(self, tmp_path):
        from repro.serve import CachePersistence

        fp = fingerprint("stream", {"k": 4})
        jitter = ("jittered", ("L", 6.0), ("scale_frac", 0.1), ("seed", 7))
        entries = [
            ("stream", (("k", 4),),
             CacheKey(fp, (6.0 + i, 0.5, 4.0, 4, None), seed, backend, lat),
             (20.0 + i / 3, 0.1 * i))
            for i, (seed, backend, lat) in enumerate([
                (None, "auto", None),
                (7, "machine", None),
                (None, "compiled", jitter),
            ])
        ]
        store = CachePersistence(str(tmp_path))
        for program, args, key, pair in entries:
            store.record(program, args, key, pair)
        store.close()
        journaled = CachePersistence(str(tmp_path)).load()
        snap = CachePersistence(str(tmp_path))
        snap.snapshot(entries)
        snap.close()
        snapshotted = CachePersistence(str(tmp_path)).load()
        for loaded in (journaled, snapshotted):
            assert loaded == entries
            for (_p, _a, key, _pair), (_q, _b, want, _w) in zip(
                loaded, entries
            ):
                assert type(key) is CacheKey
                assert {want: 1}[key] == 1


class TestUndecodableFrames:
    def test_bad_utf8_and_deep_nesting_keep_the_connection(self):
        async def exchange(server, reader, writer):
            writer.write(
                b'{"op": "\xff"}\n'
                + b"[" * 100_000 + b"\n"
                + b'{"op": "ping", "tag": "after"}\n'
            )
            await writer.drain()
            return await _frames(reader, 3)

        frames = _serve(_tcp_session(exchange))
        assert frames[0]["op"] == "error"
        assert frames[0]["error"].startswith("bad JSON: 'utf-8' codec")
        assert frames[1]["op"] == "error"
        assert frames[1]["error"].startswith("bad JSON: maximum recursion")
        assert frames[2] == {"op": "pong", "tag": "after"}


class TestGracefulShutdown:
    """``aclose(drain=...)``: finish accepted jobs, or fail them loudly."""

    def test_drain_completes_inflight_jobs(self):
        from repro.serve import ServerShutdown

        points = O_SWEEP[:6]
        want = _serial_reference("stream", {"k": 4}, points)

        async def run():
            server = await SimulationServer(
                ServeConfig(workers=1, batch_window=0.01)
            ).start()
            req = SweepRequest.make("stream", points, args={"k": 4})
            job = await server.submit(req)
            # Close immediately: the batcher has not evaluated yet.
            await server.aclose()  # drain=True default
            results = await job.wait()
            with pytest.raises(ServerShutdown):
                await server.submit(req)
            return results

        assert _serve(run()) == want

    def test_abandon_fails_jobs_with_server_shutdown(self):
        from repro.serve import ServerShutdown

        async def run():
            # A long coalescing window guarantees the batch is still
            # pending when the server abandons it.
            server = await SimulationServer(
                ServeConfig(workers=1, batch_window=30.0)
            ).start()
            req = SweepRequest.make("stream", O_SWEEP[:4], args={"k": 4})
            job = await server.submit(req)
            await server.aclose(drain=False)
            with pytest.raises(ServerShutdown, match="server-shutdown"):
                await job.wait()

        _serve(run())

    def test_abandon_during_a_pool_map_leaves_no_worker(self, monkeypatch):
        """``aclose(drain=False)`` while a batch runs on the pool: the
        job fails with ``ServerShutdown``, and the map, which sees its
        workers killed, forks no replacement that outlives the server."""
        import multiprocessing
        import threading
        import time

        from repro.serve import ServerShutdown
        from repro.sim.supervise import SupervisedPool

        mapping = threading.Event()
        real_map = SupervisedPool.map

        def spy(self, *args, **kwargs):
            mapping.set()
            return real_map(self, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "map", spy)
        before = {p.pid for p in multiprocessing.active_children()}
        # 1,024 machine points: seconds of work for the two workers, so
        # the close lands while the map runs.
        points = [
            LogPParams(L=4.0 + 0.01 * i, o=1.0, g=4.0, P=8)
            for i in range(1024)
        ]

        async def run():
            server = await SimulationServer(
                ServeConfig(workers=2, batch_window=0.0)
            ).start()
            job = await server.submit(
                SweepRequest.make(
                    "flood", points, args={"k": 16}, backend="machine"
                )
            )
            while not (mapping.is_set() and server._pool.started):
                await asyncio.sleep(0.005)
            await server.aclose(drain=False)
            with pytest.raises(ServerShutdown):
                await job.wait()

        _serve(run())
        deadline = time.monotonic() + 5.0
        while True:
            left = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert not left, f"pool processes {sorted(left)} outlived the server"

    def test_close_is_an_alias(self):
        from repro.serve import ServerShutdown

        async def run():
            server = await SimulationServer(
                ServeConfig(workers=1)
            ).start()
            await server.close()
            with pytest.raises(ServerShutdown):
                await server.submit(
                    SweepRequest.make("stream", O_SWEEP[:1], args={"k": 4})
                )

        _serve(run())

    def test_tcp_client_sees_server_shutdown_error_frame(self):
        import json

        from repro.serve.protocol import start_tcp_server

        async def run():
            server = SimulationServer(
                ServeConfig(workers=1, batch_window=30.0)
            )
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    json.dumps(
                        {
                            "op": "submit",
                            "program": "stream",
                            "points": [
                                {"L": 6.0, "o": 1.0, "g": 4.0, "P": 4}
                            ],
                            "args": {"k": 4},
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                accepted = json.loads(await reader.readline())
                await server.aclose(drain=False)
                error = json.loads(await reader.readline())
                return accepted, error
            finally:
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        accepted, error = _serve(run())
        assert accepted["op"] == "accepted"
        assert error["op"] == "error"
        assert error["error"] == "server-shutdown"
        assert "abandoned" in error["detail"]
