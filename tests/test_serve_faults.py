"""The service fault model (DESIGN.md §12), pinned as tests.

Four failure axes, each with its contract:

* **Cache persistence** — journal + snapshot round-trip bit-exactly
  (JSON shortest-repr floats are lossless), a stale fingerprint is
  dropped loudly, a torn journal tail is truncated to the last whole
  record, and a server killed with ``kill -9`` mid-job replays its
  journal on restart and serves the same bits warm.  Compaction follows
  the growth rule (snapshots scale with results over cache size, the
  journal stays bounded, restarts included), and a failed journal or
  snapshot write never stops the batcher.
* **Deadlines** — an expired job fails with
  :class:`~repro.serve.JobDeadlineError` promptly; the shared
  computation (and the server) outlives the failed waiter.
* **Admission** — past ``max_pending_points`` a submission is refused
  atomically with :class:`~repro.serve.ServerOverloaded`; nothing about
  the refused request is partially registered.
* **Cancellation** — ``cancel_job`` fails only the cancelled job's
  waiters, with :class:`~repro.serve.JobCancelledError`.

Timing assertions carry generous slack: CI runs this on one busy core.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import io
import json
import math
import os
import time
import warnings

import pytest

import repro.serve.cache
from repro.core import LogPParams
from repro.serve import (
    CachePersistence,
    JobCancelledError,
    JobDeadlineError,
    ServeConfig,
    ServerOverloaded,
    SimulationServer,
    SweepRequest,
)

POINTS = [
    LogPParams(L=4.0 + i, o=0.5 + 0.25 * i, g=2.0, P=8) for i in range(4)
]

#: Distinct machine-backend points: slow enough that a 0.3s deadline
#: (or a cancel) lands while the batch is genuinely mid-computation.
HEAVY = [LogPParams(L=4.0 + 0.01 * i, o=1.0, g=4.0, P=16) for i in range(300)]


def _request(seed=None, points=POINTS, backend="compiled"):
    return SweepRequest.make(
        "bcast_tree", points, args={"k": 6}, seed=seed, backend=backend
    )


def _heavy_request(deadline=None):
    return SweepRequest.make(
        "flood", HEAVY, args={"k": 40}, backend="machine", deadline=deadline
    )


async def _serve_once(config: ServeConfig, requests: list) -> list:
    async with SimulationServer(config) as server:
        out = []
        for request in requests:
            job = await server.submit(request)
            out.append(await job.wait())
        return out


class TestPersistenceRoundTrip:
    def test_results_survive_graceful_restart_bit_exactly(self, tmp_path):
        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, cache_dir=str(tmp_path)
            )
            first = await _serve_once(config, [_request()])
            async with SimulationServer(config) as server:
                job = await server.submit(_request())
                warm = await job.wait()
                return first[0], warm, job.sources, server.stats_snapshot()

        first, warm, sources, stats = asyncio.run(run())
        assert warm == first  # bit-identical across the restart
        assert sources["cache"] == len(POINTS)
        assert stats["persistence"]["loaded"] == len(POINTS)
        assert stats["persistence"]["dropped_stale"] == 0

    def test_graceful_close_compacts_into_a_snapshot(self, tmp_path):
        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, cache_dir=str(tmp_path)
            )
            await _serve_once(config, [_request()])

        asyncio.run(run())
        snapshot = tmp_path / CachePersistence.SNAPSHOT
        journal = tmp_path / CachePersistence.JOURNAL
        assert snapshot.exists()
        assert len(snapshot.read_text().splitlines()) == len(POINTS)
        assert journal.read_text() == ""  # reset after compaction

    def test_snapshot_every_compacts_mid_flight(self, tmp_path):
        async def run():
            config = ServeConfig(
                batch_window=0.0,
                workers=1,
                cache_dir=str(tmp_path),
                snapshot_every=2,
            )
            reqs = [_request(seed=i) for i in range(3)]
            await _serve_once(config, reqs)

        asyncio.run(run())
        persist = CachePersistence(str(tmp_path))
        entries = persist.load()
        # 3 requests x 4 points, every one present post-compaction.
        assert len(entries) == 12
        assert persist.stats["torn_tails"] == 0
        assert persist.stats["snapshots"] == 0  # load() never compacts


class TestPersistenceUnit:
    def _seed_journal(self, tmp_path, n=3):
        from repro.serve.cache import CacheKey
        from repro.serve.registry import fingerprint

        fp = fingerprint("bcast_tree", {"k": 6})
        writer = CachePersistence(str(tmp_path))
        entries = []
        for i in range(n):
            key = CacheKey(
                fingerprint=fp,
                point=(4.0 + i, 0.5, 2.0, 8, None),
                seed=None,
                backend="compiled",
                latency=None,
            )
            pair = (10.123456789 + i, 2.0 * i)
            writer.record("bcast_tree", (("k", 6),), [key], [pair])
            entries.append(("bcast_tree", (("k", 6),), key, pair))
        writer.close()
        return entries

    def test_journal_round_trip_is_bit_exact(self, tmp_path):
        entries = self._seed_journal(tmp_path)
        loaded = CachePersistence(str(tmp_path)).load()
        assert loaded == entries  # floats included: shortest-repr JSON

    def test_torn_tail_is_truncated_to_last_whole_record(self, tmp_path):
        self._seed_journal(tmp_path, n=3)
        journal = tmp_path / CachePersistence.JOURNAL
        data = journal.read_bytes()
        journal.write_bytes(data[:-9])  # tear the final record mid-JSON
        reader = CachePersistence(str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = reader.load()
        assert len(loaded) == 2
        assert reader.stats["torn_tails"] == 1
        assert any("torn" in str(w.message) for w in caught)
        # The tear was truncated *in place*: a second reader sees a
        # clean journal ending at the last whole record.
        again = CachePersistence(str(tmp_path))
        assert len(again.load()) == 2
        assert again.stats["torn_tails"] == 0

    def test_unterminated_last_line_is_torn_even_if_decodable(
        self, tmp_path
    ):
        self._seed_journal(tmp_path, n=2)
        journal = tmp_path / CachePersistence.JOURNAL
        # Strip only the trailing newline: the bytes parse, but an
        # unterminated record means the write may not have finished.
        journal.write_bytes(journal.read_bytes()[:-1])
        reader = CachePersistence(str(tmp_path))
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert len(reader.load()) == 1
        assert reader.stats["torn_tails"] == 1

    def test_stale_fingerprint_is_dropped_loudly(self, tmp_path):
        import json

        self._seed_journal(tmp_path, n=2)
        journal = tmp_path / CachePersistence.JOURNAL
        lines = journal.read_text().splitlines()
        record = json.loads(lines[0])
        record["fp"] = "0" * len(record["fp"])  # another code version
        lines[0] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n")
        reader = CachePersistence(str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = reader.load()
        assert len(loaded) == 1
        assert reader.stats["dropped_stale"] == 1
        assert any("stale" in str(w.message) for w in caught)

    def test_snapshot_is_atomic_and_resets_journal(self, tmp_path):
        entries = self._seed_journal(tmp_path, n=3)
        persist = CachePersistence(str(tmp_path))
        persist.load()
        persist.snapshot(entries[:2])  # e.g. one entry was LRU-evicted
        persist.close()
        reader = CachePersistence(str(tmp_path))
        assert reader.load() == entries[:2]
        assert (tmp_path / CachePersistence.JOURNAL).read_text() == ""


def _record_dict_line(program, args, key, pair) -> str:
    """A record line as ``json.dumps`` writes the record dict."""
    return json.dumps(
        {
            "p": program,
            "a": [list(kv) for kv in args],
            "fp": key.fingerprint,
            "k": [
                list(key.point),
                key.seed,
                key.backend,
                None if key.latency is None else [
                    list(x) if isinstance(x, tuple) else x
                    for x in key.latency
                ],
            ],
            "v": list(pair),
        },
        separators=(",", ":"),
    ) + "\n"


class TestGroupCommit:
    """A computed group is journaled with one write and one flush, in
    the same bytes as one ``json.dumps`` per record."""

    JITTER = ("jittered", ("L", 6.0), ("scale_frac", 0.1), ("seed", 7))
    UNIFORM = ("uniform", ("L", 6.0), ("lo_frac", 0.25), ("seed", -3))
    NAN, INF = float("nan"), float("inf")
    #: (program, args, seed, backend, latency, [(point, pair)]): each
    #: row one batch, its points sharing the row's shape.
    BATCHES = [
        ("bcast_tree", (("k", 6),), None, "compiled", None, [
            ((4.0, 0.5, 2.0, 8, None), (10.123456789, 0.0)),
            ((-0.0, 5e-324, 1e300, 8, None), (-0.0, 5e-324)),
            ((6.0, 1.0, 4.0, 2048, None), (1e300, 2.0)),
        ]),
        ("loggp_bcast", (("k", 4), ("m", 2.5)), 0, "auto", None, [
            ((6.0, 1.0, 4.0, 8, 0.25), (31.5, 1.0)),
            ((6.0, 1.0, 4.0, 8, 2.0), (1.1, 2.2)),
        ]),
        ("stream", (("k", 16),), -7, "compiled", JITTER, [
            ((6.0, 0.1 + 0.2, 4.0, 4, None), (INF, 0.0)),
            ((6.0, 1.0, 4.0, 4, None), (-INF, NAN)),
        ]),
        ("flöde", (("name", "ß"),), 2**40, "machine", UNIFORM, [
            ((8.0, 1.0, 4.0, 16, None), (123456789.0, 1e-7)),
        ]),
    ]

    def _entries(self, batch):
        from repro.serve.cache import CacheKey

        program, args, seed, backend, latency, rows = batch
        return [
            (program, args,
             CacheKey(f"fp-{program}", point, seed, backend, latency), pair)
            for point, pair in rows
        ]

    def test_lines_are_json_dumps_of_the_record(self, tmp_path):
        persist = CachePersistence(str(tmp_path))
        entries = []
        for batch in self.BATCHES:
            rows = self._entries(batch)
            persist.record(
                batch[0], batch[1], [k for _p, _a, k, _v in rows],
                [v for _p, _a, _k, v in rows],
            )
            entries += rows
        want = [_record_dict_line(*entry) for entry in entries]
        journal = (tmp_path / CachePersistence.JOURNAL).read_text()
        assert journal.splitlines(keepends=True) == want
        # The snapshot interleaves shapes, as an LRU order does.
        entries = entries[::2] + entries[1::2]
        persist.snapshot(entries)
        persist.close()
        snapshot = (tmp_path / CachePersistence.SNAPSHOT).read_text()
        assert snapshot.splitlines(keepends=True) == [
            _record_dict_line(*entry) for entry in entries
        ]

    def test_a_batch_is_one_write_and_one_flush(self, tmp_path, monkeypatch):
        calls = []

        class Counting(io.BufferedWriter):
            def write(self, data):
                calls.append("write")
                return super().write(data)

            def flush(self):
                calls.append("flush")
                return super().flush()

        def fake_open(path, mode="r", **kw):
            return Counting(io.FileIO(path, mode))

        monkeypatch.setattr(repro.serve.cache, "open", fake_open, raising=False)
        persist = CachePersistence(str(tmp_path))
        rows = self._entries(
            ("bcast_tree", (("k", 6),), None, "compiled", None, [
                ((4.0 + i, 0.5, 2.0, 8, None), (10.0 + i, 0.5))
                for i in range(64)
            ])
        )
        persist.record(
            "bcast_tree", (("k", 6),), [k for _p, _a, k, _v in rows],
            [v for _p, _a, _k, v in rows],
        )
        assert calls == ["write", "flush"]
        assert persist.stats["journal_records"] == 64
        persist.close()
        assert _lines(tmp_path / CachePersistence.JOURNAL) == 64

    def test_nothing_is_cached_or_resolved_before_the_flush(
        self, tmp_path, monkeypatch
    ):
        seen = []
        real = CachePersistence.record

        def spy(persist, program, args, keys, pairs):
            seen.append((
                [key in server.cache._store for key in keys],
                job.done,
            ))
            return real(persist, program, args, keys, pairs)

        monkeypatch.setattr(CachePersistence, "record", spy)

        async def run():
            nonlocal server, job
            config = ServeConfig(
                batch_window=0.0, workers=1, cache_dir=str(tmp_path)
            )
            async with SimulationServer(config) as server:
                job = await server.submit(_request())
                return await job.wait()

        server = job = None
        results = asyncio.run(run())
        assert seen == [([False] * len(POINTS), 0)]
        assert len(results) == len(POINTS)


#: Serves two requests on a cache dir with the ``repro`` found on
#: ``PYTHONPATH``; prints what the replay loaded and what was served
#: from the cache.
_CACHE_LIFE = """
import asyncio, json, sys, warnings
from repro.serve import ServeConfig, SimulationServer, SweepRequest

async def main():
    points = [{"L": 6.0, "o": 2.0, "g": 4.0, "P": 4},
              {"L": 8.0, "o": 1.0, "g": 4.0, "P": 4}]
    config = ServeConfig(batch_window=0.0, workers=1, cache_dir=sys.argv[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        async with SimulationServer(config) as server:
            persist = server.stats_snapshot()["persistence"]
            cached = 0
            for family in ("stream", "bcast_tree"):
                job = await server.submit(
                    SweepRequest.make(family, points, args={"k": 4})
                )
                await job.wait()
                cached += job.sources["cache"]
    print(json.dumps({
        "loaded": persist["loaded"],
        "dropped_stale": persist["dropped_stale"],
        "cached": cached,
        "warnings": [str(w.message) for w in caught
                     if issubclass(w.category, RuntimeWarning)],
    }))

asyncio.run(main())
"""


class TestCodeEditInvalidatesCache:
    def test_evaluator_edit_drops_every_persisted_entry(self, tmp_path):
        """A cache written by one copy of the code and replayed by the
        same copy after a one-token edit to the compiled evaluator:
        every entry is dropped as stale, loudly, and none is served."""
        import json
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = tmp_path / "src"
        shutil.copytree(
            Path(repro.__file__).parent, root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache_dir = tmp_path / "cache"

        def life() -> dict:
            env = dict(os.environ, PYTHONPATH=str(root))
            out = subprocess.run(
                [sys.executable, "-c", _CACHE_LIFE, str(cache_dir)],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            return json.loads(out.stdout)

        first = life()
        assert first["loaded"] == 0 and first["cached"] == 0
        same = life()  # the unedited copy serves all four points warm
        assert same["loaded"] == 4 and same["dropped_stale"] == 0
        assert same["cached"] == 4

        evaluator = root / "repro" / "sim" / "compiled" / "evaluator.py"
        text = evaluator.read_text()
        assert text.count("_PAST_TOL = 1e-12") == 1
        evaluator.write_text(
            text.replace("_PAST_TOL = 1e-12", "_PAST_TOL = 1e-9")
        )
        edited = life()
        assert edited["loaded"] == 0
        assert edited["dropped_stale"] == 4
        assert edited["cached"] == 0
        assert any("stale" in w for w in edited["warnings"])


def _lines(path) -> int:
    return len(path.read_bytes().splitlines()) if path.exists() else 0


class TestCompaction:
    """The growth rule: a snapshot is paid for by as many journaled
    results as it rewrites."""

    def test_snapshots_scale_with_results_over_cache_size(self, tmp_path):
        C, F, N = 64, 4, 640
        journal = tmp_path / CachePersistence.JOURNAL
        snapshot = tmp_path / CachePersistence.SNAPSHOT

        async def run():
            config = ServeConfig(
                batch_window=0.0,
                workers=1,
                cache_dir=str(tmp_path),
                cache_entries=C,
                snapshot_every=F,
            )
            async with SimulationServer(config) as server:
                sizes = []
                for start in range(0, N, 4):
                    points = [
                        LogPParams(L=4.0 + 0.25 * i, o=1.0, g=2.0, P=8)
                        for i in range(start, start + 4)
                    ]
                    await server.run_request(_request(points=points))
                    sizes.append((_lines(journal), _lines(snapshot)))
                # The files as a kill -9 would leave them: every record
                # flushed, no graceful snapshot.
                replayed = {
                    key: pair
                    for _p, _a, key, pair in CachePersistence(
                        str(tmp_path)
                    ).load()
                }
                live = dict(server.cache.items())
                return server.stats_snapshot(), sizes, live, replayed

        stats, sizes, live, replayed = asyncio.run(run())
        assert stats["cache"]["evictions"] == N - C
        # A fixed period of F would have compacted N / F = 160 times.
        assert stats["persistence"]["snapshots"] <= (
            math.log2(C / F) + N / C + 2
        )
        assert all(j <= max(F, snap) for j, snap in sizes), sizes
        assert len(live) == C
        assert {key: replayed.get(key) for key in live} == live

    def test_restart_counts_the_replayed_journal(self, tmp_path):
        from repro.serve.cache import CacheKey
        from repro.serve.registry import fingerprint

        F = 4
        fp = fingerprint("bcast_tree", {"k": 6})
        writer = CachePersistence(str(tmp_path))
        for i in range(F):  # a journal at its bound, left by a kill -9
            key = CacheKey(fp, (40.0 + i, 1.0, 2.0, 8, None), None, "compiled")
            writer.record("bcast_tree", (("k", 6),), [key], [(50.5 + i, 1.0)])
        writer.close()

        async def run():
            config = ServeConfig(
                batch_window=0.0,
                workers=1,
                cache_dir=str(tmp_path),
                snapshot_every=F,
            )
            async with SimulationServer(config) as server:
                replayed = server.stats_snapshot()["persistence"]
                await server.run_request(_request(points=POINTS[:1]))
                after = server.stats_snapshot()["persistence"]
                journal = tmp_path / CachePersistence.JOURNAL
                return replayed, after, _lines(journal)

        replayed, after, journal_lines = asyncio.run(run())
        assert replayed["since_snapshot"] == F
        assert after["snapshots"] == 1  # the first group compacts
        assert journal_lines == 0
        assert _lines(tmp_path / CachePersistence.SNAPSHOT) == F + 1


class _FillingDisk(io.FileIO):
    """A file on a disk with room for ``whole`` more lines: the write
    that reaches past them lands those lines and half of the next, and
    the next write raises ENOSPC, as write(2) does on a full disk."""

    def __init__(self, path, mode, whole):
        super().__init__(path, mode)
        self.whole = whole
        self.full = False

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        data = bytes(data)
        end = 0
        while self.whole and (nl := data.find(b"\n", end)) >= 0:
            end = nl + 1
            self.whole -= 1
        if self.whole:
            return super().write(data)
        self.full = True
        nl = data.find(b"\n", end)
        torn = len(data) if nl < 0 else nl
        return super().write(data[: end + (torn - end) // 2])


def _fill_disk(monkeypatch, suffix: str, whole: int) -> None:
    """Open files ending in ``suffix`` on a disk that fills; see
    :class:`_FillingDisk`.  Other files open normally."""

    def fake_open(path, mode="r", **kw):
        if not str(path).endswith(suffix):
            return open(path, mode, **kw)
        buffered = io.BufferedWriter(_FillingDisk(path, mode, whole))
        return buffered if "b" in mode else io.TextIOWrapper(buffered, **kw)

    monkeypatch.setattr(repro.serve.cache, "open", fake_open, raising=False)


@contextlib.asynccontextmanager
async def _undrained(config):
    """A started server closed without draining: with the test's
    ``wait_for`` bound, a dead batcher fails the test instead of
    hanging it (a draining close would wait on its points forever)."""
    server = await SimulationServer(config).start()
    try:
        yield server
    finally:
        await server.aclose(drain=False)


class TestPersistenceWriteFaults:
    """A failed journal or snapshot write never stops the batcher."""

    def test_failed_append_fails_the_rest_of_the_group(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / CachePersistence.JOURNAL

        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, cache_dir=str(tmp_path)
            )
            async with _undrained(config) as server:
                # Two records land whole, the third is cut mid-line.
                _fill_disk(monkeypatch, CachePersistence.JOURNAL, whole=2)
                with pytest.raises(OSError) as excinfo:
                    await server.run_request(_request())
                after_failure = journal.read_bytes()
                errors = server.stats_snapshot()["errors"]
                monkeypatch.undo()
                job = await server.submit(_request())
                results = await job.wait()
                return (
                    excinfo.value, after_failure, errors, results,
                    job.sources,
                )

        bounded = asyncio.wait_for(run(), timeout=60)
        exc, after_failure, errors, results, sources = asyncio.run(bounded)
        assert exc.errno == errno.ENOSPC
        assert errors == 1
        # No fragment left for the next append to extend.
        assert after_failure.count(b"\n") == 2
        assert after_failure.endswith(b"\n")
        # Only the journaled points were cached.
        assert sources == {"cache": 2, "inflight": 0, "computed": 2}
        reader = CachePersistence(str(tmp_path))
        loaded = reader.load()
        assert reader.stats["torn_tails"] == 0
        assert [pair for _p, _a, _k, pair in loaded] == results

    def test_a_journal_that_cannot_open_fails_the_group(self, tmp_path):
        """The cache dir removed before the first append: opening the
        journal fails, the group fails with that error, and the batcher
        serves the next request once the dir is back."""
        cache_dir = tmp_path / "cache"

        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, cache_dir=str(cache_dir)
            )
            async with _undrained(config) as server:
                os.rmdir(cache_dir)
                with pytest.raises(FileNotFoundError):
                    await server.run_request(_request())
                os.makedirs(cache_dir)
                job = await server.submit(_request())
                results = await job.wait()
                journaled = _lines(cache_dir / CachePersistence.JOURNAL)
                return results, job.sources, server.stats_snapshot(), journaled

        bounded = asyncio.wait_for(run(), timeout=60)
        results, sources, stats, journaled = asyncio.run(bounded)
        assert len(results) == len(POINTS)
        assert sources == {"cache": 0, "inflight": 0, "computed": len(POINTS)}
        assert stats["errors"] == 1
        assert journaled == len(POINTS)

    def test_failed_snapshot_keeps_the_old_files_and_retries(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / CachePersistence.JOURNAL
        snapshot = tmp_path / CachePersistence.SNAPSHOT
        tmp = tmp_path / (CachePersistence.SNAPSHOT + ".tmp")

        async def run():
            config = ServeConfig(
                batch_window=0.0,
                workers=1,
                cache_dir=str(tmp_path),
                snapshot_every=4,
            )
            async with _undrained(config) as server:
                await server.run_request(_request(seed=1))  # compacts
                old_snapshot = snapshot.read_bytes()
                _fill_disk(monkeypatch, ".tmp", whole=0)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    # Each of the next two requests ends due, and each
                    # compaction fails.
                    second = await server.run_request(_request(seed=2))
                    failed = (
                        snapshot.read_bytes() == old_snapshot,
                        _lines(journal),
                        tmp.exists(),
                        server.stats_snapshot()["persistence"],
                    )
                    await server.run_request(_request(seed=3))
                monkeypatch.undo()
                fourth = await server.run_request(_request(seed=4))
                return (
                    failed, caught, second, fourth,
                    server.stats_snapshot()["persistence"],
                )

        bounded = asyncio.wait_for(run(), timeout=60)
        failed, caught, second, fourth, stats = asyncio.run(bounded)
        same_snapshot, journal_lines, tmp_left, failed_stats = failed
        assert same_snapshot
        assert journal_lines == 4  # the second request's records, intact
        assert not tmp_left
        assert failed_stats["snapshot_errors"] == 1
        assert failed_stats["snapshots"] == 1
        warned = [w for w in caught if "snapshot" in str(w.message)]
        assert len(warned) == 1  # once, not per failure
        assert len(second) == len(fourth) == len(POINTS)
        # The retry at the next due point succeeds once the disk has room.
        assert stats["snapshot_errors"] == 2
        assert stats["snapshots"] == 2
        assert _lines(journal) == 0
        assert _lines(snapshot) == 4 * len(POINTS)


class TestKillNineReplay:
    def test_journal_replay_after_kill_nine(self, tmp_path):
        """A real server subprocess SIGKILLed after serving: its second
        life must replay the journal and serve the same bits warm."""
        from repro.serve.chaos import (
            _spawn_server,
            _stats_once,
            _stop_server,
            _submit_once,
        )

        req = {
            "program": "bcast_tree",
            "points": [
                {"L": 4.0 + i, "o": 0.5, "g": 2.0, "P": 8} for i in range(3)
            ],
            "args": {"k": 6},
            "backend": "compiled",
        }
        proc, host, port = _spawn_server(str(tmp_path))
        try:
            first = _submit_once(host, port, **req)["results"]
        finally:
            _stop_server(proc)  # SIGKILL: no aclose, no snapshot — journal only
        proc, host, port = _spawn_server(str(tmp_path))
        try:
            stats = _stats_once(host, port)
            frame = _submit_once(host, port, **req)
        finally:
            _stop_server(proc)
        assert stats["persistence"]["loaded"] == 3
        assert stats["persistence"]["dropped_stale"] == 0
        assert frame["results"] == first
        assert frame["sources"]["cache"] == 3


class TestDeadlines:
    def test_deadline_fails_the_job_promptly(self):
        async def run():
            config = ServeConfig(batch_window=0.0, workers=1)
            async with SimulationServer(config) as server:
                job = await server.submit(_heavy_request(deadline=0.3))
                t0 = time.monotonic()
                with pytest.raises(JobDeadlineError) as excinfo:
                    await job.wait()
                elapsed = time.monotonic() - t0
                return elapsed, excinfo.value, server.stats_snapshot()

        elapsed, err, stats = asyncio.run(run())
        assert elapsed < 10.0  # a 300-point machine flood takes longer
        assert err.deadline == 0.3
        assert stats["deadline_expired"] == 1

    def test_default_deadline_applies_when_request_has_none(self):
        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, default_deadline=0.3
            )
            async with SimulationServer(config) as server:
                job = await server.submit(_heavy_request())
                with pytest.raises(JobDeadlineError):
                    await job.wait()
                return server.stats_snapshot()

        assert asyncio.run(run())["deadline_expired"] == 1

    def test_fast_job_beats_its_deadline(self):
        async def run():
            config = ServeConfig(batch_window=0.0, workers=1)
            request = SweepRequest.make(
                "bcast_tree", POINTS, args={"k": 6}, deadline=60.0
            )
            async with SimulationServer(config) as server:
                job = await server.submit(request)
                return await job.wait()

        assert len(asyncio.run(run())) == len(POINTS)


class TestAdmission:
    def test_unhashable_args_are_refused_before_registration(self):
        # An argument no cache key can hold is refused when the request
        # is made, before any point is registered in flight, and the
        # server still closes.
        async def run():
            server = SimulationServer(ServeConfig(batch_window=0.0, workers=1))
            await server.start()
            with pytest.raises(TypeError, match="unhashable"):
                await server.submit(
                    SweepRequest.make("stream", POINTS[:1], args={"k": [1]})
                )
            inflight = server.stats_snapshot()["inflight"]
            await asyncio.wait_for(server.aclose(), 30)
            return inflight

        assert asyncio.run(run()) == 0

    def test_overload_is_refused_atomically(self):
        async def run():
            config = ServeConfig(
                batch_window=0.5, workers=1, max_pending_points=4
            )
            async with SimulationServer(config) as server:
                first = await server.submit(_request(points=POINTS[:3]))
                with pytest.raises(ServerOverloaded) as excinfo:
                    await server.submit(
                        SweepRequest.make(
                            "bcast_tree",
                            [
                                LogPParams(L=30.0 + i, o=1.0, g=2.0, P=8)
                                for i in range(3)
                            ],
                            args={"k": 6},
                        )
                    )
                shed = excinfo.value
                done = await first.wait()
                # After the backlog drains, the same shape is admitted.
                ok = await server.submit(_request(points=POINTS[:1]))
                await ok.wait()
                return shed, done, server.stats_snapshot()

        shed, done, stats = asyncio.run(run())
        assert shed.requested == 3 and shed.limit == 4
        assert shed.retry_after > 0
        assert len(done) == 3
        assert stats["shed"] == 1
        # Atomic refusal: the shed request contributed zero points.
        assert stats["points"] == 3 + 1

    def test_cache_hits_are_always_admitted(self):
        async def run():
            config = ServeConfig(
                batch_window=0.0, workers=1, max_pending_points=4
            )
            async with SimulationServer(config) as server:
                job = await server.submit(_request())
                await job.wait()
                # Warm repeat: needs no in-flight capacity at all.
                warm = await server.submit(_request())
                return await warm.wait(), warm.sources

        results, sources = asyncio.run(run())
        assert sources["cache"] == len(POINTS)


class TestCancellation:
    def test_cancel_fails_only_the_cancelled_job(self):
        async def run():
            config = ServeConfig(batch_window=0.0, workers=1)
            async with SimulationServer(config) as server:
                job = await server.submit(_heavy_request())
                assert server.cancel_job(job.id)
                with pytest.raises(JobCancelledError):
                    await job.wait()
                assert not server.cancel_job(job.id)  # already finished
                assert not server.cancel_job(10**9)  # unknown id
                return server.stats_snapshot()

        assert asyncio.run(run())["cancelled"] == 1


class TestHealth:
    def test_health_reports_ready_then_closed(self):
        async def run():
            config = ServeConfig(batch_window=0.0, workers=1)
            server = SimulationServer(config)
            await server.start()
            open_health = server.stats_snapshot()["health"]
            await server.aclose()
            closed_health = server.stats_snapshot()["health"]
            return open_health, closed_health

        open_health, closed_health = asyncio.run(run())
        assert open_health["status"] == "ok" and open_health["ready"]
        assert closed_health["status"] == "closed"
        assert not closed_health["ready"]

    def test_health_reports_overloaded_at_the_limit(self):
        async def run():
            config = ServeConfig(
                batch_window=0.5, workers=1, max_pending_points=2
            )
            async with SimulationServer(config) as server:
                job = await server.submit(_request(points=POINTS[:2]))
                status = server.stats_snapshot()["health"]["status"]
                await job.wait()
                return status

        assert asyncio.run(run()) == "overloaded"
