"""The parallel sweep runner's determinism contract.

``sweep_map`` must be a drop-in replacement for the serial list
comprehension: same results, same order, for any worker count.  The
heavyweight check here runs 100+ fuzz-generated simulations serially and
at 2 and 4 workers and compares *everything* observable — makespans,
stall-event traces, stall-report summaries, message and event counts —
not just a summary hash, so a nondeterministic merge (or a worker
mutating shared state) fails loudly with the first differing field.
"""

import os
import warnings

import pytest

from repro.sim import FixedLatency, LogPMachine, stall_report
from repro.sim.fuzz import make_case
from repro.sim.supervise import SupervisedPool
from repro.sim.sweep import (
    ENV_WORKERS,
    SweepItemError,
    resolve_workers,
    sweep_map,
)

SEEDS = list(range(110))


def _square(x: int) -> int:
    return x * x


def _ring_route(s: int, d: int) -> list:
    """8-node ring, module-level so the parallel sweep can pickle it."""
    from repro.topology.routing import grid_route

    return [c[0] for c in grid_route((s,), (d,), (8,), wrap=True)]


def _fingerprint(seed: int) -> tuple:
    """Everything observable about one traced fuzz-case run.

    Module-level (picklable) and seeded entirely by ``seed``, as the
    sweep_map contract requires.
    """
    case = make_case(seed)
    machine = LogPMachine(
        case.params,
        latency=FixedLatency(case.params.L),
        trace=True,
        max_events=2_000_000,
    )
    res = machine.run(case.factory)
    report = res.stall_report()
    return (
        seed,
        case.family,
        res.makespan,
        res.total_messages,
        res.total_stall_time,
        res.events_run,
        tuple(res.stall_events),
        (
            report.stalls,
            report.admitted,
            tuple(sorted(report.stalls_by_cause.items())),
            tuple(sorted(report.stalls_by_dst.items())),
            tuple(sorted(report.max_queue_by_dst.items())),
        ),
        tuple(r.value for r in res.results),
        tuple(r.finished_at for r in res.results),
    )


@pytest.fixture
def pool_maps(monkeypatch) -> list:
    """Item counts of every ``SupervisedPool.map`` call in the test, so
    a parity test can show its parallel side really fanned out."""
    calls: list = []
    original = SupervisedPool.map

    def spy(self, fn, items, *args, **kwargs):
        calls.append(len(items))
        return original(self, fn, items, *args, **kwargs)

    monkeypatch.setattr(SupervisedPool, "map", spy)
    return calls


class TestDeterminism:
    def test_parallel_sweep_bit_identical_to_serial(self):
        """The tentpole contract: 2- and 4-worker sweeps reproduce the
        serial sweep exactly, element for element, over 100+ seeds."""
        serial = sweep_map(_fingerprint, SEEDS, workers=1)
        assert [f[0] for f in serial] == SEEDS  # submission order kept
        for workers in (2, 4):
            parallel = sweep_map(_fingerprint, SEEDS, workers=workers)
            assert parallel == serial, f"divergence at workers={workers}"

    def test_chunksize_does_not_change_results(self):
        serial = sweep_map(_square, range(37), workers=1)
        for chunksize in (1, 5, 100):
            assert (
                sweep_map(_square, range(37), workers=2, chunksize=chunksize)
                == serial
            )

    def test_fuzz_sweep_parity(self, pool_maps):
        """fuzz_sweep folds parallel per-seed outcomes into the identical
        summary the serial loop builds."""
        from repro.sim.fuzz import fuzz_sweep

        serial = fuzz_sweep(range(50), ("fixed",), workers=1)
        # min_chunk=1: 50 seeds are under the default share, which
        # would run the parallel side serially too.
        parallel = fuzz_sweep(range(50), ("fixed",), workers=2, min_chunk=1)
        assert pool_maps == [50]
        assert serial.ok and parallel.ok
        assert (
            serial.cases,
            serial.runs,
            serial.total_messages,
            serial.by_family,
            serial.failures,
        ) == (
            parallel.cases,
            parallel.runs,
            parallel.total_messages,
            parallel.by_family,
            parallel.failures,
        )

    def test_saturation_curve_parity(self):
        """latency_vs_load fans out per load level with identical points."""
        from repro.topology import latency_vs_load

        serial = latency_vs_load(
            8, _ring_route, [0.05, 0.2], horizon=300, warmup=50, seed=4
        )
        parallel = latency_vs_load(
            8, _ring_route, [0.05, 0.2], horizon=300, warmup=50, seed=4,
            workers=2,
        )
        assert parallel == serial


class TestPlumbing:
    def test_submission_order_not_completion_order(self):
        out = sweep_map(_square, [9, 1, 4, 0, 7], workers=2)
        assert out == [81, 1, 16, 0, 49]

    def test_empty_and_single_item(self):
        assert sweep_map(_square, [], workers=4) == []
        assert sweep_map(_square, [3], workers=4) == [9]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            sweep_map(_reciprocal, [1, 0, 2], workers=2)

    def test_unpicklable_fn_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = sweep_map(lambda x: x + 1, [1, 2, 3], workers=2)
        assert out == [2, 3, 4]

    def test_picklable_fn_does_not_warn_serially(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sweep_map(_square, [2, 3], workers=1) == [4, 9]


def _reciprocal(x: int) -> float:
    return 1.0 / x


class TestSerialFallback:
    """The unpicklable-work escape hatch must behave exactly like the
    serial path: same order, same exception semantics, and the same
    fold-side accounting when fuzz_sweep drives it."""

    def test_fallback_preserves_submission_order(self):
        calls = []

        def record(x):
            calls.append(x)
            return -x

        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = sweep_map(record, [5, 1, 3], workers=4)
        assert out == [-5, -1, -3]
        assert calls == [5, 1, 3]

    def test_fallback_propagates_exceptions(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            with pytest.raises(ZeroDivisionError):
                sweep_map(lambda x: 1 / x, [1, 0, 2], workers=2)

    def test_fallback_accepts_generator_items(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = sweep_map(lambda x: x * 2, (i for i in range(4)), workers=2)
        assert out == [0, 2, 4, 6]


class TestMaxFailuresEarlyExit:
    """fuzz_sweep's failure cap: the serial loop stops generating work,
    the parallel fold stops consuming it, and both build the identical
    summary — including when the parallel path degrades to the serial
    fallback on unpicklable work."""

    @pytest.fixture
    def broken_latency(self, monkeypatch):
        """A latency model whose bound exceeds L: every machine build
        crashes, so every (seed, latency) run is one failure."""
        from repro.sim import fuzz

        monkeypatch.setitem(
            fuzz.LATENCIES, "broken", lambda L, seed: FixedLatency(L + 100)
        )

    def _is_fork(self):
        import multiprocessing

        return multiprocessing.get_start_method(allow_none=False) == "fork"

    def test_serial_early_exit_stops_at_the_cap(self, broken_latency):
        from repro.sim.fuzz import fuzz_sweep

        summary = fuzz_sweep(
            range(50), ("broken",), max_failures=3, workers=1
        )
        assert not summary.ok
        assert len(summary.failures) == 3
        assert summary.cases == 3  # did not sweep the remaining 47 seeds
        assert all("crashed" in f for f in summary.failures)

    def test_parallel_fold_matches_serial_accounting(
        self, broken_latency, pool_maps
    ):
        if not self._is_fork():
            pytest.skip("patched LATENCIES needs fork to reach workers")
        from repro.sim.fuzz import fuzz_sweep

        serial = fuzz_sweep(range(30), ("broken",), max_failures=4, workers=1)
        parallel = fuzz_sweep(
            range(30), ("broken",), max_failures=4, workers=2, min_chunk=1
        )
        assert pool_maps == [30]
        assert (
            serial.cases,
            serial.runs,
            serial.by_family,
            serial.failures,
        ) == (
            parallel.cases,
            parallel.runs,
            parallel.by_family,
            parallel.failures,
        )

    def test_early_exit_through_the_serial_fallback(
        self, broken_latency, monkeypatch
    ):
        """An unpicklable per-seed work unit forces the parallel sweep
        into the serial fallback; the max_failures fold must still cut
        the sweep at the cap with serial-identical accounting."""
        from repro.sim import fuzz

        original = fuzz._sweep_seed
        monkeypatch.setattr(
            fuzz,
            "_sweep_seed",
            lambda seed, latencies, **kw: original(seed, latencies, **kw),
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = fuzz.fuzz_sweep(
                range(30), ("broken",), max_failures=4, workers=2
            )
        serial = fuzz.fuzz_sweep(
            range(30), ("broken",), max_failures=4, workers=1
        )
        assert (
            fallback.cases,
            fallback.runs,
            fallback.failures,
        ) == (
            serial.cases,
            serial.runs,
            serial.failures,
        )

    def test_max_failures_zero_stops_immediately(self, broken_latency):
        from repro.sim.fuzz import fuzz_sweep

        summary = fuzz_sweep(range(20), ("broken",), max_failures=0, workers=1)
        assert summary.cases == 1  # the very first fold hits the cap
        assert not summary.ok


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "5")
        assert resolve_workers() == 5

    def test_unset_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_explicit_argument_clamps_to_one(self):
        # Callers pass computed counts (len(items) // min_chunk) that
        # may legitimately reach 0: the documented clamp applies.
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_env_below_one_refuses_loudly(self, monkeypatch):
        # A misconfigured environment is a configuration error, not a
        # request for a serial sweep (the repo's refuse-loudly contract).
        for bad in ("0", "-1", "-100"):
            monkeypatch.setenv(ENV_WORKERS, bad)
            with pytest.raises(ValueError, match=ENV_WORKERS):
                resolve_workers()

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ValueError, match=ENV_WORKERS):
            resolve_workers()


class TestMinChunk:
    """min_chunk: sweeps too small to amortize a pool run serially.

    The degrade is a placement decision only — results must be identical
    on every path — and it must actually keep the pool out: a 60-item
    sweep with min_chunk=48 costs ~10ms of pure pool overhead per run
    if dispatched, which is what made 2-worker fuzz sweeps slower than
    serial before the threshold existed.
    """

    def test_small_sweep_degrades_to_serial(self, monkeypatch):
        import multiprocessing

        def boom(*a, **kw):  # any pool construction is a failure
            raise AssertionError("pool used for an under-min_chunk sweep")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        out = sweep_map(_square, range(60), workers=2, min_chunk=48)
        assert out == [x * x for x in range(60)]

    def test_worker_count_lowered_not_zeroed(self):
        # 100 items, min_chunk 30: at most 3 workers get a full share.
        out = sweep_map(_square, range(100), workers=8, min_chunk=30)
        assert out == [x * x for x in range(100)]

    def test_results_identical_across_thresholds(self):
        serial = sweep_map(_square, range(50), workers=1)
        for min_chunk in (1, 10, 25, 50, 200):
            assert (
                sweep_map(_square, range(50), workers=4, min_chunk=min_chunk)
                == serial
            )

    def test_invalid_min_chunk_raises(self):
        with pytest.raises(ValueError, match="min_chunk"):
            sweep_map(_square, [1, 2], workers=2, min_chunk=0)

    def test_fuzz_sweep_small_default_is_serial(self, monkeypatch):
        """fuzz_sweep's MIN_SEEDS_PER_WORKER keeps bench-sized (60-seed)
        sweeps off the pool at any worker count."""
        import multiprocessing

        from repro.sim.fuzz import fuzz_sweep

        def boom(*a, **kw):
            raise AssertionError("pool used for a bench-sized fuzz sweep")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        summary = fuzz_sweep(range(60), ("fixed",), workers=2)
        assert summary.ok and summary.cases == 60


class TestIndexedWorkerFailure:
    """A pool-worker exception must say *which* item failed: the server's
    error reports (and anyone debugging a 10k-point sweep) need the
    submission index, which the bare Pool.map traceback does not carry."""

    def test_cause_names_the_submission_index(self):
        with pytest.raises(ZeroDivisionError) as excinfo:
            sweep_map(_reciprocal, [1, 0, 2], workers=2, chunksize=1)
        cause = excinfo.value.__cause__
        assert isinstance(cause, SweepItemError)
        assert cause.index == 1
        assert cause.total == 3
        assert "item 1 of 3" in str(cause)

    def test_lowest_failing_index_wins_deterministically(self):
        # Items 1 and 3 both fail; whichever chunk finishes first, the
        # re-raised failure must be the lowest submission index.
        for _ in range(3):
            with pytest.raises(ZeroDivisionError) as excinfo:
                sweep_map(
                    _reciprocal, [1, 0, 2, 0, 5], workers=2, chunksize=1
                )
            assert excinfo.value.__cause__.index == 1

    def test_serial_path_keeps_plain_traceback(self):
        # workers=1 is the reference semantics: the exception propagates
        # from the comprehension itself, unchained.
        with pytest.raises(ZeroDivisionError) as excinfo:
            sweep_map(_reciprocal, [1, 0, 2], workers=1)
        assert excinfo.value.__cause__ is None


class TestWorkerPool:
    """The persistent worker pool (``SupervisedPool``) under
    ``sweep_map``: lazy start, reuse, identical results, indexed
    failure and teardown."""

    def test_lazy_until_first_parallel_sweep(self):
        with SupervisedPool(workers=2) as pool:
            assert not pool.started
            out = sweep_map(_square, [3], workers=2, pool=pool)
            assert out == [9]
            assert not pool.started  # single item stayed serial

    def test_reused_across_sweeps_with_serial_results(self):
        serial = [x * x for x in range(20)]
        with SupervisedPool(workers=2) as pool:
            first = sweep_map(_square, range(20), pool=pool)
            assert pool.started
            second = sweep_map(_square, range(20), pool=pool)
            assert first == serial and second == serial

    def test_workers_capped_at_the_pool_size(self, monkeypatch):
        # Chunks are sized for the workers the pool has: 80 items get
        # ceil(80 / (4 * 2)) = 10 a chunk on a 2-worker pool, whether
        # the caller asks for 4 workers or leaves the count to the pool.
        # Only the chunking follows the pool, never the values.
        chunksizes = []
        original = SupervisedPool.map

        def spy(self, fn, items, chunksize=1, **kwargs):
            chunksizes.append(chunksize)
            return original(self, fn, items, chunksize, **kwargs)

        monkeypatch.setattr(SupervisedPool, "map", spy)
        with SupervisedPool(workers=2) as pool:
            asked = sweep_map(_square, range(80), workers=4, pool=pool)
            left = sweep_map(_square, range(80), pool=pool)
        assert chunksizes == [10, 10]
        assert asked == left == [x * x for x in range(80)]

    def test_pool_failure_still_carries_index(self):
        with SupervisedPool(workers=2) as pool:
            with pytest.raises(ZeroDivisionError) as excinfo:
                sweep_map(
                    _reciprocal, [2, 1, 0], pool=pool, chunksize=1
                )
            assert excinfo.value.__cause__.index == 2

    def test_close_is_idempotent(self):
        pool = SupervisedPool(workers=2)
        pool.close()
        pool.close()

    def test_close_drain_joins_after_inflight_work(self):
        # drain=True is the graceful teardown contract: in-flight chunks
        # finish, workers join — no unconditional terminate mid-chunk.
        pool = SupervisedPool(workers=2)
        out = sweep_map(_square, range(20), pool=pool)
        pool.close(drain=True)
        assert out == [x * x for x in range(20)]
        pool.close(drain=False)  # still idempotent after a drain

    def test_close_without_drain_terminates(self):
        pool = SupervisedPool(workers=2)
        sweep_map(_square, range(20), pool=pool)
        pool.close(drain=False)
        assert not pool.started


class TestGridMapUnfilled:
    """grid_map must refuse loudly when any point goes unfilled — a
    silently shortened list misaligns every later submission-order
    consumer (the serve batch coalescer maps results back by position)."""

    def _grid(self):
        from repro.core import LogPParams

        return [LogPParams(L=6, o=o, g=4, P=2) for o in (1.0, 2.0, 3.0)]

    def test_short_backend_return_names_missing_indices(self, monkeypatch):
        import repro.sim.compiled as compiled_mod

        real = compiled_mod.evaluate_grid

        def truncated(prog, pts, **kw):
            gr = real(prog, pts, **kw)
            gr.makespans.pop()  # drop the last point's result
            gr.total_stall_times.pop()
            return gr

        monkeypatch.setattr(compiled_mod, "evaluate_grid", truncated)
        from repro.serve.registry import build
        from repro.sim.sweep import grid_map

        with pytest.raises(RuntimeError, match=r"indices 2"):
            grid_map(
                build("stream", {"k": 2}, None),
                self._grid(),
                backend="compiled",
            )

    def test_require_filled_lists_first_twenty(self):
        from repro.sim.sweep import _require_filled

        out = [None] * 25
        with pytest.raises(RuntimeError) as excinfo:
            _require_filled(out)
        msg = str(excinfo.value)
        assert "25 of 25" in msg and "(5 more)" in msg

    def test_full_grid_passes_unchanged(self):
        from repro.serve.registry import build
        from repro.sim.sweep import grid_map

        grid = self._grid()
        out = grid_map(build("stream", {"k": 2}, None), grid)
        assert len(out) == len(grid)
        assert all(isinstance(p, tuple) and len(p) == 2 for p in out)
