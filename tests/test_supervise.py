"""Tests for the supervised worker pool (``repro.sim.supervise``).

The contract under test, in increasing order of violence:

* fault-free maps are bit-identical to the serial comprehension, and
  the parent sleeps while its chunks wait for busy workers;
* a SIGKILLed worker is detected, replaced, and its orphaned chunk
  resubmitted — the caller still gets the complete, ordered result;
* an item that *reproducibly* kills its worker is quarantined after
  ``max_attempts`` and reported as :class:`PoisonItemError` naming the
  exact submission index — deterministically, at any worker count;
* hung chunks are bounded by ``chunk_timeout``, whole maps by
  ``deadline`` (:class:`SweepDeadlineError`), and runaway crash loops
  by the death budget (:class:`WorkerRestartStorm`);
* ordinary exceptions are *not* retried, and a failure of any kind —
  an exception, a poison item, a lost result — is reported at the
  lowest submission index once every lower index has resolved, with
  nothing at or above it dispatched after it is seen, whatever order
  the failures arrive in;
* ``close(drain=True)`` joins workers cleanly; ``drain=False`` kills,
  and so does leaving a ``with`` block (or ``sweep_map``) on Ctrl-C;
* ``close()`` from another thread aborts a running map with
  :class:`PoolClosedError`, and no worker outlives it.

Timing assertions carry generous slack: CI runs this on one busy core.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from functools import partial

import pytest

from repro.sim import supervise
from repro.sim.supervise import (
    PoisonItemError,
    PoolClosedError,
    SupervisedPool,
    SweepDeadlineError,
    WorkerRestartStorm,
)
from repro.sim.sweep import SweepItemError, sweep_map


# ----------------------------------------------------------------------
# Worker functions (module-level: they cross the pipe by pickle).
# ----------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _die_once(flag_path: str, x: int) -> int:
    """SIGKILL the hosting worker on first sight of ``x == 3``."""
    if x == 3 and not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _poison(x: int) -> int:
    """Item 7 kills its worker every single time: a true poison item."""
    if x == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _hang_once(flag_path: str, x: int) -> int:
    """Item 2 wedges (sleeps) on its first attempt only."""
    if x == 2 and not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("hung")
        time.sleep(60.0)
    return x * x


def _slow(x: int) -> int:
    time.sleep(0.2)
    return x


def _reciprocal(x: int) -> float:
    return 1.0 / x


def _sleep_for(seconds: float, x: int) -> int:
    time.sleep(seconds)
    return x


def _fails_at_one(x: int) -> int:
    """Item 1 raises at once; every other item takes 0.1 s."""
    if x == 1:
        raise ZeroDivisionError("item 1")
    time.sleep(0.1)
    return x


class _BrokenOnce:
    """A worker pipe whose next send fails, as if the worker had died."""

    def __init__(self, conn):
        self._conn, self._armed = conn, True

    def send(self, obj):
        if self._armed:
            self._armed = False
            raise BrokenPipeError("worker died before dispatch")
        return self._conn.send(obj)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _scripted(script: dict, log: str, x: int) -> int:
    """Item ``x`` does what ``script`` says; every call is logged first.

    ``"raise"`` raises ``ValueError("item x")`` at once, ``"late"`` after
    0.1 s, ``"poison"`` SIGKILLs its worker, ``"lost"`` returns a result
    that :func:`_lossy_worker` drops, ``"unpicklable"`` returns a lock,
    which cannot cross the pipe, and ``"slow"`` returns ``x * x`` after
    0.1 s.  The ``"*"`` entry is the action of unlisted items, which
    otherwise return ``x * x`` at once.
    """
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    action = script.get(x, script.get("*"))
    if action == "poison":
        os.kill(os.getpid(), signal.SIGKILL)
    if action in ("late", "slow"):
        time.sleep(0.1)
    if action in ("raise", "late"):
        raise ValueError(f"item {x}")
    if action == "unpicklable":
        return threading.Lock()
    return "lost" if action == "lost" else x * x


class _DropLost:
    """A worker pipe that drops a chunk's trailing ``"lost"`` result."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, frame):
        cid, out, exc = frame
        if out and out[-1] == "lost":
            out = out[:-1]
        return self._conn.send((cid, out, exc))

    def __getattr__(self, name):
        return getattr(self._conn, name)


_REAL_WORKER = supervise._supervised_worker


def _lossy_worker(conn) -> None:
    """The pool's worker loop, replying one result short."""
    _REAL_WORKER(_DropLost(conn))


def _fast_pool(workers: int, **kw) -> SupervisedPool:
    """A pool with test-friendly (short) backoff between retries."""
    from repro.sim.faults import ExponentialBackoffRetry

    kw.setdefault("retry", ExponentialBackoffRetry(base=0.01, mult=2.0, cap=0.1))
    return SupervisedPool(workers, **kw)


class TestFaultFree:
    def test_matches_serial_comprehension(self):
        with _fast_pool(2) as pool:
            assert pool.map(_square, list(range(40))) == [
                x * x for x in range(40)
            ]
            assert pool.deaths == 0 and pool.restarts == 0

    def test_reuse_across_maps(self):
        with _fast_pool(2) as pool:
            first = pool.map(_square, list(range(10)), chunksize=3)
            pids = pool.pids()
            second = pool.map(_square, list(range(10)), chunksize=2)
            assert first == second == [x * x for x in range(10)]
            assert pool.pids() == pids  # same workers, no churn

    def test_empty_map(self):
        with _fast_pool(2) as pool:
            assert pool.map(_square, []) == []

    def test_lazy_start(self):
        pool = _fast_pool(2)
        assert not pool.started and pool.pids() == []
        try:
            pool.map(_square, [1])
            assert pool.started and len(pool.pids()) == 2
        finally:
            pool.close(drain=False)

    def test_parent_blocks_while_chunks_queue(self):
        # 8 chunks on 2 workers: most of the map has a ready chunk
        # queued behind busy workers.  The parent must block on their
        # pipes until one frees up, not poll them with a zero timeout.
        with _fast_pool(2) as pool:
            pool.map(_square, [1, 2])  # start the workers
            cpu0, t0 = time.process_time(), time.monotonic()
            assert pool.map(_slow, list(range(8))) == list(range(8))
            cpu, wall = time.process_time() - cpu0, time.monotonic() - t0
        assert cpu < wall / 4, f"parent used {cpu:.3f} s CPU in {wall:.3f} s"


class TestWorkerDeath:
    def test_sigkilled_worker_is_replaced_and_chunk_resubmitted(
        self, tmp_path
    ):
        flag = str(tmp_path / "died")
        with _fast_pool(2) as pool:
            out = pool.map(partial(_die_once, flag), list(range(8)), chunksize=2)
            assert out == [x * x for x in range(8)]
            assert pool.deaths == 1 and pool.restarts == 1
            assert os.path.exists(flag)

    def test_sigkill_mid_sweep_map_is_invisible_to_the_caller(
        self, tmp_path
    ):
        # The acceptance drill in miniature: sweep_map over a supervised
        # pool with a worker killed mid-flight returns the identical,
        # complete, submission-order list the serial path produces.
        flag = str(tmp_path / "died")
        serial = [x * x for x in range(30)]
        with _fast_pool(2) as pool:
            out = sweep_map(
                partial(_die_once, flag),
                list(range(30)),
                workers=2,
                chunksize=2,
                pool=pool,
            )
            assert out == serial
            assert pool.deaths == 1

    def test_worker_dead_at_send_is_replaced_without_stalling(self):
        # The replacement for a worker found dead at dispatch must take
        # the undelivered chunk at once.  Left idle until the other
        # worker's chunk finishes (the 30 s tick never fires first),
        # the two 1 s chunks would run one after the other.
        with _fast_pool(2, tick=30.0) as pool:
            pool.map(_square, [1, 2])  # start the workers
            slot = pool._handles[1]
            slot.conn = _BrokenOnce(slot.conn)
            t0 = time.monotonic()
            assert pool.map(partial(_sleep_for, 1.0), [0, 1]) == [0, 1]
            wall = time.monotonic() - t0
            assert pool.deaths == 1 and pool.restarts == 1
        assert wall < 1.6, f"{wall:.2f} s: the replacement sat idle"

    def test_sweep_map_without_a_pool_survives_a_sigkill(self, tmp_path):
        # The pool sweep_map opens for one call is supervised too.  Run
        # in a child interpreter under a timeout: an unsupervised pool
        # hangs on a killed worker instead of failing.
        import subprocess
        import sys

        import repro

        flag = str(tmp_path / "died")
        code = _CHILD_SWEEP.format(
            src=os.path.dirname(os.path.dirname(repro.__file__)),
            tests=os.path.dirname(os.path.abspath(__file__)),
            flag=flag,
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]
        assert os.path.exists(flag)  # a worker really died


#: The child side of the test above: no ``pool=`` passed.
_CHILD_SWEEP = """\
import sys
from functools import partial

sys.path[:0] = [{src!r}, {tests!r}]
from test_supervise import _die_once
from repro.sim.sweep import sweep_map

out = sweep_map(partial(_die_once, {flag!r}), range(30), workers=2, chunksize=2)
print(out == [x * x for x in range(30)])
"""


class TestPoisonQuarantine:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_poison_item_named_deterministically(self, workers):
        # sweep_map(workers=1) runs serial in-process — a self-SIGKILL
        # there would kill pytest — so the quarantine contract is
        # exercised through pool.map directly at every worker count.
        with _fast_pool(workers) as pool:
            with pytest.raises(PoisonItemError) as excinfo:
                pool.map(_poison, list(range(12)), chunksize=3)
            err = excinfo.value
            assert err.index == 7
            assert err.total == 12
            assert err.attempts == 3  # the default max_attempts
            assert "item 7 of 12" in str(err)
            # Three deaths, all blamed on item 7: the multi-item chunk
            # was split into singletons after the first kill.
            assert pool.deaths == 3

    def test_poison_blame_lands_after_split(self):
        # Item 7 starts inside a 4-item chunk [4..8); innocent
        # neighbours 4, 5, 6 must not be quarantined with it.
        with _fast_pool(2) as pool:
            with pytest.raises(PoisonItemError) as excinfo:
                pool.map(_poison, list(range(10)), chunksize=4)
            assert excinfo.value.index == 7

    def test_survivors_before_quarantine_are_complete(self):
        # The raise is deferred until every index below the quarantined
        # one has completed — so the failure is deterministic, not a
        # race between the poison chunk and its predecessors.
        with _fast_pool(2) as pool:
            with pytest.raises(PoisonItemError):
                pool.map(_poison, list(range(12)), chunksize=1)
            # Pool stays usable after a poison failure.
            assert pool.map(_square, [5]) == [25]


class TestTimeBounds:
    def test_chunk_timeout_heals_a_hung_worker(self, tmp_path):
        flag = str(tmp_path / "hung")
        with _fast_pool(2, chunk_timeout=0.3) as pool:
            t0 = time.monotonic()
            out = pool.map(partial(_hang_once, flag), list(range(6)))
            assert out == [x * x for x in range(6)]
            assert pool.deaths == 1  # the hung worker was killed
            assert time.monotonic() - t0 < 30.0  # healed, not waited out

    def test_map_deadline_raises_promptly(self):
        with _fast_pool(1) as pool:
            t0 = time.monotonic()
            with pytest.raises(SweepDeadlineError) as excinfo:
                pool.map(_slow, list(range(100)), deadline=0.5)
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0  # bounded, not 100 * 0.2s
            assert excinfo.value.pending > 0
            assert "deadline" in str(excinfo.value)

    def test_restart_storm_is_bounded(self):
        # One poison item with a huge max_attempts would retry nearly
        # forever; the per-map death budget cuts the crash loop short.
        with _fast_pool(1, max_attempts=10**6, death_budget=4) as pool:
            with pytest.raises(WorkerRestartStorm):
                pool.map(_poison, [7], deadline=None)
            assert pool.deaths == 5  # budget + the death that tripped it


class TestExceptionsAreNotFaults:
    def test_fn_exception_propagates_immediately(self):
        with _fast_pool(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map(_reciprocal, [1, 0, 2])
            assert pool.deaths == 0  # an exception is not a worker death

    def test_sweep_map_integration_keeps_the_index(self):
        from repro.sim.sweep import SweepItemError

        with _fast_pool(2) as pool:
            with pytest.raises(ZeroDivisionError) as excinfo:
                sweep_map(
                    _reciprocal, [1, 0, 2], workers=2, chunksize=1, pool=pool
                )
            cause = excinfo.value.__cause__
            assert isinstance(cause, SweepItemError) and cause.index == 1


#: The failure contract, one row per rule: item count, what scripted
#: items do (:func:`_scripted`), and the index and type the map must
#: raise.
_FAILURES = {
    # Item 1 (chunksize 1) or item 3 (chunksize 3) fails at once, item 0
    # only 0.1 s in: the failure that arrives first does not win.
    "late_low_failure_wins": (12, {0: "late", 1: "raise", 3: "raise"}, 0, ValueError),
    "exception_below_poison_wins": (12, {2: "raise", 5: "poison"}, 2, ValueError),
    "poison_below_exception_wins": (12, {2: "poison", 5: "raise"}, 2, PoisonItemError),
    # Checked against the call log: with every other item slow, nothing
    # past the first wave of chunks runs once item 1 has failed.
    "no_dispatch_above_failure": (40, {1: "raise", "*": "slow"}, 1, ValueError),
    # Item 5 ends its chunk at chunksize 1 and 3, so the lossy worker
    # drops exactly that result.
    "lost_result_named": (12, {5: "lost"}, 5, RuntimeError),
    # Item 4 sits mid-chunk at chunksize 3: the blame is still its own.
    "unpicklable_result_named": (12, {4: "unpicklable"}, 4, RuntimeError),
}


def _failure_cases():
    for rule, (n, script, index, exc_type) in _FAILURES.items():
        for via in ("pool.map", "sweep_map"):
            for workers in (1, 2, 4):
                # sweep_map on a 1-worker pool is the serial loop: a
                # poison item there would kill pytest, and no worker
                # pipe exists to lose a result or refuse to pickle one.
                serial = via == "sweep_map" and workers == 1
                if serial and ("poison" in script.values() or exc_type is RuntimeError):
                    continue
                for chunksize in (1, 3):
                    yield pytest.param(
                        rule, via, workers, chunksize,
                        id=f"{rule}-{via}-w{workers}-c{chunksize}",
                    )


class TestFailureContract:
    """One rule for every failure, at any worker count and chunk size,
    through the pool and through ``sweep_map``: the lowest failing
    submission index wins, and nothing above it runs after it is seen."""

    @pytest.mark.parametrize("rule, via, workers, chunksize", _failure_cases())
    def test_lowest_failing_index_wins(
        self, rule, via, workers, chunksize, tmp_path, monkeypatch
    ):
        n, script, index, exc_type = _FAILURES[rule]
        if "lost" in script.values():
            monkeypatch.setattr(supervise, "_supervised_worker", _lossy_worker)
        log = tmp_path / "calls"
        fn = partial(_scripted, script, str(log))
        with _fast_pool(workers) as pool:
            with pytest.raises(exc_type) as excinfo:
                if via == "pool.map":
                    pool.map(fn, list(range(n)), chunksize)
                else:
                    sweep_map(fn, range(n), chunksize=chunksize, pool=pool)
            deaths = pool.deaths
        err = excinfo.value
        if exc_type is PoisonItemError:
            assert (err.index, err.total) == (index, n)
        elif rule == "lost_result_named":
            assert f"indices {index})" in str(err)
        elif via == "sweep_map" and workers == 1:
            assert err.__cause__ is None  # the plain serial loop
        else:
            assert isinstance(err.__cause__, SweepItemError)
            assert (err.__cause__.index, err.__cause__.total) == (index, n)
        if exc_type is ValueError:
            assert str(err) == f"item {index}"
        if "poison" not in script.values():
            assert deaths == 0  # an exception is not a worker death
        if rule == "no_dispatch_above_failure":
            ran = [int(line) for line in log.read_text().split()]
            assert max(ran) < max(index + 1, workers * chunksize), sorted(ran)

    def test_a_map_that_raises_leaves_no_chunk_in_flight(self):
        # A failure raised in the parent (here an item that cannot be
        # pickled, found when its chunk is sent) abandons the chunk
        # already running, so its reply cannot land in the next map.
        # The killed worker's slot stays empty until the next map
        # starts, which refills it and counts the restart.
        with _fast_pool(2) as pool:
            items = [1, 2, 3, threading.Lock()]
            with pytest.raises(TypeError, match="pickle"):
                pool.map(partial(_sleep_for, 0.3), items, chunksize=2)
            assert len(pool.pids()) == 1 and pool.restarts == 0
            assert pool.map(partial(_sleep_for, 0.01), [10]) == [10]
            assert len(pool.pids()) == pool.workers and pool.restarts == 1

    def test_a_failed_sweep_forks_no_worker_only_to_kill_it(
        self, monkeypatch
    ):
        # sweep_map with no pool= closes its pool as the failure leaves
        # it, so the busy worker killed for the failure is not replaced.
        spawns = []
        real_spawn = SupervisedPool._spawn

        def spy(self):
            spawns.append(self)
            return real_spawn(self)

        monkeypatch.setattr(SupervisedPool, "_spawn", spy)
        with pytest.raises(ZeroDivisionError) as info:
            sweep_map(_fails_at_one, range(40), workers=2)
        assert info.value.__cause__.index == 1
        assert len(spawns) == 2


class TestTeardown:
    def test_close_drain_joins_cleanly(self):
        pool = _fast_pool(2)
        pool.map(_square, list(range(4)))
        pids = pool.pids()
        pool.close(drain=True)
        assert not pool.started
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_is_idempotent_and_reentrant(self):
        pool = _fast_pool(2)
        pool.close(drain=True)
        pool.close(drain=False)
        pool.close()

    def test_context_manager_closes(self):
        with _fast_pool(2) as pool:
            pool.map(_square, [1, 2])
            pids = pool.pids()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_interrupted_sweep_does_not_wait_for_inflight_chunks(self):
        # Ctrl-C during a sweep_map that opened its own pool: the pool
        # is killed, not drained, so nothing waits out the 30 s chunks.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                sweep_map(
                    partial(_sleep_for, 30.0), range(4), workers=2, chunksize=1
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - t0 < 4.0


class TestCloseWhileMapping:
    """``close()`` from one thread while ``map`` runs in another: the
    server's ``aclose`` against its batcher's worker thread."""

    def _map_in_thread(self, pool, items):
        caught = []

        def run():
            try:
                pool.map(partial(_sleep_for, 0.5), items)
            except BaseException as exc:  # noqa: BLE001 - inspected below
                caught.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        while not pool.started:
            time.sleep(0.005)
        return thread, caught

    def test_close_aborts_the_map_and_leaves_no_worker(self):
        before = {p.pid for p in multiprocessing.active_children()}
        pool = _fast_pool(2)
        thread, caught = self._map_in_thread(pool, list(range(8)))
        t0 = time.monotonic()
        pool.close()  # drain requested: a running map is killed anyway
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 4.0  # did not drain 8 x 0.5 s
        [exc] = caught
        assert isinstance(exc, PoolClosedError)
        assert not pool.started
        assert {p.pid for p in multiprocessing.active_children()} <= before
        with pytest.raises(PoolClosedError):
            pool.map(_square, [1])

    def test_one_map_at_a_time(self):
        with _fast_pool(2) as pool:
            thread, caught = self._map_in_thread(pool, [1, 2])
            with pytest.raises(RuntimeError, match="one map at a time"):
                pool.map(_square, [1])
            thread.join(timeout=5.0)
            assert not thread.is_alive() and caught == []

    def test_close_races_a_map_at_random_points(self):
        # More workers than cores and a short switch interval, so the
        # close lands anywhere in the map: while workers start, while
        # chunks run, while dead workers are being replaced.
        import random
        import sys

        rng = random.Random(7)
        before = {p.pid for p in multiprocessing.active_children()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(12):
                pool = _fast_pool(3)
                out, caught = [], []

                def run():
                    try:
                        out.append(pool.map(partial(_sleep_for, 0.005),
                                            list(range(12))))
                    except PoolClosedError as exc:
                        caught.append(exc)

                thread = threading.Thread(target=run)
                thread.start()
                time.sleep(rng.uniform(0.0, 0.06))
                pool.close(drain=rng.random() < 0.5)
                thread.join(timeout=5.0)
                assert not thread.is_alive()
                # Either the map finished first or the close aborted it.
                assert out == [list(range(12))] or len(caught) == 1
                assert not pool.started
        finally:
            sys.setswitchinterval(interval)
        assert {p.pid for p in multiprocessing.active_children()} <= before
