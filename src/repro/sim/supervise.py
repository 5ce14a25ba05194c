"""Supervised process pool: crash-tolerant fan-out for :func:`sweep_map`.

The repository's one process pool: every parallel sweep runs on it,
either on a pool its caller keeps open across sweeps (the
:mod:`repro.serve` server) or on one :func:`~repro.sim.sweep.sweep_map`
opens for a single call.  A bare ``multiprocessing.Pool`` has no story
for a worker that *dies* in its blocking ``map()``: a SIGKILLed child
(the OOM killer at a 2^20-point folded grid, a chaos drill, a
segfaulting extension) either hangs the call or poisons the whole pool.
The simulated machine learned crash-stop/detect/recover discipline in
:mod:`repro.sim.faults`; this module gives the *infrastructure that runs
the simulations* the same discipline.

:class:`SupervisedPool` keeps one ``multiprocessing.Process`` per
worker slot with a dedicated duplex pipe, and dispatches chunks
asynchronously from a supervision loop:

* **Death detection.**  The loop waits on every worker's pipe *and*
  process sentinel (``multiprocessing.connection.wait``), so a killed
  worker is noticed within one tick even mid-chunk; an optional
  per-chunk heartbeat deadline (``chunk_timeout``) additionally SIGKILLs
  and replaces a worker whose chunk has produced nothing for too long
  (a wedged worker is indistinguishable from a dead one to callers).
  A chunk queued behind busy workers waits in that same call; only a
  future backoff gate shortens it, so the parent sleeps instead of
  polling and leaves the cores to its workers.
* **Restart.**  A worker that dies during a map is replaced at once;
  the slots of workers killed because a map raised, and of workers
  that died while the pool sat idle, are refilled when the next map
  starts.  The ``restarts`` counter is surfaced through the server's
  health stats.
* **Retry with backoff.**  The dead worker's orphaned chunk is
  resubmitted under a :class:`~repro.sim.faults.RetryPolicy` — the same
  ``Fixed`` / ``ExponentialBackoff`` / ``Budgeted`` taxonomy the lossy
  fabric ARQ uses, with seconds in place of cycles — after
  ``policy.next_delay(attempt, index, spent=...)``.  A multi-item chunk
  is first *split into singletons* so one poison item cannot starve its
  innocent chunk-mates.
* **Quarantine.**  A singleton item that has killed its worker
  ``max_attempts`` times (or exhausted the policy's budget) is
  quarantined, and the sweep fails with a structured
  :class:`PoisonItemError` naming the item (see *One failure story*
  below for which failure is raised).
* **Deadline.**  ``map(..., deadline=...)`` (or the pool-wide
  ``map_deadline``) bounds the whole call: on expiry the workers of
  the chunks in flight are killed and :class:`SweepDeadlineError`
  names the unresolved item count — a supervised sweep never hangs
  past its deadline.
* **Close from any thread.**  One ``map`` runs at a time, and
  ``close()`` may come from another thread while it runs (the server
  maps in a worker thread and closes from its event loop).  The close
  kills the workers, waits for the map to let go of them, and the map
  forks no replacement and raises :class:`PoolClosedError`.  A closed
  pool stays closed; no worker outlives ``close()``.

The determinism contract is :func:`~repro.sim.sweep.sweep_map`'s:
results merge in submission order, bit-identical to the serial loop for
any worker count and any interleaving of worker deaths, because retries
recompute items from the same pickled inputs and a deterministic ``fn``
(the repository-wide requirement) produces the same bytes on any
attempt.  The pool offers what :func:`~repro.sim.sweep.sweep_map`
dispatches through (``workers`` / ``started`` / ``map`` / ``close``);
leaving a ``with`` block on an exception closes it without draining,
so Ctrl-C on a sweep does not wait for in-flight chunks.

What is *not* retried: an ordinary Python exception raised by ``fn``.
Exceptions are deterministic, so retrying one is wasted work; only
worker *death* — the nondeterministic, infrastructure-level failure —
enters the retry/quarantine path.  The worker sends back the results it
finished in that chunk together with the exception, and stays alive.

**One failure story.**  An exception and a quarantine land in one table
keyed by submission index, and the lowest index wins.  Once an item
has failed, the map dispatches nothing at or above the lowest failed
index, waits for everything below it, then raises: a poison item as
:class:`PoisonItemError`, any other failure as the original exception
chained from a :class:`~repro.sim.sweep.SweepItemError` naming the
index.  The raised index is therefore the first one the serial loop
``[fn(x) for x in items]`` fails at, for any worker count, chunk size
or completion order.  Whatever makes ``map`` raise — a failure, the
deadline, a restart storm, Ctrl-C, an item that cannot be pickled —
the chunks still in flight are abandoned: their workers are killed, so
no stale reply reaches the next map, and their slots stay empty until
the next map starts, which forks their replacements (counted in
``restarts``).  A map that raises with nothing in flight restarts no
worker.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
import multiprocessing
from multiprocessing import connection as mp_connection

from .faults import ExponentialBackoffRetry, RetryPolicy
from .sweep import SweepItemError, _shown, resolve_workers

__all__ = [
    "PoisonItemError",
    "PoolClosedError",
    "SupervisedPool",
    "SweepDeadlineError",
    "WorkerRestartStorm",
]

_MISSING = object()


class PoisonItemError(RuntimeError):
    """A sweep item repeatedly killed its worker and was quarantined.

    ``index`` is the submission index (raised only when no lower index
    failed), ``attempts`` how many workers it killed before
    quarantine.  The item's ``repr`` is embedded in the message so logs
    name the poison input, not just its position.
    """

    def __init__(self, index: int, total: int, attempts: int, item_repr: str):
        super().__init__(
            f"sweep item {index} of {total} killed its worker "
            f"{attempts} time(s) and was quarantined as poison: {item_repr}"
        )
        self.index = index
        self.total = total
        self.attempts = attempts


class SweepDeadlineError(RuntimeError):
    """A supervised ``map`` exceeded its deadline; its busy workers killed.

    ``pending`` counts the items that never produced a result.  Raised
    instead of hanging — the point of the deadline.
    """

    def __init__(self, deadline: float, pending: int, total: int):
        super().__init__(
            f"supervised sweep missed its {deadline}s deadline with "
            f"{pending} of {total} item(s) unresolved; busy workers killed"
        )
        self.deadline = deadline
        self.pending = pending
        self.total = total


class PoolClosedError(RuntimeError):
    """``map`` on a closed pool, or a ``map`` that a ``close()`` from
    another thread aborted; its partial results are dropped."""


class WorkerRestartStorm(RuntimeError):
    """Workers are dying faster than supervision can make progress.

    The supervisor bounds total deaths per ``map`` call at
    ``8 + max_attempts * n_items``; exceeding it means the environment
    (not any one item) is killing workers — e.g. fork failure or a
    machine-wide OOM — and retrying forever would hang, so refuse
    loudly instead.
    """


def _supervised_worker(conn) -> None:
    """Child main loop: recv ``(chunk_id, fn, items)``, send results.

    Replies ``(chunk_id, results, exc)``: the results of the items
    before the first one that raised, and that exception (``None`` if
    none raised; downgraded to a picklable ``RuntimeError`` if needed).
    The worker survives an exception and takes the next chunk.  Only
    process death ends the loop, which is exactly what the parent's
    sentinel watch is for.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        chunk_id, fn, items = task
        out, exc = [], None
        try:
            for item in items:
                out.append(fn(item))
        except BaseException as err:  # noqa: BLE001 - shipped to the parent
            exc = err
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - unpicklable exception
                exc = RuntimeError(
                    f"unpicklable worker exception "
                    f"{type(err).__name__}: {err!r}"
                )
        try:
            conn.send((chunk_id, out, exc))
        except (EOFError, OSError):
            return
        except Exception as err:  # noqa: BLE001 - unpicklable result
            # Blame the first result that cannot cross the pipe, so the
            # failure's index does not depend on the chunk size.
            ok = 0
            for val in out:
                try:
                    pickle.dumps(val)
                except Exception:  # noqa: BLE001 - this is the one
                    break
                ok += 1
            exc = RuntimeError(
                f"unpicklable worker result {type(err).__name__}: {err!r}"
            )
            conn.send((chunk_id, out[:ok], exc))


class _Chunk:
    """A contiguous [lo, hi) slice of the sweep with its retry history."""

    __slots__ = ("cid", "lo", "hi", "attempts", "not_before", "spent")

    def __init__(self, cid, lo, hi, attempts=0, not_before=0.0, spent=0.0):
        self.cid = cid
        self.lo = lo
        self.hi = hi
        self.attempts = attempts  # worker deaths charged to this slice
        self.not_before = not_before  # monotonic dispatch gate (backoff)
        self.spent = spent  # cumulative backoff, for policy budgets


class _WorkerHandle:
    __slots__ = ("proc", "conn", "chunk", "since")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.chunk = None  # the in-flight _Chunk, if any
        self.since = 0.0  # monotonic dispatch time of that chunk


class SupervisedPool:
    """A self-healing process pool; see the module docstring.

    Pass it to ``sweep_map(..., pool=...)`` to keep workers alive across
    sweeps.  One ``map`` runs at a time: a second one, from any thread,
    raises ``RuntimeError`` while the first runs.  ``close()`` may come
    from any thread, also while a ``map`` runs in another (the serve
    batcher maps in a worker thread; ``aclose`` closes from the event
    loop).  It then kills that map's workers whatever ``drain`` says,
    since their results can no longer be returned, and waits for the
    map to let go of them; the map spawns nothing more and raises
    :class:`PoolClosedError`.  A closed pool stays closed, and no worker
    outlives ``close()``.

    Args:
        workers: slot count; ``None`` resolves via
            :func:`~repro.sim.sweep.resolve_workers`.
        retry: backoff schedule for orphaned chunks, any
            :class:`~repro.sim.faults.RetryPolicy` read in *seconds*.
            Default ``ExponentialBackoffRetry(base=0.05, cap=1.0)``.
        max_attempts: worker deaths a single item may cause before
            quarantine (>= 1).
        chunk_timeout: per-chunk heartbeat deadline in seconds; a worker
            silent on one chunk for longer is SIGKILLed and the chunk
            enters the ordinary orphan/retry path.  ``None`` disables.
        map_deadline: default overall deadline per ``map`` call in
            seconds (overridable per call); ``None`` means unbounded.
        tick: supervision loop wake-up bound in seconds.
        death_budget: worker deaths a single ``map`` call tolerates
            before :class:`WorkerRestartStorm`; ``None`` (the default)
            derives ``8 + max_attempts * len(items)`` — generous enough
            that legitimate retries never trip it, finite enough that a
            crash loop (e.g. an external killer faster than progress)
            cannot spin forever.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        retry: RetryPolicy | None = None,
        max_attempts: int = 3,
        chunk_timeout: float | None = None,
        map_deadline: float | None = None,
        tick: float = 0.05,
        death_budget: int | None = None,
    ):
        self.workers = resolve_workers(workers)
        self.retry = (
            retry
            if retry is not None
            else ExponentialBackoffRetry(base=0.05, mult=2.0, cap=1.0)
        )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be > 0, got {chunk_timeout}"
            )
        if death_budget is not None and death_budget < 1:
            raise ValueError(
                f"death_budget must be >= 1, got {death_budget}"
            )
        self.max_attempts = max_attempts
        self.chunk_timeout = chunk_timeout
        self.map_deadline = map_deadline
        self.tick = tick
        self.death_budget = death_budget
        #: Worker processes replaced after a death (cumulative).
        self.restarts = 0
        #: Worker deaths observed (cumulative; includes heartbeat kills).
        self.deaths = 0
        self._handles: list[_WorkerHandle] = []
        #: Guards ``_closed``, the map owner and every change to
        #: ``_handles``; a worker is forked only under it, after a check
        #: that the pool is still open.  Reentrant, so a ``close()`` from
        #: a signal handler in the mapping thread cannot deadlock.
        self._lock = threading.RLock()
        self._closed = False
        self._map_owner: int | None = None  # thread ident of the map
        self._map_idle = threading.Event()
        self._map_idle.set()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._next_cid = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._handles)

    def pids(self) -> list[int]:
        """Live worker PIDs — what a chaos harness aims its SIGKILLs at."""
        return [
            h.proc.pid
            for h in list(self._handles)
            if h.proc.pid is not None and h.proc.is_alive()
        ]

    def _check_open(self) -> None:
        if self._closed:
            raise PoolClosedError("SupervisedPool is closed")

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_supervised_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(proc, parent_conn)

    def _ensure_started(self) -> None:
        # Replace slots whose worker died while the pool sat idle
        # (between map calls nobody watches the sentinels) or was
        # killed because the last map raised (_fail_inflight).
        for h in list(self._handles):
            if not h.proc.is_alive():
                self._replace(h)
        with self._lock:
            while len(self._handles) < self.workers:
                self._check_open()
                self._handles.append(self._spawn())

    def _discard(self, h: _WorkerHandle) -> None:
        try:
            h.conn.close()
        except OSError:
            pass
        if h.proc.is_alive():
            h.proc.kill()
        h.proc.join(timeout=5.0)

    def _replace(self, h: _WorkerHandle) -> None:
        self._discard(h)
        with self._lock:
            self._check_open()
            slot = self._handles.index(h)
            self.restarts += 1
            self._handles[slot] = self._spawn()

    def close(self, drain: bool = True) -> None:
        """Tear the pool down; see the class docstring for threads.

        ``drain=True`` (default) asks each worker to finish and exit via
        a shutdown frame and joins it; a worker that ignores the frame
        for 5s is killed.  ``drain=False`` SIGKILLs immediately, and so
        does a close while a ``map`` runs in another thread.
        """
        with self._lock:
            self._closed = True
            handles = list(self._handles)
            owner = self._map_owner
        drain = drain and owner is None
        for h in handles:
            if drain:
                try:
                    h.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
            else:
                h.proc.kill()
        if owner is not None and owner != threading.get_ident():
            # The map wakes on the killed workers' sentinels, raises
            # PoolClosedError and lets go of the pipes before we close
            # them under it.
            self._map_idle.wait(timeout=5.0)
        with self._lock:
            handles = list(self._handles)
            self._handles = []
        for h in handles:
            h.proc.join(timeout=5.0 if drain else 1.0)
            if h.proc.is_alive():
                h.proc.kill()
                h.proc.join(timeout=1.0)
            try:
                h.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # Leaving on an exception (Ctrl-C, a failed map) kills the
        # workers: nothing waits on chunks whose results are moot.
        self.close(drain=exc_type is None)

    # -- the supervised map --------------------------------------------

    def map(
        self,
        fn,
        items: list,
        chunksize: int = 1,
        *,
        deadline: float | None = None,
    ) -> list:
        """Submission-order map with supervision; see the module docstring."""
        items = list(items)
        if not items:
            return []
        with self._lock:
            self._check_open()
            if self._map_owner is not None:
                raise RuntimeError(
                    "SupervisedPool.map is already running; one map at a time"
                )
            self._map_owner = threading.get_ident()
            self._map_idle.clear()
        try:
            return self._map(fn, items, chunksize, deadline)
        except BaseException:
            # Abandon the chunks still in flight, unless a close() has
            # killed their workers already.
            if not self._closed:
                self._fail_inflight()
            raise
        finally:
            with self._lock:
                self._map_owner = None
                self._map_idle.set()

    def _map(self, fn, items: list, chunksize: int, deadline) -> list:
        n = len(items)
        if deadline is None:
            deadline = self.map_deadline
        deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        chunksize = max(1, int(chunksize))
        self._ensure_started()

        queue: list[_Chunk] = []
        for lo in range(0, n, chunksize):
            queue.append(
                _Chunk(self._next_cid, lo, min(lo + chunksize, n))
            )
            self._next_cid += 1
        results: list = [_MISSING] * n
        #: Submission index -> what the map raises for it: the exception
        #: ``fn`` raised there, or a quarantined item's PoisonItemError.
        failed: dict[int, BaseException] = {}
        death_budget = (
            self.death_budget
            if self.death_budget is not None
            else 8 + self.max_attempts * n
        )
        deaths_at_start = self.deaths

        def outstanding_below(bound: int) -> bool:
            if any(c.lo < bound for c in queue):
                return True
            return any(
                h.chunk is not None and h.chunk.lo < bound
                for h in self._handles
            )

        def orphan(c: _Chunk, now: float) -> None:
            # Retry each item of the dead worker's chunk on its own, so
            # blame lands on exactly one item and innocents retry
            # without inheriting its fate beyond this shared death.
            # Quarantine at the attempt cap or on budget exhaustion,
            # else backoff-gate the retry.
            attempts = c.attempts + 1
            for i in range(c.lo, c.hi):
                d = None
                if attempts < self.max_attempts:
                    d = self.retry.next_delay(attempts, i, spent=c.spent)
                if d is None:
                    failed[i] = PoisonItemError(
                        i, n, attempts, repr(items[i])[:200]
                    )
                    continue
                queue.append(
                    _Chunk(
                        self._next_cid, i, i + 1, attempts, now + d,
                        c.spent + d,
                    )
                )
                self._next_cid += 1

        def on_death(h: _WorkerHandle, now: float) -> None:
            self.deaths += 1
            c, h.chunk = h.chunk, None
            if c is not None:
                orphan(c, now)
            self._replace(h)
            if self.deaths - deaths_at_start > death_budget:
                raise WorkerRestartStorm(
                    f"{self.deaths - deaths_at_start} worker deaths for a "
                    f"{n}-item sweep (budget {death_budget}); the "
                    "environment is killing workers faster than "
                    "supervision can make progress"
                )

        def on_message(h: _WorkerHandle, msg) -> None:
            cid, out, exc = msg
            c = h.chunk
            if c is None or c.cid != cid:
                return  # stale frame from an abandoned dispatch
            h.chunk = None
            for off, val in enumerate(out):
                results[c.lo + off] = val
            if exc is not None:
                failed[c.lo + len(out)] = exc

        while True:
            if failed:
                # Results at/above the lowest failed index will never be
                # returned; drop their queued work and, once every item
                # below that index has resolved, raise.
                low = min(failed)
                queue = [c for c in queue if c.lo < low]
                if not outstanding_below(low):
                    err = failed[low]
                    if isinstance(err, PoisonItemError):
                        raise err
                    raise err from SweepItemError(low, n, err)
            elif not queue and all(h.chunk is None for h in self._handles):
                break
            now = time.monotonic()
            if deadline_at is not None and now >= deadline_at:
                pending = sum(1 for r in results if r is _MISSING)
                raise SweepDeadlineError(deadline, pending, n)

            # Dispatch ready chunks to idle workers in index order.
            queue.sort(key=lambda c: c.lo)
            for h in self._handles:
                if h.chunk is not None:
                    continue
                c = next((c for c in queue if c.not_before <= now), None)
                if c is None:
                    break
                try:
                    h.conn.send((c.cid, fn, items[c.lo : c.hi]))
                except (OSError, BrokenPipeError):
                    # Died before dispatch: the chunk stays queued.
                    on_death(h, now)
                    continue
                queue.remove(c)
                h.chunk = c
                h.since = now

            # How long may we sleep without missing a wake-up?  A ready
            # chunk waits for a busy worker's pipe or sentinel, which the
            # wait below watches; only a future backoff gate shortens the
            # sleep.  A worker replaced at send time is idle beside ready
            # work, so that must not sleep.
            idle = any(h.chunk is None for h in self._handles)
            timeout = self.tick
            for c in queue:
                if c.not_before > now:
                    timeout = min(timeout, c.not_before - now)
                elif idle:
                    timeout = 0.0
            if deadline_at is not None:
                timeout = min(timeout, max(0.0, deadline_at - now))
            if self.chunk_timeout is not None:
                for h in self._handles:
                    if h.chunk is not None:
                        due = h.since + self.chunk_timeout - now
                        timeout = min(timeout, max(0.0, due))

            by_obj = {}
            waitables = []
            for h in self._handles:
                if h.chunk is not None:
                    waitables.append(h.conn)
                    by_obj[h.conn] = h
                waitables.append(h.proc.sentinel)
                by_obj[h.proc.sentinel] = h
            ready = mp_connection.wait(waitables, timeout) if waitables else []
            self._check_open()  # close() from another thread
            now = time.monotonic()
            handled: set[int] = set()
            for obj in ready:
                h = by_obj[obj]
                if id(h) in handled:
                    continue
                handled.add(id(h))
                # Even when the *sentinel* fired, drain a buffered result
                # first: a worker killed after sending has still done the
                # work.
                got = False
                if h.chunk is not None:
                    try:
                        if h.conn.poll(0):
                            on_message(h, h.conn.recv())
                            got = True
                    except (EOFError, OSError):
                        pass
                if not got and not h.proc.is_alive():
                    on_death(h, now)

            # Per-chunk heartbeat: a silent worker is a dead worker.
            if self.chunk_timeout is not None:
                for h in list(self._handles):
                    silent = now - h.since > self.chunk_timeout
                    if h.chunk is not None and silent:
                        h.proc.kill()
                        on_death(h, now)

        missing = [i for i, r in enumerate(results) if r is _MISSING]
        if missing:
            raise RuntimeError(
                f"SupervisedPool.map lost {len(missing)} of {n} result(s) "
                f"without a failure (indices {_shown(missing)}); a worker "
                "replied short"
            )
        return results

    def _fail_inflight(self) -> None:
        """Abandon in-flight chunks: kill their workers, leave the slots
        dead.

        Called on every path that raises out of ``map``, whatever
        raised: the results of still-running chunks are moot, a worker
        mid-poison-item must not outlive the call, and a chunk left
        marked in flight would deliver its stale reply into the next
        map's results.  No replacement is forked here: a pool closed
        right after (``sweep_map`` with no ``pool=``, Ctrl-C) would only
        kill it, and :meth:`_ensure_started` refills dead slots when the
        next map starts.
        """
        for h in list(self._handles):
            if h.chunk is not None:
                h.chunk = None
                self._discard(h)
