"""The asyncio job server: dedup, cache, coalesce, shard, stream.

:class:`SimulationServer` accepts sweep requests (one program family
evaluated at many parameter points) and serves each *point* from the
cheapest sufficient source, in this order:

1. **Cache** (:mod:`.cache`): an exact-key LRU hit is returned
   immediately — zero simulation.
2. **In-flight dedup**: a point some other job is already computing is
   *attached to*, never recomputed — concurrent identical requests cost
   one evaluation total.
3. **Coalesced batch**: remaining points wait one ``batch_window`` so
   that compatible points — same family, args, seed, and backend —
   from *any* number of concurrent jobs merge into a single
   :func:`repro.sim.sweep.grid_map` call, which compiles once per
   distinct ``P`` and replays the whole batch through the vectorized
   compiled-grid evaluator.  With a pool, a batch of ``n`` points
   splits into ``min(workers, n // S)`` contiguous chunks on the
   persistent :class:`repro.sim.supervise.SupervisedPool`, and runs
   in-process only when that is fewer than 2.  ``S`` is a measured
   shard size per class of batch (``_SHARD_COMPILED`` for tape
   replays, ``_SHARD_SCALAR`` for a machine batch or one with a
   latency spec): the points whose cheapest work repays one pool
   round trip.  Evaluation thus leaves the event loop's process for
   all but the smallest batches; what stays, the journal write and the
   waiters' wake-up, is paid once per group (see :class:`Job`).

The determinism contract: every served pair is bit-identical to what
the serial loop ``[run(point) for point in points]`` produces, whether
it came from cache, from another job's flight, from a coalesced batch,
or from a pool shard.  This holds because (a) ``grid_map`` is
per-point bit-identical to the machine regardless of how points are
grouped (the compiled evaluator's contract, pinned by
``tests/test_compiled.py``), (b) shards are contiguous submission-order
chunks merged in order, and (c) cache keys span the full determinism
domain (:class:`repro.serve.cache.CacheKey`).  ``tests/test_serve.py``
pins served-vs-serial equality across all three paths.

Failures are loud: a batch that raises fails every attached job with
the original exception — chained from
:class:`repro.sim.sweep.SweepItemError` when a pool shard died, naming
the failing item — and the server keeps serving subsequent requests.

Jobs stream progress: :meth:`Job.updates` yields ``(done, total)``
after every resolved point-group, and :meth:`Job.wait` returns the
submission-order results, or raises the first failed point's error.

A cache hit does only what answering it needs.  A request's args are
canonicalized once, by :meth:`SweepRequest.make`, and fingerprinted
once per submit from that tuple; each point builds one
:class:`~repro.serve.cache.CacheKey`, a named tuple hashed in C, and
makes one lookup.  A job whose every point hit is finished when
:meth:`SimulationServer.submit` returns, with no future, callback,
task or event.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

from ..core import LogGPParams, LogPParams
from ..sim.supervise import SupervisedPool
from ..sim.sweep import grid_map, resolve_workers, sweep_map
from .cache import CacheKey, CachePersistence, ResultCache, point_key
from .registry import build, canonical_args, fingerprint, get_family

__all__ = [
    "Job",
    "JobCancelledError",
    "JobDeadlineError",
    "ServeConfig",
    "ServerOverloaded",
    "ServerShutdown",
    "SimulationServer",
    "SweepRequest",
    "build_latency",
    "canonical_latency",
    "parse_point",
]


class ServerShutdown(RuntimeError):
    """The server is shutting down (or has shut down).

    Raised by :meth:`SimulationServer.submit` after close, and set on
    every abandoned pending point by ``aclose(drain=False)`` — so a
    job interrupted by shutdown fails with an explicit, typed error
    (surfaced on the wire as a ``server-shutdown`` error frame), never
    with a bare ``CancelledError`` that looks like a client bug.
    """


class ServerOverloaded(RuntimeError):
    """Admission refused: accepting the request would exceed the bound.

    Load-shedding is explicit by design — a client must see an
    ``overloaded`` error frame it can back off on, never a silently
    growing queue that turns into a hang.  ``retry_after`` is a hint in
    seconds (one batch window: by then the current batch has drained).
    """

    def __init__(self, inflight: int, requested: int, limit: int,
                 retry_after: float):
        super().__init__(
            f"admission refused: {inflight} point(s) in flight + "
            f"{requested} new would exceed max_pending_points={limit}; "
            f"retry after ~{retry_after}s"
        )
        self.inflight = inflight
        self.requested = requested
        self.limit = limit
        self.retry_after = retry_after


class JobDeadlineError(RuntimeError):
    """The job's deadline elapsed before every point resolved.

    Set on the job's own pending slots only: the shared computation
    keeps running and still lands in the cache — the deadline bounds
    how long this client waits, it does not waste the work.  Surfaced
    on the wire as a ``deadline-exceeded`` error frame.
    """

    def __init__(self, job_id: int, deadline: float, pending: int):
        super().__init__(
            f"job {job_id} missed its {deadline}s deadline with "
            f"{pending} point(s) unresolved"
        )
        self.job_id = job_id
        self.deadline = deadline
        self.pending = pending


class JobCancelledError(RuntimeError):
    """The job was cancelled (``cancel`` op or :meth:`Job.cancel`).

    Like a deadline, cancellation fails only this job's pending slots;
    shared in-flight computation other jobs depend on is untouched.
    Surfaced on the wire as a ``cancelled`` error frame.
    """

    def __init__(self, job_id: int, reason: str):
        super().__init__(f"job {job_id} cancelled: {reason}")
        self.job_id = job_id
        self.reason = reason


def parse_point(spec) -> LogPParams:
    """Accept a ``LogPParams`` or a ``{"L":..,"o":..,"g":..,"P":..}``
    mapping (``"G"`` promotes to LogGP); anything else refuses loudly."""
    if isinstance(spec, LogPParams):
        return spec
    if isinstance(spec, dict):
        unknown = set(spec) - {"L", "o", "g", "P", "G"}
        if unknown:
            raise ValueError(
                f"unknown point fields {sorted(unknown)}; "
                "expected L, o, g, P and optionally G"
            )
        try:
            if spec.get("G") is not None:
                return LogGPParams(
                    L=float(spec["L"]),
                    o=float(spec["o"]),
                    g=float(spec["g"]),
                    P=int(spec["P"]),
                    G=float(spec["G"]),
                )
            return LogPParams(
                L=float(spec["L"]),
                o=float(spec["o"]),
                g=float(spec["g"]),
                P=int(spec["P"]),
            )
        except KeyError as exc:
            raise ValueError(f"point missing field {exc.args[0]!r}") from None
    raise TypeError(
        f"point must be LogPParams or a mapping, got {type(spec).__name__}"
    )


_BACKENDS = ("machine", "compiled", "auto")

#: Wire-level latency kinds -> required numeric fields beyond "kind".
_LATENCY_KINDS = {
    "fixed": ("L",),
    "uniform": ("L", "lo_frac", "seed"),
    "jittered": ("L", "scale_frac", "seed"),
}


def canonical_latency(spec) -> tuple | None:
    """Canonicalize a wire latency spec into a hashable tuple.

    ``None`` means the machine's default (every flight exactly the
    point's ``L``).  Otherwise a mapping like ``{"kind": "uniform",
    "L": 6.0, "lo_frac": 0.25, "seed": 7}`` — the bound ``L`` is
    explicit (one shared model across the sweep, exactly
    :func:`repro.sim.sweep.grid_map`'s ``latency=`` semantics), and the
    tuple form ``("uniform", ("L", 6.0), ("lo_frac", 0.25),
    ("seed", 7))`` keys caching and batch coalescing.  Malformed specs
    refuse loudly at submit time.
    """
    if spec is None:
        return None
    if isinstance(spec, tuple):
        return spec  # already canonical (an internal resubmission)
    if not isinstance(spec, dict):
        raise TypeError(
            f"latency must be a mapping or None, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind not in _LATENCY_KINDS:
        raise ValueError(
            f"latency kind must be one of {sorted(_LATENCY_KINDS)}, "
            f"got {kind!r}"
        )
    fields = _LATENCY_KINDS[kind]
    unknown = set(spec) - {"kind", *fields}
    if unknown:
        raise ValueError(
            f"unknown latency fields {sorted(unknown)} for kind {kind!r}; "
            f"expected {list(fields)}"
        )
    out = [kind]
    for name in fields:
        if name not in spec:
            raise ValueError(f"latency spec missing field {name!r}")
        val = int(spec[name]) if name == "seed" else float(spec[name])
        out.append((name, val))
    return tuple(out)


def build_latency(lat: tuple | None):
    """Instantiate the shared latency model for a canonical spec.

    Module-level so pool shards can rebuild the model worker-side; a
    fresh instance per call keeps RNG state out of the coalescing key.
    """
    if lat is None:
        return None
    from ..sim.latency import FixedLatency, JitteredLatency, UniformLatency

    kind, *pairs = lat
    kw = dict(pairs)
    if kind == "fixed":
        return FixedLatency(kw["L"])
    if kind == "uniform":
        return UniformLatency(kw["L"], lo_frac=kw["lo_frac"], seed=kw["seed"])
    return JitteredLatency(
        kw["L"], scale_frac=kw["scale_frac"], seed=kw["seed"]
    )


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: a program family evaluated at many parameter points.

    ``args`` is the canonicalized tuple form
    (:func:`repro.serve.registry.canonical_args`); build requests with
    :meth:`make`, which canonicalizes, parses points, and validates the
    family name and backend up front so a bad request fails at submit
    time, not mid-batch.
    """

    program: str
    points: tuple
    args: tuple = ()
    seed: int | None = None
    backend: str = "auto"
    #: Canonical shared-latency spec (see :func:`canonical_latency`);
    #: None means every flight takes exactly the point's ``L``.
    latency: tuple | None = None
    #: Per-job deadline in seconds; ``None`` defers to the server's
    #: ``default_deadline``.  Not part of the cache/coalescing identity:
    #: a deadline bounds the wait, never the value.
    deadline: float | None = None

    @classmethod
    def make(
        cls,
        program: str,
        points: Iterable,
        *,
        args: dict | None = None,
        seed: int | None = None,
        backend: str = "auto",
        latency: dict | tuple | None = None,
        deadline: float | None = None,
    ) -> "SweepRequest":
        get_family(program)  # unknown family refuses at submit time
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if seed is not None and not isinstance(seed, int):
            raise TypeError(f"seed must be int or None, got {seed!r}")
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ValueError(
                    f"deadline must be > 0 seconds, got {deadline}"
                )
        pts = tuple(parse_point(p) for p in points)
        if not pts:
            raise ValueError("a sweep request needs at least one point")
        return cls(
            program=program,
            points=pts,
            args=canonical_args(args),
            seed=seed,
            backend=backend,
            latency=canonical_latency(latency),
            deadline=deadline,
        )

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.program, self.args)


@dataclass
class ServeConfig:
    """Server knobs; the defaults favour correctness-visible behaviour.

    ``batch_window`` is the coalescing horizon in seconds: points
    arriving within one window merge into one grid evaluation.  0 still
    coalesces whatever is queued when the batcher wakes (one event-loop
    tick), it just never *waits* for more.

    With ``workers > 1``, every batch large enough to give 2 workers a
    measured shard size each runs on a
    :class:`~repro.sim.supervise.SupervisedPool` (worker death is
    detected, retried, and quarantined; the size depends on the path
    the batch's points take and is not a knob, see ``_SHARD_COMPILED``
    and ``_SHARD_SCALAR``); ``workers=1`` means no pool, every batch
    evaluated in-process.  The robustness knobs:
    ``max_pending_points`` bounds admission (``None`` = unbounded — a
    request that would push the in-flight point count past the bound is
    refused with :class:`ServerOverloaded`, never queued into a silent
    hang);
    ``default_deadline`` applies to jobs that don't carry their own;
    ``cache_dir`` enables cache persistence (write-ahead journal, one
    write per computed group, replayed on restart, compacted into a
    snapshot once it holds as many
    records as the last snapshot wrote and at least ``snapshot_every``:
    a floor, not a period; see
    :attr:`repro.serve.cache.CachePersistence.snapshot_due`).
    """

    workers: int | None = None
    batch_window: float = 0.002
    cache_entries: int = 65_536
    max_pending_points: int | None = None
    default_deadline: float | None = None
    cache_dir: str | None = None
    snapshot_every: int = 256


class Job:
    """A submitted sweep: per-point results in submission order.

    Each point has a slot.  A cache hit fills its slot at submit, so a
    job whose every point hit is :attr:`finished` when
    :meth:`SimulationServer.submit` returns.  Any other point is a
    ``(job, slot)`` waiter on an in-flight computation, filled with the
    pair or the group's failure when its group resolves.  A deadline,
    cancellation or shutdown fails only this job's pending slots: the
    shared computation still lands in the cache.  The job makes one
    future, and only when :meth:`wait` has to wait.
    """

    _ids = itertools.count(1)

    def __init__(self, total: int, request: SweepRequest):
        self.id = next(Job._ids)
        self.request = request
        self.total = total
        self.done = 0
        #: How each point was served: cache / inflight / computed.
        self.sources = {"cache": 0, "inflight": 0, "computed": 0}
        #: Per point, in submission order: its pair, its failure (an
        #: exception), or None while it is pending.
        self._slots: list = []
        #: Resolved when the last slot fills; made by :meth:`wait` the
        #: first time it has to wait.
        self._finished: asyncio.Future | None = None
        #: Set when a group resolves; made by :meth:`updates` the first
        #: time it has to wait, so a job finished at submit makes none.
        self._wake: asyncio.Event | None = None
        #: Server hook, fired once when the last point resolves
        #: (deadline timer cancel + registry cleanup).
        self._on_finished = None

    def _hit(self, pair: tuple) -> None:
        self.sources["cache"] += 1
        self._slots.append(pair)
        self.done += 1

    def _join(self, waiters: list, source: str) -> None:
        self.sources[source] += 1
        waiters.append((self, len(self._slots)))
        self._slots.append(None)

    def _settle(self) -> None:
        """Wake the progress stream; finish once every slot is filled."""
        if self._wake is not None:
            self._wake.set()
        if self.done < self.total:
            return
        if self._finished is not None and not self._finished.done():
            self._finished.set_result(None)
        if self._on_finished is not None:
            hook, self._on_finished = self._on_finished, None
            hook()

    def _fail_pending(self, exc: BaseException) -> None:
        slots = self._slots
        for i, slot in enumerate(slots):
            if slot is None:
                slots[i] = exc
                self.done += 1
        self._settle()

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Fail this job's unresolved points with
        :class:`JobCancelledError`; shared computation is untouched.
        Returns whether anything was actually cancelled."""
        if self.finished:
            return False
        self._fail_pending(JobCancelledError(self.id, reason))
        return True

    @property
    def finished(self) -> bool:
        return self.done >= self.total

    async def wait(self) -> list[tuple[float, float]]:
        """Submission-order results once every point has resolved.

        Raises the failure of the first failed point in submission
        order.  A finished job returns, or raises, without suspending.
        """
        if not self.finished:
            if self._finished is None or self._finished.cancelled():
                self._finished = asyncio.get_running_loop().create_future()
            await self._finished
        for slot in self._slots:
            if isinstance(slot, BaseException):
                raise slot
        return list(self._slots)

    async def updates(self):
        """Async stream of ``(done, total)`` progress pairs.

        Yields after every newly resolved point group, ending with the
        final ``(total, total)``.  Failures surface in :meth:`wait`,
        not here — the stream just completes.
        """
        last = -1
        while True:
            if self.done != last:
                last = self.done
                yield (last, self.total)
            if self.done >= self.total:
                return
            if self._wake is None:
                self._wake = asyncio.Event()
            self._wake.clear()
            if self.done == last:
                await self._wake.wait()


# ----------------------------------------------------------------------
# Batch evaluation (thread- and process-side; must stay module-level
# and picklable for the pool shards).
# ----------------------------------------------------------------------


def _eval_shard(program, args, seed, backend, latency, raw_pts):
    """Rebuild the family from its name and evaluate one point chunk.

    Runs inside a pool worker (or inline for unsharded batches): only
    names and plain tuples cross the process boundary, the program
    object (and the shared latency model, when the request carries a
    spec) is rebuilt from the registry on this side.  A fresh model per
    shard is sound: the machine and the compiled grid replay both reset
    it per point, so shard boundaries cannot leak RNG state.
    """
    programs = build(program, dict(args), seed)
    pts = [
        LogGPParams(L=L, o=o, g=g, P=P, G=G)
        if G is not None
        else LogPParams(L=L, o=o, g=g, P=P)
        for (L, o, g, P, G) in raw_pts
    ]
    return grid_map(
        programs, pts, backend=backend, latency=build_latency(latency)
    )


#: Shard sizes ``S`` of :func:`_shard_count`: a batch runs on the pool
#: once each of 2 or more shards gets ``S`` points, the size whose
#: cheapest work repays one pool round trip ``r``, ``S = ceil(r / c)``.
#: ``c`` is one tape replay a point for a ``compiled`` or ``auto``
#: batch, and one scalar evaluation for a batch whose points run one at
#: a time: a ``machine`` batch, or one with a latency spec (the scalar
#: evaluator takes 90.2 of a 96-point jittered request's points).
#: ``python -m repro.bench --only shard_cost`` measures both; seven
#: runs of 41 reps on a 2-vCPU host gave, as medians over the runs
#: (range in brackets): ``r`` = 0.34 ms [0.28-0.64], on the cheapest
#: 1-point chunk (a ``flood`` k = 4 point); ``c`` = 5.5 us [4.6-8.1]
#: for a replayed ``bcast_tree`` k = 8 point at P = 4 (16.6 at P = 16;
#: 31.2 at P = 8, where the slope also records a second tape) and
#: 300 us [275-340] for a machine ``flood`` k = 4 point at P = 8 (a
#: scalar point costs 0.82-0.94 ms, ``tape_cost``).  Hence
#: ceil(0.344 ms / 5.52 us) = 63 and ceil(0.344 ms / 300 us) = 2.
#: Both err toward in-process: most compiled points cost more than a
#: replay, and a scalar point more than a machine ``flood`` point.
_SHARD_COMPILED = 63
_SHARD_SCALAR = 2


def _shard_count(
    n: int, backend: str, latency, pool: SupervisedPool | None
) -> int:
    """Pool shards for an ``n``-point batch: ``min(workers, n // S)``;
    1 (no pool, or fewer than 2 shards) means evaluate in-process."""
    if pool is None:
        return 1
    scalar = backend == "machine" or latency is not None
    size = _SHARD_SCALAR if scalar else _SHARD_COMPILED
    return max(1, min(pool.workers, n // size))


def _eval_batch(
    program,
    args,
    seed,
    backend,
    latency,
    raw_pts: list,
    *,
    shards: int,
    pool: SupervisedPool | None,
):
    """One coalesced batch, as ``shards`` pool shards or in-process.

    ``shards`` comes from :func:`_shard_count`.  Shards are contiguous
    submission-order chunks, merged in order, so the flattened result
    equals the unsharded ``grid_map`` result point for point (grid
    grouping is per-point independent).
    """
    if shards == 1:
        return _eval_shard(program, args, seed, backend, latency, raw_pts)
    n = len(raw_pts)
    size = -(-n // shards)
    chunks = [raw_pts[i : i + size] for i in range(0, n, size)]
    per_chunk = sweep_map(
        partial(_eval_shard, program, args, seed, backend, latency),
        chunks,
        workers=shards,
        chunksize=1,
        pool=pool,
    )
    return [pair for chunk in per_chunk for pair in chunk]


@dataclass
class _Group:
    """Pending computations coalescable into one grid evaluation."""

    request_shape: tuple  # (program, args, seed, backend, latency)
    entries: list = field(default_factory=list)  # (CacheKey, raw point)


class SimulationServer:
    """See the module docstring; lifecycle is ``start`` / ``aclose``.

    All public coroutines must run on the loop that called
    :meth:`start`.  Synchronous convenience: ``asyncio.run`` around
    :meth:`run_request` (what ``python -m repro.serve --smoke`` and the
    bench workloads do).
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.cache = ResultCache(self.config.cache_entries)
        self.workers = resolve_workers(self.config.workers)
        if self.workers > 1:
            # A SIGKILLed pool worker (OOM, chaos) is restarted and its
            # chunk retried instead of wedging the batch.
            self._pool = SupervisedPool(self.workers)
        else:
            self._pool = None
        #: Each point in flight and its ``(job, slot)`` waiters.
        self._inflight: dict[CacheKey, list] = {}
        self._pending: dict[tuple, _Group] = {}
        self._have_pending: asyncio.Event | None = None
        #: Set whenever a resolved group leaves nothing in flight.
        self._idle: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._closed = False
        self._jobs: dict[int, Job] = {}
        #: fingerprint -> (program, canonical args): lets the snapshot
        #: writer re-emit full records for every cached key.
        self._families_by_fp: dict[str, tuple] = {}
        self._persist: CachePersistence | None = None
        self.stats = {
            "requests": 0,
            "points": 0,
            "served_cache": 0,
            "served_inflight": 0,
            "computed": 0,
            "batches": 0,
            "largest_batch": 0,
            "sharded_batches": 0,
            "errors": 0,
            "shed": 0,
            "cancelled": 0,
            "deadline_expired": 0,
        }
        if self.config.cache_dir:
            self._persist = CachePersistence(
                self.config.cache_dir,
                snapshot_every=self.config.snapshot_every,
            )
            # Replay in write order so the LRU's recency survives too.
            for program, args, key, pair in self._persist.load():
                self.cache.put(key, pair)
                self._families_by_fp[key.fingerprint] = (program, args)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "SimulationServer":
        if self._batcher is None:
            self._have_pending = asyncio.Event()
            self._idle = asyncio.Event()
            self._batcher = asyncio.create_task(
                self._batch_loop(), name="repro-serve-batcher"
            )
        return self

    async def aclose(self, drain: bool = True) -> None:
        """Shut down; ``drain`` picks the in-flight jobs' fate.

        ``drain=True`` (default) refuses new submissions but keeps the
        batcher alive until every already-accepted point has resolved —
        attached jobs complete normally.  ``drain=False`` abandons them:
        every unresolved point fails with :class:`ServerShutdown`
        (clients see an explicit ``server-shutdown`` error frame, not a
        hang or a cancellation).
        """
        self._closed = True
        if drain and self._batcher is not None:
            # Every pending point is in flight, and the batcher resolves
            # what is in flight group by group.  New work cannot arrive
            # (submit refuses once _closed), so this converges.
            while self._inflight:
                self._idle.clear()
                await self._idle.wait()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        self._inflight.clear()
        self._pending.clear()
        for job in list(self._jobs.values()):  # the unfinished ones
            job._fail_pending(
                ServerShutdown("server-shutdown: job abandoned by aclose")
            )
        if self._persist is not None:
            # Graceful close compacts: snapshot the live cache and reset
            # the journal, so the next start replays one clean file.
            self._snapshot()
            self._persist.close()
        if self._pool is not None:
            self._pool.close(drain=drain)

    async def close(self, drain: bool = True) -> None:
        """Alias for :meth:`aclose`."""
        await self.aclose(drain=drain)

    async def __aenter__(self) -> "SimulationServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- submission ---------------------------------------------------

    async def submit(self, request: SweepRequest) -> Job:
        """Route every point of ``request`` and return its :class:`Job`.

        Raises :class:`ServerOverloaded` (load-shedding, nothing
        accepted) when admission would push the in-flight point count
        past ``max_pending_points`` — all-or-nothing, so a shed request
        leaves no partial state behind.
        """
        if self._closed:
            raise ServerShutdown("server is closed")
        if self._batcher is None:
            raise RuntimeError(
                "server not started; use 'async with SimulationServer()' "
                "or await server.start()"
            )
        fp = request.fingerprint
        seed, backend, latency = request.seed, request.backend, request.latency
        keys = [
            CacheKey(fp, point_key(params), seed, backend, latency)
            for params in request.points
        ]
        limit = self.config.max_pending_points
        if limit is not None:
            # Side-effect-free probe (peek: no stats, no LRU churn).
            # No await between here and the routing loop below, so the
            # count cannot go stale before the points are attached.
            fresh = {
                key for key in keys
                if key not in self._inflight and self.cache.peek(key) is None
            }
            if fresh and len(self._inflight) + len(fresh) > limit:
                self.stats["shed"] += 1
                raise ServerOverloaded(
                    len(self._inflight), len(fresh), limit,
                    retry_after=max(self.config.batch_window, 0.01),
                )
        job = Job(len(request.points), request)
        self.stats["requests"] += 1
        self.stats["points"] += len(request.points)
        self._families_by_fp[fp] = (request.program, request.args)
        shape = (request.program, request.args, seed, backend, latency)
        for key in keys:
            pair = self.cache.get(key)
            if pair is not None:
                job._hit(pair)
                self.stats["served_cache"] += 1
                continue
            waiters = self._inflight.get(key)
            if waiters is not None:
                job._join(waiters, "inflight")
                self.stats["served_inflight"] += 1
                continue
            # Find or build the group before publishing the point: a
            # raise in between would leave a point no batch resolves.
            group = self._pending.get(shape)
            if group is None:
                group = self._pending[shape] = _Group(shape)
            waiters = self._inflight[key] = []
            group.entries.append((key, key.point))
            job._join(waiters, "computed")
            self.stats["computed"] += 1
        self._register(job)
        if self._pending:
            self._have_pending.set()
        return job

    def _register(self, job: Job) -> None:
        """Track the job until finished: deadline timer + cancel registry.

        A job every point of which hit the cache is finished already:
        nothing can time out or be cancelled, so it is not tracked."""
        if job.finished:
            return
        deadline = job.request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        handle = (
            asyncio.get_running_loop().call_later(
                deadline, self._expire_job, job, deadline
            )
            if deadline is not None
            else None
        )
        self._jobs[job.id] = job

        def _finalize() -> None:
            if handle is not None:
                handle.cancel()
            self._jobs.pop(job.id, None)

        job._on_finished = _finalize

    def _expire_job(self, job: Job, deadline: float) -> None:
        if job.finished:
            return
        self.stats["deadline_expired"] += 1
        job._fail_pending(
            JobDeadlineError(job.id, deadline, job.total - job.done)
        )

    def cancel_job(
        self, job_id: int, reason: str = "cancelled by client"
    ) -> bool:
        """Cancel a registered job by id; unknown/finished ids return
        False.  Shared in-flight computation is never cancelled."""
        job = self._jobs.get(job_id)
        if job is None or not job.cancel(reason):
            return False
        self.stats["cancelled"] += 1
        return True

    async def run_request(self, request: SweepRequest) -> list:
        """Submit and wait: the one-call client path."""
        job = await self.submit(request)
        return await job.wait()

    def stats_snapshot(self) -> dict:
        snap = dict(self.stats)
        snap["cache"] = self.cache.stats.as_dict()
        snap["workers"] = self.workers
        snap["pool_started"] = (
            self._pool.started if self._pool is not None else False
        )
        snap["inflight"] = len(self._inflight)
        limit = self.config.max_pending_points
        if self._closed:
            status = "closed"
        elif limit is not None and len(self._inflight) >= limit:
            status = "overloaded"
        else:
            status = "ok"
        health = {
            "status": status,
            # readiness: started, not closed — the load balancer's bit.
            "ready": self._batcher is not None and not self._closed,
            "inflight_points": len(self._inflight),
            "pending_groups": len(self._pending),
            "active_jobs": len(self._jobs),
            "max_pending_points": limit,
            "default_deadline": self.config.default_deadline,
        }
        pool = self._pool
        health["pool"] = {
            "kind": type(pool).__name__ if pool is not None else None,
            "workers": self.workers,
            "started": pool.started if pool is not None else False,
            "restarts": getattr(pool, "restarts", 0),
            "worker_deaths": getattr(pool, "deaths", 0),
        }
        snap["health"] = health
        if self._persist is not None:
            snap["persistence"] = self._persist.stats_snapshot()
        return snap

    # -- the batcher --------------------------------------------------

    async def _batch_loop(self) -> None:
        window = self.config.batch_window
        while True:
            await self._have_pending.wait()
            self._have_pending.clear()
            if window > 0:
                # The coalescing horizon: let concurrent submitters
                # land in this batch instead of the next one.
                await asyncio.sleep(window)
            pending = self._pending
            self._pending = {}
            for group in pending.values():
                await self._run_group(group)

    async def _run_group(self, group: _Group) -> None:
        program, args, seed, backend, latency = group.request_shape
        keys, raw_pts = zip(*group.entries)
        self.stats["batches"] += 1
        self.stats["largest_batch"] = max(
            self.stats["largest_batch"], len(raw_pts)
        )
        shards = _shard_count(len(raw_pts), backend, latency, self._pool)
        if shards > 1:
            self.stats["sharded_batches"] += 1
        try:
            pairs = await asyncio.to_thread(
                _eval_batch,
                program,
                args,
                seed,
                backend,
                latency,
                raw_pts,
                shards=shards,
                pool=self._pool,
            )
        except Exception as exc:  # noqa: BLE001 - failing the jobs, not us
            self._fail_group(keys, exc)
            return
        persist = self._persist
        if persist is not None:
            # Write-ahead: journaled before any point is cached or seen
            # by a client, so no crash can have served (and no later hit
            # can serve) bits a restart cannot replay.
            try:
                persist.record(program, args, keys, pairs)
            except OSError as exc:
                # Disk full or cache dir gone: keep what stayed
                # journaled, fail the rest, keep the batcher serving.
                whole = getattr(exc, "whole", 0)
                self._commit(keys[:whole], pairs[:whole])
                self._fail_group(keys[whole:], exc)
                return
        self._commit(keys, pairs)
        if persist is not None and persist.snapshot_due:
            self._snapshot()

    def _commit(self, keys: list, pairs: list) -> None:
        """Cache computed points and hand them to their waiters."""
        for key, pair in zip(keys, pairs):
            self.cache.put(key, pair)
        self._resolve(keys, pairs)

    def _fail_group(self, keys: list, exc: BaseException) -> None:
        """Fail the group's still-unresolved points with ``exc``."""
        self.stats["errors"] += 1
        self._resolve(keys, itertools.repeat(exc))

    def _resolve(self, keys: list, values) -> None:
        """Fill each waiter's pending slot with its point's value, a pair
        or a failure, then wake each job touched, once."""
        touched = {}
        inflight = self._inflight
        for key, value in zip(keys, values):
            for job, slot in inflight.pop(key, ()):
                slots = job._slots
                if slots[slot] is None:
                    slots[slot] = value
                    job.done += 1
                    touched[job] = None
        for job in touched:
            job._settle()
        if not inflight:
            self._idle.set()

    def _snapshot(self) -> None:
        families = self._families_by_fp
        self._persist.snapshot(
            (*families[key.fingerprint], key, pair)
            for key, pair in self.cache.items()
            if key.fingerprint in families
        )


def serve_sweep(
    requests: "SweepRequest | Sequence[SweepRequest]",
    *,
    config: ServeConfig | None = None,
) -> list:
    """Synchronous convenience: serve request(s) on a throwaway server.

    Returns one result list per request (or a bare list for a single
    request).  Mostly for tests, docs, and quick scripts — a real
    deployment keeps one :class:`SimulationServer` alive.
    """
    single = isinstance(requests, SweepRequest)
    reqs = [requests] if single else list(requests)

    async def _run():
        async with SimulationServer(config) as server:
            jobs = [await server.submit(r) for r in reqs]
            return [await j.wait() for j in jobs]

    out = asyncio.run(_run())
    return out[0] if single else out
