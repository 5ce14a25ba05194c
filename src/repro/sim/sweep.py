"""The general sweep scheduler: deterministic fan-out for CLI and server.

This module is the single scheduling layer every sweep in the repository
goes through — the fuzz harness (:mod:`repro.sim.fuzz`), the chaos
harness (:mod:`repro.sim.chaos`), saturation curves
(:mod:`repro.topology.saturation`), the benchmark entry point
(:mod:`repro.bench`), and the :mod:`repro.serve` job server.  It is
split into two layers:

1. **Execution** (:func:`sweep_map`, :func:`grid_map`).
   :func:`sweep_map` decides where a sweep runs — the serial loop, or a
   process pool with a chunk size that is a pure function of the item
   and worker counts — and fans it out; :func:`grid_map` evaluates one
   program family across a parameter grid with explicit backend
   resolution (``machine`` / ``compiled`` / ``auto``) through the
   compiled schedule evaluator (:mod:`repro.sim.compiled`) — compile
   once per distinct ``P``, replay vectorized.
2. **Pooling** (:class:`repro.sim.supervise.SupervisedPool`): the one
   process pool, with worker-death detection, restart, retry and poison
   quarantine.  It alone assembles results and reports failures.
   :func:`sweep_map` opens one for the call when no pool is passed and
   closes it before returning.  Long-lived callers (the
   :mod:`repro.serve` server, bench loops) hold one open across requests
   and pass it as ``sweep_map(..., pool=...)``, so pool startup is paid
   once, not per sweep.

The determinism contract, shared by both layers:

* **Submission-order merge.**  Results are returned in the order the
  items were submitted, never in completion order, so a parallel sweep
  is a drop-in replacement for ``[fn(x) for x in items]``.
* **No shared randomness.**  The worker function must derive all of its
  randomness from the item itself (every sweep in this repository seeds
  a fresh generator per item, e.g. ``make_case(seed)``); the runner adds
  no nondeterminism of its own, so the merged output is bit-identical to
  the serial run for any worker count.  This is test-enforced by
  ``tests/test_sweep.py`` and, for the served paths, ``tests/test_serve.py``.
* **Deterministic chunking.**  The chunk size is a pure function of the
  item count and worker count (or caller-supplied) — never derived from
  timing.
* **Amortized dispatch.**  ``min_chunk`` sets the smallest per-worker
  share worth shipping to a process: the worker count is lowered until
  every worker gets at least that many items, degrading to the serial
  loop for sweeps too small to amortize pool startup and per-task IPC
  (~10ms of pure overhead on a small fuzz sweep).  The result is
  unchanged — only where the work runs.
* **Indexed failure.**  A failure of any kind is reported at the lowest
  failing submission index, once every lower index has resolved, and
  nothing at or above it is dispatched after it is seen.  A worker
  exception is re-raised in the caller chained from a
  :class:`SweepItemError` naming that index, so error reports (the
  server's included) can say *which* grid point or seed died; an item
  that kills its worker every time raises
  :class:`~repro.sim.supervise.PoisonItemError` instead.  The serial
  loop raises the same exception unchained.
* **No silent shortfall.**  Every submitted index must come back: a
  map that would return short raises ``RuntimeError`` naming the
  missing indices instead of handing back a shortened, misaligned list.

Worker-count resolution (:func:`resolve_workers`): an explicit argument
wins and is clamped to at least 1 (callers pass computed counts, e.g.
``len(items) // min_chunk``, that may legitimately reach 0); the
``REPRO_SWEEP_WORKERS`` environment variable is *validated* instead —
a value below 1 is a configuration error and raises ``ValueError``
loudly, consistent with the repository's refuse-loudly contract;
otherwise ``os.cpu_count()``.  A resolved count of 1 (or a single item)
runs the plain serial loop in-process — no pool, no pickling.

``fn`` and the items must be picklable (a module-level function or a
:func:`functools.partial` over one).  If ``fn`` itself cannot be
pickled, the runner falls back to the serial loop with a warning rather
than failing mid-pool — the result is identical either way, only slower.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

if TYPE_CHECKING:
    from .supervise import SupervisedPool

__all__ = [
    "ENV_WORKERS",
    "GridGroupReport",
    "GridMapReport",
    "SweepItemError",
    "grid_map",
    "resolve_workers",
    "sweep_map",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no explicit worker count is given.
ENV_WORKERS = "REPRO_SWEEP_WORKERS"


class SweepItemError(RuntimeError):
    """Names the sweep item whose worker raised.

    Attached as the ``__cause__`` of the re-raised worker exception, so
    ``except ZeroDivisionError`` still works while the traceback (and
    the server's error report) shows which submission index died.
    """

    def __init__(self, index: int, total: int, original: BaseException):
        super().__init__(
            f"sweep item {index} of {total} raised "
            f"{type(original).__name__}: {original}"
        )
        self.index = index
        self.total = total


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: argument > ``REPRO_SWEEP_WORKERS`` > auto.

    An explicit argument is clamped to at least 1 — callers pass
    computed counts (``len(items) // min_chunk``) that may legitimately
    be 0, meaning "serial".  The environment variable is validated
    instead: a non-integer or a value below 1 raises ``ValueError``,
    because a misconfigured environment should refuse loudly, not
    silently serialize every sweep.  ``workers=None`` with the variable
    unset falls back to ``os.cpu_count()``.
    """
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
            if workers < 1:
                raise ValueError(
                    f"{ENV_WORKERS} must be >= 1, got {workers}"
                )
            return workers
        return os.cpu_count() or 1
    return max(1, int(workers))


def sweep_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
    min_chunk: int = 1,
    pool: SupervisedPool | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Semantically identical to ``[fn(x) for x in items]`` for any worker
    count (see the module docstring for the determinism contract).  A
    failing item propagates to the caller as the serial loop would
    raise it; on a pool the exception comes chained from a
    :class:`SweepItemError` naming the lowest failing submission index.

    Args:
        fn: picklable single-argument callable.
        items: the sweep; materialized into a list up front.
        workers: process count; ``None`` resolves via
            :func:`resolve_workers` (to ``pool.workers`` when a pool is
            given).  1 means serial in-process.
        chunksize: items handed to a worker per dispatch.  Default
            splits the sweep into ~4 chunks per worker, which amortizes
            IPC without letting one straggler chunk dominate.
        min_chunk: smallest per-worker share worth a process dispatch.
            The worker count is reduced to ``len(items) // min_chunk``
            when the sweep is too small to give every worker that many
            items; a single remaining worker means the serial loop.
            Callers with ~millisecond items (the fuzz sweep) set this
            high enough that pool startup cannot exceed the work shipped.
        pool: an open :class:`repro.sim.supervise.SupervisedPool`
            (anything with ``workers`` / ``map(fn, items, chunksize)`` /
            ``close``) to dispatch through; its worker count caps
            ``workers``, and it is left open for the caller to reuse.
            ``None`` opens a ``SupervisedPool`` for this call and closes
            it before returning, killing its workers at once if the map
            raises (Ctrl-C included).
    """
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    items = list(items)
    if pool is not None and workers is None:
        workers = pool.workers
    n = min(resolve_workers(workers), len(items))
    if pool is not None:
        n = min(n, pool.workers)
    if n > 1:
        # Warn about unpicklable work whenever parallelism was even
        # plausible (before the min_chunk degrade), so callers learn
        # their fn cannot parallelize rather than silently never scaling.
        try:
            pickle.dumps(fn)
        except Exception:  # noqa: BLE001 - any unpicklable fn means no pool
            warnings.warn(
                f"sweep_map: {fn!r} is not picklable; running serially "
                "(use a module-level function or functools.partial to "
                "parallelize)",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]
    n = min(n, len(items) // min_chunk)
    if n <= 1:
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = -(-len(items) // (4 * n))
    if pool is not None:
        return pool.map(fn, items, chunksize)
    # Imported here: supervise imports from this module.
    from .supervise import SupervisedPool

    with SupervisedPool(n) as call_pool:
        return call_pool.map(fn, items, chunksize)


def _require_filled(out: list) -> list:
    """The grid invariant: every submitted point produced a result.

    An unfilled slot would silently *shorten and misalign* the
    submission-order result — downstream consumers (the server's batch
    coalescer maps results back to requests by position) would read the
    wrong point's value.  Refuse loudly instead.
    """
    missing = [i for i, pair in enumerate(out) if pair is None]
    if missing:
        raise RuntimeError(
            f"grid_map: {len(missing)} of {len(out)} grid point(s) were "
            f"never filled (indices {_shown(missing)}); this is a backend "
            "dispatch bug — no backend claimed these points"
        )
    return out


def _shown(indices: list) -> str:
    """The first 20 of ``indices`` for an error message, and how many
    more there are."""
    shown = ", ".join(map(str, indices[:20]))
    if len(indices) > 20:
        shown += f", ... ({len(indices) - 20} more)"
    return shown


@dataclass(frozen=True, slots=True)
class GridGroupReport:
    """How one ``P`` group of a :func:`grid_map` call was evaluated.

    ``path`` is ``"compiled"`` (one straight-line tape set),
    ``"compiled-folded"`` (rank equivalence classes, Θ(classes) tapes),
    ``"compiled-forked"`` (branch-split regions for a ``Now``-observing
    program), or ``"machine"`` (the group degraded to the event
    machine).  ``reason`` says why: for a machine degrade it carries
    the ``CompileError`` text verbatim, so callers (and the server's
    stats) can report *why* a sweep ran on the slow path, not merely
    that it did.

    The fold dimension: ``fold`` is ``"on"`` when the group evaluated
    by symmetry classes and ``"off"`` otherwise; ``classes`` is the
    equivalence-class count (0 when unfolded); ``fold_reason`` carries
    the ``FoldError`` text verbatim when folding was attempted under
    ``fold="auto"`` but the program's shape refused, or a note when
    individual points diverged back to the unfolded evaluator.

    ``stop_reason`` says why a compiled group stopped recording tapes
    (``GridResult.stop_reason``): ``"covered"`` when no point was left
    to record, ``"max_tapes"`` when the budget ran out, or ``"yield:
    N columns over the last W tapes"`` when the yield rule judged a
    further tape would not pay; its ``fallbacks`` then ran scalar.
    Empty for a machine group.
    """

    P: int
    n_points: int
    path: str
    reason: str = ""
    tapes: int = 0
    fallbacks: int = 0
    fold: str = "off"
    classes: int = 0
    fold_reason: str = ""
    stop_reason: str = ""


@dataclass(slots=True)
class GridMapReport:
    """Filled in by ``grid_map(..., report=...)``: the dispatch story.

    ``backend`` is the resolved backend; ``groups`` holds one
    :class:`GridGroupReport` per distinct ``P``, in first-appearance
    order.
    """

    backend: str = ""
    groups: list = None  # list[GridGroupReport]; None until filled

    def __post_init__(self):
        if self.groups is None:
            self.groups = []

    @property
    def degraded(self) -> list:
        """The groups that fell back to the event machine."""
        return [g for g in self.groups if g.path == "machine"]

    @property
    def folded(self) -> list:
        """The groups that evaluated by rank equivalence classes."""
        return [g for g in self.groups if g.fold == "on"]


def grid_map(
    programs,
    grid: Sequence,
    *,
    backend: str = "auto",
    fold: str = "auto",
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    fault_plan=None,
    heartbeat=None,
    max_events: int = 50_000_000,
    report: GridMapReport | None = None,
) -> list[tuple[float, float]]:
    """Evaluate one program family at every parameter point of ``grid``.

    Returns ``(makespan, total_stall_time)`` per point, in submission
    order, exactly what :func:`repro.sim.machine.run_programs` reports
    there — the backend changes cost, never values.  Every submitted
    point is guaranteed a result slot: an internal dispatch gap raises
    ``RuntimeError`` naming the unfilled indices rather than returning
    a shortened, misaligned list.

    Args:
        programs: program factory ``(rank, P) -> generator``, the
            machine's usual form.  Called per distinct ``P`` (compiled)
            or per point (machine).
        grid: ``LogPParams`` points; ``P`` may vary — points are grouped
            by ``P`` and each group compiles once.
        backend: ``"machine"``, ``"compiled"``, or ``"auto"`` (see
            :func:`repro.sim.compiled.resolve_backend`): ``auto`` uses
            the compiled fast path, raises ``ValueError`` on an
            ineligible timing configuration (contended or lossy
            fabrics, faults), and falls back to the machine only for
            programs that cannot be *lowered* at all.
        fold: ``"auto"``, ``"on"``, or ``"off"`` (see
            :func:`repro.sim.compiled.resolve_fold`): whether the
            compiled path collapses ranks into equivalence classes and
            evaluates Θ(classes) per point instead of Θ(P).  ``auto``
            folds when the timing configuration is class-invariant,
            the program's shape folds, and folding actually compresses
            (fewer classes than ranks) — a shape refusal degrades to
            the unfolded compiled path with the ``FoldError`` reason
            in the report's ``fold_reason``.  ``on`` raises instead:
            ``ValueError`` for an ineligible timing configuration,
            ``FoldError`` for an unfoldable program.  Results are
            bit-identical either way; only the cost changes.
        latency / fabric: timing configuration, shared across points.
            The compiled path lowers any seeded
            :class:`~repro.sim.latency.LatencyModel` (bare or in a
            ``LatencyFabric``) and the deterministic per-hop
            :class:`~repro.sim.net.TopologyFabric`; everything that
            resolves delivery from runtime load stays machine-only.
        fault_plan / heartbeat: fault injection and failure detection
            (see :mod:`repro.sim.faults`), shared across points.  Both
            are machine-only: ``backend="auto"`` or ``"compiled"``
            refuses them loudly, exactly like a lossy fabric.
        report: a :class:`GridMapReport` to fill with the per-``P``
            dispatch decisions (which path ran, and the ``CompileError``
            reason when a group degraded to the machine).
    """
    from .compiled import (
        CompileError,
        FoldError,
        TimingDependentError,
        compile_programs,
        evaluate_folded_grid,
        evaluate_forked,
        evaluate_grid,
        fold_program,
        resolve_backend,
        resolve_fold,
    )

    pts = list(grid)
    resolved = resolve_backend(
        backend,
        latency=latency,
        fabric=fabric,
        fault_plan=fault_plan,
        heartbeat=heartbeat,
    )
    want_fold = resolve_fold(
        fold, latency=latency, fabric=fabric, compute_jitter=compute_jitter
    )
    timing_fold_reason = ""
    if fold != "off" and want_fold == "off":
        from .compiled import fold_ineligibility

        timing_fold_reason = (
            fold_ineligibility(
                latency=latency, fabric=fabric, compute_jitter=compute_jitter
            )
            or ""
        )
    if resolved == "machine" and fold == "on":
        raise ValueError(
            "fold='on' requires the compiled backend; "
            f"backend={backend!r} resolved to the event machine"
        )
    if report is not None:
        report.backend = resolved
        report.groups = []
    out: list[tuple[float, float] | None] = [None] * len(pts)

    def _machine(indices: list[int]) -> None:
        from .machine import LogPMachine

        for i in indices:
            res = LogPMachine(
                pts[i],
                latency=latency,
                fabric=fabric,
                enforce_capacity=enforce_capacity,
                capacity=capacity,
                hw_barrier_cost=hw_barrier_cost,
                compute_jitter=compute_jitter,
                fault_plan=fault_plan,
                heartbeat=heartbeat,
                trace=False,
                max_events=max_events,
            ).run(programs)
            out[i] = (res.makespan, res.total_stall_time)

    def _note(**kw) -> None:
        if report is not None:
            report.groups.append(GridGroupReport(**kw))

    if resolved == "machine":
        _machine(list(range(len(pts))))
        if report is not None and pts:
            _note(
                P=pts[0].P, n_points=len(pts), path="machine",
                reason="backend='machine' requested",
            )
        return _require_filled(out)

    by_p: dict[int, list[int]] = {}
    for i, p in enumerate(pts):
        by_p.setdefault(p.P, []).append(i)
    for P, indices in by_p.items():
        group_pts = [pts[i] for i in indices]
        common = dict(
            latency=latency,
            fabric=fabric,
            enforce_capacity=enforce_capacity,
            capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        )
        try:
            prog = compile_programs(programs, P)
        except TimingDependentError:
            # The program observes Now: lower it per parameter point at
            # an assumed clock and branch-split across the grid.
            try:
                gr = evaluate_forked(programs, P, group_pts, **common)
            except CompileError as exc:
                if backend == "compiled":
                    raise
                _machine(indices)
                _note(
                    P=P, n_points=len(indices), path="machine",
                    reason=str(exc),
                )
                continue
            _note(
                P=P, n_points=len(indices), path="compiled-forked",
                tapes=gr.tapes, fallbacks=gr.fallbacks,
                stop_reason=gr.stop_reason,
            )
        except CompileError as exc:
            if backend == "compiled":
                raise
            # auto: the *program* cannot be lowered at this P — a
            # property of the schedule, not a configuration error.
            _machine(indices)
            _note(
                P=P, n_points=len(indices), path="machine",
                reason=str(exc),
            )
            continue
        else:
            gr = None
            unfold_reason = timing_fold_reason
            if want_fold == "on":
                try:
                    folded_prog = fold_program(prog)
                except FoldError as exc:
                    if fold == "on":
                        raise
                    # auto: the program's shape does not fold — a
                    # property of the schedule; run unfolded and say why.
                    unfold_reason = str(exc)
                else:
                    if fold == "auto" and folded_prog.n_classes >= P:
                        unfold_reason = (
                            f"no compression: {folded_prog.n_classes} "
                            f"classes for P={P}"
                        )
                    else:
                        gr = evaluate_folded_grid(
                            folded_prog, group_pts, **common
                        )
                        fold_reason = ""
                        div = gr.divergent
                        if div:
                            # Per-point fold refusals (capacity stalls
                            # at a recording reference): fill from the
                            # unfolded evaluator — bit-identical values,
                            # just the Θ(P) cost for those points.
                            sub = evaluate_grid(
                                prog,
                                [group_pts[j] for j in div],
                                **common,
                            )
                            for k, j in enumerate(div):
                                gr.makespans[j] = sub.makespans[k]
                                gr.total_stall_times[j] = (
                                    sub.total_stall_times[k]
                                )
                            fold_reason = (
                                f"{len(div)} point(s) diverged to the "
                                "unfolded evaluator"
                            )
                            div.clear()
                        _note(
                            P=P, n_points=len(indices),
                            path="compiled-folded",
                            tapes=gr.tapes, fallbacks=gr.fallbacks,
                            fold="on", classes=gr.classes,
                            fold_reason=fold_reason,
                            stop_reason=gr.stop_reason,
                        )
            if gr is None:
                gr = evaluate_grid(prog, group_pts, **common)
                _note(
                    P=P, n_points=len(indices), path="compiled",
                    tapes=gr.tapes, fallbacks=gr.fallbacks,
                    fold_reason=unfold_reason,
                    stop_reason=gr.stop_reason,
                )
        # zip, not indexing: a backend returning too few results leaves
        # holes for _require_filled to name instead of crashing here.
        divergent = set(gr.divergent)
        for j, (i, mk, st) in enumerate(
            zip(indices, gr.makespans, gr.total_stall_times)
        ):
            if j not in divergent:
                out[i] = (mk, st)
    return _require_filled(out)
