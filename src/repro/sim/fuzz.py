"""Differential fuzzing of the LogP machine simulator.

The stall/wakeup core of :mod:`repro.sim.machine` is the part of the
model a paper-reading cannot check by inspection — capacity back-pressure
interacts with send pacing, receive gaps, polling and barriers in ways
only exhaustive execution exposes.  This harness generates random
*well-formed* program families (every ``Recv`` has a matching ``Send``,
every processor reaches every barrier), runs each through the simulator
under the deterministic and the randomized latency models, and
cross-checks every run three ways:

1. **semantic validation** — :func:`~repro.sim.validate.validate_schedule`
   re-derives every model clause (overheads, gaps, latency bound, the
   ``ceil(L/g)`` capacity constraint) from the trace;
2. **differential execution** — the same case is run traced and
   untraced (identical makespans, message counts and stall totals) and
   twice under the same latency model (bit-identical determinism);
   deterministic cases additionally run through the network-fabric
   layer: a :class:`~repro.sim.net.LatencyFabric` over
   :class:`~repro.sim.latency.FixedLatency` must reproduce the bare
   machine's schedule *bit-identically* (the fabric refactor's
   no-regression witness), and a ring
   :class:`~repro.sim.net.ContentionFabric` calibrated to ``L`` must
   deliver the same messages and values under hop-consistent,
   semantically valid routing; finally — under *every* latency model,
   fixed and seeded-draw alike — the schedule is lowered by
   :mod:`repro.sim.compiled` and the engine-free compiled evaluator
   must reproduce the machine *bit-identically* — makespan, event
   counts, per-rank accounting, return values, and the full
   capacity-stall feed cross-checked through ``stall_report()`` — and
   so must both halves of the grid path: a two-point
   :func:`~repro.sim.compiled.evaluate_grid` at the case's parameters
   answers point 0 from the tape recording and point 1 from the
   vectorized replay;
3. **analytic cross-check** — for families with a closed form
   (single-pair streams, disjoint pairwise streams) the simulated
   makespan must equal the formulas in :mod:`repro.core.cost` exactly;
   families without a closed form (many-to-one floods) are checked
   against receiver-bandwidth lower bounds and a generous linear upper
   bound that turns livelock into a failure instead of a hang;
4. **chaos** — deterministic-latency cases are additionally re-run
   under a seeded processor fault plan with the heartbeat detector (and,
   on a third of the seeds, a lossy fabric): the run must terminate,
   deliver exactly-once, and keep its fault report consistent with the
   plan and the traced event feed (see :mod:`repro.sim.chaos`).

Payloads carry checksums, so message *data* integrity is verified along
with timing.  ``python -m repro.sim.fuzz --seeds 500`` runs a sweep from
the command line; the tier-1 test suite runs a fixed-seed smoke profile.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from ..core import cost
from ..core.params import LogPParams
from .latency import FixedLatency, JitteredLatency, LatencyModel, UniformLatency
from .machine import LogPMachine, MachineResult
from .net import ContentionFabric, Fabric, LatencyFabric
from .program import Barrier, Compute, Poll, Recv, Send, Sleep
from .sweep import resolve_workers, sweep_map
from .validate import validate_schedule

__all__ = [
    "FuzzCase",
    "CaseOutcome",
    "FuzzSummary",
    "FAMILIES",
    "FOLD_FAMILIES",
    "LATENCIES",
    "make_case",
    "make_fold_case",
    "run_case",
    "run_fold_case",
    "fuzz_sweep",
    "fold_fuzz_sweep",
]

FAMILIES = (
    "stream",
    "pairs",
    "flood",
    "barrier_rounds",
    "tagged",
    "poll_sleep",
    "mixed",
)

#: Broadcast-tree shapes exercised by the symmetry-folding fuzz
#: dimension (:func:`fold_fuzz_sweep`).
FOLD_FAMILIES = ("linear", "flat", "binomial", "optimal", "random")

#: Latency models exercised per case: name -> constructor(L, seed).
LATENCIES: dict[str, Callable[[float, int], LatencyModel]] = {
    "fixed": lambda L, seed: FixedLatency(L),
    "uniform": lambda L, seed: UniformLatency(L, lo_frac=0.25, seed=seed),
    "jittered": lambda L, seed: JitteredLatency(L, scale_frac=0.3, seed=seed),
}


@dataclass(frozen=True, slots=True)
class FuzzCase:
    """One generated program family instance."""

    seed: int
    family: str
    params: LogPParams
    factory: Callable[[int, int], Any]
    expected_messages: int
    #: Exact makespan under FixedLatency, when a closed form exists.
    closed_form: float | None
    #: Lower/upper makespan bounds under FixedLatency (always present).
    lower_bound: float
    upper_bound: float
    #: Expected per-rank program return values (None = don't check).
    expected_values: dict[int, Any]


@dataclass(slots=True)
class CaseOutcome:
    """Everything checked about one (case, latency-model) execution."""

    seed: int
    family: str
    latency: str
    makespan: float
    messages: int
    stalls: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(slots=True)
class FuzzSummary:
    """Aggregate of a sweep."""

    cases: int
    runs: int
    total_messages: int
    failures: list[str] = field(default_factory=list)
    by_family: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------

_EPS = 1e-9


def _draw_params(rng: np.random.Generator) -> LogPParams:
    """Random parameters on a 0.5-cycle grid (exact in binary floats),
    spanning o-dominated, g-dominated and latency-dominated regimes."""
    L = float(rng.integers(0, 33)) / 2.0
    o = float(rng.integers(0, 9)) / 2.0
    # g == 0 (infinite bandwidth / unbounded capacity) is a legal corner;
    # include it occasionally, otherwise keep capacity finite.
    g = 0.0 if rng.random() < 0.08 else float(rng.integers(1, 13)) / 2.0
    P = int(rng.integers(2, 7))
    return LogPParams(L=L, o=o, g=g, P=P)


def _checksum(src: int, i: int) -> int:
    return src * 10_000 + i


def make_case(seed: int) -> FuzzCase:
    """Generate the deterministic fuzz case for ``seed``."""
    rng = np.random.default_rng(seed)
    family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
    p = _draw_params(rng)
    builder = _BUILDERS[family]
    return builder(seed, p, rng)


def _lin_bound(p: LogPParams, n_msgs: int) -> float:
    """Generous linear makespan bound: any run beyond this is a livelock
    (or a quadratic-blowup bug), not legitimate LogP scheduling."""
    per = p.L + 2 * p.o + p.send_interval + 1.0
    return 2.0 * (n_msgs + p.P) * per + 10.0


def _build_stream(seed: int, p: LogPParams, rng) -> FuzzCase:
    """Single-pair pipelined stream: the paper's closed-form schedule."""
    k = int(rng.integers(1, 12))
    src, dst = 0, 1

    def factory(rank: int, P: int):
        if rank == src:
            for i in range(k):
                yield Send(dst, payload=_checksum(rank, i))
            return None
        if rank == dst:
            total = 0
            for _ in range(k):
                m = yield Recv()
                total += m.payload
            return total
        return None
        yield

    expect = sum(_checksum(src, i) for i in range(k))
    exact = cost.pipelined_stream_exact(p, k)
    return FuzzCase(
        seed=seed,
        family="stream",
        params=p,
        factory=factory,
        expected_messages=k,
        closed_form=exact,
        lower_bound=exact,
        upper_bound=_lin_bound(p, k),
        expected_values={dst: expect},
    )


def _build_pairs(seed: int, p: LogPParams, rng) -> FuzzCase:
    """Disjoint one-directional streams 0->1, 2->3, ...: independent
    pairs share the closed form of the slowest stream."""
    n_pairs = p.P // 2
    ks = [int(rng.integers(1, 10)) for _ in range(n_pairs)]

    def factory(rank: int, P: int):
        pair = rank // 2
        if pair < n_pairs and rank % 2 == 0:
            for i in range(ks[pair]):
                yield Send(rank + 1, payload=_checksum(rank, i))
            return None
        if pair < n_pairs and rank % 2 == 1:
            total = 0
            for _ in range(ks[pair]):
                m = yield Recv()
                total += m.payload
            return total
        return None
        yield

    expected_values = {
        2 * i + 1: sum(_checksum(2 * i, j) for j in range(ks[i]))
        for i in range(n_pairs)
    }
    exact = max(cost.pipelined_stream_exact(p, k) for k in ks)
    total = sum(ks)
    return FuzzCase(
        seed=seed,
        family="pairs",
        params=p,
        factory=factory,
        expected_messages=total,
        closed_form=exact,
        lower_bound=exact,
        upper_bound=_lin_bound(p, total),
        expected_values=expected_values,
    )


def _build_flood(seed: int, p: LogPParams, rng) -> FuzzCase:
    """Many-to-one hot spot: the Section 4.1.2 stall regime.  No closed
    form (capacity dynamics), but the receiver drains at most one message
    per ``g``, which bounds the makespan from below."""
    k = int(rng.integers(1, 8))
    senders = list(range(1, p.P))
    n = k * len(senders)

    def factory(rank: int, P: int):
        if rank == 0:
            total = 0
            for _ in range(n):
                m = yield Recv()
                total += m.payload
            return total
        for i in range(k):
            yield Send(0, payload=_checksum(rank, i))
        return None

    expect = sum(_checksum(s, i) for s in senders for i in range(k))
    # First reception cannot start before o + L; the rest are paced >= g.
    lower = p.o + p.L + (n - 1) * p.g + p.o
    return FuzzCase(
        seed=seed,
        family="flood",
        params=p,
        factory=factory,
        expected_messages=n,
        closed_form=None,
        lower_bound=lower,
        upper_bound=_lin_bound(p, n),
        expected_values={0: expect},
    )


def _round_plan(
    rng, P: int, n_msgs: int, *, hotspot: float = 0.3, tags: bool = False
) -> list[tuple[int, int, Any]]:
    """A random message plan: list of (src, dst, tag).  ``hotspot``
    biases destinations toward rank 0 to exercise capacity stalls."""
    plan = []
    for i in range(n_msgs):
        src = int(rng.integers(0, P))
        if rng.random() < hotspot:
            dst = 0 if src != 0 else 1
        else:
            dst = int(rng.integers(0, P - 1))
            if dst >= src:
                dst += 1
        tag = f"t{i}" if tags else None
        plan.append((src, dst, tag))
    return plan


def _rounds_factory(
    rounds: list[list[tuple[int, int, Any]]],
    rng_seed: int,
    *,
    barrier: bool,
    tagged: bool,
    spice: bool,
):
    """Build a program factory from per-round message plans.

    Deadlock-freedom by construction: within a round every processor
    performs all its sends before any receive, receive counts equal the
    messages addressed to it, and rounds are separated by barriers (when
    enabled) that every processor reaches.
    """

    def factory(rank: int, P: int):
        rng = np.random.default_rng((rng_seed, rank))
        seq = 0
        for rnd in rounds:
            outgoing = [(d, t) for (s, d, t) in rnd if s == rank]
            incoming = [(s, t) for (s, d, t) in rnd if d == rank]
            for dst, tag in outgoing:
                if spice and rng.random() < 0.3:
                    yield Compute(float(rng.integers(0, 7)))
                if spice and rng.random() < 0.15:
                    yield Poll()
                yield Send(dst, payload=_checksum(rank, seq), tag=tag)
                seq += 1
            if spice and rng.random() < 0.3:
                yield Sleep(float(rng.integers(0, 9)))
            if tagged:
                order = list(range(len(incoming)))
                rng.shuffle(order)
                for i in order:
                    m = yield Recv(tag=incoming[i][1])
                    assert m.tag == incoming[i][1], "tag mismatch"
            else:
                for _ in incoming:
                    yield Recv()
            if barrier:
                yield Barrier()
        return None
        yield

    return factory


def _build_rounds_case(
    seed: int,
    family: str,
    p: LogPParams,
    rng,
    *,
    barrier: bool,
    tagged: bool,
    spice: bool,
) -> FuzzCase:
    n_rounds = int(rng.integers(1, 4))
    rounds = [
        _round_plan(rng, p.P, int(rng.integers(1, 9)), tags=tagged)
        for _ in range(n_rounds)
    ]
    total = sum(len(r) for r in rounds)
    factory = _rounds_factory(
        rounds, seed, barrier=barrier, tagged=tagged, spice=spice
    )
    return FuzzCase(
        seed=seed,
        family=family,
        params=p,
        factory=factory,
        expected_messages=total,
        closed_form=None,
        lower_bound=0.0,
        upper_bound=_lin_bound(p, total) * max(1, n_rounds),
        expected_values={},
    )


def _build_barrier_rounds(seed: int, p: LogPParams, rng) -> FuzzCase:
    return _build_rounds_case(
        seed, "barrier_rounds", p, rng, barrier=True, tagged=False, spice=False
    )


def _build_tagged(seed: int, p: LogPParams, rng) -> FuzzCase:
    return _build_rounds_case(
        seed, "tagged", p, rng, barrier=True, tagged=True, spice=False
    )


def _build_mixed(seed: int, p: LogPParams, rng) -> FuzzCase:
    return _build_rounds_case(
        seed, "mixed", p, rng, barrier=bool(rng.integers(0, 2)),
        tagged=False, spice=True,
    )


def _build_poll_sleep(seed: int, p: LogPParams, rng) -> FuzzCase:
    """Senders stream to one receiver that alternates Sleep/Poll, then
    collects everything with Recv — the active-message discipline."""
    k = int(rng.integers(1, 6))
    senders = list(range(1, p.P))
    n = k * len(senders)
    naps = [float(rng.integers(1, 9)) for _ in range(4)]

    def factory(rank: int, P: int):
        if rank == 0:
            for nap in naps:
                yield Sleep(nap)
                yield Poll()
            total = 0
            for _ in range(n):
                m = yield Recv()
                total += m.payload
            return total
        for i in range(k):
            yield Send(0, payload=_checksum(rank, i))
        return None

    expect = sum(_checksum(s, i) for s in senders for i in range(k))
    return FuzzCase(
        seed=seed,
        family="poll_sleep",
        params=p,
        factory=factory,
        expected_messages=n,
        closed_form=None,
        lower_bound=p.o + (n - 1) * p.g + p.o,
        upper_bound=_lin_bound(p, n) + sum(naps),
        expected_values={0: expect},
    )


_BUILDERS: dict[str, Callable[..., FuzzCase]] = {
    "stream": _build_stream,
    "pairs": _build_pairs,
    "flood": _build_flood,
    "barrier_rounds": _build_barrier_rounds,
    "tagged": _build_tagged,
    "poll_sleep": _build_poll_sleep,
    "mixed": _build_mixed,
}


# ----------------------------------------------------------------------
# Execution + differential checks
# ----------------------------------------------------------------------


def _run_machine(
    case: FuzzCase,
    latency: LatencyModel | None,
    *,
    trace: bool,
    fabric: Fabric | None = None,
) -> MachineResult:
    machine = LogPMachine(
        case.params,
        latency=latency,
        fabric=fabric,
        trace=trace,
        max_events=2_000_000,
    )
    return machine.run(case.factory)


def run_case(case: FuzzCase, latency_name: str = "fixed") -> CaseOutcome:
    """Execute one case under one latency model and run every check."""
    where = f"seed={case.seed} family={case.family} {case.params} [{latency_name}]"
    make_latency = LATENCIES[latency_name]
    fixed = latency_name == "fixed"
    out = CaseOutcome(
        seed=case.seed,
        family=case.family,
        latency=latency_name,
        makespan=0.0,
        messages=0,
        stalls=0,
    )

    try:
        res = _run_machine(case, make_latency(case.params.L, case.seed), trace=True)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        out.failures.append(f"{where}: traced run crashed: {exc!r}")
        return out
    out.makespan = res.makespan
    out.messages = res.total_messages
    report = res.stall_report()
    out.stalls = report.stalls
    if not report.ok:
        out.failures.append(
            f"{where}: unresolved stall episodes for senders "
            f"{report.unresolved}"
        )

    # 1. Semantic validation of the trace.
    val = validate_schedule(res.schedule, exact_latency=fixed)
    for v in val.violations:
        out.failures.append(f"{where}: {v}")

    # 2a. Message accounting + payload checksums.
    if res.total_messages != case.expected_messages:
        out.failures.append(
            f"{where}: {res.total_messages} messages, "
            f"expected {case.expected_messages}"
        )
    for rank, expect in case.expected_values.items():
        got = res.value(rank)
        if got != expect:
            out.failures.append(
                f"{where}: P{rank} returned {got!r}, expected {expect!r}"
            )

    # 2b. Untraced differential: identical makespan and totals.
    try:
        bare = _run_machine(
            case, make_latency(case.params.L, case.seed), trace=False
        )
    except Exception as exc:  # noqa: BLE001
        out.failures.append(f"{where}: untraced run crashed: {exc!r}")
        return out
    if abs(bare.makespan - res.makespan) > _EPS:
        out.failures.append(
            f"{where}: untraced makespan {bare.makespan} != traced "
            f"{res.makespan}"
        )
    if bare.total_messages != res.total_messages:
        out.failures.append(
            f"{where}: untraced message count {bare.total_messages} != "
            f"traced {res.total_messages}"
        )
    if abs(bare.total_stall_time - res.total_stall_time) > _EPS:
        out.failures.append(
            f"{where}: untraced stall time {bare.total_stall_time} != "
            f"traced {res.total_stall_time}"
        )

    # 2c. Determinism: a rerun under the same (reset) model is identical.
    rerun = _run_machine(
        case, make_latency(case.params.L, case.seed), trace=False
    )
    if abs(rerun.makespan - res.makespan) > _EPS:
        out.failures.append(
            f"{where}: rerun makespan {rerun.makespan} != {res.makespan} "
            "(nondeterminism)"
        )

    # 3. Analytic cross-checks (deterministic latency only).
    if fixed and case.closed_form is not None:
        if abs(res.makespan - case.closed_form) > _EPS:
            out.failures.append(
                f"{where}: makespan {res.makespan} != closed form "
                f"{case.closed_form}"
            )
    if fixed and res.makespan < case.lower_bound - _EPS:
        out.failures.append(
            f"{where}: makespan {res.makespan} below analytic lower bound "
            f"{case.lower_bound}"
        )
    if res.makespan > case.upper_bound + _EPS:
        out.failures.append(
            f"{where}: makespan {res.makespan} exceeds linear bound "
            f"{case.upper_bound} (livelock?)"
        )

    # 4. Fabric differentials (deterministic latency only: randomized
    # models draw per-message, so schedules are only comparable when the
    # flight times are a constant).
    if fixed:
        out.failures.extend(_check_fabrics(case, res, where))

    # 5. Compiled-evaluator differential: the engine-free fast path must
    # be *bit-identical* to the machine — under the fixed model and the
    # seeded draw models alike (the evaluator consumes the same reset
    # draw stream at the same injections).
    out.failures.extend(
        _check_compiled(
            case,
            res,
            where,
            make_latency=(
                (lambda: None)
                if fixed
                else partial(make_latency, case.params.L, case.seed)
            ),
        )
    )

    # 6. Chaos: the same case under a seeded processor fault plan (and,
    # on a third of the seeds, a lossy fabric) must terminate, deliver
    # exactly-once, and keep its fault report consistent with the plan
    # and the traced event feed.  Lazy import: chaos imports this module.
    if fixed:
        from .chaos import check_case_under_faults

        out.failures.extend(check_case_under_faults(case, where))
    return out


def _schedules_identical(a, b) -> list[str]:
    """Exact (zero-tolerance) schedule comparison, as difference strings."""
    diffs: list[str] = []
    if a.messages != b.messages:
        diffs.append(
            f"message records differ ({len(a.messages)} vs "
            f"{len(b.messages)} records)"
        )
    ranks = set(a.timelines) | set(b.timelines)
    for rank in sorted(ranks):
        ta = a.timelines.get(rank)
        tb = b.timelines.get(rank)
        ia = ta.intervals if ta is not None else []
        ib = tb.intervals if tb is not None else []
        if ia != ib:
            diffs.append(f"P{rank} intervals differ")
    return diffs


def _check_fabrics(
    case: FuzzCase, res: MachineResult, where: str
) -> list[str]:
    """Run the case through the fabric layer and diff against ``res``."""
    failures: list[str] = []
    p = case.params

    # 4a. LatencyFabric over FixedLatency: bit-identical to the bare
    # machine — same makespan, same stalls, same schedule, exactly.
    try:
        wrapped = _run_machine(
            case, None, trace=True, fabric=LatencyFabric(FixedLatency(p.L))
        )
    except Exception as exc:  # noqa: BLE001
        failures.append(f"{where}: LatencyFabric run crashed: {exc!r}")
        return failures
    if wrapped.makespan != res.makespan:
        failures.append(
            f"{where}: LatencyFabric makespan {wrapped.makespan} != bare "
            f"{res.makespan} (must be bit-identical)"
        )
    if wrapped.total_messages != res.total_messages:
        failures.append(
            f"{where}: LatencyFabric message count "
            f"{wrapped.total_messages} != bare {res.total_messages}"
        )
    if wrapped.total_stall_time != res.total_stall_time:
        failures.append(
            f"{where}: LatencyFabric stall time {wrapped.total_stall_time} "
            f"!= bare {res.total_stall_time} (must be bit-identical)"
        )
    for diff in _schedules_identical(res.schedule, wrapped.schedule):
        failures.append(f"{where}: LatencyFabric schedule: {diff}")

    # 4b. Ring ContentionFabric calibrated to L: routed flights are
    # distance-dependent (so no schedule diff), but delivery must be
    # hop-consistent, semantically valid, and carry the same messages to
    # the same values.
    fab = ContentionFabric.ring(p.P, L=p.L)
    try:
        routed = _run_machine(case, None, trace=True, fabric=fab)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"{where}: ContentionFabric run crashed: {exc!r}")
        return failures
    val = validate_schedule(routed.schedule, fabric=fab)
    for v in val.violations:
        failures.append(f"{where} [ring-fabric]: {v}")
    if routed.total_messages != case.expected_messages:
        failures.append(
            f"{where}: ContentionFabric delivered {routed.total_messages} "
            f"messages, expected {case.expected_messages}"
        )
    for rank, expect in case.expected_values.items():
        got = routed.value(rank)
        if got != expect:
            failures.append(
                f"{where}: ContentionFabric P{rank} returned {got!r}, "
                f"expected {expect!r}"
            )
    if not routed.stall_report().ok:
        failures.append(
            f"{where}: ContentionFabric left unresolved stall episodes"
        )
    # Trace gating must not change semantics: the untraced routed run
    # (no link accounting, no queue-watch events) is bit-identical.
    bare = _run_machine(case, None, trace=False, fabric=fab)
    if bare.makespan != routed.makespan:
        failures.append(
            f"{where}: untraced ContentionFabric makespan {bare.makespan} "
            f"!= traced {routed.makespan}"
        )
    if bare.total_stall_time != routed.total_stall_time:
        failures.append(
            f"{where}: untraced ContentionFabric stall time "
            f"{bare.total_stall_time} != traced {routed.total_stall_time}"
        )
    return failures


def _check_compiled(
    case: FuzzCase,
    res: MachineResult,
    where: str,
    *,
    make_latency: Callable[[], LatencyModel | None] = lambda: None,
) -> list[str]:
    """Diff the compiled evaluator and grid path against the machine run.

    Everything is compared with ``==`` — bit-identity, no tolerance:
    makespan, message/event counts, per-rank accounting, program return
    values, the raw stall/wakeup event feed, and the condensed
    ``stall_report()`` the feed folds into.  ``make_latency`` builds a
    fresh same-seed model (``None`` for the fixed model) for each
    evaluation; the evaluators reset it and must consume the identical
    stream.  The grid check evaluates the case's point twice: point 0
    comes from the tape recording, point 1 from the vectorized replay.
    """
    from .compiled import CompileError, compile_programs, evaluate, evaluate_grid

    failures: list[str] = []
    try:
        prog = compile_programs(case.factory, case.params.P)
    except CompileError as exc:
        # Every fuzz family is deterministic by construction (no Now,
        # no deadlock), so failing to lower one is itself a finding.
        failures.append(f"{where}: schedule failed to compile: {exc}")
        return failures
    try:
        comp = evaluate(
            prog,
            case.params,
            latency=make_latency(),
            collect_stalls=True,
            max_events=2_000_000,
        )
        grid = evaluate_grid(
            prog,
            [case.params, case.params],
            latency=make_latency(),
            max_events=2_000_000,
        )
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        failures.append(f"{where}: compiled evaluation crashed: {exc!r}")
        return failures
    if (grid.tapes, grid.fallbacks) != (1, 0):
        failures.append(
            f"{where}: grid replay did not cover its own reference point "
            f"({grid.tapes} tapes, {grid.fallbacks} scalar fallbacks)"
        )
    want = (res.makespan, res.total_stall_time)
    for i, half in enumerate(("tape recording", "vectorized replay")):
        got = (grid.makespans[i], grid.total_stall_times[i])
        if got != want:
            failures.append(
                f"{where}: grid {half} (makespan, stall) {got} != machine "
                f"{want} (must be bit-identical)"
            )
    if comp.makespan != res.makespan:
        failures.append(
            f"{where}: compiled makespan {comp.makespan} != machine "
            f"{res.makespan} (must be bit-identical)"
        )
    if comp.total_messages != res.total_messages:
        failures.append(
            f"{where}: compiled message count {comp.total_messages} != "
            f"machine {res.total_messages}"
        )
    if comp.total_stall_time != res.total_stall_time:
        failures.append(
            f"{where}: compiled stall time {comp.total_stall_time} != "
            f"machine {res.total_stall_time} (must be bit-identical)"
        )
    if comp.events_run != res.events_run:
        failures.append(
            f"{where}: compiled ran {comp.events_run} events, machine "
            f"ran {res.events_run}"
        )
    for rank in range(case.params.P):
        got, want = comp.values[rank], res.value(rank)
        if got != want:
            failures.append(
                f"{where}: compiled P{rank} returned {got!r}, machine "
                f"returned {want!r}"
            )
    if comp.stall_events != res.stall_events:
        failures.append(
            f"{where}: compiled stall/wakeup feed differs from the "
            f"machine's ({len(comp.stall_events)} vs "
            f"{len(res.stall_events)} events)"
        )
    if comp.stall_report() != res.stall_report():
        failures.append(
            f"{where}: compiled stall_report() differs from the "
            "machine's"
        )
    return failures


def _sweep_seed(
    seed: int, latencies: tuple[str, ...]
) -> tuple[str, list[CaseOutcome]]:
    """Per-seed work unit for the parallel sweep: regenerate the case
    (program factories are generators and cannot cross a process
    boundary — only the seed does) and run it under every latency
    model.  Module-level so it pickles."""
    case = make_case(int(seed))
    return case.family, [run_case(case, name) for name in latencies]


# ----------------------------------------------------------------------
# Symmetry-folding fuzz dimension: random broadcast trees, three ways
# ----------------------------------------------------------------------


def _fold_children(family: str, P: int, rng) -> list:
    """Children lists for one fold-fuzz tree family at ``P`` ranks."""
    from ..algorithms.broadcast import (
        binomial_tree,
        flat_tree,
        linear_tree,
    )

    if family == "linear":
        return linear_tree(P)
    if family == "flat":
        return flat_tree(P)
    if family == "binomial":
        return binomial_tree(P)
    if family == "random":
        children: list = [[] for _ in range(P)]
        for i in range(1, P):
            children[int(rng.integers(0, i))].append(i)
        return children
    raise ValueError(f"unknown fold family {family!r}")


def make_fold_case(seed: int) -> FuzzCase:
    """Generate the deterministic fold-fuzz case for ``seed``.

    A broadcast over a random tree shape (:data:`FOLD_FAMILIES`) at a
    larger ``P`` than the main fuzz draw (folding is about many ranks),
    on the same 0.5-cycle dyadic parameter grid the folded evaluator's
    exactness guard requires.
    """
    rng = np.random.default_rng([int(seed), 0xF01D])
    family = FOLD_FAMILIES[int(rng.integers(0, len(FOLD_FAMILIES)))]
    base = _draw_params(rng)
    P = int(rng.integers(2, 65))
    p = LogPParams(L=base.L, o=base.o, g=base.g, P=P)
    if family == "optimal":
        from ..algorithms.broadcast import optimal_broadcast_tree

        children = optimal_broadcast_tree(p).children
    else:
        children = _fold_children(family, P, rng)
    payload = _checksum(0, seed)

    def factory(rank: int, P_: int):
        from .collectives import tree_broadcast

        return tree_broadcast(
            rank, P_, payload if rank == 0 else None, children, root=0
        )

    return FuzzCase(
        seed=seed,
        family=family,
        params=p,
        factory=factory,
        expected_messages=P - 1,
        closed_form=None,
        lower_bound=0.0,
        upper_bound=_lin_bound(p, P - 1),
        expected_values={r: payload for r in range(P)},
    )


def run_fold_case(case: FuzzCase, latency_name: str = "fixed") -> CaseOutcome:
    """One fold-fuzz case under one latency model: three-way differential.

    The machine is the semantics; the unfolded compiled evaluator must
    match it bit-identically; the folded path must match *both* —
    aggregates and every expanded per-rank view — whenever the timing
    configuration and the schedule fold.  Under the seeded draw models
    folding is ineligible by design (draws are consumed in event order);
    the check there is that ``fold="auto"`` degrades to the unfolded
    compiled path *with the ineligibility reason recorded* and values
    unchanged.
    """
    from .compiled import (
        CompileError,
        FoldError,
        compile_programs,
        evaluate,
        evaluate_folded,
        fold_program,
        resolve_fold,
    )
    from .sweep import GridMapReport, grid_map

    where = (
        f"fold seed={case.seed} family={case.family} {case.params} "
        f"[{latency_name}]"
    )
    make_latency = LATENCIES[latency_name]
    fixed = latency_name == "fixed"
    out = CaseOutcome(
        seed=case.seed,
        family=case.family,
        latency=latency_name,
        makespan=0.0,
        messages=0,
        stalls=0,
    )

    try:
        res = _run_machine(
            case, make_latency(case.params.L, case.seed), trace=False
        )
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        out.failures.append(f"{where}: machine run crashed: {exc!r}")
        return out
    out.makespan = res.makespan
    out.messages = res.total_messages
    for rank, expect in case.expected_values.items():
        if res.value(rank) != expect:
            out.failures.append(
                f"{where}: machine P{rank} returned {res.value(rank)!r}, "
                f"expected {expect!r}"
            )

    eval_latency = None if fixed else make_latency(case.params.L, case.seed)
    try:
        prog = compile_programs(case.factory, case.params.P)
        comp = evaluate(prog, case.params, latency=eval_latency)
    except CompileError as exc:
        out.failures.append(f"{where}: schedule failed to compile: {exc}")
        return out
    if comp.makespan != res.makespan:
        out.failures.append(
            f"{where}: compiled makespan {comp.makespan} != machine "
            f"{res.makespan}"
        )
    if comp.total_stall_time != res.total_stall_time:
        out.failures.append(
            f"{where}: compiled stall time {comp.total_stall_time} != "
            f"machine {res.total_stall_time}"
        )

    mode = resolve_fold("auto", latency=eval_latency)
    if mode == "on":
        try:
            folded = fold_program(prog)
        except FoldError as exc:
            out.failures.append(
                f"{where}: broadcast tree failed to fold: {exc}"
            )
            return out
        try:
            fr = evaluate_folded(folded, case.params)
        except FoldError:
            # A per-point refusal (capacity stall at this point) is
            # legitimate — the auto path covers it with the unfolded
            # evaluator, checked through grid_map below.
            fr = None
        if fr is not None:
            if fr.makespan != res.makespan:
                out.failures.append(
                    f"{where}: folded makespan {fr.makespan} != machine "
                    f"{res.makespan}"
                )
            if fr.total_stall_time != res.total_stall_time:
                out.failures.append(
                    f"{where}: folded stall time {fr.total_stall_time} "
                    f"!= machine {res.total_stall_time}"
                )
            if fr.total_messages != res.total_messages:
                out.failures.append(
                    f"{where}: folded message count {fr.total_messages} "
                    f"!= machine {res.total_messages}"
                )
            for rank in range(case.params.P):
                if fr.finished_at(rank) != comp.finished_at[rank]:
                    out.failures.append(
                        f"{where}: folded P{rank} finished at "
                        f"{fr.finished_at(rank)}, compiled at "
                        f"{comp.finished_at[rank]}"
                    )
                    break
            for rank, expect in case.expected_values.items():
                if fr.value(rank) != expect:
                    out.failures.append(
                        f"{where}: folded P{rank} returned "
                        f"{fr.value(rank)!r}, expected {expect!r}"
                    )
                    break
    elif fixed:  # pragma: no cover - fixed latency is always eligible
        out.failures.append(
            f"{where}: fold='auto' refused a fixed-latency configuration"
        )

    # Dispatch-layer differential: grid_map(fold="auto") must return
    # the machine's numbers and report the fold decision truthfully.
    report = GridMapReport()
    got = grid_map(
        case.factory,
        [case.params],
        fold="auto",
        latency=None if fixed else make_latency(case.params.L, case.seed),
        report=report,
    )
    if got[0] != (res.makespan, res.total_stall_time):
        out.failures.append(
            f"{where}: grid_map(fold='auto') returned {got[0]}, machine "
            f"says {(res.makespan, res.total_stall_time)}"
        )
    group = report.groups[0]
    if not fixed:
        if group.fold != "off":
            out.failures.append(
                f"{where}: seeded-draw group reported fold={group.fold!r}"
            )
        if not group.fold_reason:
            out.failures.append(
                f"{where}: seeded-draw fallback recorded no fold_reason"
            )
    return out


def _fold_sweep_seed(
    seed: int, latencies: tuple[str, ...]
) -> tuple[str, list[CaseOutcome]]:
    """Per-seed fold-fuzz work unit; module-level so it pickles."""
    case = make_fold_case(int(seed))
    return case.family, [run_fold_case(case, name) for name in latencies]


def fold_fuzz_sweep(
    seeds: "range | list[int]",
    latencies: tuple[str, ...] = ("fixed", "uniform", "jittered"),
    *,
    max_failures: int = 50,
    workers: int | None = None,
    min_chunk: int | None = None,
) -> FuzzSummary:
    """Differential sweep of the symmetry-folding dimension.

    Every (seed, latency model) pair runs :func:`run_fold_case`; the
    accounting and determinism contract match :func:`fuzz_sweep`.
    """
    summary = FuzzSummary(cases=0, runs=0, total_messages=0)
    per_seed = sweep_map(
        partial(_fold_sweep_seed, latencies=tuple(latencies)),
        [int(s) for s in seeds],
        workers=workers,
        min_chunk=MIN_SEEDS_PER_WORKER if min_chunk is None else min_chunk,
    )
    for family, outcomes in per_seed:
        summary.cases += 1
        summary.by_family[family] = summary.by_family.get(family, 0) + 1
        for out in outcomes:
            summary.runs += 1
            summary.total_messages += out.messages
            summary.failures.extend(out.failures)
            if len(summary.failures) >= max_failures:
                return summary
    return summary


#: Smallest per-worker share of a fuzz sweep worth a process dispatch.
#: One seed costs a few milliseconds; below ~this many seeds per worker,
#: pool startup and per-task IPC exceed the work shipped and sweep_map
#: degrades to the (bit-identical) serial loop instead.
MIN_SEEDS_PER_WORKER = 48


def fuzz_sweep(
    seeds: "range | list[int]",
    latencies: tuple[str, ...] = ("fixed", "uniform", "jittered"),
    *,
    max_failures: int = 50,
    workers: int | None = None,
    min_chunk: int = MIN_SEEDS_PER_WORKER,
) -> FuzzSummary:
    """Run a seeded sweep; every (seed, latency model) pair is one run.

    ``workers`` fans the per-seed work out over a process pool via
    :func:`repro.sim.sweep.sweep_map` (``None`` honours the
    ``REPRO_SWEEP_WORKERS`` environment variable).  The summary is
    *identical* to the serial sweep's for any worker count: outcomes are
    folded in seed submission order with the same accounting, including
    the ``max_failures`` early exit — a parallel sweep may merely
    compute results past the cut that the fold then discards.
    ``min_chunk`` (seeds per worker; see :func:`sweep_map`) keeps small
    sweeps serial where a pool could only add overhead.
    """
    summary = FuzzSummary(cases=0, runs=0, total_messages=0)
    seed_list = [int(s) for s in seeds]
    latencies = tuple(latencies)

    def fold(family: str, outcomes: "list[CaseOutcome]") -> bool:
        """Accumulate one seed's outcomes; True means keep sweeping."""
        summary.cases += 1
        summary.by_family[family] = summary.by_family.get(family, 0) + 1
        for out in outcomes:
            summary.runs += 1
            summary.total_messages += out.messages
            summary.failures.extend(out.failures)
            if len(summary.failures) >= max_failures:
                return False
        return True

    if resolve_workers(workers) <= 1:
        # Lazy serial loop: stop generating work at the failure cap.
        for seed in seed_list:
            case = make_case(seed)
            outcomes = []
            stop = False
            for name in latencies:
                outcomes.append(run_case(case, name))
                if len(summary.failures) + sum(
                    len(o.failures) for o in outcomes
                ) >= max_failures:
                    stop = True
                    break
            if not fold(case.family, outcomes) or stop:
                return summary
        return summary

    per_seed = sweep_map(
        partial(_sweep_seed, latencies=latencies),
        seed_list,
        workers=workers,
        min_chunk=min_chunk,
    )
    for family, outcomes in per_seed:
        if not fold(family, outcomes):
            return summary
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=500)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument(
        "--latencies", nargs="+", default=list(LATENCIES), choices=list(LATENCIES)
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for the sweep (default: REPRO_SWEEP_WORKERS "
        "env var, then cpu count; 1 = serial)",
    )
    parser.add_argument(
        "--fold",
        action="store_true",
        help="run the symmetry-folding dimension (random broadcast "
        "trees, folded == unfolded == machine) instead of the main "
        "program families",
    )
    args = parser.parse_args(argv)
    sweep = fold_fuzz_sweep if args.fold else fuzz_sweep
    summary = sweep(
        range(args.start, args.start + args.seeds),
        tuple(args.latencies),
        workers=args.workers,
    )
    print(
        f"{summary.cases} cases x {len(args.latencies)} latency models = "
        f"{summary.runs} runs, {summary.total_messages} messages"
    )
    print(f"families: {summary.by_family}")
    if summary.ok:
        print("OK — zero violations")
        return 0
    print(f"{len(summary.failures)} FAILURES:")
    for f in summary.failures[:20]:
        print(" ", f)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
