"""Chaos harness: the fuzz families under randomized processor + link faults.

The differential fuzzer (:mod:`repro.sim.fuzz`) proves the machine
correct on *fault-free* runs; this module is the complementary
robustness sweep.  Each fuzz case is re-run with a seeded
:func:`~repro.sim.faults.random_fault_plan` (crash-stop, crash-recover
and slowdown events), an always-on heartbeat failure detector, and — on
a third of the seeds — a :class:`~repro.sim.net.FaultyFabric` injecting
link drops/duplicates/delays on top of the node faults.  The programs
themselves are *not* fault-tolerant; the harness checks the **machine's
fault semantics**, not protocol liveness:

1. **termination** — the run returns (no hang, no crash) and its
   makespan stays under a generous structural bound: wedged survivors
   park with no pending events and the detector stops at its horizon,
   so the event queue must drain.
2. **exactly-once** — ``duplicate_deliveries == 0``: no sequence number
   ever completes reception at a program twice, even when the lossy
   fabric manufactures duplicate copies and crash-recovered incarnations
   re-execute their sends.
3. **fault-report / trace consistency** — the condensed
   :class:`~repro.sim.trace.FaultReport` must agree exactly with the
   plan (every crash and recovery appears once, at its scheduled time)
   and with the detector (every suspicion names a rank that really
   crashed, after it crashed, with ``missed >= 1`` periods of silence —
   i.e. the generously-spaced detector never produces a false positive).
4. **determinism** — an untraced rerun is bit-identical: same makespan,
   same fault report.
5. **benign-plan transparency** — a plan with no crashes (only
   slowdowns) must leave values, message counts and completion intact:
   degradation stretches the schedule, never the semantics.

``python -m repro.sim.chaos --seeds 500`` runs the sweep from the
command line; the fuzzer's check 6 runs one chaos execution per
deterministic-latency fuzz case, and the tier-1 suite pins a fixed seed
block.  The service-level chaos drills live in :mod:`repro.serve.chaos`
(``python -m repro.serve --chaos``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .faults import (
    CrashRecover,
    FaultPlan,
    HeartbeatConfig,
    random_fault_plan,
)
from .latency import FixedLatency
from .machine import LogPMachine, MachineResult
from .net import FaultyFabric, LatencyFabric
from .sweep import resolve_workers, sweep_map
from .validate import validate_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from .fuzz import FuzzCase

__all__ = [
    "ChaosOutcome",
    "ChaosSummary",
    "chaos_heartbeat",
    "chaos_fault_plan",
    "is_lossy_seed",
    "run_chaos_case",
    "check_case_under_faults",
    "chaos_sweep",
]


#: Link-fault rates for the seeds that compose a FaultyFabric on top of
#: the node faults (roughly one seed in three, see :func:`is_lossy_seed`).
LOSSY_DROP = 0.12
LOSSY_DUPLICATE = 0.08
LOSSY_DELAY = 0.10


def chaos_heartbeat(p, *, horizon: float) -> HeartbeatConfig:
    """All-pairs detector sized so chaos runs cannot false-suspect.

    Beats serialize on the message ports, so the period must dominate
    both the ``(P-1) * max(g, o)`` all-pairs emission backlog and any
    transient program backlog in front of a beat.  ``4 * P * max(g, o,
    1)`` gives the fuzz families (a handful of sends per round) an ample
    margin; ``timeout = 2.5 * period + L + 2o`` follows the sizing rule
    of :func:`repro.algorithms.broadcast.ft_heartbeat_config` — the
    ``L + 2o`` term matters on latency-dominated draws (``L`` several
    times the period), where the *first* beat is still in flight when a
    bare multiple-of-period timeout would already have expired.  The
    ``horizon`` is mandatory here: it is what lets a run whose programs
    wedged on a dead peer drain its event queue and terminate.
    """
    beat = max(p.g, p.o, 1.0)
    period = max(4.0 * p.P * beat, 8.0)
    return HeartbeatConfig(
        period=period,
        timeout=2.5 * period + p.L + 2.0 * p.o,
        horizon=horizon,
    )


def chaos_fault_plan(case: "FuzzCase") -> tuple[FaultPlan, float]:
    """The seeded fault plan for one fuzz case, plus its time horizon.

    Crash times span ``[0, horizon)``.  The case's ``upper_bound`` is a
    deliberately loose livelock detector (several times the real
    makespan), so drawing over all of it would land most crashes after
    the program finished; a quarter of it keeps the draw spread over
    before/during/after the active phase, which is what actually
    exercises wedged receivers and mid-protocol re-grafts.  Rank 0 is
    spared (the fuzz hot-spot families root their traffic there;
    sparing it keeps at least one rank alive without special-casing
    every family).
    """
    horizon = max(case.upper_bound / 4.0, 32.0)
    return random_fault_plan(case.seed, case.params.P, horizon=horizon), horizon


def is_lossy_seed(seed: int) -> bool:
    """Whether this seed additionally composes link faults (FaultyFabric)."""
    return seed % 3 == 0


@dataclass(slots=True)
class ChaosOutcome:
    """Everything checked about one chaos execution."""

    seed: int
    family: str
    lossy: bool
    makespan: float
    crashes: int
    recoveries: int
    suspects: int
    wedged: int
    gave_up_sends: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(slots=True)
class ChaosSummary:
    """Aggregate of a chaos sweep."""

    cases: int = 0
    lossy_cases: int = 0
    crashes: int = 0
    recoveries: int = 0
    suspects: int = 0
    wedged: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(
    case: "FuzzCase",
    plan: FaultPlan,
    hb: HeartbeatConfig,
    *,
    trace: bool,
    lossy: bool,
) -> MachineResult:
    p = case.params
    # A fresh fabric per run: FaultyFabric draws from an internal seeded
    # stream, so reuse would break the determinism differential.
    fabric = (
        FaultyFabric(
            LatencyFabric(FixedLatency(p.L)),
            drop=LOSSY_DROP,
            duplicate=LOSSY_DUPLICATE,
            delay=LOSSY_DELAY,
            seed=case.seed,
        )
        if lossy
        else None
    )
    machine = LogPMachine(
        p,
        fabric=fabric,
        fault_plan=plan,
        heartbeat=hb,
        trace=trace,
        max_events=2_000_000,
    )
    return machine.run(case.factory)


def run_chaos_case(case: "FuzzCase", where: str | None = None) -> ChaosOutcome:
    """Execute one fuzz case under its seeded fault plan; run every check."""
    p = case.params
    if where is None:
        where = f"seed={case.seed} family={case.family} {p}"
    where = f"{where} [chaos]"
    plan, fault_horizon = chaos_fault_plan(case)
    # Detection of the latest possible crash needs detect_delay() past
    # the crash itself; pad the detector horizon accordingly.
    hb = chaos_heartbeat(p, horizon=fault_horizon + 8.0 * max(p.g, p.o, 1.0) * 4.0 * p.P)
    lossy = is_lossy_seed(case.seed)
    out = ChaosOutcome(
        seed=case.seed,
        family=case.family,
        lossy=lossy,
        makespan=0.0,
        crashes=len(plan.crashes),
        recoveries=0,
        suspects=0,
        wedged=0,
        gave_up_sends=0,
    )

    try:
        res = _run(case, plan, hb, trace=True, lossy=lossy)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        out.failures.append(f"{where}: run crashed: {exc!r}")
        return out
    report = res.fault_report()
    out.makespan = res.makespan
    out.recoveries = len(report.recoveries)
    out.suspects = len(report.suspects)
    out.wedged = len(report.wedged_ranks)
    out.gave_up_sends = report.gave_up_sends

    # 1. Termination bound.  Structural termination got us *here*; the
    # bound turns a runaway (retry storm, detector that never stops)
    # into a failure instead of a 2M-event crawl.  Horizon + recovery
    # tails + a lossy retry chain per message is generous but finite.
    limit = (
        (hb.horizon or 0.0)
        + hb.timeout
        + 2.0 * fault_horizon
        + 4.0 * case.upper_bound
        + 2048.0
    )
    if res.makespan > limit:
        out.failures.append(
            f"{where}: makespan {res.makespan} exceeds chaos bound {limit}"
        )

    # 1b. Fault-aware semantic validation: outside the downtime windows
    # the traced schedule still obeys every LogP clause, and every
    # suspicion is backed by real silence.  Lossy seeds step outside
    # the LogP contract (retries violate flight <= L by design), so
    # only node-fault runs are validated.
    if not lossy:
        val = validate_schedule(
            res.schedule,
            exact_latency=True,
            fault_plan=plan,
            fault_report=report,
            heartbeat=hb,
        )
        for v in val.violations:
            out.failures.append(f"{where}: {v}")

    # 2. Exactly-once among survivors: no seq completes reception twice,
    # under crash-recover re-execution and fabric-manufactured copies.
    if report.duplicate_deliveries != 0:
        out.failures.append(
            f"{where}: {report.duplicate_deliveries} duplicate deliveries "
            "reached a program (exactly-once violated)"
        )

    # 3a. Every planned crash appears exactly once, at its time.
    want_crashes = sorted(
        (
            c.rank,
            c.at,
            "transient" if isinstance(c, CrashRecover) else "stop",
        )
        for c in plan.crashes
    )
    got_crashes = sorted((e.rank, e.time, e.kind) for e in report.crashes)
    if got_crashes != want_crashes:
        out.failures.append(
            f"{where}: traced crashes {got_crashes} != plan {want_crashes}"
        )

    # 3b. Every crash-recover restarts exactly once, on schedule.
    want_rec = sorted(
        (c.rank, c.back_at) for c in plan.crashes if isinstance(c, CrashRecover)
    )
    got_rec = sorted((e.rank, e.time) for e in report.recoveries)
    if got_rec != want_rec:
        out.failures.append(
            f"{where}: traced recoveries {got_rec} != plan {want_rec}"
        )
    for e in report.recoveries:
        if e.incarnation != 1:
            out.failures.append(
                f"{where}: P{e.rank} recovered with incarnation "
                f"{e.incarnation}, expected 1 (single crash per rank)"
            )

    # 3c. No false positives: every suspicion names a rank that really
    # crashed, strictly after the crash, with real silence behind it.
    crashed_at = {c.rank: c.at for c in plan.crashes}
    for e in report.suspects:
        if e.suspect not in crashed_at:
            out.failures.append(
                f"{where}: P{e.watcher} suspected live rank P{e.suspect} "
                f"at t={e.time} (false positive)"
            )
            continue
        if e.time < crashed_at[e.suspect]:
            out.failures.append(
                f"{where}: P{e.suspect} suspected at t={e.time}, before "
                f"its crash at t={crashed_at[e.suspect]}"
            )
        if e.missed < 1 or e.time - e.last_heard <= hb.timeout:
            out.failures.append(
                f"{where}: suspicion of P{e.suspect} at t={e.time} with "
                f"missed={e.missed}, last_heard={e.last_heard} — silence "
                "does not exceed the timeout"
            )

    # 3d. A wedged survivor implies the detector was still running when
    # the program parked — it must have emitted heartbeats.
    if report.wedged_ranks and report.heartbeats_sent == 0:
        out.failures.append(
            f"{where}: ranks {report.wedged_ranks} wedged but zero "
            "heartbeats were emitted"
        )
    for r in report.wedged_ranks:
        if r in report.down_forever:
            out.failures.append(
                f"{where}: P{r} is both wedged and crashed-forever"
            )

    # 4. Determinism: an untraced rerun is bit-identical — makespan and
    # the full fault report (events are collected untraced too).
    try:
        rerun = _run(case, plan, hb, trace=False, lossy=lossy)
    except Exception as exc:  # noqa: BLE001
        out.failures.append(f"{where}: untraced rerun crashed: {exc!r}")
        return out
    if rerun.makespan != res.makespan:
        out.failures.append(
            f"{where}: untraced makespan {rerun.makespan} != traced "
            f"{res.makespan} (must be bit-identical)"
        )
    if rerun.fault_report() != report:
        out.failures.append(
            f"{where}: untraced fault report differs from traced"
        )

    # 5. A benign plan (no crashes) must not change semantics: every
    # rank completes and the family's expected values survive slowdowns,
    # detector traffic, and (lossy seeds) the retry protocol.
    if not plan.crashes:
        if report.wedged_ranks:
            out.failures.append(
                f"{where}: no crashes planned but ranks "
                f"{report.wedged_ranks} never finished"
            )
        for rank, expect in case.expected_values.items():
            got = res.value(rank)
            if got != expect:
                out.failures.append(
                    f"{where}: no crashes planned but P{rank} returned "
                    f"{got!r}, expected {expect!r}"
                )
        if not lossy and res.total_messages != case.expected_messages:
            out.failures.append(
                f"{where}: no crashes planned but {res.total_messages} "
                f"messages delivered, expected {case.expected_messages}"
            )
    return out


def check_case_under_faults(
    case: "FuzzCase", where: str | None = None
) -> list[str]:
    """The fuzzer's check-6 entry point: failures only."""
    return run_chaos_case(case, where).failures


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


def _chaos_seed(seed: int) -> ChaosOutcome:
    """Per-seed work unit: regenerate the case in-process (factories do
    not pickle) and run the chaos checks.  Module-level so it pickles."""
    from .fuzz import make_case

    return run_chaos_case(make_case(int(seed)))


def chaos_sweep(
    seeds: "range | list[int]",
    *,
    max_failures: int = 50,
    workers: int | None = None,
    min_chunk: int | None = None,
) -> ChaosSummary:
    """Run the chaos checks over a seed range (parallel like the fuzzer).

    The summary folds outcomes in seed submission order with the same
    ``max_failures`` early exit whether the sweep ran serial or
    parallel, so worker count never changes the verdict.
    """
    from .fuzz import MIN_SEEDS_PER_WORKER, make_case

    if min_chunk is None:
        min_chunk = MIN_SEEDS_PER_WORKER
    summary = ChaosSummary()
    seed_list = [int(s) for s in seeds]

    def fold(out: ChaosOutcome) -> bool:
        summary.cases += 1
        summary.lossy_cases += int(out.lossy)
        summary.crashes += out.crashes
        summary.recoveries += out.recoveries
        summary.suspects += out.suspects
        summary.wedged += out.wedged
        summary.failures.extend(out.failures)
        return len(summary.failures) < max_failures

    if resolve_workers(workers) <= 1 or len(seed_list) < 2 * min_chunk:
        for seed in seed_list:
            if not fold(run_chaos_case(make_case(seed))):
                return summary
        return summary

    for out in sweep_map(
        _chaos_seed, seed_list, workers=workers, min_chunk=min_chunk
    ):
        if not fold(out):
            return summary
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=500)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for the sweep (default: REPRO_SWEEP_WORKERS "
        "env var, then cpu count; 1 = serial)",
    )
    args = parser.parse_args(argv)
    summary = chaos_sweep(
        range(args.start, args.start + args.seeds), workers=args.workers
    )
    print(
        f"{summary.cases} chaos cases ({summary.lossy_cases} with link "
        f"faults): {summary.crashes} crashes, {summary.recoveries} "
        f"recoveries, {summary.suspects} suspicions, {summary.wedged} "
        "wedged survivors"
    )
    if summary.ok:
        print("OK — zero violations")
        return 0
    print(f"{len(summary.failures)} FAILURES:")
    for f in summary.failures[:20]:
        print(" ", f)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
