"""Validating live runs: exact ordering/delivery clauses, banded timing,
and the differential check against the simulator.

The split that makes live validation trustworthy *and* CI-stable:

**Exact clauses** (:data:`EXACT_CLAUSES`) are ordering and delivery
invariants that hold on real hardware regardless of scheduler noise —
they rest on the Lamport clocks and per-pair sequence numbers carried in
every data frame, not on wall-clock:

* ``fifo``             — per ``(src, dst)``, deliveries occur in strictly
  increasing sequence order (TCP's promise, surfaced and checked);
* ``exactly-once``     — no ``(src, dst, seq)`` is delivered twice;
* ``phantom-delivery`` — every delivery has a matching ``send_commit``
  in the sender's log (killed senders exempt: their logs died with
  them, and their in-flight messages are *expected* orphans);
* ``message-loss``     — between two surviving ranks, every message
  that entered the wire is delivered;
* ``recv-after-send``  — a delivery's Lamport clock strictly exceeds
  its send commit's (causality, clock-skew-proof);
* ``barrier-coherence``— all surviving ranks cross the same barrier
  sequence, and no rank exits barrier ``n`` before every participant
  entered it;
* ``busy-overlap``     — one processor never does two things at once
  (single-threaded programs: this is a log-consistency check);
* ``value-parity``     — the differential clause: every surviving
  rank's return value equals the simulator replay's, bit for bit;
* ``message-count``    — per-pair message counts match the replay.

**Timing clauses** (:data:`TIMING_CLAUSES`) compare wall-clock spans to
the fitted model and hold only within a tolerance band — one knob,
``REPRO_LIVE_SLACK`` (:func:`live_slack`), deliberately generous by
default because a preempted process can stretch any single interval by
orders of magnitude.  A timing violation is a *warning*; CI exit codes
and ``LiveValidation.exact_ok`` look only at the exact clauses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.params import LogPParams
from ..machines.fit import MeasuredLogP
from ..sim.machine import run_programs
from ..sim.validate import ToleranceBand, ValidationReport, validate_schedule
from .logs import LiveEvent, LiveResult

__all__ = [
    "EXACT_CLAUSES",
    "TIMING_CLAUSES",
    "LiveValidation",
    "live_slack",
    "validate_live",
]

#: Ordering/delivery invariants: exact on real hardware, always.
EXACT_CLAUSES = frozenset(
    {
        "fifo",
        "exactly-once",
        "phantom-delivery",
        "message-loss",
        "recv-after-send",
        "barrier-coherence",
        "busy-overlap",
        "value-parity",
        "message-count",
    }
)

#: Wall-clock comparisons against the fitted model: tolerance-banded.
TIMING_CLAUSES = frozenset(
    {
        "send-gap",
        "recv-gap",
        "overhead",
        "latency-bound",
        "latency-exact",
        "inject-before-overhead",
        "net-stall-negative",
        "recv-after-send-wall",
        "makespan-band",
    }
)

#: Default for ``REPRO_LIVE_SLACK`` — deliberately generous: a single
#: scheduler preemption stretches one interval ~50x the fitted ``o``.
_DEFAULT_SLACK = 10.0


def live_slack() -> float:
    """The single wall-clock tolerance knob (env ``REPRO_LIVE_SLACK``).

    All live *timing* assertions scale with this one number; the exact
    ordering/delivery clauses ignore it entirely.  Raise it on a noisy
    CI host; it can never mask a reordering, a duplicate, or a loss.
    """
    raw = os.environ.get("REPRO_LIVE_SLACK")
    if raw is None:
        return _DEFAULT_SLACK
    value = float(raw)
    if value <= 0:
        raise ValueError(f"REPRO_LIVE_SLACK must be > 0, got {raw!r}")
    return value


@dataclass(slots=True)
class LiveValidation:
    """Outcome of validating one live run.

    ``exact_ok`` gates CI (ordering/delivery/differential clauses only);
    ``ok`` additionally requires every banded timing clause.
    """

    report: ValidationReport
    fitted: MeasuredLogP
    params: LogPParams
    measured_makespan: float
    predicted_makespan: float | None = None
    slack: float = _DEFAULT_SLACK
    notes: list[str] = field(default_factory=list)

    @property
    def exact_violations(self) -> list:
        return [
            v for v in self.report.violations if v.rule not in TIMING_CLAUSES
        ]

    @property
    def timing_violations(self) -> list:
        return [v for v in self.report.violations if v.rule in TIMING_CLAUSES]

    @property
    def exact_ok(self) -> bool:
        return not self.exact_violations

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        lines = [
            f"fitted: L={self.params.L:.3f} o={self.params.o:.3f} "
            f"g={self.params.g:.3f} (cycles; rtt={self.fitted.round_trip:.3f})",
            f"measured makespan: {self.measured_makespan:.1f} cycles",
        ]
        if self.predicted_makespan is not None:
            ratio = (
                self.measured_makespan / self.predicted_makespan
                if self.predicted_makespan
                else float("inf")
            )
            lines.append(
                f"predicted makespan: {self.predicted_makespan:.1f} cycles "
                f"(measured/predicted = {ratio:.2f})"
            )
        lines.append(
            f"exact clauses: {len(self.exact_violations)} violation(s); "
            f"timing clauses: {len(self.timing_violations)} "
            f"(slack={self.slack:g})"
        )
        lines.extend(str(v) for v in self.report.violations[:10])
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "fitted": {
                "L": self.params.L,
                "o": self.params.o,
                "g": self.params.g,
                "round_trip": self.fitted.round_trip,
                "pipeline_depth": self.fitted.pipeline_depth,
            },
            "measured_makespan": self.measured_makespan,
            "predicted_makespan": self.predicted_makespan,
            "slack": self.slack,
            "exact_ok": self.exact_ok,
            "ok": self.ok,
            "exact_violations": [str(v) for v in self.exact_violations],
            "timing_violations": [str(v) for v in self.timing_violations],
            "notes": list(self.notes),
        }


def _events_of(log: list[LiveEvent], kind: str) -> list[LiveEvent]:
    return [e for e in log if e.kind == kind]


def _check_delivery_invariants(
    result: LiveResult, report: ValidationReport
) -> None:
    """The raw-log exact clauses: fifo, exactly-once, phantoms, loss,
    causality.  These read the per-rank event logs directly — the
    schedule view's monotonicity clamps never touch them."""
    killed = set(result.killed)
    sends: dict[tuple[int, int, int], LiveEvent] = {}
    wires: dict[tuple[int, int, int], LiveEvent] = {}
    for log in result.rank_events:
        for e in log:
            if e.kind == "send_commit":
                sends[(e.rank, e.peer, e.seq)] = e
            elif e.kind == "wire_out":
                wires[(e.rank, e.peer, e.seq)] = e

    delivered: dict[tuple[int, int, int], LiveEvent] = {}
    for dst, log in enumerate(result.rank_events):
        last_seq: dict[int, int] = {}
        for e in log:
            if e.kind != "delivery":
                continue
            src, seq = e.peer, e.seq
            key = (src, dst, seq)
            if key in delivered:
                report.add(
                    "exactly-once",
                    dst,
                    e.t,
                    f"message {src}->{dst} seq {seq} delivered twice",
                )
            delivered[key] = e
            prev = last_seq.get(src)
            if prev is not None and seq <= prev:
                report.add(
                    "fifo",
                    dst,
                    e.t,
                    f"delivery {src}->{dst} seq {seq} after seq {prev} "
                    "(per-pair FIFO broken)",
                )
            last_seq[src] = max(seq, prev if prev is not None else seq)
            commit = sends.get(key)
            if commit is None:
                if src not in killed:
                    report.add(
                        "phantom-delivery",
                        dst,
                        e.t,
                        f"delivery {src}->{dst} seq {seq} has no send_commit "
                        "in the sender's log",
                    )
                continue
            if e.clock <= commit.clock:
                report.add(
                    "recv-after-send",
                    dst,
                    e.t,
                    f"delivery {src}->{dst} seq {seq} at Lamport {e.clock} "
                    f"<= send commit's {commit.clock} (causality broken)",
                )
            if e.t < commit.t - 1e-9:
                report.add(
                    "recv-after-send-wall",
                    dst,
                    e.t,
                    f"delivery {src}->{dst} seq {seq} at t={e.t:.3f} before "
                    f"its send commit at t={commit.t:.3f} (clock skew)",
                )

    for key, wire in wires.items():
        src, dst, _seq = key
        if src in killed or dst in killed:
            continue
        if key not in delivered:
            report.add(
                "message-loss",
                dst,
                wire.t,
                f"message {src}->{dst} seq {key[2]} entered the wire but "
                "was never delivered",
            )


def _check_barrier_coherence(
    result: LiveResult, report: ValidationReport
) -> None:
    killed = set(result.killed)
    survivors = [r for r in range(result.P) if r not in killed]
    seqs = {
        r: [e.seq for e in _events_of(result.rank_events[r], "barrier_enter")]
        for r in survivors
    }
    if not survivors:
        return
    reference = seqs[survivors[0]]
    for r in survivors[1:]:
        if seqs[r] != reference:
            report.add(
                "barrier-coherence",
                r,
                0.0,
                f"rank {r} crossed barriers {seqs[r]}, rank "
                f"{survivors[0]} crossed {reference}",
            )
            return
    for n in reference:
        enters = [
            e.t
            for r in survivors
            for e in _events_of(result.rank_events[r], "barrier_enter")
            if e.seq == n
        ]
        exits = [
            (r, e.t)
            for r in survivors
            for e in _events_of(result.rank_events[r], "barrier_exit")
            if e.seq == n
        ]
        if not enters or not exits:
            continue
        latest_enter = max(enters)
        for r, t in exits:
            if t < latest_enter - 1e-9:
                report.add(
                    "barrier-coherence",
                    r,
                    t,
                    f"rank {r} exited barrier {n} at t={t:.3f} before the "
                    f"last participant entered at t={latest_enter:.3f}",
                )


def _check_differential(
    result: LiveResult,
    programs,
    params: LogPParams,
    slack: float,
    rtt: float,
    report: ValidationReport,
) -> float | None:
    """Replay the same program on the simulator at the fitted parameters;
    values and message counts must match exactly, makespan in band."""
    sim = run_programs(params, programs, trace=True)
    killed = set(result.killed)
    for rank in range(result.P):
        if rank in killed:
            continue
        live_v, sim_v = result.value(rank), sim.value(rank)
        if live_v != sim_v:
            report.add(
                "value-parity",
                rank,
                0.0,
                f"rank {rank} returned {live_v!r} live but {sim_v!r} on the "
                "simulator replay",
            )
    live_counts: dict[tuple[int, int], int] = {}
    for log in result.rank_events:
        for e in log:
            if e.kind == "send_commit" and e.rank not in killed:
                pair = (e.rank, e.peer)
                live_counts[pair] = live_counts.get(pair, 0) + 1
    sim_counts: dict[tuple[int, int], int] = {}
    for m in sim.schedule.messages:
        pair = (m.src, m.dst)
        sim_counts[pair] = sim_counts.get(pair, 0) + 1
    if live_counts != sim_counts:
        diff = {
            pair: (live_counts.get(pair, 0), sim_counts.get(pair, 0))
            for pair in set(live_counts) | set(sim_counts)
            if live_counts.get(pair, 0) != sim_counts.get(pair, 0)
        }
        report.add(
            "message-count",
            -1,
            0.0,
            f"per-pair (live, sim) message counts differ: {diff}",
        )
    predicted = sim.makespan
    tolerance = slack * max(predicted, 0.0) + slack * rtt
    if abs(result.makespan - predicted) > tolerance:
        report.add(
            "makespan-band",
            -1,
            result.makespan,
            f"live makespan {result.makespan:.1f} vs predicted "
            f"{predicted:.1f} exceeds band +/-{tolerance:.1f}",
        )
    return predicted


def validate_live(
    result: LiveResult,
    fitted: MeasuredLogP,
    *,
    programs=None,
    slack: float | None = None,
) -> LiveValidation:
    """Run every live-run check; see the module docstring for the clause
    catalogue and the exact/banded split.

    Args:
        result: the live run to validate.
        fitted: host parameters from :func:`~repro.live.calibrate.fit_live`
            (scales every tolerance band and parameterizes the replay).
        programs: the same factory the run executed
            — enables the differential clauses (``value-parity``,
            ``message-count``, ``makespan-band``).  ``None`` skips them.
        slack: override :func:`live_slack`.
    """
    S = live_slack() if slack is None else slack
    params = fitted.as_params(result.P, name="live-fit")
    report = ValidationReport()

    _check_delivery_invariants(result, report)
    _check_barrier_coherence(result, report)

    # The timing clauses: schedule view against the fitted model, every
    # wall-clock comparison in a band scaled by the one knob.  Capacity
    # is off (the host kernel's in-flight allowance is not ceil(L/g));
    # busy-overlap inside this pass stays exact.
    band = ToleranceBand(rel=S, abs=S * max(fitted.round_trip, 0.0))
    sched_report = validate_schedule(
        result.schedule(params),
        band=band,
        check_capacity=False,
    )
    report.violations.extend(sched_report.violations)

    predicted = None
    notes: list[str] = []
    if programs is not None:
        if result.killed:
            notes.append(
                "differential replay skipped: run had chaos-killed ranks"
            )
        else:
            predicted = _check_differential(
                result, programs, params, S, fitted.round_trip, report
            )
    return LiveValidation(
        report=report,
        fitted=fitted,
        params=params,
        measured_makespan=result.makespan,
        predicted_makespan=predicted,
        slack=S,
        notes=notes,
    )
