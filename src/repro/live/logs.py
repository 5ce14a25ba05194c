"""Structured event logs of live runs and the :class:`LiveResult`.

Each rank records a timestamped, logically-clocked event stream while
it runs — send commits, wire entries, deliveries, recv returns, compute
spans, barrier crossings, suspicions — and ships it to the coordinator
with its final value.  :class:`LiveResult` is the live mirror of
:class:`~repro.sim.machine.MachineResult`: per-rank
:class:`~repro.sim.program.ProgramResult`\\ s, a merged event feed, the
makespan, and a :meth:`LiveResult.schedule` view that reconstructs a
:class:`~repro.core.schedule.Schedule` (SEND/COMPUTE intervals plus
:class:`~repro.core.schedule.MessageRecord` lifecycles) so the same
validator machinery that checks simulated traces can check physical
ones.

A rank collects its log as plain tuples and, once its threads have
stopped, packs it into fixed-size binary records (:data:`_RECORD`: a
float64 ``t``, then ``clock``, ``peer``, ``seq``, the kind's index in
:data:`KINDS`, and an index into a side table of ``info`` strings, 0
for none).  That :class:`PackedLog` is what the rank ships and the
coordinator keeps; it builds each :class:`LiveEvent` on access, so a
finished run keeps 33 bytes an event rather than an object per event,
and ``rank_events[r]`` still reads as a sequence of events.

Event kinds (:data:`KINDS`):

``start``/``finish``      rank program lifecycle;
``send_commit``           program issued ``Send`` (pre-syscall);
``wire_out``              the send syscall returned (message committed
                          to the kernel — the live "injection");
``send_failed``           the peer's interface was dead;
``delivery``              receiver thread pulled the frame off the wire;
``recv_return``           ``Recv`` handed the message to the program;
``recv_timeout``          a bounded ``Recv`` elapsed;
``compute_begin``/``_end`` a ``Compute`` span;
``barrier_enter``/``_exit`` hardware-barrier crossings (``seq`` is the
                          barrier index);
``poll``                  a ``Poll`` snapshot (``seq`` = count);
``checkpoint``            a ``Checkpoint`` was stored;
``suspect``               the heartbeat detector suspected ``peer``.

Every message-related event carries ``(peer, seq)`` where ``seq`` is
the per-``(src, dst)`` sequence number stamped at send time — the
backbone of the exact FIFO / exactly-once clauses.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.params import LogPParams
from ..core.schedule import Activity, MessageRecord, Schedule
from ..sim.program import ProgramResult

__all__ = [
    "KINDS", "EventLog", "LiveEvent", "LiveMessage", "LiveResult", "PackedLog",
]

#: Every event kind a rank logs; a record stores the kind's index here.
KINDS = (
    "start", "finish", "send_commit", "wire_out", "send_failed", "delivery",
    "recv_return", "recv_timeout", "compute_begin", "compute_end",
    "barrier_enter", "barrier_exit", "poll", "checkpoint", "suspect",
)
_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: One event: ``t``, ``clock``, ``peer``, ``seq``, kind code, ``info`` index.
_RECORD = struct.Struct("<dqiqBI")


@dataclass(frozen=True, slots=True)
class LiveEvent:
    """One entry of a rank's event log.

    ``t`` is in cycles since the run epoch; ``clock`` is the rank's
    Lamport clock at the event.  ``peer``/``seq`` are -1 when the kind
    has no peer or sequence component."""

    t: float
    rank: int
    kind: str
    clock: int
    peer: int = -1
    seq: int = -1
    info: str = ""

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class EventLog:
    """Append-only per-rank event collector, shared by the program,
    receiver and heartbeat threads (a list append is atomic)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._records: list[tuple] = []

    def append(
        self,
        kind: str,
        t: float,
        clock: int,
        peer: int = -1,
        seq: int = -1,
        info: str = "",
    ) -> None:
        code = _CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown live event kind {kind!r}")
        self._records.append((t, clock, peer, seq, code, info))

    def freeze(self) -> PackedLog:
        """The log so far, packed: the record the rank ships."""
        records = bytearray()
        infos: list[str] = []
        for t, clock, peer, seq, code, info in self._records:
            if info:
                infos.append(info)
            ref = len(infos) if info else 0
            records += _RECORD.pack(t, clock, peer, seq, code, ref)
        return PackedLog(self.rank, bytes(records), tuple(infos))


class PackedLog(Sequence):
    """A rank's finished log: packed records, events built on access."""

    __slots__ = ("rank", "_records", "_infos")

    def __init__(self, rank: int, records: bytes, infos: tuple[str, ...]) -> None:
        self.rank = rank
        self._records = records
        self._infos = infos

    def _event(self, record: tuple) -> LiveEvent:
        t, clock, peer, seq, code, ref = record
        info = self._infos[ref - 1] if ref else ""
        return LiveEvent(t, self.rank, KINDS[code], clock, peer, seq, info)

    def __len__(self) -> int:
        return len(self._records) // _RECORD.size

    def __getitem__(self, index: int) -> LiveEvent:
        index = range(len(self))[index]  # negative indices; IndexError
        return self._event(_RECORD.unpack_from(self._records, index * _RECORD.size))

    def __iter__(self):
        for record in _RECORD.iter_unpack(self._records):
            yield self._event(record)


@dataclass(frozen=True, slots=True)
class LiveMessage:
    """One message's cross-rank lifecycle, joined from both logs.

    ``delivery``/``recv_return`` (and their clocks) are ``None`` for a
    message that was never delivered (receiver crashed or still queued
    at teardown); ``send_commit``/``wire_out`` are ``None`` for a
    delivery whose sender's log was lost (a chaos-killed rank)."""

    src: int
    dst: int
    seq: int
    send_commit: float | None
    wire_out: float | None
    send_clock: int | None
    delivery: float | None
    recv_return: float | None
    delivery_clock: int | None


@dataclass(slots=True)
class LiveResult:
    """Everything a live run produces (mirror of ``MachineResult``).

    Times are in cycles since the shared epoch.  ``rank_events[r]`` is
    rank ``r``'s log, a sequence of :class:`LiveEvent` (a
    :class:`PackedLog` after a run).  ``killed`` lists ranks
    the chaos harness ``SIGKILL``\\ ed (their logs die with them);
    ``exitcodes[r]`` is the OS exit status of rank ``r``'s process."""

    P: int
    config: Any  # LiveConfig (kept loose to avoid an import cycle)
    makespan: float
    results: list[ProgramResult]
    rank_events: list[Sequence[LiveEvent]]
    exitcodes: list[int | None]
    killed: list[int] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def value(self, rank: int) -> Any:
        return self.results[rank].value

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    @property
    def events(self) -> list[LiveEvent]:
        """All ranks' events merged, ordered by ``(t, clock, rank)``."""
        merged = [e for log in self.rank_events for e in log]
        merged.sort(key=lambda e: (e.t, e.clock, e.rank))
        return merged

    def suspects(self, rank: int) -> frozenset[int]:
        """Ranks that ``rank``'s live failure detector suspected."""
        return frozenset(
            e.peer for e in self.rank_events[rank] if e.kind == "suspect"
        )

    @property
    def total_messages(self) -> int:
        return sum(
            1 for log in self.rank_events for e in log if e.kind == "send_commit"
        )

    def messages(self) -> list[LiveMessage]:
        """Join send-side and receive-side logs into message lifecycles."""
        sends: dict[tuple[int, int, int], tuple[LiveEvent, LiveEvent | None]] = {}
        for log in self.rank_events:
            commit: dict[tuple[int, int], LiveEvent] = {}
            for e in log:
                if e.kind == "send_commit":
                    commit[(e.peer, e.seq)] = e
                    sends[(e.rank, e.peer, e.seq)] = (e, None)
                elif e.kind == "wire_out":
                    c = commit.get((e.peer, e.seq))
                    if c is not None:
                        sends[(e.rank, e.peer, e.seq)] = (c, e)
        deliveries: dict[tuple[int, int, int], LiveEvent] = {}
        recv_returns: dict[tuple[int, int, int], LiveEvent] = {}
        order: list[tuple[int, int, int]] = []
        for log in self.rank_events:
            for e in log:
                if e.kind == "delivery":
                    key = (e.peer, e.rank, e.seq)
                    if key not in deliveries:
                        order.append(key)
                    deliveries[key] = e
                elif e.kind == "recv_return":
                    recv_returns[(e.peer, e.rank, e.seq)] = e
        out: list[LiveMessage] = []
        seen: set[tuple[int, int, int]] = set()
        for key in list(sends) + [k for k in order if k not in sends]:
            if key in seen:
                continue
            seen.add(key)
            src, dst, seq = key
            commit_wire = sends.get(key)
            dlv = deliveries.get(key)
            ret = recv_returns.get(key)
            out.append(
                LiveMessage(
                    src=src,
                    dst=dst,
                    seq=seq,
                    send_commit=commit_wire[0].t if commit_wire else None,
                    wire_out=(
                        commit_wire[1].t
                        if commit_wire and commit_wire[1] is not None
                        else None
                    ),
                    send_clock=(
                        commit_wire[1].clock
                        if commit_wire and commit_wire[1] is not None
                        else (commit_wire[0].clock if commit_wire else None)
                    ),
                    delivery=dlv.t if dlv else None,
                    recv_return=ret.t if ret else None,
                    delivery_clock=dlv.clock if dlv else None,
                )
            )
        out.sort(key=lambda m: (m.src, m.dst, m.seq))
        return out

    def schedule(self, params: LogPParams) -> Schedule:
        """A :class:`~repro.core.schedule.Schedule` view of the run.

        ``params`` supplies the model the schedule claims to run under
        (typically the *fitted* host parameters).  SEND intervals are
        ``[send_commit, wire_out]`` (the time the processor was engaged
        in the send syscall), COMPUTE intervals are the logged spans;
        reception is asynchronous live (a dedicated thread), so no RECV
        intervals are emitted.  Message timelines are clamped to be
        monotone: cross-process timestamps of causally ordered events
        can interleave by microseconds at syscall granularity, and the
        schedule is a *timing* view — the exact ordering clauses read
        the raw logs, not this."""
        if params.P < self.P:
            raise ValueError(
                f"schedule params have P={params.P} < live P={self.P}"
            )
        sched = Schedule(params=params)
        for rank, log in enumerate(self.rank_events):
            tl = sched.timeline(rank)
            open_spans: dict[str, LiveEvent] = {}
            for e in log:
                if e.kind in ("send_commit", "compute_begin"):
                    open_spans[e.kind] = e
                elif e.kind == "wire_out":
                    c = open_spans.pop("send_commit", None)
                    if c is not None:
                        tl.add(_interval(c.t, e.t, Activity.SEND, f"-> {e.peer}"))
                elif e.kind == "compute_end":
                    c = open_spans.pop("compute_begin", None)
                    if c is not None:
                        tl.add(_interval(c.t, e.t, Activity.COMPUTE, e.info))
        for m in self.messages():
            if m.send_commit is None or m.delivery is None or m.recv_return is None:
                continue  # lost sender log (chaos) or undelivered: no full lifecycle
            inject = max(m.wire_out if m.wire_out is not None else m.send_commit,
                         m.send_commit)
            arrive = max(m.delivery, inject)
            recv_start = max(m.recv_return, arrive)
            sched.add_message(
                MessageRecord(
                    src=m.src,
                    dst=m.dst,
                    send_start=m.send_commit,
                    inject=inject,
                    arrive=arrive,
                    recv_start=recv_start,
                    recv_end=recv_start,
                    tag=str(m.seq),
                )
            )
        sched.sort_all()
        return sched

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (the CI artifact shape)."""
        return {
            "P": self.P,
            "makespan": self.makespan,
            "total_messages": self.total_messages,
            "killed": list(self.killed),
            "exitcodes": list(self.exitcodes),
            "values": [repr(v) for v in self.values()],
            "events_per_rank": [len(log) for log in self.rank_events],
        }


def _interval(start: float, end: float, kind: Activity, detail: str):
    from ..core.schedule import Interval

    return Interval(start, max(end, start), kind, detail)
