"""The machine's handlers, written once: one core, two time domains.

Bit-identity with :class:`repro.sim.machine.LogPMachine` is the whole
point, so evaluation is deliberately *not* a clever topological
relaxation: send/recv interleavings on a rank (an arrival draining
during a gap wait, a stalled injection racing a drain at the same
timestamp) are resolved by event *order*, and reproducing the machine's
order exactly means reproducing its scheduling decisions exactly.
:class:`_Core` therefore ports the machine's handlers one-for-one —
activation, inject/park/slot release, arrival, drain, recv-done, wake,
barrier release and the end-of-run check — over the compiled opcode
stream, around an inlined copy of the engine's queue discipline
(sorted insert with append fast path, FIFO tie-break by schedule
order, lazy cancellation, the 1e-12 past-tolerance clamp).  Every
``engine.schedule`` call in the machine has a ``_sched`` call here, in
the same program position, so sequence numbers — and therefore
tie-breaks — coincide.

The core never touches a time value directly.  Every simulated time
flows through a small set of hooks — ``_lit``, ``_add``, ``_max``,
``_sum``, ``_accrue`` for arithmetic, ``_lt`` and ``_cap_ge`` for
branches, ``_sched`` / ``_sched_activation`` /
``_supersede_activations`` for the queue, ``_submit_flight`` and
``_stream_positive`` for flight, ``_observe_now`` for clock readings,
and the ``_fp`` footprint touches — and a *time domain* supplies them:

* the **float domain** (:class:`_FloatDomain`, here) gives each hook
  its plain float meaning and serves :func:`evaluate` and
  :func:`compile_at`: every :class:`CompiledResult` field, the
  stall/wakeup feed, ``now_values``;
* the **recording domain** (:class:`repro.sim.compiled.grid._TapeRecorder`)
  boxes each time as ``(value, tape slot)``: the same run, with every
  operation appended to a replayable tape and every branch to a
  constraint, for the vectorized grid replay.

The core is written in the shape the recorder needs — it is the hot
path of grid evaluation — and the float domain takes the trivial
hooks.  Symmetry folding's class walk (:mod:`.fold`) is written once
against the same two arithmetic domains.

What the core drops is everything a deterministic run never touches:
generator dispatch and action allocation, trace records, the lossy/ARQ
machinery, Schedule assembly.

Timing configuration is resolved once, by :func:`_resolve_timing`, for
every entry point (scalar, grid, folded, folded grid) with the
machine's validation and error text.  The default is the inlined
constant flight; a seeded latency model (bare or inside a
:class:`~repro.sim.net.LatencyFabric`) is reset at run start and drawn
from once per injection in event order, and the float domain calls any
non-lossy fabric's ``submit`` at exactly the machine's call sites — so
the draw/submit sequences, and therefore the float operation
orderings, coincide bit for bit.

Timing-dependent schedules (``OP_NOW`` ops, from
``compile_programs(..., now_values=...)``) carry the clock readings
they were compiled against; the float domain checks each one against
the actual dispatch time and raises :class:`TimingDivergence` on
mismatch (``check_now=False`` records the observed values instead —
the probe mode :func:`compile_at` iterates to a fixed point).

The contract is enforced two ways: the fuzz harness
(:func:`repro.sim.fuzz.run_case`) diffs both domains against the
machine on every case of the 500-seed tier-1 sweep — makespan, per-rank
results, event counts and the full capacity-stall feed, all compared
with ``==``, never a tolerance — and ``tests/test_compiled.py`` pins
the edge cases (stall-heavy hotspots, ``merge_overhead_into_gap``
variants, capacity overrides, LogGP multi-word streaming, barriers).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..engine import SimulationError
from ..latency import FixedLatency
from ..net import LatencyFabric
from ..trace import StallEvent, StallReport, WakeupEvent, stall_report
from .compiler import (
    OP_COMPUTE,
    OP_NOW,
    OP_POLL,
    OP_RECV,
    OP_SEND,
    OP_SLEEP,
    CompileError,
    CompiledProgram,
    compile_programs,
)

__all__ = ["CompiledResult", "TimingDivergence", "compile_at", "evaluate"]


class TimingDivergence(SimulationError):
    """An ``OP_NOW`` assumption failed: the schedule was compiled
    against a clock reading that this evaluation did not reproduce.
    The compiled ops after that point encode the wrong control flow —
    refuse rather than return plausible garbage.  The grid layer
    catches this to trigger a per-region recompile
    (:func:`repro.sim.compiled.compile_at`)."""

# Processor states (machine.py uses interned strings; ints here).
_RUNNING = 0
_STALL_SEND = 1
_WAIT_RECV = 2
_WAIT_BARRIER = 3
_SLEEPING = 4
_POLLING = 5
_WAIT_GAP = 6
_DONE = 7

# Event codes for the inlined queue (machine.py binds methods instead).
_EV_ACTIVATION = 0
_EV_INJECT = 1
_EV_ARRIVAL = 2
_EV_RECV_DONE = 3
_EV_WAKE = 4
_EV_BARRIER = 5

# Parameter terms an ``_add`` may carry (the recording domain tapes the
# term; the float domain adds its value at the reference point).
_T_LIT = 0    # literal float k
_T_L = 1      # per-point L
_T_O = 2      # per-point o
_T_G = 3      # per-point gap g
_T_SI = 4     # per-point send interval max(g, o)
_T_GLONG = 5  # k * per-point LogGP long-message Gap
_T_DRAW = 6   # per-point latency-draw input k (index into the D matrix)

#: Engine.schedule's past-tolerance: see repro.sim.engine.PAST_TOLERANCE.
_PAST_TOL = 1e-12
#: Queue compaction threshold, as in Engine.
_COMPACT = 8192


def _resolve_timing(points, L, latency, fabric) -> tuple:
    """Validate one timing configuration for every entry point.

    The machine's rules — mutual exclusion, no lossy fabrics, flight
    bounded by each point's ``L`` — checked at every point in
    ``points`` with the machine's exact ``ValueError`` text, so
    switching entry point or backend never changes which
    configurations are accepted or what a refusal says.  Returns the
    flight spec the core's flight hook consumes:

    * ``("params", None)`` — each point's own ``L``, inlined;
    * ``("const", c)`` — the constant ``c`` (``L=``, or a
      ``FixedLatency`` bare or in a ``LatencyFabric``), inlined;
    * ``("draw", fabric)`` — a seeded model's ``LatencyFabric``
      (the caller's, or one wrapping a bare model): one draw per
      injection, in event order;
    * ``("fabric", fabric)`` — any other non-lossy fabric's ``submit``.
    """
    if fabric is not None:
        if latency is not None:
            raise ValueError(
                "give latency or fabric, not both (a plain latency "
                "model is run as a LatencyFabric)"
            )
        if L is not None:
            raise ValueError(
                "give L or fabric, not both (the fabric defines "
                "flight times)"
            )
        if fabric.lossy:
            raise ValueError(
                "the compiled evaluator does not support lossy "
                "fabrics: ARQ timeout-and-retry is timing-dependent "
                "control flow — use the event machine"
            )
        for p in points:
            if fabric.bound > p.L + 1e-12:
                raise ValueError(
                    f"fabric unloaded bound {fabric.bound} exceeds "
                    f"L={p.L}"
                )
        if type(fabric) is LatencyFabric:
            if type(fabric.model) is FixedLatency:
                return ("const", float(fabric.model.L))
            return ("draw", fabric)
        return ("fabric", fabric)
    if latency is not None:
        if L is not None:
            raise ValueError(
                "give L or latency, not both (the model defines "
                "flight times)"
            )
        for p in points:
            if latency.L > p.L + 1e-12:
                raise ValueError(
                    f"latency model bound {latency.L} exceeds L={p.L}"
                )
        if type(latency) is FixedLatency:
            return ("const", float(latency.L))
        return ("draw", LatencyFabric(latency))
    if L is None:
        return ("params", None)
    for p in points:
        if L > p.L + 1e-12:
            raise ValueError(
                f"latency L={L} exceeds params.L={p.L}; capacity "
                "ceil(L/g) would be wrong for this model"
            )
    return ("const", float(L))


def _fixed_flight(timing: tuple, params) -> tuple | None:
    """The inlined constant flight of a timing spec, as an ``_add``
    ``(term, k, value)`` triple at ``params``; ``None`` when flight
    comes from a fabric's ``submit``."""
    kind = timing[0]
    if kind == "params":
        return (_T_L, 0.0, float(params.L))
    if kind == "const":
        return (_T_LIT, timing[1], timing[1])
    return None


class _Rank:
    """Per-rank evaluation state: mirrors machine.py's _ProcState."""

    __slots__ = (
        "rank", "ops", "n_ops", "ip", "pending", "state",
        "busy_until", "last_send_start", "last_recv_start",
        "last_activity", "port_free", "mailbox", "arrived",
        "pending_inject", "stall_started", "queued_on",
        "pending_activations", "sends", "receives", "stall_time",
        "finished_at",
    )

    def __init__(self, rank: int, ops: tuple, zero, neginf):
        self.rank = rank
        self.ops = ops
        self.n_ops = len(ops)
        self.ip = 0
        self.pending = None
        self.state = _RUNNING
        self.busy_until = zero
        self.last_send_start = neginf
        self.last_recv_start = neginf
        self.last_activity = zero
        self.port_free = neginf
        self.mailbox: deque = deque()  # tags of landed messages
        self.arrived: deque = deque()  # _Message delivered, o not yet paid
        self.pending_inject: _Message | None = None
        self.stall_started = None
        self.queued_on: int | None = None
        #: activation time -> the domain's dedup record for it.
        self.pending_activations: dict = {}
        self.sends = 0
        self.receives = 0
        self.stall_time = zero
        self.finished_at = zero


class _Message:
    """An in-flight message: the fields injection and arrival touch."""

    __slots__ = ("src", "dst", "tag", "words")

    def __init__(self, src: int, dst: int, tag, words: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.words = words


@dataclass(slots=True)
class CompiledResult:
    """What one compiled evaluation produced.

    Field-for-field comparable with the machine's ``MachineResult`` on
    the quantities both report; per-rank lists are indexed by rank.
    """

    makespan: float
    total_messages: int
    total_stall_time: float
    events_run: int
    values: tuple[Any, ...]
    finished_at: list[float]
    sends: list[int]
    receives: list[int]
    stall_time: list[float]
    #: Stall/wakeup feed, populated only under ``collect_stalls=True``.
    stall_events: list = field(default_factory=list)
    collected_stalls: bool = False
    #: Per-rank observed ``Now`` readings (``None`` unless the compiled
    #: program ``uses_now``); what :func:`compile_at` iterates on.
    now_values: list | None = None

    def stall_report(self) -> StallReport:
        if not self.collected_stalls:
            raise ValueError(
                "stall feed not collected; evaluate with "
                "collect_stalls=True to use stall_report()"
            )
        return stall_report(self.stall_events)


class _Core:
    """One run of a compiled program: the machine's handlers.

    A time domain subclass supplies the hooks (see the module
    docstring) and these attributes: ``_fixed`` (the inlined flight
    ``(term, k, value)``, or ``None`` to call ``_submit_flight``),
    ``_collect`` and ``_feed`` (the stall/wakeup feed), and
    ``_settle`` (called with each executed event's seq, or ``None``).
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        params,
        *,
        enforce_capacity: bool,
        capacity: int,
        hw_barrier_cost: float,
        compute_jitter: Callable[[int, float], float] | None,
        max_events: int,
    ):
        P = compiled.P
        self._P = P
        self._o = float(params.o)
        self._g = float(params.g)
        self._si = float(params.send_interval)
        self._G = getattr(params, "G", None)
        self._capacity = capacity
        self._enforce = enforce_capacity
        self._hw_barrier = float(hw_barrier_cost)
        self._jitter = compute_jitter
        self._budget = max_events
        zero = self._lit(0.0)
        neginf = self._lit(float("-inf"))
        self._procs = [
            _Rank(r, compiled.ops[r], zero, neginf) for r in range(P)
        ]
        self._inflight_from = [0] * P
        self._inflight_to = [0] * P
        self._stall_queue: list[list[int]] = [[] for _ in range(P)]
        self._barrier_waiting: list[int] = []
        self._total_messages = 0
        self._events = 0
        # Inlined engine state.  Queue entries are (float time, seq,
        # domain time, event code, a, b): the float and the seq order
        # the queue, the domain time becomes _now when the entry pops.
        self._queue: list = []
        self._seq = 0
        self._cancelled: set = set()
        self._now = zero
        self._cur_seq = -1
        #: State cells touched by the current handler execution:
        #: 0..P-1 per processor, P for the barrier, P+1 for the latency
        #: RNG stream.  Only the recording domain reads it.
        self._fp: set = set()

    def run(self):
        """Execute the schedule; return the makespan and the total
        stall time, as domain times."""
        procs = self._procs
        for proc in procs:
            self._sched_activation(proc, self._now)
        self._fp.clear()  # preamble touches precede every event
        queue = self._queue
        cancelled = self._cancelled
        settle = self._settle
        head = 0
        events = 0
        budget = self._budget
        while True:
            try:
                entry = queue[head]
            except IndexError:
                break
            head += 1
            if head >= _COMPACT:
                del queue[:head]
                head = 0
            sq = entry[1]
            if cancelled and sq in cancelled:
                cancelled.remove(sq)
                continue
            events += 1
            if events > budget:
                raise SimulationError(
                    f"exceeded max_events={budget}; likely livelock"
                )
            self._now = entry[2]
            self._cur_seq = sq
            code = entry[3]
            if code == _EV_ACTIVATION:
                self._on_activation(entry[4], entry[5])
            elif code == _EV_ARRIVAL:
                self._on_arrival(entry[4])
            elif code == _EV_RECV_DONE:
                self._on_recv_done(entry[4], entry[5])
            elif code == _EV_INJECT:
                self._on_inject(entry[4])
            elif code == _EV_WAKE:
                self._on_wake(entry[4], entry[5])
            else:
                self._on_barrier_release(entry[4])
            if settle is not None:
                settle(sq)
        self._events = events
        self._check_completion()
        makespan = None
        for p in procs:
            pm = self._max(p.finished_at, p.last_activity)
            makespan = pm if makespan is None else self._max(makespan, pm)
        total = procs[0].stall_time
        for p in procs[1:]:
            total = self._sum(total, p.stall_time)
        return makespan, total

    def _on_activation(self, proc: _Rank, key: float) -> None:
        proc.pending_activations.pop(key, None)
        self._activate(proc)

    # -- the interpreter loop (machine._activate over opcodes) -------

    def _activate(self, proc: _Rank) -> None:
        now = self._now
        rank = proc.rank
        self._fp.add(rank)
        while True:
            state = proc.state
            if state == _DONE:
                if proc.pending_inject is not None:
                    self._try_inject(proc)
                if proc.arrived:
                    self._try_drain(proc)
                return
            if self._lt(now, proc.busy_until):
                self._sched_activation(proc, proc.busy_until)
                return
            if state == _SLEEPING or state == _WAIT_BARRIER:
                if proc.arrived:
                    self._try_drain(proc)
                return
            if proc.pending_inject is not None:
                if self._try_inject(proc):
                    proc.state = _RUNNING
                    continue
                proc.state = _STALL_SEND
                if proc.arrived:
                    self._try_drain(proc)
                return
            op = proc.pending
            if op is None:
                ip = proc.ip
                if ip >= proc.n_ops:
                    proc.state = _DONE
                    proc.finished_at = now
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                op = proc.ops[ip]
                proc.ip = ip + 1
                proc.pending = op
            kind = op[0]
            if kind == OP_SEND:
                # earliest = max(last_send_start + si, port_free): the
                # machine's branchy form is value-equal to the fold.
                earliest = self._max(
                    self._add(
                        proc.last_send_start, _T_SI, 0.0, self._si
                    ),
                    proc.port_free,
                )
                if self._lt(now, earliest):
                    proc.state = _WAIT_GAP
                    self._sched_activation(proc, earliest)
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                end = self._add(now, _T_O, 0.0, self._o)
                proc.pending_inject = _Message(rank, op[1], op[3], op[2])
                self._total_messages += 1
                proc.last_send_start = now
                proc.sends += 1
                proc.busy_until = end
                proc.last_activity = self._max(proc.last_activity, end)
                self._sched(end, _EV_INJECT, proc)
                # Eager advance, as the machine does at send commit.
                proc.state = _RUNNING
                ip = proc.ip
                if ip >= proc.n_ops:
                    proc.pending = None
                    proc.state = _DONE
                    proc.finished_at = end
                    return
                proc.ip = ip + 1
                proc.pending = proc.ops[ip]
                return
            if kind == OP_RECV:
                if self._mailbox_take(proc, op[1]):
                    proc.pending = None
                    proc.state = _RUNNING
                    continue
                proc.state = _WAIT_RECV
                if proc.arrived:
                    self._try_drain(proc)
                return
            if kind == OP_COMPUTE:
                cycles = op[1]
                if self._jitter is not None:
                    cycles = float(self._jitter(rank, cycles))
                    if cycles < 0:
                        raise SimulationError(
                            f"compute_jitter returned negative cycles "
                            f"{cycles} for proc {rank}"
                        )
                end = self._add(now, _T_LIT, cycles, cycles)
                proc.busy_until = end
                proc.last_activity = self._max(proc.last_activity, end)
                proc.pending = None
                proc.state = _RUNNING
                if cycles > 0:
                    if proc.pending_activations:
                        self._supersede_activations(proc, end)
                    self._sched_activation(proc, end)
                    return
                continue
            if kind == OP_SLEEP:
                proc.state = _SLEEPING
                wake = self._add(now, _T_LIT, op[1], op[1])
                proc.pending = None
                self._sched(wake, _EV_WAKE, proc, wake)
                if proc.arrived:
                    self._try_drain(proc)
                return
            if kind == OP_POLL:
                if proc.arrived:
                    gate = self._add(
                        proc.last_recv_start, _T_G, 0.0, self._g
                    )
                    if not self._lt(now, gate):
                        proc.state = _POLLING
                        self._try_drain(proc)
                        return
                proc.pending = None
                proc.state = _RUNNING
                continue
            if kind == OP_NOW:
                # The machine resumes the generator with the clock and
                # pays nothing; here the reading was baked in at compile
                # time — the domain checks (or records) it.
                self._observe_now(proc, now, op[1])
                proc.pending = None
                continue
            # OP_BARRIER
            proc.pending = None
            proc.state = _WAIT_BARRIER
            self._fp.add(self._P)
            waiting = self._barrier_waiting
            waiting.append(rank)
            if len(waiting) == self._P:
                self._release_barrier()
            elif proc.arrived:
                self._try_drain(proc)
            return

    # -- receive side ------------------------------------------------

    def _mailbox_take(self, proc: _Rank, tag) -> bool:
        mailbox = proc.mailbox
        if tag is None:
            if mailbox:
                mailbox.popleft()
                return True
            return False
        for i, t in enumerate(mailbox):
            if t == tag:
                del mailbox[i]
                return True
        return False

    def _try_drain(self, proc: _Rank) -> None:
        self._fp.add(proc.rank)
        if not proc.arrived or proc.state == _RUNNING:
            return
        now = self._now
        if self._lt(now, proc.busy_until):
            self._sched_activation(proc, proc.busy_until)
            return
        if proc.pending_inject is not None and proc.stall_started is None:
            return  # send priority: the injection owns the port
        earliest = self._add(proc.last_recv_start, _T_G, 0.0, self._g)
        if self._lt(now, earliest):
            self._sched_activation(proc, earliest)
            return
        msg = proc.arrived.popleft()
        end = self._add(now, _T_O, 0.0, self._o)
        rank = proc.rank
        proc.last_recv_start = now
        proc.busy_until = end
        proc.receives += 1
        proc.last_activity = self._max(proc.last_activity, end)
        if proc.pending_activations:
            self._supersede_activations(proc, end)
        self._inflight_to[rank] -= 1
        if self._stall_queue[rank]:
            self._release_dst_slot(rank)
        self._sched(end, _EV_RECV_DONE, proc, msg)

    def _on_recv_done(self, proc: _Rank, msg: _Message) -> None:
        self._fp.add(proc.rank)
        state = proc.state
        tag = msg.tag
        if state == _WAIT_RECV and not proc.mailbox:
            want = proc.pending[1]
            if want is None or want == tag:
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        proc.mailbox.append(tag)
        if state == _POLLING:
            self._activate(proc)
            return
        if state == _WAIT_RECV:
            if self._mailbox_take(proc, proc.pending[1]):
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        if proc.arrived and proc.state != _RUNNING:
            self._try_drain(proc)
        if proc.state == _STALL_SEND or proc.state == _WAIT_GAP:
            self._sched_activation(
                proc, self._max(self._now, proc.busy_until)
            )

    # -- injection / capacity (mirrors machine.py) -------------------

    def _on_inject(self, proc: _Rank) -> None:
        self._fp.add(proc.rank)
        if proc.pending_inject is None:
            return
        if self._try_inject(proc):
            self._activate(proc)
        else:
            if proc.state != _DONE:
                proc.state = _STALL_SEND
            if proc.arrived:
                self._try_drain(proc)

    def _try_inject(self, proc: _Rank) -> bool:
        msg = proc.pending_inject
        now = self._now
        rank = msg.src
        dst = msg.dst
        self._fp.add(rank)
        self._fp.add(dst)
        if self._enforce:
            needs_src = self._cap_ge(self._inflight_from[rank])
            needs_dst = self._cap_ge(self._inflight_to[dst])
            if needs_src or needs_dst:
                self._park(proc, dst, needs_src, needs_dst)
                return False
        if proc.stall_started is not None:
            proc.stall_time = self._accrue(
                proc.stall_time, now, proc.stall_started
            )
            proc.last_activity = self._max(proc.last_activity, now)
            proc.stall_started = None
        if proc.queued_on is not None:
            self._stall_queue[proc.queued_on].remove(rank)
            proc.queued_on = None
        arrive = self._flight(proc, now, rank, dst, msg.words)
        self._inflight_from[rank] += 1
        self._inflight_to[dst] += 1
        proc.pending_inject = None
        self._sched(arrive, _EV_ARRIVAL, msg)
        return True

    def _flight(self, proc: _Rank, now, src: int, dst: int, words: int):
        """Arrival time of an injection at ``now``.

        Float orderings mirror machine._try_inject exactly: the inlined
        path folds stream before flight, ``(now + stream) + flight``;
        the fabric path adds stream to the submitted arrival,
        ``submit(now) + stream``, with ``port_free = now + stream``
        computed on its own.
        """
        fixed = self._fixed
        if words > 1:
            k = float(words - 1)
            stream = k * (self._G or 0.0)
            positive = self._stream_positive(stream)
            if fixed is not None:
                withstream = self._add(now, _T_GLONG, k, stream)
                if positive:
                    proc.port_free = withstream
                return self._add(withstream, fixed[0], fixed[1], fixed[2])
            arrive = self._add(
                self._submit_flight(now, src, dst), _T_GLONG, k, stream
            )
            if positive:
                proc.port_free = self._add(now, _T_GLONG, k, stream)
            return arrive
        if fixed is not None:
            return self._add(now, fixed[0], fixed[1], fixed[2])
        return self._submit_flight(now, src, dst)

    def _park(
        self, proc: _Rank, dst: int, needs_src: bool, needs_dst: bool
    ) -> None:
        if proc.stall_started is None:
            proc.stall_started = self._now
            if self._collect:
                self._feed.append(
                    StallEvent(
                        self._now, proc.rank, dst, needs_src, needs_dst
                    )
                )
        if proc.queued_on is None:
            proc.queued_on = dst
            self._stall_queue[dst].append(proc.rank)

    def _release_src_slot(self, src: int) -> None:
        self._fp.add(src)
        proc = self._procs[src]
        if proc.stall_started is None or proc.pending_inject is None:
            return
        dst = proc.pending_inject.dst
        self._fp.add(dst)
        admitted = not self._cap_ge(
            self._inflight_from[src]
        ) and not self._cap_ge(self._inflight_to[dst])
        if self._collect:
            self._feed.append(
                WakeupEvent(self._now, src, dst, "src", src, admitted)
            )
        if admitted:
            self._sched_activation(
                proc, self._max(self._now, proc.busy_until)
            )

    def _release_dst_slot(self, dst: int) -> None:
        self._fp.add(dst)
        queue = self._stall_queue[dst]
        if not queue:
            return
        # In flight to dst plus admissions so far: the count is
        # path-structural, the capacity it is tested against per-point.
        count = self._inflight_to[dst]
        for rank in queue:
            if self._cap_ge(count):
                break
            self._fp.add(rank)
            admitted = not self._cap_ge(self._inflight_from[rank])
            if self._collect:
                self._feed.append(
                    WakeupEvent(self._now, rank, dst, "dst", dst, admitted)
                )
            if admitted:
                count += 1
                waiter = self._procs[rank]
                self._sched_activation(
                    waiter, self._max(self._now, waiter.busy_until)
                )

    def _on_arrival(self, msg: _Message) -> None:
        src = msg.src
        self._fp.add(src)
        self._fp.add(msg.dst)
        self._inflight_from[src] -= 1
        src_proc = self._procs[src]
        if src_proc.stall_started is not None:
            self._release_src_slot(src)
        dst = self._procs[msg.dst]
        dst.arrived.append(msg)
        if dst.state != _RUNNING:
            if not self._lt(self._now, dst.busy_until):
                self._try_drain(dst)
            else:
                self._sched_activation(dst, dst.busy_until)

    # -- sleep / barrier ---------------------------------------------

    def _on_wake(self, proc: _Rank, wake) -> None:
        self._fp.add(proc.rank)
        if proc.state == _SLEEPING and not self._lt(self._now, wake):
            if self._lt(self._now, proc.busy_until):
                self._sched(proc.busy_until, _EV_WAKE, proc, wake)
                return
            proc.state = _RUNNING
            self._activate(proc)

    def _release_barrier(self) -> None:
        self._fp.add(self._P)
        release = self._add(
            self._now, _T_LIT, self._hw_barrier, self._hw_barrier
        )
        waiting = self._barrier_waiting
        self._barrier_waiting = []
        for rank in waiting:
            self._fp.add(rank)
            proc = self._procs[rank]
            self._sched(
                self._max(release, proc.busy_until), _EV_BARRIER, rank
            )

    def _on_barrier_release(self, rank: int) -> None:
        self._fp.add(rank)
        proc = self._procs[rank]
        if proc.state == _WAIT_BARRIER:
            proc.state = _RUNNING
            self._activate(proc)

    # -- end-of-run invariants ---------------------------------------

    def _check_completion(self) -> None:
        stuck = [p.rank for p in self._procs if p.state != _DONE]
        if stuck:
            raise SimulationError(
                f"deadlock: procs {stuck} never finished"
            )
        for proc in self._procs:
            if proc.arrived:
                raise SimulationError(
                    f"proc {proc.rank} ended with {len(proc.arrived)} "
                    "undrained arrivals"
                )
            if proc.pending_inject is not None or proc.queued_on is not None:
                raise SimulationError(
                    f"proc {proc.rank} ended with a pending injection"
                )


class _FloatArith:
    """Float time arithmetic: each hook is the plain float operation.

    Shared by the machine core's float domain and fold's float walk.
    """

    def _lit(self, v: float) -> float:
        return v

    def _val(self, t: float) -> float:
        return t

    def _add(self, t: float, term: int, k: float, termval: float) -> float:
        return t + termval

    def _max(self, a: float, b: float) -> float:
        return a if a >= b else b

    def _sum(self, a: float, b: float) -> float:
        return a + b

    def _accrue(self, acc: float, now: float, start: float) -> float:
        return acc + (now - start)

    def _lt(self, a: float, b: float) -> bool:
        return a < b


class _FloatDomain(_FloatArith, _Core):
    """The core at concrete parameters: what :func:`evaluate` runs."""

    #: No dependency order to keep: the footprint set is write-only.
    _settle = None

    def __init__(
        self,
        compiled: CompiledProgram,
        params,
        timing: tuple,
        *,
        collect_stalls: bool,
        check_now: bool,
        **core,
    ):
        self._fixed = _fixed_flight(timing, params)
        self._submit = None if self._fixed is not None else timing[1].submit
        self._collect = collect_stalls
        self._feed: list = []
        self._check_now = check_now
        self._now_values: list[list[float]] | None = (
            [[] for _ in range(compiled.P)] if compiled.uses_now else None
        )
        _Core.__init__(self, compiled, params, **core)

    def _cap_ge(self, count: int) -> bool:
        return count >= self._capacity

    def _stream_positive(self, stream: float) -> bool:
        return stream > 0

    def _submit_flight(self, now: float, src: int, dst: int) -> float:
        return self._submit(src, dst, now)[0]

    def _observe_now(self, proc: _Rank, now: float, assumed: float) -> None:
        self._now_values[proc.rank].append(now)
        if self._check_now and now != assumed:
            raise TimingDivergence(
                f"proc {proc.rank} observed Now()={now} but the "
                f"schedule was compiled assuming {assumed}; "
                "control flow after this point is not this "
                "schedule's — recompile at this parameter "
                "point (compile_at) or use the event machine"
            )

    def _sched(self, time: float, code: int, a, b=None) -> int:
        now = self._now
        if time < now:
            if time < now - _PAST_TOL:
                raise SimulationError(
                    f"event scheduled at {time} before current time {now}"
                )
            time = now
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, time, code, a, b)
        queue = self._queue
        if not queue or queue[-1] < entry:
            queue.append(entry)
        else:
            insort(queue, entry)
        return seq

    def _sched_activation(self, proc: _Rank, time: float) -> None:
        pending = proc.pending_activations
        if time not in pending:
            pending[time] = self._sched(time, _EV_ACTIVATION, proc, time)

    def _supersede_activations(self, proc: _Rank, until: float) -> None:
        pending = proc.pending_activations
        stale = [t for t in pending if t < until]
        if stale:
            cancelled = self._cancelled
            for t in stale:
                cancelled.add(pending.pop(t))

    def result(self, compiled: CompiledProgram) -> CompiledResult:
        makespan, total_stall = self.run()
        procs = self._procs
        return CompiledResult(
            makespan=makespan,
            total_messages=self._total_messages,
            total_stall_time=total_stall,
            events_run=self._events,
            values=compiled.values,
            finished_at=[p.finished_at for p in procs],
            sends=[p.sends for p in procs],
            receives=[p.receives for p in procs],
            stall_time=[p.stall_time for p in procs],
            stall_events=self._feed,
            collected_stalls=self._collect,
            now_values=self._now_values,
        )


def evaluate(
    compiled: CompiledProgram,
    params,
    *,
    L: float | None = None,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    collect_stalls: bool = False,
    max_events: int = 50_000_000,
    check_now: bool = True,
) -> CompiledResult:
    """Run one compiled program at concrete parameters.

    Semantically ``LogPMachine(params, latency=..., fabric=...)
    .run(factory)`` for the factory that produced ``compiled`` — bit
    identical, enforced by the fuzz differential.  Keyword arguments
    mirror the machine's:

    Args:
        compiled: output of :func:`compile_programs`.
        params: :class:`~repro.core.params.LogPParams` (or LogGP
            subclass) with ``params.P == compiled.P``.
        L: fixed message latency; defaults to ``params.L``.  Like the
            machine's latency-bound check, ``L`` may not exceed
            ``params.L`` (capacity is derived from ``params.L``).
            Mutually exclusive with ``latency``/``fabric``.
        latency: a :class:`~repro.sim.latency.LatencyModel`, exactly as
            the machine takes it — reset at run start, drawn once per
            injection in event order, so seeded models reproduce the
            machine's draw sequence bit for bit.
        fabric: a non-lossy :class:`~repro.sim.net.Fabric`; its
            ``submit`` is called at the machine's exact call sites.
            Mutually exclusive with ``latency``.
        enforce_capacity: apply the ceil(L/g) in-flight limit.
        capacity: override the per-endpoint in-flight limit.
        hw_barrier_cost: cost added at barrier release.
        compute_jitter: per-(rank, cycles) adjustment; deterministic
            callables only (the machine accepts the same hook).
        collect_stalls: record the StallEvent/WakeupEvent feed so
            :meth:`CompiledResult.stall_report` works.
        max_events: safety budget, as in the machine.
        check_now: verify each ``OP_NOW`` assumption against the actual
            clock, raising :class:`TimingDivergence` on mismatch.
            ``False`` records observations instead (:func:`compile_at`'s
            probe mode) — results of a mismatched probe run are
            internal iteration state, not machine-identical output.
    """
    if params.P != compiled.P:
        raise ValueError(
            f"params.P={params.P} does not match compiled P={compiled.P}"
        )
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    timing = _resolve_timing([params], L, latency, fabric)
    if timing[0] in ("draw", "fabric"):
        timing[1].reset()
        timing[1].attach(None, compiled.P, False)
    if capacity is None:
        capacity = params.capacity
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if compiled.max_words > 1 and getattr(params, "G", None) is None:
        raise SimulationError(
            f"multi-word send (words={compiled.max_words}) requires "
            "LogGP parameters with a per-word gap G"
        )
    return _FloatDomain(
        compiled,
        params,
        timing,
        collect_stalls=collect_stalls,
        check_now=check_now,
        enforce_capacity=enforce_capacity,
        capacity=capacity,
        hw_barrier_cost=hw_barrier_cost,
        compute_jitter=compute_jitter,
        max_events=max_events,
    ).result(compiled)


def compile_at(
    programs,
    P: int,
    params,
    *,
    max_passes: int = 16,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
) -> CompiledProgram:
    """Lower a timing-dependent program at one parameter point.

    A program that observes ``Now`` cannot compile parameter-free, but
    it *can* compile against an assumed clock: feed ``Now`` resume
    values from an oracle, evaluate the resulting schedule at
    ``params``, observe the actual clock readings, and iterate until
    the observations equal the assumptions exactly (``==``, no
    tolerance).  At the fixed point the generators were driven with
    precisely the resume values the machine would deliver, so the
    schedule — and its evaluation — is the machine's, bit for bit.

    Bounded timing dependence (``Now`` feeding comparisons against
    schedule-derived times) reaches the fixed point in a couple of
    passes — each pass resolves one layer of the clock-dependency
    chain.  Programs whose action sequence feeds back into its own
    observation times may cycle; after ``max_passes`` the refusal is a
    loud :class:`CompileError` (so ``backend="auto"`` falls back to the
    machine with the reason).

    ``programs`` must be a *factory* ``(rank, P) -> generator`` —
    every pass drives fresh generators.
    """
    if not callable(programs):
        raise CompileError(
            "timing-dependent lowering recompiles per pass, which "
            "requires a program factory (rank, P) -> generator, not "
            "a sequence of already-built generators"
        )
    oracle: list[list[float]] = [[] for _ in range(P)]
    for _ in range(max_passes):
        try:
            compiled = compile_programs(programs, P, now_values=oracle)
        except CompileError:
            raise
        except Exception as exc:
            # A provisional clock can steer the program into errors the
            # true schedule never hits (negative compute from 0.0 - x,
            # assertion failures on branch shape).  That is a lowering
            # failure, not a configuration error — refuse as
            # CompileError so backend="auto" can take the machine path.
            raise CompileError(
                "timing-dependent lowering failed while driving "
                f"generators at an assumed clock: {exc}"
            ) from exc
        if not compiled.uses_now:
            return compiled
        try:
            res = evaluate(
                compiled,
                params,
                latency=latency,
                fabric=fabric,
                enforce_capacity=enforce_capacity,
                capacity=capacity,
                hw_barrier_cost=hw_barrier_cost,
                compute_jitter=compute_jitter,
                max_events=max_events,
                check_now=False,
            )
        except SimulationError as exc:
            raise CompileError(
                "timing-dependent lowering failed while probing an "
                f"assumed clock: {exc}"
            ) from exc
        assumed = [
            [op[1] for op in rank_ops if op[0] == OP_NOW]
            for rank_ops in compiled.ops
        ]
        observed = res.now_values
        if observed == assumed:
            return compiled
        oracle = observed
    raise CompileError(
        f"timing-dependent schedule did not reach a fixed point in "
        f"{max_passes} passes at {params!r}: the program's action "
        "sequence feeds back into its own clock observations — run "
        "it on the event machine"
    )
