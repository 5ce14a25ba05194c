"""The simulated LogP machine.

:class:`LogPMachine` executes one program (a generator, see
:mod:`repro.sim.program`) per processor and enforces the model's
semantics from Section 3 of the paper:

* each send and each receive engages the processor for ``o`` cycles;
* consecutive sends at one processor start at least ``max(g, o)`` apart,
  and likewise consecutive receives (the gap ``g`` in both directions);
* at most ``ceil(L/g)`` messages may be *in transit* from any processor
  or to any processor; a transmission that would exceed either limit
  stalls the sender until a slot frees (the capacity constraint);
* message flight time is drawn from a :class:`~repro.sim.latency.LatencyModel`
  (exactly ``L`` by default; random ``<= L`` to exercise asynchrony and
  out-of-order delivery);
* processors are engaged during ``Compute`` and cannot service messages;
  while idle, sleeping, stalled or waiting they *drain* arrived messages
  (paying ``o`` per message, respecting the receive gap) — this is what
  lets a stalled sender's destination keep accepting one message per
  ``g`` cycles, the behaviour the paper's naive-FFT-schedule analysis
  describes ("one will send to processor 0 every g cycles").

Capacity accounting — the reading under which the model is
self-consistent: a message is *in transit from its source* between
injection (``send_start + o``) and arrival, so a sender pacing itself at
``g`` keeps at most ``L/g <= ceil(L/g)`` of its own messages in flight
and never self-stalls; it is *in transit to its destination* between
injection and the start of the destination's reception, so a flooded
destination — which drains at most one message per ``g`` — back-pressures
its senders, exactly the "all but L/g processors will stall on the first
send" dynamics of Section 4.1.2.  The capacity check happens at the
moment of injection ("if a processor attempts to transmit a message that
would exceed this limit, it stalls until the message can be sent"): the
send overhead is paid first, then the message waits at the interface —
with the processor stalled but able to service incoming messages — until
the network accepts it.

Stalled senders are tracked in an explicit *wait-graph*: each parked
sender records the full set of capacity slots its injection needs (its
own outbound slot, the destination's inbound slot, or both), and every
slot release scans the waiters of that slot in FIFO order, admitting
every sender whose complete constraint set is satisfiable at release
time.  Admission is a *re-examination*, not a reservation — the admitted
sender re-checks the constraint when its activation fires and re-parks
(keeping its queue position) if another injection took the slot first.
This closes the lost-wakeup hazard of a head-of-queue waiter that is
also blocked on its own outbound capacity: the freed destination slot
flows past it to the first waiter that can actually use it, and the
skipped waiter is woken later by whichever of its slots frees last.
Every park and every wakeup verdict is emitted on a structured event
feed (:class:`~repro.sim.trace.StallEvent` /
:class:`~repro.sim.trace.WakeupEvent`) so stall causality is observable.

Hot-path design (see the "Performance" section of DESIGN.md): every
event is a *bound method plus payload* scheduled directly on the engine
(``engine.schedule(t, self._on_arrival, msg)``), never a per-event
closure; processor activations are deduplicated through a per-processor
``{time: event-id}`` map and *lazily deleted* via :meth:`Engine.cancel`
when a reception or computation supersedes them, so stale wakeups die in
the event queue instead of being re-examined inside :meth:`_activate`;
and the dominant send→inject→arrival→recv-done chain skips all trace
bookkeeping (interval records, stall feed, per-message detail strings)
when ``trace=False``.  Program actions are matched by exact type — the
action vocabulary of :mod:`repro.sim.program` is closed.

The run produces a :class:`~repro.core.schedule.Schedule` trace that the
semantic validator (:mod:`repro.sim.validate`) and the figure benchmarks
consume.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Hashable, Iterable

from ..core.params import LogPParams
from ..core.schedule import Activity, MessageRecord, Schedule
from .engine import Engine, SimulationError
from .faults import (
    CrashRecover,
    CrashStop,
    FaultPlan,
    FixedRetry,
    HeartbeatConfig,
    RetryPolicy,
    Slowdown,
)
from .latency import FixedLatency, LatencyModel
from .net.fabric import Fabric, FabricReport, LatencyFabric
from .trace import (
    CrashEvent,
    FaultReport,
    NetStallEvent,
    RecoverEvent,
    StallEvent,
    StallReport,
    SuspectEvent,
    WakeupEvent,
    stall_report,
)
from .program import (
    Barrier,
    Checkpoint,
    Compute,
    Now,
    Poll,
    ProgramResult,
    ReceivedMessage,
    Recv,
    Restore,
    RestoreInfo,
    Send,
    Sleep,
    Suspects,
)

__all__ = ["LogPMachine", "MachineResult", "run_programs"]

Program = Generator[Any, Any, Any]
ProgramFactory = Callable[[int, int], Program]

# Processor states
_RUNNING = "running"
_BUSY = "busy"
_WAIT_GAP = "wait_gap"
_STALL_SEND = "stall_send"
_WAIT_RECV = "wait_recv"
_WAIT_BARRIER = "wait_barrier"
_SLEEPING = "sleeping"
_POLLING = "polling"
_DONE = "done"
_CRASHED = "crashed"

_DRAINABLE = frozenset(
    {
        _WAIT_GAP,
        _STALL_SEND,
        _WAIT_RECV,
        _WAIT_BARRIER,
        _SLEEPING,
        _POLLING,
        _DONE,
    }
)


@dataclass(slots=True)
class _Msg:
    seq: int
    src: int
    dst: int
    payload: Any
    tag: Hashable
    send_start: float
    inject: float
    arrive: float
    words: int = 1
    # Queueing excess inside the network fabric (ContentionFabric);
    # 0.0 on uncontended fabrics.
    net_stall: float = 0.0


class _Proc:
    """Per-processor simulator state."""

    __slots__ = (
        "rank",
        "gen",
        "state",
        "pending",
        "resume",
        "busy_until",
        "last_send_start",
        "last_recv_start",
        "last_activity",
        "mailbox",
        "arrived",
        "stall_started",
        "result",
        "pending_activations",
        "poll_drained",
        "pending_inject",
        "needs_src",
        "needs_dst",
        "queued_on",
        "port_free",
        "wait_token",
    )

    def __init__(self, rank: int, gen: Program) -> None:
        self.rank = rank
        self.gen = gen
        self.state = _RUNNING
        self.pending: Any = None
        self.resume: Any = None
        self.busy_until = 0.0
        self.last_send_start = -math.inf
        self.last_recv_start = -math.inf
        # End of the latest recorded activity interval; gives untraced
        # runs the same makespan a full Schedule would report.
        self.last_activity = 0.0
        self.mailbox: deque[ReceivedMessage] = deque()
        self.arrived: deque[_Msg] = deque()
        self.stall_started: float | None = None
        self.result = ProgramResult(rank=rank)
        # time -> engine event id of every not-yet-fired activation, so
        # duplicate same-time activations are suppressed regardless of
        # the order wake conditions fire in, and superseded activations
        # can be lazily cancelled in the event queue.
        self.pending_activations: dict[float, int] = {}
        self.poll_drained = 0
        # A committed message (send overhead already paid) waiting for
        # the network to accept it under the capacity constraint.
        self.pending_inject: "_Msg | None" = None
        # Wait-graph node: which capacity slots the parked injection
        # needs (refreshed on every failed attempt), and the destination
        # whose FIFO waiter list currently holds this processor.
        self.needs_src = False
        self.needs_dst = False
        self.queued_on: int | None = None
        # When this processor's network port finishes streaming the
        # current long message (LogGP extension); 1-word messages leave
        # the port free immediately.
        self.port_free = 0.0
        # Monotonic counter of blocking-Recv waits, so a stale
        # Recv-timeout event can recognize that the wait it armed for is
        # over (never reset, even across crash-recovery restarts).
        self.wait_token = 0


@dataclass(slots=True)
class MachineResult:
    """Everything a run produces."""

    params: LogPParams
    makespan: float
    results: list[ProgramResult]
    schedule: Schedule | None
    total_messages: int
    total_stall_time: float
    events_run: int
    traced: bool = True
    fabric: Fabric | None = None
    stall_events: list[StallEvent | WakeupEvent | NetStallEvent] = field(
        default_factory=list
    )
    extras: dict[str, Any] = field(default_factory=dict)

    def value(self, rank: int) -> Any:
        """Final return value of processor ``rank``'s program."""
        return self.results[rank].value

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    def stall_report(self) -> StallReport:
        """Condense the stall/wakeup event feed.

        Raises:
            ValueError: if the run was untraced — the machine does not
                collect the stall/wakeup feed with ``trace=False``, so a
                report would be silently (and misleadingly) empty.
        """
        if not self.traced:
            raise ValueError(
                "stall_report() requires a traced run: the stall/wakeup "
                "event feed is not collected with trace=False. Re-run "
                "the machine with trace=True."
            )
        return stall_report(self.stall_events)

    def fabric_report(self) -> FabricReport:
        """Network-side traffic summary of the run (per-link utilization,
        queue-depth high-water marks, total NetStall excess).

        Raises:
            ValueError: if the run was untraced — fabric observability
                is trace-gated so the untraced hot path stays fast.
        """
        if not self.traced:
            raise ValueError(
                "fabric_report() requires a traced run: fabric "
                "statistics are trace-gated. Re-run the machine with "
                "trace=True."
            )
        assert self.fabric is not None
        return self.fabric.report()

    def fault_report(self) -> FaultReport:
        """Condense the run's processor-fault bookkeeping.

        Unlike :meth:`stall_report`, this works on untraced runs too:
        fault events are rare, so the machine collects them whenever a
        :class:`~repro.sim.faults.FaultPlan` or
        :class:`~repro.sim.faults.HeartbeatConfig` is attached.  A run
        with neither returns an empty (all-zero) report.
        """
        data = self.extras.get("faults")
        if data is None:
            return FaultReport()
        counts = data["counts"]
        events = data["events"]
        return FaultReport(
            crashes=[e for e in events if type(e) is CrashEvent],
            recoveries=[e for e in events if type(e) is RecoverEvent],
            suspects=[e for e in events if type(e) is SuspectEvent],
            dropped_in_flight=counts["dropped_in_flight"],
            dropped_at_dead_interface=counts["dropped_at_dead_interface"],
            reaped_parked=counts["reaped_parked"],
            gave_up_sends=counts["gave_up_sends"],
            duplicate_deliveries=counts["duplicate_deliveries"],
            heartbeats_sent=counts["heartbeats_sent"],
            checkpoints=counts["checkpoints"],
            restores=counts["restores"],
            slowed_computes=counts["slowed_computes"],
            wedged_ranks=list(counts["wedged_ranks"]),
            unreceived_messages=counts["unreceived_messages"],
        )


class LogPMachine:
    """A simulated LogP machine.

    Args:
        params: the four LogP parameters.
        latency: network flight-time model; defaults to the deterministic
            ``FixedLatency(params.L)`` the paper's analyses assume.
            Mutually exclusive with ``fabric`` (a plain latency model is
            run as a :class:`~repro.sim.net.LatencyFabric`).
        fabric: network fabric the machine delegates transport to (see
            :mod:`repro.sim.net`).  The fabric's unloaded bound must not
            exceed ``params.L``.  A *lossy* fabric
            (:class:`~repro.sim.net.FaultyFabric`) activates the
            sender-side timeout-and-retry protocol: deliveries are
            acknowledged over a reliable control channel (ack flight =
            the fabric bound), unacked messages are retransmitted every
            ``retry_timeout`` cycles up to ``max_retries`` times, and
            duplicate copies are discarded at the receiving network
            interface — programs observe exactly-once delivery.  Lossy
            runs disable the capacity constraint (retransmissions live
            below the model's capacity accounting).
        retry_timeout: cycles a lossy-fabric sender waits for an ack
            before retransmitting.  The default is
            ``2*bound + ack_latency + 2*o + 1`` — and since the ack
            flies over the control channel in exactly ``ack_latency ==
            bound`` cycles, that computes to ``3*bound + 2*o + 1``, just
            past the worst-case uncontended round trip (data flight
            ``<= bound``, receive ``o``, ack flight ``bound``, send
            ``o``, plus one cycle of slack).  Shorthand for
            ``retry_policy=FixedRetry(retry_timeout)``; mutually
            exclusive with ``retry_policy``.
        retry_policy: pluggable retransmission schedule
            (:class:`~repro.sim.faults.RetryPolicy`): fixed interval,
            exponential backoff with deterministic jitter, or
            budget-capped.  Each attempt ``k`` waits
            ``policy.delay(k, seq)`` cycles; a policy ``budget`` caps
            the total unacked time, after which the sender gives up
            (an error on a fault-free run, a counted ``gave_up_send``
            under a fault plan).  Backoff interacts with ``max_retries``
            multiplicatively: the protocol stops at whichever of
            ``max_retries`` attempts / the policy budget binds first.
        max_retries: retransmissions before a lossy run fails with
            :class:`SimulationError` (or, under a fault plan, gives the
            message up — how a peer's crash resolves at the sender).
        fault_plan: optional :class:`~repro.sim.faults.FaultPlan` of
            processor faults (crash-stop, crash-recover, slowdown).  A
            crashed rank stops executing, its parked wait-graph entry is
            reaped, its in-flight messages are dropped mid-worm, and
            messages addressed to it vanish at the dead interface (on a
            lossy fabric, peers' ARQ retries then time out and give
            up).  Crash-recovery restarts the rank's program — the run
            must be given a program *factory*, and the restarted
            program can read its last ``Checkpoint`` via ``Restore``.
            End-of-run deadlock checks are relaxed: survivors wedged on
            a dead peer are recorded in :meth:`MachineResult.fault_report`
            instead of raising.
        heartbeat: optional :class:`~repro.sim.faults.HeartbeatConfig`
            activating the failure detector.  Every ``period`` cycles
            each alive rank's interface emits heartbeats to its
            watchers; emissions serialize on the sender's message port
            under the usual ``max(g, o)`` spacing and each delivery
            occupies the watcher's receive port, so detector cost is
            real ``o``/``g`` traffic that delays program communication
            and shows up in the makespan.  Watchers that hear nothing
            for more than ``timeout`` cycles suspect the silent rank;
            programs read the local suspicion set with ``Suspects()``.
        enforce_capacity: apply the ``ceil(L/g)`` constraint (disable for
            the capacity ablation).  Slots are held per the module
            docstring: source slots over [inject, arrive), destination
            slots over [inject, recv_start), checked at injection.
        capacity: override the in-flight limit (default ``params.capacity``).
        hw_barrier_cost: cycles a hardware ``Barrier`` costs after the
            last processor arrives (CM-5 control network, Section 5.5).
        compute_jitter: optional ``f(rank, cycles) -> actual_cycles``
            applied to every ``Compute`` — models the processor drift of
            Section 4.1.4 / Figure 8.
        trace: record a full :class:`Schedule` (intervals + message
            records) and the stall/wakeup event feed.  Turn off for
            large runs; summary statistics are kept either way.
        max_events: event budget passed to the engine.
    """

    def __init__(
        self,
        params: LogPParams,
        *,
        latency: LatencyModel | None = None,
        fabric: Fabric | None = None,
        retry_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        max_retries: int = 8,
        fault_plan: FaultPlan | None = None,
        heartbeat: HeartbeatConfig | None = None,
        enforce_capacity: bool = True,
        capacity: int | None = None,
        hw_barrier_cost: float = 0.0,
        compute_jitter: Callable[[int, float], float] | None = None,
        trace: bool = True,
        max_events: int = 50_000_000,
    ) -> None:
        if hw_barrier_cost < 0:
            raise ValueError(f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}")
        self.params = params
        if fabric is None:
            model = latency if latency is not None else FixedLatency(params.L)
            if model.L > params.L + 1e-12:
                raise ValueError(
                    f"latency model bound {model.L} exceeds L={params.L}"
                )
            self.latency = model
            self.fabric: Fabric = LatencyFabric(model)
        else:
            if latency is not None:
                raise ValueError(
                    "give latency or fabric, not both (a plain latency "
                    "model is run as a LatencyFabric)"
                )
            if fabric.bound > params.L + 1e-12:
                raise ValueError(
                    f"fabric unloaded bound {fabric.bound} exceeds "
                    f"L={params.L}"
                )
            self.fabric = fabric
            self.latency = (
                fabric.model if isinstance(fabric, LatencyFabric) else None
            )
        if retry_timeout is not None and retry_timeout <= 0:
            raise ValueError(f"retry_timeout must be > 0, got {retry_timeout}")
        if retry_timeout is not None and retry_policy is not None:
            raise ValueError(
                "give retry_timeout or retry_policy, not both "
                "(retry_timeout is shorthand for FixedRetry(retry_timeout))"
            )
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise TypeError(
                f"retry_policy must be a RetryPolicy, got {retry_policy!r}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.retry_timeout = retry_timeout
        self.retry_policy = retry_policy
        self.max_retries = max_retries
        if fault_plan is not None:
            if not isinstance(fault_plan, FaultPlan):
                raise TypeError(
                    f"fault_plan must be a FaultPlan, got {fault_plan!r}"
                )
            fault_plan.validate_for(params.P)
        self.fault_plan = fault_plan
        if heartbeat is not None and not isinstance(heartbeat, HeartbeatConfig):
            raise TypeError(
                f"heartbeat must be a HeartbeatConfig, got {heartbeat!r}"
            )
        self.heartbeat = heartbeat
        self.enforce_capacity = enforce_capacity
        self._enforce = enforce_capacity
        self.capacity = params.capacity if capacity is None else capacity
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self.hw_barrier_cost = hw_barrier_cost
        self.compute_jitter = compute_jitter
        self.trace = trace
        self.max_events = max_events
        # Long-message Gap (Section 5.4 extension), present when the
        # machine is built from LogGPParams.
        self._G: float | None = getattr(params, "G", None)
        # Hot-loop copies of the model constants (plain float attribute
        # loads instead of property calls on LogPParams).
        self._o = float(params.o)
        self._g = float(params.g)
        self._send_interval = float(params.send_interval)
        self._P = params.P

    # ------------------------------------------------------------------

    def run(self, programs: Iterable[Program] | ProgramFactory) -> MachineResult:
        """Execute one program per processor and return the result.

        ``programs`` is either a sequence of exactly ``P`` generators or
        a factory called as ``factory(rank, P)``.
        """
        P = self.params.P
        if callable(programs):
            self._factory = programs
            gens = [programs(r, P) for r in range(P)]
        else:
            self._factory = None
            gens = list(programs)
            if len(gens) != P:
                raise ValueError(
                    f"expected {P} programs, got {len(gens)}"
                )
        if (
            self.fault_plan is not None
            and self._factory is None
            and any(
                type(e) is CrashRecover for e in self.fault_plan.events
            )
        ):
            raise ValueError(
                "crash-recovery restarts a rank's program, which "
                "requires run() to be given a program factory "
                "(factory(rank, P)), not a list of generators"
            )

        self._engine = Engine(max_events=self.max_events)
        self._procs = [_Proc(r, g) for r, g in enumerate(gens)]
        self._schedule = Schedule(self.params) if self.trace else None
        self._inflight_from = [0] * P
        self._inflight_to = [0] * P
        # Wait-graph: FIFO waiter list per destination inbound slot.  A
        # parked sender sits in exactly one list (its message's dst) and
        # additionally records, on its _Proc, whether it also needs its
        # own outbound slot; releases of either slot re-examine it.
        self._stall_queue: list[deque[int]] = [deque() for _ in range(P)]
        # Structured stall/wakeup causality feed (traced runs only —
        # unbounded per-wakeup records are too heavy for large untraced
        # sweeps).
        self._stall_feed: list[StallEvent | WakeupEvent | NetStallEvent] = []
        self._barrier_waiting: list[int] = []
        self._barrier_generation = 0
        self._msg_seq = 0
        self._total_messages = 0
        fab = self.fabric
        fab.reset()
        fab.attach(self._engine, P, self.trace)
        self._submit = fab.submit
        self._lossy = fab.lossy
        self._enforce = self.enforce_capacity and not self._lossy
        # Exactly-FixedLatency flight through the transparent wrapper is
        # a constant; inline it instead of paying a call per injection.
        self._fixed_L = (
            fab.model.L
            if type(fab) is LatencyFabric and type(fab.model) is FixedLatency
            else None
        )
        if self._lossy:
            # Sender-side ARQ state: seq -> in-flight message awaiting
            # ack, receiver-side delivered-seq dedup filter, fault
            # bookkeeping surfaced in MachineResult.extras.
            self._awaiting_ack: dict[int, _Msg] = {}
            self._delivered_seqs: set[int] = set()
            self._net_faults = {"retries": 0, "duplicates_suppressed": 0}
            self._ack_latency = fab.bound
            # Default ack-timeout: one worst-case uncontended round trip
            # plus a cycle of slack.  With ack_latency == fab.bound this
            # is 3*bound + 2*o + 1 (see the retry_timeout docstring).
            self._retry_timeout = (
                self.retry_timeout
                if self.retry_timeout is not None
                else 2 * fab.bound + self._ack_latency + 2 * self._o + 1.0
            )
            self._retry_policy = (
                self.retry_policy
                if self.retry_policy is not None
                else FixedRetry(self._retry_timeout)
            )

        # Processor-fault machinery.  All of it is gated: a run with no
        # fault plan and no heartbeat detector takes none of these
        # branches past a single boolean test, keeping the fault-free
        # hot path bit-identical (pinned by the fuzz differentials).
        self._faulty = self.fault_plan is not None
        self._slow = self._faulty and any(
            type(e) is Slowdown for e in self.fault_plan.events
        )
        self._checkpoints: list[Any] | None = None
        self._hb_cfg = self.heartbeat
        if self._faulty or self._hb_cfg is not None:
            self._setup_faults(P)
        else:
            self._fault_counts = None
            self._fault_events: list[Any] = []
            self._suspected: list[set[int]] | None = None
            self._incarnation: list[int] | None = None

        for proc in self._procs:
            self._schedule_activation(proc, 0.0)

        self._engine.run()
        self._check_completion()
        if self.trace and type(fab) is LatencyFabric and self._fixed_L is not None:
            # The inlined FixedLatency fast path bypasses fab.submit();
            # backfill its message count so fabric_report() stays honest.
            fab._messages = self._total_messages

        makespan = max(
            max(p.result.finished_at, p.last_activity) for p in self._procs
        )
        if self._schedule is not None:
            self._schedule.sort_all()
            makespan = max(makespan, self._schedule.makespan)
        # Left-to-right float adds, not sum(): from Python 3.12 sum()
        # compensates its rounding, which the compiled tapes (one add
        # per rank) could not reproduce bit for bit.
        total_stall = 0.0
        for p in self._procs:
            total_stall += p.result.stall_time
        extras: dict[str, Any] = {}
        if self._lossy:
            extras["net_faults"] = {**self._net_faults, **fab.fault_counts}
        if self._fault_counts is not None:
            extras["faults"] = {
                "counts": self._fault_counts,
                "events": self._fault_events,
                "plan": self.fault_plan,
            }
        return MachineResult(
            params=self.params,
            makespan=makespan,
            results=[p.result for p in self._procs],
            schedule=self._schedule,
            total_messages=self._total_messages,
            total_stall_time=total_stall,
            events_run=self._engine.events_run,
            traced=self.trace,
            stall_events=self._stall_feed,
            fabric=self.fabric,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Activation: advance a processor as far as it can go right now.
    # ------------------------------------------------------------------

    def _on_activation(self, proc: _Proc, time: float) -> None:
        proc.pending_activations.pop(time, None)
        self._activate(proc)

    def _schedule_activation(self, proc: _Proc, time: float) -> None:
        pending = proc.pending_activations
        # Suppress duplicate same-time activations (common when several
        # wake conditions fire together).  The full map of pending times
        # is kept — a single "last scheduled" slot forgets the earlier
        # suppression as soon as a different time is scheduled, letting
        # duplicates through when wake conditions interleave.
        if time not in pending:
            pending[time] = self._engine.schedule(
                time, self._on_activation, proc, time
            )

    def _supersede_activations(self, proc: _Proc, until: float) -> None:
        """Lazily delete pending activations strictly before ``until``.

        Call only when the processor is engaged through ``until`` *and*
        a wakeup at (or after) ``until`` is independently guaranteed —
        a reception's recv-done event or a computation's end activation.
        Every cancelled activation would have fired, observed
        ``now < busy_until``, rescheduled itself at ``busy_until`` and
        returned; cancelling it in the event queue skips that dispatch
        entirely (lazy deletion at pop time).
        """
        pending = proc.pending_activations
        if pending:
            cancel = self._engine.cancel
            for t in [t for t in pending if t < until]:
                cancel(pending.pop(t))

    def _activate(self, proc: _Proc) -> None:
        engine = self._engine
        now = engine.now
        rank = proc.rank

        while True:
            state = proc.state
            if state == _DONE:
                # A finished program may still have its last message
                # parked at the network interface (the generator is
                # advanced eagerly at send commit, before injection).
                if proc.pending_inject is not None:
                    self._try_inject(proc)
                if proc.arrived:
                    self._try_drain(proc)
                return
            if state == _CRASHED:
                return
            if now < proc.busy_until:
                self._schedule_activation(proc, proc.busy_until)
                return
            if state == _SLEEPING or state == _WAIT_BARRIER:
                # Woken early (e.g. by an arrival) or a spurious wake
                # while parked at a barrier: drain, stay put.
                if proc.arrived:
                    self._try_drain(proc)
                return

            if proc.pending_inject is not None:
                # A committed message is waiting at the network interface;
                # the processor may not proceed (but can service arrivals
                # while stalled).
                if self._try_inject(proc):
                    proc.state = _RUNNING
                    continue
                proc.state = _STALL_SEND
                if proc.arrived:
                    self._try_drain(proc)
                return

            act = proc.pending
            if act is None:
                try:
                    act = proc.pending = proc.gen.send(proc.resume)
                except StopIteration as stop:
                    proc.state = _DONE
                    proc.result.value = stop.value
                    proc.result.finished_at = now
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                proc.resume = None
                if act.__class__ is Poll:
                    proc.poll_drained = 0

            cls = act.__class__

            if cls is Send:
                earliest = proc.last_send_start + self._send_interval
                if earliest < proc.port_free:
                    earliest = proc.port_free
                if earliest > now:
                    proc.state = _WAIT_GAP
                    pending = proc.pending_activations
                    if earliest not in pending:
                        pending[earliest] = engine.schedule(
                            earliest, self._on_activation, proc, earliest
                        )
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                # Commit: validate (once per message — a gap-blocked
                # send is re-dispatched here), pay the overhead, and
                # park the message at the network interface until the
                # injection event at the send's end hands it to the
                # network (usually immediately — see _try_inject).
                dst = act.dst
                if dst == rank or not 0 <= dst < self._P:
                    if dst == rank:
                        raise SimulationError(
                            f"processor {rank} attempted to send to itself"
                        )
                    raise SimulationError(
                        f"processor {rank} sent to invalid destination {dst}"
                    )
                words = act.words
                if words > 1 and self._G is None:
                    raise SimulationError(
                        f"processor {rank} sent a {words}-word message "
                        "but the machine has no long-message Gap; build "
                        "it with LogGPParams (core.loggp) to use the "
                        "Section 5.4 extension"
                    )
                end = now + self._o
                proc.pending_inject = _Msg(
                    self._msg_seq, rank, dst, act.payload, act.tag,
                    now, -1.0, -1.0, words,
                )
                self._msg_seq += 1
                self._total_messages += 1
                proc.last_send_start = now
                proc.result.sends += 1
                proc.busy_until = end
                if proc.last_activity < end:
                    proc.last_activity = end
                if self._schedule is not None:
                    self._schedule.add_interval(
                        rank, now, end, Activity.SEND, f"->{dst}"
                    )
                engine.schedule(end, self._on_inject, proc)
                # Eager generator advance: a send's resume value is
                # None, and the fetched action is *dispatched* (not
                # executed) by the injection event at the send's end,
                # so fetching it now replaces the generic busy-end
                # activation (with its dedup-map bookkeeping and
                # generator resume) with the slim _on_inject event.
                # The processor stays _RUNNING — not drainable — for
                # the busy window, exactly as before.
                proc.state = _RUNNING
                try:
                    proc.pending = act = proc.gen.send(None)
                except StopIteration as stop:
                    proc.pending = None
                    proc.state = _DONE
                    proc.result.value = stop.value
                    proc.result.finished_at = end
                    return
                proc.resume = None
                if act.__class__ is Poll:
                    proc.poll_drained = 0
                return

            if cls is Recv:
                mailbox = proc.mailbox
                if act.tag is None:
                    msg = mailbox.popleft() if mailbox else None
                else:
                    msg = self._mailbox_take(proc, act.tag)
                if msg is not None:
                    proc.resume = msg
                    proc.pending = None
                    proc.state = _RUNNING
                    continue
                proc.state = _WAIT_RECV
                proc.wait_token += 1
                if act.timeout is not None:
                    engine.schedule(
                        now + act.timeout,
                        self._on_recv_timeout,
                        proc,
                        proc.wait_token,
                    )
                if proc.arrived:
                    self._try_drain(proc)
                return

            if cls is Compute:
                cycles = act.cycles
                if self.compute_jitter is not None:
                    cycles = self.compute_jitter(rank, cycles)
                    if cycles < 0:
                        raise SimulationError(
                            f"compute_jitter returned negative cycles {cycles}"
                        )
                if self._slow:
                    slow = self.fault_plan.slow_factor(rank, now)
                    if slow != 1.0:
                        cycles *= slow
                        self._fault_counts["slowed_computes"] += 1
                end = now + cycles
                proc.busy_until = end
                self._record(proc, now, end, Activity.COMPUTE, act.label)
                proc.pending = None
                proc.state = _RUNNING
                if cycles > 0:
                    # The end-of-compute activation below is the
                    # guaranteed wakeup; anything earlier is stale.
                    if proc.pending_activations:
                        self._supersede_activations(proc, end)
                    self._schedule_activation(proc, end)
                    return
                continue

            if cls is Now:
                proc.resume = now
                proc.pending = None
                continue

            if cls is Sleep:
                proc.state = _SLEEPING
                wake = now + act.cycles
                proc.pending = None
                engine.schedule(wake, self._on_wake, proc, wake)
                if proc.arrived:
                    self._try_drain(proc)
                return

            if cls is Poll:
                can = bool(proc.arrived) and (
                    now >= proc.last_recv_start + self._g
                )
                if can:
                    proc.state = _POLLING
                    self._try_drain(proc)
                    return
                proc.resume = proc.poll_drained
                proc.pending = None
                proc.state = _RUNNING
                continue

            if cls is Barrier:
                proc.pending = None
                proc.state = _WAIT_BARRIER
                self._barrier_waiting.append(rank)
                if len(self._barrier_waiting) == self._P:
                    self._release_barrier()
                elif proc.arrived:
                    self._try_drain(proc)
                return

            if cls is Checkpoint:
                if self._checkpoints is None:
                    self._checkpoints = [None] * self._P
                self._checkpoints[rank] = act.payload
                if self._fault_counts is not None:
                    self._fault_counts["checkpoints"] += 1
                cost = act.cost
                proc.pending = None
                proc.resume = None
                proc.state = _RUNNING
                if cost > 0:
                    end = now + cost
                    proc.busy_until = end
                    self._record(proc, now, end, Activity.COMPUTE, "checkpoint")
                    if proc.pending_activations:
                        self._supersede_activations(proc, end)
                    self._schedule_activation(proc, end)
                    return
                continue

            if cls is Restore:
                ck = (
                    None
                    if self._checkpoints is None
                    else self._checkpoints[rank]
                )
                inc = (
                    self._incarnation[rank]
                    if self._incarnation is not None
                    else 0
                )
                proc.resume = RestoreInfo(ck, inc)
                if self._fault_counts is not None:
                    self._fault_counts["restores"] += 1
                proc.pending = None
                continue

            if cls is Suspects:
                proc.resume = (
                    frozenset(self._suspected[rank])
                    if self._suspected is not None
                    else frozenset()
                )
                proc.pending = None
                continue

            raise SimulationError(
                f"processor {rank} yielded unknown action {act!r} "
                "(actions are matched by exact type; see repro.sim.program)"
            )

    def _on_wake(self, proc: _Proc, wake: float) -> None:
        if proc.state == _SLEEPING and self._engine.now >= wake:
            # The sleep may have been extended by a drain reception.
            if self._engine.now < proc.busy_until:
                self._engine.schedule(proc.busy_until, self._on_wake, proc, wake)
                return
            proc.state = _RUNNING
            self._activate(proc)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def _on_inject(self, proc: _Proc) -> None:
        """Injection event at a committed send's end (``send_start + o``).

        Scheduled at commit time, so at any instant it precedes the
        activations that wake conditions schedule later — the message is
        on the network (or parked) before the processor's next action
        dispatches.
        """
        if proc.pending_inject is None:
            # Already injected through a stall-retry activation.
            return
        if self._try_inject(proc):
            # Dispatch the eagerly fetched next action (or drain, for a
            # finished program) — the same inject -> dispatch -> drain
            # order the busy-end activation used to follow.
            self._activate(proc)
            return
        if proc.state is not _DONE:
            proc.state = _STALL_SEND
        if proc.arrived:
            self._try_drain(proc)

    def _try_inject(self, proc: _Proc) -> bool:
        """Attempt to hand the committed message to the network now.

        Returns True on success.  On failure the sender is parked in the
        wait-graph; it is re-activated whenever a relevant capacity slot
        frees.
        """
        msg = proc.pending_inject
        now = self._engine.now
        rank = msg.src
        dst = msg.dst
        if self._enforce:
            needs_src = self._inflight_from[rank] >= self.capacity
            needs_dst = self._inflight_to[dst] >= self.capacity
            if needs_src or needs_dst:
                self._park(proc, dst, needs_src, needs_dst)
                return False

        if proc.stall_started is not None:
            proc.result.stall_time += now - proc.stall_started
            if now > proc.last_activity:
                proc.last_activity = now
            if self._schedule is not None:
                self._schedule.add_interval(
                    rank, proc.stall_started, now, Activity.STALL, f"->{dst}"
                )
            proc.stall_started = None
        if proc.queued_on is not None:
            self._stall_queue[proc.queued_on].remove(rank)
            proc.queued_on = None
            proc.needs_src = proc.needs_dst = False

        msg.inject = now
        if self._lossy:
            # Unreliable fabric: delivery goes through the ARQ protocol
            # and bypasses the capacity counters (lossy runs disable the
            # capacity constraint; see __init__ docs).
            if msg.words > 1:
                stream = (msg.words - 1) * (self._G or 0.0)
                if stream > 0:
                    proc.port_free = now + stream
            self._inject_lossy(msg, now)
            proc.pending_inject = None
            return True
        fixed = self._fixed_L
        if msg.words > 1:
            stream = (msg.words - 1) * (self._G or 0.0)
            if fixed is not None:
                msg.arrive = now + stream + fixed
            else:
                arrive, net_stall = self._submit(rank, dst, now)
                msg.arrive = arrive + stream
                if net_stall > 0.0:
                    msg.net_stall = net_stall
                    if self.trace:
                        self._stall_feed.append(
                            NetStallEvent(now, rank, dst, net_stall)
                        )
            if stream > 0:
                # The network port streams the tail of the long message;
                # the processor itself is already free (DMA overlap).
                proc.port_free = now + stream
        elif fixed is not None:
            msg.arrive = now + fixed
        else:
            arrive, net_stall = self._submit(rank, dst, now)
            msg.arrive = arrive
            if net_stall > 0.0:
                msg.net_stall = net_stall
                if self.trace:
                    self._stall_feed.append(
                        NetStallEvent(now, rank, dst, net_stall)
                    )
        self._inflight_from[rank] += 1
        self._inflight_to[dst] += 1
        proc.pending_inject = None
        eid = self._engine.schedule(msg.arrive, self._on_arrival, msg)
        if self._faulty:
            # Registry of in-flight worms so a crash can truncate the
            # dying rank's own transmissions (fault runs only).
            self._flight[msg.seq] = (eid, msg)
        return True

    # ------------------------------------------------------------------
    # Lossy-fabric ARQ: timeout-and-retry with receiver-side dedup
    # ------------------------------------------------------------------

    def _inject_lossy(self, msg: _Msg, now: float) -> None:
        """Submit one copy over the lossy fabric and arm the retry timer."""
        outcome = self.fabric.submit_lossy(msg.src, msg.dst, now)
        if outcome.net_stall > 0.0:
            msg.net_stall = outcome.net_stall
            if self.trace:
                self._stall_feed.append(
                    NetStallEvent(now, msg.src, msg.dst, outcome.net_stall)
                )
        stream = (msg.words - 1) * (self._G or 0.0)
        for arrive in outcome.deliveries:
            self._engine.schedule(
                arrive + stream, self._on_lossy_arrival, msg
            )
        self._awaiting_ack[msg.seq] = msg
        delay = self._retry_policy.delay(1, msg.seq)
        self._engine.schedule(now + delay, self._on_retry, msg, 1, delay)

    def _on_lossy_arrival(self, msg: _Msg) -> None:
        if self._faulty and not self._alive[msg.dst]:
            # Dead interface: the copy vanishes, no ack — the sender's
            # retries time out and eventually give up.
            self._fault_counts["dropped_at_dead_interface"] += 1
            return
        seq = msg.seq
        if seq in self._delivered_seqs:
            # Duplicate copy (fabric duplication or a retransmission
            # racing a late original): the interface discards it.
            self._net_faults["duplicates_suppressed"] += 1
            return
        self._delivered_seqs.add(seq)
        now = self._engine.now
        msg.arrive = now
        # Ack flows back over the reliable control channel.
        self._engine.schedule(now + self._ack_latency, self._on_ack, seq)
        dst = self._procs[msg.dst]
        dst.arrived.append(msg)
        if dst.state in _DRAINABLE:
            if now >= dst.busy_until:
                self._try_drain(dst)
            else:
                self._schedule_activation(dst, dst.busy_until)

    def _on_ack(self, seq: int) -> None:
        self._awaiting_ack.pop(seq, None)

    def _on_retry(self, msg: _Msg, attempt: int, spent: float) -> None:
        if msg.seq not in self._awaiting_ack:
            return
        if attempt > self.max_retries:
            self._give_up(
                msg,
                f"unacked after {self.max_retries} retransmissions",
            )
            return
        self._net_faults["retries"] += 1
        now = self._engine.now
        outcome = self.fabric.submit_lossy(msg.src, msg.dst, now)
        stream = (msg.words - 1) * (self._G or 0.0)
        for arrive in outcome.deliveries:
            self._engine.schedule(
                arrive + stream, self._on_lossy_arrival, msg
            )
        policy = self._retry_policy
        delay = policy.delay(attempt + 1, msg.seq)
        if policy.budget is not None and spent + delay > policy.budget:
            # The copies just sent get one delay's grace to be acked;
            # no further retransmissions.
            self._engine.schedule(now + delay, self._on_retry_budget, msg)
            return
        self._engine.schedule(
            now + delay, self._on_retry, msg, attempt + 1, spent + delay
        )

    def _on_retry_budget(self, msg: _Msg) -> None:
        if msg.seq in self._awaiting_ack:
            self._give_up(msg, "unacked with the retry budget exhausted")

    def _give_up(self, msg: _Msg, why: str) -> None:
        """An undeliverable message: an error on a fault-free-processor
        run, an expected (counted) outcome under a fault plan — this is
        how a peer's crash resolves at the sender."""
        self._awaiting_ack.pop(msg.seq, None)
        if self._faulty:
            self._fault_counts["gave_up_sends"] += 1
            return
        raise SimulationError(
            f"message {msg.src}->{msg.dst} (seq {msg.seq}) {why}"
        )

    # ------------------------------------------------------------------
    # Wait-graph: parked senders and slot releases
    # ------------------------------------------------------------------

    def _park(
        self, proc: _Proc, dst: int, needs_src: bool, needs_dst: bool
    ) -> None:
        """Record a failed injection in the wait-graph.

        The sender keeps its FIFO position across repeated failures; the
        recorded constraint set is refreshed each attempt (a waiter woken
        for a freed destination slot may find its own outbound slot
        newly exhausted, and vice versa).
        """
        now = self._engine.now
        proc.needs_src = needs_src
        proc.needs_dst = needs_dst
        if proc.stall_started is None:
            proc.stall_started = now
            if self.trace:
                self._stall_feed.append(
                    StallEvent(now, proc.rank, dst, needs_src, needs_dst)
                )
        if proc.queued_on is None:
            proc.queued_on = dst
            self._stall_queue[dst].append(proc.rank)

    def _admissible(self, rank: int, dst: int) -> bool:
        """Is a parked ``rank -> dst`` injection satisfiable right now?"""
        return (
            self._inflight_from[rank] < self.capacity
            and self._inflight_to[dst] < self.capacity
        )

    def _release_src_slot(self, src: int) -> None:
        """An outbound slot of ``src`` freed (one of its messages
        arrived).  The only possible waiter is ``src`` itself — wake it
        if its *entire* constraint set is now satisfiable."""
        proc = self._procs[src]
        if proc.stall_started is None or proc.pending_inject is None:
            return
        dst = proc.pending_inject.dst
        admitted = self._admissible(src, dst)
        if self.trace:
            self._stall_feed.append(
                WakeupEvent(self._engine.now, src, dst, "src", src, admitted)
            )
        if admitted:
            self._schedule_activation(
                proc, max(self._engine.now, proc.busy_until)
            )

    def _release_dst_slot(self, dst: int) -> None:
        """An inbound slot of ``dst`` freed (it began a reception).

        Scan the destination's waiter list in FIFO order and admit every
        sender whose full constraint set is satisfiable, debiting the
        freed capacity as we go.  A head-of-queue waiter that is still
        blocked on its own outbound slot is skipped — not returned to —
        so the slot flows to the first sender that can actually use it
        (the lost-wakeup hazard this wait-graph exists to close).
        """
        queue = self._stall_queue[dst]
        if not queue:
            return
        now = self._engine.now
        budget = self.capacity - self._inflight_to[dst]
        trace = self.trace
        for rank in queue:
            if budget <= 0:
                break
            admitted = self._inflight_from[rank] < self.capacity
            if trace:
                self._stall_feed.append(
                    WakeupEvent(now, rank, dst, "dst", dst, admitted)
                )
            if admitted:
                budget -= 1
                waiter = self._procs[rank]
                self._schedule_activation(waiter, max(now, waiter.busy_until))

    def _on_arrival(self, msg: _Msg) -> None:
        # The source's slot frees at arrival.
        src = msg.src
        if self._faulty:
            self._flight.pop(msg.seq, None)
            if not self._alive[msg.dst]:
                # Dead interface: the message vanishes.  Both capacity
                # slots free so live senders make progress.
                self._inflight_from[src] -= 1
                self._inflight_to[msg.dst] -= 1
                self._fault_counts["dropped_at_dead_interface"] += 1
                src_proc = self._procs[src]
                if src_proc.stall_started is not None:
                    self._release_src_slot(src)
                if self._stall_queue[msg.dst]:
                    self._release_dst_slot(msg.dst)
                return
        self._inflight_from[src] -= 1
        src_proc = self._procs[src]
        if src_proc.stall_started is not None:
            self._release_src_slot(src)
        dst = self._procs[msg.dst]
        dst.arrived.append(msg)
        if dst.state in _DRAINABLE:
            if self._engine.now >= dst.busy_until:
                self._try_drain(dst)
            else:
                self._schedule_activation(dst, dst.busy_until)

    # ------------------------------------------------------------------
    # Receive path (drain)
    # ------------------------------------------------------------------

    def _try_drain(self, proc: _Proc) -> None:
        """Service one arrived message if the processor is in a state that
        allows reception and the receive gap permits it now."""
        if not proc.arrived or proc.state not in _DRAINABLE:
            return
        now = self._engine.now
        if now < proc.busy_until:
            self._schedule_activation(proc, proc.busy_until)
            return
        if proc.pending_inject is not None and proc.stall_started is None:
            # A committed message's injection event is due this very
            # instant (it fires at busy-end); injection and the action
            # dispatch behind it go first, and they re-attempt the
            # drain themselves.  Draining here would let an arrival
            # that happens to sort earlier in the event queue overtake
            # the send.
            return
        earliest = proc.last_recv_start + self._g
        if earliest > now:
            self._schedule_activation(proc, earliest)
            return

        msg = proc.arrived.popleft()
        end = now + self._o
        rank = proc.rank
        proc.last_recv_start = now
        proc.busy_until = end
        proc.result.receives += 1
        if proc.last_activity < end:
            proc.last_activity = end
        if self._schedule is not None:
            self._schedule.add_interval(
                rank, now, end, Activity.RECV, f"<-{msg.src}"
            )
        # The recv-done event below is the guaranteed wakeup at
        # busy_until; any activation pending before it is stale.
        if proc.pending_activations:
            self._supersede_activations(proc, end)
        # The destination's slot frees when reception begins.
        self._inflight_to[rank] -= 1
        if self._stall_queue[rank]:
            self._release_dst_slot(rank)
        self._engine.schedule(end, self._on_recv_done, proc, msg, now)

    def _on_recv_done(self, proc: _Proc, msg: _Msg, recv_start: float) -> None:
        now = self._engine.now
        if self._faulty:
            if proc.state == _CRASHED:
                # The rank died while this reception was in progress;
                # the message is lost with the interface.
                self._fault_counts["dropped_at_dead_interface"] += 1
                return
            # Exactly-once witness for the chaos harness: each seq may
            # complete reception at a program at most once.
            if msg.seq in self._delivered_once:
                self._fault_counts["duplicate_deliveries"] += 1
            else:
                self._delivered_once.add(msg.seq)
        rm = ReceivedMessage(msg.src, msg.payload, msg.tag, msg.send_start, now)
        if self._schedule is not None:
            self._schedule.add_message(
                MessageRecord(
                    src=msg.src,
                    dst=msg.dst,
                    send_start=msg.send_start,
                    inject=msg.inject,
                    arrive=msg.arrive,
                    recv_start=recv_start,
                    recv_end=now,
                    tag="" if msg.tag is None else str(msg.tag),
                    words=msg.words,
                    net_stall=msg.net_stall,
                )
            )
        state = proc.state
        if state == _WAIT_RECV and not proc.mailbox:
            tag = proc.pending.tag
            if tag is None or tag == rm.tag:
                # Direct delivery: the blocked Recv takes the message
                # just received without a mailbox round-trip.
                proc.resume = rm
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        proc.mailbox.append(rm)
        if state == _POLLING:
            proc.poll_drained += 1
            # Continue only if another reception can start right now;
            # Poll never waits.
            self._activate(proc)
            return
        if state == _WAIT_RECV:
            taken = self._mailbox_take(proc, proc.pending.tag)
            if taken is not None:
                proc.resume = taken
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        # Keep draining / resume whatever the processor was doing.
        if proc.arrived and proc.state in _DRAINABLE:
            self._try_drain(proc)
        if proc.state == _STALL_SEND or proc.state == _WAIT_GAP:
            self._schedule_activation(proc, max(now, proc.busy_until))

    def _mailbox_take(
        self, proc: _Proc, tag: Hashable
    ) -> ReceivedMessage | None:
        if tag is None:
            return proc.mailbox.popleft() if proc.mailbox else None
        for i, m in enumerate(proc.mailbox):
            if m.tag == tag:
                del proc.mailbox[i]
                return m
        return None

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def _release_barrier(self) -> None:
        release = self._engine.now + self.hw_barrier_cost
        waiting = self._barrier_waiting
        self._barrier_waiting = []
        self._barrier_generation += 1
        for rank in waiting:
            proc = self._procs[rank]
            self._engine.schedule(
                max(release, proc.busy_until), self._on_barrier_release, rank
            )

    def _on_barrier_release(self, rank: int) -> None:
        proc = self._procs[rank]
        if proc.state == _WAIT_BARRIER:
            proc.state = _RUNNING
            proc.resume = None
            self._activate(proc)

    # ------------------------------------------------------------------
    # Processor faults: crash / recovery / heartbeat failure detection
    # ------------------------------------------------------------------

    def _setup_faults(self, P: int) -> None:
        """Per-run fault state; crash events are scheduled *before* the
        initial activations so a crash at t=0 precedes the rank's first
        dispatch (the rank never runs)."""
        self._fault_counts: dict[str, Any] = {
            "dropped_in_flight": 0,
            "dropped_at_dead_interface": 0,
            "reaped_parked": 0,
            "gave_up_sends": 0,
            "duplicate_deliveries": 0,
            "heartbeats_sent": 0,
            "checkpoints": 0,
            "restores": 0,
            "slowed_computes": 0,
            "wedged_ranks": [],
            "unreceived_messages": 0,
        }
        self._fault_events = []
        self._alive = [True] * P
        self._incarnation = [0] * P
        self._was_done_at_crash = [False] * P
        self._pending_recoveries = 0
        # seq -> (arrival event id, msg) for every reliable-path message
        # in flight; lets a crash truncate the dying rank's worms.
        self._flight: dict[int, tuple[int, _Msg]] = {}
        # Exactly-once witness: seqs whose reception completed at a
        # program (chaos harness invariant).
        self._delivered_once: set[int] = set()
        if self._faulty:
            for ev in self.fault_plan.events:
                if type(ev) is CrashStop:
                    self._engine.schedule(ev.at, self._on_crash, ev)
                elif type(ev) is CrashRecover:
                    self._engine.schedule(ev.at, self._on_crash, ev)
                    self._pending_recoveries += 1
        cfg = self._hb_cfg
        if cfg is not None:
            self._suspected = [set() for _ in range(P)]
            # _hb_watchers[r]: who receives r's heartbeats;
            # _watched_by[w]: whose heartbeats w expects.
            self._hb_watchers = cfg.watch_map(P)
            self._watched_by: list[list[int]] = [[] for _ in range(P)]
            for r, ws in enumerate(self._hb_watchers):
                for w in ws:
                    self._watched_by[w].append(r)
            self._last_hb = [[0.0] * P for _ in range(P)]
            # Heartbeats fly over the control channel at the fabric's
            # unloaded bound (like ARQ acks).
            self._hb_flight = self.fabric.bound
            self._engine.schedule(cfg.period, self._on_hb_tick)
        else:
            self._suspected = None

    def _on_crash(self, ev: "CrashStop | CrashRecover") -> None:
        rank = ev.rank
        proc = self._procs[rank]
        if proc.state == _CRASHED:
            return
        engine = self._engine
        now = engine.now
        was_done = proc.state == _DONE
        self._was_done_at_crash[rank] = was_done
        self._alive[rank] = False
        # Reap a parked wait-graph entry without waking the dead sender.
        reaped = 0
        if proc.queued_on is not None:
            self._stall_queue[proc.queued_on].remove(rank)
            proc.queued_on = None
            proc.needs_src = proc.needs_dst = False
            reaped = 1
            self._fault_counts["reaped_parked"] += 1
        proc.pending_inject = None
        proc.stall_started = None
        # A dead rank never dispatches again.
        if proc.pending_activations:
            cancel = engine.cancel
            for eid in proc.pending_activations.values():
                cancel(eid)
            proc.pending_activations.clear()
        # Truncate the rank's own in-flight worms (reliable path).  On a
        # lossy fabric, copies already handed to the fabric are beyond
        # recall (fire-and-forget datagrams); only the dead rank's
        # retransmissions stop.
        dropped = 0
        if self._flight:
            for seq in [
                s for s, (_, m) in self._flight.items() if m.src == rank
            ]:
                eid, msg = self._flight.pop(seq)
                engine.cancel(eid)
                self._inflight_from[rank] -= 1
                self._inflight_to[msg.dst] -= 1
                dropped += 1
                if self._stall_queue[msg.dst]:
                    self._release_dst_slot(msg.dst)
        if self._lossy:
            for seq in [
                s for s, m in self._awaiting_ack.items() if m.src == rank
            ]:
                del self._awaiting_ack[seq]
                dropped += 1
        self._fault_counts["dropped_in_flight"] += dropped
        # Receives die with the interface.
        self._fault_counts["dropped_at_dead_interface"] += len(proc.arrived)
        proc.arrived.clear()
        proc.mailbox.clear()
        # A dead rank that had entered the hardware barrier no longer
        # counts toward it; a barrier it never entered wedges survivors
        # (recorded by the relaxed completion check).
        if rank in self._barrier_waiting:
            self._barrier_waiting.remove(rank)
        try:
            proc.gen.close()
        except Exception:
            pass
        proc.pending = None
        proc.resume = None
        proc.state = _CRASHED
        kind = "transient" if type(ev) is CrashRecover else "stop"
        crash = CrashEvent(now, rank, kind, dropped, reaped)
        self._fault_events.append(crash)
        if self.trace:
            self._stall_feed.append(crash)
        if type(ev) is CrashRecover:
            engine.schedule(ev.back_at, self._on_recover, ev)

    def _on_recover(self, ev: CrashRecover) -> None:
        rank = ev.rank
        proc = self._procs[rank]
        now = self._engine.now
        self._alive[rank] = True
        self._pending_recoveries -= 1
        self._incarnation[rank] += 1
        had_ck = (
            self._checkpoints is not None
            and self._checkpoints[rank] is not None
        )
        rec = RecoverEvent(now, rank, self._incarnation[rank], had_ck)
        self._fault_events.append(rec)
        if self.trace:
            self._stall_feed.append(rec)
        if self._suspected is not None:
            # The fresh incarnation's detector starts with a clean slate
            # and a grace period (it was deaf while down); watchers
            # un-suspect it when its first new heartbeat lands.
            self._suspected[rank].clear()
            row = self._last_hb[rank]
            for s in range(self._P):
                row[s] = now
        if self._was_done_at_crash[rank]:
            # The program had already finished — nothing to redo; the
            # rank just rejoins heartbeating with its result intact.
            proc.state = _DONE
            return
        proc.gen = self._factory(rank, self._P)
        proc.state = _RUNNING
        proc.pending = None
        proc.resume = None
        proc.busy_until = now
        proc.last_send_start = -math.inf
        proc.last_recv_start = -math.inf
        proc.poll_drained = 0
        proc.pending_inject = None
        proc.port_free = 0.0
        self._schedule_activation(proc, now)

    def _on_hb_tick(self) -> None:
        """One detector period: every alive rank's interface emits
        heartbeats to its watchers (serialized on the sender's message
        port at ``max(g, o)`` spacing — real traffic), then every alive
        watcher checks its watch list for silence past the timeout."""
        engine = self._engine
        now = engine.now
        cfg = self._hb_cfg
        alive = self._alive
        counts = self._fault_counts
        interval = self._send_interval
        o = self._o
        for src, watchers in enumerate(self._hb_watchers):
            if not watchers or not alive[src]:
                continue
            proc = self._procs[src]
            done = proc.state == _DONE
            for w in watchers:
                start = proc.last_send_start + interval
                if start < now:
                    start = now
                proc.last_send_start = start
                end = start + o
                if not done and proc.last_activity < end:
                    proc.last_activity = end
                counts["heartbeats_sent"] += 1
                engine.schedule(end + self._hb_flight, self._on_hb, w, src)
        timeout = cfg.timeout
        for w in range(self._P):
            if not alive[w]:
                continue
            suspected = self._suspected[w]
            last = self._last_hb[w]
            for s in self._watched_by[w]:
                if s in suspected:
                    continue
                silent = now - last[s]
                if silent > timeout:
                    suspected.add(s)
                    sev = SuspectEvent(
                        now, w, s, last[s], int(silent // cfg.period)
                    )
                    self._fault_events.append(sev)
                    if self.trace:
                        self._stall_feed.append(sev)
        nxt = now + cfg.period
        if cfg.horizon is not None and nxt > cfg.horizon:
            return
        if self._pending_recoveries > 0 or any(
            p.state != _DONE and p.state != _CRASHED for p in self._procs
        ):
            engine.schedule(nxt, self._on_hb_tick)

    def _on_hb(self, watcher: int, src: int) -> None:
        """A heartbeat landing: occupies the watcher's receive port and
        refreshes its liveness record for ``src``."""
        if not self._alive[watcher]:
            return
        now = self._engine.now
        proc = self._procs[watcher]
        start = proc.last_recv_start + self._g
        if start < now:
            start = now
        proc.last_recv_start = start
        end = start + self._o
        if proc.state != _DONE and proc.last_activity < end:
            proc.last_activity = end
        self._last_hb[watcher][src] = now
        self._suspected[watcher].discard(src)

    def _on_recv_timeout(self, proc: _Proc, token: int) -> None:
        """A ``Recv(timeout=...)`` expiring: if the wait it armed for is
        still in progress, resume the program with ``None``.  A
        reception already under way completes into the mailbox — the
        timeout wins the race."""
        if proc.state == _WAIT_RECV and proc.wait_token == token:
            proc.pending = None
            proc.resume = None
            proc.state = _RUNNING
            self._activate(proc)

    # ------------------------------------------------------------------

    def _record(
        self, proc: _Proc, start: float, end: float, kind: Activity, detail: str
    ) -> None:
        if end > proc.last_activity:
            proc.last_activity = end
        if self._schedule is not None:
            self._schedule.add_interval(proc.rank, start, end, kind, detail)

    def _check_completion(self) -> None:
        """End-of-run invariants, raised as real simulation errors.

        Leftover *mailbox* contents are permitted (programs may ignore
        messages), but a processor that never finished, a message still
        awaiting reception, or a sender still parked in the wait-graph
        means the run ended mid-flight.

        Under a fault plan these are *expected* outcomes — a survivor
        can wedge forever on a dead peer — so they are recorded in the
        fault report instead of raised.
        """
        if self._faulty:
            counts = self._fault_counts
            counts["wedged_ranks"] = sorted(
                p.rank
                for p in self._procs
                if p.state != _DONE and p.state != _CRASHED
            )
            counts["unreceived_messages"] += sum(
                len(p.arrived) for p in self._procs
            )
            return
        blocked = [
            (p.rank, p.state)
            for p in self._procs
            if p.state != _DONE
        ]
        if blocked:
            detail = ", ".join(f"P{r}:{s}" for r, s in blocked[:8])
            raise SimulationError(
                f"deadlock: {len(blocked)} processor(s) never finished "
                f"({detail}{'...' if len(blocked) > 8 else ''}). "
                "Check for unmatched Recv/Send or mismatched barriers."
            )
        for p in self._procs:
            if p.arrived:
                raise SimulationError(
                    f"processor {p.rank} ended with {len(p.arrived)} "
                    "unreceived message(s)"
                )
            if p.pending_inject is not None or p.queued_on is not None:
                raise SimulationError(
                    f"processor {p.rank} ended with a message parked at "
                    "the network interface (stalled sender never woken)"
                )


def run_programs(
    params: LogPParams,
    programs: Iterable[Program] | ProgramFactory,
    **machine_kwargs: Any,
) -> MachineResult:
    """One-call convenience: build a :class:`LogPMachine` and run it."""
    return LogPMachine(params, **machine_kwargs).run(programs)
