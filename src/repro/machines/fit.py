"""Measuring a machine's LogP parameters with microbenchmarks.

Section 7: using the model as "a concise summary of the performance
characteristics of current and future machines ... will require refining
the process of parameter determination."  This module is that process —
the microbenchmark suite the later LogP-measurement literature settled
on, implemented against the simulator's program API:

* **send overhead `o`** — time a processor is engaged by one `Send`
  with nothing else to do (measured directly: clock before and after);
* **round trip** — an empty request/reply gives `RTT = 2L + 4o`, hence
  `L = (RTT - 4o)/2`;
* **effective gap** — the *receiver-side* drain rate under saturation:
  many senders flood one receiver, whose steady reception interval is
  `max(g, o)` — the processor can accept no faster than its own
  overhead even when the network would allow it.  A `g` smaller than
  `o` is operationally invisible to any timing benchmark (every rate
  the machine exhibits is governed by `max(g, o)`), a point the later
  LogP-measurement literature ran into as well; `g` itself is
  recoverable only through the capacity constraint's bounds.
* **pipeline depth** — the knee of the outstanding-requests throughput
  curve (the multithreading experiment): improvement stops at
  `~ceil((L + 2o) / max(g, o))` in-flight operations, the number of
  round trips the network pipeline holds (equal to the model's
  `ceil(L/g)` exactly when `o = 0`).

The suite is written against a *runner* — anything with a ``P`` and a
``run_values(factory)`` that executes a ``(rank, P) -> generator``
program and returns the per-rank values.  :class:`SimulatorRunner`
adapts a :class:`~repro.core.params.LogPParams`; the live backend's
:class:`~repro.live.calibrate.LiveRunner` adapts real processes over
TCP, so the *same* probes that recover hidden parameters from the
simulator fit effective ``(L, o, g)`` to the host.  To that end every
probe program is a module-level class (picklable — closures cannot
cross the process boundary to live ranks).

Because these run on the simulator, the suite is *closed-loop testable*:
hide a parameter set, measure it back, compare.  The tests recover `o`,
`L` and `max(g, o)` exactly on every grid machine; on a real cluster the
same program structure is what one would time with MPI.
"""

from __future__ import annotations

import heapq
import statistics
from dataclasses import dataclass

from ..core.params import LogPParams
from ..sim.machine import run_programs
from ..sim.program import Now, Recv, Send, Sleep

__all__ = ["MeasuredLogP", "SimulatorRunner", "measure_logp"]


@dataclass(frozen=True, slots=True)
class MeasuredLogP:
    """Quantities recovered by the microbenchmark suite.

    ``effective_g`` is ``max(g, o)`` — the machine's observable message
    interval; ``pipeline_depth`` is the saturation knee
    ``~ceil((L + 2o)/effective_g)``.
    """

    o: float
    L: float
    effective_g: float
    pipeline_depth: int
    round_trip: float

    def as_params(self, P: int, name: str = "measured") -> LogPParams:
        """A parameter set usable for analysis: ``g`` is the effective
        gap (conservative when the true ``g < o``, per Section 3.1's own
        merge rule).  ``L`` is clamped to 0 — a physical fit can return
        a slightly negative latency when the RTT decomposition's ``4o``
        term overshoots (jittery hosts)."""
        return LogPParams(
            L=max(self.L, 0.0), o=self.o, g=self.effective_g, P=P, name=name
        )

    def gap_bounds(self) -> tuple[float, float]:
        """Bounds on the true ``g`` implied by the measurements:
        ``g <= effective_g`` always, and the pipeline depth ``c``
        implies the capacity-relevant ratio ``L/g`` is within the knee
        region.  Returns ``(lo, hi)`` with ``hi = effective_g``."""
        if self.pipeline_depth <= 1:
            return (0.0, self.effective_g)
        lo = self.L / (self.pipeline_depth + 1)
        return (min(lo, self.effective_g), self.effective_g)


class SimulatorRunner:
    """The default runner: execute probes on a :class:`LogPMachine`."""

    def __init__(self, params: LogPParams):
        self.params = params
        self.P = params.P

    def run_values(self, factory) -> list:
        """Run ``factory`` on the simulator; return per-rank values."""
        return run_programs(self.params, factory, trace=False).values()


# ----------------------------------------------------------------------
# Probe programs.  Module-level classes, not closures: the live backend
# pickles them across the process boundary to real ranks.
# ----------------------------------------------------------------------


class _OverheadProbe:
    """Clock one Send on an otherwise idle processor."""

    def __call__(self, rank: int, P: int):
        def run():
            if rank == 0:
                t0 = yield Now()
                yield Send(1, tag="o")
                t1 = yield Now()
                return t1 - t0
            elif rank == 1:
                yield Recv(tag="o")
            return None

        return run()


class _RoundTripProbe:
    """Empty request/reply time = 2L + 4o: the median of ``reps`` rounds,
    each timed on its own, after one untimed warm-up round.

    On a live host the first round pays for start-up, so timing it
    would fit mostly start-up into ``L``.
    """

    def __init__(self, reps: int = 4):
        self.reps = reps

    def __call__(self, rank: int, P: int):
        rounds = self.reps + 1

        def run():
            if rank == 0:
                times = []
                t0 = yield Now()
                for i in range(rounds):
                    yield Send(1, tag=("q", i))
                    yield Recv(tag=("a", i))
                    t1 = yield Now()
                    times.append(t1 - t0)
                    t0 = t1
                return statistics.median(times[1:])
            elif rank == 1:
                for i in range(rounds):
                    yield Recv(tag=("q", i))
                    yield Send(0, tag=("a", i))
            return None

        return run()


class _GapProbe:
    """Receiver drain interval under saturation: ``max(g, o)``.

    Two senders flood one receiver so the stream is never starved; the
    receiver clocks its steady-state reception interval — the gap rule
    and its own reception overhead jointly pin it at ``max(g, o)``
    (senders stall via the capacity constraint whenever they could go
    faster).
    """

    def __init__(self, k: int = 40):
        self.k = k

    def __call__(self, rank: int, P: int):
        k = self.k

        def run():
            if rank in (1, 2):
                for _ in range(k):
                    yield Send(0, tag="f")
                return None
            if rank == 0:
                times = []
                for _ in range(2 * k):
                    yield Recv(tag="f")
                    t = yield Now()
                    times.append(t)
                # Steady state: drop the warmup third.
                cut = len(times) // 3
                spans = [
                    b - a for a, b in zip(times[cut:], times[cut + 1 :])
                ]
                return sum(spans) / len(spans)
            return None

        return run()


class _CapacityProbe:
    """``v`` one-way operations in flight, timed at rank 0.

    Each op is considered complete ``op_latency = L + 2o`` after issue
    (timed locally, ``o`` subtracted so back-to-back issue is allowed);
    returns ops/cycle at rank 0.
    """

    def __init__(self, v: int, rounds: int, o: float, op_latency: float):
        self.v = v
        self.rounds = rounds
        self.o = o
        self.op_latency = op_latency

    def __call__(self, rank: int, P: int):
        v, rounds, o, op_latency = self.v, self.rounds, self.o, self.op_latency

        def run():
            if rank == 0:
                total = v * rounds
                ready = [(0.0, i) for i in range(v)]
                heapq.heapify(ready)
                for _ in range(total):
                    t_ready, vp = heapq.heappop(ready)
                    now = yield Now()
                    if t_ready > now:
                        yield Sleep(t_ready - now)
                    yield Send(1, tag="op")
                    now = yield Now()
                    heapq.heappush(ready, (now - o + op_latency, vp))
                t = yield Now()
                return total / t
            elif rank == 1:
                for _ in range(v * rounds):
                    yield Recv(tag="op")
            return None

        return run()


# ----------------------------------------------------------------------
# The measurement passes.
# ----------------------------------------------------------------------


def _value0(runner, factory):
    return runner.run_values(factory)[0]


def _measure_overhead(runner) -> float:
    return _value0(runner, _OverheadProbe())


def _measure_round_trip(runner, reps: int = 4) -> float:
    return _value0(runner, _RoundTripProbe(reps))


def _measure_gap(runner, k: int = 40) -> float:
    if runner.P < 3:
        raise ValueError("gap measurement needs P >= 3")
    return _value0(runner, _GapProbe(k))


def _measure_capacity(
    runner,
    o: float,
    rtt: float,
    rounds: int = 30,
    max_depth: int = 4096,
) -> int:
    """Find the throughput knee of the outstanding-ops curve.

    ``o``/``rtt`` come from the earlier passes (re-measuring here would
    double the live wall-clock for no information); the measured
    ops/cycle stops improving once ``v`` exceeds the network's in-flight
    allowance.
    """
    op_latency = rtt / 2  # L + 2o

    def throughput(v: int) -> float:
        return _value0(runner, _CapacityProbe(v, rounds, o, op_latency))

    prev = throughput(1)
    v = 1
    while v < max_depth:
        nxt = throughput(v + 1)
        if nxt < prev * 1.02:  # no longer improving: the knee
            return v
        prev = nxt
        v += 1
    return v


def measure_logp(
    machine,
    measure_depth: bool = True,
    max_depth: int = 4096,
) -> MeasuredLogP:
    """Run the full microbenchmark suite against a machine.

    ``machine`` is either a :class:`~repro.core.params.LogPParams` (run
    on the simulator, parameters treated as hidden) or any runner with
    ``P`` and ``run_values(factory)`` — e.g. the live backend's
    :class:`~repro.live.calibrate.LiveRunner`, in which case the same
    probes time real sockets.  Requires ``P >= 3`` for the
    receiver-saturation gap measurement.  ``max_depth`` bounds the
    capacity search (each step is a full run — live runners want a
    small bound).
    """
    runner = (
        SimulatorRunner(machine) if isinstance(machine, LogPParams) else machine
    )
    o = _measure_overhead(runner)
    rtt = _measure_round_trip(runner)
    L = (rtt - 4 * o) / 2
    g_eff = _measure_gap(runner)
    depth = (
        _measure_capacity(runner, o, rtt, max_depth=max_depth)
        if measure_depth
        else 0
    )
    return MeasuredLogP(
        o=o, L=L, effective_g=g_eff, pipeline_depth=depth, round_trip=rtt
    )
