"""The live rank process: physical semantics for every program action.

:func:`rank_main` is the child-process entry point.  It handshakes with
the coordinator: report the data port, learn the port map, build the
mesh, then build this rank's program generator, start the transport's
threads and report ``ready``.  A program that fails to build is
reported as an error before any rank starts.  On ``go`` (which carries
the shared epoch) the rank starts at once, and :func:`drive_program`
runs the *unmodified* program generator, giving each yielded action its
physical meaning:

* ``Send``    — one pickle frame down the pair's TCP socket; the
  processor is engaged for exactly the syscall's duration (logged as
  ``send_commit`` .. ``wire_out``).  No artificial gap or capacity
  stall is imposed: the live machine's ``o``/``g``/capacity are whatever
  the host's kernel exhibits — that is what calibration measures.
* ``Recv``    — block on the mailbox (tag-matched, arrival order), the
  receiver thread having already paid the wire.  ``timeout`` converts
  cycles to wall-clock.
* ``Compute`` — spin on the monotonic clock for ``cycles`` (a busy loop,
  not ``sleep``: the processor must be *engaged*, and sleep granularity
  is coarser than a cycle).
* ``Sleep``   — ``time.sleep`` (messages keep arriving: reception is a
  dedicated thread, the moral equivalent of the simulator servicing
  messages while idle).
* ``Now``     — cycles since the shared epoch (the coordinator's
  ``go``).
* ``Poll``    — snapshot of immediately-available messages.  Live
  reception is asynchronous, so there is nothing left to "service";
  the returned count preserves the program-visible contract (how many
  messages a following ``Recv`` would find ready).
* ``Barrier`` — one round trip to the coordinator's barrier service.
* ``Suspects`` — the live heartbeat detector's current suspect set.
* ``Checkpoint``/``Restore`` — in-process stable store (live ranks do
  not crash-recover; incarnation is always 0).
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
import traceback

from ..sim.program import (
    Barrier,
    Checkpoint,
    Compute,
    Now,
    Poll,
    ProgramResult,
    Recv,
    Restore,
    RestoreInfo,
    Send,
    Sleep,
    Suspects,
)
from .logs import EventLog
from .transport import (
    LiveConfig,
    RankTransport,
    connect_mesh,
    dial,
    recv_frame,
    send_frame,
)

__all__ = ["drive_program", "rank_main"]


class _Barrier:
    """Client side of the coordinator's hardware-barrier service."""

    def __init__(self, control: socket.socket, lock: threading.Lock, rank: int):
        self._control = control
        self._lock = lock
        self._rank = rank
        self.count = 0

    def cross(self) -> int:
        n = self.count
        send_frame(self._control, ("barrier", self._rank, n), self._lock)
        while True:
            frame = recv_frame(self._control)
            if frame[0] == "release" and frame[1] == n:
                break
        self.count += 1
        return n


def drive_program(
    gen,
    transport: RankTransport,
    barrier: _Barrier,
    rank: int,
    P: int,
) -> ProgramResult:
    """Run one program generator to completion against the live machine."""
    log = transport.log
    cfg = transport.config
    clock = transport.clock
    checkpoint = None
    value = None
    final = None
    if gen is None or not hasattr(gen, "send"):
        gen = iter(gen or ())
    while True:
        try:
            action = gen.send(value) if hasattr(gen, "send") else next(gen)
        except StopIteration as stop:
            final = stop.value
            break
        value = None
        if type(action) is Send:
            transport.send(action.dst, action.payload, action.tag, action.words)
        elif type(action) is Recv:
            timeout_s = (
                None if action.timeout is None else action.timeout * cfg.cycle_s
            )
            entry = transport.mailbox.get(action.tag, timeout_s)
            if entry is None:
                log.append("recv_timeout", transport.now(), clock.tick())
            else:
                transport.receives += 1
                log.append(
                    "recv_return",
                    transport.now(),
                    clock.tick(),
                    peer=entry.src,
                    seq=entry.seq,
                )
                value = entry.msg
        elif type(action) is Compute:
            t0 = transport.now()
            log.append("compute_begin", t0, clock.tick(), info=action.label)
            end = time.monotonic() + action.cycles * cfg.cycle_s
            while time.monotonic() < end:
                pass
            log.append("compute_end", transport.now(), clock.tick(), info=action.label)
        elif type(action) is Sleep:
            time.sleep(action.cycles * cfg.cycle_s)
        elif type(action) is Now:
            value = transport.now()
        elif type(action) is Poll:
            count = transport.mailbox.available()
            log.append("poll", transport.now(), clock.tick(), seq=count)
            value = count
        elif type(action) is Barrier:
            log.append(
                "barrier_enter", transport.now(), clock.tick(), seq=barrier.count
            )
            n = barrier.cross()
            log.append("barrier_exit", transport.now(), clock.tick(), seq=n)
        elif type(action) is Suspects:
            value = transport.suspects_snapshot()
        elif type(action) is Checkpoint:
            checkpoint = action.payload
            if action.cost:
                end = time.monotonic() + action.cost * cfg.cycle_s
                while time.monotonic() < end:
                    pass
            log.append("checkpoint", transport.now(), clock.tick())
        elif type(action) is Restore:
            value = RestoreInfo(checkpoint=checkpoint, incarnation=0)
        else:
            raise TypeError(
                f"live backend got a non-action yield: {action!r} "
                f"(rank {rank})"
            )
    return ProgramResult(
        rank=rank,
        value=final,
        finished_at=transport.now(),
        sends=transport.sends,
        receives=transport.receives,
    )


def rank_main(spec_bytes: bytes) -> None:
    """Child-process entry: handshake, run, report.  Never raises — an
    error is shipped to the coordinator and exits nonzero."""
    spec = pickle.loads(spec_bytes)
    rank: int = spec["rank"]
    P: int = spec["P"]
    config: LiveConfig = spec["config"]
    host, coord_port = spec["coordinator"]

    # Watchdog: whatever happens, this process is gone by the deadline.
    watchdog = threading.Timer(config.deadline_s, os._exit, args=(3,))
    watchdog.daemon = True
    watchdog.start()

    control = None
    transport = None
    try:
        control = dial(host, coord_port, config.deadline_s)
        control_lock = threading.Lock()

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((host, 0))
        listener.listen(P)
        data_port = listener.getsockname()[1]
        send_frame(control, ("hello", rank, data_port), control_lock)

        frame = recv_frame(control)
        if frame[0] != "ports":
            raise ConnectionError(f"expected ports frame, got {frame[0]!r}")
        ports: list[int] = frame[1]
        links = connect_mesh(rank, P, listener, ports, host, config.deadline_s)
        listener.close()
        log = EventLog(rank)
        transport = RankTransport(rank, P, config, log, links)
        gen = spec["program"](rank, P)
        transport.start()
        send_frame(control, ("ready", rank), control_lock)

        frame = recv_frame(control)
        if frame[0] != "go":
            raise ConnectionError(f"expected go frame, got {frame[0]!r}")
        transport.go(frame[1])
        log.append("start", transport.now(), transport.clock.tick())
        barrier = _Barrier(control, control_lock, rank)
        result = drive_program(gen, transport, barrier, rank, P)
        log.append("finish", transport.now(), transport.clock.tick())
        result.extras["suspects"] = sorted(transport.suspects_snapshot())
        transport.close()
        send_frame(control, ("result", rank, result, log.freeze()), control_lock)
        control.close()
        watchdog.cancel()
        os._exit(0)
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        err = traceback.format_exc()
        try:
            if control is not None:
                send_frame(control, ("error", rank, err))
        except OSError:
            pass
        try:
            if transport is not None:
                transport.close()
        except Exception:  # noqa: BLE001 - already failing
            pass
        os._exit(1)
