"""Spawning, brokering, and harvesting a live run.

:func:`run_live` is the live analogue of
:func:`~repro.sim.machine.run_programs`: hand it a *picklable*
``(rank, P) -> generator`` program factory (a registry family from
:func:`family_program`, or your own) and it spawns ``P`` real OS
processes, brokers the TCP mesh, serves the hardware barrier,
optionally ``SIGKILL``\\ s a victim mid-run (:class:`ChaosSpec`), and
assembles a :class:`~repro.live.logs.LiveResult` from the ranks' event
logs.

The start protocol, per rank: ``hello`` (its data port) -> ``ports``
(the port map) -> mesh -> the rank builds its program generator ->
``ready`` -> ``go``.  ``ready`` therefore means the program is built: a
rank that fails to build reports an error instead, and the run is
refused before any rank starts.  ``go`` carries the epoch, the
coordinator's ``time.monotonic()`` read just before the sends, and each
rank starts the moment it arrives; no start delay is added.

The coordinator stays single-threaded (fork-safety: no locks are held
when rank processes fork off) and drives all control sockets through
one ``selectors`` loop with an absolute deadline — a wedged rank, a
dead peer, or a lost connection can never hang the caller; stragglers
are killed and reported.

The hardware barrier is served centrally: a rank entering barrier ``n``
sends one control frame and blocks until the coordinator has seen all
*live, unfinished* ranks enter ``n`` (a chaos-killed rank is excused —
the surviving ranks' barrier must not deadlock on a corpse), then every
waiter gets a release frame.  This mirrors the CM-5 control-network
barrier the simulator models, including its all-exit-together shape.
"""

from __future__ import annotations

import pickle
import selectors
import signal
import socket
import time
from dataclasses import dataclass

from ..sim.program import ProgramResult
from .logs import LiveResult, PackedLog
from .ranks import rank_main
from .transport import LiveConfig, recv_frame, send_frame

__all__ = ["ChaosSpec", "WatchProgram", "family_program", "run_chaos", "run_live"]


def family_program(name: str, args: dict | None = None, seed: int | None = None):
    """The registry family ``name``, built here with
    :func:`repro.serve.registry.build`.

    An unknown name or a bad argument refuses in the caller, before any
    rank is forked, and the family's imports run here once, so forked
    ranks inherit them.  The program object crosses to the ranks by
    pickle — the path the registry determinism guard in the test suite
    pins bit-identical."""
    from ..serve.registry import build

    return build(name, args, seed)


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Kill ``victim`` with ``SIGKILL`` ``at`` cycles after the epoch."""

    victim: int
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"chaos kill time must be >= 0, got {self.at}")


class LiveRunError(RuntimeError):
    """A rank errored, disappeared, or the run exceeded its deadline."""


def _pickle_spec(spec: dict) -> bytes:
    try:
        return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise TypeError(
            "live programs must be picklable (module-level callables or "
            "program classes; closures are not) — ship registry families "
            f"with family_program(name) instead: {exc}"
        ) from exc


def run_live(
    programs,
    P: int,
    *,
    config: LiveConfig | None = None,
    chaos: ChaosSpec | None = None,
) -> LiveResult:
    """Run ``programs`` as ``P`` real processes over localhost TCP.

    Args:
        programs: picklable ``(rank, P) -> generator`` factory, such as
            a :func:`family_program` family.
        P: number of ranks (``>= 1``).
        config: live knobs (:class:`~repro.live.transport.LiveConfig`).
        chaos: optionally ``SIGKILL`` one rank mid-run; its log dies
            with it and it is reported in ``LiveResult.killed``.

    Raises:
        LiveRunError: a rank raised (the remote traceback is included;
            a program that fails to build is refused before any rank
            starts), vanished without being chaos-killed, or the
            deadline passed.
        TypeError: the program factory is not picklable.
    """
    import multiprocessing

    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    config = config or LiveConfig()
    if chaos is not None and not 0 <= chaos.victim < P:
        raise ValueError(f"chaos victim {chaos.victim} out of range 0..{P - 1}")
    ctx = multiprocessing.get_context(config.resolved_start_method())
    deadline = time.monotonic() + config.deadline_s

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    procs: list = []  # started ones only: _cleanup joins each
    accepted: list[socket.socket] = []  # _cleanup closes each
    controls: dict[int, socket.socket] = {}
    results: dict[int, ProgramResult] = {}
    logs: dict[int, PackedLog] = {}
    errors: dict[int, str] = {}
    killed: list[int] = []
    vanished: set[int] = set()

    def _cleanup(kill: bool) -> None:
        for sock in accepted:
            sock.close()
        listener.close()
        for proc in procs:
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)

    try:
        listener.bind((config.host, 0))
        listener.listen(P)
        coord_port = listener.getsockname()[1]
        for rank in range(P):
            spec = _pickle_spec(
                {
                    "rank": rank,
                    "P": P,
                    "config": config,
                    "coordinator": (config.host, coord_port),
                    "program": programs,
                }
            )
            proc = ctx.Process(
                target=rank_main, args=(spec,), name=f"live-rank-{rank}"
            )
            proc.start()
            procs.append(proc)

        # Phase 1: collect hellos (rank -> data port).
        ports: list[int | None] = [None] * P
        for _ in range(P):
            listener.settimeout(max(0.1, deadline - time.monotonic()))
            sock, _addr = listener.accept()
            accepted.append(sock)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            kind, rank, data_port = recv_frame(sock)
            if kind != "hello":
                raise LiveRunError(f"expected hello, got {kind!r}")
            controls[rank] = sock
            ports[rank] = data_port
        # Phase 2: broadcast the port map; collect readiness (mesh up,
        # program built).
        for sock in controls.values():
            send_frame(sock, ("ports", ports))
        for rank, sock in controls.items():
            frame = recv_frame(sock)
            if frame[0] == "error":
                raise LiveRunError(
                    f"live rank {rank} failed before the run started:\n{frame[2]}"
                )
            if frame[0] != "ready":
                raise LiveRunError(
                    f"expected ready from rank {rank}, got {frame[0]!r}"
                )
        # Phase 3: the epoch is now; release the ranks.
        epoch = time.monotonic()
        for sock in controls.values():
            send_frame(sock, ("go", epoch))

        kill_at = None if chaos is None else epoch + chaos.at * config.cycle_s

        # Phase 4: the event loop — barriers, results, errors, chaos.
        sel = selectors.DefaultSelector()
        for rank, sock in controls.items():
            sock.settimeout(None)
            sel.register(sock, selectors.EVENT_READ, rank)
        barrier_waiting: dict[int, set[int]] = {}

        def _outstanding() -> set[int]:
            """Ranks still running: not finished, errored, killed or
            vanished; a barrier waits for exactly these."""
            return {
                r
                for r in range(P)
                if r not in results
                and r not in errors
                and r not in killed
                and r not in vanished
            }

        def _release_ready_barriers() -> None:
            for n, waiters in list(barrier_waiting.items()):
                if waiters >= _outstanding():
                    for r in waiters:
                        sock = controls.get(r)
                        if sock is not None:
                            try:
                                send_frame(sock, ("release", n))
                            except OSError:
                                vanished.add(r)
                    del barrier_waiting[n]

        try:
            while _outstanding():
                now = time.monotonic()
                if now > deadline:
                    raise LiveRunError(
                        f"live run exceeded deadline ({config.deadline_s}s); "
                        f"outstanding ranks: {sorted(_outstanding())}"
                    )
                timeout = deadline - now
                if kill_at is not None:
                    timeout = min(timeout, max(0.0, kill_at - now))
                events = sel.select(timeout=max(0.0, min(timeout, 0.25)))
                if kill_at is not None and time.monotonic() >= kill_at:
                    victim = chaos.victim
                    kill_at = None
                    if victim not in results and victim not in errors:
                        procs[victim].kill()  # SIGKILL: no goodbye frames
                        killed.append(victim)
                        vsock = controls.pop(victim, None)
                        if vsock is not None:
                            try:
                                sel.unregister(vsock)
                            except KeyError:
                                pass
                            vsock.close()
                        _release_ready_barriers()
                for key, _mask in events:
                    rank = key.data
                    sock = key.fileobj
                    try:
                        frame = recv_frame(sock)
                    except (ConnectionError, OSError):
                        sel.unregister(sock)
                        controls.pop(rank, None)
                        if rank not in results and rank not in killed:
                            vanished.add(rank)
                        _release_ready_barriers()
                        continue
                    kind = frame[0]
                    if kind == "barrier":
                        _rank, n = frame[1], frame[2]
                        barrier_waiting.setdefault(n, set()).add(rank)
                        _release_ready_barriers()
                    elif kind == "result":
                        _kind, _rank, result, log = frame
                        results[rank] = result
                        logs[rank] = log
                        _release_ready_barriers()
                    elif kind == "error":
                        errors[rank] = frame[2]
                        _release_ready_barriers()
        finally:
            sel.close()
    except BaseException:
        _cleanup(kill=True)
        raise
    _cleanup(kill=False)

    if errors:
        rank, err = sorted(errors.items())[0]
        raise LiveRunError(
            f"live rank {rank} failed ({len(errors)} rank(s) errored):\n{err}"
        )
    if vanished:
        raise LiveRunError(
            f"live rank(s) {sorted(vanished)} disappeared without a result "
            "(and were not chaos-killed)"
        )

    rank_events = [logs.get(rank, []) for rank in range(P)]
    final_results = []
    for rank in range(P):
        if rank in results:
            final_results.append(results[rank])
        else:
            final_results.append(
                ProgramResult(rank=rank, value=None, extras={"killed": True})
            )
    makespan = max(
        (e.t for log in rank_events for e in log), default=0.0
    )
    exitcodes = [proc.exitcode for proc in procs]
    return LiveResult(
        P=P,
        config=config,
        makespan=makespan,
        results=final_results,
        rank_events=rank_events,
        exitcodes=exitcodes,
        killed=killed,
    )


# ----------------------------------------------------------------------
# Chaos: the physical substrate for the PR 5 fault machinery.
# ----------------------------------------------------------------------


class WatchProgram:
    """Every rank idles to ``horizon`` (cycles), sampling its failure
    detector every ``poll`` cycles; returns the sorted suspect list.
    The live counterpart of the chaos harness's detector probes —
    pure detection traffic, no data messages to mask the heartbeats."""

    def __init__(self, horizon: float, poll: float):
        self.horizon = horizon
        self.poll = poll

    def __call__(self, rank: int, P: int):
        from ..sim.program import Now, Sleep, Suspects

        def run():
            while True:
                t = yield Now()
                if t >= self.horizon:
                    break
                yield Sleep(self.poll)
            return sorted((yield Suspects()))

        return run()


@dataclass(slots=True)
class ChaosOutcome:
    """What one live chaos run established."""

    result: LiveResult
    victim: int
    kill_at: float
    suspects_by_rank: dict[int, list[int]]
    detection_times: dict[int, float]

    @property
    def detected_by_all(self) -> bool:
        """Every survivor's detector suspected the victim — and nothing
        else (a false positive is as much a failure as a miss)."""
        return all(
            suspects == [self.victim]
            for suspects in self.suspects_by_rank.values()
        )

    @property
    def sigkilled(self) -> bool:
        return self.result.exitcodes[self.victim] == -signal.SIGKILL


def run_chaos(
    P: int = 4,
    *,
    config: LiveConfig | None = None,
    victim: int | None = None,
    kill_at: float | None = None,
) -> ChaosOutcome:
    """SIGKILL one rank mid-run; survivors must suspect exactly it.

    Defaults: the heartbeat detector beats every 2 000 cycles with a
    10 000-cycle timeout (40 ms / 200 ms at the default cycle), the
    victim is rank ``P - 1`` (rank 0 spared, the chaos harness's spare
    convention), killed a quarter into a horizon long enough for the
    timeout to elapse with margin.
    """
    from ..sim.faults import HeartbeatConfig

    base = config or LiveConfig()
    if base.heartbeat is None:
        hb = HeartbeatConfig(period=2_000.0, timeout=10_000.0)
        from dataclasses import replace

        base = replace(base, heartbeat=hb)
    hb = base.heartbeat
    if victim is None:
        victim = P - 1
    if kill_at is None:
        kill_at = 4 * hb.period
    horizon = kill_at + hb.timeout + 6 * hb.period
    result = run_live(
        WatchProgram(horizon=horizon, poll=hb.period / 4),
        P,
        config=base,
        chaos=ChaosSpec(victim=victim, at=kill_at),
    )
    suspects = {
        rank: list(result.value(rank) or [])
        for rank in range(P)
        if rank != victim
    }
    detection = {}
    for rank in range(P):
        if rank == victim:
            continue
        for e in result.rank_events[rank]:
            if e.kind == "suspect" and e.peer == victim:
                detection[rank] = e.t
                break
    return ChaosOutcome(
        result=result,
        victim=victim,
        kill_at=kill_at,
        suspects_by_rank=suspects,
        detection_times=detection,
    )
