"""Localhost TCP transport for live ranks.

The wire layer of the live backend: length-prefixed pickle frames over
a full mesh of localhost TCP sockets (one socket per rank pair, dialed
by the higher rank, ``TCP_NODELAY`` so small-message latency is the
kernel's, not Nagle's), per-rank Lamport clocks for cross-rank event
ordering, the tag-matched mailbox behind ``Recv``/``Poll``, and the
*live* heartbeat failure detector — a real thread emitting real
packets, the physical counterpart of the in-simulator detector of
:class:`~repro.sim.faults.HeartbeatConfig`.

Timestamps are ``time.monotonic()`` readings converted to *cycles*
(``LiveConfig.cycle_ns`` nanoseconds per cycle) relative to a shared
epoch: the coordinator's clock reading when it sends ``go``.  On Linux
(and every platform this repo targets) ``time.monotonic`` is
``CLOCK_MONOTONIC``, which is machine-wide, so timestamps taken in
different rank processes are directly comparable; the validator
nonetheless treats *timing* clauses in tolerance bands and reserves
exactness for ordering and delivery clauses, which rest on the logical
clocks and per-pair sequence numbers carried in every data frame.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from ..sim.faults import HeartbeatConfig
from ..sim.program import ReceivedMessage
from .logs import EventLog

__all__ = [
    "LiveConfig",
    "RankTransport",
    "connect_mesh",
    "dial",
    "recv_frame",
    "send_frame",
]

_LEN = struct.Struct(">I")

#: Hard ceiling on one frame (a live payload should be small data, not
#: a dataset; refusing early beats an allocation bomb).
MAX_FRAME_BYTES = 64 * 1024 * 1024


def send_frame(sock: socket.socket, obj, lock: threading.Lock | None = None) -> None:
    """Pickle ``obj`` and write it length-prefixed (atomically under ``lock``)."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(blob)) + blob
    if lock is None:
        sock.sendall(data)
    else:
        with lock:
            sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one length-prefixed pickle frame (raises ``ConnectionError`` on EOF)."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return pickle.loads(_recv_exact(sock, length))


def dial(host: str, port: int, timeout: float) -> socket.socket:
    """Connect a ``TCP_NODELAY`` socket to ``(host, port)``.

    A plain ``connect`` of an ``AF_INET`` socket: a numeric ``host``
    (the default) needs no resolver lookup, which
    ``socket.create_connection`` pays first in every fresh process."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect((host, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        sock.close()
        raise
    return sock


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of one live run.

    Args:
        cycle_ns: nanoseconds of wall-clock per simulated *cycle* — the
            unit conversion between program time (``Compute(5)``) and
            the host.  The default (20 µs) puts localhost TCP latency
            in the low single-digit cycles, the regime the paper's
            parameter tables live in.
        heartbeat: attach the live failure detector (periods/timeouts in
            cycles, exactly :class:`~repro.sim.faults.HeartbeatConfig`'s
            contract).  ``None`` (default) runs without detector threads.
        deadline_s: wall-clock bound on the whole run.  Both the
            coordinator and every rank enforce it (ranks via a watchdog
            that force-exits), so a wedged program or a dead peer can
            never hang a test or a CI pipeline.
        start_method: multiprocessing start method; ``None`` picks
            ``fork`` where available (fast) else ``spawn``.  Programs
            are *always* shipped to ranks as explicit pickles regardless
            — the registry-determinism guard in the test suite is what
            makes that safe — so both methods run identical code.
        host: the IPv4 address every socket of the run binds and
            dials (numeric by default, so a dial needs no resolver
            lookup).

    There is no start delay: a rank builds its program before it
    reports ready, and starts the moment ``go`` arrives (the epoch is
    the coordinator's clock at that send).
    """

    cycle_ns: float = 20_000.0
    heartbeat: HeartbeatConfig | None = None
    deadline_s: float = 60.0
    start_method: str | None = None
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.cycle_ns <= 0:
            raise ValueError(f"cycle_ns must be > 0, got {self.cycle_ns}")
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start_method {self.start_method!r}")

    @property
    def cycle_s(self) -> float:
        return self.cycle_ns * 1e-9

    def resolved_start_method(self) -> str:
        import multiprocessing

        if self.start_method is not None:
            return self.start_method
        env = os.environ.get("REPRO_LIVE_START")
        if env:
            return env
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class LamportClock:
    """Thread-safe Lamport logical clock."""

    __slots__ = ("_lock", "_t")

    def __init__(self) -> None:
        self._t = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        with self._lock:
            self._t += 1
            return self._t

    def merge(self, other: int) -> int:
        with self._lock:
            self._t = max(self._t, other) + 1
            return self._t


@dataclass(slots=True)
class _Entry:
    msg: ReceivedMessage
    seq: int
    src: int


class Mailbox:
    """Arrival-ordered, tag-matched message store behind ``Recv``/``Poll``."""

    def __init__(self) -> None:
        self._entries: list[_Entry] = []
        self._cond = threading.Condition()

    def put(self, entry: _Entry) -> None:
        with self._cond:
            self._entries.append(entry)
            self._cond.notify_all()

    def get(self, tag, timeout_s: float | None) -> _Entry | None:
        """First message matching ``tag`` (``None`` matches any), waiting
        up to ``timeout_s`` (``None`` = forever); ``None`` on timeout."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            while True:
                for i, entry in enumerate(self._entries):
                    if tag is None or entry.msg.tag == tag:
                        return self._entries.pop(i)
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not any(
                            tag is None or e.msg.tag == tag for e in self._entries
                        ):
                            return None

    def available(self) -> int:
        with self._cond:
            return len(self._entries)


def connect_mesh(
    rank: int,
    P: int,
    listener: socket.socket,
    ports: list[int],
    host: str,
    deadline: float,
) -> dict[int, socket.socket]:
    """Build the full peer mesh: dial every lower rank, accept every higher.

    ``ports`` maps rank -> data port (all already listening before any
    dial starts — the coordinator broadcasts the map only after every
    rank reported its port, so dials cannot race the listeners)."""
    links: dict[int, socket.socket] = {}
    for peer in range(rank):
        sock = dial(host, ports[peer], deadline)
        send_frame(sock, ("peer", rank))
        links[peer] = sock
    for _ in range(P - 1 - rank):
        listener.settimeout(deadline)
        sock, _addr = listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        kind, peer = recv_frame(sock)
        if kind != "peer":
            raise ConnectionError(f"expected peer hello, got {kind!r}")
        links[peer] = sock
    return links


@dataclass(slots=True)
class _Link:
    sock: socket.socket
    lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True


class RankTransport:
    """One rank's view of the mesh: send path, receiver thread, detector.

    The main (program) thread calls :meth:`send` and reads the mailbox;
    a receiver thread drains every peer socket into the mailbox (so a
    busy sender can never deadlock the pair — the physical analogue of
    the simulator's always-on network interface); an optional heartbeat
    thread emits liveness beacons and maintains the suspect set.

    :meth:`start` runs the threads before the rank reports ready; they
    wait for :meth:`go`, which sets the epoch, so a rank's start costs
    one event.  The receiver then blocks in ``select`` with no timeout;
    :meth:`close` wakes it through a socket pair registered beside the
    links, so teardown never waits out a poll interval.
    """

    def __init__(
        self,
        rank: int,
        P: int,
        config: LiveConfig,
        log: EventLog,
        links: dict[int, socket.socket],
    ) -> None:
        self.rank = rank
        self.P = P
        self.config = config
        self.log = log
        self.epoch = 0.0  # set by go()
        self.clock = LamportClock()
        self.mailbox = Mailbox()
        self._links = {peer: _Link(sock) for peer, sock in links.items()}
        self._next_seq = dict.fromkeys(links, 0)
        self._finished: set[int] = set()
        self._suspects: set[int] = set()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._go = threading.Event()
        self._recv_thread: threading.Thread | None = None
        self._hb_thread: threading.Thread | None = None
        self._wake_r, self._wake_w = socket.socketpair()
        self.sends = 0
        self.receives = 0
        # Heartbeat bookkeeping: peer -> cycles of the last beat heard
        # (initialized to the epoch so a never-heard peer accumulates
        # silence from t=0, matching the simulator detector).
        self._last_heard = dict.fromkeys(links, 0.0)

    # -- time ----------------------------------------------------------

    def now(self) -> float:
        """Cycles since the shared epoch."""
        return (time.monotonic() - self.epoch) / self.config.cycle_s

    # -- send path (main thread) --------------------------------------

    def send(self, dst: int, payload, tag, words: int) -> None:
        if dst == self.rank:
            raise ValueError(f"rank {self.rank} sending to itself")
        if not 0 <= dst < self.P:
            raise ValueError(f"destination {dst} out of range 0..{self.P - 1}")
        link = self._links[dst]
        seq = self._next_seq[dst]
        self._next_seq[dst] = seq + 1
        t0 = self.now()
        clock = self.clock.tick()
        self.log.append("send_commit", t0, clock, peer=dst, seq=seq)
        frame = ("data", self.rank, seq, clock, t0, tag, payload, words)
        try:
            send_frame(link.sock, frame, link.lock)
        except OSError as exc:
            # A dead peer's socket: the message is lost at the (dead)
            # interface, exactly like the simulator's
            # dropped_at_dead_interface accounting.  The program keeps
            # running; the heartbeat detector is the discovery channel.
            link.alive = False
            self.log.append(
                "send_failed", self.now(), self.clock.tick(), peer=dst, seq=seq,
                info=type(exc).__name__,
            )
            return
        self.log.append(
            "wire_out", self.now(), self.clock.tick(), peer=dst, seq=seq
        )
        self.sends += 1

    # -- receiver thread ----------------------------------------------

    def _serve_frame(self, peer: int, frame) -> None:
        kind = frame[0]
        if kind == "data":
            _kind, src, seq, clock, t_commit, tag, payload, _words = frame
            merged = self.clock.merge(clock)
            t = self.now()
            with self._state_lock:
                self._last_heard[src] = t
            self.log.append("delivery", t, merged, peer=src, seq=seq)
            self.mailbox.put(
                _Entry(
                    ReceivedMessage(
                        src=src, payload=payload, tag=tag,
                        sent_at=t_commit, received_at=t,
                    ),
                    seq,
                    src,
                )
            )
        elif kind == "hb":
            _kind, src, clock, _t = frame
            self.clock.merge(clock)
            with self._state_lock:
                self._last_heard[src] = self.now()
        elif kind == "bye":
            with self._state_lock:
                self._finished.add(frame[1])

    def _receiver_loop(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._wake_r, selectors.EVENT_READ, None)
        for peer, link in self._links.items():
            link.sock.setblocking(True)
            sel.register(link.sock, selectors.EVENT_READ, peer)
        try:
            self._go.wait()
            while not self._stop.is_set():
                for key, _mask in sel.select():
                    peer = key.data
                    if peer is None:
                        return  # close() woke us
                    link = self._links[peer]
                    if not link.alive:
                        continue
                    try:
                        frame = recv_frame(link.sock)
                    except (ConnectionError, OSError):
                        # EOF without "bye": the peer died.  No shortcut
                        # into the suspect set — detection is the
                        # heartbeat detector's job, by timeout.
                        link.alive = False
                        sel.unregister(link.sock)
                        continue
                    self._serve_frame(peer, frame)
        finally:
            sel.close()

    # -- heartbeat thread ---------------------------------------------

    def _watch_sets(self) -> tuple[set[int], set[int]]:
        """(peers I beat to, peers I watch) from the heartbeat config."""
        hb = self.config.heartbeat
        peers = set(self._links)
        if hb is None or hb.edges is None:
            return peers, peers
        beat = {b for a, b in hb.edges if a == self.rank} | {
            a for a, b in hb.edges if b == self.rank
        }
        return beat & peers, beat & peers

    def _heartbeat_loop(self) -> None:
        hb = self.config.heartbeat
        assert hb is not None
        period_s = hb.period * self.config.cycle_s
        beat_to, watched = self._watch_sets()
        self._go.wait()
        while not self._stop.wait(period_s):
            t = self.now()
            if hb.horizon is not None and t > hb.horizon:
                return
            for peer in beat_to:
                link = self._links[peer]
                if not link.alive:
                    continue
                try:
                    send_frame(link.sock, ("hb", self.rank, self.clock.tick(), t), link.lock)
                except OSError:
                    link.alive = False
            now = self.now()
            with self._state_lock:
                for peer in watched:
                    if peer in self._finished or peer in self._suspects:
                        continue
                    silence = now - self._last_heard[peer]
                    if silence > hb.timeout:
                        self._suspects.add(peer)
                        self.log.append(
                            "suspect", now, self.clock.tick(), peer=peer,
                            info=f"last_heard={self._last_heard[peer]:.1f}"
                            f";missed={int(silence // hb.period)}",
                        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the receiver and heartbeat threads; both wait for
        :meth:`go`, so a rank pays for them before it reports ready."""
        self._recv_thread = threading.Thread(
            target=self._receiver_loop, name=f"live-recv-{self.rank}", daemon=True
        )
        self._recv_thread.start()
        if self.config.heartbeat is not None:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop, name=f"live-hb-{self.rank}", daemon=True
            )
            self._hb_thread.start()

    def go(self, epoch: float) -> None:
        """Start the clock at ``epoch`` (a ``time.monotonic()`` reading
        shared by every rank) and release the threads."""
        self.epoch = epoch
        self._go.set()

    def suspects_snapshot(self) -> frozenset[int]:
        with self._state_lock:
            return frozenset(self._suspects)

    def close(self) -> None:
        """Graceful shutdown: announce completion, stop threads, close."""
        for link in self._links.values():
            if link.alive:
                try:
                    send_frame(link.sock, ("bye", self.rank), link.lock)
                except OSError:
                    link.alive = False
        self._stop.set()
        self._go.set()
        self._wake_w.close()  # EOF on _wake_r: the receiver returns
        for thread in (self._recv_thread, self._hb_thread):
            if thread is not None:
                thread.join(timeout=2.0)
        self._wake_r.close()
        for link in self._links.values():
            try:
                link.sock.close()
            except OSError:
                pass
