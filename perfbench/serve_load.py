"""``serve_hot`` and ``serve_cold``: load on the ``python -m repro.serve``
TCP server from one process, two connections and at most two threads.

Every request frame is encoded before the server starts.  During a timed
phase the generator only writes those bytes, reads reply lines and
notes, per line, whether it is a request's final frame and which tag it
carries; decoding the JSON and checking the values waits until the
phase is over.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import re
import selectors
import shutil
import socket
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass, field

from . import tracing
from .common import (
    SETUP_REPS,
    TMP,
    BenchError,
    Outcome,
    best_decile,
    kill_group,
    p50_p90,
    read_line,
    spawn,
    stop,
    vm_hwm_mb,
)

CONNECTIONS = 2
#: serve_hot phase 1: open-loop arrival rate, requests per second.
HOT_RATE = 600.0
#: serve_hot phase 2: outstanding requests per connection.
HOT_WINDOW = 32
#: serve_hot: distinct single-point requests per family.
HOT_POINTS = 64
#: serve_hot phase 2 cycles through this many pre-encoded frames.
HOT_CYCLE = 4096
#: serve_hot alternates phase-1 and phase-2 segments of this length, so
#: a slow spell of the host falls on both phases alike.
HOT_SEGMENT_S = 0.5
#: serve_cold: frames encoded up front, per second of run; the phase
#: ends early (and says so) if a fast server uses them all.
COLD_MAX_RATE = 60
#: serve_cold: the server's cache capacity.  Nothing repeats, so the
#: cache fills in the first seconds and then evicts; each snapshot then
#: rewrites a cache of this size, and the rest of the run measures that
#: steady state rather than a cache that grows until the run ends.
COLD_CACHE_ENTRIES = 8192
#: serve_cold: rates are taken per window of this length.
COLD_WINDOW_S = 4.0
#: serve_cold request mix per 20 requests, shuffled per cycle.
COLD_CYCLE = ["bcast"] * 11 + ["stream"] * 4 + ["jitter"] * 2 + [
    "machine"
] * 2 + ["large"]
#: Phase-2 tags start here so they never collide with phase-1 tags.
PHASE2_TAG = 1_000_000

_TAG = re.compile(rb'"tag":(-?\d+)')


@dataclass
class Request:
    tag: int
    shape: str
    spec: dict
    frame: bytes
    n_points: int


def encode(tag: int, spec: dict) -> bytes:
    return json.dumps(
        {"op": "submit", "tag": tag, **spec}, separators=(",", ":")
    ).encode() + b"\n"


def make_request(tag: int, shape: str, spec: dict) -> Request:
    return Request(tag, shape, spec, encode(tag, spec), len(spec["points"]))


def _point(L, o, g, P) -> dict:
    return {"L": float(L), "o": float(o), "g": float(g), "P": int(P)}


# ----------------------------------------------------------------------
# Request generation (before any process starts)
# ----------------------------------------------------------------------


def hot_specs(seed: int, per_family: int = HOT_POINTS):
    """The distinct single-point requests and their popularity weights.

    Popularity is Zipf-like (weight 1/rank^1.1) over a seeded ranking,
    so a few points take most requests and the rest form a long tail.
    """
    rng = random.Random(seed)
    grid = [
        (L, o, g, P)
        for L in (2.0, 3.5, 5.0, 6.5, 8.0, 10.0, 12.0, 16.0)
        for o in (1.0, 1.5, 2.0, 3.0)
        for g in (2.0, 4.0, 6.0)
        for P in (4, 8, 16)
    ]
    specs = []
    for family, k in (("stream", 16), ("bcast_tree", 8)):
        for pt in rng.sample(grid, per_family):
            specs.append({
                "program": family,
                "points": [_point(*pt)],
                "args": {"k": k},
                "backend": "auto",
            })
    ranking = list(range(len(specs)))
    rng.shuffle(ranking)
    weights = [0.0] * len(specs)
    for rank, idx in enumerate(ranking):
        weights[idx] = 1.0 / (rank + 1) ** 1.1
    return specs, weights, rng


def cold_spec(shape: str, r: int, nth: int, rng: random.Random,
              tiny: bool) -> dict:
    """One distinct sweep of ``shape``; ``r`` (the request index) makes
    its ``L`` unique, so no point repeats across requests."""
    L0 = 4.0 + r / 64.0
    if shape == "bcast":
        n = 16 if tiny else 256
        P = (4, 8, 16)[nth % 3]
        pts = [_point(L0, 1.0 + 3.0 * i / n, 4.0, P) for i in range(n)]
        return {"program": "bcast_tree", "points": pts, "args": {"k": 8},
                "backend": "auto"}
    if shape == "stream":
        n = 16 if tiny else 160
        P = (4, 6)[nth % 2]
        pts = [
            _point(L0 + (i % 8) * 1.5, 0.5 + (i // 8 % 5) * 0.75,
                   0.5 + (i // 40) * 1.25, P)
            for i in range(n)
        ]
        return {"program": "stream", "points": pts, "args": {"k": 16},
                "backend": "auto"}
    if shape == "jitter":
        n = 8 if tiny else 96
        pts = [_point(L0, 1.0 + 3.0 * i / n, 4.0, 8) for i in range(n)]
        return {"program": "bcast_tree", "points": pts, "args": {"k": 8},
                "backend": "auto",
                "latency": {"kind": "jittered", "L": 4.0, "scale_frac": 0.25,
                            "seed": rng.randrange(1 << 20)}}
    if shape == "machine":
        n = 4 if tiny else 24
        pts = [_point(L0, 1.0 + i / 8.0, 2.0, 8) for i in range(n)]
        return {"program": "flood", "points": pts, "args": {"k": 4},
                "backend": "machine"}
    if shape == "large":
        # Past 2 x shard_min_points (512), so the batch shards across
        # the server's two pool workers.
        n = 1040 if tiny else 1536
        pts = [_point(L0, 1.0 + 3.0 * i / n, 4.0, 8) for i in range(n)]
        return {"program": "bcast_tree", "points": pts, "args": {"k": 8},
                "backend": "auto"}
    raise ValueError(f"unknown request shape {shape!r}")


def cold_requests(seed: int, count: int, tiny: bool) -> list[Request]:
    rng = random.Random(seed)
    shapes: list[str] = []
    while len(shapes) < count:
        cycle = list(COLD_CYCLE)
        rng.shuffle(cycle)
        shapes += cycle
    nth: dict[str, int] = {}
    reqs = []
    for r, shape in enumerate(shapes[:count]):
        k = nth.get(shape, 0)
        nth[shape] = k + 1
        reqs.append(make_request(r, shape, cold_spec(shape, r, k, rng, tiny)))
    return reqs


# ----------------------------------------------------------------------
# Server process and connections
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro.serve --port 0 --workers 2`` process.

    A traced run starts it through :mod:`perfbench.traced_server`, which
    installs the span wrappers in the server process first.
    """

    def __init__(self, trace: bool, cache_dir: str | None):
        self.spans_path = None
        self.cache_dir = cache_dir
        serve_args = ["--port", "0", "--workers", "2"]
        if cache_dir is not None:
            serve_args += ["--cache-dir", cache_dir,
                           "--cache-entries", str(COLD_CACHE_ENTRIES)]
        if trace:
            self.spans_path = os.path.join(TMP, f"spans-{uuid.uuid4().hex}.json")
            argv = ["-m", "perfbench.traced_server",
                    "--spans-out", self.spans_path, *serve_args]
        else:
            argv = ["-m", "repro.serve", *serve_args]
        self.t_launch = time.monotonic()
        self.proc = spawn(argv, stdout=subprocess.PIPE)
        line = read_line(self.proc.stdout, timeout=60.0).decode()
        m = re.search(r"listening on [^:]+:(\d+)", line)
        if m is None:
            self.close()
            raise BenchError(
                f"server did not report a port (exit {self.proc.returncode},"
                f" said {line!r})"
            )
        self.port = int(m.group(1))

    def close(self) -> None:
        """SIGINT (graceful drain and final snapshot), then reap and
        remove the cache directory."""
        stop(self.proc)
        kill_group(self.proc)
        self.proc.stdout.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def feed(self, data: bytes) -> list[bytes]:
        """Append received bytes; return the complete lines."""
        if b"\n" not in data:
            self.buf += data
            return []
        *lines, self.buf = (self.buf + data).split(b"\n")
        return lines

    def rpc(self, obj: dict) -> dict:
        """Blocking request/reply, only between timed phases."""
        self.sock.sendall(json.dumps(obj).encode() + b"\n")
        while True:
            data = self.sock.recv(1 << 16)
            if not data:
                raise BenchError("server closed the connection")
            lines = self.feed(data)
            if lines:
                if len(lines) > 1 or self.buf:
                    raise BenchError("unexpected extra frames from the server")
                return json.loads(lines[0])

    def close(self) -> None:
        self.sock.close()


def final_tag(line: bytes) -> int | None:
    """The tag of a request's last frame, None for other frames.

    Cheap by design: it looks only at the head of the line.
    """
    head = line[:96]
    if b'"op":"accepted"' in head or b'"op":"progress"' in head:
        return None
    m = _TAG.search(head) or _TAG.search(line)
    return int(m.group(1)) if m else -1


@dataclass
class Done:
    """A finished request as the generator saw it."""

    tag: int
    sent: float
    recv: float
    line: bytes
    #: How late the generator sent it: after its due time (open loop) or
    #: after its connection's previous request finished (closed loop).
    lag: float = 0.0
    due: float = 0.0
    job: int | None = None


@dataclass
class Phase:
    start: float = 0.0
    #: When sending stops (closed loop) or the last request is due.
    end: float = 0.0
    #: When the last reply was read or the drain gave up.
    stopped: float = 0.0
    done: list = field(default_factory=list)
    unanswered: int = 0
    bytes_in: int = 0   # client -> server
    bytes_out: int = 0  # server -> client
    exhausted: bool = False


def _connections(port: int) -> list[Conn]:
    return [Conn(port) for _ in range(CONNECTIONS)]


def _ping(conn: Conn) -> None:
    reply = conn.rpc({"op": "ping"})
    if reply.get("op") != "pong":
        raise BenchError(f"ping answered with {reply}")


def open_loop(conns: list[Conn], reqs: list[Request], rate: float,
              drain_s: float = 30.0) -> Phase:
    """Send ``reqs`` at ``rate`` regardless of replies (main thread);
    a second thread reads replies.  Latency is measured from each
    request's due time, so a stall also charges the requests queued
    behind it."""
    n = len(reqs)
    base = reqs[0].tag
    sent = [0.0] * n
    recv = [0.0] * n
    lines: list = [None] * n
    phase = Phase()
    remaining = [n]
    stray: list = []

    def receive(deadline_box):
        sel = selectors.DefaultSelector()
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        try:
            while remaining[0] and time.monotonic() < deadline_box[0]:
                for key, _ in sel.select(timeout=0.2):
                    conn = key.data
                    data = conn.sock.recv(1 << 16)
                    t = time.monotonic()
                    if not data:
                        raise BenchError("server closed the connection")
                    phase.bytes_out += len(data)
                    for line in conn.feed(data):
                        tag = final_tag(line)
                        if tag is None:
                            continue
                        i = tag - base
                        if 0 <= i < n and lines[i] is None:
                            recv[i] = t
                            lines[i] = line
                            remaining[0] -= 1
                        else:
                            stray.append(line)
        finally:
            sel.close()

    deadline_box = [float("inf")]
    errors: list = []

    def guarded():
        try:
            receive(deadline_box)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    reader = threading.Thread(target=guarded, name="perfbench-reader")
    reader.start()
    phase.start = t0 = time.monotonic() + 0.01
    interval = 1.0 / rate
    try:
        for i, req in enumerate(reqs):
            due = t0 + i * interval
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            t = time.monotonic()
            conns[i % CONNECTIONS].sock.sendall(req.frame)
            sent[i] = t
            phase.bytes_in += len(req.frame)
    finally:
        deadline_box[0] = time.monotonic() + drain_s
        reader.join()
    phase.stopped = time.monotonic()
    if errors:
        raise errors[0]
    phase.end = t0 + n * interval
    for i, req in enumerate(reqs):
        due = t0 + i * interval
        if lines[i] is None:
            phase.unanswered += 1
            continue
        phase.done.append(
            Done(req.tag, sent[i], recv[i], lines[i], lag=sent[i] - due, due=due)
        )
    phase.unanswered += len(stray)
    return phase


def closed_loop(conns: list[Conn], frames, window: int, seconds: float,
                drain_s: float = 60.0) -> Phase:
    """Keep ``window`` requests outstanding per connection for
    ``seconds``; a connection sends its next frame as soon as one of its
    requests finishes.  ``frames`` yields ``(tag, bytes)``."""
    phase = Phase()
    sel = selectors.DefaultSelector()
    outstanding: dict[int, tuple[float, float]] = {}  # tag -> (sent, freed)
    try:
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)

        def send(conn: Conn, freed: float) -> bool:
            nxt = next(frames, None)
            if nxt is None:
                phase.exhausted = True
                return False
            tag, frame = nxt
            t = time.monotonic()
            conn.sock.sendall(frame)
            phase.bytes_in += len(frame)
            outstanding[tag] = (t, freed)
            return True

        phase.start = time.monotonic()
        phase.end = phase.start + seconds
        for c in conns:
            for _ in range(window):
                send(c, phase.start)
        drain_until = None
        while outstanding:
            now = time.monotonic()
            if now >= phase.end and drain_until is None:
                drain_until = now + drain_s
            if drain_until is not None and now > drain_until:
                break
            for key, _ in sel.select(timeout=0.2):
                conn = key.data
                data = conn.sock.recv(1 << 16)
                t = time.monotonic()
                if not data:
                    raise BenchError("server closed the connection")
                phase.bytes_out += len(data)
                for line in conn.feed(data):
                    tag = final_tag(line)
                    if tag is None:
                        continue
                    entry = outstanding.pop(tag, None)
                    if entry is None:
                        phase.unanswered += 1  # a frame for no request
                        continue
                    t_sent, freed = entry
                    phase.done.append(
                        Done(tag, t_sent, t, line, lag=t_sent - freed)
                    )
                    if t < phase.end:
                        send(conn, t)
        phase.unanswered += len(outstanding)
    finally:
        sel.close()
    phase.stopped = time.monotonic()
    return phase


@contextlib.contextmanager
def generator_gc_off():
    """No cyclic garbage collection in the load generator while it
    times: the replies it keeps would make each collection longer, and
    a collection pause delays the next request."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def throughput(phase: Phase) -> tuple[list, float]:
    """The requests finished by the end of the timed window, and the
    time from the phase start to the last of them."""
    done = [d for d in phase.done if d.recv <= phase.end]
    if not done:
        raise BenchError("no request finished inside the timed window")
    return done, max(d.recv for d in done) - phase.start


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


def expected_pairs(spec: dict) -> list[tuple[float, float]]:
    """What ``grid_map`` in this process returns for a request spec."""
    from repro.serve.registry import build
    from repro.serve.server import build_latency, canonical_latency, parse_point
    from repro.sim.sweep import grid_map

    programs = build(spec["program"], spec.get("args"), spec.get("seed"))
    points = [parse_point(p) for p in spec["points"]]
    return grid_map(
        programs,
        points,
        backend=spec.get("backend", "auto"),
        latency=build_latency(canonical_latency(spec.get("latency"))),
    )


def check_served(workload: str, tag: int, spec: dict, served,
                 expected=None) -> str | None:
    """None when every served pair equals ``grid_map``'s, else a message
    naming the workload, the request and the first differing point."""
    if expected is None:
        expected = expected_pairs(spec)
    if len(served) != len(expected):
        return (f"{workload}: request {tag} returned {len(served)} pairs "
                f"for {len(expected)} points")
    for i, (got, want) in enumerate(zip(served, expected)):
        if tuple(got) != tuple(want):
            return (f"{workload}: request {tag} point {i} "
                    f"{spec['points'][i]}: served {list(got)} != grid_map "
                    f"{list(want)}")
    return None


def decode_final(workload: str, d: Done) -> tuple[dict | None, str | None]:
    """(result frame, None) or (None, failure message)."""
    try:
        msg = json.loads(d.line)
    except json.JSONDecodeError as exc:
        return None, f"{workload}: request {d.tag}: undecodable reply ({exc})"
    if msg.get("op") != "result":
        return None, (f"{workload}: request {d.tag}: {msg.get('error')} "
                      f"{msg.get('detail', '')}".rstrip())
    return msg, None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _stats_delta(before: dict, after: dict) -> dict:
    def pick(s: dict) -> dict:
        health = s.get("health", {}).get("pool", {})
        persist = s.get("persistence", {})
        return {
            "requests": s["requests"],
            "points": s["points"],
            "served_cache": s["served_cache"],
            "served_inflight": s["served_inflight"],
            "computed": s["computed"],
            "batches": s["batches"],
            "sharded_batches": s["sharded_batches"],
            "errors": s["errors"],
            "shed": s["shed"],
            "cache_hits": s["cache"]["hits"],
            "cache_misses": s["cache"]["misses"],
            "cache_evictions": s["cache"]["evictions"],
            "journal_records": persist.get("journal_records", 0),
            "snapshots": persist.get("snapshots", 0),
            "pool_restarts": health.get("restarts", 0),
            "worker_deaths": health.get("worker_deaths", 0),
        }

    b, a = pick(before), pick(after)
    return {k: a[k] - b[k] for k in a}


def _setup(workload: str, trace: bool, tiny: bool, warm) -> tuple:
    """Start the server ``SETUP_REPS`` times (the last one stays up).

    Set-up time runs from launching the server process to the first
    timed request: imports, server start until the first ``pong``, and
    ``warm`` (serve_hot's cache warm-up pass).
    """
    reps = 1 if (trace or tiny) else SETUP_REPS
    times = []
    for rep in range(reps):
        cache_dir = None
        if workload == "serve_cold":
            cache_dir = os.path.join(TMP, f"cache-{uuid.uuid4().hex}")
        server = Server(trace, cache_dir)
        conns = []
        try:
            conns = _connections(server.port)
            _ping(conns[0])
            if warm is not None:
                warm(conns)
            times.append(time.monotonic() - server.t_launch)
        except BaseException:
            for c in conns:
                c.close()
            server.close()
            raise
        if rep < reps - 1:
            for c in conns:
                c.close()
            server.close()
    times.sort()
    return server, conns, times


def _finish(server: Server, conns: list[Conn]):
    """Stats after the timed phase, peak RSS, shutdown, spans."""
    stats = conns[0].rpc({"op": "stats"})["stats"]
    rss = vm_hwm_mb(server.proc.pid)
    for c in conns:
        c.close()
    server.close()
    dump = None
    if server.spans_path is not None:
        dump = tracing.load(server.spans_path)
        os.remove(server.spans_path)
    return stats, rss, dump


def _protocol_self_ms(done: list, dump: dict) -> float:
    """Client latency minus the server's submit and wait, summed over
    the timed requests (matched by job id)."""
    server_s: dict = {}
    for name, start, end, _sid, _parent, req, _attrs in dump["spans"]:
        if name in ("server.submit", "server.wait") and req is not None:
            server_s[req] = server_s.get(req, 0.0) + (end - start)
    total = 0.0
    for d in done:
        if d.job in server_s:
            total += (d.recv - d.sent) - server_s[d.job]
    return total * 1e3


def run_serve_hot(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    specs, weights, rng = hot_specs(seed, 8 if tiny else HOT_POINTS)
    segments = max(2, int(seconds / (2 * HOT_SEGMENT_S)))
    per_segment = int(HOT_RATE * HOT_SEGMENT_S)
    order1 = rng.choices(range(len(specs)), weights, k=segments * per_segment)
    order2 = rng.choices(range(len(specs)), weights, k=HOT_CYCLE)
    warm_reqs = [make_request(i, "warm", s) for i, s in enumerate(specs)]
    phase1_reqs = [
        make_request(len(specs) + i, "hot", specs[k])
        for i, k in enumerate(order1)
    ]
    phase2_frames = [
        (PHASE2_TAG + i, encode(PHASE2_TAG + i, specs[k]))
        for i, k in enumerate(order2)
    ]
    key_of = {r.tag: order1[i] for i, r in enumerate(phase1_reqs)}
    key_of.update({PHASE2_TAG + i: k for i, k in enumerate(order2)})

    def warm(conns):
        # Every distinct request once, all at the same time: afterwards
        # each timed request is a cache hit.
        frames = iter([(r.tag, r.frame) for r in warm_reqs])
        ph = closed_loop(conns, frames, -(-len(warm_reqs) // CONNECTIONS), 60.0)
        bad = [d for d in ph.done if json.loads(d.line).get("op") != "result"]
        if bad or ph.unanswered:
            raise BenchError(
                f"warm-up failed: {ph.unanswered} unanswered, "
                f"{bad[0].line[:200] if bad else b''!r}"
            )

    server, conns, setup_times = _setup("serve_hot", trace, tiny, warm)
    try:
        before = conns[0].rpc({"op": "stats"})["stats"]

        def cycle():
            while True:
                yield from phase2_frames

        frames = cycle()
        p1s, p2s = [], []
        with generator_gc_off():
            for s in range(segments):
                batch = phase1_reqs[s * per_segment:(s + 1) * per_segment]
                p1s.append(open_loop(conns, batch, HOT_RATE))
                p2s.append(closed_loop(conns, frames, HOT_WINDOW, HOT_SEGMENT_S))
        stats, rss, dump = _finish(server, conns)
    except BaseException:
        for c in conns:
            c.close()
        server.close()
        raise

    # -- after the timed phases: decode and check every reply ---------
    errors: list = []
    expected = {}
    by_family: dict = {}
    for k, s in enumerate(specs):
        by_family.setdefault(s["program"], []).append(k)
    for family, ks in by_family.items():
        merged = dict(specs[ks[0]])
        merged["points"] = [specs[k]["points"][0] for k in ks]
        for k, pair in zip(ks, expected_pairs(merged)):
            expected[k] = [pair]
    done1 = [d for p in p1s for d in p.done]
    done2 = [d for p in p2s for d in p.done]
    failed = sum(p.unanswered for p in p1s + p2s)
    for d in done1 + done2:
        msg, err = decode_final("serve_hot", d)
        if err is None:
            d.job = msg.get("job")
            k = key_of[d.tag]
            err = check_served("serve_hot", d.tag, specs[k], msg["results"],
                               expected[k])
        if err is not None:
            failed += 1
            errors.append(err)

    # Per segment: phase-1 latency quantiles from each request's due
    # time, and phase-2 completions inside the segment per second.
    seg_p50, seg_p90 = zip(*(
        p50_p90([(d.recv - d.due) * 1e3 for d in p.done]) for p in p1s
    ))
    seg_rps = [
        sum(1 for d in p.done if d.recv <= p.end) / (p.end - p.start)
        for p in p2s
    ]
    rps = best_decile(seg_rps, higher_is_better=True)
    lag50, lag90 = p50_p90([d.lag * 1e3 for d in done1])
    delta = _stats_delta(before, stats)
    e2e = {
        "setup_s": setup_times[len(setup_times) // 2],
        "rps": rps,
        "points_per_s": rps,  # one point per request
        "p50_ms": best_decile(seg_p50, higher_is_better=False),
        "p90_ms": best_decile(seg_p90, higher_is_better=False),
        "peak_rss_mb": rss,
    }
    layers = None
    if dump is not None:
        layers = tracing.layer_metrics(
            dump["spans"], (p1s[0].start, p2s[-1].stopped),
            dump["cost_per_span"],
            _serve_extra(delta, done1 + done2, dump,
                         sum(p.bytes_in for p in p1s + p2s),
                         sum(p.bytes_out for p in p1s + p2s), lag50, lag90),
        )
    detail = {
        "setup_s_reps": setup_times,
        "segments": segments,
        "phase1": {"rate": HOT_RATE, "sent": len(phase1_reqs),
                   "answered": len(done1),
                   "samples_per_segment": per_segment,
                   "p50_ms": seg_p50, "p90_ms": seg_p90,
                   "generator_lag_p50_ms": lag50,
                   "generator_lag_p90_ms": lag90},
        "phase2": {"window_per_connection": HOT_WINDOW,
                   "completed": len(done2), "rps": seg_rps},
        "server_stats_delta": delta,
    }
    return Outcome(e2e, layers, len(phase1_reqs) + len(done2) + sum(
        p.unanswered for p in p2s), failed, errors, detail)


def _serve_extra(delta, done, dump, bytes_in, bytes_out, lag50, lag90):
    batches = delta["batches"]
    return {
        "protocol.self_ms": _protocol_self_ms(done, dump),
        "protocol.bytes_in": bytes_in,
        "protocol.bytes_out": bytes_out,
        "server.points_per_batch": delta["computed"] / batches if batches else 0.0,
        "server.sharded_frac": delta["sharded_batches"] / batches if batches else 0.0,
        "server.errors": delta["errors"],
        "server.shed": delta["shed"],
        "cache.evictions": delta["cache_evictions"],
        "supervise.restarts": delta["pool_restarts"],
        "supervise.deaths": delta["worker_deaths"],
        "loadgen.lag_p50_ms": lag50,
        "loadgen.lag_p90_ms": lag90,
    }


def run_serve_cold(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    reqs = cold_requests(seed, max(40, int(COLD_MAX_RATE * seconds)), tiny)
    by_tag = {r.tag: r for r in reqs}
    server, conns, setup_times = _setup("serve_cold", trace, tiny, None)
    try:
        before = conns[0].rpc({"op": "stats"})["stats"]
        with generator_gc_off():
            phase = closed_loop(
                conns, ((r.tag, r.frame) for r in reqs), 1, seconds
            )
        stats, rss, dump = _finish(server, conns)
    except BaseException:
        for c in conns:
            c.close()
        server.close()
        raise

    errors: list = []
    failed = phase.unanswered
    results = {}
    for d in phase.done:
        msg, err = decode_final("serve_cold", d)
        if err is not None:
            failed += 1
            errors.append(err)
            continue
        d.job = msg.get("job")
        results[d.tag] = msg["results"]
    # The sample: the first request of every shape, then every tenth.
    sample, seen = [], set()
    for r in reqs:
        if r.tag not in results:
            continue
        if r.shape not in seen or r.tag % 10 == 0:
            seen.add(r.shape)
            sample.append(r)
    for r in sample:
        err = check_served("serve_cold", r.tag, r.spec, results[r.tag])
        if err is not None:
            failed += 1
            errors.append(err)

    # A server fast enough to use every pre-encoded frame ends the phase
    # early; the rates are then taken over the time it took.
    done, span = throughput(phase)
    windows = max(1, int(span / COLD_WINDOW_S))
    w_len = span / windows
    w_req, w_pts = [0] * windows, [0] * windows
    for d in done:
        w = min(int((d.recv - phase.start) / w_len), windows - 1)
        w_req[w] += 1
        w_pts[w] += by_tag[d.tag].n_points
    w_rps = [n / w_len for n in w_req]
    w_pps = [n / w_len for n in w_pts]
    p50, p90 = p50_p90([(d.recv - d.sent) * 1e3 for d in done])
    lag50, lag90 = p50_p90([d.lag * 1e3 for d in phase.done])
    delta = _stats_delta(before, stats)
    e2e = {
        "setup_s": setup_times[len(setup_times) // 2],
        "rps": best_decile(w_rps, higher_is_better=True),
        "points_per_s": best_decile(w_pps, higher_is_better=True),
        "p50_ms": p50,
        "p90_ms": p90,
        "peak_rss_mb": rss,
    }
    layers = None
    if dump is not None:
        layers = tracing.layer_metrics(
            dump["spans"], (phase.start, phase.stopped), dump["cost_per_span"],
            _serve_extra(delta, phase.done, dump, phase.bytes_in,
                         phase.bytes_out, lag50, lag90),
        )
    shapes: dict = {}
    for d in done:
        shapes.setdefault(by_tag[d.tag].shape, []).append((d.recv - d.sent) * 1e3)
    shapes = {k: {"count": len(v), "p50_ms": p50_p90(v)[0]}
              for k, v in sorted(shapes.items())}
    detail = {
        "setup_s_reps": setup_times,
        "completed_in_window": len(done),
        "completed": len(phase.done),
        "by_shape": shapes,
        "frames_exhausted": phase.exhausted,
        "window_s": w_len,
        "rps": w_rps,
        "points_per_s": w_pps,
        "checked_requests": len(sample),
        "server_stats_delta": delta,
    }
    return Outcome(e2e, layers, len(phase.done) + phase.unanswered, failed,
                   errors, detail)
