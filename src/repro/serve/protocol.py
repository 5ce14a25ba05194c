"""JSON-lines TCP protocol: the server's wire surface and a thin client.

One frame per line, UTF-8 JSON.  Client frames carry an ``op`` plus an
optional ``tag`` (any JSON value) the server echoes back, so a client
can correlate frames when it pipelines requests:

``{"op": "submit", "program": "...", "points": [{"L":..,"o":..,"g":..,
"P":..}, ...], "args": {...}, "seed": null, "backend": "auto",
"latency": {"kind": "jittered", "L": 6.0, "scale_frac": 0.1,
"seed": 7}, "deadline": 30.0, "stream": true, "tag": "r1"}``
    Submit a sweep.  The server answers ``accepted`` (job id + point
    count), then — when ``stream`` — ``progress`` frames after every
    resolved point group, then one ``result`` frame with the
    submission-order ``[makespan, total_stall_time]`` pairs and the
    per-source serving counts, or an ``error`` frame.  ``deadline``
    (seconds, optional) bounds how long the job may wait before it
    fails with a ``deadline-exceeded`` error frame.

``{"op": "cancel", "job": 7, "tag": "c1"}``
    Cancel a job by id (the id from its ``accepted`` frame — usable
    from any connection).  Answers ``{"op": "cancelled", "job": 7,
    "ok": true}``; an unknown or already-finished job has ``ok`` false.
    The cancelled submission's own stream ends with a ``cancelled``
    error frame.

``{"op": "stats"}`` / ``{"op": "families"}`` / ``{"op": "ping"}``
    Introspection: server counters + cache stats + health/readiness
    (+ persistence replay counters when ``--cache-dir`` is set), the
    program registry, liveness.

Typed error frames a client can branch on (the ``error`` field):
``overloaded`` (admission refused, with a ``retry_after`` hint —
back off and resubmit), ``deadline-exceeded``, ``cancelled``, and
``server-shutdown``.  Anything else is an exception rendered as
``TypeName: message``.

Each connection queues the frames it sends in an outbox, whole frames
in order, so they are never interleaved mid-line.  The first frame
queued in a loop turn schedules one flush, which writes the whole
outbox with one ``write``: the replies to every request read in that
turn leave in one ``send``.  The outbox is also written as soon as it
holds ``OUTBOX_BYTES``, checked after each frame, and every reply
awaits ``drain()`` after its last frame, so a client that stops
reading stops the server reading from it.  A submit whose every point
hits the cache is answered by the read loop itself (``accepted``, one
``progress`` when streaming, ``result``), with no task; a submit that
must wait for computation gets a task, so a slow sweep does not block
a ``stats`` probe on the same socket.  A tag's frames arrive in order
on either path.

A job's own frames (``accepted``, ``progress``, ``result``) are
formatted directly: the tag goes through the JSON encoder once, ids
and counts are ints, and each result float is written with
``float.__repr__``, which is what the encoder writes for a finite
float (any other value goes through the encoder).  Their bytes are the
encoder's; ``tests/test_serve.py`` pins that.  Every other frame goes
through one shared compact encoder, and a line is decoded as UTF-8
and then parsed by one shared decoder.

Malformed input (not UTF-8, not JSON, nested past the parser's depth,
or not an object), and any exception the parse or the submit raises,
is answered with an ``error`` frame and the connection stays up — a
serving process must outlive its worst client.
"""

from __future__ import annotations

import asyncio
import json

from .cache import _number
from .registry import families
from .server import (
    Job,
    JobCancelledError,
    JobDeadlineError,
    ServerOverloaded,
    ServerShutdown,
    SimulationServer,
    SweepRequest,
)

__all__ = ["ServeClient", "handle_connection", "start_tcp_server"]

#: Refuse absurd frames before json-decoding them (memory safety).
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: A connection's outbox is written at once when it holds this much,
#: the transport's default high-water mark, so ``drain()`` sees the
#: bytes: a client that stops reading stops the server reading from it
#: before the outbox grows past this.
OUTBOX_BYTES = 64 * 1024


#: One compact encoder and one decoder for every frame: ``json.dumps``
#: with ``separators`` builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()


def _encode(obj: dict) -> bytes:
    return _ENCODER.encode(obj).encode() + b"\n"


# A job's own frames, formatted directly; ``tag`` is the JSON text of
# the client's tag.  Each is byte for byte ``_encode`` of its dict.


def _accepted(tag: str, job: Job) -> bytes:
    return (
        f'{{"op":"accepted","tag":{tag},"job":{job.id},'
        f'"total":{job.total}}}\n'
    ).encode()


def _progress(tag: str, job: Job, done: int) -> bytes:
    return (
        f'{{"op":"progress","tag":{tag},"job":{job.id},"done":{done},'
        f'"total":{job.total}}}\n'
    ).encode()


def _result(tag: str, job: Job, results) -> bytes:
    pairs = ",".join([f"[{_number(m)},{_number(s)}]" for m, s in results])
    src = job.sources
    return (
        f'{{"op":"result","tag":{tag},"job":{job.id},"results":[{pairs}],'
        f'"sources":{{"cache":{src["cache"]},"inflight":{src["inflight"]},'
        f'"computed":{src["computed"]}}}}}\n'
    ).encode()


async def handle_connection(
    server: SimulationServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection until EOF (see module docstring)."""
    loop = asyncio.get_running_loop()
    outbox: list[bytes] = []
    queued = 0  # bytes in the outbox
    tasks: set[asyncio.Task] = set()

    def flush() -> None:
        nonlocal queued
        if outbox:
            writer.write(b"".join(outbox))
            outbox.clear()
            queued = 0

    def queue(frame: bytes) -> None:
        nonlocal queued
        if not outbox:
            loop.call_soon(flush)
        outbox.append(frame)
        queued += len(frame)
        if queued >= OUTBOX_BYTES:
            flush()

    async def send(obj: dict) -> None:
        queue(_encode(obj))
        await writer.drain()

    async def reply(job: Job, tag, stream: bool) -> None:
        """An accepted job's frames: ``accepted``, ``progress`` frames
        when streaming, then ``result`` or ``error``, with one
        ``drain()`` after the last.  For a job finished at submit,
        every point a hit, nothing here suspends before that drain."""
        text = _ENCODER.encode(tag)
        queue(_accepted(text, job))
        if stream:
            async for done, _total in job.updates():
                queue(_progress(text, job, done))
        try:
            results = await job.wait()
        except ServerShutdown as exc:
            error = {"error": "server-shutdown", "detail": str(exc)}
        except JobDeadlineError as exc:
            error = {"error": "deadline-exceeded", "detail": str(exc)}
        except JobCancelledError as exc:
            error = {"error": "cancelled", "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            error = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            error = None
        if error is None:
            queue(_result(text, job, results))
        else:
            queue(_encode({"op": "error", "tag": tag, "job": job.id, **error}))
        await writer.drain()

    async def handle_submit(msg: dict) -> None:
        """Parse and submit; a job every point of which hit the cache is
        answered here, in this loop turn, and any other gets a task."""
        tag = msg.get("tag")
        try:
            request = SweepRequest.make(
                msg["program"],
                msg.get("points") or [],
                args=msg.get("args"),
                seed=msg.get("seed"),
                backend=msg.get("backend", "auto"),
                latency=msg.get("latency"),
                deadline=msg.get("deadline"),
            )
        except KeyError as exc:
            await send(
                {"op": "error", "tag": tag,
                 "error": f"submit frame missing field {exc.args[0]!r}"}
            )
            return
        except Exception as exc:  # noqa: BLE001 - reported to the client
            await send(
                {"op": "error", "tag": tag,
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        try:
            job = await server.submit(request)
        except ServerShutdown as exc:
            await send(
                {"op": "error", "tag": tag,
                 "error": "server-shutdown", "detail": str(exc)}
            )
            return
        except ServerOverloaded as exc:
            # Explicit load-shedding: the client backs off and retries;
            # nothing was accepted, so a retry is safe and complete.
            await send(
                {"op": "error", "tag": tag, "error": "overloaded",
                 "detail": str(exc), "retry_after": exc.retry_after}
            )
            return
        except Exception as exc:  # noqa: BLE001 - reported to the client
            await send(
                {"op": "error", "tag": tag,
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        stream = bool(msg.get("stream"))
        if job.finished:
            await reply(job, tag, stream)
            return
        task = asyncio.create_task(reply(job, tag, stream))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionResetError):
                break  # overlong frame or client gone
            if not line:
                break
            if len(line) > MAX_FRAME_BYTES:
                await send({"op": "error", "error": "frame too large"})
                continue
            try:
                msg = _DECODER.decode(line.decode())
            except (ValueError, RecursionError) as exc:
                # Not UTF-8, not JSON, or nested past the parser's depth.
                await send({"op": "error", "error": f"bad JSON: {exc}"})
                continue
            if not isinstance(msg, dict):
                await send(
                    {"op": "error",
                     "error": "a frame must be a JSON object, got "
                              f"{type(msg).__name__}"}
                )
                continue
            op = msg.get("op")
            if op == "submit":
                await handle_submit(msg)
            elif op == "stats":
                await send(
                    {"op": "stats", "tag": msg.get("tag"),
                     "stats": server.stats_snapshot()}
                )
            elif op == "families":
                await send(
                    {"op": "families", "tag": msg.get("tag"),
                     "families": families()}
                )
            elif op == "cancel":
                job_id = msg.get("job")
                ok = isinstance(job_id, int) and server.cancel_job(job_id)
                await send(
                    {"op": "cancelled", "tag": msg.get("tag"),
                     "job": job_id, "ok": bool(ok)}
                )
            elif op == "ping":
                await send({"op": "pong", "tag": msg.get("tag")})
            else:
                await send(
                    {"op": "error", "tag": msg.get("tag"),
                     "error": f"unknown op {op!r}"}
                )
    except ConnectionError:
        pass  # the client went away while a reply was being written
    finally:
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        flush()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_tcp_server(
    server: SimulationServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Bind the TCP listener; ``port=0`` picks an ephemeral port.

    The returned ``asyncio.Server``'s first socket reports the bound
    address (``srv.sockets[0].getsockname()``)."""
    await server.start()
    return await asyncio.start_server(
        lambda r, w: handle_connection(server, r, w),
        host,
        port,
        limit=MAX_FRAME_BYTES,
    )


class ServeClient:
    """Minimal request/response client for tests, smoke, and scripts.

    One in-flight submission at a time per client (frames for a single
    tag arrive in order; this client does not pipeline)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES
        )
        return cls(reader, writer)

    async def _send(self, obj: dict) -> None:
        self._writer.write(_encode(obj))
        await self._writer.drain()

    async def _recv(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def submit(
        self,
        program: str,
        points: list,
        *,
        args: dict | None = None,
        seed: int | None = None,
        backend: str = "auto",
        latency: dict | None = None,
        deadline: float | None = None,
        stream: bool = False,
    ) -> dict:
        """Submit and collect: returns the ``result`` frame with an extra
        ``"progress"`` list of ``[done, total]`` pairs when streaming.
        Raises ``RuntimeError`` on an ``error`` frame — the message is
        the typed error code (``overloaded``, ``deadline-exceeded``,
        ``cancelled``, ``server-shutdown``) when the server sent one."""
        await self._send(
            {
                "op": "submit",
                "program": program,
                "points": points,
                "args": args or {},
                "seed": seed,
                "backend": backend,
                "latency": latency,
                "deadline": deadline,
                "stream": stream,
            }
        )
        progress: list = []
        while True:
            frame = await self._recv()
            op = frame.get("op")
            if op == "error":
                raise RuntimeError(frame.get("error", "server error"))
            if op == "progress":
                progress.append([frame["done"], frame["total"]])
            elif op == "result":
                frame["progress"] = progress
                return frame
            # "accepted" and unknown frames: keep reading

    async def cancel(self, job_id: int) -> bool:
        """Cancel a job by id (use a *separate* client connection when
        the submitting one is mid-stream).  Returns the server's ``ok``."""
        await self._send({"op": "cancel", "job": job_id})
        frame = await self._recv()
        if frame.get("op") != "cancelled":
            raise RuntimeError(f"expected cancelled frame, got {frame}")
        return bool(frame.get("ok"))

    async def stats(self) -> dict:
        await self._send({"op": "stats"})
        frame = await self._recv()
        if frame.get("op") != "stats":
            raise RuntimeError(f"expected stats frame, got {frame}")
        return frame["stats"]

    async def ping(self) -> bool:
        await self._send({"op": "ping"})
        return (await self._recv()).get("op") == "pong"

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
