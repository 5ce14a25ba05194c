"""Result cache: exact-key LRU over per-point simulation results.

One cache entry is one evaluated grid point — the ``(makespan,
total_stall_time)`` pair :func:`repro.sim.sweep.grid_map` reports for
it.  The key (:class:`CacheKey`) is the full determinism domain of that
value, per the serving contract:

* ``fingerprint`` — the program family identity
  (:func:`repro.serve.registry.fingerprint`: name + canonical args +
  builder source hash), so a code change invalidates rather than
  corrupts;
* ``point`` — the canonicalized parameter point ``(L, o, g, P, G)``;
* ``seed`` — the request seed the family derives randomness from;
* ``latency`` — the canonical shared-latency spec tuple
  (:func:`repro.serve.server.canonical_latency`), so a seeded-jitter
  sweep and the fixed-``L`` sweep of the same family never collide;
* ``backend`` — the *resolved* backend (``machine`` / ``compiled``).
  The two backends are bit-identical by the compiled evaluator's
  contract, so sharing entries across them would be sound — but keying
  them separately keeps a (hypothetical) divergence a visible test
  failure instead of a cache-poisoning bug, and costs only capacity.

Caching is therefore *transparent*: a hit returns the bit-identical
pair a fresh serial run would produce, which ``tests/test_serve.py``
pins cold-vs-warm.

The store is a plain LRU (``OrderedDict`` move-to-end) with hit/miss/
eviction counters surfaced through the server's stats endpoint and the
hit rate in the ``python -m repro.serve --smoke`` report.

Persistence (:class:`CachePersistence`) makes the cache survive server
restarts: every computed group is appended, one record a point, to a
write-ahead JSONL journal (``journal.jsonl`` under ``cache_dir``) with
one write and one flush before any of its points is ``put``.  The
journal is compacted into a snapshot (``snapshot.jsonl``, written
atomically via a temp file + ``os.replace``, after which the journal
restarts empty) once it holds as many records as the last snapshot
wrote, and never fewer than ``snapshot_every``.  Each rewrite is thus
paid for by as many journaled results as it rewrites: compaction costs
a constant number of record encodes per result whatever the cache
size, and the files stay bounded (a snapshot of at most the cache's
entries, a journal below ``max(snapshot_every, last snapshot)``
records at every compaction check).  On startup the snapshot is replayed first, then the journal.
Replay is defensive in exactly two ways, both loud:

* **Fingerprint validation.**  Each record stores the family name and
  canonical args alongside the fingerprint it was computed under; at
  replay the fingerprint is *recomputed* against the current code and a
  mismatch (the family's builder changed, or the family no longer
  exists) drops the entry with a ``RuntimeWarning`` and a counter —
  stale code must never serve stale bits as a "hit".
* **Torn-tail tolerance.**  A server SIGKILLed mid-append leaves a
  truncated last line; replay keeps every record up to the tear, counts
  it, and truncates the file back to the last good byte so future
  appends cannot concatenate into the torn fragment.  Anything after a
  tear is unreadable by construction (appends are sequential), so
  nothing silently skips.

JSON round-trips Python floats exactly (shortest-repr), so a replayed
``(makespan, stall)`` pair is bit-identical to the pair that was
journaled — restart cannot corrupt served values, it can only forget
the un-journaled tail of the very last write.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "CacheKey",
    "CachePersistence",
    "CacheStats",
    "ResultCache",
    "point_key",
]


def point_key(params) -> tuple:
    """Canonicalize a ``LogPParams`` point into a hashable key tuple.

    Floats are kept as-is (the simulator's arithmetic is float-exact,
    so ``L=6`` and ``L=6.0`` hash equal already); the LogGP long-message
    gap ``G`` participates when present so LogP and LogGP points with
    equal ``(L, o, g, P)`` never collide.
    """
    return (
        float(params.L),
        float(params.o),
        float(params.g),
        int(params.P),
        getattr(params, "G", None),
    )


class CacheKey(NamedTuple):
    """The determinism domain of one served per-point result.

    A named tuple, so building and hashing a key runs in C: every point
    of every request builds one and looks it up at least once."""

    fingerprint: str
    point: tuple
    seed: int | None
    backend: str
    #: Canonical shared-latency spec tuple
    #: (:func:`repro.serve.server.canonical_latency`); None = fixed-L.
    latency: tuple | None = None


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """Bounded LRU from :class:`CacheKey` to ``(makespan, stall)`` pairs."""

    def __init__(self, max_entries: int = 65_536):
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._store: OrderedDict[CacheKey, tuple[float, float]] = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: CacheKey) -> tuple[float, float] | None:
        pair = self._store.get(key)
        if pair is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return pair

    def peek(self, key: CacheKey) -> tuple[float, float] | None:
        """A side-effect-free lookup: no stats, no LRU reorder.

        Admission control asks "would this point be a miss?" *before*
        deciding to accept a request; that probe must not inflate the
        hit counters or refresh recency for a request that may be shed.
        """
        return self._store.get(key)

    def items(self):
        """Snapshot iteration in LRU order (coldest first).

        For :class:`CachePersistence` snapshots; the caller must not
        mutate the cache while iterating.
        """
        return iter(self._store.items())

    def put(self, key: CacheKey, pair: tuple[float, float]) -> None:
        store = self._store
        if key in store:
            store.move_to_end(key)
            store[key] = pair
            return
        store[key] = pair
        if len(store) > self.max_entries:
            store.popitem(last=False)
            self.stats.evictions += 1
        self.stats.entries = len(store)

    def clear(self) -> None:
        self._store.clear()
        self.stats.entries = 0


# ----------------------------------------------------------------------
# Persistence: write-ahead journal + snapshot (see module docstring)
# ----------------------------------------------------------------------

#: ``json.dumps(obj, separators=(",", ":"))``, the record format.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: Snapshot records per ``write``, so no snapshot is held whole.
_CHUNK = 512


def _number(x) -> str:
    """A value's JSON text: ``repr`` for an int or a finite float, which
    is what the encoder writes, else the encoder itself."""
    kind = type(x)
    if kind is int or (kind is float and x - x == 0.0):
        return repr(x)
    return _ENCODE(x)


class _RecordText:
    """Journal and snapshot lines: byte for byte ``_ENCODE`` of the record
    ``{"p": program, "a": args, "fp": key.fingerprint, "k": [point, seed,
    backend, latency], "v": pair}`` plus a newline.  The text a shape
    shares is encoded once; an instance serves one batch or snapshot."""

    def __init__(self):
        self._shapes: dict[tuple, tuple[str, str]] = {}

    def line(self, program: str, args: tuple, key: CacheKey, pair) -> str:
        fp, point, seed, backend, latency = key
        shape = (program, args, fp, seed, backend, latency)
        around = self._shapes.get(shape)
        if around is None:
            around = self._shapes[shape] = (
                f'{{"p":{_ENCODE(program)},"a":{_ENCODE(args)},'
                f'"fp":{_ENCODE(fp)},"k":[[',
                f'],{_ENCODE(seed)},{_ENCODE(backend)},{_ENCODE(latency)}],'
                '"v":[',
            )
        head, mid = around
        return (
            f'{head}{",".join(map(_number, point))}{mid}'
            f'{",".join(map(_number, pair))}]}}\n'
        )


def _retuple(obj):
    """JSON turns tuples into lists; keys need them back, recursively."""
    if isinstance(obj, list):
        return tuple(_retuple(x) for x in obj)
    return obj


class CachePersistence:
    """Journal/snapshot store under ``cache_dir``; owns no cache.

    The server calls :meth:`record` once per computed group, before it
    puts any of the group's points in the cache, and :meth:`load` once
    at startup (replaying entries *into* its cache);
    :meth:`snapshot` compacts whenever :attr:`snapshot_due` says so,
    plus once on graceful close.  ``snapshot_every`` is the floor of
    that growth rule, not a period.  Counters in :attr:`stats` surface
    through the ``stats`` endpoint's ``persistence`` block so an
    operator can see replay results and write failures without reading
    logs.
    """

    JOURNAL = "journal.jsonl"
    SNAPSHOT = "snapshot.jsonl"

    def __init__(self, cache_dir: str, *, snapshot_every: int = 256):
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.cache_dir = cache_dir
        self.snapshot_every = snapshot_every
        os.makedirs(cache_dir, exist_ok=True)
        self.journal_path = os.path.join(cache_dir, self.JOURNAL)
        self.snapshot_path = os.path.join(cache_dir, self.SNAPSHOT)
        self._journal_fh = None
        #: Journal records since the last snapshot, and that snapshot's
        #: size: the two sides of :attr:`snapshot_due`.
        self._since_snapshot = 0
        self._snapshot_size = 0
        self.stats = {
            "loaded": 0,
            "dropped_stale": 0,
            "torn_tails": 0,
            "journal_records": 0,
            "snapshots": 0,
            "snapshot_errors": 0,
        }

    # -- decoding (records are written by _RecordText) -----------------

    @staticmethod
    def _decode(obj: dict):
        program = obj["p"]
        args = tuple((str(k), v) for k, v in obj["a"])
        raw_pt, seed, backend, latency = obj["k"]
        L, o, g, P, G = raw_pt
        point = (
            float(L), float(o), float(g), int(P),
            None if G is None else float(G),
        )
        key = CacheKey(
            fingerprint=obj["fp"],
            point=point,
            seed=seed,
            backend=backend,
            latency=None if latency is None else _retuple(latency),
        )
        pair = (float(obj["v"][0]), float(obj["v"][1]))
        return program, args, key, pair

    # -- replay --------------------------------------------------------

    def load(self) -> list:
        """Replay snapshot then journal; see the module docstring.

        Returns validated ``(program, args, key, pair)`` tuples in
        write order (so an LRU refilled in order keeps recency), with
        stale-fingerprint entries dropped loudly and torn tails
        truncated in place.  The records read seed the compaction
        counters: later appends continue this journal, so it counts
        toward the next :attr:`snapshot_due` as if never interrupted.
        """
        from .registry import fingerprint

        entries = []
        current_fp: dict[tuple, str | None] = {}
        read = []
        for path in (self.snapshot_path, self.journal_path):
            read.append(0)
            for obj in self._read_records(path):
                read[-1] += 1
                try:
                    program, args, key, pair = self._decode(obj)
                except (KeyError, TypeError, ValueError, IndexError):
                    self.stats["dropped_stale"] += 1
                    continue
                ident = (program, args)
                if ident not in current_fp:
                    try:
                        current_fp[ident] = fingerprint(program, dict(args))
                    except (KeyError, TypeError, ValueError):
                        current_fp[ident] = None  # family gone
                if current_fp[ident] != key.fingerprint:
                    self.stats["dropped_stale"] += 1
                    continue
                entries.append((program, args, key, pair))
                self.stats["loaded"] += 1
        self._snapshot_size, self._since_snapshot = read
        if self.stats["dropped_stale"]:
            warnings.warn(
                f"cache replay dropped {self.stats['dropped_stale']} "
                f"stale entr(ies) under {self.cache_dir}: the recorded "
                "fingerprint no longer matches the current code (family "
                "changed or removed); those points will recompute",
                RuntimeWarning,
                stacklevel=2,
            )
        return entries

    def _read_records(self, path: str):
        """Yield decoded JSON records; truncate the file at a torn line.

        Appends are sequential, so the first undecodable line means
        everything after it is the debris of an interrupted write —
        truncating back to the last good byte keeps future appends from
        concatenating into the fragment.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        good_end = 0
        for line in data.splitlines(keepends=True):
            stripped = line.strip()
            if stripped:
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError:
                    break
                if not line.endswith(b"\n"):
                    # Decodable but unterminated: the flush raced the
                    # kill mid-line; a future append would corrupt it.
                    break
                yield obj
            good_end += len(line)
        if good_end < len(data):
            self.stats["torn_tails"] += 1
            warnings.warn(
                f"cache journal {path} had a torn tail "
                f"({len(data) - good_end} byte(s) after the last complete "
                "record); truncated back to the last good record",
                RuntimeWarning,
                stacklevel=3,
            )
            with open(path, "rb+") as fh:
                fh.truncate(good_end)

    # -- writing -------------------------------------------------------

    def record(self, program: str, args: tuple, keys, pairs) -> None:
        """Append a batch's write-ahead records, a line per ``(key,
        pair)``, with one ``write`` and one ``flush``.

        A flush is durability enough for the fault model here (process
        SIGKILL): the bytes live in the OS page cache, which survives
        the process.  Machine-level power loss is out of scope.  A
        failed write (disk full, cache dir removed) is cut back to the
        last whole record, so no later append can extend a fragment,
        and its ``OSError`` is re-raised with ``whole`` set to the
        number of the batch's records that stayed.  A journal that
        cannot be opened raises with no ``whole``: nothing was written.
        """
        text = _RecordText()
        lines = [
            text.line(program, args, key, pair)
            for key, pair in zip(keys, pairs)
        ]
        if self._journal_fh is None:
            self._journal_fh = open(self.journal_path, "ab")
        fh = self._journal_fh
        end = fh.tell()
        whole = len(lines)
        try:
            fh.write("".join(lines).encode())
            fh.flush()
        except OSError as exc:
            # Closing drops (or, given room again, completes) the bytes
            # the failed flush kept buffered; the truncate then cuts
            # whatever landed back to a record boundary.
            self._journal_fh = None
            with contextlib.suppress(OSError):
                fh.close()
            landed = 0
            with contextlib.suppress(OSError):
                landed = os.path.getsize(self.journal_path) - end
            # The lines are ASCII: a character is a byte.
            ends = [0, *itertools.accumulate(map(len, lines))]
            whole = bisect.bisect_right(ends, landed) - 1
            with contextlib.suppress(OSError):
                os.truncate(self.journal_path, end + ends[whole])
            exc.whole = whole
            raise
        finally:
            self.stats["journal_records"] += whole
            self._since_snapshot += whole

    @property
    def snapshot_due(self) -> bool:
        """The growth rule: compact once the journal holds as many
        records as the last snapshot wrote, and at least
        ``snapshot_every``.

        A snapshot of S entries rewrites at most the S' entries of the
        one before plus the J >= max(snapshot_every, S') records
        journaled since, so S <= 2J: compaction costs at most two
        record encodes per journaled result, where a fixed period would
        re-encode the whole cache every ``snapshot_every`` results.
        """
        return self._since_snapshot >= max(
            self.snapshot_every, self._snapshot_size
        )

    def snapshot(self, entries) -> None:
        """Compact: atomically rewrite the snapshot, restart the journal.

        ``entries`` iterates ``(program, args, key, pair)`` — the
        cache's current contents (evicted entries drop out of
        persistence here, by design: persistence mirrors the cache, it
        is not an archive).  The snapshot lands via temp file +
        ``os.replace`` so a kill mid-compaction leaves the old snapshot
        intact; only after the replace is the journal reset.

        A failed write (disk full, cache dir removed) is not raised:
        the old snapshot and journal stay as they were and still hold
        every entry, the partial temp file is removed, the failure
        counts in ``snapshot_errors`` (with one warning per store), and
        :attr:`snapshot_due` stays true so the next check retries.
        """
        tmp = self.snapshot_path + ".tmp"
        text = _RecordText()
        lines = (text.line(*entry) for entry in entries)
        written = 0
        try:
            with open(tmp, "wb") as fh:
                while chunk := list(itertools.islice(lines, _CHUNK)):
                    fh.write("".join(chunk).encode())
                    written += len(chunk)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
            self.close()
            self._journal_fh = open(self.journal_path, "wb")
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            self.stats["snapshot_errors"] += 1
            if self.stats["snapshot_errors"] == 1:
                warnings.warn(
                    f"cache snapshot under {self.cache_dir} failed ({exc}); "
                    "the previous snapshot and the journal still hold every "
                    "entry; compaction retries at each later check "
                    "(further failures count in snapshot_errors)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self.stats["snapshots"] += 1
        self._snapshot_size = written
        self._since_snapshot = 0

    def close(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    def stats_snapshot(self) -> dict:
        snap = dict(self.stats)
        snap["cache_dir"] = self.cache_dir
        snap["since_snapshot"] = self._since_snapshot
        return snap
