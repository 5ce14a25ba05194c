"""Simulation-as-a-service: the LogP prediction engine behind a server.

The paper's whole argument is that a calibrated ``(L, o, g, P)`` model
makes machine behaviour *predictable without the machine* — which makes
prediction a natural service: clients ask "what would this program's
makespan be at these parameter points?" and never run a simulator
themselves.  This package is that serving layer over the repository's
existing execution stack:

* :mod:`.registry` — named, fingerprinted program families (what a
  request may ask to simulate);
* :mod:`.cache` — exact-key LRU over per-point results;
* :mod:`.server` — :class:`SimulationServer`, the asyncio job engine:
  request-level dedup, result caching, cross-request batch coalescing
  into single vectorized compiled-grid evaluations, process-pool
  sharding of every batch past a measured shard size, and per-job
  progress streaming;
* :mod:`.protocol` — a JSON-lines TCP protocol plus a thin client;
* :mod:`.chaos` — the service-level chaos harness: SIGKILLed pool
  workers, a server killed and restarted mid-job, a journal truncated
  mid-write — results must stay bit-identical and deadline-bounded;
* ``python -m repro.serve`` (:mod:`.__main__`) — run the TCP server,
  ``--smoke`` for the self-checking parity/throughput probe CI runs,
  or ``--chaos`` for the service chaos drill.

The service fault model (DESIGN.md §12): sharded batches run on a
:class:`repro.sim.supervise.SupervisedPool` (worker death → restart +
retry + poison quarantine), jobs carry deadlines and can be cancelled,
admission is bounded (``overloaded`` error frames, never silent
queueing), and with ``--cache-dir`` the result cache persists across
restarts via a write-ahead journal + snapshot.

Serving invariant, pinned by ``tests/test_serve.py``: every result is
bit-identical to the serial sweep, whichever path produced it —
including results replayed from the journal after a crash.
"""

from .cache import CacheKey, CachePersistence, CacheStats, ResultCache
from .registry import families, fingerprint, register
from .server import (
    Job,
    JobCancelledError,
    JobDeadlineError,
    ServeConfig,
    ServerOverloaded,
    ServerShutdown,
    SimulationServer,
    SweepRequest,
    parse_point,
    serve_sweep,
)

__all__ = [
    "CacheKey",
    "CachePersistence",
    "CacheStats",
    "Job",
    "JobCancelledError",
    "JobDeadlineError",
    "ResultCache",
    "ServeConfig",
    "ServerOverloaded",
    "ServerShutdown",
    "SimulationServer",
    "SweepRequest",
    "families",
    "fingerprint",
    "parse_point",
    "register",
    "serve_sweep",
]
