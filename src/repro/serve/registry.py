"""Named program families: what the server can be asked to simulate.

A simulation request names a *program family* plus canonical arguments;
the registry turns that name into the ``programs(rank, P) -> generator``
factory the machine and the compiled backend both consume.  Names exist
so that (a) requests are serializable — a wire client cannot ship a
Python generator function — and (b) results are cacheable: the cache
key's *program fingerprint* (:func:`fingerprint`) hashes the family
name, its canonicalized arguments, and a digest of the code that
computes the result (:func:`_code_digest`: every ``.py`` file of the
``repro`` package), so a cached entry is never served across a code
change that could alter results.  The seed is a separate cache-key
field.

Families are module-level callables built from picklable program
objects, so the server's process-pool shards can rebuild them by name
on the worker side (:func:`build`).  Registering a family is one
decorator::

    @register("my_family")
    def _build_my_family(args: dict, seed: int | None):
        '''One-line description used by the stats endpoint.'''
        return MyProgram(**args)   # picklable (rank, P) -> generator

Builders must validate their arguments loudly and derive any randomness
from ``seed`` alone — the scheduler's no-shared-randomness contract
(:mod:`repro.sim.sweep`) is what makes served results bit-identical to
a serial loop.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from pathlib import Path
from typing import Callable

__all__ = [
    "build",
    "families",
    "fingerprint",
    "get_family",
    "register",
]

#: name -> builder ``(args: dict, seed: int | None) -> programs``.
_REGISTRY: dict[str, Callable] = {}

#: The ``repro`` package directory: :func:`_code_digest` hashes every
#: ``.py`` file under it.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def register(name: str):
    """Class/function decorator adding a family builder under ``name``."""

    def _add(builder):
        if name in _REGISTRY:
            raise ValueError(f"program family {name!r} already registered")
        _REGISTRY[name] = builder
        return builder

    return _add


def get_family(name: str) -> Callable:
    """Look up a family builder; unknown names refuse loudly."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown program family {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def families() -> dict[str, str]:
    """Registered family names with their one-line descriptions."""
    return {
        name: (inspect.getdoc(b) or "").splitlines()[0]
        if inspect.getdoc(b)
        else ""
        for name, b in sorted(_REGISTRY.items())
    }


def canonical_args(args: dict | None) -> tuple:
    """Canonicalize request arguments into a hashable, ordered form.

    A value that cannot be hashed (a list, a mapping) refuses with a
    ``TypeError`` naming the argument: the tuple keys the cache."""
    if not args:
        return ()
    try:
        items = tuple(sorted(args.items()))
    except TypeError as exc:
        raise TypeError(f"program args must be sortable scalars: {exc}")
    for name, value in items:
        try:
            hash(value)
        except TypeError:
            raise TypeError(
                f"program arg {name!r} has unhashable type "
                f"{type(value).__name__}; args must be hashable scalars"
            ) from None
    return items


def build(name: str, args: dict | None, seed: int | None):
    """Instantiate the family: ``programs(rank, P)`` ready for any backend."""
    return get_family(name)(dict(args or {}), seed)


@functools.cache
def _code_digest() -> str:
    """SHA-256 of every ``.py`` file of the ``repro`` package.

    The set is the whole package, not the modules a served result
    imports: the registered families, their program objects, the
    machine, the compiled evaluator, and whatever they call.
    Nothing is left out, because leaving a subtree out would need a
    proof that no served result executes it.  Files are hashed in
    sorted order of their package-relative paths, so the digest does
    not depend on import order or on where the package is installed.
    Computed once per process.
    """
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        digest.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def fingerprint(name: str, args: dict | tuple | None) -> str:
    """The cache key's program component: name + args + code digest.

    ``args`` is a mapping, or the tuple :func:`canonical_args` made of
    one, which is taken as is: a request canonicalizes its args once.
    The seed and backend are *separate* cache-key fields
    (:class:`repro.serve.cache.CacheKey`), *not* folded in here — the
    fingerprint identifies the family and the code that computes it.
    Folding in :func:`_code_digest` means any edit to the package —
    a family's program, the machine, the compiled evaluator — changes
    every cache key: a persisted cache replayed by changed code drops
    its entries as stale instead of serving old bits.  Memoized per
    (family, canonical args), the last 4,096 of them, since clients
    choose the args; unknown families refuse loudly.
    """
    if not isinstance(args, tuple):
        args = canonical_args(args)
    return _fingerprint(name, args)


@functools.lru_cache(maxsize=4096)
def _fingerprint(name: str, args: tuple) -> str:
    get_family(name)
    payload = json.dumps(
        {"family": name, "args": args, "code": _code_digest()},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# Built-in families.  Program objects are picklable classes so a
# process-pool shard can rebuild and run them worker-side.
# ----------------------------------------------------------------------


class _StreamProgram:
    """Rank 0 streams ``k`` messages to rank P-1; everyone else relays."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, rank: int, P: int):
        from ..sim import Recv, Send

        k = self.k
        if P == 1:
            return iter(())

        def prog():
            if rank == 0:
                for i in range(k):
                    yield Send(1, payload=i)
                return
            for _ in range(k):
                m = yield Recv()
                if rank < P - 1:
                    yield Send(rank + 1, payload=m.payload)

        return prog()


class _FloodProgram:
    """Every rank sends ``k`` messages to rank 0 (capacity-stall regime)."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, rank: int, P: int):
        from ..sim import Recv, Send

        k = self.k

        def prog():
            if rank == 0:
                for _ in range(k * (P - 1)):
                    yield Recv()
                return
            for _ in range(k):
                yield Send(0)

        return prog()


class _BcastTreeProgram:
    """Pipelined optimal-tree broadcast of ``k`` items, any ``P``.

    The tree shape is the optimal single-item broadcast tree for the
    paper's base parameters at each ``P`` (cached per instance), so one
    program object serves a grid whose ``P`` varies.
    """

    def __init__(self, k: int):
        self.k = k
        self._trees: dict[int, list[list[int]]] = {}

    def __call__(self, rank: int, P: int):
        from ..algorithms.broadcast import (
            optimal_broadcast_tree,
            pipelined_broadcast_program,
        )
        from ..core import LogPParams

        children = self._trees.get(P)
        if children is None:
            children = optimal_broadcast_tree(
                LogPParams(L=6, o=2, g=4, P=P)
            ).children
            self._trees[P] = children
        return pipelined_broadcast_program(children, range(self.k))(rank, P)


def _int_arg(args: dict, key: str, default: int, minimum: int = 1) -> int:
    val = args.pop(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise ValueError(f"{key} must be an int >= {minimum}, got {val!r}")
    return val


def _no_extras(name: str, args: dict) -> None:
    if args:
        raise ValueError(
            f"program family {name!r} got unknown args {sorted(args)}"
        )


@register("stream")
def _build_stream(args: dict, seed: int | None):
    """Pipelined point-to-point relay stream of k messages (Section 4.1)."""
    k = _int_arg(args, "k", 16)
    _no_extras("stream", args)
    return _StreamProgram(k)


@register("flood")
def _build_flood(args: dict, seed: int | None):
    """Many-to-one flood of k messages per sender (Section 4.1.2 stalls)."""
    k = _int_arg(args, "k", 8)
    _no_extras("flood", args)
    return _FloodProgram(k)


@register("bcast_tree")
def _build_bcast_tree(args: dict, seed: int | None):
    """Pipelined optimal-tree broadcast of k items (Section 3.1 tree)."""
    k = _int_arg(args, "k", 16)
    _no_extras("bcast_tree", args)
    # Import when built, not first in __call__: processes forked after
    # the build (live ranks) then inherit the package.
    from ..algorithms import broadcast  # noqa: F401
    return _BcastTreeProgram(k)
