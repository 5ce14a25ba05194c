"""Symmetry folding: evaluate P-rank schedules as C equivalence classes.

Section 5 collectives are overwhelmingly rank-symmetric: every leaf of
an optimal broadcast tree, every same-(depth, slot) node of a binomial
tree runs the *same* opcode schedule against different peer ids.  The
unfolded compiled path (:mod:`.grid`) still tapes one schedule per
rank, so cost grows Θ(P).  This module partitions ranks into
equivalence classes and evaluates one representative per class, with
class *multiplicities* weighting the aggregate counters — Θ(C) where
C is often ``O(log² P)`` (binomial: 386 classes at P = 2^10, 6196 at
P = 2^20).

Canonical form
--------------
A rank's canonical form is ``(skeleton, arrival-form)``:

* **skeleton** — its lowered ops with every ``OP_SEND`` destination
  dropped (words and tags kept).  Peer ids are thereby rewritten to
  symbolic roles: "my parent", "my k-th child".
* **arrival-form** — the symbolic time at which its (single) incoming
  message arrives, expressed as a *max of affine forms* over the basis
  ``(1, L, o, g, send_interval)``.  Forms are built by walking each
  class's schedule once (max-plus algebra: adds distribute over max)
  and pruned by pointwise dominance — ``b ≥ a`` for all valid
  parameter points iff the coefficient difference ``d = b - a`` has
  ``d_1 ≥ 0``, ``d_L ≥ 0`` and ``d_si + min(d_o, 0) + min(d_g, 0) ≥ 0``
  (using ``0 ≤ o ≤ si`` and ``0 ≤ g ≤ si``).  The dominance collapse
  is what makes same-depth binomial subtrees merge: a saturated send
  chain ``max(end_{m-1}, start_{m-1} + si)`` simplifies to
  ``start_{m-1} + si`` because ``si ≥ o``.

Two ranks with equal canonical forms execute structurally identical
float chains fed by value-equal inputs, so under the dyadic-exactness
guard (below) their realized times are bit-identical and one
representative speaks for the class.

Eligibility and the refusal taxonomy
------------------------------------
Folding *refuses* — a loud :class:`FoldError` naming the reason, never
a silent wrong answer — whenever per-rank state could couple ranks
within a class:

* ``OP_BARRIER`` / ``OP_POLL`` / ``OP_NOW`` ops (global coupling,
  timing-dependent drains, clock observation);
* multi-word sends (LogGP streaming occupies the port);
* multi-source fan-in (a rank receiving more than one message) or a
  receive that is not the rank's first op;
* cyclic message dependence (defensive: the compiler's deadlock check
  already rejects these);
* draw-latency models (per-message RNG draws break rank symmetry),
  topology fabrics (per-``(src, dst)`` routing), compute jitter
  (rank-indexed);
* non-dyadic parameters or compute/sleep literals — the bit-identity
  guard: all inputs must be multiples of ``1/64`` with magnitude
  ≤ 2^20, so every realized sum stays exactly representable and
  float addition is associative across the fold;
* a capacity stall (or an unresolvable arrival/inject tie) at the
  reference point — stalls serialize through the wait-graph queue,
  which is rank-ordered and therefore not class-invariant.

Capacity soundness under multiplicities
---------------------------------------
With one incoming message per rank the destination-side in-flight
window never exceeds 1 ≤ capacity, so only the *source-side* window
counts.  The count at inject m is ``#{j < m : arrive_j > inject_m}``
— in-flight slots release at the ``_EV_ARRIVAL`` pop, and an arrival
tying an inject at the same timestamp pops first iff ``flight >= o``:
they are scheduled ``start_m - end_j = flight - o`` apart, and in the
triple tie ``flight == o`` the arrival's seq is still lower because
the inject pop that schedules it precedes every event able to commit
send m at that timestamp (recv sits at op 0; later computes/sleeps
process at or after the prior send's end).  Arrivals are monotone
along a send chain, so the in-flight set is a suffix pinned by two
boundary constraints per inject (plus one deduplicated ``_C_CAP`` row
per distinct count).  Overcounting at a replayed point is harmless —
counts feed only the stall check, and ``_C_CAP`` guarantees slack —
so the in-flight boundary is ``<=``; the released boundary is ``<=``
under a one-time ``o <= flight`` tape guard when the reference
releases ties, strict otherwise, and points that fail either simply
diverge and re-record.  When no stall
occurs the counts never feed a value, so the folded chains — pure
max/add expressions — are point-universally exact.  ``words == 1``
tree traffic provably never stalls: count ≤ ⌈L/si⌉ − 1 < capacity
since ``si ≥ g``.

One walk, two domains
---------------------
The class walk is written once (:class:`_FoldWalk`) against the same
arithmetic hooks as the machine's handler core
(:mod:`.evaluator`): :func:`evaluate_folded` runs it on plain floats,
:func:`evaluate_folded_grid` records it as a tape and replays it
through the grid driver (:func:`.grid._cover`).  Timing settings go
through the one resolver every entry point shares
(:func:`.evaluator._resolve_timing`), so a bad setting gets the same
error and text here as on the unfolded paths; refusals that come from
folding itself stay :class:`FoldError`.

``tests/test_fold.py`` pins class counts per family, bit-identity
folded ≡ unfolded ≡ machine at small P, and the huge-P scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .backend import fold_ineligibility
from .compiler import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_NOW,
    OP_POLL,
    OP_RECV,
    OP_SEND,
    OP_SLEEP,
    CompiledProgram,
)
from .evaluator import (
    _T_LIT,
    _T_O,
    _T_SI,
    _FloatArith,
    _fixed_flight,
    _resolve_timing,
)
from .grid import (
    _C_CAP,
    _C_LE,
    _C_LT,
    _I_CONST,
    GridResult,
    _cover,
    _CoverOps,
    _raw_points,
    _TapeArith,
)

__all__ = [
    "FoldError",
    "FoldedProgram",
    "FoldedResult",
    "RankClass",
    "evaluate_folded",
    "evaluate_folded_grid",
    "fold_program",
    "fold_tree",
]


class FoldError(ValueError):
    """A schedule (or parameter point) is not soundly foldable.

    The message is the *reason* — surfaced verbatim in
    ``GridGroupReport.fold_reason`` so an asymmetric program degrades
    loudly, never silently.
    """


# -- dyadic-exactness guard ------------------------------------------

#: Folding requires every parameter and literal to be a multiple of
#: ``1/_GRAIN`` so realized sums are exact and association-free.
_GRAIN = 64.0
#: ... with magnitude at most this, so grain-scaled sums stay under
#: 2^53 across any realizable chain (coefficient mass is bounded too).
_MAGNITUDE = float(2**20)
#: Total |coefficient| mass bound per symbolic form: with terms
#: ≤ 2^20 the realized value stays ≤ 2^46, exact at grain 64.
_MASS = float(2**26)


def _dyadic(x: float) -> bool:
    x = float(x)
    return -_MAGNITUDE <= x <= _MAGNITUDE and (x * _GRAIN).is_integer()


def _check_point_dyadic(p) -> None:
    for name, v in (
        ("L", float(p.L)),
        ("o", float(p.o)),
        ("g", float(p.g)),
        ("send_interval", float(p.send_interval)),
    ):
        if not _dyadic(v):
            raise FoldError(
                f"non-dyadic parameter {name}={v}: folding guarantees "
                f"bit-identity only for multiples of 1/{int(_GRAIN)} "
                f"with magnitude <= {int(_MAGNITUDE)} (exact, "
                "association-free float sums) — use the unfolded path"
            )


# -- symbolic time forms ---------------------------------------------

#: Affine basis indices over (1, L, o, g, send_interval).
_B_CONST, _B_L, _B_O, _B_G, _B_SI = range(5)

_AFF_ZERO = (0.0, 0.0, 0.0, 0.0, 0.0)


def _dominates(b: tuple, a: tuple) -> bool:
    """``b >= a`` at every valid point (0 <= o,g <= si; L,si >= 0)."""
    d0 = b[0] - a[0]
    dL = b[1] - a[1]
    if d0 < 0 or dL < 0:
        return False
    do = b[2] - a[2]
    dg = b[3] - a[3]
    dsi = b[4] - a[4]
    return dsi + min(do, 0.0) + min(dg, 0.0) >= 0.0


class _Forms:
    """Interned max-of-affine-forms time expressions.

    A form id is a key only — recording emits the representative's
    full float chain, never a simplified form — so interning affects
    *which ranks merge*, not what is computed.
    """

    __slots__ = ("_ids", "nodes")

    def __init__(self) -> None:
        self._ids: dict = {}
        self.nodes: list = []
        self.intern((_AFF_ZERO,))

    @property
    def zero(self) -> int:
        return 0

    def intern(self, branches: tuple) -> int:
        i = self._ids.get(branches)
        if i is None:
            i = len(self.nodes)
            self.nodes.append(branches)
            self._ids[branches] = i
        return i

    def add(self, fid: int, term: int, k: float) -> int:
        """``form + k * basis[term]`` (distributes over the max)."""
        out = []
        for br in self.nodes[fid]:
            c = list(br)
            c[term] += k
            if sum(abs(v) for v in c) > _MASS:
                raise FoldError(
                    "schedule too deep for exact folding: symbolic "
                    "coefficient mass exceeds the dyadic-exactness "
                    "bound"
                )
            out.append(tuple(c))
        return self.intern(tuple(out))

    def vmax(self, fa: int, fb: int) -> int:
        if fa == fb:
            return fa
        cand = list(self.nodes[fa]) + list(self.nodes[fb])
        kept: list = []
        for br in cand:
            if any(
                _dominates(other, br)
                for other in cand
                if other is not br
            ):
                # Keep exactly one copy of mutually-dominating equals.
                if br in kept or any(
                    _dominates(other, br) and not _dominates(br, other)
                    for other in cand
                ):
                    continue
            kept.append(br)
        kept = sorted(set(kept))
        if len(kept) > 16:
            raise FoldError(
                "symbolic arrival form too complex (> 16 unresolved "
                "max branches) — this schedule's symmetry is not "
                "recognisable"
            )
        return self.intern(tuple(kept))


# -- the folded program ----------------------------------------------


@dataclass(slots=True)
class RankClass:
    """One equivalence class of ranks: a schedule and a multiplicity."""

    index: int
    #: Number of ranks in the class.
    size: int
    #: Smallest member rank (the representative).
    rep: int
    #: The class schedule: ops with ``OP_SEND`` destinations dropped —
    #: ``(OP_SEND, words, tag)``; other ops verbatim.
    skeleton: tuple
    #: Parent class index (-1 for roots: ranks receiving nothing).
    parent: int
    #: Send index within the parent class feeding this class (-1 root).
    parent_send: int
    #: Message-forest depth (roots at 0).
    depth: int
    #: Destination class per send, when well-defined (compact tree
    #: constructors); ``None`` for generic folds, where members of one
    #: class may address different child classes.
    children: tuple | None = None
    #: Representative's program return value (``None`` for compact
    #: constructors, which never ran the generators).
    value: Any = None

    @property
    def n_sends(self) -> int:
        return sum(1 for op in self.skeleton if op[0] == OP_SEND)


@dataclass(slots=True)
class FoldedProgram:
    """A compiled program folded to per-class schedules.

    ``classes`` is topologically ordered (every class's parent
    precedes it), so one forward pass evaluates the whole forest.
    Per-rank schedules are never materialized: ``class_index(rank)``
    maps on demand.
    """

    P: int
    classes: list
    #: ``rank -> class index``: a sequence (generic folds) or a
    #: callable (compact constructors — O(1) per rank, O(C) memory).
    class_of: Any
    n_messages: int
    source: str = "generic"

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, rank: int) -> int:
        if not 0 <= rank < self.P:
            raise IndexError(f"rank {rank} out of range 0..{self.P - 1}")
        if callable(self.class_of):
            return self.class_of(rank)
        return self.class_of[rank]

    def sizes(self) -> list:
        return [c.size for c in self.classes]


def _literals_dyadic(classes) -> None:
    for cls in classes:
        for op in cls.skeleton:
            if op[0] in (OP_COMPUTE, OP_SLEEP) and not _dyadic(op[1]):
                raise FoldError(
                    f"non-dyadic compute/sleep literal {op[1]}: "
                    "folding guarantees bit-identity only for "
                    f"multiples of 1/{int(_GRAIN)} with magnitude <= "
                    f"{int(_MAGNITUDE)}"
                )


def _skeleton(ops: tuple) -> tuple:
    return tuple(
        (OP_SEND, op[2], op[3]) if op[0] == OP_SEND else op
        for op in ops
    )


def fold_program(compiled: CompiledProgram) -> FoldedProgram:
    """Partition a compiled program's ranks into equivalence classes.

    Θ(P) discovery: one pass classifies every rank by
    ``(skeleton, arrival-form)`` in message-forest topological order.
    Raises :class:`FoldError` (with the refusal reason) for schedules
    whose semantics are not class-invariant — see the module
    docstring's taxonomy.
    """
    P = compiled.P
    if compiled.max_words > 1:
        raise FoldError(
            "multi-word sends (LogGP G streaming) occupy the send "
            "port across messages — not foldable"
        )
    if compiled.uses_barrier:
        raise FoldError("barrier synchronization couples all ranks")
    if compiled.uses_now:
        raise FoldError(
            "Now-observing schedule: clock readings are compiled per "
            "parameter point, not per class"
        )
    ops_of = compiled.ops
    incoming: list = [None] * P
    for r in range(P):
        ops = ops_of[r]
        n_recv = 0
        si = 0
        for i, op in enumerate(ops):
            k = op[0]
            if k == OP_BARRIER:
                raise FoldError(
                    "barrier synchronization couples all ranks"
                )
            if k == OP_POLL:
                raise FoldError(
                    f"rank {r} polls: drained counts are "
                    "timing-dependent and not class-invariant"
                )
            if k == OP_NOW:
                raise FoldError(
                    "Now-observing schedule: clock readings are "
                    "compiled per parameter point, not per class"
                )
            if k == OP_RECV:
                n_recv += 1
                if i != 0:
                    raise FoldError(
                        f"rank {r} receives at op {i}, not at the "
                        "schedule head — pre-receive work breaks the "
                        "single-arrival canonical form"
                    )
            elif k == OP_SEND:
                dst = op[1]
                if incoming[dst] is not None:
                    raise FoldError(
                        f"rank {dst} is sent more than one message "
                        "(multi-source fan-in) — arrival interleaving "
                        "is not class-invariant"
                    )
                incoming[dst] = (r, si, op[3])
                si += 1
        if n_recv > 1:
            raise FoldError(
                f"rank {r} receives {n_recv} messages (multi-source "
                "fan-in) — arrival interleaving is not class-invariant"
            )
    for r in range(P):
        has_recv = bool(ops_of[r]) and ops_of[r][0][0] == OP_RECV
        if incoming[r] is not None and not has_recv:
            raise FoldError(
                f"rank {r} is sent a message it never receives"
            )
        if has_recv and incoming[r] is None:
            raise FoldError(
                f"rank {r} receives but nothing is sent to it"
            )

    # Topological order over the message forest (single parent each).
    order = [r for r in range(P) if incoming[r] is None]
    pos = 0
    seen = len(order)
    children_of: list = [[] for _ in range(P)]
    for r in range(P):
        if incoming[r] is not None:
            children_of[incoming[r][0]].append(r)
    while pos < len(order):
        r = order[pos]
        pos += 1
        for c in children_of[r]:
            order.append(c)
            seen += 1
    if seen != P:
        raise FoldError(
            "cyclic message dependence — rings and ping-pong pairs "
            "have no class-invariant schedule"
        )

    forms = _Forms()
    classes: list = []
    key_to_idx: dict = {}
    class_of = [0] * P
    #: Per class: form id of each send's arrival time, for child keys.
    send_forms: list = []
    for r in order:
        inc = incoming[r]
        if inc is None:
            arr_form = -1
            parent = -1
            parent_send = -1
            depth = 0
        else:
            src, sidx, _tag = inc
            parent = class_of[src]
            parent_send = sidx
            arr_form = send_forms[parent][sidx]
            depth = classes[parent].depth + 1
        skel = _skeleton(ops_of[r])
        key = (skel, arr_form)
        idx = key_to_idx.get(key)
        if idx is None:
            idx = len(classes)
            key_to_idx[key] = idx
            classes.append(
                RankClass(
                    index=idx,
                    size=1,
                    rep=r,
                    skeleton=skel,
                    parent=parent,
                    parent_send=parent_send,
                    depth=depth,
                    value=compiled.values[r],
                )
            )
            send_forms.append(
                _walk_forms(
                    forms,
                    skel,
                    forms.zero if arr_form < 0 else arr_form,
                    arr_form >= 0,
                )
            )
        else:
            cls = classes[idx]
            cls.size += 1
            if r < cls.rep:
                cls.rep = r
                cls.value = compiled.values[r]
        class_of[r] = idx
    return FoldedProgram(
        P=P,
        classes=classes,
        class_of=class_of,
        n_messages=compiled.n_messages,
        source="generic",
    )


def _walk_forms(
    forms: _Forms, skeleton: tuple, arrival: int, has_recv: bool
) -> list:
    """Symbolic schedule walk: the arrival form of each send."""
    if has_recv:
        now = forms.add(arrival, _B_O, 1.0)
    else:
        now = forms.zero
    last_send = None
    out = []
    for op in skeleton[1 if has_recv else 0 :]:
        k = op[0]
        if k == OP_COMPUTE or k == OP_SLEEP:
            now = forms.add(now, _B_CONST, float(op[1]))
        else:  # OP_SEND
            if last_send is None:
                start = now
            else:
                start = forms.vmax(
                    now, forms.add(last_send, _B_SI, 1.0)
                )
            end = forms.add(start, _B_O, 1.0)
            out.append(forms.add(end, _B_L, 1.0))
            last_send = start
            now = end
    return out


def fold_tree(tree, *, root: int = 0, tag: str = "tbcast") -> FoldedProgram:
    """Fold a broadcast tree without driving any generators.

    Accepts an explicit tree — a
    :class:`repro.algorithms.broadcast.BroadcastTree`, or its bare
    per-rank ``children`` lists — synthesized to per-rank ops and
    folded generically; or a *class-compact* folded tree
    (``.classes``, as ``FoldedTree`` from the huge-P constructors),
    which converts directly in Θ(C) with no per-rank work at all: the
    P = 2^20 path.  ``root`` applies to bare children lists only.

    The synthesized schedule is exactly what
    ``compile_programs(broadcast_program(tree, ...))`` lowers to —
    non-roots receive first, then send to their children in order —
    so folded results are bit-identical to the compiled-unfolded path.
    """
    if hasattr(tree, "classes"):
        classes = []
        n_messages = 0
        for i, tc in enumerate(tree.classes):
            is_root = tc.parent < 0
            skel = ()
            if not is_root:
                skel += ((OP_RECV, tag),)
            skel += ((OP_SEND, 1, tag),) * len(tc.children)
            classes.append(
                RankClass(
                    index=i,
                    size=tc.size,
                    rep=tc.rep,
                    skeleton=skel,
                    parent=tc.parent,
                    parent_send=tc.parent_send,
                    depth=tc.depth,
                    children=tuple(tc.children),
                )
            )
            if not is_root:
                n_messages += tc.size
        for cls in classes:
            if cls.parent >= 0 and cls.parent >= cls.index:
                raise FoldError(
                    "folded tree classes are not topologically "
                    f"ordered: class {cls.index} has parent "
                    f"{cls.parent}"
                )
        return FoldedProgram(
            P=tree.P,
            classes=classes,
            class_of=tree.classify,
            n_messages=n_messages,
            source="tree",
        )
    children = tree.children if hasattr(tree, "children") else tree
    root = getattr(tree, "root", root)
    P = len(children)
    ops = []
    n_messages = 0
    for r in range(P):
        kids = children[r]
        if P == 1:
            ops.append(())
            continue
        rops: tuple = () if r == root else ((OP_RECV, tag),)
        rops += tuple((OP_SEND, c, 1, tag) for c in kids)
        n_messages += len(kids)
        ops.append(rops)
    compiled = CompiledProgram(
        P=P,
        ops=tuple(ops),
        values=tuple([None] * P),
        n_messages=n_messages,
        max_words=1,
    )
    folded = fold_program(compiled)
    folded.source = "tree"
    return folded


# -- scalar folded evaluation ----------------------------------------


@dataclass(slots=True)
class FoldedResult:
    """Per-class results of a folded evaluation.

    Aggregates match :class:`.evaluator.CompiledResult` exactly; the
    per-rank views are expanded on demand (O(1) per rank) instead of
    materialized.
    """

    makespan: float
    total_messages: int
    total_stall_time: float
    P: int
    n_classes: int
    class_makespans: list
    class_finished_at: list
    class_sends: list
    class_receives: list
    class_sizes: list
    folded: FoldedProgram

    def finished_at(self, rank: int) -> float:
        return self.class_finished_at[self.folded.class_index(rank)]

    def sends(self, rank: int) -> int:
        return self.class_sends[self.folded.class_index(rank)]

    def receives(self, rank: int) -> int:
        return self.class_receives[self.folded.class_index(rank)]

    def value(self, rank: int) -> Any:
        return self.folded.classes[self.folded.class_index(rank)].value

    def expand_finished_at(self, limit: int | None = None) -> list:
        """Per-rank ``finished_at`` for ranks ``0..limit-1``."""
        n = self.P if limit is None else min(limit, self.P)
        cf = self.class_finished_at
        folded = self.folded
        return [cf[folded.class_index(r)] for r in range(n)]


def _fold_timing(points, L, latency, fabric, compute_jitter) -> tuple:
    """Resolve the timing configuration of a folded evaluation.

    First the shared validation (:func:`.evaluator._resolve_timing`),
    so a bad setting raises the same error, with the same text, as on
    every other entry point.  Then fold's own refusals, as
    :class:`FoldError`: flight that is not class-invariant (the reason
    from :func:`.backend.fold_ineligibility`, naming the model or
    fabric given), and points or flight outside the dyadic-exactness
    guard.  Returns the timing spec (``params`` or ``const``).
    """
    timing = _resolve_timing(points, L, latency, fabric)
    reason = fold_ineligibility(
        latency=latency, fabric=fabric, compute_jitter=compute_jitter
    )
    if reason is not None:
        raise FoldError(reason)
    for p in points:
        _check_point_dyadic(p)
    if timing[0] == "const" and not _dyadic(timing[1]):
        raise FoldError(
            f"non-dyadic flight time {timing[1]} — see the "
            "dyadic-exactness guard"
        )
    return timing


class _FoldWalk:
    """Fold's class walk, written once against a time domain.

    One forward pass over the topologically ordered classes evaluates
    each representative's schedule: receive at the parent send's
    arrival, then computes, sleeps and ``max(g, o)``-paced sends, with
    the capacity window classified at every inject (see the module
    docstring).  An arithmetic domain supplies ``_lit``, ``_val``,
    ``_add`` and ``_max`` — floats for :func:`evaluate_folded`, tape
    boxes for :func:`evaluate_folded_grid` — and ``_window``, which
    receives each inject's window classification.
    """

    def __init__(
        self,
        folded: FoldedProgram,
        params,
        timing: tuple,
        *,
        enforce_capacity: bool,
        capacity: int,
    ):
        self._folded = folded
        self._o = float(params.o)
        self._si = float(params.send_interval)
        self._flight = _fixed_flight(timing, params)
        self._enforce = enforce_capacity
        self._cap = capacity

    def walk(self):
        """Evaluate every class; return the makespan.

        Leaves per-class ``fins`` (finished_at) and ``pms`` (makespan)
        times, per-class ``sends`` counts and the multiplicity-weighted
        ``total_messages``.
        """
        o = self._o
        si = self._si
        ft, fk, fv = self._flight
        releases_ties = fv >= o
        enforce = self._enforce
        zero = self._lit(0.0)
        classes = self._folded.classes
        arrive_of: list = [None] * len(classes)
        self.fins = fins = []
        self.pms = pms = []
        self.sends = sends = []
        mk = None
        total_messages = 0
        for i, cls in enumerate(classes):
            skel = cls.skeleton
            has_recv = bool(skel) and skel[0][0] == OP_RECV
            if has_recv:
                arrival = arrive_of[cls.parent][cls.parent_send]
                now = la = self._add(arrival, _T_O, 0.0, o)
            else:
                now = la = zero
            last_send = None
            end = None
            arrs: list = []
            avals: list = []  # arrival values, for the capacity window
            released = 0
            last_kind = skel[0][0] if skel else None
            for op in skel[1 if has_recv else 0 :]:
                k = op[0]
                last_kind = k
                if k == OP_COMPUTE or k == OP_SLEEP:
                    now = self._add(now, _T_LIT, float(op[1]), op[1])
                    if k == OP_COMPUTE:
                        la = now
                    continue
                # OP_SEND
                if last_send is None:
                    start = now
                else:
                    start = self._max(
                        now, self._add(last_send, _T_SI, 0.0, si)
                    )
                end = self._add(start, _T_O, 0.0, o)
                if enforce:
                    iv = self._val(end)
                    released = self._capacity_window(
                        cls, arrs, avals, end, iv, released, releases_ties
                    )
                    # The arrival's value: the same float add as below.
                    avals.append(iv + fv)
                arrs.append(self._add(end, ft, fk, fv))
                last_send = start
                now = la = end
            arrive_of[i] = arrs
            fin = end if last_kind == OP_SEND else now
            pm = self._max(fin, la)
            fins.append(fin)
            pms.append(pm)
            sends.append(len(arrs))
            total_messages += cls.size * len(arrs)
            mk = pm if mk is None else self._max(mk, pm)
        self.total_messages = total_messages
        return zero if mk is None else mk

    def _capacity_window(
        self, cls, arrs, avals, inject, iv: float, released: int,
        releases_ties: bool,
    ) -> int:
        """Source-side in-flight accounting at one inject.

        Classification at the reference point (``iv`` is the inject's
        value, ``avals`` the earlier arrivals'): release-at-arrival,
        ties released iff ``flight >= o`` (see the module docstring).
        Raises :class:`FoldError` on a capacity stall — stall queues
        are rank-ordered, not class-invariant — and otherwise hands the
        classification to ``_window``.
        """
        m = len(avals)
        while released < m and avals[released] < iv:
            released += 1
        eff = released
        if releases_ties and eff < m and avals[eff] == iv:
            # An arrival tying an inject pops first: it was scheduled
            # no later (start_m - end_j = flight - o), and at
            # flight == o strictly earlier in seq order (the inject_j
            # pop precedes every event that can commit send m at that
            # timestamp).
            while eff < m and avals[eff] == iv:
                eff += 1
            released = eff
        count = m - eff
        if count >= self._cap:
            raise FoldError(
                f"capacity stall at reference point: class "
                f"{cls.index} (rep rank {cls.rep}) has {count} "
                f"messages in flight at send {m} with capacity "
                f"{self._cap} — stall queues are rank-ordered, not "
                "class-invariant"
            )
        self._window(arrs, inject, eff, count, releases_ties)
        return released


class _FoldFloat(_FloatArith, _FoldWalk):
    """The walk at concrete parameters: what :func:`evaluate_folded` runs."""

    def _window(self, arrs, inject, eff, count, releases_ties) -> None:
        pass  # the reference classification is the whole check


class _FoldTape(_TapeArith, _FoldWalk):
    """The walk recording a :class:`.grid._Tape` for the folded grid.

    The chain is pure max/add (point-universally exact — a max
    instruction equals the realized branch in both cases), so the only
    constraints are the capacity-window boundaries and the
    deduplicated ``_C_CAP`` rows.
    """

    def __init__(self, folded: FoldedProgram, params, timing, **walk):
        self._start_tape()
        self._cap_counts: set = set()
        self._tie_guarded = False
        _FoldWalk.__init__(self, folded, params, timing, **walk)

    def run(self) -> tuple[float, float]:
        """Record the walk; return its makespan and (zero) stall."""
        mk = self.walk()
        st = self._lit(0.0)
        self.tape.makespan_slot = mk[1]
        self.tape.stall_slot = st[1]
        return mk[0], st[0]

    def _window(self, arrs, inject, eff, count, releases_ties) -> None:
        """Constrain a replayed point to the reference's window.

        *Overcounting* is safe — counts never feed a value, only the
        stall check — so the in-flight boundary is ``<=`` (a replayed
        tie there at ``flight >= o`` is truly released but merely
        overcounted).  The released boundary is ``<=`` only under a
        one-time ``o <= flight`` tape guard (which makes tie release
        valid at every covered point), else strict; ``flight < o``
        points under a releasing reference simply diverge and
        re-record.
        """
        cons = self.tape.cons
        if eff > 0:
            if releases_ties:
                if not self._tie_guarded:
                    self._tie_guarded = True
                    o_slot = self._slot()
                    self.tape.code.append((_I_CONST, o_slot, _T_O, 0.0))
                    f_slot = self._slot()
                    self.tape.code.append(
                        (_I_CONST, f_slot, self._flight[0], self._flight[1])
                    )
                    cons.append((_C_LE, o_slot, f_slot))
                cons.append((_C_LE, arrs[eff - 1][1], inject[1]))
            else:
                cons.append((_C_LT, arrs[eff - 1][1], inject[1]))
        if eff < len(arrs):
            cons.append((_C_LE, inject[1], arrs[eff][1]))
        if count not in self._cap_counts:
            self._cap_counts.add(count)
            cons.append((_C_CAP, count, False))


def evaluate_folded(
    folded: FoldedProgram,
    params,
    *,
    L: float | None = None,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter=None,
    max_events: int = 0,
) -> FoldedResult:
    """Evaluate a folded program at one parameter point, Θ(C).

    Aggregates (makespan, message and stall totals) and every
    expanded per-rank view are exactly what :func:`.evaluator.evaluate`
    — and therefore the machine — produces for the unfolded program,
    under the dyadic-exactness guard.  ``max_events`` is accepted for
    signature parity and ignored: there is no event loop.
    """
    if params.P != folded.P:
        raise ValueError(
            f"params P={params.P} does not match folded P={folded.P}"
        )
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    timing = _fold_timing([params], L, latency, fabric, compute_jitter)
    _literals_dyadic(folded.classes)
    cap = params.capacity if capacity is None else capacity
    if cap < 1:
        raise ValueError(f"capacity must be >= 1, got {cap}")
    walk = _FoldFloat(
        folded, params, timing, enforce_capacity=enforce_capacity,
        capacity=cap,
    )
    makespan = walk.walk()
    classes = folded.classes
    return FoldedResult(
        makespan=makespan,
        total_messages=walk.total_messages,
        total_stall_time=0.0,
        P=folded.P,
        n_classes=len(classes),
        class_makespans=walk.pms,
        class_finished_at=walk.fins,
        class_sends=walk.sends,
        class_receives=[1 if c.parent >= 0 else 0 for c in classes],
        class_sizes=[c.size for c in classes],
        folded=folded,
    )


def evaluate_folded_grid(
    folded: FoldedProgram,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter=None,
    max_events: int = 0,
) -> GridResult:
    """Evaluate a folded program at every point of an ``(L, o, g)`` grid.

    The folded counterpart of :func:`.grid.evaluate_grid`: record one
    Θ(C) tape per control-flow region, replay it vectorized over the
    remaining points, scalar-fold stragglers.  Values are exactly the
    unfolded compiled path's (and the machine's) under the
    dyadic-exactness guard.  The tape budget and the yield rule of
    :func:`.grid._cover` bound the recordings, and
    ``GridResult.stop_reason`` says which stop applied.

    Points that cannot be folded at their own parameters — a capacity
    stall at a recording reference — are returned *unfilled* in
    ``GridResult.divergent`` for the caller to evaluate unfolded, the
    same contract as ``uses_now`` divergence in the unfolded grid.
    Whole-grid ineligibility (draw timing, topology fabric, jitter,
    non-dyadic points) raises :class:`FoldError` instead.
    """
    pts = list(grid)
    if not pts:
        return GridResult([], [], 0, 0, folded=True, classes=folded.n_classes)
    ops = _folded_grid_ops(
        folded, pts, latency, fabric, enforce_capacity, capacity,
        hw_barrier_cost, compute_jitter,
    )
    n = len(pts)
    makespans = [0.0] * n
    stalls = [0.0] * n
    tapes, fallbacks, divergent, stop = _cover(
        range(n), makespans, stalls, ops
    )
    divergent.sort()
    return GridResult(
        makespans,
        stalls,
        tapes,
        fallbacks,
        divergent,
        folded=True,
        classes=folded.n_classes,
        stop_reason=stop,
    )


def _folded_grid_ops(
    folded: FoldedProgram, pts: list, latency, fabric, enforce_capacity,
    capacity, hw_barrier_cost, compute_jitter,
) -> _CoverOps:
    """Validate :func:`evaluate_folded_grid`'s arguments and return its
    :class:`.grid._CoverOps`: column ``i`` is ``pts[i]``."""
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    for p in pts:
        if p.P != folded.P:
            raise ValueError(
                f"grid point P={p.P} does not match folded "
                f"P={folded.P}; group grid points by P"
            )
    caps = [
        (p.capacity if capacity is None else capacity) for p in pts
    ]
    for c in caps:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
    timing = _fold_timing(pts, None, latency, fabric, compute_jitter)
    _literals_dyadic(folded.classes)
    raw = _raw_points(pts)
    cap_arr = np.asarray(caps, dtype=np.int64)

    def record(i):
        rec = _FoldTape(
            folded, pts[i], timing, enforce_capacity=enforce_capacity,
            capacity=caps[i],
        )
        return rec, rec.run()

    def replay_inputs(rec, rest):
        return tuple(raw[:, rest]) + (None,), cap_arr[rest]

    def fallback(i):
        res = evaluate_folded(
            folded, pts[i], latency=latency, fabric=fabric,
            enforce_capacity=enforce_capacity, capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
        )
        return res.makespan, res.total_stall_time

    return _CoverOps(record, replay_inputs, fallback, FoldError)
