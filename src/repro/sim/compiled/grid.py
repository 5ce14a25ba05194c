"""Vectorized grid evaluation: record one run, replay it everywhere.

A deterministic schedule's *control flow* — which handler runs next,
which branch each comparison takes — is piecewise-constant over the
``(L, o, g)`` parameter space: nearby points execute the identical
event sequence with different float values flowing through it.  This
module exploits that:

1. **Record.**  :class:`_TapeRecorder` is the *recording domain* of
   the one handler core (:class:`.evaluator._Core`): the machine's
   handlers, run at a reference point with every simulated time
   *boxed* as ``(value, slot)``.  The float drives the run exactly as
   in the float domain that serves :func:`.evaluator.evaluate` (same
   branches, same event order); the slot makes it replayable.  Each
   float operation the machine semantics perform — one add per ``+``,
   one max per running-max fold, one sub+add per stall episode —
   appends one tape instruction, so a replayed slot reproduces the
   recorded value's IEEE arithmetic bit-for-bit, never an algebraic
   simplification of it.  Every branch the run takes appends a
   *constraint*: float comparisons, the engine's past-tolerance clamp,
   activation-dedup key hits/misses, capacity comparisons against the
   per-point ``ceil(L/g)`` limit — and a *dependency partial order*
   over executed events.  Requiring the replayed point to reproduce
   the full event interleaving would split the grid at every crossing
   of two unrelated ranks' event times, so ordering is constrained
   only where it can change results: each handler execution declares
   the state cells it touches (one per processor, one for the
   barrier), and successive touchers of a cell must pop in recorded
   order under the engine's ``(time, seq)`` rule.  Time ties are
   pinned without knowing replayed seq numbers: a pair whose recorded
   seqs already match its pop order adds ``<=`` plus a recursive order
   edge between the two events' *schedulers* (handler code order then
   fixes the seqs); a pair popped against seq order requires strictly
   increasing times.  Cancelled activations get the same edge from
   their cancelling event, so a superseded entry cannot pop early and
   execute at a replayed point.  Events whose footprints never meet may
   interleave differently at a covered point — the tape is
   single-assignment dataflow, so commuting executions produce the
   identical instruction stream and results.
2. **Replay.**  :func:`_replay` evaluates the tape's instruction list
   over numpy arrays of grid points and checks the constraints per
   point, dropping a point at its first failed one: first the rows
   that need no code (capacity, long-message gap), then the binary
   constraints in record order, in blocks that grow to a cache-sized
   budget, running the code only as far as the next block reads.  A
   point the tape does not cover usually fails early in record order,
   so it costs a prefix of the code and the checks, and a tape no
   point satisfies stops there.  A point that satisfies all
   constraints provably executes the recorded handler sequence up to
   commuting interleavings, so its replayed makespan and stall totals
   are *exactly* what the float domain — and therefore the machine —
   would produce there.
3. **Re-reference, while tapes pay.**  Points that violate a
   constraint lie in a different control-flow region: the first such
   point becomes the next recording reference.  Recording stops at the
   ``_MAX_TAPES`` budget, or earlier by the *yield rule*: once the last
   ``_YIELD_WINDOW`` tapes together covered fewer than
   ``_YIELD_WINDOW * _BREAK_EVEN`` points, a further tape is not
   expected to pay for its recording, so every uncovered point falls
   back to the float domain.  Both constants are counts derived from
   the ``tape_cost`` entry of :mod:`repro.bench`, which prices a
   recording plus a replay in scalar evaluations per shape: the
   break-even is the smallest price, the window the largest price over
   it (see their comment, which also says why the cheaper prices of
   the column-dropping replay left them as they were).  No clock is
   read, so tape and fallback
   counts repeat exactly.  The worst case is a few low-yield
   references ahead of a large region in submission order: the whole
   region then runs scalar.  The fallback changes cost only, never
   results.  One function, :func:`_cover`, runs this loop for
   every tape family: the grid, both column groups of the seed grid,
   and the folded grid (:mod:`.fold`); each result names why its
   recording stopped (``stop_reason``).

Beyond the fixed-``L`` default, the tape lowers the machine's other
deterministic timing configurations:

* **Seeded latency models** (:func:`evaluate_grid` ``latency=`` /
  ``fabric=LatencyFabric(model)``): each injection consumes one
  ``model.draw(src, dst)``; the tape records the draw's *stream index*
  (term ``_T_DRAW``) instead of its value, and replay feeds per-point
  draw values through a draws matrix.  Draws come off one shared RNG
  stream in global injection order, so every draw-consuming injection
  touches a dedicated RNG footprint cell — covered points provably
  consume the stream in the recorded order.  :func:`evaluate_seed_grid`
  stacks a **seed axis** on top: columns are (point, seed) pairs, each
  with its own freshly-reset model, so a 500-seed sweep replays as one
  vectorized evaluation.
* **Topology routing** (:func:`evaluate_grid`
  ``fabric=TopologyFabric(...)``): the per-hop flight
  ``serialization + hops(src, dst) * hop_delay`` is a pure function of
  the pair, so it lowers to per-pair literal terms on the arrival slot
  — same float expression shape as ``TopologyFabric.submit``, bit for
  bit.
* **Bounded timing dependence** (:func:`evaluate_forked`): a schedule
  compiled at an assumed clock (:func:`.evaluator.compile_at`) records
  each ``OP_NOW`` reading as an equality constraint; points that
  cannot satisfy it are *divergent* — they lie in a different
  branch-split region and get their own recompile, up to a fork
  budget, with exact per-point lowering for stragglers.

Fuzz check 5 (:mod:`repro.sim.fuzz`) diffs both the recording and the
replay against the machine on every case of the tier-1 sweep, and
``tests/test_compiled.py`` pins grid output per-point equal to machine
runs across fuzz-generated programs and parameter grids.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..engine import SimulationError
from ..net import TopologyFabric
from .compiler import CompiledProgram
from .evaluator import (
    _EV_ACTIVATION,
    _PAST_TOL,
    _T_DRAW,
    _T_G,
    _T_GLONG,
    _T_L,
    _T_LIT,
    _T_O,
    _T_SI,
    TimingDivergence,
    _Core,
    _fixed_flight,
    _resolve_timing,
    compile_at,
    evaluate,
)

__all__ = [
    "GridResult",
    "SeedGridResult",
    "evaluate_forked",
    "evaluate_grid",
    "evaluate_seed_grid",
]

# Tape instructions: (code, out, ...) producing slot ``out``.
_I_CONST = 0  # (out, term, k)            v = term
_I_ADD = 1    # (out, a, term, k)         v = slots[a] + term
_I_ADDS = 2   # (out, a, b)               v = slots[a] + slots[b]
_I_MAX = 3    # (out, a, b)               v = max(slots[a], slots[b])
_I_STALL = 4  # (out, acc, now, start)    v = slots[acc] + (slots[now]-slots[start])

# Constraints: all must hold for a replayed point to be valid.
_C_LE = 0     # slots[a] <= slots[b]
_C_LT = 1     # slots[a] <  slots[b]
_C_EQ = 2     # slots[a] == slots[b]
_C_NE = 3     # slots[a] != slots[b]
_C_CLAMP = 4  # now - tol <= slots[a] < slots[b]  (engine clamp branch)
_C_CAP = 5    # (count >= capacity) == observed; (a=count, b=observed)
_C_GLPOS = 6  # (long-message Gap > 0) == observed; (a=observed)


class _Tape:
    """The recorded run: instructions, constraints, output slots."""

    __slots__ = (
        "code", "cons", "n_slots", "makespan_slot", "stall_slot",
    )

    def __init__(self) -> None:
        self.code: list = []
        self.cons: list = []
        self.n_slots = 0
        self.makespan_slot = -1
        self.stall_slot = -1


class _TapeArith:
    """Tape time arithmetic: a time is a ``(value, slot)`` box.

    Each operation appends one instruction and each branch one
    constraint.  Shared by the machine core's recording domain and
    fold's tape walk; :meth:`_start_tape` must run before the first
    hook.
    """

    def _start_tape(self) -> None:
        self.tape = _Tape()
        #: slot -> the slots it is >= at *every* parameter point: the
        #: operand of an add with a nonnegative term, or both operands
        #: of a max.  A ``<=`` constraint from one of them to the slot
        #: is implied and not recorded (:meth:`_con2`).
        self._anc: dict[int, tuple] = {}
        self._con_seen: set = set()
        self._lits: dict[float, int] = {}

    def _slot(self) -> int:
        tape = self.tape
        s = tape.n_slots
        tape.n_slots = s + 1
        return s

    def _lit(self, v: float):
        cached = self._lits.get(v)
        if cached is None:
            cached = self._slot()
            self.tape.code.append((_I_CONST, cached, _T_LIT, v))
            self._lits[v] = cached
        return (v, cached)

    def _val(self, t) -> float:
        return t[0]

    def _add(self, t, term: int, k: float, termval: float):
        out = self._slot()
        self.tape.code.append((_I_ADD, out, t[1], term, k))
        if term != _T_LIT or k >= 0:
            # Parameter terms are nonnegative at every point, so out is
            # >= t on the whole grid, not just at the reference.
            self._anc[out] = (t[1],)
        return (t[0] + termval, out)

    def _max(self, a, b):
        if a[1] == b[1]:
            return a
        out = self._slot()
        self.tape.code.append((_I_MAX, out, a[1], b[1]))
        self._anc[out] = (a[1], b[1])
        return (a[0] if a[0] >= b[0] else b[0], out)

    def _sum(self, a, b):
        out = self._slot()
        self.tape.code.append((_I_ADDS, out, a[1], b[1]))
        return (a[0] + b[0], out)

    def _accrue(self, acc, now, start):
        out = self._slot()
        self.tape.code.append((_I_STALL, out, acc[1], now[1], start[1]))
        return (acc[0] + (now[0] - start[0]), out)

    def _con2(self, kind: int, a: int, b: int) -> None:
        """Append a binary constraint, deduplicated; a ``<=`` that holds
        at every point (``a`` is ``b`` or one step below it) is pruned.
        Deeper implications are recorded: :func:`_replay` checks them
        for less than a walk of the ``_anc`` chains would cost."""
        key = (kind << 60) | (a << 30) | b
        seen = self._con_seen
        if key in seen:
            return
        seen.add(key)
        if kind == _C_LE and (a == b or a in self._anc.get(b, ())):
            return
        self.tape.cons.append((kind, a, b))

    def _lt(self, a, b) -> bool:
        """Record and return the branch ``a < b``."""
        if a[0] < b[0]:
            self._con2(_C_LT, a[1], b[1])
            return True
        self._con2(_C_LE, b[1], a[1])
        return False


class _TapeRecorder(_TapeArith, _Core):
    """The recording domain: the handler core emitting a :class:`_Tape`.

    ``timing`` is a :func:`.evaluator._resolve_timing` spec the tape can
    lower (see :func:`_recordable`), or ``("const_axis", c)``: a
    ``FixedLatency`` flight fed per column as draw input 0 (the seed
    grid's fixed-model columns).
    """

    def __init__(self, compiled: CompiledProgram, params, timing, **core):
        self._start_tape()
        self._cap_seen: set = set()
        kind = timing[0]
        self._fixed = _fixed_flight(timing, params)
        self._model = None
        self._topo = None
        if kind == "const_axis":
            self._fixed = (_T_DRAW, 0, timing[1])
        elif kind == "draw":
            self._model = timing[1].model
        elif kind == "fabric":
            self._topo = timing[1]
        self._topo_flight: dict = {}
        #: (src, dst) of each consumed draw, in stream order; replay
        #: rebuilds per-point draw values by walking this sequence.
        self.draw_pairs: list = []
        self._collect = False
        #: Per cell, the seq of the last executed event that touched it.
        self._last_touch: list = [None] * (compiled.P + 2)
        #: Ordered pairs already constrained (memo for :meth:`_order`).
        self._ordpairs: set = set()
        #: Per scheduled seq: its (post-clamp) time slot and the seq of
        #: the event executing when it was scheduled (-1: preamble).
        self._m_slot: list = []
        self._m_sched: list = []
        _Core.__init__(self, compiled, params, **core)

    def run(self) -> tuple[float, float]:
        """Record the run; return its makespan and total stall values."""
        makespan, total = _Core.run(self)
        self.tape.makespan_slot = makespan[1]
        self.tape.stall_slot = total[1]
        return makespan[0], total[0]

    def _cap_ge(self, count: int) -> bool:
        """Record and return the branch ``count >= capacity``."""
        r = count >= self._capacity
        key = (count, r)
        if key not in self._cap_seen:
            self._cap_seen.add(key)
            self.tape.cons.append((_C_CAP, count, r))
        return r

    def _stream_positive(self, stream: float) -> bool:
        # stream > 0 iff the per-point long Gap > 0 (k >= 1): a
        # grid-dependent branch, so it needs its own constraint.
        positive = stream > 0
        if ("gl", positive) not in self._cap_seen:
            self._cap_seen.add(("gl", positive))
            self.tape.cons.append((_C_GLPOS, positive))
        return positive

    def _submit_flight(self, now, src: int, dst: int):
        """Tape the fabric path's ``submit`` arrival (pre-streaming)."""
        model = self._model
        if model is not None:
            # LatencyFabric.submit: t + model.draw(src, dst).  Record
            # the stream *index*; replay supplies per-point values.
            # No ancestor edge for the draw term: nothing structural
            # guarantees another point's draw keeps the sum monotone,
            # so every ordering constraint on it stays explicit.
            idx = len(self.draw_pairs)
            val = float(model.draw(src, dst))
            self.draw_pairs.append((src, dst))
            self._fp.add(self._P + 1)
            out = self._slot()
            self.tape.code.append((_I_ADD, out, now[1], _T_DRAW, idx))
            return (now[0] + val, out)
        # TopologyFabric.submit: (t + serialization) + hops * hop_delay
        # — both terms pure functions of (src, dst), literal on every
        # grid point.
        fab = self._topo
        key = (src, dst)
        hop = self._topo_flight.get(key)
        if hop is None:
            hop = len(fab._route_links(src, dst)) * fab.hop_delay
            self._topo_flight[key] = hop
        ser = fab.serialization
        return self._add(self._add(now, _T_LIT, ser, ser), _T_LIT, hop, hop)

    def _observe_now(self, proc, now, assumed: float) -> None:
        box = self._lit(assumed)
        if now[0] != assumed:
            raise TimingDivergence(
                f"proc {proc.rank} observed Now()={now[0]} at the "
                f"recording reference but the schedule assumed "
                f"{assumed} — this point belongs to a different "
                "branch-split region"
            )
        # A replayed point takes this schedule's control flow only if
        # it reproduces the compiled clock reading.
        self._con2(_C_EQ, now[1], box[1])

    # -- inlined engine with ordering constraints --------------------

    def _sched(self, t, code: int, a, b=None) -> int:
        now = self._now
        if t[0] < now[0]:
            if t[0] < now[0] - _PAST_TOL:
                raise SimulationError(
                    f"event scheduled at {t[0]} before current time {now[0]}"
                )
            self._con2(_C_CLAMP, t[1], now[1])
            t = now
        else:
            self._con2(_C_LE, now[1], t[1])
        seq = self._seq
        self._seq = seq + 1
        self._m_slot.append(t[1])
        self._m_sched.append(self._cur_seq)
        entry = (t[0], seq, t, code, a, b)
        queue = self._queue
        if not queue or queue[-1] < entry:
            queue.append(entry)
        else:
            insort(queue, entry)
        return seq

    def _order(self, sa: int, sb: int) -> None:
        """Constrain the event with seq ``sa`` to pop before seq ``sb``.

        The engine pops by ``(time, seq)``, and replayed seq numbers are
        unknowable at record time (commuting handlers may interleave
        differently, shifting every seq they assign).  Two facts survive
        replay: an event outlives its scheduler (``_sched``'s validity
        bound plus in-handler assignment), and within one handler seqs
        follow code order.  So: a pair popped against recorded seq order
        needs strictly increasing times; a pair in seq order needs
        ``<=`` plus — for a time tie to break the same way — the same
        pop-order claim about the two *schedulers*, which pins the
        relative seqs.  The walk up the scheduler chains terminates at a
        shared scheduler or the preamble (whose seqs are fixed).
        """
        pairs = self._ordpairs
        m_slot = self._m_slot
        m_sched = self._m_sched
        while True:
            key = (sa << 32) | sb
            if key in pairs:
                return
            pairs.add(key)
            if sa > sb:
                self._con2(_C_LT, m_slot[sa], m_slot[sb])
                return
            if m_sched[sb] == sa:
                # b was scheduled during a's own execution: a pops
                # first at every point, no constraint needed.
                return
            self._con2(_C_LE, m_slot[sa], m_slot[sb])
            sa = m_sched[sa]
            sb = m_sched[sb]
            if sa == sb or sa < 0 or sb < 0:
                return

    def _settle(self, sq: int) -> None:
        """Dependency edges: event ``sq`` pops after every earlier
        event touching any state cell its handler touched."""
        fp = self._fp
        last = self._last_touch
        prevs = None
        for cell in fp:
            pe = last[cell]
            if pe is not None:
                if prevs is None:
                    prevs = {pe}
                else:
                    prevs.add(pe)
            last[cell] = sq
        fp.clear()
        if prevs is not None:
            order = self._order
            for pe in prevs:
                order(pe, sq)

    # -- activation plumbing with dedup-key constraints --------------

    def _sched_activation(self, proc, t) -> None:
        self._fp.add(proc.rank)
        pending = proc.pending_activations
        hit = False
        for kv, (_kid, kslot) in pending.items():
            if kv == t[0]:
                self._con2(_C_EQ, t[1], kslot)
                hit = True
            else:
                self._con2(_C_NE, t[1], kslot)
        if not hit:
            # key float -> (event id, key slot); value-compared on
            # lookup so every hit/miss is recorded as an eq/ne constraint.
            pending[t[0]] = (
                self._sched(t, _EV_ACTIVATION, proc, t[0]),
                t[1],
            )

    def _supersede_activations(self, proc, until) -> None:
        self._fp.add(proc.rank)
        pending = proc.pending_activations
        cur_seq = self._cur_seq
        stale = []
        for kv, (kid, kslot) in pending.items():
            if kv < until[0]:
                self._con2(_C_LT, kslot, until[1])
                # A cancelled entry must still be *in the queue* at the
                # moment of cancellation — if a replayed point moved it
                # before the current event, it would pop and execute
                # first.  Pin the pop order.
                self._order(cur_seq, kid)
                stale.append(kv)
            else:
                self._con2(_C_LE, until[1], kslot)
        if stale:
            cancelled = self._cancelled
            for kv in stale:
                cancelled.add(pending.pop(kv)[0])


@dataclass(slots=True)
class GridResult:
    """Per-point results of a grid evaluation, in submission order."""

    makespans: list[float]
    total_stall_times: list[float]
    #: Number of control-flow regions recorded (reference runs).
    tapes: int
    #: Points the tapes did not cover, evaluated scalar (exact, slower).
    fallbacks: int
    #: Points whose clock observations contradict every recorded
    #: ``OP_NOW`` assumption — their entries are *unfilled*; the caller
    #: recompiles them at their own parameters (:func:`evaluate_forked`).
    divergent: list[int] = field(default_factory=list)
    #: True when produced by the symmetry-folded path (:mod:`.fold`):
    #: per-class evaluation, ``classes`` equivalence classes standing
    #: in for P ranks.  Unfilled ``divergent`` entries there are
    #: points the fold refuses at their own parameters (e.g. a
    #: capacity stall) — the caller evaluates them unfolded.
    folded: bool = False
    classes: int = 0
    #: Why recording stopped: ``"covered"`` (no point left to record),
    #: ``"max_tapes"`` (the budget), or ``"yield: N columns over the
    #: last W tapes"`` (the yield rule, see :func:`_cover`).
    stop_reason: str = "covered"


@dataclass(slots=True)
class SeedGridResult:
    """Per-(point, seed) results, point-major: column ``p * n_seeds + s``."""

    makespans: list[float]
    total_stall_times: list[float]
    n_points: int
    n_seeds: int
    #: Number of control-flow regions recorded (reference runs).
    tapes: int
    #: Columns the tapes did not cover, evaluated scalar (exact, slower).
    fallbacks: int
    #: Columns divergent from every recorded ``OP_NOW`` assumption
    #: (unfilled — see :class:`GridResult`).
    divergent: list[int] = field(default_factory=list)
    #: Folded-path markers, for API symmetry with :class:`GridResult`
    #: (seeded draws are not foldable today, so always the defaults).
    folded: bool = False
    classes: int = 0
    #: Why recording stopped (see :class:`GridResult`); of the two
    #: column groups, the first that stopped early.
    stop_reason: str = "covered"


def _term_values(term: int, k, arrs):
    L, o, g, si, Gl, D = arrs
    if term == _T_LIT:
        return k
    if term == _T_L:
        return L
    if term == _T_O:
        return o
    if term == _T_G:
        return g
    if term == _T_SI:
        return si
    if term == _T_GLONG:
        return k * Gl
    return D[k]  # _T_DRAW: k is the draw-stream index


def _run_code(code, S, lo: int, hi: int, arrs) -> None:
    """Execute ``code[lo:hi]`` into rows ``lo..hi-1`` of ``S``.

    Instruction ``i`` writes slot ``i`` (every tape allocates a slot
    only as it appends the instruction that computes it), and its
    inputs are earlier slots, so a prefix of the code fills a prefix of
    the rows.  ``out=`` targets write rows in place, so the loop
    allocates no temporaries.
    """
    for ins in code[lo:hi]:
        op = ins[0]
        if op == _I_ADD:
            np.add(
                S[ins[2]], _term_values(ins[3], ins[4], arrs),
                out=S[ins[1]],
            )
        elif op == _I_MAX:
            np.maximum(S[ins[2]], S[ins[3]], out=S[ins[1]])
        elif op == _I_CONST:
            S[ins[1]] = _term_values(ins[2], ins[3], arrs)
        elif op == _I_ADDS:
            np.add(S[ins[2]], S[ins[3]], out=S[ins[1]])
        else:  # _I_STALL
            np.subtract(S[ins[3]], S[ins[4]], out=S[ins[1]])
            np.add(S[ins[2]], S[ins[1]], out=S[ins[1]])


def _check(kind: int, a, b):
    """Binary constraint ``kind`` over gathered ``(rows, cols)`` slots."""
    if kind == _C_LE:
        return a <= b
    if kind == _C_LT:
        return a < b
    if kind == _C_EQ:
        return a == b
    if kind == _C_NE:
        return a != b
    return (a < b) & (a >= b - _PAST_TOL)  # _C_CLAMP


#: Binary constraints checked in the first block of :func:`_replay`;
#: each later block doubles, up to ``_BLOCK_ELEMS`` (rows x columns)
#: elements, so a block's gathered operands stay cache-sized.
_BLOCK_FIRST = 8
_BLOCK_ELEMS = 1 << 16


def _replay(tape: _Tape, arrs, caps):
    """Evaluate ``tape`` at every column of ``arrs``.

    ``arrs`` is ``(L, o, g, send_interval, G, D)``: five per-column
    parameter arrays and the draw inputs (``D[k]`` is draw ``k``'s
    value: a scalar, or row ``k`` of a per-column draws matrix; ``None``
    without draws).  Returns ``(ok, makespans, stalls)`` arrays; ``ok``
    marks the columns satisfying every constraint, and the makespans
    and stalls are filled at those columns only.

    A column leaves the replay with the block that holds its first
    failed constraint.  The rows that need no code (``_C_CAP``,
    ``_C_GLPOS``) form the first block; the binary constraints follow
    in record order, where a column the tape does not cover usually
    fails early, in blocks that start at ``_BLOCK_FIRST`` rows and
    double up to ``_BLOCK_ELEMS`` elements.  Before each block the code
    runs only up to the highest slot the block reads; after it, the
    failed columns leave the computed slot rows, the parameter arrays
    and a per-column draws matrix.  The replay returns as soon as no
    column is left; the columns that pass every block run the rest of
    the code, up to the output slots.  Dropping a column never changes
    another column's values: every instruction is elementwise.
    """
    npts = len(caps)
    ok = np.zeros(npts, dtype=bool)
    mk = np.zeros(npts)
    st = np.zeros(npts)
    *par, D = arrs
    live = np.ones(npts, dtype=bool)
    rows = []
    for con in tape.cons:
        kind = con[0]
        if kind == _C_CAP:
            live &= (con[1] >= caps) == con[2]
        elif kind == _C_GLPOS:
            live &= (par[4] > 0) == con[1]
        else:
            rows.append(con)
    cols = np.flatnonzero(live)  # the columns still in the replay
    if not len(cols):
        return ok, mk, st
    drawn = isinstance(D, np.ndarray)  # a per-column draws matrix
    if len(cols) < npts:
        par = [p[cols] for p in par]
        if drawn:
            D = D[:, cols]
    S = np.empty((tape.n_slots, len(cols)))
    done = 0  # S[:done] holds code[:done]'s outputs
    code = tape.code
    if rows:
        K = np.array(rows, dtype=np.intp)
        need = np.maximum.accumulate(np.maximum(K[:, 1], K[:, 2])) + 1
        # Per kind: its rows' record positions, operands, and how many
        # of them are checked.
        groups = []
        for kind in (_C_LE, _C_LT, _C_EQ, _C_NE, _C_CLAMP):
            at = np.flatnonzero(K[:, 0] == kind)
            if len(at):
                groups.append([kind, at.tolist(), K[at, 1], K[at, 2], 0])
        n = len(rows)
        i = 0
        step = _BLOCK_FIRST
        while i < n:
            j = min(n, i + min(step, max(1, _BLOCK_ELEMS // len(cols))))
            step *= 2
            top = int(need[j - 1])
            if top > done:
                _run_code(code, S, done, top, (*par, D))
                done = top
            good = None
            for grp in groups:
                kind, pos, a, b, lo = grp
                hi = bisect_left(pos, j, lo)
                if hi > lo:
                    grp[4] = hi
                    res = _check(kind, S[a[lo:hi]], S[b[lo:hi]]).all(axis=0)
                    good = res if good is None else good & res
            i = j
            if good.all():
                continue
            keep = np.flatnonzero(good)
            if not len(keep):
                return ok, mk, st
            cols = cols[keep]
            par = [p[keep] for p in par]
            if drawn:
                D = D[:, keep]
            kept = np.empty((tape.n_slots, len(keep)))
            np.take(S[:done], keep, axis=1, out=kept[:done], mode="clip")
            S = kept
    top = max(tape.makespan_slot, tape.stall_slot) + 1
    if top > done:
        _run_code(code, S, done, top, (*par, D))
    ok[cols] = True
    mk[cols] = S[tape.makespan_slot]
    st[cols] = S[tape.stall_slot]
    return ok, mk, st


#: The yield rule of :func:`_cover`: recording stops once the last
#: ``_YIELD_WINDOW`` tapes together covered fewer than
#: ``_YIELD_WINDOW * _BREAK_EVEN`` columns.  A tape covering ``y``
#: columns saves ``y`` scalar evaluations and costs one recording plus
#: one replay over the rest of the grid, so it pays when ``y`` exceeds
#: that cost counted in scalar evaluations.  ``python -m repro.bench
#: --only tape_cost`` measures this ratio per shape.  The constants
#: were set from three runs of 15 reps on a 2-vCPU host that gave
#: 5.2-6.1 (folded broadcast, P = 64), 6.6-7.2 (folded, P = 2,048),
#: 8.1-8.6 (jittered seed grid), 8.4-9.8 (``stream``, P = 6) and
#: 11.0-12.4 (``bcast_tree`` o-sweep, P = 8): ``_BREAK_EVEN`` is the
#: smallest ratio rounded down, 5, and ``_YIELD_WINDOW`` the largest
#: ratio over it, rounded up, ceil(12.4 / 5) = 3.  Since replay drops
#: columns at their first failed constraint, three such runs on the
#: same host give 2.7-2.9 (P = 64), 2.8-5.0 (P = 2,048), 5.5-7.9
#: (seed grid), 3.0-4.5 (``stream``) and 6.7-7.8 (o-sweep).  The same
#: rule would give 2 and ceil(7.9 / 2) = 4, but those values record
#: tapes of two or three columns where each costs three to eight
#: scalar evaluations (in perfbench's ``grid_sweep`` the ``lg_box``
#: group records 40 tapes where 12 did, and throughput falls by a
#: fifth), so the constants stay: 5 lies inside the new range, and
#: the window's 15 columns still exceed the largest ratio.  Counts,
#: not times: the same grid always records the same tapes.
#: ``_BREAK_EVEN = 0`` switches the rule off.
_YIELD_WINDOW = 3
_BREAK_EVEN = 5
#: The tape budget: :func:`_cover` records at most this many tapes per
#: grid, even while they pay (``stop_reason`` ``"max_tapes"``), and
#: :func:`evaluate_forked` lowers at most this many forks before it
#: recompiles the remaining points one by one.
_MAX_TAPES = 32


@dataclass(frozen=True, slots=True)
class _CoverOps:
    """One tape family's operations, as :func:`_cover` drives them.

    ``record(col)`` returns ``(recorder, (makespan, stall))``;
    ``replay_inputs(recorder, cols)`` returns the :func:`_replay`
    arrays and capacities of ``cols``; ``fallback(col)`` returns the
    exact scalar ``(makespan, stall)``.  A column whose recording or
    fallback raises ``diverged`` is left unfilled.
    """

    record: Callable
    replay_inputs: Callable
    fallback: Callable
    diverged: type


def _cover(
    columns, makespans: list, stalls: list, ops: _CoverOps, spent: int = 0
) -> tuple[int, int, list, str]:
    """Fill ``columns`` by record → replay → keep uncovered → fallback.

    The first uncovered column is the recording reference; its tape is
    replayed over the rest, and columns violating a constraint stay
    uncovered for the next reference.  Before each further recording
    it checks two stops, in order: the ``_MAX_TAPES`` budget (less the
    ``spent`` tapes an earlier column group of the grid recorded),
    then the yield rule — if the last ``_YIELD_WINDOW`` tapes together
    covered fewer than ``_YIELD_WINDOW * _BREAK_EVEN`` columns (their
    references included), recording stops.  Either way the uncovered
    columns get the exact ``ops.fallback``, so the rule moves cost,
    never values, and it counts columns, never time, so the same grid
    always records the same tapes.  With ``_BREAK_EVEN`` = 5 and
    ``_YIELD_WINDOW`` = 3, recording goes on only while the window
    covered more columns than one recording costs at any shape
    ``repro.bench``'s ``tape_cost`` measures (the comment above the
    constants gives the numbers).

    Worst case: ``_YIELD_WINDOW`` low-yield references that come
    before a large region in submission order stop recording, and the
    whole region runs scalar — about the column count in scalar
    evaluations where one tape would have done.

    Returns ``(tapes, fallbacks, divergent, stop_reason)``, where
    ``stop_reason`` is ``"covered"``, ``"max_tapes"`` or ``"yield: N
    columns over the last W tapes"``.
    """
    remaining = list(columns)
    yields: list[int] = []  # columns each tape covered, reference included
    divergent: list = []
    stop = "covered"
    while remaining:
        if spent + len(yields) >= _MAX_TAPES:
            stop = "max_tapes"
            break
        if len(yields) >= _YIELD_WINDOW:
            got = sum(yields[-_YIELD_WINDOW:])
            if got < _YIELD_WINDOW * _BREAK_EVEN:
                stop = (
                    f"yield: {got} columns over the last "
                    f"{_YIELD_WINDOW} tapes"
                )
                break
        ref = remaining.pop(0)
        try:
            rec, (makespans[ref], stalls[ref]) = ops.record(ref)
        except ops.diverged:
            divergent.append(ref)
            continue
        if not remaining:
            yields.append(1)
            break
        arrs, caps = ops.replay_inputs(rec, remaining)
        ok, mk, st = _replay(rec.tape, arrs, caps)
        rest = remaining
        remaining = []
        for c, hit, m, s in zip(rest, ok.tolist(), mk.tolist(), st.tolist()):
            if hit:
                makespans[c] = m
                stalls[c] = s
            else:
                remaining.append(c)
        yields.append(1 + len(rest) - len(remaining))
    fallbacks = 0
    for c in remaining:
        try:
            makespans[c], stalls[c] = ops.fallback(c)
        except ops.diverged:
            divergent.append(c)
            continue
        fallbacks += 1
    return len(yields), fallbacks, divergent, stop


def _recordable(timing: tuple) -> tuple:
    """Refuse a timing spec the tape cannot lower: of the fabrics, only
    ``LatencyFabric`` and the deterministic ``TopologyFabric`` record."""
    if timing[0] == "fabric" and type(timing[1]) is not TopologyFabric:
        raise ValueError(
            "the compiled grid replay supports LatencyFabric and the "
            f"deterministic TopologyFabric, not {type(timing[1]).__name__}"
            " — use the event machine"
        )
    return timing


def _validate_grid(compiled, pts, hw_barrier_cost, capacity):
    """Shared grid validation; returns per-point effective capacities."""
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    for p in pts:
        if p.P != compiled.P:
            raise ValueError(
                f"grid point P={p.P} does not match compiled "
                f"P={compiled.P}; group grid points by P"
            )
        if compiled.max_words > 1 and getattr(p, "G", None) is None:
            raise SimulationError(
                f"multi-word send (words={compiled.max_words}) requires "
                "LogGP parameters with a per-word gap G"
            )
    caps = [
        (p.capacity if capacity is None else capacity) for p in pts
    ]
    for c in caps:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
    return caps


def _raw_points(pts):
    """Per-point replay parameters as a ``(5, n)`` array: rows ``L``,
    ``o``, ``g``, ``send_interval`` and the LogGP ``G`` (0 if none)."""
    return np.array(
        [
            (
                float(p.L),
                float(p.o),
                float(p.g),
                float(p.send_interval),
                float(getattr(p, "G", None) or 0.0),
            )
            for p in pts
        ],
        dtype=float,
    ).T.copy()


def evaluate_grid(
    compiled: CompiledProgram,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
) -> GridResult:
    """Evaluate one compiled program at every parameter point in ``grid``.

    Each point's makespan and total stall time are exactly what
    :func:`.evaluator.evaluate` (and therefore the machine) produces
    there — vectorization changes cost, never values.  Points are
    covered by recorded control-flow regions; uncovered stragglers run
    the scalar evaluator.  ``_MAX_TAPES`` bounds the recordings: the
    yield rule (:func:`_cover`) stops earlier once recent tapes cover
    too few points to pay, and ``GridResult.stop_reason`` says which
    stop applied.

    Args:
        compiled: output of :func:`compile_programs`.
        grid: LogPParams points; every ``P`` must equal ``compiled.P``
            (vectorization is over ``(L, o, g)`` — fan out over ``P``
            by compiling per processor count, as ``sweep.grid_map``
            does).
        latency: a :class:`~repro.sim.latency.LatencyModel` shared by
            every point, exactly as the machine takes it: reset before
            each point's run, drawn once per injection in event order.
            Seeded models replay vectorized through the tape's draw
            inputs.  Mutually exclusive with ``fabric``.
        fabric: a :class:`~repro.sim.net.LatencyFabric` or
            deterministic :class:`~repro.sim.net.TopologyFabric`;
            per-hop routed flight lowers to per-pair literals.

    A ``uses_now`` schedule (compiled by :func:`.evaluator.compile_at`)
    evaluates only at points reproducing its assumed clock readings;
    the rest are returned *unfilled* in ``GridResult.divergent`` for
    the caller to recompile (:func:`evaluate_forked` automates this).
    """
    pts = list(grid)
    if not pts:
        return GridResult([], [], 0, 0)
    ops = _grid_ops(
        compiled, pts, latency, fabric, capacity,
        dict(
            enforce_capacity=enforce_capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        ),
    )
    n = len(pts)
    makespans = [0.0] * n
    stalls = [0.0] * n
    tapes, fallbacks, divergent, stop = _cover(
        range(n), makespans, stalls, ops
    )
    divergent.sort()
    return GridResult(
        makespans, stalls, tapes, fallbacks, divergent, stop_reason=stop
    )


def _grid_ops(
    compiled, pts: list, latency, fabric, capacity, core: dict
) -> _CoverOps:
    """Validate :func:`evaluate_grid`'s arguments and return its
    :class:`_CoverOps`: column ``i`` is ``pts[i]``.  ``core`` holds the
    remaining keyword arguments, passed to every recording and
    fallback."""
    caps = _validate_grid(compiled, pts, core["hw_barrier_cost"], capacity)
    timing = _recordable(_resolve_timing(pts, None, latency, fabric))
    if timing[0] in ("draw", "fabric"):
        timing[1].reset()
        timing[1].attach(None, compiled.P, False)
    model = timing[1].model if timing[0] == "draw" else None
    raw = _raw_points(pts)
    cap_arr = np.asarray(caps, dtype=np.int64)

    def record(i):
        if model is not None:
            model.reset()
        rec = _TapeRecorder(
            compiled, pts[i], timing, capacity=caps[i], **core
        )
        return rec, rec.run()

    def replay_inputs(rec, rest):
        draws = None
        if model is not None and rec.draw_pairs:
            # One shared model: its params are fixed at construction
            # and it is reset per point, so every point sees the same
            # draw sequence — per-tape constants on the draw inputs.
            model.reset()
            draws = [float(v) for v in model.draw_batch(rec.draw_pairs)]
        return tuple(raw[:, rest]) + (draws,), cap_arr[rest]

    def fallback(i):
        res = evaluate(
            compiled, pts[i], latency=latency, fabric=fabric,
            capacity=capacity, **core,
        )
        return res.makespan, res.total_stall_time

    return _CoverOps(record, replay_inputs, fallback, TimingDivergence)


def evaluate_seed_grid(
    compiled: CompiledProgram,
    grid: Sequence,
    seeds: Sequence[int],
    latency_factory,
    *,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
) -> SeedGridResult:
    """Evaluate a compiled program over a (point x seed) product grid.

    Column ``p * len(seeds) + s`` is exactly
    ``LogPMachine(grid[p], latency=latency_factory(grid[p], seeds[s]))``
    run on the compiled program's factory — bit identical, enforced by
    the seed-axis differential tests.  One recorded tape covers every
    column whose control flow matches; the per-seed latency draws enter
    the replay as a draws matrix (one row per consumed draw, one column
    per (point, seed) pair), so a 500-seed sweep is a single vectorized
    evaluation rather than 500 machine runs.

    Args:
        compiled: output of :func:`compile_programs`.
        grid: LogPParams points, all with ``P == compiled.P``.
        seeds: seed values, passed to ``latency_factory`` verbatim.
        latency_factory: ``(params, seed) ->``
            :class:`~repro.sim.latency.LatencyModel`; called once per
            column.  Models are reset before every use, so a column
            replays the machine's exact draw sequence.

    ``FixedLatency`` columns take the machine's fixed fast path (a
    different float ordering than drawn flights), so they share tapes
    only with each other; mixed factories are handled by partitioning.
    The two column groups share the ``_MAX_TAPES`` budget, an upper
    bound: each group's recording may stop earlier by the yield rule
    (:func:`_cover`).
    """
    pts = list(grid)
    seed_list = list(seeds)
    npts = len(pts)
    nseeds = len(seed_list)
    ncols = npts * nseeds
    if ncols == 0:
        return SeedGridResult([], [], npts, nseeds, 0, 0)
    ops, groups = _seed_grid_ops(
        compiled, pts, seed_list, latency_factory, capacity,
        dict(
            enforce_capacity=enforce_capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        ),
    )
    makespans = [0.0] * ncols
    stalls = [0.0] * ncols
    tapes = 0
    fallbacks = 0
    divergent: list[int] = []
    stops = []
    for group in groups:
        t, f, d, stop = _cover(group, makespans, stalls, ops, tapes)
        tapes += t
        fallbacks += f
        divergent += d
        stops.append(stop)
    divergent.sort()
    return SeedGridResult(
        makespans, stalls, npts, nseeds, tapes, fallbacks, divergent,
        stop_reason=_first_early_stop(stops),
    )


def _first_early_stop(stops: list) -> str:
    """The first ``stop_reason`` other than ``"covered"``, if any."""
    return next((s for s in stops if s != "covered"), "covered")


def _seed_grid_ops(
    compiled, pts: list, seed_list: list, latency_factory, capacity,
    core: dict,
) -> tuple[_CoverOps, tuple[list, list]]:
    """Validate :func:`evaluate_seed_grid`'s arguments and return its
    :class:`_CoverOps` (column ``p * len(seed_list) + s``) with the
    drawn and the fixed-latency column groups."""
    nseeds = len(seed_list)
    caps = _validate_grid(compiled, pts, core["hw_barrier_cost"], capacity)
    models = []
    timings = []
    for p in pts:
        for s in seed_list:
            m = latency_factory(p, s)
            timing = _resolve_timing([p], None, m, None)
            if timing[0] == "const":
                # Per-column constants: flight is draw input 0.
                timing = ("const_axis", timing[1])
            models.append(m)
            timings.append(timing)
    raw = _raw_points(pts)
    cap_arr = np.asarray(caps, dtype=np.int64)
    n_msgs = compiled.n_messages
    draw_cache: dict[int, list[float]] = {}

    def _draw_col(c: int, pairs) -> list[float]:
        """Column ``c``'s draw values along the tape's pair sequence.

        A pair-independent model's stream is a pure function of
        position, and every tape consumes exactly one draw per message,
        so the same values serve every tape — computed once per column
        instead of once per (tape, column).
        """
        mc = models[c]
        if not mc.pair_dependent and len(pairs) == n_msgs:
            cached = draw_cache.get(c)
            if cached is None:
                mc.reset()
                cached = [float(v) for v in mc.draw_batch(pairs)]
                draw_cache[c] = cached
            return cached
        mc.reset()
        return [float(v) for v in mc.draw_batch(pairs)]

    def record(c):
        models[c].reset()
        rec = _TapeRecorder(
            compiled, pts[c // nseeds], timings[c],
            capacity=caps[c // nseeds], **core,
        )
        return rec, rec.run()

    def replay_inputs(rec, rest):
        if rec._model is None:  # const_axis columns
            D = np.asarray([[float(models[c].L) for c in rest]], dtype=float)
        else:
            pairs = rec.draw_pairs
            D = np.asarray(
                [_draw_col(c, pairs) for c in rest], dtype=float
            ).reshape(len(rest), len(pairs)).T
        at = [c // nseeds for c in rest]
        return tuple(raw[:, at]) + (D,), cap_arr[at]

    def fallback(c):
        res = evaluate(
            compiled, pts[c // nseeds], latency=models[c],
            capacity=capacity, **core,
        )
        return res.makespan, res.total_stall_time

    cols = range(len(timings))
    drawn = [c for c in cols if timings[c][0] == "draw"]
    fixed = [c for c in cols if timings[c][0] == "const_axis"]
    ops = _CoverOps(record, replay_inputs, fallback, TimingDivergence)
    return ops, (drawn, fixed)


def evaluate_forked(
    programs,
    P: int,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
) -> GridResult:
    """Branch-splitting grid evaluation of a timing-dependent program.

    A program that observes ``Now`` has no parameter-free schedule, but
    its control flow is still piecewise-constant over the grid: lower
    it at the first uncovered point (:func:`.evaluator.compile_at`),
    evaluate that schedule across the remaining points — the recorded
    ``OP_NOW`` equality constraints admit exactly the points sharing
    its branch decisions — and re-fork on the divergent rest.  Each
    fork resolves at least its own reference point, so the loop
    terminates; after ``_MAX_TAPES`` forks stragglers get an exact
    per-point recompile.  Each fork's
    grid records under :func:`evaluate_grid`'s rules, the yield rule
    included; ``stop_reason`` is the first fork's early stop, if any.
    Results are bit-identical to the machine everywhere, and a program
    whose clock observations never reach a fixed point refuses loudly
    with :class:`~repro.sim.compiled.CompileError` (from
    ``compile_at``).

    ``programs`` must be a factory ``(rank, P) -> generator`` — each
    fork drives fresh generators.
    """
    pts = list(grid)
    n = len(pts)
    if n == 0:
        return GridResult([], [], 0, 0)
    makespans = [0.0] * n
    stalls = [0.0] * n
    remaining = list(range(n))
    tapes = 0
    fallbacks = 0
    forks = 0
    stops = []
    while remaining and forks < _MAX_TAPES:
        ref = remaining[0]
        compiled = compile_at(
            programs,
            P,
            pts[ref],
            latency=latency,
            fabric=fabric,
            enforce_capacity=enforce_capacity,
            capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        )
        forks += 1
        gr = evaluate_grid(
            compiled,
            [pts[i] for i in remaining],
            latency=latency,
            fabric=fabric,
            enforce_capacity=enforce_capacity,
            capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        )
        tapes += gr.tapes
        fallbacks += gr.fallbacks
        stops.append(gr.stop_reason)
        div = set(gr.divergent)
        nxt = []
        for j, i in enumerate(remaining):
            if j in div:
                nxt.append(i)
            else:
                makespans[i] = gr.makespans[j]
                stalls[i] = gr.total_stall_times[j]
        if len(nxt) == len(remaining):  # pragma: no cover - compile_at
            # converged at ref, so ref always evaluates clean
            raise SimulationError(
                "branch-splitting made no progress over "
                f"{len(remaining)} points"
            )
        remaining = nxt
    for i in remaining:
        compiled = compile_at(
            programs,
            P,
            pts[i],
            latency=latency,
            fabric=fabric,
            enforce_capacity=enforce_capacity,
            capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        )
        res = evaluate(
            compiled,
            pts[i],
            latency=latency,
            fabric=fabric,
            enforce_capacity=enforce_capacity,
            capacity=capacity,
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
        )
        fallbacks += 1
        makespans[i] = res.makespan
        stalls[i] = res.total_stall_time
    return GridResult(
        makespans, stalls, tapes, fallbacks,
        stop_reason=_first_early_stop(stops),
    )
