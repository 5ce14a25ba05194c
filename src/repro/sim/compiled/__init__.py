"""Compiled evaluation of deterministic LogP schedules.

The event machine (:mod:`repro.sim.machine`) is the semantics; this
package is the fast path.  A program whose control flow does not depend
on simulated time is *lowered once* — generators driven at compile
time, actions flattened to opcode tuples, message matching resolved
(:mod:`.compiler`) — and the resulting :class:`CompiledProgram` can
then be evaluated:

* at one parameter point, bit-identical to the machine, with
  :func:`evaluate` (:mod:`.evaluator`);
* across a whole ``(L, o, g)`` grid with :func:`evaluate_grid`
  (:mod:`.grid`), which records one evaluation as a *tape* of float
  operations and branch constraints and replays it vectorized with
  numpy over every grid point whose control flow matches,
  re-recording for the points where it does not;
* across a ``(point, seed)`` product with :func:`evaluate_seed_grid`:
  seeded latency draws become per-column tape inputs, so a 500-seed
  sweep replays as one vectorized evaluation instead of 500 machine
  runs.

Both are the same code: the machine's handlers are written once
(:mod:`.evaluator`) and run in a float domain for :func:`evaluate` and
a recording domain for the tape.

Eligibility is deterministic timing: any latency model honouring the
``reset()`` reproducibility contract (bare or in a ``LatencyFabric``)
and the deterministic per-hop :class:`~repro.sim.net.TopologyFabric`
all lower exactly.  Contention and lossy fabrics resolve delivery from
runtime load, which a static schedule cannot represent —
:func:`backend_ineligibility` explains refusals, and the ``auto``
backend in :mod:`repro.sim.sweep` raises rather than silently falling
back.  Programs observing ``Now`` lower per
parameter point via :func:`compile_at` (fixed-point clock assumption)
and per grid region via :func:`evaluate_forked` (branch-splitting on
the recorded ``OP_NOW`` constraints).

On top of the compiled path sits *symmetry folding* (:mod:`.fold`):
ranks whose opcode schedules are identical up to peer renaming are
collapsed into equivalence classes, one representative is evaluated
per class (:func:`evaluate_folded`, Θ(classes) instead of Θ(P)), and
grid tapes weight aggregate terms by class multiplicity
(:func:`evaluate_folded_grid`).  A binomial broadcast at ``P = 2**20``
folds to ~6 000 classes; the dyadic-exactness guard keeps every
aggregate bit-identical to the unfolded evaluator.  Folding is a
stricter tier than compilation — it needs class-invariant flight and a
restricted program shape — and refuses loudly with a
:class:`FoldError` naming the first offending rank or op
(:func:`fold_ineligibility` covers the timing side).
"""

from .backend import (
    BACKENDS,
    FOLD_MODES,
    backend_ineligibility,
    fold_ineligibility,
    resolve_backend,
    resolve_fold,
)
from .compiler import (
    CompiledProgram,
    CompileError,
    TimingDependentError,
    compile_programs,
    compile_representatives,
)
from .fold import (
    FoldError,
    FoldedProgram,
    FoldedResult,
    RankClass,
    evaluate_folded,
    evaluate_folded_grid,
    fold_program,
    fold_tree,
)
from .evaluator import (
    CompiledResult,
    TimingDivergence,
    compile_at,
    evaluate,
)
from .grid import (
    GridResult,
    SeedGridResult,
    evaluate_forked,
    evaluate_grid,
    evaluate_seed_grid,
)

__all__ = [
    "BACKENDS",
    "FOLD_MODES",
    "CompileError",
    "CompiledProgram",
    "CompiledResult",
    "FoldError",
    "FoldedProgram",
    "FoldedResult",
    "GridResult",
    "RankClass",
    "SeedGridResult",
    "TimingDependentError",
    "TimingDivergence",
    "backend_ineligibility",
    "compile_at",
    "compile_programs",
    "compile_representatives",
    "evaluate",
    "evaluate_folded",
    "evaluate_folded_grid",
    "evaluate_forked",
    "evaluate_grid",
    "evaluate_seed_grid",
    "fold_ineligibility",
    "fold_program",
    "fold_tree",
    "resolve_backend",
    "resolve_fold",
]
