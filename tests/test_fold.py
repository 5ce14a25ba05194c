"""Symmetry folding: rank equivalence classes for million-processor runs.

The contract under test: for eligible broadcast-tree schedules, the
folded evaluator (:mod:`repro.sim.compiled.fold`) produces *exactly* —
``==``, no tolerances — what the unfolded compiled evaluator and the
event machine produce, while doing Θ(classes) work instead of Θ(P).
Covered here:

* pinned equivalence-class counts per tree family (linear and flat
  stay Θ(P); binomial collapses to the ``(popcount, high bit, bit-sum)``
  lattice; the one-message stream folds to 2; floods and reductions
  refuse loudly);
* bit-identity of every aggregate and every expanded per-rank view
  against the unfolded evaluator and the machine, scalar and grid;
* the class-compact constructors (``binomial_tree_folded``,
  ``optimal_broadcast_tree_folded``) against the generic fold of their
  own expansions, plus the machine differential at sub-sampled large P;
* huge-P behaviour: ``P = 2**20`` built, folded and evaluated without
  any per-rank materialization, with pinned class counts and makespans;
* the dispatch story: ``fold={auto,on,off}`` through
  ``sweep.grid_map`` with truthful ``GridGroupReport`` fold fields and
  loud refusals (``resolve_fold``), ``compile_representatives``'s
  solo-rank compile, and the fold-fuzz pin (100 seeds x 3 latency
  models, folded == unfolded == machine).
"""

from __future__ import annotations

import pytest

from repro.algorithms.broadcast import (
    BroadcastTree,
    binomial_tree,
    binomial_tree_folded,
    flat_tree,
    linear_tree,
    optimal_broadcast_tree,
    optimal_broadcast_tree_folded,
    tree_delivery_times,
    tree_delivery_times_folded,
)
from repro.core import LogPParams
from repro.sim import LogPMachine, Recv, Send
from repro.sim.collectives import binomial_reduce, tree_broadcast
from repro.sim.compiled import (
    FOLD_MODES,
    CompileError,
    FoldError,
    TimingDependentError,
    compile_programs,
    compile_representatives,
    evaluate,
    evaluate_folded,
    evaluate_folded_grid,
    evaluate_grid,
    fold_ineligibility,
    fold_program,
    fold_tree,
    resolve_fold,
)
from repro.sim.latency import FixedLatency, UniformLatency
from repro.sim.sweep import GridMapReport, grid_map

BASE = LogPParams(L=6.0, o=2.0, g=4.0, P=8)


def _tree_factory(children, root=0, payload=42):
    def factory(rank: int, P: int):
        return tree_broadcast(
            rank, P, payload if rank == root else None, children, root=root
        )

    return factory


def _partition(class_of, P):
    groups: dict = {}
    for r in range(P):
        groups.setdefault(class_of(r), []).append(r)
    return sorted(map(tuple, groups.values()))


def _params(P, L=6.0, o=2.0, g=4.0):
    return LogPParams(L=L, o=o, g=g, P=P)


class TestClassCounts:
    """Pinned equivalence-class counts per family: the compression story."""

    def test_linear_chain_has_no_symmetry(self):
        # Every rank sits at a distinct depth: Θ(P) classes, correctly.
        ft = fold_tree(linear_tree(64))
        assert ft.n_classes == 64

    def test_flat_tree_has_no_symmetry(self):
        # Each child hangs off a distinct send slot of the root, so its
        # arrival time differs: Θ(P) classes, correctly.
        ft = fold_tree(flat_tree(64))
        assert ft.n_classes == 64

    @pytest.mark.parametrize(
        "k,classes", [(4, 16), (6, 57), (10, 386), (14, 1471)]
    )
    def test_binomial_lattice_counts(self, k, classes):
        assert binomial_tree_folded(2**k).n_classes == classes

    def test_binomial_generic_fold_matches_compact_count(self):
        assert fold_tree(binomial_tree(1024)).n_classes == 386

    def test_optimal_tree_counts(self):
        p = _params(1024)
        # The generic fold of the scalar greedy's naming vs the compact
        # constructor's canonical naming: both collapse ~1000 ranks to
        # ~60 classes; the canonical naming merges slightly more.
        assert fold_tree(optimal_broadcast_tree(p)).n_classes == 63
        assert optimal_broadcast_tree_folded(p).n_classes == 61

    def test_single_message_stream_folds_to_two(self):
        def stream(rank, P):
            if rank == 0:
                yield Send(1, payload=7)
                return None
            m = yield Recv()
            return m.payload

        folded = fold_program(compile_programs(stream, 2))
        assert folded.n_classes == 2

    def test_flood_refuses(self):
        def flood(rank, P):
            if rank == 0:
                for _ in range(P - 1):
                    yield Recv()
                return None
            yield Send(0)

        with pytest.raises(FoldError):
            fold_program(compile_programs(flood, 8))

    def test_summation_refuses(self):
        def summ(rank, P):
            return (yield from binomial_reduce(rank, P, float(rank)))

        with pytest.raises(FoldError):
            fold_program(compile_programs(summ, 8))

    def test_class_sizes_partition_the_ranks(self):
        ft = fold_tree(binomial_tree(128))
        assert sum(c.size for c in ft.classes) == 128
        part = _partition(ft.class_index, 128)
        assert sorted(r for grp in part for r in grp) == list(range(128))


class TestBitIdentity:
    """folded == unfolded compiled == machine, with no tolerance."""

    POINTS = [
        (6.0, 2.0, 4.0),
        (1.0, 1.0, 1.0),
        (8.0, 2.0, 4.0),
        (4.5, 0.5, 1.5),
        (16.0, 1.0, 0.0),  # g=0: the infinite-capacity sentinel
    ]

    @pytest.mark.parametrize("family", ["linear", "flat", "binomial", "optimal"])
    def test_folded_matches_unfolded_per_rank(self, family):
        for P in (2, 4, 16):
            for L, o, g in self.POINTS:
                p = _params(P, L, o, g)
                children = {
                    "linear": lambda: linear_tree(P),
                    "flat": lambda: flat_tree(P),
                    "binomial": lambda: binomial_tree(P),
                    "optimal": lambda: optimal_broadcast_tree(p).children,
                }[family]()
                prog = compile_programs(_tree_factory(children), P)
                ref = evaluate(prog, p)
                fr = evaluate_folded(fold_program(prog), p)
                assert fr.makespan == ref.makespan
                assert fr.total_stall_time == ref.total_stall_time
                assert fr.total_messages == sum(ref.sends)
                for r in range(P):
                    assert fr.finished_at(r) == ref.finished_at[r]
                    assert fr.sends(r) == ref.sends[r]
                    assert fr.receives(r) == ref.receives[r]
                    assert fr.value(r) == ref.values[r]

    def test_folded_matches_machine(self):
        for P in (4, 16):
            p = _params(P)
            children = binomial_tree(P)
            fac = _tree_factory(children, payload=9)
            res = LogPMachine(p, trace=False).run(fac)
            fr = evaluate_folded(fold_program(compile_programs(fac, P)), p)
            assert fr.makespan == res.makespan
            assert fr.total_stall_time == res.total_stall_time
            assert fr.total_messages == res.total_messages
            for r in range(P):
                assert fr.value(r) == res.value(r)

    def test_machine_differential_at_subsampled_large_P(self):
        # The huge-P claim, spot-checked where the machine is still
        # feasible: the compact-constructor pipeline reproduces the
        # event machine exactly at P=64 and P=256.
        for P in (64, 256):
            p = _params(P)
            fac = _tree_factory(binomial_tree(P), payload=9)
            res = LogPMachine(p, trace=False).run(fac)
            fr = evaluate_folded(fold_tree(binomial_tree_folded(P)), p)
            assert fr.makespan == res.makespan
            assert fr.total_stall_time == res.total_stall_time
            assert fr.total_messages == res.total_messages

    def test_capacity_constrained_point_still_exact(self):
        # Small g relative to L: finite capacity, sends actually stall.
        P = 16
        p = LogPParams(L=12.0, o=0.5, g=0.5, P=P)
        prog = compile_programs(_tree_factory(flat_tree(P)), P)
        ref = evaluate(prog, p)
        fr = evaluate_folded(fold_program(prog), p)
        assert fr.makespan == ref.makespan
        assert fr.total_stall_time == ref.total_stall_time


class TestFoldedGrid:
    GRID = [
        _params(32, L, o, g)
        for L in (1.0, 2.0, 4.0, 8.0, 12.0)
        for o in (0.5, 1.0, 2.0)
        for g in (0.0, 0.5, 2.0, 4.0)
    ]

    def test_grid_matches_unfolded_grid(self):
        prog = compile_programs(_tree_factory(binomial_tree(32)), 32)
        ref = evaluate_grid(prog, self.GRID)
        fr = evaluate_folded_grid(fold_program(prog), self.GRID)
        assert fr.folded and fr.classes > 0
        for i in range(len(self.GRID)):
            if i in fr.divergent:
                continue
            assert fr.makespans[i] == ref.makespans[i]
            assert fr.total_stall_times[i] == ref.total_stall_times[i]

    def test_seeded_latency_refuses(self):
        folded = fold_program(
            compile_programs(_tree_factory(binomial_tree(8)), 8)
        )
        with pytest.raises(FoldError):
            evaluate_folded_grid(
                folded,
                [BASE],
                latency=UniformLatency(6.0, lo_frac=0.25, seed=1),
            )

    def test_non_dyadic_point_refuses(self):
        folded = fold_program(
            compile_programs(_tree_factory(binomial_tree(8)), 8)
        )
        with pytest.raises(FoldError):
            evaluate_folded_grid(folded, [_params(8, L=0.1)])


class TestCompactConstructors:
    def test_binomial_partition_matches_generic_fold(self):
        for k in (0, 1, 3, 6, 8):
            P = 2**k
            ft = binomial_tree_folded(P)
            gen = fold_tree(binomial_tree(P))
            assert ft.n_classes == gen.n_classes
            assert _partition(ft.classify, P) == _partition(
                gen.class_index, P
            )

    def test_binomial_rotated_root(self):
        ft = binomial_tree_folded(16, root=5)
        gen = fold_tree(binomial_tree(16, root=5), root=5)
        assert _partition(ft.classify, 16) == _partition(gen.class_index, 16)

    def test_binomial_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            binomial_tree_folded(24)

    def test_binomial_representative_is_min_member(self):
        P = 256
        ft = binomial_tree_folded(P)
        reps: dict = {}
        for r in range(P):
            c = ft.classify(r)
            reps[c] = min(reps.get(c, r), r)
        for c in ft.classes:
            assert c.rep == reps[c.index]

    def test_optimal_compact_vs_scalar_greedy(self):
        for P in (1, 2, 5, 16, 33, 100):
            for L, o, g in ((6.0, 2.0, 4.0), (2.0, 1.0, 1.0), (10.0, 2.0, 3.0)):
                p = _params(P, L, o, g)
                ft = optimal_broadcast_tree_folded(p)
                tree = optimal_broadcast_tree(p)
                # Same delivery-time multiset and completion time as the
                # scalar greedy (the greedy's rank naming is arbitrary,
                # so multiset equality is the honest invariant) ...
                dt = tree_delivery_times_folded(p, ft)
                folded_times = sorted(
                    t
                    for c in ft.classes
                    for t in [dt[c.index]] * c.size
                )
                assert folded_times == sorted(tree.recv_time)
                assert max(dt) == tree.completion_time
                # ... and an exact partition match against the generic
                # fold of its *own* expansion.
                kids = ft.expand()
                assert tree_delivery_times(p, kids) == [
                    dt[ft.classify(r)] for r in range(P)
                ]
                gen = fold_tree(kids)
                assert _partition(ft.classify, P) == _partition(
                    gen.class_index, P
                )

    def test_optimal_degenerate_corner_refuses(self):
        # g == L + 2o: the greedy's heap interleaves per-rank at every
        # timestamp, so there is no class-invariant naming.
        with pytest.raises(FoldError):
            optimal_broadcast_tree_folded(
                LogPParams(L=2.0, o=1.0, g=4.0, P=8)
            )

    def test_folded_evaluation_through_compact_trees(self):
        for P in (8, 64):
            p = _params(P)
            rb = evaluate_folded(fold_tree(binomial_tree_folded(P)), p)
            re = evaluate_folded(fold_tree(binomial_tree(P)), p)
            assert rb.makespan == re.makespan
            assert [rb.finished_at(r) for r in range(P)] == [
                re.finished_at(r) for r in range(P)
            ]

    def test_depth_linear_and_binomial(self):
        # depth() is BFS one-pass now; the old recursion was quadratic
        # on deep chains.
        p = _params(4)
        kids = linear_tree(1000)
        parent: list = [None] * 1000
        for src, cs in enumerate(kids):
            for c in cs:
                parent[c] = src
        lin = BroadcastTree(
            params=_params(1000),
            root=0,
            parent=parent,
            children=kids,
            recv_time=[0.0] * 1000,
        )
        assert lin.depth() == 999
        assert optimal_broadcast_tree(p).depth() >= 1

    def test_folded_tree_depth_and_sizes(self):
        ft = binomial_tree_folded(1024)
        assert ft.depth() == 10
        assert sum(ft.sizes()) == 1024


class TestHugeP:
    """P = 2**20 without materializing a single per-rank object."""

    def test_binomial_million_ranks(self):
        P = 2**20
        ft = binomial_tree_folded(P)
        assert ft.n_classes == 6196
        assert sum(ft.sizes()) == P
        fr = evaluate_folded(fold_tree(ft), _params(P, L=8.0, o=2.0, g=4.0))
        assert fr.makespan == 1000.0
        assert fr.total_messages == P - 1
        # Per-rank views come from classify, not from a P-length table.
        assert fr.finished_at(0) < fr.finished_at(P - 1) <= fr.makespan

    def test_optimal_million_ranks(self):
        P = 2**20
        p = _params(P, L=8.0, o=2.0, g=4.0)
        ft = optimal_broadcast_tree_folded(p)
        assert ft.n_classes == 235
        assert sum(ft.sizes()) == P
        fr = evaluate_folded(fold_tree(ft), p)
        assert fr.makespan == ft.completion_time(p) == 152.0
        assert fr.total_messages == P - 1

    def test_grid_at_million_ranks(self):
        P = 2**20
        folded = fold_tree(binomial_tree_folded(P))
        pts = [_params(P, L=8.0, o=o, g=4.0) for o in (0.5, 1.0, 2.0, 4.0)]
        gr = evaluate_folded_grid(folded, pts)
        assert not gr.divergent
        assert gr.folded and gr.classes == 6196
        for i, p in enumerate(pts):
            assert gr.makespans[i] == evaluate_folded(folded, p).makespan


class TestFoldModes:
    def test_fold_modes_tuple(self):
        assert FOLD_MODES == ("auto", "on", "off")

    def test_resolve_fold_validates_mode(self):
        with pytest.raises(ValueError, match="fold must be one of"):
            resolve_fold("maybe")

    def test_resolve_fold_eligibility(self):
        assert resolve_fold("auto") == "on"
        assert resolve_fold("off") == "off"
        assert resolve_fold("on", latency=FixedLatency(2.0)) == "on"
        seeded = UniformLatency(6.0, lo_frac=0.25, seed=3)
        assert resolve_fold("auto", latency=seeded) == "off"
        with pytest.raises(ValueError, match="cannot use symmetry folding"):
            resolve_fold("on", latency=seeded)
        with pytest.raises(ValueError, match="compute_jitter"):
            resolve_fold("on", compute_jitter=lambda r, t: 0.0)

    def test_fold_ineligibility_reasons(self):
        assert fold_ineligibility() is None
        assert fold_ineligibility(latency=FixedLatency(1.0)) is None
        assert "draw" in fold_ineligibility(
            latency=UniformLatency(6.0, lo_frac=0.25, seed=3)
        )


class TestGridMapFold:
    PTS = [
        _params(64, L, o, g)
        for L in (1.0, 4.0, 8.0)
        for o in (0.5, 2.0)
        for g in (0.0, 1.0, 4.0)
    ]

    def test_fold_on_off_auto_identical_results(self):
        fac = _tree_factory(binomial_tree(64))
        on = grid_map(fac, self.PTS, fold="on")
        off = grid_map(fac, self.PTS, fold="off")
        auto = grid_map(fac, self.PTS, fold="auto")
        assert on == off == auto

    def test_report_records_folded_path(self):
        fac = _tree_factory(binomial_tree(64))
        report = GridMapReport()
        grid_map(fac, self.PTS, fold="on", report=report)
        (group,) = report.groups
        assert group.path == "compiled-folded"
        assert group.fold == "on"
        assert group.classes == 57
        assert report.folded == [group]

    def test_auto_skips_non_compressing_fold(self):
        fac = _tree_factory(linear_tree(8))
        report = GridMapReport()
        grid_map(fac, [BASE], fold="auto", report=report)
        (group,) = report.groups
        assert group.path == "compiled"
        assert group.fold == "off"
        assert "no compression" in group.fold_reason

    def test_auto_records_shape_refusal(self):
        def reduce_prog(rank, P):
            return (yield from binomial_reduce(rank, P, float(rank)))

        report = GridMapReport()
        grid_map(reduce_prog, [BASE], fold="auto", report=report)
        (group,) = report.groups
        assert group.path == "compiled"
        assert group.fold == "off"
        assert group.fold_reason  # the FoldError text, verbatim

    def test_auto_records_timing_ineligibility(self):
        fac = _tree_factory(binomial_tree(8))
        report = GridMapReport()
        grid_map(
            fac,
            [BASE],
            fold="auto",
            latency=UniformLatency(6.0, lo_frac=0.25, seed=1),
            report=report,
        )
        (group,) = report.groups
        assert group.fold == "off"
        assert "class-invariant" in group.fold_reason

    def test_fold_on_raises_on_unfoldable_shape(self):
        def reduce_prog(rank, P):
            return (yield from binomial_reduce(rank, P, float(rank)))

        with pytest.raises(FoldError):
            grid_map(reduce_prog, [BASE], fold="on")

    def test_fold_on_requires_compiled_backend(self):
        fac = _tree_factory(binomial_tree(8))
        with pytest.raises(ValueError, match="requires the compiled"):
            grid_map(fac, [BASE], backend="machine", fold="on")

    def test_fold_on_refuses_seeded_latency(self):
        fac = _tree_factory(binomial_tree(8))
        with pytest.raises(ValueError, match="cannot use symmetry folding"):
            grid_map(
                fac,
                [BASE],
                fold="on",
                latency=UniformLatency(6.0, lo_frac=0.25, seed=1),
            )

    def test_best_pipelined_tree_accepts_fold(self):
        from repro.algorithms.broadcast import best_pipelined_tree

        p = _params(8)
        name_a, tree_a = best_pipelined_tree(p, 1, backend="auto", fold="auto")
        name_b, tree_b = best_pipelined_tree(p, 1, backend="auto", fold="off")
        assert (name_a, tree_a) == (name_b, tree_b)


class TestCompileRepresentatives:
    def test_matches_full_compile(self):
        P = 64
        fac = _tree_factory(binomial_tree(P))
        full = compile_programs(fac, P)
        reps = compile_representatives(fac, P, [0, 1, 5, 32, 63])
        for rank, ops in reps.items():
            assert ops == tuple(full.ops[rank])

    def test_theta_reps_not_theta_p(self):
        # Only the requested generators are driven: a factory that
        # explodes for any other rank proves no hidden Θ(P) pass.
        P = 2**20
        kids_of_rank_0 = [1, 2]

        def fac(rank, P_):
            if rank > 2:
                raise AssertionError(f"rank {rank} was instantiated")
            return tree_broadcast(
                rank,
                P_,
                7 if rank == 0 else None,
                {0: kids_of_rank_0, 1: [], 2: []},
                root=0,
            )

        reps = compile_representatives(fac, P, [0, 1])
        assert set(reps) == {0, 1}

    def test_refuses_barrier_and_now(self):
        from repro.sim import Barrier, Now
        from repro.sim.program import Compute

        def with_barrier(rank, P):
            yield Compute(1.0)
            yield Barrier()

        with pytest.raises(CompileError, match="Barrier"):
            compile_representatives(with_barrier, 4, [0])

        def with_now(rank, P):
            t = yield Now()
            yield Compute(t + 1.0)

        with pytest.raises(TimingDependentError):
            compile_representatives(with_now, 4, [0])

    def test_rejects_out_of_range_rank(self):
        fac = _tree_factory(binomial_tree(4))
        with pytest.raises(CompileError, match="out of range"):
            compile_representatives(fac, 4, [4])


class TestFoldFuzzPin:
    def test_hundred_seeds_three_latency_models(self):
        from repro.sim.fuzz import fold_fuzz_sweep

        summary = fold_fuzz_sweep(
            range(100), ("fixed", "uniform", "jittered"), workers=1
        )
        assert summary.cases == 100
        assert summary.runs == 300
        assert summary.ok, summary.failures[:5]
        # Every tree family must actually have been drawn.
        assert set(summary.by_family) == {
            "linear", "flat", "binomial", "optimal", "random"
        }


class TestBenchFoldedWorkloads:
    def test_folded_vs_unfolded_report_keys(self):
        from repro.bench import run_all

        reps = 3
        report = run_all(smoke=True, reps=reps, only="folded_vs_unfolded")
        t = report["timings_s"]
        assert set(t) == {
            "folded_vs_unfolded_folded_s",
            "folded_vs_unfolded_unfolded_s",
        }
        for entry in t.values():
            assert entry["n"] == reps
            assert entry["min"] <= entry["median"] <= entry["max"]
        folded = t["folded_vs_unfolded_folded_s"]["median"]
        unfolded = t["folded_vs_unfolded_unfolded_s"]["median"]
        assert report["folded_vs_unfolded_speedup"] == round(
            unfolded / folded, 2
        )
        assert report["folded_vs_unfolded_speedup"] > 1.0
        assert report["max_rss_kb"] > 0
