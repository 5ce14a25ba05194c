"""The compiled DAG evaluator: bit-identity, grids, refusal semantics.

The contract under test is the one the fuzz harness enforces at scale
(``repro.sim.fuzz`` check 5): for any deterministic fixed-latency
schedule, the compiled evaluator — scalar or vectorized grid replay —
produces *exactly* what the event machine produces.  Every comparison
here is ``==``; there are no tolerances to hide behind.

Also covered: the machine-kwarg variants the evaluator mirrors
(capacity override, ``enforce_capacity=False``, ``hw_barrier_cost``,
``merge_overhead_into_gap`` parameter sets, LogGP long messages),
capacity-stall accounting cross-checked through ``stall_report()``,
the one timing resolver shared by every entry point (same refusal type
and text for each bad setting), the seed-axis differential (seeded
latency draws replayed as per-column tape inputs, pinned bit-identical
over 100 seeds x 3 fuzz families), TopologyFabric per-hop lowering on
the Section 5 topologies, branch-splitting for bounded ``Now``
programs, and the backend selection rules: ``compiled``/``auto``
refuse load-dependent timing (contention, loss, faults) loudly instead
of silently falling back, while seeded models and deterministic routed
fabrics compile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.broadcast import binomial_tree, pipelined_broadcast_program
from repro.core import LogPParams
from repro.core.loggp import LogGPParams
from repro.sim import (
    Barrier,
    Compute,
    FixedLatency,
    LogPMachine,
    Now,
    Recv,
    Send,
    UniformLatency,
)
from repro.sim.compiled import grid as compiled_grid
from repro.sim.compiled import (
    BACKENDS,
    CompileError,
    FoldError,
    TimingDependentError,
    backend_ineligibility,
    compile_programs,
    evaluate,
    evaluate_folded,
    evaluate_folded_grid,
    evaluate_grid,
    evaluate_seed_grid,
    fold_program,
    resolve_backend,
)
from repro.sim.fuzz import LATENCIES, make_case
from repro.sim.latency import JitteredLatency
from repro.sim.net import FaultyFabric, LatencyFabric, TopologyFabric
from repro.sim.sweep import GridMapReport, grid_map

BASE = LogPParams(L=6, o=2, g=4, P=8)


# ----------------------------------------------------------------------
# Program factories
# ----------------------------------------------------------------------


def _bcast(rank: int, P: int):
    """Pipelined chain broadcast of 4 items: P-generic, stall-prone."""

    def run():
        for idx in range(4):
            if rank > 0:
                msg = yield Recv(tag=("it", idx))
                val = msg.payload
            else:
                val = idx
            if rank < P - 1:
                yield Send(rank + 1, payload=val, tag=("it", idx))
        return rank

    return run()


def _flood(rank: int, P: int):
    """Many-to-one flood: deep in the capacity-stall regime."""

    def run():
        if rank == 0:
            for _ in range(6 * (P - 1)):
                yield Recv()
            return None
        for _ in range(6):
            yield Send(0)
        return None

    return run()


def _barrier_prog(rank: int, P: int):
    def run():
        yield Compute(rank + 1)
        yield Barrier()
        if rank == 0:
            yield Send(1, payload="after")
        elif rank == 1:
            yield Recv()
        return rank

    return run()


def _loggp_prog(rank: int, P: int):
    """Long (multi-word) messages: exercises the LogGP G term."""

    def run():
        if rank == 0:
            yield Send(1, words=64, payload="bulk")
            yield Send(1, words=1, payload="short")
            return None
        if rank == 1:
            yield Recv()
            yield Recv()
        return None

    return run()


def _now_prog(rank: int, P: int):
    def run():
        t = yield Now()
        yield Compute(t + 1)
        return None

    return run()


# ----------------------------------------------------------------------
# Scalar differential
# ----------------------------------------------------------------------


def _assert_matches(factory, params, **kw) -> None:
    """Machine and compiled evaluator agree exactly on every shared field."""
    machine = LogPMachine(
        params, latency=FixedLatency(params.L), trace=False, **kw
    ).run(factory)
    comp = evaluate(
        compile_programs(factory, params.P),
        params,
        collect_stalls=True,
        **kw,
    )
    assert comp.makespan == machine.makespan
    assert comp.total_messages == machine.total_messages
    assert comp.total_stall_time == machine.total_stall_time
    assert comp.events_run == machine.events_run
    assert tuple(comp.values) == tuple(machine.values())
    assert comp.finished_at == [r.finished_at for r in machine.results]
    assert comp.sends == [r.sends for r in machine.results]
    assert comp.receives == [r.receives for r in machine.results]
    assert comp.stall_time == [r.stall_time for r in machine.results]


@pytest.mark.parametrize("factory", [_bcast, _flood, _barrier_prog])
@pytest.mark.parametrize(
    "params",
    [
        BASE,
        LogPParams(L=12, o=1, g=1, P=6),  # high capacity, no stalls
        LogPParams(L=9, o=0.5, g=3, P=4),  # fractional overhead
    ],
)
def test_scalar_differential(factory, params):
    _assert_matches(factory, params)


@pytest.mark.parametrize("seed", range(12))
def test_scalar_differential_fuzz_families(seed):
    """A thin slice of the fuzz differential, pinned into tier 1."""
    case = make_case(seed)
    _assert_matches(case.factory, case.params)


def test_capacity_override_and_disabled():
    _assert_matches(_flood, BASE, capacity=2)
    _assert_matches(_flood, BASE, capacity=1)
    _assert_matches(_flood, BASE, enforce_capacity=False)


def test_hw_barrier_cost():
    _assert_matches(_barrier_prog, BASE, hw_barrier_cost=3.5)


def test_merge_overhead_into_gap_variant():
    """The Section 3.1 ``o := max(o, g)`` analysis sets (g ignored, so
    capacity degenerates) still evaluate bit-identically."""
    merged = BASE.merge_overhead_into_gap()
    _assert_matches(_bcast, merged, enforce_capacity=False)


def test_loggp_long_messages():
    p = LogGPParams(L=6, o=2, g=4, G=0.5, P=2)
    machine = LogPMachine(p, trace=False).run(_loggp_prog)
    comp = evaluate(compile_programs(_loggp_prog, 2), p)
    assert comp.makespan == machine.makespan
    assert comp.total_messages == machine.total_messages


def test_stall_report_cross_check():
    """Capacity-stall timing agrees with MachineResult.stall_report()."""
    machine = LogPMachine(
        BASE, latency=FixedLatency(BASE.L), trace=True
    ).run(_flood)
    comp = evaluate(
        compile_programs(_flood, BASE.P), BASE, collect_stalls=True
    )
    assert comp.total_stall_time > 0  # the regime is actually exercised
    assert comp.stall_events == machine.stall_events
    assert comp.stall_report() == machine.stall_report()


def test_compile_error_on_timing_dependence():
    """Bare lowering (no clock oracle) still refuses ``Now`` — with the
    dedicated subclass grid_map routes to the branch-splitting path."""
    assert issubclass(TimingDependentError, CompileError)
    with pytest.raises(TimingDependentError, match="Now"):
        compile_programs(_now_prog, 2)


# ----------------------------------------------------------------------
# Grid replay
# ----------------------------------------------------------------------

GRID = [
    LogPParams(L=float(L), o=o, g=float(g), P=8)
    for L in (1, 3, 6, 9, 14)
    for g in (1, 2, 4, 7)
    for o in (0.5, 2.0)
]


@pytest.mark.parametrize("factory", [_bcast, _flood])
def test_grid_matches_machine_per_point(factory, monkeypatch):
    # The tape path's per-point parity pin: with the yield rule off,
    # every point is covered by a recorded tape.
    monkeypatch.setattr(compiled_grid, "_BREAK_EVEN", 0)
    monkeypatch.setattr(compiled_grid, "_MAX_TAPES", 64)
    gr = evaluate_grid(compile_programs(factory, 8), GRID)
    assert gr.fallbacks == 0  # every point tape-covered, none punted
    for i, p in enumerate(GRID):
        res = LogPMachine(p, latency=FixedLatency(p.L), trace=False).run(
            factory
        )
        assert (gr.makespans[i], gr.total_stall_times[i]) == (
            res.makespan,
            res.total_stall_time,
        ), f"grid point {i} ({p.L}, {p.o}, {p.g}) diverged"


def test_grid_scalar_fallback_is_exact(monkeypatch):
    """With a tape budget of 0 every point takes the scalar fallback."""
    prog = compile_programs(_flood, 8)
    with monkeypatch.context() as m:
        m.setattr(compiled_grid, "_MAX_TAPES", 0)
        gr = evaluate_grid(prog, GRID[:6])
    assert gr.tapes == 0 and gr.fallbacks == 6
    assert gr.stop_reason == "max_tapes"
    monkeypatch.setattr(compiled_grid, "_MAX_TAPES", 64)
    full = evaluate_grid(prog, GRID[:6])
    assert gr.makespans == full.makespans
    assert gr.total_stall_times == full.total_stall_times


def _yield_rule_cases():
    """The yield rule's grids, as ``repro.bench``'s ``tape_cost`` prices
    them: ``name -> (evaluate, machine_runs, high_yield, low_yield)``."""
    from repro.serve.registry import build

    stream = build("stream", {"k": 16}, None)
    bcast = build("bcast_tree", {"k": 8}, None)

    def machine(pts, programs):
        return lambda: [LogPMachine(p, trace=False).run(programs) for p in pts]

    # perfbench grid_sweep's stream_scalar shape: tapes cover 1-3 points.
    s_pts = [
        LogPParams(L=1.0 + (i % 10) * 1.37, o=0.5 + (i // 10 % 5) * 0.61,
                   g=0.5, P=6)
        for i in range(50)
    ]
    # A bcast_tree o-sweep: 6 tapes cover 128 points.
    b_pts = [LogPParams(L=6.0, o=0.25 + 7.75 * i / 127, g=4.0, P=8)
             for i in range(128)]
    j_pts = [LogPParams(L=6.0, o=1.0 + 0.75 * i, g=4.0, P=8)
             for i in range(4)]
    seeds = range(10)

    def jitter(p, s):
        return JitteredLatency(6.0, scale_frac=0.25, seed=s)

    f_prog = pipelined_broadcast_program(binomial_tree(64), [0])
    f_pts = [LogPParams(L=4.0 + i, o=2.0, g=4.0, P=64) for i in range(16)]
    return {
        "stream_low_yield": (
            lambda: evaluate_grid(compile_programs(stream, 6), s_pts),
            machine(s_pts, stream), False, True,
        ),
        "bcast_osweep_high_yield": (
            lambda: evaluate_grid(compile_programs(bcast, 8), b_pts),
            machine(b_pts, bcast), True, False,
        ),
        "jitter_seed_grid": (
            lambda: evaluate_seed_grid(
                compile_programs(bcast, 8), j_pts, seeds, jitter
            ),
            lambda: [
                LogPMachine(p, latency=jitter(p, s), trace=False).run(bcast)
                for p in j_pts
                for s in seeds
            ],
            False, True,
        ),
        "folded": (
            lambda: evaluate_folded_grid(
                fold_program(compile_programs(f_prog, 64)), f_pts
            ),
            machine(f_pts, f_prog), False, False,
        ),
    }


@pytest.mark.parametrize("name", sorted(_yield_rule_cases()))
def test_yield_rule_moves_cost_never_values(name, monkeypatch):
    """Recording stops once recent tapes cover too few points; the
    scalar fallback fills the rest with the same bits."""
    run, machine_runs, high_yield, low_yield = _yield_rule_cases()[name]
    on = run()
    again = run()
    with monkeypatch.context() as m:
        m.setattr(compiled_grid, "_BREAK_EVEN", 0)
        off = run()
    want = [(r.makespan, r.total_stall_time) for r in machine_runs()]
    for gr in (on, off):
        assert list(zip(gr.makespans, gr.total_stall_times)) == want
    assert on.tapes <= off.tapes
    assert (on.tapes, on.fallbacks, on.stop_reason) == (
        again.tapes, again.fallbacks, again.stop_reason
    )
    if high_yield:
        assert (on.tapes, on.fallbacks, on.stop_reason) == (
            off.tapes, off.fallbacks, off.stop_reason
        )
    if low_yield:
        assert on.stop_reason.startswith("yield: ")
        assert on.tapes == compiled_grid._YIELD_WINDOW < off.tapes


def test_grid_rejects_mismatched_p():
    prog = compile_programs(_bcast, 4)
    with pytest.raises(ValueError, match="group grid points by P"):
        evaluate_grid(prog, [BASE])


# ----------------------------------------------------------------------
# Backend selection and refusal
# ----------------------------------------------------------------------


def test_backend_names():
    assert BACKENDS == ("machine", "compiled", "auto")
    with pytest.raises(ValueError, match="must be one of"):
        resolve_backend("vectorized", latency=None, fabric=None)


def test_backend_machine_always_allowed():
    lat = UniformLatency(6.0)
    assert resolve_backend("machine", latency=lat, fabric=None) == "machine"


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_accepts_seeded_latency(backend):
    """Seeded draws replay exactly under the reset() contract, so any
    LatencyModel is compiled-eligible since the seed-axis lowering."""
    lat = UniformLatency(6.0, lo_frac=0.25, seed=3)
    assert backend_ineligibility(lat, None) is None
    assert resolve_backend(backend, latency=lat, fabric=None) == "compiled"


def test_backend_accepts_deterministic_topology_fabric():
    fabric = TopologyFabric.ring(8, L=6)
    assert backend_ineligibility(None, fabric) is None
    assert (
        resolve_backend("auto", latency=None, fabric=fabric) == "compiled"
    )


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_refuses_load_dependent_fabric(backend):
    """Contention queues resolve delivery from runtime load — still
    machine-only, and the refusal reason names the clause."""
    from repro.sim.net import ContentionFabric

    fabric = ContentionFabric.ring(8, L=8)
    reason = backend_ineligibility(None, fabric)
    assert reason is not None and "runtime load" in reason
    with pytest.raises(ValueError, match="runtime load"):
        resolve_backend(backend, latency=None, fabric=fabric)


#: Bad timing settings, built fresh per call: each must be refused with
#: one error type and one text, whichever entry point receives it.
BAD_TIMING = {
    "latency and fabric": lambda: dict(
        latency=FixedLatency(8.0), fabric=LatencyFabric(FixedLatency(8.0))
    ),
    "lossy fabric": lambda: dict(
        fabric=FaultyFabric(LatencyFabric(FixedLatency(8.0)), drop=0.1)
    ),
    "fabric bound over L": lambda: dict(
        fabric=LatencyFabric(FixedLatency(12.0))
    ),
    "latency bound over L": lambda: dict(latency=FixedLatency(12.0)),
    "seeded latency bound over L": lambda: dict(
        latency=UniformLatency(12.0, lo_frac=0.5, seed=1)
    ),
}


def _timing_entry_points():
    """The four evaluation entry points, on one foldable broadcast."""
    P = 8
    point = LogPParams(L=8.0, o=2.0, g=4.0, P=P)
    prog = compile_programs(
        pipelined_broadcast_program(binomial_tree(P), [0]), P
    )
    folded = fold_program(prog)
    return {
        "evaluate": lambda kw: evaluate(prog, point, **kw),
        "evaluate_grid": lambda kw: evaluate_grid(prog, [point], **kw),
        "evaluate_folded": lambda kw: evaluate_folded(folded, point, **kw),
        "evaluate_folded_grid": lambda kw: evaluate_folded_grid(
            folded, [point], **kw
        ),
    }


@pytest.mark.parametrize("setting", sorted(BAD_TIMING))
def test_bad_timing_refused_alike_on_every_entry_point(setting):
    """One timing resolver: the same bad setting raises the same error
    type with the same text on the scalar, grid, folded and folded-grid
    paths."""
    refusals = {}
    for name, call in _timing_entry_points().items():
        with pytest.raises(ValueError) as info:
            call(BAD_TIMING[setting]())
        refusals[name] = (type(info.value), str(info.value))
    assert len(set(refusals.values())) == 1, refusals


def test_fold_refusal_names_the_fabric_it_was_given():
    """A fabric fold cannot represent is a FoldError naming that fabric
    on both folded paths; the scalar path accepts it (fabric.submit) and
    the grid path refuses it as unrecordable."""
    from repro.sim.net import ContentionFabric

    entries = _timing_entry_points()
    for name in ("evaluate_folded", "evaluate_folded_grid"):
        with pytest.raises(FoldError, match="ContentionFabric"):
            entries[name](dict(fabric=ContentionFabric.ring(8, L=8)))
    with pytest.raises(ValueError, match="not ContentionFabric"):
        entries["evaluate_grid"](dict(fabric=ContentionFabric.ring(8, L=8)))
    entries["evaluate"](dict(fabric=ContentionFabric.ring(8, L=8)))


def test_backend_accepts_latency_fabric():
    fabric = LatencyFabric(FixedLatency(6.0))
    assert backend_ineligibility(None, fabric) is None
    assert (
        resolve_backend("auto", latency=None, fabric=fabric) == "compiled"
    )


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_refuses_fault_plan(backend):
    """Compiled schedules assume fault-free execution: a FaultPlan (or a
    heartbeat detector) must be a loud ValueError, like lossy fabrics —
    never a silent fall back to the machine."""
    from repro.sim.faults import CrashStop, FaultPlan, HeartbeatConfig

    plan = FaultPlan([CrashStop(1, 10.0)])
    assert backend_ineligibility(fault_plan=plan) is not None
    with pytest.raises(ValueError, match="FaultPlan.*fault-free"):
        resolve_backend(backend, fault_plan=plan)
    hb = HeartbeatConfig(period=8.0, timeout=24.0)
    assert backend_ineligibility(heartbeat=hb) is not None
    with pytest.raises(ValueError, match="heartbeat"):
        resolve_backend(backend, heartbeat=hb)
    # A machine backend accepts both; no-fault configs stay eligible.
    assert resolve_backend("machine", fault_plan=plan, heartbeat=hb) == "machine"
    assert backend_ineligibility(fault_plan=None, heartbeat=None) is None


def test_grid_map_refuses_fault_plan_on_auto():
    from repro.sim.faults import CrashStop, FaultPlan

    plan = FaultPlan([CrashStop(1, 10.0)])
    with pytest.raises(ValueError, match="backend='machine'"):
        grid_map(_bcast, [BASE], backend="auto", fault_plan=plan)


def test_grid_map_machine_runs_fault_plan():
    """backend='machine' executes the plan: the crash changes the
    makespan relative to the fault-free run of the same grid point."""
    from repro.sim.faults import CrashStop, FaultPlan

    plan = FaultPlan([CrashStop(3, 0.0)])
    # The broadcast factory wedges without its rank-3 subtree, so use a
    # root-only stream that rank 3's crash merely truncates.
    def prog(rank: int, P: int):
        if rank == 3:
            for _ in range(4):
                yield Send(0)
            return None
        if rank == 0:
            got = 0
            while got < 4:
                m = yield Recv(timeout=200.0)
                if m is None:
                    break
                got += 1
            return got
        return None
        yield

    [(clean, _)] = grid_map(prog, [BASE], backend="machine")
    [(faulty, _)] = grid_map(
        prog, [BASE], backend="machine", fault_plan=plan
    )
    assert faulty != clean


def test_grid_map_refuses_loudly_not_silently():
    """The refusal surfaces from grid_map itself, before any work."""
    from repro.sim.net import ContentionFabric

    for backend in ("auto", "compiled"):
        with pytest.raises(ValueError, match="runtime load"):
            grid_map(
                _bcast, [BASE], backend=backend,
                fabric=ContentionFabric.ring(8, L=8),
            )


def test_grid_map_parity_mixed_p():
    """grid_map groups by P, compiles per group, merges in order."""
    grid = [
        LogPParams(L=float(L), o=2, g=float(g), P=P)
        for P in (4, 8, 5)
        for L in (2, 6, 11)
        for g in (1, 4)
    ]
    compiled = grid_map(_bcast, grid, backend="compiled")
    machine = grid_map(_bcast, grid, backend="machine")
    assert compiled == machine


def test_grid_map_now_program_branch_splits_on_both_backends():
    """Bounded timing dependence no longer forces the machine: both
    ``auto`` and ``compiled`` lower the Now-observing program per
    branch region and stay bit-identical to the machine."""
    grid = [
        LogPParams(L=4, o=1, g=2, P=2),
        LogPParams(L=9, o=1, g=2, P=2),
    ]
    machine = grid_map(_now_prog, grid, backend="machine")
    assert grid_map(_now_prog, grid, backend="auto") == machine
    assert grid_map(_now_prog, grid, backend="compiled") == machine


# ----------------------------------------------------------------------
# Seed-axis replay
# ----------------------------------------------------------------------

N_SEEDS = 100


def _distinct_family_cases(n: int = 3) -> list:
    """The first fuzz case of each of ``n`` distinct program families."""
    cases, seen = [], set()
    for seed in range(200):
        case = make_case(seed)
        if case.family not in seen:
            seen.add(case.family)
            cases.append(case)
            if len(cases) == n:
                return cases
    raise AssertionError(f"fewer than {n} families in 200 fuzz seeds")


@pytest.mark.parametrize("lat_name", ["uniform", "jittered"])
def test_seed_grid_differential_fuzz_families(lat_name):
    """The seed-axis pin: every (point, seed) column of
    evaluate_seed_grid equals one machine run with a fresh same-seed
    latency model — 100 seeds x 3 fuzz families, exact equality."""
    make = LATENCIES[lat_name]
    seeds = range(N_SEEDS)
    for case in _distinct_family_cases():
        prog = compile_programs(case.factory, case.params.P)
        res = evaluate_seed_grid(
            prog, [case.params], seeds, lambda p, s: make(p.L, s)
        )
        assert (res.n_points, res.n_seeds) == (1, N_SEEDS)
        assert not res.divergent
        for s in seeds:
            mres = LogPMachine(
                case.params, latency=make(case.params.L, s), trace=False
            ).run(case.factory)
            assert (res.makespans[s], res.total_stall_times[s]) == (
                mres.makespan,
                mres.total_stall_time,
            ), f"family {case.family} seed {s} diverged under {lat_name}"


def test_seed_grid_point_major_layout():
    """Column p * n_seeds + s: two points x three seeds line up with
    per-point machine runs in point-major order."""
    make = LATENCIES["uniform"]
    grid = [
        LogPParams(L=6.0, o=2.0, g=4.0, P=4),
        LogPParams(L=9.0, o=1.0, g=3.0, P=4),
    ]
    seeds = [3, 11, 42]
    res = evaluate_seed_grid(
        compile_programs(_bcast, 4), grid, seeds, lambda p, s: make(p.L, s)
    )
    want = []
    for p in grid:
        for s in seeds:
            mres = LogPMachine(
                p, latency=make(p.L, s), trace=False
            ).run(_bcast)
            want.append((mres.makespan, mres.total_stall_time))
    assert list(zip(res.makespans, res.total_stall_times)) == want


def test_grid_map_seeded_latency_shared_model_parity():
    """grid_map's shared seeded model equals a fresh same-seed model per
    point: both backends reset the model before every point."""
    grid = [LogPParams(L=4.0, o=o, g=2.0, P=4) for o in (0.5, 1.0, 2.0)]
    compiled = grid_map(
        _bcast,
        grid,
        backend="compiled",
        latency=UniformLatency(4.0, lo_frac=0.25, seed=5),
    )
    want = []
    for p in grid:
        mres = LogPMachine(
            p,
            latency=UniformLatency(4.0, lo_frac=0.25, seed=5),
            trace=False,
        ).run(_bcast)
        want.append((mres.makespan, mres.total_stall_time))
    assert compiled == want


# ----------------------------------------------------------------------
# TopologyFabric lowering
# ----------------------------------------------------------------------


def _section5_fabrics() -> list:
    from repro.topology import FatTree, Mesh2D

    return [
        pytest.param(TopologyFabric.ring(8, L=6), id="ring8"),
        pytest.param(
            TopologyFabric.for_topology(Mesh2D(16), L=6), id="mesh2d16"
        ),
        pytest.param(
            TopologyFabric.for_topology(FatTree(16), L=6), id="fattree16"
        ),
    ]


@pytest.mark.parametrize("fabric", _section5_fabrics())
@pytest.mark.parametrize("factory", [_bcast, _flood])
def test_topology_fabric_grid_parity(fabric, factory):
    """Deterministic per-hop flights lower exactly: compiled grids over
    ring / mesh / fat-tree match the machine point for point."""
    grid = [
        LogPParams(L=6.0, o=o, g=float(g), P=fabric.P)
        for o in (0.5, 2.0)
        for g in (1, 4)
    ]
    compiled = grid_map(factory, grid, backend="compiled", fabric=fabric)
    machine = grid_map(factory, grid, backend="machine", fabric=fabric)
    assert compiled == machine


def test_topology_fabric_scalar_evaluate_parity():
    """The scalar evaluator path with a fabric: same flights, same
    makespan, message counts intact."""
    fabric = TopologyFabric.ring(8, L=6)
    machine = LogPMachine(BASE, fabric=fabric, trace=False).run(_bcast)
    comp = evaluate(
        compile_programs(_bcast, 8), BASE, fabric=fabric,
        collect_stalls=True,
    )
    assert comp.makespan == machine.makespan
    assert comp.total_stall_time == machine.total_stall_time
    assert comp.total_messages == machine.total_messages


# ----------------------------------------------------------------------
# Branch-splitting fallback and dispatch reporting
# ----------------------------------------------------------------------


def _fragile_now(rank: int, P: int):
    """Lowers only at the true clock: the provisional pass (assumed
    t=0) drives ``Compute`` negative, so branch-splitting refuses."""

    def run():
        yield Compute(2.0)
        t = yield Now()
        yield Compute(t - 1.0)
        return t

    return run()


def test_forked_fallback_refusal_semantics():
    """When branch-splitting cannot lower the program, ``auto`` degrades
    to the machine carrying the CompileError reason; ``compiled`` raises
    the same error instead of silently running the slow path."""
    pts = [LogPParams(L=4, o=1, g=2, P=2)]
    report = GridMapReport()
    auto = grid_map(_fragile_now, pts, backend="auto", report=report)
    assert auto == grid_map(_fragile_now, pts, backend="machine")
    [group] = report.groups
    assert group.path == "machine"
    assert "assumed clock" in group.reason
    assert group.stop_reason == ""  # no tape recorded on the machine
    assert report.degraded == [group]
    with pytest.raises(CompileError, match="assumed clock"):
        grid_map(_fragile_now, pts, backend="compiled")


def test_grid_map_report_names_dispatch_paths():
    """The report distinguishes straight-line tapes from branch-split
    regions, and records tape counts for both."""
    report = GridMapReport()
    grid_map(_bcast, [BASE], backend="auto", report=report)
    assert report.backend == "compiled"
    [group] = report.groups
    assert (group.path, group.P, group.n_points) == ("compiled", 8, 1)
    assert group.tapes >= 1 and group.reason == ""
    assert group.stop_reason == "covered"

    report = GridMapReport()
    grid = [LogPParams(L=4, o=1, g=2, P=2), LogPParams(L=9, o=1, g=2, P=2)]
    res = grid_map(_now_prog, grid, backend="auto", report=report)
    [group] = report.groups
    assert group.path == "compiled-forked" and group.tapes >= 1
    assert group.stop_reason == "covered"
    assert not report.degraded
    assert res == grid_map(_now_prog, grid, backend="machine")


def test_compile_at_requires_factory():
    """Per-pass recompilation needs fresh generators: a pre-built
    sequence is refused up front, not half-consumed."""
    from repro.sim.compiled import compile_at

    gens = [_now_prog(r, 2) for r in range(2)]
    with pytest.raises(CompileError, match="factory"):
        compile_at(gens, 2, LogPParams(L=4, o=1, g=2, P=2))


# ----------------------------------------------------------------------
# The column-dropping replay against a check-everything oracle
# ----------------------------------------------------------------------


def _replay_every_constraint(tape, arrs, caps):
    """The replay that drops no column: the whole code at every column,
    then every constraint at every column, in 512-row chunks per kind.

    Returns ``(ok, makespans, stalls, first_fail)``, where
    ``first_fail[c]`` is the record-order position, among the binary
    constraints, of column ``c``'s first failed one (-1: none).
    """
    G = compiled_grid
    npts = len(caps)
    S = np.empty((tape.n_slots, npts), dtype=float)
    for ins in tape.code:
        op = ins[0]
        if op == G._I_ADD:
            np.add(
                S[ins[2]], G._term_values(ins[3], ins[4], arrs),
                out=S[ins[1]],
            )
        elif op == G._I_MAX:
            np.maximum(S[ins[2]], S[ins[3]], out=S[ins[1]])
        elif op == G._I_CONST:
            S[ins[1]] = G._term_values(ins[2], ins[3], arrs)
        elif op == G._I_ADDS:
            np.add(S[ins[2]], S[ins[3]], out=S[ins[1]])
        else:  # _I_STALL
            np.subtract(S[ins[3]], S[ins[4]], out=S[ins[1]])
            np.add(S[ins[2]], S[ins[1]], out=S[ins[1]])
    mk = S[tape.makespan_slot].copy()
    st = S[tape.stall_slot].copy()
    by_kind: list = [[] for _ in range(7)]
    for con in tape.cons:
        by_kind[con[0]].append(con)
    ok = np.ones(npts, dtype=bool)
    for kind in (G._C_LE, G._C_LT, G._C_EQ, G._C_NE, G._C_CLAMP):
        rows = by_kind[kind]
        for i in range(0, len(rows), 512):
            chunk = rows[i : i + 512]
            a = S[np.fromiter((c[1] for c in chunk), dtype=np.intp)]
            b = S[np.fromiter((c[2] for c in chunk), dtype=np.intp)]
            if kind == G._C_LE:
                res = a <= b
            elif kind == G._C_LT:
                res = a < b
            elif kind == G._C_EQ:
                res = a == b
            elif kind == G._C_NE:
                res = a != b
            else:  # _C_CLAMP
                res = (a < b) & (a >= b - G._PAST_TOL)
            ok &= res.all(axis=0)
    cap_rows = by_kind[G._C_CAP]
    if cap_rows:
        counts = np.fromiter((c[1] for c in cap_rows), dtype=np.int64)
        observed = np.fromiter((c[2] for c in cap_rows), dtype=bool)
        res = (counts[:, None] >= caps[None, :]) == observed[:, None]
        ok &= res.all(axis=0)
    for con in by_kind[G._C_GLPOS]:
        ok &= (arrs[4] > 0) == con[1]
    first_fail = [-1] * npts
    binary = [c for c in tape.cons if c[0] not in (G._C_CAP, G._C_GLPOS)]
    for pos, (kind, a, b) in enumerate(binary):
        res = G._check(kind, S[a][None, :], S[b][None, :])[0]
        for c in np.flatnonzero(~res).tolist():
            if first_fail[c] < 0:
                first_fail[c] = pos
    return ok, mk, st, first_fail


@pytest.fixture
def replay_oracle(monkeypatch):
    """Diff every :func:`_replay` call against the oracle above.

    Returns the list of checked calls, each a dict: ``n`` columns,
    ``covered``, the distinct first-failure ``positions`` of the
    failed columns, whether the draws were a per-column ``matrix``, and
    the instructions ``run`` against the tape's ``code`` length.
    """
    replay = compiled_grid._replay
    run_code = compiled_grid._run_code
    calls = []
    ran = [0]

    def counting_run_code(code, S, lo, hi, arrs):
        ran[0] += hi - lo
        run_code(code, S, lo, hi, arrs)

    def checked(tape, arrs, caps):
        ran[0] = 0
        ok, mk, st = replay(tape, arrs, caps)
        want_ok, want_mk, want_st, first_fail = _replay_every_constraint(
            tape, arrs, caps
        )
        assert ok.tolist() == want_ok.tolist()
        assert mk[ok].tobytes() == want_mk[ok].tobytes()
        assert st[ok].tobytes() == want_st[ok].tobytes()
        calls.append({
            "n": len(caps),
            "covered": int(ok.sum()),
            "positions": {
                p for p, hit in zip(first_fail, ok.tolist())
                if not hit and p >= 0
            },
            "matrix": isinstance(arrs[5], np.ndarray),
            "run": ran[0],
            "code": len(tape.code),
        })
        return ok, mk, st

    monkeypatch.setattr(compiled_grid, "_run_code", counting_run_code)
    monkeypatch.setattr(compiled_grid, "_replay", checked)
    return calls


def _bcast_tree():
    from repro.serve.registry import build

    return build("bcast_tree", {"k": 8}, None)


@pytest.mark.parametrize("blocks", ["default", "one_row"])
def test_replay_drops_columns_in_different_blocks(
    blocks, replay_oracle, monkeypatch
):
    """An o-sweep's uncovered columns fail at different constraints; with
    one-row blocks each position is its own block."""
    if blocks == "one_row":
        monkeypatch.setattr(compiled_grid, "_BLOCK_FIRST", 1)
        monkeypatch.setattr(compiled_grid, "_BLOCK_ELEMS", 1)
    monkeypatch.setattr(compiled_grid, "_BREAK_EVEN", 0)
    pts = [LogPParams(L=6.0, o=0.25 + 7.75 * i / 95, g=4.0, P=8)
           for i in range(96)]
    gr = evaluate_grid(compile_programs(_bcast_tree(), 8), pts)
    assert gr.fallbacks == 0 and len(replay_oracle) >= 2
    first = replay_oracle[0]
    assert 0 < first["covered"] < first["n"]
    assert len(first["positions"]) >= 2


def test_replay_returns_early_when_no_column_is_left(replay_oracle):
    """A tape no column satisfies: the replay stops in a constraint
    block, before the rest of the code."""
    prog = compile_programs(_bcast_tree(), 8)
    ops = compiled_grid._grid_ops(
        prog, [LogPParams(L=6.0, o=o, g=4.0, P=8) for o in (0.5, 6.0, 7.0)],
        None, None, None,
        dict(enforce_capacity=True, hw_barrier_cost=0.0,
             compute_jitter=None, max_events=50_000_000),
    )
    rec, _ = ops.record(0)
    compiled_grid._replay(rec.tape, *ops.replay_inputs(rec, [1, 2]))
    [call] = replay_oracle
    assert call["covered"] == 0
    assert 0 < call["run"] < call["code"]


def test_replay_keeps_every_column_that_passes(replay_oracle):
    """A grid inside the reference's region: every column passes every
    block, and the code runs once, up to the output slots."""
    prog = compile_programs(_bcast_tree(), 8)
    pts = [LogPParams(L=6.0, o=5.0 + i / 64, g=4.0, P=8) for i in range(8)]
    gr = evaluate_grid(prog, pts)
    assert (gr.tapes, gr.fallbacks) == (1, 0)
    [call] = replay_oracle
    assert call["covered"] == call["n"] == 7
    assert call["run"] <= call["code"]


def test_replay_drops_draw_matrix_columns_in_seed_grids(replay_oracle):
    """Drawn and ``FixedLatency`` (``const_axis``) columns both carry a
    per-column draws matrix; dropped columns leave it too."""

    def factory(p, s):
        if s % 3 == 0:
            return FixedLatency(p.L)
        return JitteredLatency(p.L, scale_frac=0.5, seed=s)

    # Two capacities (ceil(L / g) = 1 and 2), so some columns already
    # fail the code-free capacity rows.
    pts = [LogPParams(L=L, o=o, g=4.0, P=4)
           for L in (4.0, 8.0) for o in (1.0, 2.5)]
    seeds = list(range(9))
    res = evaluate_seed_grid(compile_programs(_flood, 4), pts, seeds, factory)
    for p_i, p in enumerate(pts):
        for s in seeds:
            m = LogPMachine(p, latency=factory(p, s), trace=False).run(_flood)
            c = p_i * len(seeds) + s
            assert (res.makespans[c], res.total_stall_times[c]) == (
                m.makespan, m.total_stall_time,
            )
    dropped = [c for c in replay_oracle if c["matrix"] and c["positions"]]
    assert any(0 < c["covered"] for c in dropped)
    # The first replay of each column group: 23 drawn, 11 fixed columns.
    assert {23, 11} <= {c["n"] for c in replay_oracle}


def test_replay_folded_grid(replay_oracle):
    """The folded grid replays through the same function."""
    prog = pipelined_broadcast_program(binomial_tree(64), [0])
    pts = [LogPParams(L=4.0 + i, o=2.0, g=4.0, P=64) for i in range(16)]
    gr = evaluate_folded_grid(fold_program(compile_programs(prog, 64)), pts)
    for i, p in enumerate(pts):
        m = LogPMachine(p, trace=False).run(prog)
        assert (gr.makespans[i], gr.total_stall_times[i]) == (
            m.makespan, m.total_stall_time,
        )
    assert replay_oracle and all(c["run"] <= c["code"] for c in replay_oracle)
