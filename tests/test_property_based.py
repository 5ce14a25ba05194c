"""Property-based tests (hypothesis) on the core invariants.

The heaviest net here is semantic: *any* random message-passing program,
run on *any* random LogP machine, must produce a trace that satisfies
every clause of the model — overhead durations, send/receive gaps, the
latency bound, and the capacity constraint.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import LogPParams
from repro.algorithms.broadcast import (
    optimal_broadcast_time,
    optimal_broadcast_tree,
    tree_delivery_times,
)
from repro.algorithms.fft import fft_natural, hybrid_fft_inmemory
from repro.algorithms.summation import (
    distribute_inputs,
    optimal_summation_tree,
    summation_capacity,
    summation_program,
)
from repro.memory.cache import Cache
from repro.sim import (
    Compute,
    LogPMachine,
    Recv,
    Send,
    UniformLatency,
    run_programs,
    validate_schedule,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

logp_params = st.builds(
    LogPParams,
    L=st.integers(0, 20).map(float),
    o=st.integers(0, 6).map(float),
    g=st.integers(1, 8).map(float),
    P=st.integers(2, 6),
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_traffic(draw):
    """A random machine plus a random message multiset (src != dst)."""
    p = draw(logp_params)
    n_msgs = draw(st.integers(0, 12))
    msgs = []
    for _ in range(n_msgs):
        src = draw(st.integers(0, p.P - 1))
        dst = draw(st.integers(0, p.P - 2))
        if dst >= src:
            dst += 1
        msgs.append((src, dst))
    computes = {
        r: draw(st.integers(0, 15)) for r in range(p.P)
    }
    return p, msgs, computes


#: A case where the capacity-off run finishes later (see
#: ``test_capacity_off_can_finish_later``).
CAPACITY_ANOMALY = (
    LogPParams(L=2, o=1, g=4, P=4),
    [(1, 2), (3, 1), (2, 0), (0, 1), (0, 2), (1, 0)],
    {0: 1, 1: 0, 2: 2, 3: 0},
)


def traffic_programs(p, msgs, computes):
    """Sends-then-receives programs (deadlock-free by construction)."""
    outgoing = {r: [] for r in range(p.P)}
    incoming = {r: 0 for r in range(p.P)}
    for src, dst in msgs:
        outgoing[src].append(dst)
        incoming[dst] += 1

    def factory(rank, P):
        def run():
            if computes[rank]:
                yield Compute(computes[rank])
            for dst in outgoing[rank]:
                yield Send(dst, payload=(rank, dst))
            got = []
            for _ in range(incoming[rank]):
                m = yield Recv()
                got.append(m.payload)
            return got

        return run()

    return factory


# ----------------------------------------------------------------------
# Simulator semantics
# ----------------------------------------------------------------------


class TestSimulatorSemantics:
    @SLOW
    @given(random_traffic())
    def test_any_program_yields_valid_trace(self, traffic):
        p, msgs, computes = traffic
        res = run_programs(p, traffic_programs(p, msgs, computes))
        validate_schedule(res.schedule, exact_latency=True).raise_if_invalid()
        assert res.total_messages == len(msgs)

    @SLOW
    @given(random_traffic(), st.integers(0, 2**32 - 1))
    def test_random_latency_still_valid_and_delivers_all(self, traffic, seed):
        p, msgs, computes = traffic
        machine = LogPMachine(
            p, latency=UniformLatency(p.L, lo_frac=0.25, seed=seed)
        )
        res = machine.run(traffic_programs(p, msgs, computes))
        validate_schedule(res.schedule).raise_if_invalid()
        delivered = [x for r in res.values() for x in r]
        assert sorted(delivered) == sorted((s, d) for s, d in msgs)

    @SLOW
    @given(random_traffic())
    def test_determinism(self, traffic):
        p, msgs, computes = traffic
        r1 = run_programs(p, traffic_programs(p, msgs, computes))
        r2 = run_programs(p, traffic_programs(p, msgs, computes))
        assert r1.makespan == r2.makespan
        assert r1.total_stall_time == r2.total_stall_time

    @SLOW
    @given(random_traffic())
    @example(CAPACITY_ANOMALY)
    def test_capacity_off_changes_nothing_without_a_stall(self, traffic):
        """With the capacity constraint off no stall is ever recorded,
        and a run that records none with it on has the same makespan.
        After a stall the two greedy schedules may order a later tie
        differently, either way (see the test below)."""
        p, msgs, computes = traffic
        with_cap = run_programs(p, traffic_programs(p, msgs, computes))
        machine = LogPMachine(p, enforce_capacity=False)
        without = machine.run(traffic_programs(p, msgs, computes))
        assert without.total_stall_time == 0 and not without.stall_events
        if not with_cap.stall_events:
            assert without.makespan == with_cap.makespan

    def test_capacity_off_can_finish_later(self):
        """A greedy-schedule anomaly, not a machine bug: both runs obey
        every rule, and the event sequence orders a tie.

        With capacity on (capacity 1), rank 0's first send stalls one
        cycle, since rank 1 already has a message in flight.  This puts
        its second send's activation after the arrival of 2->0 at
        t = 5, so rank 0 receives 2->0 first (5-6); its receive gap
        opens at 9, and it receives 1->0 at 9-10.  With capacity off,
        the send wins the tie at t = 5, the receive of 2->0 slips to
        6-7, and g = 4 pushes 1->0 to 10-11.
        """
        p, msgs, computes = CAPACITY_ANOMALY
        with_cap = run_programs(p, traffic_programs(p, msgs, computes))
        machine = LogPMachine(p, enforce_capacity=False)
        without = machine.run(traffic_programs(p, msgs, computes))
        validate_schedule(
            with_cap.schedule, exact_latency=True
        ).raise_if_invalid()
        validate_schedule(
            without.schedule, exact_latency=True, check_capacity=False
        ).raise_if_invalid()
        assert with_cap.total_stall_time == 1.0
        assert (with_cap.makespan, without.makespan) == (10.0, 11.0)


# ----------------------------------------------------------------------
# Broadcast optimality
# ----------------------------------------------------------------------


@st.composite
def random_tree(draw, P):
    """A random spanning arborescence on 0..P-1 rooted at 0, with
    random child orders."""
    children = [[] for _ in range(P)]
    nodes = [0]
    for v in range(1, P):
        parent = draw(st.sampled_from(nodes))
        children[parent].append(v)
        nodes.append(v)
    for c in children:
        draw(st.randoms()).shuffle(c)
    return children


class TestBroadcastOptimality:
    @SLOW
    @given(logp_params, st.data())
    def test_greedy_never_beaten_by_random_tree(self, p, data):
        children = data.draw(random_tree(p.P))
        opt = optimal_broadcast_time(p)
        rand = max(tree_delivery_times(p, children))
        assert opt <= rand + 1e-9

    @SLOW
    @given(logp_params)
    def test_tree_recv_times_self_consistent(self, p):
        tree = optimal_broadcast_tree(p)
        recomputed = tree_delivery_times(p, tree.children, tree.root)
        assert recomputed == tree.recv_time


# ----------------------------------------------------------------------
# Summation invariants
# ----------------------------------------------------------------------


class TestSummationProperties:
    @SLOW
    @given(logp_params, st.integers(0, 40))
    def test_capacity_monotone_and_consistent(self, p, T):
        c1 = summation_capacity(p, T)
        c2 = summation_capacity(p, T + 1)
        assert c2 >= c1 >= 1
        tree = optimal_summation_tree(p, T)
        assert tree.total_values == c1
        assert tree.processors_used <= p.P

    @SLOW
    @given(logp_params, st.integers(5, 35), st.integers(0, 2**31 - 1))
    def test_simulated_sum_is_exact(self, p, T, seed):
        tree = optimal_summation_tree(p, T)
        rng = np.random.default_rng(seed)
        values = rng.integers(-100, 100, tree.total_values).astype(float)
        res = run_programs(p, summation_program(tree, distribute_inputs(tree, values)))
        assert res.value(0) == values.sum()
        assert res.makespan <= T + 1e-9


# ----------------------------------------------------------------------
# FFT correctness
# ----------------------------------------------------------------------


class TestFFTProperties:
    @SLOW
    @given(
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    def test_local_fft_matches_numpy(self, logn, seed):
        n = 2**logn
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft_natural(x), np.fft.fft(x))

    @SLOW
    @given(
        st.sampled_from([(16, 2), (16, 4), (64, 4), (64, 8), (256, 4)]),
        st.integers(0, 2**31 - 1),
    )
    def test_hybrid_matches_numpy(self, shape, seed):
        n, P = shape
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(hybrid_fft_inmemory(x, P), np.fft.fft(x))

    @SLOW
    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_parseval(self, logn, seed):
        n = 2**logn
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = fft_natural(x)
        assert np.sum(np.abs(X) ** 2) / n == np.sum(np.abs(x) ** 2) * (
            1 + 0
        ) or np.isclose(np.sum(np.abs(X) ** 2) / n, np.sum(np.abs(x) ** 2))


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------


class TestCacheProperties:
    @SLOW
    @given(
        st.lists(st.integers(0, 2**14 - 1), max_size=300),
        st.sampled_from([256, 1024, 4096]),
        st.sampled_from([16, 32]),
    )
    def test_vectorized_equals_scalar(self, addrs, size, line):
        a = np.asarray(addrs, dtype=np.int64)
        c1 = Cache(size, line)
        c1.access_block(a)
        c2 = Cache(size, line)
        for x in addrs:
            c2.access(int(x))
        assert c1.stats.misses == c2.stats.misses

    @SLOW
    @given(st.lists(st.integers(0, 2**12 - 1), max_size=200))
    def test_miss_bounds(self, addrs):
        c = Cache(1024, 32)
        for x in addrs:
            c.access(x)
        st_ = c.stats
        distinct_lines = len({x // 32 for x in addrs})
        assert distinct_lines <= st_.misses + 0 or st_.misses >= 0
        assert st_.misses >= min(distinct_lines, 1) if addrs else True
        assert st_.misses <= st_.accesses

    @SLOW
    @given(st.integers(1, 32), st.integers(0, 2**31 - 1))
    def test_working_set_within_capacity_all_hits_second_pass(
        self, n_lines, seed
    ):
        rng = np.random.default_rng(seed)
        # n_lines distinct lines, all mapping to distinct sets of a
        # 32-set direct-mapped cache.
        lines = rng.choice(32, size=min(n_lines, 32), replace=False)
        addrs = lines * 32
        c = Cache(1024, 32)
        c.access_block(addrs)
        before = c.stats.misses
        c.access_block(addrs)
        assert c.stats.misses == before


# ----------------------------------------------------------------------
# Parameter object
# ----------------------------------------------------------------------


class TestParamProperties:
    @given(logp_params)
    def test_capacity_consistent(self, p):
        cap = p.capacity
        assert cap >= 1
        assert cap * p.g >= p.L or p.g == 0

    @given(logp_params, st.floats(0.1, 10))
    def test_scaling_preserves_ratios(self, p, k):
        q = p.scaled(k)
        if p.g > 0 and p.L > 0:
            assert q.L / q.g == pytest.approx(p.L / p.g)
        assert q.P == p.P

    @given(logp_params, st.integers(1, 20))
    def test_merge_overhead_additive_bound(self, p, k):
        # o := max(o, g) inflates a k-message stream by exactly the two
        # endpoint overheads' growth: 2 * (max(g, o) - o).  (The paper's
        # informal "conservative by at most a factor of two" follows
        # whenever 2g <= L + 4o — see the ablation benchmark.)
        from repro.core import pipelined_stream_exact

        merged = p.merge_overhead_into_gap()
        inflation = pipelined_stream_exact(merged, k) - pipelined_stream_exact(p, k)
        assert inflation == pytest.approx(2 * (max(p.g, p.o) - p.o))

    @given(logp_params, st.integers(1, 20))
    def test_merge_factor_two_in_physical_regime(self, p, k):
        # The factor-2 claim, in the regime where it provably holds.
        from repro.core import pipelined_stream_exact

        if 2 * p.g > p.L + 4 * p.o:
            return
        merged = p.merge_overhead_into_gap()
        orig = pipelined_stream_exact(p, k)
        assert pipelined_stream_exact(merged, k) <= 2 * orig + 1e-9
