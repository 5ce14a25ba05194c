"""Tests for repro.machines.fit: closed-loop parameter measurement."""

import math

import pytest

from repro.core import LogPParams
from repro.machines.fit import MeasuredLogP, measure_logp

GRID = [
    LogPParams(L=6, o=2, g=4, P=8),
    LogPParams(L=16, o=1, g=4, P=4),
    LogPParams(L=20, o=0, g=2, P=3),
    LogPParams(L=5, o=3, g=1, P=4),
    LogPParams(L=12, o=3, g=3, P=6),
    LogPParams(L=1.3, o=0.44, g=0.89, P=4),  # the CM-5 calibration
    # g above the round trip 2L + 4o = 8: a probe that waits out only a
    # round trip before its timed Send would time a gap wait too.
    LogPParams(L=2, o=1, g=12, P=4),
]


class TestClosedLoopRecovery:
    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"L{p.L}o{p.o}g{p.g}")
    def test_overhead_exact(self, p):
        m = measure_logp(p, measure_depth=False)
        assert m.o == pytest.approx(p.o)

    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"L{p.L}o{p.o}g{p.g}")
    def test_latency_exact(self, p):
        m = measure_logp(p, measure_depth=False)
        assert m.L == pytest.approx(p.L)
        assert m.round_trip == pytest.approx(p.remote_read())

    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"L{p.L}o{p.o}g{p.g}")
    def test_effective_gap_exact(self, p):
        m = measure_logp(p, measure_depth=False)
        assert m.effective_g == pytest.approx(max(p.g, p.o))

    @pytest.mark.parametrize("p", GRID[:5], ids=lambda p: f"L{p.L}o{p.o}g{p.g}")
    def test_pipeline_depth_at_knee(self, p):
        m = measure_logp(p)
        knee = math.ceil((p.L + 2 * p.o) / max(p.g, p.o))
        assert abs(m.pipeline_depth - knee) <= 1

    def test_depth_equals_capacity_when_overhead_free(self):
        p = LogPParams(L=20, o=0, g=2, P=3)
        m = measure_logp(p)
        assert m.pipeline_depth == p.capacity


class TestDerivedOutputs:
    def test_as_params_roundtrip(self):
        p = LogPParams(L=6, o=2, g=4, P=8)
        m = measure_logp(p, measure_depth=False)
        q = m.as_params(P=8)
        assert (q.L, q.o, q.g, q.P) == (6, 2, 4, 8)

    def test_as_params_conservative_when_g_hidden(self):
        # True g=1 < o=3: the measured parameter set uses the effective
        # gap, which is exactly Section 3.1's merge rule.
        p = LogPParams(L=5, o=3, g=1, P=4)
        m = measure_logp(p, measure_depth=False)
        q = m.as_params(P=4)
        assert q.g == pytest.approx(3.0)

    def test_gap_bounds_contain_truth(self):
        for p in GRID[:5]:
            m = measure_logp(p)
            lo, hi = m.gap_bounds()
            assert p.g <= hi + 1e-9
            assert lo <= max(p.g, p.o) + 1e-9

    def test_small_machine_rejected_for_gap(self):
        p = LogPParams(L=6, o=2, g=4, P=2)
        with pytest.raises(ValueError, match="P >= 3"):
            measure_logp(p)


class TestRoundTripProbe:
    def test_the_cold_first_round_is_not_timed(self):
        """Rank 0's program driven by hand: each reply arrives after the
        next of ``rounds`` time units.  The first, cold round (50) stays
        out of the round trip; the later ones give their median."""
        from repro.machines.fit import _RoundTripProbe
        from repro.sim.program import Now, Recv, Send

        rounds = iter([50.0, 10.0, 10.0, 12.0, 10.0])
        clock = 0.0
        prog = _RoundTripProbe(4)(0, 2)
        op = next(prog)
        sent = 0
        try:
            while True:
                if isinstance(op, Now):
                    op = prog.send(clock)
                elif isinstance(op, Send):
                    sent += 1
                    op = prog.send(None)
                else:
                    assert isinstance(op, Recv)
                    clock += next(rounds)
                    op = prog.send(None)
        except StopIteration as stop:
            rtt = stop.value
        assert sent == 5
        assert rtt == 10.0


class TestOverheadProbe:
    def test_o_is_the_median_of_warm_sends(self):
        """Rank 0's program driven by hand: each Send takes the next of
        ``durations`` time units.  The cold first Send (50) stays out;
        the four timed ones give their median."""
        from repro.machines.fit import _OverheadProbe
        from repro.sim.program import Now, Recv, Send

        durations = iter([50.0, 3.0, 2.0, 2.0, 9.0])
        clock = 0.0
        prog = _OverheadProbe(4)(0, 2)
        op = next(prog)
        sent = 0
        try:
            while True:
                if isinstance(op, Now):
                    op = prog.send(clock)
                elif isinstance(op, Send):
                    sent += 1
                    clock += next(durations)
                    op = prog.send(None)
                else:
                    assert isinstance(op, Recv)
                    clock += 7.0
                    op = prog.send(None)
        except StopIteration as stop:
            o = stop.value
        assert sent == 5
        assert o == 2.5
