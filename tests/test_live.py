"""The live backend: real processes, exact invariants, banded timing.

Three layers of assurance, mirroring the package structure:

1. **Transport/unit** — frame codec roundtrips, tolerance-band math,
   and the exact/timing clause split (the ``REPRO_LIVE_SLACK`` knob can
   loosen wall-clock checks but can never touch an ordering clause).
2. **Doctored logs** — the validator's exact clauses are checked
   *negatively*: hand-built event logs with a duplicated delivery, a
   reordered sequence, a phantom message, a causality inversion, and a
   broken barrier each fire exactly the clause that names the defect.
3. **Real runs** — registry families on real ranks over localhost TCP:
   exact clauses hold, values match a simulator replay bit for bit,
   ``Recv`` timeouts and ``Poll`` keep their contracts, calibration
   returns positive parameters, and a SIGKILLed rank is detected by
   the heartbeat detector (and only it).

Wall-clock policy: nothing here asserts a tight timing bound — live
timing checks flow through :func:`repro.live.validate_live.live_slack`
and are warnings by design.  A test failure in this file means a real
ordering/delivery/detection defect, not a slow CI host.
"""

import ast
import gc
import math
import os
import pickle
import signal
import socket
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core import LogPParams
from repro.core.schedule import MessageRecord, Schedule
from repro.live import (
    EXACT_CLAUSES,
    TIMING_CLAUSES,
    LiveConfig,
    family_program,
    fit_live,
    live_slack,
    run_chaos,
    run_live,
    validate_live,
)
from repro.live.coordinator import LiveRunError
from repro.live.logs import KINDS, EventLog, LiveEvent, LiveResult
from repro.live.transport import RankTransport, recv_frame, send_frame
from repro.machines.fit import MeasuredLogP
from repro.sim.program import Now, Poll, ProgramResult, Recv
from repro.sim.validate import ToleranceBand, validate_schedule

_CFG = LiveConfig(deadline_s=30.0)

#: Synthetic host fit: validate_live needs *a* parameter scale for its
#: bands and replay; exact clauses are independent of the values.
_FITTED = MeasuredLogP(
    o=5.0, L=5.0, effective_g=1.0, pipeline_depth=2, round_trip=30.0
)


# ----------------------------------------------------------------------
# Picklable live programs used by the real-run tests.
# ----------------------------------------------------------------------


class _TimeoutPollProgram:
    """Rank 0 probes an empty mailbox: bounded Recv, then Poll, then Now."""

    def __call__(self, rank: int, P: int):
        def run():
            if rank == 0:
                got = yield Recv(tag="never", timeout=5.0)
                pending = yield Poll()
                t0 = yield Now()
                t1 = yield Now()
                return (got, pending, t1 >= t0)
            return None

        return run()


class _BuildFailsOnRank1:
    """Rank 0 waits for a message; rank 1's program fails to build."""

    def __call__(self, rank: int, P: int):
        if rank == 1:
            raise ValueError("no program for rank 1")

        def run():
            yield Recv()

        return run()


class _CheckpointProgram:
    """Each rank checkpoints a payload and restores it."""

    def __call__(self, rank: int, P: int):
        from repro.sim.program import Checkpoint, Restore

        def run():
            yield Checkpoint(payload=("saved", rank))
            info = yield Restore()
            return (info.checkpoint, info.incarnation)

        return run()


class _BarrierProgram:
    """Everyone crosses two barriers with a send phase in between."""

    def __call__(self, rank: int, P: int):
        from repro.sim.program import Barrier, Send

        def run():
            yield Barrier()
            if rank == 0:
                for peer in range(1, P):
                    yield Send(peer, payload=rank)
            else:
                m = yield Recv()
                assert m.payload == 0
            yield Barrier()
            return rank

        return run()


# ----------------------------------------------------------------------
# 1. Transport and tolerance units (no processes spawned).
# ----------------------------------------------------------------------


class TestFrames:
    def test_roundtrip_preserves_objects(self):
        a, b = socket.socketpair()
        try:
            payload = ("data", 3, {"k": [1, 2]}, None)
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_concurrent_sends_stay_framed(self):
        a, b = socket.socketpair()
        lock = threading.Lock()
        n = 50
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: send_frame(a, ("msg", i), lock)
                )
                for i in range(n)
            ]
            for t in threads:
                t.start()
            got = sorted(recv_frame(b)[1] for _ in range(n))
            for t in threads:
                t.join()
            assert got == list(range(n))
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()


class TestPackedLog:
    """A rank's log travels and is kept as packed records; every event
    read back must equal the one appended."""

    def test_every_kind_round_trips_bit_exact(self):
        log = EventLog(3)
        expected = []
        for i, kind in enumerate(KINDS):
            t = math.nextafter(0.1 * i, math.inf) if i % 2 else 1e-300 * i
            peer, seq = (-1, -1) if i % 3 == 0 else (i, 2**40 + i)
            info = f"label-{kind}" if i % 2 else ""
            log.append(kind, t, i + 1, peer=peer, seq=seq, info=info)
            expected.append(LiveEvent(t, 3, kind, i + 1, peer, seq, info))
        shipped = pickle.loads(pickle.dumps(log.freeze()))
        assert list(shipped) == expected
        assert [shipped[i] for i in range(len(shipped))] == expected
        assert shipped[-1] == expected[-1]
        assert all(
            a.t.hex() == b.t.hex() for a, b in zip(shipped, expected)
        )

    def test_every_kind_the_live_modules_log_is_in_the_table(self):
        import repro.live

        logged = set()
        for path in Path(repro.live.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and ast.unparse(node.func.value) in ("log", "self.log")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    logged.add(node.args[0].value)
        assert {"checkpoint", "delivery", "suspect"} <= logged
        assert logged <= set(KINDS), sorted(logged - set(KINDS))

    def test_unknown_kind_raises_at_append(self):
        log = EventLog(0)
        with pytest.raises(ValueError, match="unknown live event kind 'sned'"):
            log.append("sned", 1.0, 1)
        assert len(log.freeze()) == 0

    def test_threads_appending_together_keep_every_record_and_info(self):
        # The program thread and the receiver thread share one log.
        log = EventLog(0)
        n = 2000

        def append_from(who):
            for i in range(n):
                info = f"{who}:{i}" if i % 2 else ""
                log.append("delivery", float(i), i, peer=who, seq=i, info=info)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=append_from, args=(who,)) for who in (1, 2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        events = list(log.freeze())
        assert len(events) == 2 * n
        for who in (1, 2):
            mine = [e for e in events if e.peer == who]
            assert [e.seq for e in mine] == list(range(n))
            assert all(
                e.info == (f"{who}:{e.seq}" if e.seq % 2 else "") for e in mine
            )


class TestTransportTeardown:
    def test_close_is_prompt_after_the_peer_closed_first(self):
        # The receiver blocks with no poll timeout; close() must wake it
        # rather than wait out an interval (the peer's EOF leaves the
        # receiver with nothing else to watch).
        took = []
        for _ in range(5):
            mine, theirs = socket.socketpair()
            transport = RankTransport(0, 2, _CFG, EventLog(0), {1: mine})
            transport.start()
            transport.go(time.monotonic())
            theirs.close()
            deadline = time.monotonic() + 5.0
            while transport._links[1].alive and time.monotonic() < deadline:
                time.sleep(0.001)
            assert not transport._links[1].alive
            t0 = time.monotonic()
            transport.close()
            took.append(time.monotonic() - t0)
            assert not transport._recv_thread.is_alive()
        assert statistics.median(took) < 0.020, took


class TestToleranceBand:
    def test_slack_is_abs_plus_rel_times_scale(self):
        band = ToleranceBand(rel=0.5, abs=2.0)
        assert band.slack(10.0) == 2.0 + 5.0
        assert band.slack(0.0) == 2.0

    def test_negative_tolerances_refuse(self):
        with pytest.raises(ValueError):
            ToleranceBand(rel=-0.1)
        with pytest.raises(ValueError):
            ToleranceBand(abs=-1.0)

    def test_band_loosens_latency_but_none_stays_exact(self):
        p = LogPParams(L=6.0, o=2.0, g=4.0, P=2)
        sched = Schedule(params=p)
        sched.add_message(
            MessageRecord(
                src=0, dst=1, send_start=0.0, inject=2.0,
                arrive=9.5, recv_start=9.5, recv_end=11.5,
            )
        )
        exact = validate_schedule(sched, check_capacity=False)
        assert any(v.rule == "latency-bound" for v in exact.violations)
        banded = validate_schedule(
            sched, check_capacity=False, band=ToleranceBand(rel=0.5)
        )
        assert not any(v.rule == "latency-bound" for v in banded.violations)


class TestSlackKnob:
    """The single-knob contract: slack scales timing, never ordering."""

    def test_exact_and_timing_clauses_are_disjoint(self):
        assert not (EXACT_CLAUSES & TIMING_CLAUSES)

    def test_ordering_and_delivery_clauses_are_pinned_exact(self):
        # The clauses that make a live trace trustworthy: no tolerance
        # knob may ever apply to them.
        for rule in (
            "fifo",
            "exactly-once",
            "phantom-delivery",
            "message-loss",
            "recv-after-send",
            "barrier-coherence",
            "busy-overlap",
            "value-parity",
            "message-count",
        ):
            assert rule in EXACT_CLAUSES
            assert rule not in TIMING_CLAUSES

    def test_wall_clock_clauses_are_banded(self):
        for rule in (
            "send-gap",
            "overhead",
            "latency-bound",
            "makespan-band",
            "recv-after-send-wall",
        ):
            assert rule in TIMING_CLAUSES

    def test_env_knob_parses_and_refuses_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_SLACK", "2.5")
        assert live_slack() == 2.5
        monkeypatch.setenv("REPRO_LIVE_SLACK", "0")
        with pytest.raises(ValueError):
            live_slack()
        monkeypatch.delenv("REPRO_LIVE_SLACK")
        assert live_slack() > 0


# ----------------------------------------------------------------------
# 2. Doctored logs: each exact clause fires on the defect it names.
# ----------------------------------------------------------------------


def _mk_result(rank0_events, rank1_events, killed=()):
    return LiveResult(
        P=2,
        config=_CFG,
        makespan=100.0,
        results=[ProgramResult(rank=0), ProgramResult(rank=1)],
        rank_events=[list(rank0_events), list(rank1_events)],
        exitcodes=[0, 0],
        killed=list(killed),
    )


def _send_pair(seq, t, clock):
    """A send_commit/wire_out pair at rank 0 for message seq -> rank 1."""
    return [
        LiveEvent(t, 0, "send_commit", clock, peer=1, seq=seq),
        LiveEvent(t + 1.0, 0, "wire_out", clock + 1, peer=1, seq=seq),
    ]


def _delivery(seq, t, clock):
    return LiveEvent(t, 1, "delivery", clock, peer=0, seq=seq)


def _rules(result):
    return {v.rule for v in validate_live(result, _FITTED).exact_violations}


class TestDoctoredLogs:
    def test_clean_log_has_no_exact_violations(self):
        r = _mk_result(
            _send_pair(0, 1.0, 1) + _send_pair(1, 10.0, 3),
            [_delivery(0, 5.0, 10), _delivery(1, 14.0, 12)],
        )
        assert _rules(r) == set()

    def test_duplicate_delivery_fires_exactly_once(self):
        r = _mk_result(
            _send_pair(0, 1.0, 1),
            [_delivery(0, 5.0, 10), _delivery(0, 6.0, 11)],
        )
        assert "exactly-once" in _rules(r)

    def test_reordered_delivery_fires_fifo(self):
        r = _mk_result(
            _send_pair(0, 1.0, 1) + _send_pair(1, 2.5, 3),
            [_delivery(1, 6.0, 10), _delivery(0, 7.0, 11)],
        )
        assert "fifo" in _rules(r)

    def test_unsent_delivery_fires_phantom(self):
        r = _mk_result([], [_delivery(0, 5.0, 10)])
        assert "phantom-delivery" in _rules(r)

    def test_killed_sender_is_exempt_from_phantom(self):
        r = _mk_result([], [_delivery(0, 5.0, 10)], killed=[0])
        assert "phantom-delivery" not in _rules(r)

    def test_undelivered_wire_message_fires_message_loss(self):
        r = _mk_result(_send_pair(0, 1.0, 1), [])
        assert "message-loss" in _rules(r)

    def test_causality_inversion_fires_recv_after_send(self):
        # Delivery's Lamport clock at or below the send commit's.
        r = _mk_result(
            _send_pair(0, 1.0, 5),
            [_delivery(0, 5.0, 4)],
        )
        assert "recv-after-send" in _rules(r)

    def test_early_barrier_exit_fires_barrier_coherence(self):
        def cross(rank, enter_t, exit_t, clock):
            return [
                LiveEvent(enter_t, rank, "barrier_enter", clock, seq=0),
                LiveEvent(exit_t, rank, "barrier_exit", clock + 1, seq=0),
            ]

        # Rank 0 exits at t=2 while rank 1 only enters at t=8.
        r = _mk_result(cross(0, 1.0, 2.0, 1), cross(1, 8.0, 9.0, 1))
        assert "barrier-coherence" in _rules(r)

    def test_mismatched_barrier_sequences_fire(self):
        r = _mk_result(
            [
                LiveEvent(1.0, 0, "barrier_enter", 1, seq=0),
                LiveEvent(2.0, 0, "barrier_exit", 2, seq=0),
            ],
            [],
        )
        assert "barrier-coherence" in _rules(r)


# ----------------------------------------------------------------------
# 3. Real runs: processes, sockets, signals.
# ----------------------------------------------------------------------


class TestLiveRuns:
    def test_stream_on_two_ranks_delivers_everything(self):
        r = run_live(family_program("stream", {"k": 4}), 2, config=_CFG)
        assert r.exitcodes == [0, 0]
        assert r.total_messages == 4
        msgs = r.messages()
        assert [m.seq for m in msgs] == [0, 1, 2, 3]
        assert all(
            m.delivery is not None and m.recv_return is not None for m in msgs
        )
        v = validate_live(
            r, _FITTED, programs=family_program("stream", {"k": 4})
        )
        assert v.exact_ok, v.summary()

    def test_bcast_tree_matches_simulator_values_exactly(self):
        marker = family_program("bcast_tree", {"k": 4})
        r = run_live(marker, 4, config=_CFG)
        v = validate_live(r, _FITTED, programs=marker)
        assert v.exact_ok, v.summary()
        # The differential clause ran (values + message counts compared
        # against a simulator replay) and the payloads came through.
        assert r.value(1) == list(range(4))
        assert v.predicted_makespan is not None

    def test_flood_exact_clauses_hold(self):
        marker = family_program("flood", {"k": 3})
        r = run_live(marker, 3, config=_CFG)
        v = validate_live(r, _FITTED, programs=marker)
        assert v.exact_ok, v.summary()
        assert r.total_messages == 6

    def test_barriers_are_coherent_and_values_return(self):
        r = run_live(_BarrierProgram(), 3, config=_CFG)
        assert r.values() == [0, 1, 2]
        v = validate_live(r, _FITTED)
        assert v.exact_ok, v.summary()
        for rank in range(3):
            barriers = [
                e.seq
                for e in r.rank_events[rank]
                if e.kind == "barrier_enter"
            ]
            assert barriers == [0, 1]

    def test_recv_timeout_and_poll_contracts(self):
        r = run_live(_TimeoutPollProgram(), 2, config=_CFG)
        got, pending, monotone = r.value(0)
        assert got is None  # bounded Recv on silence returns None
        assert pending == 0
        assert monotone
        kinds = {e.kind for e in r.rank_events[0]}
        assert "recv_timeout" in kinds and "poll" in kinds

    def test_checkpoint_and_restore_run_and_are_logged(self):
        r = run_live(_CheckpointProgram(), 2, config=_CFG)
        assert r.exitcodes == [0, 0]
        assert r.values() == [(("saved", 0), 0), (("saved", 1), 0)]
        for rank in range(2):
            kinds = [e.kind for e in r.rank_events[rank]]
            assert kinds.count("checkpoint") == 1

    def test_unpicklable_program_refuses_loudly(self):
        captured = []

        def closure_factory(rank, P):  # a closure: not picklable
            captured.append(rank)
            return iter(())

        with pytest.raises(TypeError, match="picklable"):
            run_live(closure_factory, 2, config=_CFG)

    def test_unknown_family_refuses_in_parent(self):
        with pytest.raises(KeyError, match="unknown program family"):
            family_program("nope")

    def test_bad_family_args_refuse_before_any_fork(self, monkeypatch):
        import multiprocessing.process

        def no_start(self):
            raise AssertionError(f"process {self.name} started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
        with pytest.raises(ValueError, match="k must be an int >= 1, got 0"):
            run_live(family_program("stream", {"k": 0}), 2, config=_CFG)

    def test_program_build_failure_is_refused_before_go(self):
        # Rank 0 would wait forever for rank 1: only a refusal before
        # any rank starts names rank 1 instead of running to a deadline.
        with pytest.raises(
            LiveRunError, match="live rank 1 failed before the run started"
        ) as info:
            run_live(
                _BuildFailsOnRank1(), 2, config=LiveConfig(deadline_s=10.0)
            )
        assert "no program for rank 1" in str(info.value)

    def test_finished_run_keeps_a_small_record(self):
        programs = family_program("stream", {"k": 8})
        run_live(programs, 2, config=_CFG)  # warm lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_live(programs, 2, config=_CFG)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.total_messages == 8
        assert kept < 4096, f"a finished run keeps {kept} bytes"


class TestCalibration:
    def test_probe_programs_pickle(self):
        from repro.machines.fit import (
            _CapacityProbe,
            _GapProbe,
            _OverheadProbe,
            _RoundTripProbe,
        )

        for probe in (
            _OverheadProbe(),
            _RoundTripProbe(2),
            _GapProbe(4),
            _CapacityProbe(2, 3, 1.0, 10.0),
        ):
            assert pickle.loads(pickle.dumps(probe)) is not None

    def test_fit_live_returns_positive_parameters(self):
        fitted = fit_live(3, _CFG, trials=1, measure_depth=False)
        assert fitted.o > 0
        assert fitted.round_trip > 0
        assert fitted.effective_g > 0
        params = fitted.as_params(4)
        assert params.L >= 0  # clamped even if the RTT decomposition dips
        assert params.P == 4

    def test_fit_needs_three_ranks(self):
        with pytest.raises(ValueError, match="P >= 3"):
            fit_live(2, _CFG)


class TestChaos:
    def test_sigkilled_rank_is_detected_by_heartbeat(self):
        outcome = run_chaos(3, config=_CFG)
        assert outcome.sigkilled, (
            f"victim exitcode {outcome.result.exitcodes[outcome.victim]}"
        )
        assert outcome.detected_by_all, (
            f"survivor suspect sets {outcome.suspects_by_rank}"
        )
        # Detection is by *timeout*, so it cannot precede the kill.
        for rank, t in outcome.detection_times.items():
            assert t > outcome.kill_at, (
                f"rank {rank} suspected the victim at {t}, before the "
                f"kill at {outcome.kill_at}"
            )
        # Survivors finish normally despite the corpse.
        for rank in range(3):
            if rank != outcome.victim:
                assert outcome.result.exitcodes[rank] == 0


class TestHostFingerprint:
    def test_fingerprint_identifies_the_host(self):
        from repro.hostinfo import host_fingerprint

        fp = host_fingerprint()
        assert fp["cpu_count"] == os.cpu_count()
        assert fp["python"].count(".") == 2
        assert fp["platform"]

    def test_bench_report_embeds_host(self):
        from repro.bench import run_all

        report = run_all(smoke=True, reps=1, only="engine")
        assert report["host"]["cpu_count"] == os.cpu_count()
        assert report["host"]["python"] == report["python"]


def test_sigkill_constant_matches_exitcode_convention():
    # multiprocessing reports a SIGKILLed child as -SIGKILL; the chaos
    # assertions rely on that convention.
    assert -signal.SIGKILL == -9
