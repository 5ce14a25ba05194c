"""``python -m repro.bench``: the commands CI runs, and the degraded
serving workload."""

from __future__ import annotations

import math
import pathlib
import re
import shlex

from repro import bench

CI = pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


def _ci_bench_commands() -> list[list[str]]:
    return [
        shlex.split(args)
        for args in re.findall(r"python -m repro\.bench\b(.*)", CI.read_text())
    ]


def test_ci_commands_parse(monkeypatch, tmp_path):
    # A flag CI passes but the parser no longer knows fails here, not in
    # a CI job; run_all is stubbed, so no workload runs.
    commands = _ci_bench_commands()
    assert len(commands) >= 4
    monkeypatch.chdir(tmp_path)
    calls = []

    def fake_run_all(**kwargs):
        calls.append(kwargs)
        t = {"n": kwargs["reps"], "min": 0.1, "median": 0.2, "max": 0.3}
        return {"date": "2026-01-01", "timings_s": {"stream_s": t}}

    monkeypatch.setattr(bench, "run_all", fake_run_all)
    for argv in commands:
        assert bench.main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out).exists(), argv
    assert len(calls) == len(commands)


def test_serve_degraded_smoke():
    # The workload raises on any result that differs from the serial
    # grid_map, so a report means parity held under the kills.
    report = bench.run_all(smoke=True, reps=1, only="serve_degraded")
    t = report["timings_s"]["serve_degraded_s"]
    assert t["n"] == 1
    requests = report["workloads"]["serve_degraded"]["requests"]
    [deaths] = report["serve_degraded_worker_deaths"]
    assert 1 <= deaths <= requests
    assert report["serve_degraded_requests_per_s"] == round(
        requests / t["median"], 1
    )


def test_tape_cost_reports_a_ratio_per_shape():
    report = bench.run_all(smoke=True, reps=1, only="tape_cost")
    ratios = report["tape_cost_ratios"]
    assert sorted(ratios) == [
        "bcast_osweep_p8", "fold_p2048", "fold_p64", "jitter_seeds_p8",
        "stream_p6",
    ]
    t = report["timings_s"]
    for shape, ratio in ratios.items():
        stem = f"tape_cost_{shape}"
        cost = t[stem + "_record_s"]["median"] + t[stem + "_replay_s"]["median"]
        assert ratio == round(cost / t[stem + "_scalar_s"]["median"], 2)


def test_shard_cost_reports_a_size_per_backend():
    # The pool is built inside the entry, so it forks even under CI's
    # REPRO_SWEEP_WORKERS=1.
    report = bench.run_all(smoke=True, reps=1, only="shard_cost")
    sc = report["shard_cost"]
    shapes = ["bcast_p16", "bcast_p4", "bcast_p8", "flood_k12", "flood_k4"]
    assert sorted(sc["r_ms"]) == sorted(sc["c_us"]) == shapes
    t = report["timings_s"]
    r_ms, c_us = {}, {}
    for shape in shapes:
        stem = f"shard_cost_{shape}"
        sizes = (1, 32, 256) if shape.startswith("bcast") else (1, 8)
        med = {m: t[f"{stem}_{m}_s"]["median"] for m in sizes}
        r_ms[shape] = (t[f"{stem}_pool_s"]["median"] - med[1]) * 1e3
        lo, hi = sizes[-2:]
        c_us[shape] = (med[hi] - med[lo]) / (hi - lo) * 1e6
        assert sc["r_ms"][shape] == round(r_ms[shape], 4)
        assert sc["c_us"][shape] == round(c_us[shape], 2)
    cheapest = min(shapes, key=lambda n: t[f"shard_cost_{n}_1_s"]["median"])
    for cls, prefix in (("compiled", "bcast"), ("machine", "flood")):
        c = min(v for n, v in c_us.items() if n.startswith(prefix))
        assert sc["shard_points"][cls] == math.ceil(r_ms[cheapest] * 1e3 / c)
