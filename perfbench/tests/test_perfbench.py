"""Self-tests of the benchmark.  Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import tracing  # noqa: E402
from perfbench.serve_load import check_served, expected_pairs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_pass_emits_every_metric(workload, trace, kind):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    for name, m in out["metrics"].items():
        assert f"{workload} {name} = " in proc.stdout
        if trace == 0:
            assert m["value"] > 0, name


def test_gate_accepts_exact_and_names_a_one_ulp_perturbation():
    spec = {
        "program": "bcast_tree",
        "points": [{"L": 6.0, "o": 1.0 + i / 4, "g": 4.0, "P": 8}
                   for i in range(4)],
        "args": {"k": 4},
        "backend": "auto",
    }
    served = [list(pair) for pair in expected_pairs(spec)]
    assert check_served("serve_cold", 7, spec, served) is None
    served[2][0] = math.nextafter(served[2][0], math.inf)
    msg = check_served("serve_cold", 7, spec, served)
    assert msg is not None
    assert "serve_cold" in msg and "request 7" in msg and "point 2" in msg


def test_every_wrapped_name_exists():
    for targets in (tracing.SERVE_TARGETS, tracing.GRID_TARGETS,
                    tracing.LIVE_TARGETS):
        for target in targets:
            tracing._resolve(target.path)


def test_a_missing_wrapped_name_stops_the_traced_run():
    tracer = tracing.Tracer()
    targets = [tracing.Target("repro.serve.server:fingerprint", "ok"),
               tracing.Target("repro.serve.server:no_such_name", "gone")]
    with pytest.raises(tracing.TraceTargetMissing,
                       match="repro.serve.server:no_such_name"):
        tracer.install(targets)
    import repro.serve.server as server

    assert not hasattr(server.fingerprint, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [
        # name, start, end, span id, parent id, request id, attrs
        ("server.submit", 0.0, 1.0, 1, None, 5, None),
        ("registry.fingerprint", 0.1, 0.4, 2, 1, 5, None),
        ("cache.get", 0.5, 0.6, 3, 1, 5, {"hit": 1}),
        ("cache.get", 5.0, 6.0, 4, None, None, {"hit": 1}),  # outside window
    ]
    m = tracing.layer_metrics(spans, (0.0, 2.0), 0.0)
    assert m["server.submit_ms"] == pytest.approx(600.0)
    assert m["registry.fingerprint_ms"] == pytest.approx(300.0)
    assert m["cache.get_ms"] == pytest.approx(100.0)
    assert m["cache.hit_ratio"] == 1.0
    assert m["trace.spans"] == 3


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", BENCH["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
