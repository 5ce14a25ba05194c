"""Run one benchmark workload once and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Workloads: ``serve_hot``, ``serve_cold``, ``grid_sweep``, ``live_run``
(see README.md in this directory).  With ``--trace 0`` the last line of
standard output is a JSON object whose ``metrics`` are the end-to-end
metrics; with ``--trace 1`` the workload runs with span wrappers
installed and ``metrics`` are the per-layer ones.  Earlier lines give a
readable summary and a ``detail`` object (set-up repetitions, generator
lateness, the server's own counters).  Exit status: 0 when every
operation succeeded and every checked output was correct, 1 when the
run measured but found failures, 2 when it could not measure at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[0] = ROOT

from perfbench import tracing  # noqa: E402
from perfbench.common import (  # noqa: E402
    SETUP_REPS,
    TMP,
    BenchError,
    Outcome,
    best_decile,
    host_ref_ms,
    metric,
    p50_p90,
    run_child,
)

WORKLOADS = ("serve_hot", "serve_cold", "grid_sweep", "live_run")

#: End-to-end metrics, reported on every workload (README.md says what
#: each one counts on each workload).
END_TO_END = [
    ("setup_s", "s"),
    ("rps", "1/s"),
    ("points_per_s", "points/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_CHILD = {"grid_sweep": "perfbench.grid_study", "live_run": "perfbench.live_loop"}


def run_in_child(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool):
    """grid_sweep and live_run: a fresh process per set-up repetition;
    the last one goes on to the timed phase."""
    module = _CHILD[workload]
    base = ["-m", module, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        base.append("--tiny")
    reps = 1 if (trace or tiny) else SETUP_REPS
    setup = []
    for _ in range(reps - 1):
        t_launch, out = run_child([*base, "--mode", "setup"], timeout=120.0)
        setup.append(out["t_ready"] - t_launch)
    spans_path = None
    argv = [*base, "--mode", "run"]
    if trace:
        spans_path = os.path.join(TMP, f"spans-{uuid.uuid4().hex}.json")
        argv += ["--spans-out", spans_path]
    t_launch, out = run_child(argv, timeout=seconds + 120.0)
    setup.append(out["t_ready"] - t_launch)
    setup.sort()
    t0, t1 = out["window"]
    # The child splits its timed phase into segments (whole study passes
    # for grid_sweep, one for live_run).
    segs = out["segments"]
    rates = [s["ops"] / s["seconds"] for s in segs]
    point_rates = [s["points"] / s["seconds"] for s in segs]
    p50s, p90s = zip(*(p50_p90(s["latencies_ms"]) for s in segs))
    e2e = {
        "setup_s": setup[len(setup) // 2],
        "rps": best_decile(rates, higher_is_better=True),
        "points_per_s": best_decile(point_rates, higher_is_better=True),
        "p50_ms": best_decile(p50s, higher_is_better=False),
        "p90_ms": best_decile(p90s, higher_is_better=False),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    layers = None
    if spans_path is not None:
        dump = tracing.load(spans_path)
        os.remove(spans_path)
        layers = tracing.layer_metrics(
            dump["spans"], (t0, t1), dump["cost_per_span"]
        )
    detail = dict(out["detail"], setup_s_reps=setup,
                  samples=sum(len(s["latencies_ms"]) for s in segs),
                  rps=rates, p50_ms=p50s, p90_ms=p90s)
    return Outcome(e2e, layers, out["attempted"], out["failed"],
                   out["errors"], detail)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool):
    if workload in _CHILD:
        return run_in_child(workload, seed, seconds, trace, tiny)
    from perfbench import serve_load

    fn = {"serve_hot": serve_load.run_serve_hot,
          "serve_cold": serve_load.run_serve_cold}[workload]
    return fn(seed, seconds, trace, tiny)


def report(workload: str, outcome, trace: bool) -> dict:
    """Print one workload's metrics, failures and detail line; return
    its metrics."""
    if trace:
        values, units = outcome.layers, dict(tracing.PER_LAYER)
    else:
        values, units = outcome.e2e, dict(END_TO_END)
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    for err in outcome.errors[:20]:
        print(f"FAILED {err}")
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({"detail": outcome.detail}, default=str))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), required=True,
        help="one workload, or all of them in turn (metrics are then "
             "named workload.metric)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="small inputs and a single set-up (for the self-tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "serve", "__main__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    os.makedirs(TMP, exist_ok=True)
    try:
        for name in names:
            ref_before = host_ref_ms()
            outcome = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), args.tiny)
            outcome.detail["host_ref_ms"] = [ref_before, host_ref_ms()]
            got = report(name, outcome, bool(args.trace))
            if len(names) > 1:
                got = {f"{name}.{k}": v for k, v in got.items()}
            metrics.update(got)
            attempted += outcome.attempted
            failed += outcome.failed
    except (BenchError, tracing.TraceTargetMissing, OSError, ValueError,
            KeyError) as exc:
        traceback.print_exc()
        print(f"perfbench: {name} could not be measured: {exc}",
              file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(TMP)
        except OSError:
            pass

    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
