"""``python -m repro.live`` — run, fit, validate, and chaos-test the
live backend from the command line.

Modes (combinable):

* default           — run each requested family on real ranks, print
                      makespans and values;
* ``--validate``    — additionally fit ``(L, o, g)`` to the host and
                      differentially validate every family run against
                      a simulator replay at the fitted parameters;
* ``--chaos``       — SIGKILL a rank mid-run and require every
                      survivor's heartbeat detector to suspect exactly
                      the victim.

Exit status is nonzero only on *exact*-clause violations (ordering,
delivery, value parity) or a failed chaos detection — wall-clock timing
deviations print as warnings, scaled by ``REPRO_LIVE_SLACK``
(see :mod:`repro.live.validate_live`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from ..hostinfo import host_fingerprint
from .calibrate import fit_live
from .coordinator import family_program, run_chaos, run_live
from .transport import LiveConfig
from .validate_live import live_slack, validate_live

_DEFAULT_FAMILIES = ["stream", "flood", "bcast_tree"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Run LogP programs on real processes over localhost TCP.",
    )
    parser.add_argument(
        "--ranks", type=int, default=4, help="number of rank processes (default 4)"
    )
    parser.add_argument(
        "--families",
        nargs="+",
        default=_DEFAULT_FAMILIES,
        help=f"registry program families to run (default {_DEFAULT_FAMILIES})",
    )
    parser.add_argument(
        "--k", type=int, default=8, help="per-family message count (default 8)"
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="fit (L, o, g) to the host and differentially validate each run",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="SIGKILL a rank mid-run; require heartbeat detection",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write a JSON report to PATH"
    )
    parser.add_argument(
        "--cycle-ns",
        type=float,
        default=20_000.0,
        help="wall-clock nanoseconds per cycle (default 20000 = 20us)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="wall-clock seconds before a run is killed (default 60)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=None,
        help="override REPRO_LIVE_SLACK for timing tolerances",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3,
        help="calibration trials per probe (min kept; default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed passed to family builders"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.ranks < 2:
        print("live runs need --ranks >= 2", file=sys.stderr)
        return 2
    config = LiveConfig(cycle_ns=args.cycle_ns, deadline_s=args.deadline)
    slack = args.slack if args.slack is not None else live_slack()
    report: dict = {
        "host": host_fingerprint(),
        "ranks": args.ranks,
        "cycle_ns": args.cycle_ns,
        "slack": slack,
        "families": {},
    }
    failures = 0

    fitted = None
    if args.validate:
        fit_P = 3  # the probe set needs exactly 2 senders + 1 receiver
        print(f"fitting (L, o, g) to this host ({fit_P} ranks, "
              f"{args.trials} trials per probe) ...")
        fitted = fit_live(
            fit_P, config, trials=args.trials, measure_depth=True, max_depth=6
        )
        print(
            f"  fitted: o={fitted.o:.3f} L={fitted.L:.3f} "
            f"g={fitted.effective_g:.3f} cycles "
            f"(rtt={fitted.round_trip:.3f}, depth={fitted.pipeline_depth})"
        )
        report["fitted"] = {
            "o": fitted.o,
            "L": fitted.L,
            "effective_g": fitted.effective_g,
            "round_trip": fitted.round_trip,
            "pipeline_depth": fitted.pipeline_depth,
        }

    for name in args.families:
        programs = family_program(name, {"k": args.k}, args.seed)
        print(f"running {name!r} (k={args.k}) on {args.ranks} ranks ...")
        result = run_live(programs, args.ranks, config=config)
        entry: dict = {
            "makespan": result.makespan,
            "messages": result.total_messages,
            "values": [repr(v) for v in result.values()],
        }
        print(
            f"  makespan {result.makespan:.1f} cycles, "
            f"{result.total_messages} messages"
        )
        if args.validate and fitted is not None:
            validation = validate_live(
                result, fitted, programs=programs, slack=slack
            )
            entry["validation"] = validation.as_dict()
            status = "PASS" if validation.exact_ok else "FAIL"
            print(f"  exact clauses: {status}", end="")
            if validation.predicted_makespan is not None:
                print(
                    f"; predicted {validation.predicted_makespan:.1f} vs "
                    f"measured {validation.measured_makespan:.1f} cycles",
                    end="",
                )
            print()
            for v in validation.exact_violations:
                failures += 1
                print(f"  EXACT VIOLATION: {v}", file=sys.stderr)
            for v in validation.timing_violations:
                print(f"  timing (warning): {v}")
        report["families"][name] = entry

    if args.chaos:
        print(f"chaos: SIGKILL one of {args.ranks} ranks mid-run ...")
        outcome = run_chaos(args.ranks, config=config)
        detected = outcome.detected_by_all and outcome.sigkilled
        report["chaos"] = {
            "victim": outcome.victim,
            "kill_at": outcome.kill_at,
            "exitcode": outcome.result.exitcodes[outcome.victim],
            "suspects_by_rank": {
                str(r): s for r, s in outcome.suspects_by_rank.items()
            },
            "detection_times": {
                str(r): t for r, t in outcome.detection_times.items()
            },
            "detected": detected,
        }
        sig = outcome.result.exitcodes[outcome.victim]
        print(
            f"  victim rank {outcome.victim} exitcode {sig} "
            f"(SIGKILL={-signal.SIGKILL}); survivor suspect sets: "
            f"{outcome.suspects_by_rank}"
        )
        if detected:
            print("  chaos detection: PASS")
        else:
            failures += 1
            print("  chaos detection: FAIL", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")

    if failures:
        print(f"{failures} exact failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
