"""``python -m repro.serve`` with the benchmark's span wrappers installed.

Usage: ``python -m perfbench.traced_server --spans-out FILE <serve args>``.
The wrappers go in before the server module runs, the server runs
exactly as ``python -m repro.serve <serve args>`` would, and when it
exits (SIGINT) every span it recorded is written to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys

from perfbench import tracing


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.traced_server")
    parser.add_argument("--spans-out", required=True)
    args, serve_argv = parser.parse_known_args()
    tracer = tracing.Tracer()
    tracer.install(tracing.SERVE_TARGETS)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_argv)
    finally:
        tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
