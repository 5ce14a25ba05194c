"""Process, timing and statistics helpers shared by the workloads."""

from __future__ import annotations

import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Temporary space (cache dirs, span dumps); removed at the end of a run.
TMP = os.path.join(ROOT, ".perfbench_tmp")

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPS = 5


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong result)."""


@dataclass
class Outcome:
    """One run of one workload, before it is printed."""

    e2e: dict
    #: Per-layer metrics; None unless the run was traced.
    layers: dict | None
    attempted: int
    failed: int
    errors: list
    detail: dict


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    The program comes from ``src/`` of this checkout and nowhere else;
    temporary files stay inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["TMPDIR"] = TMP
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start ``python argv`` in a new process group (so it can be killed
    together with any pool workers it forks)."""
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
        **kwargs,
    )


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT,
         timeout: float = 30.0) -> int:
    """Signal ``proc``; kill its whole process group if it outlives ``timeout``."""
    if proc.poll() is None:
        try:
            proc.send_signal(sig)
        except ProcessLookupError:
            pass
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return proc.wait(timeout=10.0)


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def read_line(stream, timeout: float) -> bytes:
    """One line from a child's pipe, or ``b""`` on EOF or timeout."""
    sel = selectors.DefaultSelector()
    sel.register(stream, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            return b""
        return stream.readline()
    finally:
        sel.close()


def run_child(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run a workload child to completion; return (launch time, report).

    The child prints its report as the last line of standard output.
    """
    t_launch = time.monotonic()
    proc = spawn(argv, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.communicate()
        raise BenchError(f"{' '.join(argv)} ran past {timeout:.0f}s")
    finally:
        kill_group(proc)  # pool workers or ranks it may have left behind
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(argv)} exited with {proc.returncode}"
        )
    return t_launch, json.loads(lines[-1])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (``statistics.quantiles``, n=10)."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def best_decile(values, higher_is_better: bool) -> float:
    """The decile of per-segment values on the good side: the 90th
    percentile of rates, the 10th of latencies.

    The host's slow spells only ever make a segment worse, and even a
    long spell leaves short calm gaps, so this is what the program does
    when the host leaves it alone, as long as a tenth of a run's
    segments fall outside the spells.
    """
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[8] if higher_is_better else deciles[0]


def host_ref_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop.

    A yardstick for how fast the host ran around a run (its speed drifts
    on shared machines); reported in the detail line, never as a metric.
    """
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
