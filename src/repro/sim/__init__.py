"""Discrete-event simulator of a LogP machine.

Build a :class:`LogPMachine` from :class:`~repro.core.params.LogPParams`,
hand it one generator program per processor (see :mod:`repro.sim.program`)
and run.  The simulator enforces every clause of the model — overhead,
send/receive gaps, the latency bound, and the ``ceil(L/g)`` capacity
constraint with sender stalling — and returns both the programs' return
values (real data flows through messages) and a full activity trace.
"""

from .collectives import (
    all_reduce,
    all_to_all,
    exchange,
    binomial_broadcast,
    binomial_children,
    binomial_parent,
    binomial_reduce,
    group_broadcast,
    hardware_barrier,
    prefix_scan,
    software_barrier,
    tree_broadcast,
    tree_reduce,
)
from .dsm import (
    AwaitPrefetch,
    DSMResult,
    Fence,
    Prefetch,
    Read,
    Write,
    block_owner,
    run_dsm,
)
from .engine import Engine, SimulationError
from .faults import (
    BudgetedRetry,
    CrashRecover,
    CrashStop,
    ExponentialBackoffRetry,
    FaultPlan,
    FixedRetry,
    HeartbeatConfig,
    RetryPolicy,
    Slowdown,
    random_fault_plan,
)
from .latency import FixedLatency, JitteredLatency, LatencyModel, UniformLatency
from .machine import LogPMachine, MachineResult, run_programs
from .net import (
    ContentionFabric,
    Fabric,
    FabricReport,
    FaultyFabric,
    LatencyFabric,
    LossyOutcome,
    TopologyFabric,
)
from .program import (
    Barrier,
    Checkpoint,
    Compute,
    Now,
    Poll,
    ProgramResult,
    ReceivedMessage,
    Recv,
    Restore,
    RestoreInfo,
    Send,
    Sleep,
    Suspects,
)
from .supervise import (
    PoisonItemError,
    SupervisedPool,
    SweepDeadlineError,
    WorkerRestartStorm,
)
from .sweep import resolve_workers, sweep_map
from .trace import (
    CrashEvent,
    FaultReport,
    MessageStats,
    NetStallEvent,
    RecoverEvent,
    StallEvent,
    StallReport,
    SuspectEvent,
    UtilizationBreakdown,
    WakeupEvent,
    communication_rate,
    message_stats,
    receive_histogram,
    stall_report,
    utilization,
)
from .validate import ValidationReport, Violation, validate_schedule

# The fuzz and chaos harnesses are exported lazily: both are also
# ``python -m`` entry points, and an eager import here would shadow
# that runpy execution with a spurious sys.modules warning.
_FUZZ_EXPORTS = (
    "CaseOutcome",
    "FuzzCase",
    "FuzzSummary",
    "fuzz_sweep",
    "make_case",
    "run_case",
)

_CHAOS_EXPORTS = (
    "ChaosOutcome",
    "ChaosSummary",
    "chaos_sweep",
    "check_case_under_faults",
    "run_chaos_case",
)


def __getattr__(name: str):
    if name in _FUZZ_EXPORTS:
        from . import fuzz

        return getattr(fuzz, name)
    if name in _CHAOS_EXPORTS:
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Engine",
    "SimulationError",
    "LogPMachine",
    "MachineResult",
    "run_programs",
    "Send",
    "Recv",
    "Compute",
    "Sleep",
    "Now",
    "Poll",
    "Barrier",
    "ReceivedMessage",
    "ProgramResult",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "JitteredLatency",
    "binomial_parent",
    "binomial_children",
    "binomial_broadcast",
    "binomial_reduce",
    "tree_broadcast",
    "tree_reduce",
    "software_barrier",
    "hardware_barrier",
    "all_to_all",
    "all_reduce",
    "exchange",
    "Read",
    "Write",
    "Prefetch",
    "AwaitPrefetch",
    "Fence",
    "DSMResult",
    "run_dsm",
    "block_owner",
    "group_broadcast",
    "prefix_scan",
    "utilization",
    "UtilizationBreakdown",
    "message_stats",
    "MessageStats",
    "communication_rate",
    "receive_histogram",
    "StallEvent",
    "WakeupEvent",
    "NetStallEvent",
    "StallReport",
    "stall_report",
    "Fabric",
    "FabricReport",
    "LatencyFabric",
    "TopologyFabric",
    "ContentionFabric",
    "FaultyFabric",
    "LossyOutcome",
    "sweep_map",
    "resolve_workers",
    "SupervisedPool",
    "PoisonItemError",
    "SweepDeadlineError",
    "WorkerRestartStorm",
    "validate_schedule",
    "ValidationReport",
    "Violation",
    "FuzzCase",
    "CaseOutcome",
    "FuzzSummary",
    "make_case",
    "run_case",
    "fuzz_sweep",
    "CrashStop",
    "CrashRecover",
    "Slowdown",
    "FaultPlan",
    "random_fault_plan",
    "HeartbeatConfig",
    "RetryPolicy",
    "FixedRetry",
    "ExponentialBackoffRetry",
    "BudgetedRetry",
    "Checkpoint",
    "Restore",
    "RestoreInfo",
    "Suspects",
    "CrashEvent",
    "RecoverEvent",
    "SuspectEvent",
    "FaultReport",
    "ChaosOutcome",
    "ChaosSummary",
    "chaos_sweep",
    "check_case_under_faults",
    "run_chaos_case",
]
