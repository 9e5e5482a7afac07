"""Test-execution driver (Fig. 1 step (c)) and the execution engines."""

from .engine import (
    ENGINE_NAMES,
    ExecutionEngine,
    ExecutionPlan,
    ProcessPoolEngine,
    SerialEngine,
    UnitOutcome,
    WorkUnit,
    create_engine,
    execute_unit,
    plan_units,
)
from .execution import build_args, run_binary
from .records import RunRecord, RunStatus, values_equal

__all__ = [
    "ENGINE_NAMES",
    "ExecutionEngine",
    "ExecutionPlan",
    "ProcessPoolEngine",
    "RunRecord",
    "RunStatus",
    "SerialEngine",
    "UnitOutcome",
    "WorkUnit",
    "build_args",
    "create_engine",
    "execute_unit",
    "plan_units",
    "run_binary",
    "values_equal",
]
