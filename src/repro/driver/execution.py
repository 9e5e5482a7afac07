"""Execution driver (Fig. 1 step (c)) for simulated binaries.

"There is a driver that then runs all the binaries with their
corresponding inputs in the systems.  The driver checks the outputs of the
tests and whether there is a correctness issue with any test."

:func:`run_binary` is the simulated backends' ``execute``: a differential
test calls it once per implementation through
:mod:`repro.backends.registry`.  It builds the kernel argument
environment from a :class:`~repro.core.inputs.TestInput`, instantiates
the vendor's :class:`~repro.sim.runtime.RegionExecutor`, executes the
lowered kernel, and classifies the outcome:

* normal return → ``OK`` with the printed ``comp`` and virtual time,
* :class:`~repro.errors.SimulatedCrash` → ``CRASH`` (partial time),
* :class:`~repro.errors.SimulatedHang`, or a virtual time beyond the
  configured timeout → ``HANG`` (the paper SIGINTs after ~3 minutes).
"""

from __future__ import annotations

import gc
import threading

from ..config import MachineConfig
from ..core.inputs import TestInput
from ..errors import ExecutionError, SimulatedCrash, SimulatedHang
from ..rng import hash_fraction
from ..sim.counters import PerfCounters
from ..sim.events import ProfileRecorder
from ..sim.lower import CostState
from ..sim.runtime import RegionExecutor
from ..vendors.binary import Binary
from .records import RunRecord, RunStatus

#: baseline branch misprediction rate folded into the counters
_BASE_MISS_RATE = 0.004


class _GcPause:
    """Reference-counted pause of the cyclic collector.

    ``gc.disable()`` is process-global, and kernels can run on several
    threads of one process (:class:`~repro.fleet.chaos.ChaosWorkerFleet`
    runs its workers on threads): naive disable/enable pairs would flap —
    the first kernel to finish would re-enable collection under every
    sibling still executing.  Counting
    overlapping pauses keeps the collector off until the *last* kernel
    leaves, and only restores it if it was enabled when the first
    entered.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._reenable = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._reenable = gc.isenabled()
                if self._reenable:
                    gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._reenable:
                gc.enable()


_GC_PAUSE = _GcPause()


def build_args(binary: Binary, test_input: TestInput) -> dict[str, object]:
    """Kernel argument environment: scalars and per-run array images.

    Arrays are materialized as Python lists filled with the input's fill
    value — the same initialization the emitted ``main()`` performs — and
    the lowered kernel copies them, so a ``TestInput`` can be reused
    across binaries without cross-contamination.
    """
    args: dict[str, object] = {}
    for p in binary.program.params:
        try:
            v = test_input.values[p.name]
        except KeyError:
            raise ExecutionError(
                f"input {test_input.index} lacks a value for parameter "
                f"{p.name!r} of {binary.program.name}") from None
        if p.is_int:
            args[p.name] = int(v)
        elif p.is_array:
            args[p.name] = [float(v)] * p.array_size
        else:
            args[p.name] = float(v)
    return args


def _array_page_faults(binary: Binary) -> int:
    """First-touch page faults for the arrays main() allocates."""
    bytes_per = 4 if binary.fp_type.bits == 32 else 8
    total = sum(p.array_size * bytes_per for p in binary.program.array_params)
    return total // 4096 + 8 * len(binary.program.array_params)


def run_binary(binary: Binary, test_input: TestInput,
               machine: MachineConfig | None = None, *,
               collect_profile: bool = False) -> RunRecord:
    """Execute one binary with one input; never raises for test outcomes."""
    machine = machine if machine is not None else MachineConfig()
    cost = CostState()
    counters = PerfCounters()
    profile = ProfileRecorder(binary_name=binary.name)
    counters.page_faults += _array_page_faults(binary) + 60  # process start

    executor = RegionExecutor(
        binary.vendor,
        binary.kernel.structural.teams,
        cost,
        counters,
        profile,
        wrap_fn=binary.wrap_fn,
        crash_active=binary.crash_armed and test_input.extreme_count() >= 2,
        # livelocks are schedule-dependent: an armed binary hangs on some
        # inputs and squeaks through on others (the paper observed exactly
        # one hanging run among the binary's executions)
        hang_active=binary.hang_armed and hash_fraction(
            "hang-input", binary.fingerprint, test_input.index,
            mode="compat") < 0.4,
        slow_armed=binary.slow_armed,
        fingerprint=binary.fingerprint,
    )

    args = build_args(binary, test_input)
    status = RunStatus.OK
    comp: float | None = None
    detail = ""
    thread_states: dict[str, list[int]] | None = None
    # kernels allocate no reference cycles, only floats and flat lists:
    # pausing the cyclic collector for the interpretation hot loop is
    # observable-behaviour-neutral and saves its allocation-count sweeps
    try:
        with _GC_PAUSE:
            comp = binary.entry(args, executor, cost)
    except SimulatedCrash as exc:
        status = RunStatus.CRASH
        detail = str(exc)
    except SimulatedHang as exc:
        status = RunStatus.HANG
        detail = "stopped by SIGINT after timeout (livelock in critical)"
        thread_states = exc.thread_states

    time_us = cost.cy / machine.cycles_per_us
    if status is RunStatus.HANG or time_us > machine.timeout_us:
        if status is RunStatus.OK:
            status = RunStatus.HANG
            detail = "exceeded virtual timeout"
            comp = None
        time_us = machine.timeout_us

    # serial compute shows up under the test binary's own symbol
    serial_cycles = max(0.0, cost.cy - executor.region_cycles_total)
    profile.charge(binary.name, binary.vendor.symbols.serial_compute,
                   serial_cycles)

    counters.cycles = int(cost.cy)
    counters.instructions = int(cost.ins)
    counters.branches = int(cost.br)
    counters.branch_misses += int(cost.br * _BASE_MISS_RATE)

    return RunRecord(
        program_name=binary.program.name,
        vendor=binary.vendor.name,
        input_index=test_input.index,
        status=status,
        comp=comp,
        time_us=time_us,
        counters=counters,
        profile=profile if collect_profile else None,
        detail=detail,
        thread_states=thread_states,
    )
