"""Deterministic execution substrate: interpreter, runtime, counters.

The simulated backend executes generated programs with exact IEEE
semantics on a virtual clock.  A vendor's "compiler" lowers the AST to a
typed register IR (:mod:`repro.sim.lower`, :mod:`repro.sim.ir`); its
"runtime" is a :class:`~repro.sim.runtime.RegionExecutor` cost model
the lowered code enters at region boundaries.  Two kernel backends
execute the same IR byte-identically: interpreted Python emitted by
:mod:`repro.sim.pykernel` (the reference) and compiled C emitted by
:mod:`repro.sim.ckernel` — see :mod:`repro.sim.backend` for selection
and :func:`backend_info` for what is active and why.
"""

from .backend import (active_kernel_backend, kernel_backend_info,
                      set_kernel_backend, use_kernel_backend)
from .counters import PerfCounters
from .events import ProfileRecorder
from .lower import CostState, LoweredKernel
from .runtime import RegionExecutor
from .values import (MATH_IMPLS, f32, fdiv, fma_d, fma_f, ftz_d, ftz_f,
                     native_values_active, native_values_info)


def backend_info() -> dict:
    """One dict answering "what is actually executing kernels, and why":
    the native value helpers' load record, the kernel-backend selection
    record, and the compiled-kernel build counters."""
    from . import ckernel

    return {
        "native_values": native_values_info(),
        "kernel_backend": kernel_backend_info(),
        "ckernel": ckernel.build_info(),
    }


__all__ = [
    "CostState",
    "LoweredKernel",
    "MATH_IMPLS",
    "PerfCounters",
    "ProfileRecorder",
    "RegionExecutor",
    "active_kernel_backend",
    "backend_info",
    "f32",
    "fdiv",
    "fma_d",
    "fma_f",
    "ftz_d",
    "ftz_f",
    "kernel_backend_info",
    "native_values_active",
    "native_values_info",
    "set_kernel_backend",
    "use_kernel_backend",
]
