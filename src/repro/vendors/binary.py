"""The ``Binary`` artifact a simulated compiler produces (Fig. 1 step (b))."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from typing import TYPE_CHECKING

from ..core.nodes import Program
from ..core.types import FPType
from ..sim.values import f32, ftz_d, ftz_f
from .base import VendorModel

if TYPE_CHECKING:  # typing-only: avoids importing sim.lower eagerly
    from ..sim.lower import LoweredKernel


def _identity(x: float) -> float:
    return x


@dataclass
class Binary:
    """One compiled test: vendor-lowered executable plus latent state.

    ``P_i`` in the paper's notation — the product of compiling program
    ``P`` with compiler ``Comp_i``; running it with input ``I`` under the
    driver yields an execution record ``r_i``.
    """

    program: Program
    vendor: VendorModel
    opt_level: str
    fingerprint: str
    cpp_source: str
    kernel: LoweredKernel
    # deterministic latent-fault decisions (functions of fingerprint+vendor)
    crash_armed: bool = False
    hang_armed: bool = False
    slow_armed: bool = False
    fast_armed: bool = False

    @property
    def name(self) -> str:
        return f"{self.program.name}.{self.vendor.name}"

    @property
    def fp_type(self) -> FPType:
        return self.program.fp_type

    @cached_property
    def entry(self) -> Callable:
        """The bound Python callable for this binary's kernel."""
        return self.kernel.bind()

    def reset_entry(self) -> None:
        """Drop the cached :attr:`entry` binding so the next access
        re-binds under the *current* kernel backend.  Binaries cache
        their entry point per backend for speed; tests (and any driver
        that switches backends mid-process) call this instead of poking
        the ``cached_property`` slot out of ``__dict__`` by hand."""
        self.__dict__.pop("entry", None)

    @cached_property
    def wrap_fn(self) -> Callable[[float], float]:
        """Value post-processing the runtime applies to its own FP ops
        (reduction combines): binary32 rounding and/or FTZ."""
        fp32 = self.fp_type is FPType.FLOAT
        ftz = self.vendor.traits.flush_subnormals
        if fp32 and ftz:
            return lambda x: ftz_f(f32(x))
        if fp32:
            return f32
        if ftz:
            return ftz_d
        return _identity
