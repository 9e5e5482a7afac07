"""Kernel-backend selection for lowered kernels.

Every lowered kernel has two executable forms, both emitted from the
same :class:`repro.sim.ir.KernelIR`:

``interp``
    Python source emitted by :mod:`repro.sim.pykernel` and exec'd —
    always available, the reference semantics and the fallback,
``c``
    whole-kernel C emitted by :mod:`repro.sim.ckernel` and built through
    the :mod:`repro.sim._native` machinery — the fast path.

Selection is process-global: ``REPRO_KERNEL_BACKEND`` picks
``auto``/``c``/``interp`` (default ``auto`` = ``c`` when the
toolchain and native value helpers are available, else ``interp``), and
:func:`set_kernel_backend` / :func:`use_kernel_backend` override it in
process (the campaign engines apply ``CampaignConfig.kernel_backend``
through this).  Like the ``REPRO_NATIVE_VALUES`` loader, an explicit
request that cannot be honoured never silently changes semantics — it
warns once and records the reason, visible via
:func:`kernel_backend_info`.

C kernel objects build in one of two tiers, which differ only in the
``-O`` level, never in a result bit: ``full`` (``-Og``) by default, and
``quick`` (``-O0``) inside :func:`quick_kernel_builds`, for one-shot
programs such as reducer candidates, which would pay more for an
optimized build than they save in their few runs.  The tier is a
context variable, so a reduction on one thread leaves another thread's
campaign builds alone.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar

BACKENDS = ("auto", "c", "interp")

#: process-level override (set_kernel_backend); None → environment
_OVERRIDE: str | None = None

#: resolution record for introspection; reset on every re-resolution
_INFO: dict = {
    "requested": None,
    "active": None,
    "reason": "not resolved yet",
}

#: cached toolchain probe (compiler lookup + cache-dir stat don't change
#: mid-process; the env/override *can*, so those are re-read every call)
_C_AVAIL: tuple[bool, str] | None = None

_warned: set = set()


def _c_available() -> tuple[bool, str]:
    """The C kernel backend needs the same things as the native value
    helpers (compiler + trusted cache dir) *plus* the helpers themselves
    active, since bit-exactness of libm/fma between the compiled kernel
    and the interpreted reference is only battery-verified through
    them."""
    global _C_AVAIL
    if _C_AVAIL is not None:
        return _C_AVAIL
    from . import _native, values

    if not values.native_values_active():
        info = values.native_values_info()
        _C_AVAIL = (False,
                    f"native value helpers inactive ({info['reason']})")
    elif _native._find_cc() is None:
        _C_AVAIL = (False, "no C compiler found (CC/cc/gcc/clang)")
    elif not _native._cache_dir_trusted(_native._cache_dir()):
        _C_AVAIL = (False, f"untrusted cache dir {_native._cache_dir()}")
    else:
        _C_AVAIL = (True, "toolchain and native value helpers available")
    return _C_AVAIL


def _resolve() -> str:
    requested = _OVERRIDE
    if requested is None:
        requested = os.environ.get("REPRO_KERNEL_BACKEND", "auto")
    requested = requested.lower()
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}; "
            f"expected one of {', '.join(BACKENDS)}")
    _INFO["requested"] = requested
    if requested == "interp":
        _INFO["active"] = requested
        _INFO["reason"] = "explicitly selected"
        return requested
    ok, why = _c_available()
    if ok:
        _INFO["active"] = "c"
        _INFO["reason"] = ("auto-selected compiled backend"
                           if requested == "auto" else "explicitly selected")
        return "c"
    # c requested (directly or via auto) but unavailable → interp, with
    # a one-time warning only for the explicit request
    _INFO["active"] = "interp"
    _INFO["reason"] = f"c backend unavailable: {why}"
    if requested == "c" and why not in _warned:
        _warned.add(why)
        warnings.warn(
            f"REPRO_KERNEL_BACKEND=c requested but unavailable, "
            f"falling back to interpreted kernels: {why}",
            RuntimeWarning, stacklevel=3)
    return "interp"


def active_kernel_backend() -> str:
    """The backend ``LoweredKernel.bind()`` uses right now — one of
    ``c`` or ``interp`` (``auto`` is resolved, never returned)."""
    return _resolve()


def kernel_backend_info() -> dict:
    """``requested``/``active``/``reason`` for the current selection."""
    active_kernel_backend()
    return dict(_INFO)


def set_kernel_backend(backend: str | None) -> None:
    """Process-global override; ``None`` restores environment control.

    Validates eagerly so a typo in ``CampaignConfig.kernel_backend``
    fails at configuration time, not mid-campaign.
    """
    global _OVERRIDE
    if backend is not None and backend.lower() not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; "
            f"expected one of {', '.join(BACKENDS)}")
    _OVERRIDE = None if backend is None else backend.lower()


@contextmanager
def use_kernel_backend(backend: str | None):
    """Temporarily select a kernel backend (tests, benchmarks)."""
    global _OVERRIDE
    prev = _OVERRIDE
    set_kernel_backend(backend)
    try:
        yield
    finally:
        _OVERRIDE = prev


#: the build tier of C kernel objects first bound in this context
_BUILD_TIER: ContextVar[str] = ContextVar("repro_kernel_build_tier",
                                          default="full")


def kernel_build_tier() -> str:
    """``quick`` inside :func:`quick_kernel_builds`, else ``full``."""
    return _BUILD_TIER.get()


@contextmanager
def quick_kernel_builds():
    """Build the C kernel objects first bound inside at ``-O0``: for
    one-shot programs, such as the candidates a reducer tries.  A
    program keeps the object its first bind loaded, whatever tier built
    it; on disk the two tiers never share a file."""
    token = _BUILD_TIER.set("quick")
    try:
        yield
    finally:
        _BUILD_TIER.reset(token)
