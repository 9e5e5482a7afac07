"""IEEE-754 value semantics for the simulated backend.

Python ``float`` *is* IEEE binary64, so double-precision programs evaluate
exactly as a C++ compiler without fast-math would evaluate them — with two
exceptions this module papers over:

* Python raises ``ZeroDivisionError`` where IEEE defines ``±inf`` / ``nan``
  (:func:`fdiv`),
* ``math.*`` raise ``ValueError`` / ``OverflowError`` on domain/range
  violations where C's ``<cmath>`` returns ``nan`` / ``±inf``
  (:data:`MATH_IMPLS`).

Single-precision programs round every intermediate to binary32 via
:func:`f32`; Intel's FTZ additionally flushes subnormal results
(:func:`ftz_d` / :func:`ftz_f`), and :func:`f32z` fuses the two
operations the binary32 Intel path chains on every expression.

Two interchangeable implementations back these helpers:

* the **pure-Python reference** (``_py_*`` names, always importable):
  ``ctypes.c_float`` round-trips for rounding, ``numpy.longdouble`` for
  the contracted FMA,
* an optional **compiled accelerator** (:mod:`repro.sim._native`): the
  same operations as single C calls, ~10-30x faster per call, verified
  bit-identical at load time and silently absent when no toolchain is
  available (or when ``REPRO_NATIVE_VALUES=0``).

Campaign verdicts are byte-identical either way — the equivalence is
enforced both by the loader's verification battery and by
``tests/test_sim_values.py``.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable

import numpy as _np

_c_float = ctypes.c_float
_longdouble = _np.longdouble

# inf/nan propagate through longdouble FMA exactly as IEEE wants; numpy's
# invalid-operation warnings are just noise for us


def silence_fp_warnings() -> None:
    """Apply the simulator's FP error state to the calling thread.

    ``numpy.seterr`` is thread-local: the module-level call below covers
    the importing thread only, so any other thread that executes
    lowered kernels must call this.
    """
    _np.seterr(invalid="ignore", over="ignore")


silence_fp_warnings()


def _py_f32(x: float) -> float:
    """Round a binary64 value to binary32 (overflow becomes ±inf)."""
    return _c_float(x).value


def _py_fdiv(a: float, b: float) -> float:
    """IEEE division: x/0 -> ±inf, 0/0 and nan operands -> nan."""
    if b != 0.0:
        return a / b
    if a != a or b != b:  # nan operand with a ±0 divisor is still nan
        return math.nan
    if a == 0.0:
        return math.nan
    # sign of the zero divisor matters: 1/-0.0 == -inf
    neg = math.copysign(1.0, a) * math.copysign(1.0, b) < 0
    return -math.inf if neg else math.inf


def _total(fn: Callable[[float], float]) -> Callable[[float], float]:
    """Wrap a math function so domain/range errors follow IEEE."""

    def wrapped(x: float) -> float:
        if x != x:
            return math.nan
        try:
            return fn(x)
        except ValueError:  # domain error, e.g. sqrt(-1), log(-3), sin(inf)
            return math.nan
        except OverflowError:  # range error, e.g. exp(1000)
            return math.inf

    return wrapped


def _log_ieee(x: float) -> float:
    if x == 0.0:
        return -math.inf  # C log(±0) is -inf; Python raises
    return math.log(x)


def _exp_ieee(x: float) -> float:
    if x == -math.inf:
        return 0.0
    return math.exp(x)


#: name -> IEEE-behaved unary implementation (mirrors repro.core.types.MATH_FUNCS)
MATH_IMPLS: dict[str, Callable[[float], float]] = {
    "sin": _total(math.sin),
    "cos": _total(math.cos),
    "tan": _total(math.tan),
    "exp": _total(_exp_ieee),
    "log": _total(_log_ieee),
    "sqrt": _total(math.sqrt),
    "fabs": _total(math.fabs),
    "tanh": _total(math.tanh),
    "atan": _total(math.atan),
}


def _py_fma_d(a: float, b: float, c: float) -> float:
    """Double-precision fused multiply-add: ``round(a*b + c)``.

    CPython 3.11 lacks ``math.fma``; x86-64 ``long double`` (80-bit, 64-bit
    mantissa) recovers most of the unrounded product, which is what a
    contracted FMA differs by.  The result is deterministic and — crucially
    for the differential-testing mechanism — *differs* from the two-rounding
    ``a*b + c`` in exactly the cases where real FMA contraction does.
    """
    if a != a or b != b or c != c:
        return math.nan
    return float(_longdouble(a) * _longdouble(b) + _longdouble(c))


def _py_fma_f(a: float, b: float, c: float) -> float:
    """Single-precision fused multiply-add — exact, because a binary32
    product and add fit losslessly inside binary64 before the final
    rounding to binary32."""
    return _py_f32(a * b + c)


_MIN_NORMAL_D = 2.2250738585072014e-308
_MIN_NORMAL_F = 1.1754943508222875e-38


def _py_ftz_d(x: float) -> float:
    """Flush a subnormal binary64 result to (signed) zero — Intel FTZ."""
    if x != 0.0 and -_MIN_NORMAL_D < x < _MIN_NORMAL_D:
        return math.copysign(0.0, x)
    return x


def _py_ftz_f(x: float) -> float:
    """Flush a subnormal binary32 result to (signed) zero — Intel FTZ."""
    if x != 0.0 and -_MIN_NORMAL_F < x < _MIN_NORMAL_F:
        return math.copysign(0.0, x)
    return x


def _py_f32z(x: float) -> float:
    """Fused :func:`f32` + :func:`ftz_f` — the Intel binary32 wrap."""
    return _py_ftz_f(_py_f32(x))


# ----------------------------------------------------------------------
# public bindings: the compiled accelerator when available, else the
# pure-Python reference.  Lowered kernels capture whichever is bound at
# compile time; both produce bit-identical values.
# ----------------------------------------------------------------------

from . import _native as _native_loader  # noqa: E402  (needs _py_* above)

_NATIVE = _native_loader.load()

#: the pure-Python math table, always available for equivalence tests
_PY_MATH_IMPLS = dict(MATH_IMPLS)

if _NATIVE is not None:
    f32 = _NATIVE.f32
    fdiv = _NATIVE.fdiv
    fma_d = _NATIVE.fma_d
    fma_f = _NATIVE.fma_f
    ftz_d = _NATIVE.ftz_d
    ftz_f = _NATIVE.ftz_f
    f32z = _NATIVE.f32z
    # C libm *is* the library the math module wraps: same symbols, same
    # bits, none of the exception-translation frames
    MATH_IMPLS = {name: getattr(_NATIVE, f"m_{name}")
                  for name in _PY_MATH_IMPLS}
else:
    f32 = _py_f32
    fdiv = _py_fdiv
    fma_d = _py_fma_d
    fma_f = _py_fma_f
    ftz_d = _py_ftz_d
    ftz_f = _py_ftz_f
    f32z = _py_f32z


def native_values_active() -> bool:
    """True when the compiled helper module is in use."""
    return _NATIVE is not None


def native_values_info() -> dict:
    """Active flag + human-readable reason from the loader (see
    :func:`repro.sim._native.load_info`)."""
    return _native_loader.load_info()
