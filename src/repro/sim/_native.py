"""Optional C accelerator for the FP value helpers of :mod:`repro.sim.values`.

The lowered kernels call :func:`~repro.sim.values.f32` /
:func:`~repro.sim.values.fdiv` / the FTZ and FMA helpers tens of millions
of times per campaign; on CPython each call pays a full Python frame plus
a ctypes/numpy round-trip.  The same operations are one machine
instruction each in C, so this module compiles a tiny extension on first
use (cached per interpreter ABI) and :mod:`repro.sim.values` rebinds its
helpers to the compiled versions.

Absolute requirements, enforced here:

* **bit-identical results** — every compiled helper is verified against
  its pure-Python reference on a battery of edge cases (signed zeros,
  subnormals, overflow boundary, inf/nan) at load time; any mismatch
  rejects the module and the pure-Python implementations stay in force,
* **zero hard dependencies** — no compiler, no headers, sandboxed build
  failure, non-CPython interpreter: all silently fall back to Python
  (``REPRO_NATIVE_VALUES=0`` forces the fallback, e.g. for the
  equivalence tests),
* **no fast-math** — the build uses plain ``-O2``; IEEE semantics of
  division and rounding are exactly CPython's.

The FMA keeps the x87 ``long double`` trick of the Python implementation
(``(double)((long double)a * b + c)``): on every platform C ``long
double`` is precisely the type ``numpy.longdouble`` wraps, so the
contraction model agrees bit-for-bit with the fallback.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from contextlib import contextmanager, suppress
from hashlib import sha256
from pathlib import Path

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static const double min_normal_d = 2.2250738585072014e-308;
static const double min_normal_f = 1.1754943508222875e-38;

static PyObject *nv_f32(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble((double)(float)x);
}

static PyObject *nv_ftz_d(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    if (x != 0.0 && x < min_normal_d && x > -min_normal_d)
        x = copysign(0.0, x);
    return PyFloat_FromDouble(x);
}

static PyObject *nv_ftz_f(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    if (x != 0.0 && x < min_normal_f && x > -min_normal_f)
        x = copysign(0.0, x);
    return PyFloat_FromDouble(x);
}

/* fused f32 + ftz_f: one call instead of two on the Intel binary32 path */
static PyObject *nv_f32z(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    x = (double)(float)x;
    if (x != 0.0 && x < min_normal_f && x > -min_normal_f)
        x = copysign(0.0, x);
    return PyFloat_FromDouble(x);
}

static PyObject *nv_fdiv(PyObject *self, PyObject *const *args,
                         Py_ssize_t n) {
    double a, b;
    if (n != 2) {
        PyErr_SetString(PyExc_TypeError, "fdiv expects 2 arguments");
        return NULL;
    }
    a = PyFloat_AsDouble(args[0]);
    b = PyFloat_AsDouble(args[1]);
    if (PyErr_Occurred()) return NULL;
    /* IEEE-754 division: x/0 -> +-inf, 0/0 and nan operands -> nan */
    return PyFloat_FromDouble(a / b);
}

static PyObject *nv_fma_d(PyObject *self, PyObject *const *args,
                          Py_ssize_t n) {
    double a, b, c;
    long double r;
    if (n != 3) {
        PyErr_SetString(PyExc_TypeError, "fma_d expects 3 arguments");
        return NULL;
    }
    a = PyFloat_AsDouble(args[0]);
    b = PyFloat_AsDouble(args[1]);
    c = PyFloat_AsDouble(args[2]);
    if (PyErr_Occurred()) return NULL;
    if (a != a || b != b || c != c) return PyFloat_FromDouble(NAN);
    r = (long double)a * (long double)b + (long double)c;
    return PyFloat_FromDouble((double)r);
}

static PyObject *nv_fma_f(PyObject *self, PyObject *const *args,
                          Py_ssize_t n) {
    double a, b, c;
    if (n != 3) {
        PyErr_SetString(PyExc_TypeError, "fma_f expects 3 arguments");
        return NULL;
    }
    a = PyFloat_AsDouble(args[0]);
    b = PyFloat_AsDouble(args[1]);
    c = PyFloat_AsDouble(args[2]);
    if (PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble((double)(float)(a * b + c));
}

/* IEEE-total math wrappers: C libm already returns nan/inf where
   Python's math module raises, which is exactly the behaviour the
   Python-side _total() wrappers reconstruct — same libm, same bits. */
#define NV_MATH1(NAME, EXPR)                                      \
    static PyObject *nv_m_##NAME(PyObject *self, PyObject *arg) { \
        double x = PyFloat_AsDouble(arg);                         \
        if (x == -1.0 && PyErr_Occurred()) return NULL;           \
        return PyFloat_FromDouble(EXPR);                          \
    }

NV_MATH1(sin, sin(x))
NV_MATH1(cos, cos(x))
NV_MATH1(tan, tan(x))
NV_MATH1(exp, exp(x))
NV_MATH1(log, log(x))
NV_MATH1(sqrt, sqrt(x))
NV_MATH1(fabs, fabs(x))
NV_MATH1(tanh, tanh(x))
NV_MATH1(atan, atan(x))

static PyMethodDef nv_methods[] = {
    {"f32", nv_f32, METH_O, "round binary64 to binary32 and back"},
    {"ftz_d", nv_ftz_d, METH_O, "flush subnormal binary64 to signed zero"},
    {"ftz_f", nv_ftz_f, METH_O, "flush subnormal binary32 to signed zero"},
    {"f32z", nv_f32z, METH_O, "f32 rounding followed by binary32 FTZ"},
    {"fdiv", (PyCFunction)nv_fdiv, METH_FASTCALL, "IEEE division"},
    {"fma_d", (PyCFunction)nv_fma_d, METH_FASTCALL,
     "long-double contracted multiply-add"},
    {"fma_f", (PyCFunction)nv_fma_f, METH_FASTCALL,
     "binary32 fused multiply-add (exact in binary64)"},
    {"m_sin", nv_m_sin, METH_O, NULL},
    {"m_cos", nv_m_cos, METH_O, NULL},
    {"m_tan", nv_m_tan, METH_O, NULL},
    {"m_exp", nv_m_exp, METH_O, NULL},
    {"m_log", nv_m_log, METH_O, NULL},
    {"m_sqrt", nv_m_sqrt, METH_O, NULL},
    {"m_fabs", nv_m_fabs, METH_O, NULL},
    {"m_tanh", nv_m_tanh, METH_O, NULL},
    {"m_atan", nv_m_atan, METH_O, NULL},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef nv_module = {
    PyModuleDef_HEAD_INIT, "_repro_native_values",
    "compiled FP value helpers", -1, nv_methods};

PyMODINIT_FUNC PyInit__repro_native_values(void) {
    return PyModule_Create(&nv_module);
}
"""


#: why the last :func:`load` attempt succeeded or fell back — the
#: anti-silent-fallback record (see :func:`load_info`)
_LOAD_INFO: dict = {
    "active": False,
    "requested": False,
    "reason": "load() not called yet",
}


def load_info() -> dict:
    """How the native-values load went: ``active`` (compiled helpers in
    use), ``requested`` (``REPRO_NATIVE_VALUES`` explicitly enabled it),
    and the human-readable ``reason`` for the current state."""
    return dict(_LOAD_INFO)


def reset_load_info() -> None:
    """Restore the load record to its pristine never-called state.

    :func:`load` and its fallback path mutate the module-global record
    in place; anything that calls them (tests, probes) should reset —
    or better, use :func:`scoped_load_info` — so later readers of
    :func:`load_info` see the process's real state, not the probe's.
    """
    _LOAD_INFO.clear()
    _LOAD_INFO.update(active=False, requested=False,
                      reason="load() not called yet")


@contextmanager
def scoped_load_info():
    """Context manager: any :func:`load` calls inside leave the
    module-global load record exactly as it was on entry."""
    saved = dict(_LOAD_INFO)
    try:
        yield
    finally:
        _LOAD_INFO.clear()
        _LOAD_INFO.update(saved)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    # per-uid so shared /tmp hosts cannot poison each other's cache
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def _cache_dir_trusted(path: Path) -> bool:
    """Only import shared objects from a directory we own and control.

    The directory name under a world-writable temp dir is predictable,
    so another local user could pre-create it and plant a .so with the
    deterministic cache name; importing an extension runs its module
    init before any verification can happen.  Owned-by-us plus no
    group/other write is the same trust test ssh applies to key files.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
        os.chmod(path, 0o700)  # best effort; the stat below decides
        st = path.stat()
    except OSError:
        return False
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    return not (st.st_mode & 0o022)


def _find_cc() -> str | None:
    from shutil import which

    cc_var = (sysconfig.get_config_var("CC") or "").split()
    candidates = ([cc_var[0]] if cc_var else []) + ["cc", "gcc", "clang"]
    for cand in candidates:
        path = which(cand)
        if path:
            return path
    return None


def build_shared_object(cc: str, c_source: str, out: Path,
                        extra_flags: tuple[str, ...] = ()) -> tuple[bool, str]:
    """Compile ``c_source`` into the shared object ``out``.

    Shared by the value-helper module and the kernel backend
    (:mod:`repro.sim.ckernel`).  Returns ``(ok, reason)`` — the reason
    is a short diagnostic (including a stderr snippet on compiler
    errors) instead of the old silent ``False``.  The source and the
    unrenamed output live under per-builder names beside ``out`` and are
    removed on success and failure alike (``out`` is content-addressed
    by its source, so nothing reads the source again); the final rename
    is atomic, so concurrent builders race harmlessly.
    """
    include = sysconfig.get_paths()["include"]
    tag = f".tmp{os.getpid()}.{threading.get_ident()}"
    src = out.with_name(out.name + tag + ".c")
    tmp = out.with_name(out.name + tag)
    try:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            src.write_text(c_source)
        except OSError as exc:
            return False, f"cannot write build inputs: {exc}"
        cmd = [cc, "-O2", "-fPIC", "-shared", *extra_flags, f"-I{include}",
               str(src), "-o", str(tmp)]
        if sys.platform == "darwin":
            cmd[4:4] = ["-undefined", "dynamic_lookup"]
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return False, f"compiler did not run: {type(exc).__name__}: {exc}"
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()
            snippet = "; ".join(tail[-3:]) if tail else "no compiler output"
            return False, f"compiler exited {proc.returncode}: {snippet}"
        try:
            os.replace(tmp, out)
        except OSError as exc:
            return False, f"cannot install built object: {exc}"
        return True, ""
    finally:
        for path in (src, tmp):
            with suppress(OSError):
                path.unlink()


def import_shared_object(path: Path, name: str = "_repro_native_values"):
    """Import an extension module from an explicit path (the module's
    ``PyInit_<name>`` must match ``name``)."""
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verify(native) -> bool:
    """Reject the compiled module unless it matches the Python helpers
    bit-for-bit on the values where the semantics live."""
    from math import copysign, inf, isnan, nan

    from . import values

    def same(a: float, b: float) -> bool:
        if isnan(a) or isnan(b):
            return isnan(a) and isnan(b)
        return a == b and copysign(1.0, a) == copysign(1.0, b)

    edge = [0.0, -0.0, 1.5, -2.75, 5e-324, -5e-324, 1e-310, -1e-310,
            2.2250738585072014e-308, 1.1754943508222875e-38, 1e-39,
            -1e-39, 3.4028234663852886e+38, 3.4028235677973366e+38,
            1e39, -1e39, 1e308, -1e308, inf, -inf, nan, 0.1, 1 / 3]
    try:
        for x in edge:
            if not same(native.f32(x), values._py_f32(x)):
                return False
            if not same(native.ftz_d(x), values._py_ftz_d(x)):
                return False
            if not same(native.ftz_f(x), values._py_ftz_f(x)):
                return False
            if not same(native.f32z(x), values._py_f32z(x)):
                return False
        for a in edge:
            for b in (0.0, -0.0, 3.0, -0.25, inf, nan, 1e-308):
                if not same(native.fdiv(a, b), values._py_fdiv(a, b)):
                    return False
        for t in ((0.1, 0.2, 0.3), (1e308, 1e308, -inf), (nan, 1.0, 1.0),
                  (1.0, nan, 1.0), (1.0, 1.0, nan), (inf, 0.0, 1.0),
                  (1 / 3, 3.0, -1.0), (1.0000001, 1.0000001, -1.0)):
            if not same(native.fma_d(*t), values._py_fma_d(*t)):
                return False
            if not same(native.fma_f(*t), values._py_fma_f(*t)):
                return False
        math_args = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.75, 100.0, 710.0,
                     -710.0, 1e-300, 1e308, -1e308, inf, -inf, nan, -3.0]
        for name, ref in values.MATH_IMPLS.items():
            cfn = getattr(native, f"m_{name}", None)
            if cfn is None:
                return False
            for x in math_args:
                if not same(cfn(x), ref(x)):
                    return False
    except Exception:
        return False
    return True


def _fall_back(reason: str):
    _LOAD_INFO["active"] = False
    _LOAD_INFO["reason"] = reason
    if _LOAD_INFO["requested"]:
        # Explicitly asked for and not delivered: one warning (warnings
        # dedupes by message+location), not a silent mode switch that
        # makes benchmarks compare different implementations.
        warnings.warn(
            f"REPRO_NATIVE_VALUES requested but native helpers are "
            f"unavailable, using pure-Python fallback: {reason}",
            RuntimeWarning, stacklevel=3)
    return None


def load():
    """Return the verified native module, or ``None`` (pure-Python mode).

    Never raises: any failure — disabled via ``REPRO_NATIVE_VALUES=0``,
    no compiler, sandboxed build, verification mismatch — degrades to the
    Python helpers.  Unlike the original silent fallback, every outcome
    is recorded in :func:`load_info`, and an explicit
    ``REPRO_NATIVE_VALUES=1`` request that cannot be honoured emits a
    one-time :class:`RuntimeWarning`.
    """
    env = os.environ.get("REPRO_NATIVE_VALUES")
    _LOAD_INFO["requested"] = (env is not None
                               and env.lower() not in ("0", "no", "off"))
    if env is not None and env.lower() in ("0", "no", "off"):
        _LOAD_INFO["active"] = False
        _LOAD_INFO["reason"] = "disabled via REPRO_NATIVE_VALUES"
        return None
    if sys.implementation.name != "cpython":
        return _fall_back(
            f"non-CPython interpreter ({sys.implementation.name})")
    try:
        suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
        key = sha256((_C_SOURCE + suffix).encode()).hexdigest()[:16]
        cache_dir = _cache_dir()
        if not _cache_dir_trusted(cache_dir):
            return _fall_back(f"untrusted cache dir {cache_dir} (not "
                              f"uid-owned 0700)")
        out = cache_dir / f"_repro_native_values-{key}{suffix}"
        if not out.exists():
            cc = _find_cc()
            if cc is None:
                return _fall_back("no C compiler found (CC/cc/gcc/clang)")
            ok, why = build_shared_object(cc, _C_SOURCE, out)
            if not ok:
                return _fall_back(f"build failed: {why}")
        native = import_shared_object(out)
        if native is None:
            return _fall_back(f"cannot import built module {out}")
        if not _verify(native):
            return _fall_back("verification mismatch: compiled helpers "
                              "disagree with Python reference bits")
        _LOAD_INFO["active"] = True
        _LOAD_INFO["reason"] = "compiled helpers verified and active"
        return native
    except Exception as exc:
        return _fall_back(f"loader exception: {type(exc).__name__}: {exc}")
