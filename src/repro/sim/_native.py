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
* **no fast-math** — the build uses ``-O2 -ffp-contract=off``; IEEE
  semantics of division, rounding and the FMAs are exactly CPython's.

The FMA keeps the x87 ``long double`` trick of the Python implementation
(``(double)((long double)a * b + c)``): on every platform C ``long
double`` is precisely the type ``numpy.longdouble`` wraps, so the
contraction model agrees bit-for-bit with the fallback.  It and the
FTZ and binary32 helpers are :data:`KERNEL_ABI` text, the one copy that
every kernel object includes too.

The same extension carries the **kernel dispatcher** of the C backend
(:mod:`repro.sim.ckernel`).  A compiled kernel is a plain C shared
object over :data:`KERNEL_ABI`, the one C text both sides include:
``kload`` opens it (``dlopen``, ``RTLD_LOCAL``; the object unloads when
its entry is collected) and ``krun`` runs it with the callbacks that do
everything Python-side — argument loads, the runtime calls, the
cost-lane exchange, errors.  So kernels never include ``Python.h``, and
the dispatcher is built and verified once per machine with the helpers
it shares with every kernel.  :func:`build_shared_object`
builds both kinds of object, each with its caller's flags: the helpers
at ``-O2`` against the Python headers, a kernel object at its build
tier's ``-O`` level with no system header and, on ELF, no C start files
or libraries (:mod:`repro.sim.ckernel`).  :func:`load_kernel_object`
opens a kernel object after checking that it is not truncated.
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
from functools import partial
from hashlib import sha256
from pathlib import Path
from struct import unpack_from

#: The kernel ABI: the one C text that compiled kernels
#: (:mod:`repro.sim.ckernel`) and the dispatcher below both include.  A
#: kernel object exports ``int krun(rk_ctx *)`` and ``krun_abi``; the
#: dispatcher fills the context and hands the kernel ``rk_api``, the
#: callbacks for everything that touches Python: argument loads, the
#: prologue, region enter and exit, the cost-lane exchange, the livelock
#: abort and the errors.  ``ftz_sel``, ``f32_sel``, ``h_fmad`` and
#: ``h_fmaf`` are the value helpers both sides compute with, so the
#: load-time battery checks the text every kernel includes.
KERNEL_ABI = r"""
#define RK_ABI 1
#define RK_SHORT 1  /* an array is shorter than the kernel's bound */
enum { RK_E_INDEX, RK_E_MEMORY, RK_E_MODE, RK_E_ARITY };
#define RK_MIN_NORMAL_D 0x1p-1022
#define RK_MIN_NORMAL_F 0x1p-126

typedef struct rk_api {
    int (*load_int)(void *env, const char *name, long *out);
    int (*load_float)(void *env, const char *name, double *out);
    int (*load_array)(void *env, const char *name, double thr,
                      double **out, long *n);
    long (*array_len)(void *env, const char *name);
    int (*prologue)(void *env, long *thr, double *k_sch, double *k_dsp);
    int (*region_enter)(void *env, long rid);
    int (*region_exit)(void *env, long rid, double *comp,
                       const double *part, long part_n, const char *op,
                       long sync, long atom, long acq, double sch,
                       const double *lcy, const double *lccy, long t);
    int (*flush)(void *env, double cy, double ccy, double ins, double br);
    int (*reload)(void *env, double *cy, double *ccy, double *ins,
                  double *br);
    void (*livelock)(void *env, long acq, long atom, double cy, double ccy,
                     double ins, double br);
    void (*error)(void *env, int kind);
} rk_api;

/* mode: bit 0 the FTZ flag, the bits above it the FMA level */
typedef struct rk_ctx {
    void *env;
    const rk_api *api;
    const double *K;
    long nk, mode;
    double ret;
} rk_ctx;

/* the FTZ flush: a subnormal x becomes a zero of its sign when thr is
   the smallest normal; thr = 0 flushes nothing, a zero or NaN never */
static inline double ftz_sel(double x, double thr) {
    return __builtin_fabs(x) < thr ? __builtin_copysign(0.0, x) : x;
}

static inline double f32_sel(double x, double thr) {
    return ftz_sel((double)(float)x, thr);
}

/* long-double FMA recovery; a NaN operand gives NaN */
static inline double h_fmad(double a, double b, double c) {
    long double r;
    if (a != a || b != b || c != c) return __builtin_nan("");
    r = (long double)a * (long double)b + (long double)c;
    return (double)r;
}

/* two-rounding binary32 FMA: exact product+add in binary64, one final
   round (NOT a hardware fma: -ffp-contract=off keeps it that way) */
static inline double h_fmaf(double a, double b, double c) {
    return (double)(float)(a * b + c);
}
"""

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <dlfcn.h>
#include <math.h>
#include <stdlib.h>
""" + KERNEL_ABI + r"""
static PyObject *nv_f32(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble(f32_sel(x, 0.0));
}

static PyObject *nv_ftz_d(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble(ftz_sel(x, RK_MIN_NORMAL_D));
}

static PyObject *nv_ftz_f(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble(ftz_sel(x, RK_MIN_NORMAL_F));
}

/* fused f32 + ftz_f: one call instead of two on the Intel binary32 path */
static PyObject *nv_f32z(PyObject *self, PyObject *arg) {
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble(f32_sel(x, RK_MIN_NORMAL_F));
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
    if (n != 3) {
        PyErr_SetString(PyExc_TypeError, "fma_d expects 3 arguments");
        return NULL;
    }
    a = PyFloat_AsDouble(args[0]);
    b = PyFloat_AsDouble(args[1]);
    c = PyFloat_AsDouble(args[2]);
    if (PyErr_Occurred()) return NULL;
    return PyFloat_FromDouble(h_fmad(a, b, c));
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
    return PyFloat_FromDouble(h_fmaf(a, b, c));
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

/* ---- the kernel dispatcher: runs kernel objects over rk_api ---- */

typedef struct { PyObject *args, *rt, *cost; } k_env;
#define ENV ((k_env *)env)

static int k_load_int(void *env, const char *name, long *out) {
    PyObject *o = PyMapping_GetItemString(ENV->args, name);
    if (!o) return -1;
    *out = PyLong_AsLong(o);
    Py_DECREF(o);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int k_load_float(void *env, const char *name, double *out) {
    PyObject *o = PyMapping_GetItemString(ENV->args, name);
    if (!o) return -1;
    *out = PyFloat_AsDouble(o);
    Py_DECREF(o);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* a malloc'd copy the kernel frees, each element flushed at thr */
static int k_load_array(void *env, const char *name, double thr,
                        double **out, long *n) {
    PyObject *o = PyMapping_GetItemString(ENV->args, name), *seq, **items;
    double *a;
    Py_ssize_t len;
    if (!o) return -1;
    seq = PySequence_Fast(o, "array argument is not a sequence");
    Py_DECREF(o);
    if (!seq) return -1;
    len = PySequence_Fast_GET_SIZE(seq);
    a = (double *)malloc((size_t)(len > 0 ? len : 1) * sizeof(double));
    if (!a) { Py_DECREF(seq); PyErr_NoMemory(); return -1; }
    items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < len; i++) {
        double x = PyFloat_AsDouble(items[i]);
        if (x == -1.0 && PyErr_Occurred()) {
            free(a); Py_DECREF(seq); return -1;
        }
        a[i] = ftz_sel(x, thr);
    }
    Py_DECREF(seq);
    *out = a;
    *n = (long)len;
    return 0;
}

/* the length the array argument will load with; -1 (the kernel then
   defers the call to interp) for a missing or non-list argument */
static long k_array_len(void *env, const char *name) {
    PyObject *o = PyMapping_GetItemString(ENV->args, name);
    long n = -1;
    if (!o) { PyErr_Clear(); return -1; }
    if (PyList_Check(o)) n = (long)PyList_GET_SIZE(o);
    else if (PyTuple_Check(o)) n = (long)PyTuple_GET_SIZE(o);
    Py_DECREF(o);
    return n;
}

static int k_prologue(void *env, long *thr, double *k_sch, double *k_dsp) {
    PyObject *r = PyObject_CallMethod(ENV->rt, "prologue", NULL);
    int ok = r && PyArg_ParseTuple(r, "ldd", thr, k_sch, k_dsp);
    Py_XDECREF(r);
    return ok ? 0 : -1;
}

static int k_region_enter(void *env, long rid) {
    PyObject *r = PyObject_CallMethod(ENV->rt, "region_enter", "l", rid);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

static PyObject *dlist(const double *v, long n) {
    PyObject *l = PyList_New(n);
    for (long i = 0; l && i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (!f) Py_CLEAR(l); else PyList_SET_ITEM(l, i, f);
    }
    return l;
}

/* *comp = rt.region_exit(...); no op, no partials (None) */
static int k_region_exit(void *env, long rid, double *comp,
                         const double *part, long part_n, const char *op,
                         long sync, long atom, long acq, double sch,
                         const double *lcy, const double *lccy, long t) {
    PyObject *pl = op ? dlist(part, part_n) : Py_NewRef(Py_None);
    PyObject *lc = dlist(lcy, t), *lk = dlist(lccy, t), *r = NULL;
    if (pl && lc && lk)
        r = PyObject_CallMethod(ENV->rt, "region_exit", "ldOsllldOO", rid,
                                *comp, pl, op, sync, atom, acq, sch, lc, lk);
    Py_XDECREF(pl); Py_XDECREF(lc); Py_XDECREF(lk);
    if (r) *comp = PyFloat_AsDouble(r);
    Py_XDECREF(r);
    return r && !(*comp == -1.0 && PyErr_Occurred()) ? 0 : -1;
}

/* the cost lanes to and from the CostState */
static const char *const lane_names[4] = {"cy", "ccy", "ins", "br"};

static int k_flush(void *env, double cy, double ccy, double ins, double br) {
    double v[4] = {cy, ccy, ins, br};
    for (int i = 0; i < 4; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        int r = f ? PyObject_SetAttrString(ENV->cost, lane_names[i], f) : -1;
        Py_XDECREF(f);
        if (r < 0) return -1;
    }
    return 0;
}

static int k_reload(void *env, double *cy, double *ccy, double *ins,
                    double *br) {
    double *v[4] = {cy, ccy, ins, br};
    for (int i = 0; i < 4; i++) {
        PyObject *f = PyObject_GetAttrString(ENV->cost, lane_names[i]);
        if (!f) return -1;
        *v[i] = PyFloat_AsDouble(f);
        Py_DECREF(f);
        if (*v[i] == -1.0 && PyErr_Occurred()) return -1;
    }
    return 0;
}

static void k_livelock(void *env, long acq, long atom, double cy,
                       double ccy, double ins, double br) {
    Py_XDECREF(PyObject_CallMethod(ENV->rt, "livelock", "lldddd", acq, atom,
                                   cy, ccy, ins, br));
}

static void k_error(void *env, int kind) {
    if (kind == RK_E_INDEX)
        PyErr_SetString(PyExc_IndexError, "list index out of range");
    else if (kind == RK_E_MEMORY)
        PyErr_NoMemory();
    else if (kind == RK_E_MODE)
        PyErr_SetString(PyExc_ValueError, "kernel mode out of range");
    else
        PyErr_SetString(PyExc_TypeError, "constants tuple has wrong arity");
}

static const rk_api k_api = {
    k_load_int, k_load_float, k_load_array, k_array_len, k_prologue,
    k_region_enter, k_region_exit, k_flush, k_reload, k_livelock, k_error};

typedef int (*rk_entry)(rk_ctx *);

static void k_close(PyObject *cap) {
    void *h = PyCapsule_GetContext(cap);
    if (h) dlclose(h);
}

/* kload(path) -> the kernel's entry, which unloads the object when it
   is collected */
static PyObject *nv_kload(PyObject *self, PyObject *arg) {
    PyObject *path, *cap;
    void *h, *f;
    const int *abi;
    if (!PyUnicode_FSConverter(arg, &path)) return NULL;
    h = dlopen(PyBytes_AS_STRING(path), RTLD_NOW | RTLD_LOCAL);
    Py_DECREF(path);
    if (!h) {
        const char *why = dlerror();
        PyErr_SetString(PyExc_ImportError, why ? why : "dlopen failed");
        return NULL;
    }
    f = dlsym(h, "krun");
    abi = (const int *)dlsym(h, "krun_abi");
    if (!f || !abi || *abi != RK_ABI) {
        dlclose(h);
        PyErr_SetString(PyExc_ImportError, "not a kernel object of this ABI");
        return NULL;
    }
    cap = PyCapsule_New(f, "repro.kernel", k_close);
    if (!cap || PyCapsule_SetContext(cap, h) < 0) {
        Py_XDECREF(cap);
        dlclose(h);
        return NULL;
    }
    return cap;
}

/* krun(kernel, args, rt, cost, K, mode) -> comp, or None when an array
   is shorter than the kernel's bound (the kernel ran nothing) */
static PyObject *nv_krun(PyObject *self, PyObject *const *a, Py_ssize_t n) {
    double kbuf[256], *K = kbuf;
    k_env env;
    rk_ctx ctx;
    rk_entry f;
    Py_ssize_t nk;
    long mode;
    int rc;
    if (n != 6) {
        PyErr_SetString(PyExc_TypeError, "krun expects 6 arguments");
        return NULL;
    }
    f = (rk_entry)PyCapsule_GetPointer(a[0], "repro.kernel");
    if (!f) return NULL;
    mode = PyLong_AsLong(a[5]);
    if (mode == -1 && PyErr_Occurred()) return NULL;
    if (!PyTuple_Check(a[4])) {
        PyErr_SetString(PyExc_TypeError, "constants tuple has wrong arity");
        return NULL;
    }
    nk = PyTuple_GET_SIZE(a[4]);
    if (nk > 256 && !(K = (double *)malloc((size_t)nk * sizeof(double))))
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < nk; i++) {
        K[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(a[4], i));
        if (K[i] == -1.0 && PyErr_Occurred()) {
            if (K != kbuf) free(K);
            return NULL;
        }
    }
    env.args = a[1]; env.rt = a[2]; env.cost = a[3];
    ctx.env = &env; ctx.api = &k_api; ctx.K = K; ctx.nk = (long)nk;
    ctx.mode = mode; ctx.ret = 0.0;
    rc = f(&ctx);
    if (K != kbuf) free(K);
    if (rc == 0) return PyFloat_FromDouble(ctx.ret);
    if (rc == RK_SHORT) Py_RETURN_NONE;
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_SystemError, "kernel failed without an error");
    return NULL;
}

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
    {"kload", nv_kload, METH_O, "open a kernel object"},
    {"krun", (PyCFunction)nv_krun, METH_FASTCALL, "run a kernel"},
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


#: the flags that make a shared object whose undefined symbols resolve
#: from the process that loads it
SHARED_FLAGS = ("-fPIC", "-shared") + (
    ("-undefined", "dynamic_lookup") if sys.platform == "darwin" else ())


def build_shared_object(cc: str, c_source: str, out: Path,
                        flags: tuple[str, ...]) -> tuple[bool, str]:
    """Compile ``c_source`` into the shared object ``out``.

    Shared by the value-helper module and the kernel backend
    (:mod:`repro.sim.ckernel`).  ``flags`` are every flag of the
    compiler run (:data:`SHARED_FLAGS` among them); they follow the
    source on the command line, so a library flag links what the source
    needs.  Returns ``(ok, reason)`` — the reason is a short diagnostic
    (including a stderr snippet on compiler errors) instead of the old
    silent ``False``.  The source and the unrenamed output live under
    per-process, per-thread names beside ``out`` and are removed on
    success and failure alike (``out`` is content-addressed by its
    source and flags, so nothing reads the source again); the final
    rename is atomic, so concurrent builds race harmlessly.
    """
    tag = f".tmp{os.getpid()}.{threading.get_ident()}"
    src = out.with_name(out.name + tag + ".c")
    tmp = out.with_name(out.name + tag)
    try:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            src.write_text(c_source)
        except OSError as exc:
            return False, f"cannot write build inputs: {exc}"
        cmd = [cc, str(src), "-o", str(tmp), *flags]
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


def _truncation(data: bytes) -> str | None:
    """Why an ELF object would fault the loader, or ``None``.

    ``dlopen`` maps an object's segments without checking them against
    the file's size, so a truncated object kills the process with SIGBUS
    on the first touch of a missing page: every segment and the section
    header table, which the linker writes last, must lie inside the
    file.  Other formats are left to the loader, which rejects them with
    an error."""
    if data[:4] != b"\x7fELF":
        return None
    if len(data) < 64:
        return "truncated ELF header"
    wide, order = data[4] == 2, "<" if data[5] == 1 else ">"
    word = order + ("Q" if wide else "I")
    phoff = unpack_from(word, data, 0x20 if wide else 0x1C)[0]
    shoff = unpack_from(word, data, 0x28 if wide else 0x20)[0]
    phent, phnum, shent, shnum = unpack_from(order + "HHHH", data,
                                             0x36 if wide else 0x2A)
    ends = [phoff + phent * phnum, shoff + shent * shnum]
    if max(ends) <= len(data):  # then each segment: p_offset + p_filesz
        for i in range(phnum):
            at = phoff + i * phent + (8 if wide else 4)
            ends.append(unpack_from(word, data, at)[0] + unpack_from(
                word, data, at + (24 if wide else 12))[0])
    return "truncated ELF object" if max(ends) > len(data) else None


def load_kernel_object(path: Path):
    """``run(args, rt, cost, K, mode)`` for the kernel object at ``path``,
    opened by the dispatcher of the loaded value-helper module (the C
    backend requires it; see :func:`repro.sim.backend._c_available`).
    Raises :class:`ImportError` for an object that cannot be loaded."""
    from .values import _NATIVE

    problem = _truncation(Path(path).read_bytes())
    if problem is not None:
        raise ImportError(f"{problem}: {os.fspath(path)}")
    return partial(_NATIVE.krun, _NATIVE.kload(os.fspath(path)))


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


def _module_path(cache_dir: Path, flags: tuple[str, ...]) -> Path:
    """The value-helper module's file, named like a kernel object by the
    hash of its build flags and source (and the interpreter's extension
    suffix), so a change to either builds a new module."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = sha256("\0".join((*flags, _C_SOURCE + suffix)).encode())
    return cache_dir / f"_repro_native_values-{key.hexdigest()[:16]}{suffix}"


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
        cache_dir = _cache_dir()
        if not _cache_dir_trusted(cache_dir):
            return _fall_back(f"untrusted cache dir {cache_dir} (not "
                              f"uid-owned 0700)")
        flags = ("-O2", "-ffp-contract=off", *SHARED_FLAGS,
                 f"-I{sysconfig.get_paths()['include']}")
        out = _module_path(cache_dir, flags)
        if not out.exists():
            cc = _find_cc()
            if cc is None:
                return _fall_back("no C compiler found (CC/cc/gcc/clang)")
            ok, why = build_shared_object(cc, _C_SOURCE, out, flags)
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
