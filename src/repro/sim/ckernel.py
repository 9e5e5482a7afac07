"""C backend: compile whole kernel bodies from :mod:`repro.sim.ir`.

One program's IR becomes one CPython extension exporting ``run(args,
rt, cost, K, mode)``, shared by every vendor and opt level that compiles
the program: a program costs one compiler run and one loaded module.
``mode`` packs the vendor's FP mode — bit 0 the FTZ flag, the bits
above it the FMA level (the index in :data:`repro.sim.ir.FMA_MODES`) —
and the kernel picks its behaviour on each call: every wrap, the flush
after a contraction and each array load select on the FTZ flag, and
each contraction site (:class:`~repro.sim.ir.FSite`) on the FMA level,
``(fm >= level ? fused : plain)``.  Both are predictable branches on a
call-constant flag.

Inside the function FP scalars are C ``double`` locals, int scalars are
``long``, arrays are malloc'd ``double*`` copies of the input lists, and
the four cost-accumulator lanes live in registers between the
Flush/Reload points.  So does the region block: the event counters, the
acquire count checked against the livelock threshold, the schedule lane
that ``sched_next`` — the twin of :func:`repro.sim.pykernel.chunks` —
charges while it walks a worksharing loop's chunks, and the per-thread
lane deltas.  The Python interpreter is only re-entered at the prologue,
region enter and exit, and the livelock abort (one shared label), which
is what buys the order-of-magnitude throughput over the interpreted
kernel.

Bit-exactness contract (the reason the C backend requires
:func:`repro.sim.values.native_values_active`):

* every wrap/FMA/libm helper is the *same C code* as the battery-verified
  ``_repro_native_values`` module, so the compiled kernel and the
  interpreted reference (whose helpers are bound to that module) compute
  identical bits — ``(double)(float)x`` rounding, subnormal flushes at
  the exact thresholds, x87 ``long double`` FMA recovery with the NaN
  guard, direct libm calls into the same in-process ``libm``;
* builds pass ``-ffp-contract=off`` (no surprise FMA contraction of the
  two-rounding ``(double)(float)(a*b+c)``) and ``-fno-builtin`` (no
  compile-time MPFR folding of libm calls that could differ from the
  runtime library);
* FP literals are emitted as hexadecimal float constants
  (``float.hex()``), which round-trip exactly;
* int arithmetic uses Python's floored ``%``/``//`` semantics and array
  indexing wraps negative indices / raises ``IndexError`` exactly like
  the interpreted kernel's list accesses.

Shared objects are content-addressed by the hash of the kernel's source
in the same per-uid, trust-checked cache directory as the value helpers
(one build per program per machine, ever); the module *name* is fixed
(``_repro_kernel``) while filenames differ, which CPython's extension
loader supports (its cache key is ``(filename, name)``).  Build or
import failure falls back to the interpreted entry, recording the
reason (see :func:`build_info`) and warning once — never silently.
"""

from __future__ import annotations

import os
import sysconfig
import warnings
from hashlib import sha256

from . import _native, ir as _ir

#: per-source-hash imported modules (one per program, process-wide)
_MODULES: dict[str, object] = {}

#: last failure reason (None when every bind so far succeeded)
_LAST_FAILURE: str | None = None

#: count of kernels that fell back to interp
_N_FAILED = 0

_warned: set = set()

_CFLAGS = ("-O1", "-ffp-contract=off", "-fno-builtin")

_PRELUDE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>

static const double min_normal_d = 2.2250738585072014e-308;
static const double min_normal_f = 1.1754943508222875e-38;

static inline double w_ftzd(double x) {
    if (x != 0.0 && x < min_normal_d && x > -min_normal_d)
        return copysign(0.0, x);
    return x;
}
static inline double w_ftzf(double x) {
    if (x != 0.0 && x < min_normal_f && x > -min_normal_f)
        return copysign(0.0, x);
    return x;
}

/* long-double FMA recovery with the NaN guard of the reference helper */
static inline double h_fmad(double a, double b, double c) {
    long double r;
    if (a != a || b != b || c != c) return (double)NAN;
    r = (long double)a * (long double)b + (long double)c;
    return (double)r;
}
/* two-rounding binary32 FMA: exact product+add in binary64, one final
   round (NOT a hardware fma: -ffp-contract=off keeps it that way) */
static inline double h_fmaf(double a, double b, double c) {
    return (double)(float)(a * b + c);
}

/* the running mode's FTZ flag picks the flush */
static inline double w_ftzdq(double x, int fz) { return fz ? w_ftzd(x) : x; }
static inline double w_ftzfq(double x, int fz) { return fz ? w_ftzf(x) : x; }
static inline double w_f32q(double x, int fz) {
    x = (double)(float)x;
    return fz ? w_ftzf(x) : x;
}

/* Python's floored % and // (operands may be negative), branchless:
   a nonzero remainder whose sign differs from the divisor's
   ((r ^ b) < 0) moves one step toward minus infinity */
static inline long py_mod(long a, long b) {
    long r = a % b;
    return r + (((r != 0) & ((r ^ b) < 0)) ? b : 0);
}
static inline long py_fdv(long a, long b) {
    long r = a % b;
    return a / b - ((r != 0) & ((r ^ b) < 0));
}
/* Python list indexing: one negative wrap, sticky error flag OOB (a
   still-negative index is huge unsigned, so one compare covers both
   sides) */
static inline long idx_fix(long i, Py_ssize_t n, int *ierr) {
    long u = i + (i < 0 ? (long)n : 0);
    int bad = (unsigned long)u >= (unsigned long)n;
    *ierr |= bad;
    return bad ? 0 : u;
}

/* pykernel.chunks: thread tid's next chunk [w[3], w[4]) of w[0]
   iterations (w[1]: chunks walked, w[2]: guided start); *sch += cy once
   (kind 0: static, 1: static,c) or per chunk (2: dynamic, 3: guided) */
static int sched_next(int kind, long c, long t, long tid, long *w,
                      double *sch, double cy) {
    long n = w[0];
    if (c < 1) c = 1;
    if (kind < 2 && w[1] == 0) *sch += cy;
    if (kind == 0) {
        long q = (n > 0 ? n : 0) / t, r = (n > 0 ? n : 0) % t;
        w[3] = tid * q + (tid < r ? tid : r);
        w[4] = w[3] + q + (tid < r);
        return w[1]++ == 0;
    }
    if (kind < 3) {
        w[3] = (tid + w[1]++ * t) * c;
        w[4] = w[3] + c < n ? w[3] + c : n;
        if (w[3] >= n) return 0;
        if (kind == 2) *sch += cy;
        return 1;
    }
    while (w[2] < n) {  /* a chunk takes half a share of what is left */
        long z = (n - w[2] + 2 * t - 1) / (2 * t);
        w[3] = w[2];
        w[2] += z > c ? z : c;
        w[4] = w[2] < n ? w[2] : n;
        if (w[1]++ % t == tid) { *sch += cy; return 1; }
    }
    return 0;
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
static int region_exit(PyObject *h, long rid, double *comp, double *part,
                       long part_n, const char *op, long sync, long atom,
                       long acq, double sch, double *lcy, double *lccy,
                       long t) {
    PyObject *pl = op ? dlist(part, part_n) : Py_NewRef(Py_None);
    PyObject *lc = dlist(lcy, t), *lk = dlist(lccy, t), *r = NULL;
    if (pl && lc && lk)
        r = PyObject_CallFunction(h, "ldOsllldOO", rid, *comp, pl, op, sync,
                                  atom, acq, sch, lc, lk);
    Py_XDECREF(pl); Py_XDECREF(lc); Py_XDECREF(lk);
    if (r) *comp = PyFloat_AsDouble(r);
    Py_XDECREF(r);
    return r && !(*comp == -1.0 && PyErr_Occurred()) ? 0 : -1;
}

/* the cost lanes to and from the CostState */
static const char *const lane_names[4] = {"cy", "ccy", "ins", "br"};
static int flush(PyObject *o, double cy, double ccy, double ins, double br) {
    double v[4] = {cy, ccy, ins, br};
    for (int i = 0; i < 4; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        int r = f ? PyObject_SetAttrString(o, lane_names[i], f) : -1;
        Py_XDECREF(f);
        if (r < 0) return -1;
    }
    return 0;
}
static int reload(PyObject *o, double *cy, double *ccy, double *ins,
                  double *br) {
    double *v[4] = {cy, ccy, ins, br};
    for (int i = 0; i < 4; i++) {
        PyObject *f = PyObject_GetAttrString(o, lane_names[i]);
        if (!f) return -1;
        *v[i] = PyFloat_AsDouble(f);
        Py_DECREF(f);
        if (*v[i] == -1.0 && PyErr_Occurred()) return -1;
    }
    return 0;
}

#define CALL_L(H, A) do { \
    PyObject *_r = PyObject_CallFunction((H), "l", (long)(A)); \
    if (!_r) goto fail; Py_DECREF(_r); } while (0)
"""

_POSTLUDE = """
static PyMethodDef k_methods[] = {
    {"run", krun, METH_VARARGS, "run(args, rt, cost, K, mode) -> comp"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef k_module = {
    PyModuleDef_HEAD_INIT, "_repro_kernel",
    "compiled lowered kernel", -1, k_methods};

PyMODINIT_FUNC PyInit__repro_kernel(void) {
    return PyModule_Create(&k_module);
}
"""


def _clit(v: float) -> str:
    """Exact C literal for a Python float (hexfloat round-trips)."""
    if v != v:
        return "(double)NAN"
    if v == float("inf"):
        return "HUGE_VAL"
    if v == float("-inf"):
        return "(-HUGE_VAL)"
    return v.hex()


class _Emitter:
    """IR -> C source for one program's kernel, every mode in one
    function: ``fz`` is the running mode's FTZ flag, ``fm`` its FMA
    level."""

    def __init__(self, kir: _ir.KernelIR) -> None:
        self.kir = kir
        # the wrap of an op result and the flush of a loaded element or
        # a contraction, each selecting on ``fz``
        self.wq = "w_f32q" if kir.fp32 else "w_ftzdq"
        self.zq = "w_ftzfq" if kir.fp32 else "w_ftzdq"
        self.lines: list[str] = []
        self.depth = 1
        self.uniq = 0
        self.rt_calls: dict[str, str] = {}  # runtime method -> C var
        self.max_threads = 0              # widest team: thread-lane size
        self._ierr = False                # statement touched an array

    # -- plumbing ------------------------------------------------------
    def w(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def uid(self) -> int:
        self.uniq += 1
        return self.uniq

    def rt_call(self, name: str) -> str:
        """The C variable holding the runtime method ``name``."""
        var = self.rt_calls.get(name)
        if var is None:
            var = f"h_{name}"
            self.rt_calls[name] = var
        return var

    def chk(self) -> None:
        """Raise the interpreted kernel's IndexError after a statement whose
        expressions indexed an array (the flag is sticky per statement;
        expressions themselves are pure, so deferring the check to the
        statement boundary cannot change observable behaviour)."""
        if self._ierr:
            self.w('if (ierr) { PyErr_SetString(PyExc_IndexError, '
                   '"list index out of range"); goto fail; }')
            self._ierr = False

    # -- expressions ---------------------------------------------------
    def fexpr(self, e) -> str:
        t = type(e)
        if t is _ir.FLit:
            return _clit(e.v)
        if t is _ir.FVar:
            return f"v_{e.name}"
        if t is _ir.ALoad:
            self._ierr = True
            return (f"a_{e.arr}[idx_fix({self.iexpr(e.idx)}, "
                    f"an_{e.arr}, &ierr)]")
        if t is _ir.IToF:
            return f"(double)({self.iexpr(e.ix)})"
        if t is _ir.FNeg:
            return f"(-({self.fexpr(e.x)}))"
        if t is _ir.FBin:
            return (f"{self.wq}({self.fexpr(e.a)} {e.op} "
                    f"{self.fexpr(e.b)}, fz)")
        if t is _ir.FSite:
            return (f"(fm >= {_ir.FMA_MODES.index(e.fma)} ? "
                    f"{self.fexpr(e.fused)} : {self.fexpr(e.plain)})")
        if t is _ir.FFma:
            fn = "h_fmaf" if self.kir.fp32 else "h_fmad"
            return (f"{self.zq}({fn}({self.fexpr(e.a)}, {self.fexpr(e.b)}, "
                    f"{self.fexpr(e.c)}), fz)")
        if t is _ir.FCall:
            return f"{self.wq}({e.func}({self.fexpr(e.arg)}), fz)"
        raise TypeError(f"unknown FP expr {t.__name__}")

    def iexpr(self, e) -> str:
        t = type(e)
        if t is _ir.ILit:
            return str(e.v)
        if t is _ir.IVar:
            return f"i_{e.name}"
        if t is _ir.IMax0:
            return f"(i_{e.name} > 0 ? i_{e.name} : 0)"
        if t is _ir.IMod:
            return f"py_mod({self.iexpr(e.base)}, {e.modulus})"
        if t is _ir.IMul:
            return f"({self.iexpr(e.a)} * {self.iexpr(e.b)})"
        if t is _ir.IFloorDiv:
            return f"py_fdv({self.iexpr(e.a)}, {self.iexpr(e.b)})"
        if t is _ir.IModV:
            return f"py_mod({self.iexpr(e.a)}, {self.iexpr(e.b)})"
        raise TypeError(f"unknown int expr {t.__name__}")

    # -- statements ----------------------------------------------------
    def block(self, ops: list) -> None:
        for op in ops:
            self.stmt(op)

    def stmt(self, op) -> None:  # noqa: C901 - one arm per IR op
        t = type(op)
        if t is _ir.Charge:
            lane = "cy" if op.lane == 0 else "ccy"
            parts = []
            if op.k_cy is not None:
                parts.append(f"{lane} += K[{op.k_cy}];")
            if op.k_ins is not None:
                parts.append(f"ins += K[{op.k_ins}];")
            if op.br:
                parts.append(f"br += {_clit(op.br)};")
            self.w(" ".join(parts))
            return
        if t is _ir.SetVar:
            self.w(f"v_{op.name} = {self.fexpr(op.e)};")
            self.chk()
            return
        if t is _ir.SetIVar:
            self.w(f"i_{op.name} = {self.iexpr(op.e)};")
            return
        if t is _ir.AStore:
            self._ierr = True
            rhs = self.fexpr(op.e)
            self.w(f"a_{op.arr}[idx_fix({self.iexpr(op.idx)}, "
                   f"an_{op.arr}, &ierr)] = {rhs};")
            self.chk()
            return
        if t is _ir.Flush:
            self.w("if (flush(c_obj, cy, ccy, ins, br) < 0) goto fail;")
            return
        if t is _ir.Reload:
            self.w("if (reload(c_obj, &cy, &ccy, &ins, &br) < 0) goto fail;")
            return
        if t is _ir.Prologue:
            self.w("{")
            self.w(f"    PyObject *_r = PyObject_CallNoArgs("
                   f"{self.rt_call('prologue')});")
            self.w('    int _ok = _r && PyArg_ParseTuple(_r, "ldd", &thr, '
                   "&k_sch, &k_dsp);")
            self.w("    Py_XDECREF(_r);")
            self.w("    if (!_ok) goto fail;")
            self.w("}")
            return
        if t is _ir.Count:
            self.w(f"n_{op.event}++;")
            return
        if t is _ir.CritEnter:
            self.rt_call("livelock")
            self.w("if (++acq >= thr) goto livelock;")
            return
        if t is _ir.RegionEnter:
            self.w(f"CALL_L({self.rt_call('region_enter')}, {op.rid});")
            self.w("n_sync = n_atomic = 0; acq0 = acq; sch = 0.0;")
            return
        if t is _ir.ThreadBegin:
            self.w("tcy = cy; tccy = ccy;")
            return
        if t is _ir.ThreadEnd:
            self.w("lcy[i__tid] = cy - tcy; lccy[i__tid] = ccy - tccy;")
            return
        if t is _ir.RegionExit:
            self.max_threads = max(self.max_threads, op.threads)
            part = ('part, part_n, "' + op.op + '"' if op.has_partials
                    else "NULL, 0, NULL")
            h = self.rt_call("region_exit")
            self.w(f"if (region_exit({h}, {op.rid}, &v_{op.comp}, {part}, "
                   f"n_sync, n_atomic, acq - acq0, sch, lcy, lccy, "
                   f"{op.threads}) < 0) goto fail;")
            return
        if t is _ir.InitPartials:
            self.w("part_n = 0;")
            return
        if t is _ir.AppendPartial:
            self.w("if (part_n == part_cap) {")
            self.w("    long _nc = part_cap ? part_cap * 2 : 32;")
            self.w("    double *_np = (double *)realloc(part, "
                   "(size_t)_nc * sizeof(double));")
            self.w("    if (!_np) { PyErr_NoMemory(); goto fail; }")
            self.w("    part = _np; part_cap = _nc;")
            self.w("}")
            self.w(f"part[part_n++] = v_{op.name};")
            return
        if t is _ir.ForRange:
            u = self.uid()
            self.w("{")
            self.w(f"    long _lo{u} = {self.iexpr(op.lo)}, "
                   f"_hi{u} = {self.iexpr(op.hi)};")
            # C for-increment would leave var==hi where Python leaves the
            # last value; generated code never reads a loop var after its
            # loop, but keep the exact final value anyway
            self.w(f"    for (long _k{u} = _lo{u}; _k{u} < _hi{u}; "
                   f"_k{u}++) {{")
            self.depth += 2
            self.w(f"i_{op.var} = _k{u};")
            self.block(op.body)
            self.depth -= 2
            self.w("    }")
            self.w("}")
            return
        if t is _ir.ForAssign:
            self._for_assign(op)
            return
        if t is _ir.ForList:
            u = self.uid()
            # live length recheck every iteration == Python's list
            # iteration visiting appends made during the loop
            self.w(f"for (long _qi{u} = 0; _qi{u} < qn_{op.queue}; "
                   f"_qi{u}++) {{")
            self.depth += 1
            self.w(f"i_{op.var} = q_{op.queue}[_qi{u}];")
            self.block(op.body)
            self.depth -= 1
            self.w("}")
            return
        if t is _ir.QNew:
            self.w(f"qn_{op.queue} = 0;")
            return
        if t is _ir.QPush:
            q = op.queue
            self.w(f"if (qn_{q} == qc_{q}) {{")
            self.w(f"    long _nc = qc_{q} ? qc_{q} * 2 : 8;")
            self.w(f"    long *_np = (long *)realloc(q_{q}, "
                   "(size_t)_nc * sizeof(long));")
            self.w("    if (!_np) { PyErr_NoMemory(); goto fail; }")
            self.w(f"    q_{q} = _np; qc_{q} = _nc;")
            self.w("}")
            self.w(f"q_{q}[qn_{q}++] = {op.k};")
            return
        if t is _ir.QClear:
            self.w(f"qn_{op.queue} = 0;")
            return
        if t is _ir.If:
            u = self.uid()
            cond = (f"({self.fexpr(op.cond.lhs)}) {op.cond.op} "
                    f"({self.fexpr(op.cond.rhs)})")
            self.w("{")
            self.w(f"    int _b{u} = {cond};")
            self.depth += 1
            self.chk()  # index check before entering the branch
            self.depth -= 1
            self.w(f"    if (_b{u}) {{")
            self.depth += 2
            self.block(op.body)
            self.depth -= 2
            self.w("    }")
            self.w("}")
            return
        if t is _ir.IfIntEq:
            self.w(f"if (i_{op.var} == {op.k}) {{")
            self.depth += 1
            self.block(op.body)
            self.depth -= 1
            self.w("}")
            return
        if t is _ir.LoadInt:
            self.w("{")
            self.w(f'    PyObject *_o = PyMapping_GetItemString(args_obj, '
                   f'"{op.name}");')
            self.w("    if (!_o) goto fail;")
            self.w(f"    i_{op.name} = PyLong_AsLong(_o); Py_DECREF(_o);")
            self.w(f"    if (i_{op.name} == -1 && PyErr_Occurred()) "
                   "goto fail;")
            self.w("}")
            return
        if t is _ir.LoadScalar:
            self.w("{")
            self.w(f'    PyObject *_o = PyMapping_GetItemString(args_obj, '
                   f'"{op.name}");')
            self.w("    if (!_o) goto fail;")
            self.w("    double _x = PyFloat_AsDouble(_o); Py_DECREF(_o);")
            self.w("    if (_x == -1.0 && PyErr_Occurred()) goto fail;")
            self.w(f"    v_{op.name} = {self.wq}(_x, fz);")
            self.w("}")
            return
        if t is _ir.LoadArray:
            n = op.name
            self.w("{")
            self.w(f'    PyObject *_o = PyMapping_GetItemString(args_obj, '
                   f'"{n}");')
            self.w("    if (!_o) goto fail;")
            self.w('    PyObject *_seq = PySequence_Fast(_o, "array '
                   'argument is not a sequence");')
            self.w("    Py_DECREF(_o);")
            self.w("    if (!_seq) goto fail;")
            self.w(f"    an_{n} = PySequence_Fast_GET_SIZE(_seq);")
            self.w(f"    a_{n} = (double *)malloc((size_t)(an_{n} > 0 ? "
                   f"an_{n} : 1) * sizeof(double));")
            self.w(f"    if (!a_{n}) {{ Py_DECREF(_seq); PyErr_NoMemory(); "
                   "goto fail; }")
            self.w("    {")
            self.w("        PyObject **_items = PySequence_Fast_ITEMS(_seq);")
            self.w(f"        for (Py_ssize_t _i = 0; _i < an_{n}; _i++) {{")
            self.w("            double _x = PyFloat_AsDouble(_items[_i]);")
            self.w("            if (_x == -1.0 && PyErr_Occurred()) "
                   "{ Py_DECREF(_seq); goto fail; }")
            self.w(f"            a_{n}[_i] = {self.zq}(_x, fz);")
            self.w("        }")
            self.w("    }")
            self.w("    Py_DECREF(_seq);")
            self.w("}")
            return
        if t is _ir.Return:
            self.w(f"retval = PyFloat_FromDouble(v_{op.name});")
            self.w("goto done;")
            return
        raise TypeError(f"unknown IR op {t.__name__}")

    def _for_assign(self, op: _ir.ForAssign) -> None:
        static = op.kind == "static"
        kind = ((0 if op.chunk <= 0 else 1) if static
                else 2 if op.kind == "dynamic" else 3)
        u = self.uid()
        self.w("{")
        self.w(f"    long _w{u}[5] = {{{self.iexpr(op.n)}}};")
        call = (f"sched_next({kind}, {op.chunk}, {op.threads}, i__tid, "
                f"_w{u}, &sch, {'k_sch' if static else 'k_dsp'})")
        # the default schedule deals one block: no loop over chunks
        self.w(f"    {call};" if kind == 0 else f"    while ({call})")
        self.w(f"    for (long _i{u} = _w{u}[3], _h{u} = _w{u}[4]; "
               f"_i{u} < _h{u}; _i{u}++) {{")
        self.depth += 2
        self.w(f"i_{op.var} = _i{u};")
        self.block(op.body)
        self.depth -= 2
        self.w("    }")
        self.w("}")

    # -- whole module --------------------------------------------------
    def emit(self) -> str:
        kir = self.kir
        self.block(kir.ops)
        body = self.lines
        nk = max(kir.n_constants, 1)

        head: list[str] = [_PRELUDE]
        w = head.append
        w("static PyObject *krun(PyObject *self, PyObject *call_args) {")
        w("    PyObject *args_obj, *rt_obj, *c_obj, *K_obj;")
        w("    PyObject *retval = NULL;")
        w("    int mode = 0, fz, fm;")
        w(f"    double K[{nk}];")
        w("    double cy = 0.0, ccy = 0.0, ins = 0.0, br = 0.0;")
        # the region block and the prologue's run constants
        w("    long thr = 0, acq = 0, acq0 = 0, n_sync = 0, n_atomic = 0;")
        w("    double sch = 0.0, k_sch = 0.0, k_dsp = 0.0, tcy = 0.0, "
          "tccy = 0.0;")
        if self.max_threads:
            w(f"    double lcy[{self.max_threads}], "
              f"lccy[{self.max_threads}];")
        w("    int ierr = 0;")
        w("    double *part = NULL; long part_n = 0, part_cap = 0;")
        ints = dict.fromkeys((*kir.int_vars, "_tid"))
        for name in ints:
            w(f"    long i_{name} = 0;")
        for name in kir.fp_vars:
            w(f"    double v_{name} = 0.0;")
        for name in kir.arrays:
            w(f"    double *a_{name} = NULL; Py_ssize_t an_{name} = 0;")
        for name in kir.queues:
            w(f"    long *q_{name} = NULL; "
              f"long qn_{name} = 0, qc_{name} = 0;")
        for var in self.rt_calls.values():
            w(f"    PyObject *{var} = NULL;")
        w("    (void)ierr; (void)i__tid; (void)part;")
        w('    if (!PyArg_ParseTuple(call_args, "OOOOi", &args_obj, '
          "&rt_obj, &c_obj, &K_obj, &mode)) return NULL;")
        w(f"    if (mode < 0 || mode >= {2 * len(_ir.FMA_MODES)}) {{")
        w('        PyErr_SetString(PyExc_ValueError, '
          '"kernel mode out of range");')
        w("        return NULL;")
        w("    }")
        w("    fz = mode & 1;")
        w("    fm = mode >> 1;")
        w("    (void)fz; (void)fm;")
        w(f"    if (!PyTuple_Check(K_obj) || PyTuple_GET_SIZE(K_obj) != "
          f"{kir.n_constants}) {{")
        w('        PyErr_SetString(PyExc_TypeError, '
          '"constants tuple has wrong arity");')
        w("        return NULL;")
        w("    }")
        if kir.n_constants:
            w(f"    for (int _i = 0; _i < {kir.n_constants}; _i++) {{")
            w("        K[_i] = PyFloat_AsDouble("
              "PyTuple_GET_ITEM(K_obj, _i));")
            w("        if (K[_i] == -1.0 && PyErr_Occurred()) return NULL;")
            w("    }")
        w("    (void)K;")
        for name, var in self.rt_calls.items():
            w(f'    {var} = PyObject_GetAttrString(rt_obj, "{name}");')
            w(f"    if (!{var}) goto fail;")

        tail: list[str] = []
        w = tail.append
        h = self.rt_calls.get("livelock")
        if h is not None:  # the one abort every acquire shares
            w("    goto fail;")
            w("livelock:")
            w(f'    Py_XDECREF(PyObject_CallFunction({h}, "lldddd", '
              "acq - acq0, n_atomic, cy, ccy, ins, br));")
        w("fail:")
        w("    Py_CLEAR(retval);")
        w("done:")
        for name in kir.arrays:
            w(f"    free(a_{name});")
        for name in kir.queues:
            w(f"    free(q_{name});")
        w("    free(part);")
        for var in self.rt_calls.values():
            w(f"    Py_XDECREF({var});")
        w("    return retval;")
        w("}")
        w(_POSTLUDE)
        return "\n".join(head + body + tail)


def emit_c(kir: _ir.KernelIR) -> str:
    """The full C source of one program's kernel, every mode in one
    ``run(args, rt, cost, K, mode)``."""
    return _Emitter(kir).emit()


def build_info() -> dict:
    """How C-kernel builds have gone this process: modules built or
    loaded, kernels fallen back to interp, and the last failure reason
    (if any)."""
    return {"compiled": len(_MODULES), "failed": _N_FAILED,
            "last_failure": _LAST_FAILURE}


def _fail(reason: str) -> None:
    global _LAST_FAILURE, _N_FAILED
    _LAST_FAILURE = reason
    _N_FAILED += 1
    if reason not in _warned:
        _warned.add(reason)
        warnings.warn(
            f"C kernel backend unavailable for this kernel, using the "
            f"interpreted entry: {reason}", RuntimeWarning, stacklevel=4)


def _load_module(source: str):
    """Build-or-reuse the content-addressed extension for one source."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = sha256((source + suffix).encode()).hexdigest()[:20]
    mod = _MODULES.get(key)
    if mod is not None:
        return mod
    cache_dir = _native._cache_dir()
    if not _native._cache_dir_trusted(cache_dir):
        _fail(f"untrusted cache dir {cache_dir}")
        return None
    out = cache_dir / f"_repro_kernel-{key}{suffix}"
    if not out.exists():
        cc = _native._find_cc()
        if cc is None:
            _fail("no C compiler found (CC/cc/gcc/clang)")
            return None
        ok, why = _native.build_shared_object(cc, source, out,
                                              extra_flags=_CFLAGS)
        if not ok:
            _fail(f"build failed: {why}")
            return None
    try:
        mod = _native.import_shared_object(out, name="_repro_kernel")
    except Exception as exc:
        _fail(f"import failed: {type(exc).__name__}: {exc}")
        return None
    if mod is None or not hasattr(mod, "run"):
        _fail(f"import failed: no run() in {os.fspath(out)}")
        return None
    _MODULES[key] = mod
    return mod


def bind_c(structural, constants: tuple[float, ...], mode: _ir.Mode):
    """The compiled entry for one vendor's binding of a kernel, or
    ``None`` (caller falls back to interp) when the build is impossible —
    with the reason recorded and warned once, never silently.  The first
    bind of a kernel builds its module, which every mode then shares."""
    run = structural.backend_cache.get("c")
    if run is None:
        if "c_failed" in structural.backend_cache:
            return None
        mod = _load_module(emit_c(structural.ir))
        if mod is None:
            structural.backend_cache["c_failed"] = _LAST_FAILURE
            return None
        run = structural.backend_cache["c"] = mod.run
    ftz, fma = mode
    code = int(ftz) | _ir.FMA_MODES.index(fma) << 1

    def _kernel(_args, _rt, _c, run=run, constants=constants, code=code):
        return run(_args, _rt, _c, constants, code)
    return _kernel
