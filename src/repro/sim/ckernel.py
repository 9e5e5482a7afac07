"""C backend: compile whole kernel bodies from :mod:`repro.sim.ir`.

The kernel shapes of one program form a *family*: the shapes of one
fingerprint (one per vendor FTZ/FMA mode) that a process has lowered
and not yet built.  The first C bind of any member builds the whole
family as one CPython extension exporting ``run(args, rt, cost, K,
member)``, so a program costs one compiler run and one loaded module
however many vendor shapes it has.  The members share one skeleton —
the same statements, charges, ``_K`` slots, variables and hooks — and
differ only per op: FTZ wraps, flushes after a contraction, load
modes, and the subexpressions where one vendor contracts ``a*b+c``
and another does not.  :func:`emit_c` walks the members' IRs in
lockstep: a node every member agrees on is emitted once, a wrap the
FTZ flag decides becomes a select on the running member's flag, and
any other difference a select on the member index.  Members whose
skeletons differ are never merged; each skeleton gets its own module.
A single shape is a family of one.

Inside the function FP scalars are C ``double`` locals, int scalars are
``long``, arrays are malloc'd ``double*`` copies of the input lists, and
the four cost-accumulator lanes live in registers between the
Flush/Reload points — the Python interpreter is only re-entered at
runtime hooks, which is what buys the order-of-magnitude throughput over
the interpreted kernel.

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

Shared objects are content-addressed by the hash of the family's source
in the same per-uid, trust-checked cache directory as the value helpers
(one build per family per machine, ever); the module *name* is fixed
(``_repro_kernel``) while filenames differ, which CPython's extension
loader supports (its cache key is ``(filename, name)``).  Build or
import failure falls back to the interpreted entry, recording the
reason (see :func:`build_info`) and warning once — never silently.
"""

from __future__ import annotations

import os
import sysconfig
import typing
import warnings
from hashlib import sha256

from . import _native, ir as _ir

#: per-source-hash imported modules (one per kernel family, process-wide)
_MODULES: dict[str, object] = {}

#: last failure reason (None when every bind so far succeeded)
_LAST_FAILURE: str | None = None

#: count of shapes that fell back to interp
_N_FAILED = 0

_warned: set = set()

_CFLAGS = ("-O1", "-ffp-contract=off", "-fno-builtin")

#: the helper each wrap code / array load mode applies (None: no wrap)
_WRAPC = {_ir.W_NONE: None, _ir.W_F32: "w_f32", _ir.W_F32Z: "w_f32z",
          _ir.W_FTZ: "w_ftzd"}
_LOADC = {_ir.A_COPY: None, _ir.A_FTZ_D: "w_ftzd", _ir.A_FTZ_F: "w_ftzf"}

#: wraps that differ between members with the FTZ flag deciding:
#: (helper with FTZ off, helper with FTZ on) -> helper taking ``fz``
_FZ_SELECT = {(None, "w_ftzd"): "w_ftzdq", (None, "w_ftzf"): "w_ftzfq",
              ("w_f32", "w_f32z"): "w_f32q"}

#: IR fields the emitter selects per member (wrap codes, the flush after
#: a contraction, array load modes); every other field of a statement
#: is skeleton and must match across a family
_PER_MEMBER = frozenset({"wrap", "ftz", "mode"})

#: expression node classes (children, not fields, of the node above)
_NODES = (*typing.get_args(_ir.FExpr), *typing.get_args(_ir.IExpr))

_PRELUDE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>

static const double min_normal_d = 2.2250738585072014e-308;
static const double min_normal_f = 1.1754943508222875e-38;

static inline double w_f32(double x) { return (double)(float)x; }
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
static inline double w_f32z(double x) { return w_ftzf((double)(float)x); }

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

/* the running family member's FTZ flag picks the flush */
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

static int set_attr_d(PyObject *o, const char *name, double v) {
    PyObject *f = PyFloat_FromDouble(v);
    int r;
    if (!f) return -1;
    r = PyObject_SetAttrString(o, name, f);
    Py_DECREF(f);
    return r;
}
static int get_attr_d(PyObject *o, const char *name, double *out) {
    PyObject *f = PyObject_GetAttrString(o, name);
    double v;
    if (!f) return -1;
    v = PyFloat_AsDouble(f);
    Py_DECREF(f);
    if (v == -1.0 && PyErr_Occurred()) return -1;
    *out = v;
    return 0;
}

#define CALL0(H) do { \
    PyObject *_r = PyObject_CallNoArgs(H); \
    if (!_r) goto fail; Py_DECREF(_r); } while (0)
#define CALL_L(H, A) do { \
    PyObject *_r = PyObject_CallFunction((H), "l", (long)(A)); \
    if (!_r) goto fail; Py_DECREF(_r); } while (0)
"""

_POSTLUDE = """
static PyMethodDef k_methods[] = {
    {"run", krun, METH_VARARGS, "run(args, rt, cost, K, member) -> comp"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef k_module = {
    PyModuleDef_HEAD_INIT, "_repro_kernel",
    "compiled lowered kernel family", -1, k_methods};

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


def _exact(v):
    """A field value compared bit for bit (``0.0`` and ``-0.0`` differ)."""
    return v.hex() if type(v) is float else v


#: IR class -> its plain fields: not children (expression nodes, bodies,
#: conditions) and not selected per member
_PLAIN: dict[type, tuple[str, ...]] = {}


def _plain(node) -> tuple[str, ...]:
    cls = type(node)
    names = _PLAIN.get(cls)
    if names is None:
        names = _PLAIN[cls] = tuple(
            name for name in cls.__slots__ if name not in _PER_MEMBER
            and not isinstance(getattr(node, name),
                               (*_NODES, list, _ir.Cmp)))
    return names


def _col(nodes: tuple, name: str) -> tuple:
    """One field of every member's node at one position."""
    return tuple([getattr(n, name) for n in nodes])


def _aligned(nodes: tuple) -> bool:
    """Whether one expression node can stand for every member's node at
    its position: same class and same plain fields (children are walked
    and per-member wraps selected on their own)."""
    first = nodes[0]
    cls = type(first)
    names = _plain(first)
    for node in nodes[1:]:
        if type(node) is not cls:
            return False
        for name in names:
            a, b = getattr(first, name), getattr(node, name)
            if a != b or (type(a) is float and a.hex() != b.hex()):
                return False
    return True


class SkeletonMismatch(ValueError):
    """Kernel IRs that cannot share one module: their statements,
    charges, ``_K`` slots, variables or hooks differ."""


def _stmt_key(op) -> tuple:
    """One statement's skeleton, its body aside: the class, the plain
    fields and a condition's comparison."""
    key = (type(op), *[_exact(getattr(op, name)) for name in _plain(op)])
    return key + (op.cond.op,) if type(op) is _ir.If else key


def _registries(kir: _ir.KernelIR) -> tuple:
    return (kir.n_constants, kir.comp, kir.fp_vars, kir.int_vars,
            kir.arrays, kir.queues, kir.fp32)


def skeleton(kir: _ir.KernelIR) -> tuple:
    """What the members of one module must share: the statement tree
    with every field the emitter does not select per member, and the
    symbol registries.  Expressions, wraps and load modes are free."""
    def ops_key(ops: list) -> tuple:
        return tuple((_stmt_key(op), ops_key(getattr(op, "body", ())))
                     for op in ops)
    return _registries(kir), ops_key(kir.ops)


def _wrap_fn(node) -> str | None:
    """The helper that wraps one FP op's result (``None``: no wrap)."""
    if type(node) is _ir.FFma:
        return ("w_ftzf" if node.fp32 else "w_ftzd") if node.ftz else None
    return _WRAPC[node.wrap]


class _Emitter:
    """IR -> C source for one kernel family, the members in lockstep.

    Every walk takes a tuple with one node per member of ``active`` (the
    family members the current position stands for).  Where the members'
    nodes differ, :meth:`split` groups the ones that agree and walks each
    group on its own, under a select on the member index.
    """

    def __init__(self, family: tuple[_ir.KernelIR, ...]) -> None:
        self.family = family
        self.fz = tuple(kir.ftz for kir in family)  # per-member FTZ flag
        self.active = tuple(range(len(family)))
        self.lines: list[str] = []
        self.depth = 1
        self.uniq = 0
        self.hooks: dict[str, str] = {}   # hook name -> C var
        self.iters: list[str] = []        # ForAssign iterator temps
        self._ierr = False                # statement touched an array

    # -- plumbing ------------------------------------------------------
    def w(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def uid(self) -> int:
        self.uniq += 1
        return self.uniq

    def hook(self, name: str) -> str:
        var = self.hooks.get(name)
        if var is None:
            var = f"h_{name}"
            self.hooks[name] = var
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

    # -- per-member selects --------------------------------------------
    @staticmethod
    def pick(arms: list[tuple]) -> str:
        """A select on the member index over ``(members, text)`` arms."""
        *heads, (_, last) = arms
        out = "".join(
            f"({' || '.join(f'member == {m}' for m in members)}) "
            f"? {text} : " for members, text in heads)
        return f"({out}{last})" if heads else last

    def split(self, es: tuple, walk) -> str:
        """Members whose nodes differ at this position: group the ones
        whose nodes agree, ``walk`` each group, select by member."""
        groups: list[list[int]] = []  # positions in ``es``
        for pos, e in enumerate(es):
            for group in groups:
                if _aligned((es[group[0]], e)):
                    group.append(pos)
                    break
            else:
                groups.append([pos])
        active, arms = self.active, []
        for group in groups:
            self.active = tuple(active[pos] for pos in group)
            arms.append((self.active, walk(tuple(es[pos] for pos in group))))
        self.active = active
        return self.pick(arms)

    def wrapped(self, fns: list, inner: str) -> str:
        """``inner`` under each member's wrap helper: one helper when
        the members agree, a select on the running member's FTZ flag
        when that flag decides the helper, else a member select."""
        if len(set(fns)) == 1:
            return f"({inner})" if fns[0] is None else f"{fns[0]}({inner})"
        fz = [self.fz[m] for m in self.active]
        by_fz = dict(zip(fz, fns))
        helper = _FZ_SELECT.get((by_fz.get(False), by_fz.get(True)))
        if helper is not None and all(by_fz[z] == fn
                                      for z, fn in zip(fz, fns)):
            return f"{helper}({inner}, fz)"
        arms: dict[str | None, list[int]] = {}
        for member, fn in zip(self.active, fns):
            arms.setdefault(fn, []).append(member)
        return self.pick([(members, f"({inner})" if fn is None
                           else f"{fn}({inner})")
                          for fn, members in arms.items()])

    # -- expressions ---------------------------------------------------
    def fexpr(self, es: tuple) -> str:
        if not _aligned(es):
            return self.split(es, self.fexpr)
        e = es[0]
        t = type(e)
        if t is _ir.FLit:
            return _clit(e.v)
        if t is _ir.FVar:
            return f"v_{e.name}"
        if t is _ir.ALoad:
            self._ierr = True
            return (f"a_{e.arr}[idx_fix({self.iexpr(_col(es, 'idx'))}, "
                    f"an_{e.arr}, &ierr)]")
        if t is _ir.IToF:
            return f"(double)({self.iexpr(_col(es, 'ix'))})"
        if t is _ir.FNeg:
            return f"(-({self.fexpr(_col(es, 'x'))}))"
        if t is _ir.FBin:
            inner = (f"{self.fexpr(_col(es, 'a'))} {e.op} "
                     f"{self.fexpr(_col(es, 'b'))}")
        elif t is _ir.FFma:
            fn = "h_fmaf" if e.fp32 else "h_fmad"
            inner = (f"{fn}({self.fexpr(_col(es, 'a'))}, "
                     f"{self.fexpr(_col(es, 'b'))}, "
                     f"{self.fexpr(_col(es, 'c'))})")
        elif t is _ir.FCall:
            inner = f"{e.func}({self.fexpr(_col(es, 'arg'))})"
        else:
            raise TypeError(f"unknown FP expr {t.__name__}")
        return self.wrapped([_wrap_fn(x) for x in es], inner)

    def iexpr(self, es: tuple) -> str:
        if not _aligned(es):
            return self.split(es, self.iexpr)
        e = es[0]
        t = type(e)
        if t is _ir.ILit:
            return str(e.v)
        if t is _ir.IVar:
            return f"i_{e.name}"
        if t is _ir.IMax0:
            return f"(i_{e.name} > 0 ? i_{e.name} : 0)"
        if t is _ir.IMod:
            return f"py_mod({self.iexpr(_col(es, 'base'))}, {e.modulus})"
        if t is _ir.IMul:
            return (f"({self.iexpr(_col(es, 'a'))} * "
                    f"{self.iexpr(_col(es, 'b'))})")
        if t is _ir.IFloorDiv:
            return (f"py_fdv({self.iexpr(_col(es, 'a'))}, "
                    f"{self.iexpr(_col(es, 'b'))})")
        if t is _ir.IModV:
            return (f"py_mod({self.iexpr(_col(es, 'a'))}, "
                    f"{self.iexpr(_col(es, 'b'))})")
        raise TypeError(f"unknown int expr {t.__name__}")

    # -- statements ----------------------------------------------------
    def block(self, bodies: tuple) -> None:
        if any(len(body) != len(bodies[0]) for body in bodies):
            raise SkeletonMismatch("blocks of different lengths")
        for ops in zip(*bodies):
            self.stmt(ops)

    def stmt(self, ops: tuple) -> None:  # noqa: C901 - one arm per IR op
        op = ops[0]
        if len(ops) > 1:  # the skeleton fields read from ``op`` below
            key = _stmt_key(op)
            if any(_stmt_key(o) != key for o in ops[1:]):
                raise SkeletonMismatch(
                    f"members differ at a {type(op).__name__}")
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
            self.w(f"v_{op.name} = {self.fexpr(_col(ops, 'e'))};")
            self.chk()
            return
        if t is _ir.SetIVar:
            self.w(f"i_{op.name} = {self.iexpr(_col(ops, 'e'))};")
            return
        if t is _ir.AStore:
            self._ierr = True
            rhs = self.fexpr(_col(ops, "e"))
            self.w(f"a_{op.arr}[idx_fix({self.iexpr(_col(ops, 'idx'))}, "
                   f"an_{op.arr}, &ierr)] = {rhs};")
            self.chk()
            return
        if t is _ir.Flush:
            self.w('if (set_attr_d(c_obj, "cy", cy) < 0) goto fail;')
            self.w('if (set_attr_d(c_obj, "ccy", ccy) < 0) goto fail;')
            self.w('if (set_attr_d(c_obj, "ins", ins) < 0) goto fail;')
            self.w('if (set_attr_d(c_obj, "br", br) < 0) goto fail;')
            return
        if t is _ir.Reload:
            self.w('if (get_attr_d(c_obj, "cy", &cy) < 0) goto fail;')
            self.w('if (get_attr_d(c_obj, "ccy", &ccy) < 0) goto fail;')
            self.w('if (get_attr_d(c_obj, "ins", &ins) < 0) goto fail;')
            self.w('if (get_attr_d(c_obj, "br", &br) < 0) goto fail;')
            return
        if t is _ir.Hook:
            h = self.hook(op.name)
            if op.tid:
                self.w(f"CALL_L({h}, i__tid);")
            else:
                self.w(f"CALL0({h});")
            return
        if t is _ir.RegionEnter:
            self.w(f"CALL_L({self.hook('region_enter')}, {op.rid});")
            return
        if t is _ir.RegionExit:
            self._region_exit(op)
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
        if t is _ir.Chunk:
            h = self.hook("chunk")
            self.w("{")
            self.w(f"    PyObject *_r = PyObject_CallFunction({h}, "
                   f'"ll", i__tid, (long)({self.iexpr(_col(ops, "n"))}));')
            self.w("    if (!_r) goto fail;")
            self.w(f'    if (!PyArg_ParseTuple(_r, "ll", '
                   f"&i__lo_{op.label}, &i__hi_{op.label})) "
                   "{ Py_DECREF(_r); goto fail; }")
            self.w("    Py_DECREF(_r);")
            self.w("}")
            return
        if t is _ir.ForRange:
            u = self.uid()
            self.w("{")
            self.w(f"    long _lo{u} = {self.iexpr(_col(ops, 'lo'))}, "
                   f"_hi{u} = {self.iexpr(_col(ops, 'hi'))};")
            # C for-increment would leave var==hi where Python leaves the
            # last value; generated code never reads a loop var after its
            # loop, but keep the exact final value anyway
            self.w(f"    for (long _k{u} = _lo{u}; _k{u} < _hi{u}; "
                   f"_k{u}++) {{")
            self.depth += 2
            self.w(f"i_{op.var} = _k{u};")
            self.block(_col(ops, "body"))
            self.depth -= 2
            self.w("    }")
            self.w("}")
            return
        if t is _ir.ForAssign:
            self._for_assign(ops)
            return
        if t is _ir.ForList:
            u = self.uid()
            # live length recheck every iteration == Python's list
            # iteration visiting appends made during the loop
            self.w(f"for (long _qi{u} = 0; _qi{u} < qn_{op.queue}; "
                   f"_qi{u}++) {{")
            self.depth += 1
            self.w(f"i_{op.var} = q_{op.queue}[_qi{u}];")
            self.block(_col(ops, "body"))
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
            conds = _col(ops, "cond")
            cond = (f"({self.fexpr(_col(conds, 'lhs'))}) {op.cond.op} "
                    f"({self.fexpr(_col(conds, 'rhs'))})")
            self.w("{")
            self.w(f"    int _b{u} = {cond};")
            self.depth += 1
            self.chk()  # index check before entering the branch
            self.depth -= 1
            self.w(f"    if (_b{u}) {{")
            self.depth += 2
            self.block(_col(ops, "body"))
            self.depth -= 2
            self.w("    }")
            self.w("}")
            return
        if t is _ir.IfIntEq:
            self.w(f"if (i_{op.var} == {op.k}) {{")
            self.depth += 1
            self.block(_col(ops, "body"))
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
            conv = self.wrapped([_WRAPC[o.wrap] for o in ops], "_x")
            self.w("{")
            self.w(f'    PyObject *_o = PyMapping_GetItemString(args_obj, '
                   f'"{op.name}");')
            self.w("    if (!_o) goto fail;")
            self.w("    double _x = PyFloat_AsDouble(_o); Py_DECREF(_o);")
            self.w("    if (_x == -1.0 && PyErr_Occurred()) goto fail;")
            self.w(f"    v_{op.name} = {conv};")
            self.w("}")
            return
        if t is _ir.LoadArray:
            flush = self.wrapped([_LOADC[o.mode] for o in ops], "_x")
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
            self.w(f"            a_{n}[_i] = {flush};")
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

    def _for_assign(self, ops: tuple) -> None:
        op = ops[0]
        u = self.uid()
        it = f"it{u}"
        self.iters.append(it)
        h = self.hook("assign")
        self.w("{")
        self.w(f"    PyObject *_r = PyObject_CallFunction({h}, "
               f'"llsl", i__tid, (long)({self.iexpr(_col(ops, "n"))}), '
               f'"{op.kind}", (long){op.chunk});')
        self.w("    if (!_r) goto fail;")
        self.w(f"    {it} = PyObject_GetIter(_r); Py_DECREF(_r);")
        self.w(f"    if (!{it}) goto fail;")
        self.w("}")
        self.w("while (1) {")
        self.depth += 1
        self.w(f"PyObject *_item = PyIter_Next({it});")
        self.w("if (!_item) break;")
        self.w(f"i_{op.var} = PyLong_AsLong(_item); Py_DECREF(_item);")
        self.w(f"if (i_{op.var} == -1 && PyErr_Occurred()) goto fail;")
        self.block(_col(ops, "body"))
        self.depth -= 1
        self.w("}")
        self.w("if (PyErr_Occurred()) goto fail;")
        self.w(f"Py_CLEAR({it});")

    def _region_exit(self, op: _ir.RegionExit) -> None:
        h = self.hook("region_exit")
        self.w("{")
        self.w("    PyObject *_r;")
        if op.has_partials:
            self.w("    PyObject *_pl = PyList_New(part_n);")
            self.w("    if (!_pl) goto fail;")
            self.w("    for (long _i = 0; _i < part_n; _i++) {")
            self.w("        PyObject *_f = PyFloat_FromDouble(part[_i]);")
            self.w("        if (!_f) { Py_DECREF(_pl); goto fail; }")
            self.w("        PyList_SET_ITEM(_pl, _i, _f);")
            self.w("    }")
            self.w(f'    _r = PyObject_CallFunction({h}, "ldOs", '
                   f"(long){op.rid}, v_{op.comp}, _pl, \"{op.op}\");")
            self.w("    Py_DECREF(_pl);")
        else:
            self.w(f'    _r = PyObject_CallFunction({h}, "ldOO", '
                   f"(long){op.rid}, v_{op.comp}, Py_None, Py_None);")
        self.w("    if (!_r) goto fail;")
        self.w(f"    v_{op.comp} = PyFloat_AsDouble(_r); Py_DECREF(_r);")
        self.w(f"    if (v_{op.comp} == -1.0 && PyErr_Occurred()) "
               "goto fail;")
        self.w("}")

    # -- whole module --------------------------------------------------
    def emit(self) -> str:
        kir = self.family[0]
        if any(_registries(k) != _registries(kir) for k in self.family):
            raise SkeletonMismatch("members declare different symbols")
        self.block(tuple(k.ops for k in self.family))
        body = self.lines
        nk = max(kir.n_constants, 1)
        n_members = len(self.family)

        head: list[str] = [_PRELUDE]
        w = head.append
        w(f"static const int fam_ftz[{n_members}] = "
          f"{{{', '.join(str(int(z)) for z in self.fz)}}};")
        w("")
        w("static PyObject *krun(PyObject *self, PyObject *call_args) {")
        w("    PyObject *args_obj, *rt_obj, *c_obj, *K_obj;")
        w("    PyObject *retval = NULL;")
        w("    int member = 0, fz;")
        w(f"    double K[{nk}];")
        w("    double cy = 0.0, ccy = 0.0, ins = 0.0, br = 0.0;")
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
        for var in self.hooks.values():
            w(f"    PyObject *{var} = NULL;")
        for it in self.iters:
            w(f"    PyObject *{it} = NULL;")
        w("    (void)ierr; (void)i__tid; (void)part;")
        w('    if (!PyArg_ParseTuple(call_args, "OOOOi", &args_obj, '
          "&rt_obj, &c_obj, &K_obj, &member)) return NULL;")
        w(f"    if (member < 0 || member >= {n_members}) {{")
        w('        PyErr_SetString(PyExc_IndexError, '
          '"kernel family member out of range");')
        w("        return NULL;")
        w("    }")
        w("    fz = fam_ftz[member];")
        w("    (void)fz;")
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
        for name, var in self.hooks.items():
            w(f'    {var} = PyObject_GetAttrString(rt_obj, "{name}");')
            w(f"    if (!{var}) goto fail;")

        tail: list[str] = []
        w = tail.append
        w("fail:")
        w("    Py_CLEAR(retval);")
        w("done:")
        for name in kir.arrays:
            w(f"    free(a_{name});")
        for name in kir.queues:
            w(f"    free(q_{name});")
        w("    free(part);")
        for var in self.hooks.values():
            w(f"    Py_XDECREF({var});")
        for it in self.iters:
            w(f"    Py_XDECREF({it});")
        w("    return retval;")
        w("}")
        w(_POSTLUDE)
        return "\n".join(head + body + tail)


def emit_c(*family: _ir.KernelIR) -> str:
    """The full C source of one kernel family: its members' IRs walked
    in lockstep.  Member ``i`` runs as ``run(args, rt, cost, K, i)``;
    one IR is a family of one.  Raises :class:`SkeletonMismatch` unless
    the members share one :func:`skeleton`."""
    return _Emitter(family).emit()


def build_info() -> dict:
    """How C-kernel builds have gone this process: modules built or
    loaded, shapes fallen back to interp, and the last failure reason
    (if any)."""
    return {"compiled": len(_MODULES), "failed": _N_FAILED,
            "last_failure": _LAST_FAILURE}


def _fail(reason: str, n_shapes: int) -> None:
    global _LAST_FAILURE, _N_FAILED
    _LAST_FAILURE = reason
    _N_FAILED += n_shapes
    if reason not in _warned:
        _warned.add(reason)
        warnings.warn(
            f"C kernel backend unavailable for this kernel, using the "
            f"interpreted entry: {reason}", RuntimeWarning, stacklevel=5)


def _load_module(source: str, n_shapes: int):
    """Build-or-reuse the content-addressed extension for one source
    (``n_shapes`` members fall back to interp if that fails)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = sha256((source + suffix).encode()).hexdigest()[:20]
    mod = _MODULES.get(key)
    if mod is not None:
        return mod
    cache_dir = _native._cache_dir()
    if not _native._cache_dir_trusted(cache_dir):
        _fail(f"untrusted cache dir {cache_dir}", n_shapes)
        return None
    out = cache_dir / f"_repro_kernel-{key}{suffix}"
    if not out.exists():
        cc = _native._find_cc()
        if cc is None:
            _fail("no C compiler found (CC/cc/gcc/clang)", n_shapes)
            return None
        ok, why = _native.build_shared_object(cc, source, out,
                                              extra_flags=_CFLAGS)
        if not ok:
            _fail(f"build failed: {why}", n_shapes)
            return None
    try:
        mod = _native.import_shared_object(out, name="_repro_kernel")
    except Exception as exc:
        _fail(f"import failed: {type(exc).__name__}: {exc}", n_shapes)
        return None
    if mod is None or not hasattr(mod, "run"):
        _fail(f"import failed: no run() in {os.fspath(out)}", n_shapes)
        return None
    _MODULES[key] = mod
    return mod


def _build_family(shape) -> None:
    """Build ``shape`` with every unbuilt member of its family: one
    module per skeleton among them, each member recorded in its shape's
    ``backend_cache`` as ``(run, member index)`` or as a failure."""
    members = ([shape] if shape.family is None
               else shape.family[0].claim_family(shape))
    try:
        built = [(members, emit_c(*(m.ir for m in members)))]
    except SkeletonMismatch:  # never merged: one module per skeleton
        groups: dict[tuple, list] = {}
        for member in members:
            groups.setdefault(skeleton(member.ir), []).append(member)
        built = [(group, emit_c(*(m.ir for m in group)))
                 for group in groups.values()]
    for group, source in built:
        mod = _load_module(source, len(group))
        for index, member in enumerate(group):
            if mod is None:
                member.backend_cache["c_failed"] = _LAST_FAILURE
            else:
                member.backend_cache["c"] = (mod.run, index)


def bind_c(structural, constants: tuple[float, ...]):
    """The compiled entry for one vendor's binding of a kernel shape, or
    ``None`` (caller falls back to interp) when the build is impossible —
    with the reason recorded and warned once, never silently.  The first
    bind of a shape builds its whole family (see :func:`_build_family`)."""
    built = structural.backend_cache.get("c")
    if built is None:
        if "c_failed" in structural.backend_cache:
            return None
        _build_family(structural)
        built = structural.backend_cache.get("c")
        if built is None:
            return None
    run, member = built

    def _kernel(_args, _rt, _c, run=run, constants=constants,
                member=member):
        return run(_args, _rt, _c, constants, member)
    return _kernel
