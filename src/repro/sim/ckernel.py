"""C backend: compile whole kernel bodies from :mod:`repro.sim.ir`.

One program's IR becomes one plain C shared object — no ``Python.h``,
no CPython extension — exporting ``int krun(rk_ctx *)`` over the kernel
ABI (:data:`repro.sim._native.KERNEL_ABI`).  Every vendor and opt level
that compiles the program runs it: a program costs one compiler run and
one loaded object.  The dispatcher in the value-helper extension
(:mod:`repro.sim._native`, built and battery-verified once per machine)
opens the object and calls it with the argument mapping, the runtime and
the cost state behind ``rk_api``, a table of callbacks for everything
that touches Python: the argument loads (one call each), the prologue,
region enter and exit, the cost-lane flush and reload, the livelock
abort and the errors.

The context's ``mode`` packs the vendor's FP mode — bit 0 the FTZ flag,
the bits above it the FMA level (the index in
:data:`repro.sim.ir.FMA_MODES`) — and the kernel picks its behaviour on
each call.  The FTZ flag becomes a threshold, computed once per call:
the smallest normal under FTZ, else ``0.0``, and every wrap, load flush
and contraction flush is ``ftz_sel(x, thr)``, which flushes nothing at
``thr = 0``.  Each contraction site (:class:`~repro.sim.ir.FSite`)
selects on the FMA level, ``(fm >= level ? fused : plain)``; the
operands both forms share are evaluated once, into locals ahead of the
statement.

Inside the function FP scalars are C ``double`` locals, int scalars are
``long``, arrays are malloc'd ``double*`` copies of the input lists, and
the four cost-accumulator lanes live in registers between the
Flush/Reload points.  So does the region block: the event counters, the
acquire count checked against the livelock threshold, the schedule lane
that ``sched_next`` — the twin of :func:`repro.sim.pykernel.chunks` —
charges while it walks a worksharing loop's chunks, and the per-thread
lane deltas.

Array indexing.  An index that is a constant ``c >= 0``, ``% M`` with a
constant ``M > 0``, or the thread index ``_tid`` is in range whenever
the array holds ``c + 1``, ``M`` or the kernel's widest team elements.
The kernel checks each such array's length once, at entry, against the
largest of these bounds, and indexes those sites directly; other index
forms keep ``idx_fix`` (Python's one negative wrap, ``IndexError`` out of
range).  A call whose array is shorter than its bound runs nothing —
the check comes before the prologue and the first cost-state write —
and the bound entry runs it on the interpreted kernel instead, so the
record is the interpreter's by construction.

Bit-exactness contract (the reason the C backend requires
:func:`repro.sim.values.native_values_active`):

* every wrap/FMA/libm helper is the *same C code* as the battery-verified
  ``_repro_native_values`` module: ``ftz_sel``, ``f32_sel``, ``h_fmad``
  and ``h_fmaf`` are defined once, in the ABI text both include, so the
  compiled kernel and the interpreted reference (whose helpers are bound
  to that module) compute identical bits — ``(double)(float)x``
  rounding, subnormal flushes at the exact thresholds, x87 ``long
  double`` FMA recovery with the NaN guard, direct libm calls into the
  same in-process ``libm``;
* builds pass ``-ffp-contract=off`` (no surprise FMA contraction of the
  two-rounding ``(double)(float)(a*b+c)``) and ``-fno-builtin`` (no
  compile-time MPFR folding of libm calls that could differ from the
  runtime library); the flush uses ``__builtin_fabs`` and
  ``__builtin_copysign``, which stay inline under it;
* none of this depends on the ``-O`` level, so both build tiers
  (:func:`repro.sim.backend.kernel_build_tier`: ``-Og`` for ``full``,
  ``-O0`` for ``quick``), whose flags differ in nothing else, compute
  the same bits: binary64 is SSE2 with no excess precision, contraction
  is off, and the FMA recovery is the explicit ``long double``
  expression above;
* FP literals are emitted as hexadecimal float constants
  (``float.hex()``), which round-trip exactly, and NaN and the
  infinities as ``__builtin_nan("")`` and ``__builtin_inf()``;
* int arithmetic uses Python's floored ``%``/``//`` semantics; a
  ``% M`` over a value that is never negative (a loop counter or
  ``_tid``) is C's ``%``, which agrees there.

A kernel object pays no fixed build cost it does not need: its prelude
includes no system header, only declaring the functions a kernel calls
(``realloc``, ``free`` and the libm names of
:data:`repro.sim.values.MATH_IMPLS`), and on ELF it links with
``-nostdlib``.  Those functions resolve from the loading process,
which has libm and the C library mapped, so the object has no
``DT_NEEDED`` entry.

Objects are content-addressed by the hash of the build flags and the
kernel's source in the same per-uid, trust-checked cache directory as
the value helpers (one build per program and tier per machine, ever;
the tiers never share a file).  A loaded object belongs to the
structural kernel it was built from (its ``backend_cache``), and so to
the program's :class:`~repro.sim.kcache.KernelCache` entry: the
dispatcher unloads it (``dlclose``) once the last reference goes, when
the program has left the cache and no binary still runs it.  A build or
load failure — no compiler, a failed build, a corrupt cached object —
falls back to the interpreted entry, recording the reason (see
:func:`build_info`) and warning once, never silently.  With telemetry
on, ``repro_kernel_builds_total{tier}`` counts the objects built or
loaded per tier.
"""

from __future__ import annotations

import sys
import warnings
from hashlib import sha256

from ..obs import metrics as _obs
from . import _native, ir as _ir
from .backend import kernel_build_tier
from .pykernel import bind_py
from .values import MATH_IMPLS

#: count of kernel objects built or loaded
_N_COMPILED = 0

#: last failure reason (None when every bind so far succeeded)
_LAST_FAILURE: str | None = None

#: count of kernels that fell back to interp
_N_FAILED = 0

_warned: set = set()

#: on ELF a kernel object links with no C start files or libraries
#: (``-lgcc`` is a static archive: it adds a compiler helper only where
#: a target needs one, none on x86-64)
_NO_RUNTIME = () if sys.platform == "darwin" else ("-nostdlib", "-lgcc")

#: the compiler flags of a kernel object, per build tier
_CFLAGS = {tier: (opt, "-pipe", *_native.SHARED_FLAGS, "-ffp-contract=off",
                  "-fno-builtin", *_NO_RUNTIME)
           for tier, opt in (("full", "-Og"), ("quick", "-O0"))}

#: no system header: the functions a kernel calls, resolved from the
#: loading process
_DECLS = ("typedef __SIZE_TYPE__ size_t;\n#define NULL ((void *)0)\n"
          "void *realloc(void *, size_t);\nvoid free(void *);\n"
          + "".join(f"double {name}(double);\n" for name in MATH_IMPLS))

_PRELUDE = "\n" + _DECLS + _native.KERNEL_ABI + r"""
const int krun_abi = RK_ABI;

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
static inline long idx_fix(long i, long n, int *ierr) {
    long u = i + (i < 0 ? n : 0);
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
"""


#: FP expressions a contraction site reads in place: no work to share
_LEAVES = (_ir.FLit, _ir.FVar)


def _children(e) -> tuple:
    """The FP operands of an FP expression node."""
    t = type(e)
    if t is _ir.FBin:
        return e.a, e.b
    if t is _ir.FFma:
        return e.a, e.b, e.c
    if t is _ir.FSite:
        return e.fused, e.plain
    if t is _ir.FNeg:
        return (e.x,)
    if t is _ir.FCall:
        return (e.arg,)
    return ()


def _clit(v: float) -> str:
    """Exact C literal for a Python float (hexfloat round-trips)."""
    if v != v:
        return '__builtin_nan("")'
    if v == float("inf"):
        return "__builtin_inf()"
    if v == float("-inf"):
        return "(-__builtin_inf())"
    return v.hex()


def _int_facts(ops: list) -> tuple[int, int | None, frozenset[str]]:
    """One walk over a kernel's int writes: its widest team (the largest
    thread-loop bound or region team, 1 without regions), the bound of
    ``_tid`` (that team, when only thread loops to a constant write it,
    else ``None``), and the int variables that never go negative, which
    only loop heads write: a loop variable counts up from 0, a task
    variable takes queued task numbers."""
    team = 1
    tid_bounded = True
    loop_vars: set[str] = set()
    other: set[str] = set()
    stack = list(ops)
    while stack:
        op = stack.pop()
        t = type(op)
        if t is _ir.ForRange:
            loop_vars.add(op.var)
            if op.var == "_tid":
                if type(op.hi) is _ir.ILit:
                    team = max(team, op.hi.v)
                else:
                    tid_bounded = False
        elif t is _ir.ForAssign or t is _ir.ForList:
            loop_vars.add(op.var)
            tid_bounded &= op.var != "_tid"
        elif t is _ir.SetIVar or t is _ir.LoadInt:
            other.add(op.name)
        elif t is _ir.RegionExit:
            team = max(team, op.threads)
        stack.extend(getattr(op, "body", ()))
    tid_bounded &= "_tid" not in other
    return team, team if tid_bounded else None, frozenset(loop_vars - other)


class _Emitter:
    """IR -> C source for one program's kernel, every mode in one
    function: the FTZ threshold ``thr_d``/``thr_f`` and the FMA level
    ``fm`` come from the running mode."""

    def __init__(self, kir: _ir.KernelIR) -> None:
        self.kir = kir
        self.thr = "thr_f" if kir.fp32 else "thr_d"
        self.lines: list[str] = []
        self.depth = 1
        self.uniq = 0
        # thread-lane size, bound of ``_tid`` (or None), and the int
        # variables that are never negative
        self.team, self.tid_bound, self.counters = _int_facts(kir.ops)
        self.bounds: dict[str, int] = {}  # array -> length checked at entry
        self.labels: set[str] = set()     # shared labels the body jumps to
        self._ierr = False                # statement used idx_fix
        # contraction-site operands evaluated ahead of the statement that
        # reads them: their declarations, and id(node) -> local name
        self.pre: list[str] = []
        self.shared: dict[int, str] = {}

    # -- plumbing ------------------------------------------------------
    def w(self, line: str) -> None:
        """Write one line, after the operands its statement hoisted."""
        indent = "    " * self.depth
        if self.pre:
            self.lines.extend(indent + decl for decl in self.pre)
            self.pre.clear()
            self.shared.clear()
        self.lines.append(indent + line)

    def uid(self) -> int:
        self.uniq += 1
        return self.uniq

    def goto(self, label: str) -> str:
        self.labels.add(label)
        return f"goto {label};"

    def chk(self) -> None:
        """Raise the interpreted kernel's IndexError after a statement whose
        expressions went through ``idx_fix`` (the flag is sticky per
        statement; expressions themselves are pure, so deferring the check
        to the statement boundary cannot change observable behaviour)."""
        if self._ierr:
            self.w(f"if (ierr) {self.goto('index_error')}")
            self._ierr = False

    def wrap(self, text: str) -> str:
        """An op result under the running mode: binary32 rounding for a
        float program, then the FTZ flush."""
        fn = "f32_sel" if self.kir.fp32 else "ftz_sel"
        return f"{fn}({text}, {self.thr})"

    def element(self, arr: str, idx) -> str:
        """``arr[idx]``: direct when the entry check covers the index,
        else through ``idx_fix``."""
        t = type(idx)
        need = (idx.v + 1 if t is _ir.ILit and idx.v >= 0
                else idx.modulus if t is _ir.IMod and idx.modulus > 0
                else self.tid_bound if t is _ir.IVar and idx.name == "_tid"
                else None)
        if need is None:
            self._ierr = True
            return f"a_{arr}[idx_fix({self.iexpr(idx)}, an_{arr}, &ierr)]"
        self.bounds[arr] = max(self.bounds.get(arr, 0), need)
        return f"a_{arr}[{self.iexpr(idx)}]"

    def site(self, e: _ir.FSite) -> str:
        """A contraction site's select on the FMA level.  The two forms
        hold the same operand nodes (:meth:`StructuralLowerer._site`):
        each one that is more than a literal or a variable is evaluated
        once, into a local ahead of the statement, and both forms read
        the local.  Evaluating an operand is pure (an ``idx_fix`` only
        sets the statement's sticky flag), and either form evaluates
        every operand, so hoisting them changes no bit."""
        plain: set[int] = set()
        stack = [e.plain]
        while stack:
            n = stack.pop()
            plain.add(id(n))
            stack.extend(_children(n))
        stack = [e.fused]
        while stack:
            n = stack.pop()
            if id(n) not in plain:
                stack.extend(_children(n))
            elif type(n) not in _LEAVES and id(n) not in self.shared:
                value = self.fexpr(n)
                name = f"_s{self.uid()}"
                self.pre.append(f"double {name} = {value};")
                self.shared[id(n)] = name
        return (f"(fm >= {_ir.FMA_MODES.index(e.fma)} ? "
                f"{self.fexpr(e.fused)} : {self.fexpr(e.plain)})")

    # -- expressions ---------------------------------------------------
    def fexpr(self, e) -> str:
        if self.shared:
            hoisted = self.shared.get(id(e))
            if hoisted is not None:
                return hoisted
        t = type(e)
        if t is _ir.FLit:
            return _clit(e.v)
        if t is _ir.FVar:
            return f"v_{e.name}"
        if t is _ir.ALoad:
            return self.element(e.arr, e.idx)
        if t is _ir.IToF:
            return f"(double)({self.iexpr(e.ix)})"
        if t is _ir.FNeg:
            return f"(-({self.fexpr(e.x)}))"
        if t is _ir.FBin:
            return self.wrap(f"{self.fexpr(e.a)} {e.op} {self.fexpr(e.b)}")
        if t is _ir.FSite:
            return self.site(e)
        if t is _ir.FFma:
            fn = "h_fmaf" if self.kir.fp32 else "h_fmad"
            return (f"ftz_sel({fn}({self.fexpr(e.a)}, {self.fexpr(e.b)}, "
                    f"{self.fexpr(e.c)}), {self.thr})")
        if t is _ir.FCall:
            return self.wrap(f"{e.func}({self.fexpr(e.arg)})")
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
            base = e.base
            if (e.modulus > 0 and type(base) is _ir.IVar
                    and base.name in self.counters):
                # never negative: C's % is Python's
                return f"(i_{base.name} % {e.modulus})"
            return f"py_mod({self.iexpr(base)}, {e.modulus})"
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
            parts = [f"{lane} += K[{op.k_cy}];"]
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
            rhs = self.fexpr(op.e)
            self.w(f"{self.element(op.arr, op.idx)} = {rhs};")
            self.chk()
            return
        if t is _ir.Flush:
            self.w("if (api->flush(env, cy, ccy, ins, br)) goto out;")
            return
        if t is _ir.Reload:
            self.w("if (api->reload(env, &cy, &ccy, &ins, &br)) goto out;")
            return
        if t is _ir.Prologue:
            self.w("if (api->prologue(env, &thr, &k_sch, &k_dsp)) goto out;")
            return
        if t is _ir.Count:
            self.w(f"n_{op.event}++;")
            return
        if t is _ir.CritEnter:
            self.w(f"if (++acq >= thr) {self.goto('livelock')}")
            return
        if t is _ir.RegionEnter:
            self.w(f"if (api->region_enter(env, {op.rid})) goto out;")
            self.w("n_sync = n_atomic = 0; acq0 = acq; sch = 0.0;")
            return
        if t is _ir.ThreadBegin:
            self.w("tcy = cy; tccy = ccy;")
            return
        if t is _ir.ThreadEnd:
            self.w("lcy[i__tid] = cy - tcy; lccy[i__tid] = ccy - tccy;")
            return
        if t is _ir.RegionExit:
            part = ("NULL, 0, NULL" if op.op is None
                    else f'part, part_n, "{op.op}"')
            self.w(f"if (api->region_exit(env, {op.rid}, &v_{op.comp}, "
                   f"{part}, n_sync, n_atomic, acq - acq0, sch, lcy, lccy, "
                   f"{op.threads})) goto out;")
            return
        if t is _ir.InitPartials:
            self.w("part_n = 0;")
            return
        if t is _ir.AppendPartial:
            self.w("if (part_n == part_cap) {")
            self.w("    long _nc = part_cap ? part_cap * 2 : 32;")
            self.w("    double *_np = (double *)realloc(part, "
                   "(size_t)_nc * sizeof(double));")
            self.w(f"    if (!_np) {self.goto('nomem')}")
            self.w("    part = _np; part_cap = _nc;")
            self.w("}")
            self.w(f"part[part_n++] = v_{op.name};")
            return
        if t is _ir.ForRange:
            u = self.uid()
            # C for-increment would leave var==hi where Python leaves the
            # last value; generated code never reads a loop var after its
            # loop, but keep the exact final value anyway
            self.w(f"for (long _k{u} = 0, _hi{u} = {self.iexpr(op.hi)}; "
                   f"_k{u} < _hi{u}; _k{u}++) {{")
            self.depth += 1
            self.w(f"i_{op.var} = _k{u};")
            self.block(op.body)
            self.depth -= 1
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
            self.w(f"    if (!_np) {self.goto('nomem')}")
            self.w(f"    q_{q} = _np; qc_{q} = _nc;")
            self.w("}")
            self.w(f"q_{q}[qn_{q}++] = {op.k};")
            return
        if t is _ir.If:
            u = self.uid()
            self.w("{")
            self.depth += 1
            cond = (f"({self.fexpr(op.cond.lhs)}) {op.cond.op} "
                    f"({self.fexpr(op.cond.rhs)})")
            self.w(f"int _b{u} = {cond};")
            self.chk()  # index check before entering the branch
            self.w(f"if (_b{u}) {{")
            self.depth += 1
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
            self.w(f'if (api->load_int(env, "{op.name}", &i_{op.name})) '
                   "goto out;")
            return
        if t is _ir.LoadScalar:
            v = f"v_{op.name}"
            self.w(f'if (api->load_float(env, "{op.name}", &{v})) goto out;')
            self.w(f"{v} = {self.wrap(v)};")
            return
        if t is _ir.LoadArray:
            n = op.name
            self.w(f'if (api->load_array(env, "{n}", {self.thr}, &a_{n}, '
                   f"&an_{n})) goto out;")
            return
        if t is _ir.Return:
            self.w(f"c->ret = v_{op.name}; rc = 0;")
            self.w("goto out;")
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

    # -- whole object --------------------------------------------------
    def emit(self) -> str:
        kir = self.kir
        self.block(kir.ops)
        body = self.lines
        nk = kir.n_constants

        head: list[str] = [_PRELUDE]
        w = head.append
        w("int krun(rk_ctx *c) {")
        w("    void *env = c->env;")
        w("    const rk_api *api = c->api;")
        w("    long fm = c->mode >> 1;")
        w(f"    double {self.thr}, K[{max(nk, 1)}];")
        w("    double cy = 0.0, ccy = 0.0, ins = 0.0, br = 0.0;")
        # the region block and the prologue's run constants
        w("    long thr = 0, acq = 0, acq0 = 0, n_sync = 0, n_atomic = 0;")
        w("    double sch = 0.0, k_sch = 0.0, k_dsp = 0.0, tcy = 0.0, "
          "tccy = 0.0;")
        w(f"    double lcy[{self.team}], lccy[{self.team}];")
        if "index_error" in self.labels:
            w("    int ierr = 0;")
        w("    double *part = NULL; long part_n = 0, part_cap = 0;")
        w("    int rc = -1;")
        ints = dict.fromkeys((*kir.int_vars, "_tid"))
        for name in ints:
            w(f"    long i_{name} = 0;")
        for name in kir.fp_vars:
            w(f"    double v_{name} = 0.0;")
        for name in kir.arrays:
            w(f"    double *a_{name} = NULL; long an_{name} = 0;")
        for name in kir.queues:
            w(f"    long *q_{name} = NULL; "
              f"long qn_{name} = 0, qc_{name} = 0;")
        w(f"    if (c->mode < 0 || c->mode >= {2 * len(_ir.FMA_MODES)}) {{")
        w("        api->error(env, RK_E_MODE); return -1;")
        w("    }")
        w(f"    if (c->nk != {nk}) {{ api->error(env, RK_E_ARITY); "
          "return -1; }")
        # the bound check, before the prologue and any cost-state write
        for name, need in self.bounds.items():
            w(f'    if (api->array_len(env, "{name}") < {need}) '
              "return RK_SHORT;")
        if nk:
            w(f"    for (int _i = 0; _i < {nk}; _i++) K[_i] = c->K[_i];")
        minimum = "RK_MIN_NORMAL_F" if kir.fp32 else "RK_MIN_NORMAL_D"
        w(f"    {self.thr} = c->mode & 1 ? {minimum} : 0.0;")

        tail: list[str] = ["    goto out;"]
        w = tail.append
        if "livelock" in self.labels:  # the one abort every acquire shares
            w("livelock:")
            w("    api->livelock(env, acq - acq0, n_atomic, cy, ccy, ins, "
              "br);")
            w("    goto out;")
        if "index_error" in self.labels:
            w("index_error:")
            w("    api->error(env, RK_E_INDEX);")
            w("    goto out;")
        if "nomem" in self.labels:
            w("nomem:")
            w("    api->error(env, RK_E_MEMORY);")
        w("out:")
        for name in kir.arrays:
            w(f"    free(a_{name});")
        for name in kir.queues:
            w(f"    free(q_{name});")
        w("    free(part);")
        w("    return rc;")
        w("}")
        return "\n".join(head + body + tail) + "\n"


def emit_c(kir: _ir.KernelIR) -> str:
    """The full C source of one program's kernel object, every mode in
    one ``krun``."""
    return _Emitter(kir).emit()


def build_info() -> dict:
    """How C-kernel builds have gone this process: kernel objects built
    or loaded in either tier (a program loaded again after leaving the
    kernel cache counts again), kernels fallen back to interp, and the
    last failure reason (if any)."""
    return {"compiled": _N_COMPILED, "failed": _N_FAILED,
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
    """Build-or-reuse the content-addressed kernel object for one source
    at the context's build tier; its ``run(args, rt, cost, K, mode)``, or
    ``None`` on failure."""
    global _N_COMPILED
    tier = kernel_build_tier()
    flags = _CFLAGS[tier]
    key = sha256("\0".join((*flags, source)).encode()).hexdigest()[:20]
    cache_dir = _native._cache_dir()
    if not _native._cache_dir_trusted(cache_dir):
        _fail(f"untrusted cache dir {cache_dir}")
        return None
    out = cache_dir / f"_repro_kernel-{key}.so"
    if not out.exists():
        cc = _native._find_cc()
        if cc is None:
            _fail("no C compiler found (CC/cc/gcc/clang)")
            return None
        ok, why = _native.build_shared_object(cc, source, out, flags)
        if not ok:
            _fail(f"build failed: {why}")
            return None
    try:
        run = _native.load_kernel_object(out)
    except Exception as exc:
        _fail(f"load failed: {type(exc).__name__}: {exc}")
        return None
    _N_COMPILED += 1
    if _obs.enabled():
        _obs.inc("repro_kernel_builds_total", tier=tier)
    return run


def bind_c(structural, constants: tuple[float, ...], mode: _ir.Mode):
    """The compiled entry for one vendor's binding of a kernel, or
    ``None`` (caller falls back to interp) when the build is impossible —
    with the reason recorded and warned once, never silently.  The first
    bind of a kernel builds its object, which every mode then shares.  A
    call whose array is shorter than the kernel's bound runs on the
    interpreted entry (counted as
    ``repro_kernel_runs_total{backend="interp",reason="short_array"}``
    when telemetry is on)."""
    run = structural.backend_cache.get("c")
    if run is None:
        if "c_failed" in structural.backend_cache:
            return None
        run = _load_module(emit_c(structural.ir))
        if run is None:
            structural.backend_cache["c_failed"] = _LAST_FAILURE
            return None
        structural.backend_cache["c"] = run
    ftz, fma = mode
    code = int(ftz) | _ir.FMA_MODES.index(fma) << 1

    def _short(_args, _rt, _c):
        if _obs.enabled():
            _obs.inc("repro_kernel_runs_total", backend="interp",
                     reason="short_array")
        return bind_py(structural, constants, mode)(_args, _rt, _c)

    def _kernel(_args, _rt, _c, run=run, constants=constants, code=code):
        comp = run(_args, _rt, _c, constants, code)
        return _short(_args, _rt, _c) if comp is None else comp
    return _kernel
