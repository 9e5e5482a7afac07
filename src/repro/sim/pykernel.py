"""Python backend: emit the interpreted kernel from :mod:`repro.sim.ir`.

The twin of :mod:`repro.sim.ckernel`: one kernel IR under one FP mode
``(ftz, fma)`` becomes one Python function ``_kernel(_args, _rt, _c)``
whose body performs the IR's ops in order — FP ops through the
:mod:`repro.sim.values` helpers (bound as parameter defaults, so every
hot-loop reference is a ``LOAD_FAST``), cost charges into four
fast-local accumulator lanes, the region block (event counters,
acquires, schedule lane, thread lanes) in fast locals too, and
worksharing schedules walked by :func:`chunks`; ``_rt`` is called at
the prologue, region enter and exit and the livelock abort only.  This
is the reference semantics every other backend is checked against, and
the fallback whenever the C backend cannot build.

The emitter specializes the kernel to its mode: each op gets the wrap
the mode implies, and each contraction site is written in the form the
mode selects.  The source is compiled once per mode, on the first
interp bind under it, and the code object is cached in
``StructuralKernel.backend_cache``, so vendors of one mode share it and
the C path never compiles Python.  Each vendor's ``_K`` constants tuple
is bound as a default argument and unpacked into ``_K0, _K1, ...``
locals once per call.
"""

from __future__ import annotations

import math

from . import ir as _ir
from .values import MATH_IMPLS, f32, f32z, fdiv, fma_d, fma_f, ftz_d, ftz_f


def chunks(kind: str, chunk: int, n: int, t: int, tid: int):
    """The ``(start, end)`` iteration chunks of ``range(max(0, n))``
    that the ``kind`` schedule (:data:`repro.sim.ir.SCHEDULES`) deals
    thread ``tid`` of a ``t`` team, in order (see
    :class:`repro.sim.ir.ForAssign`)."""
    if kind == "static" and chunk <= 0:  # the default: contiguous blocks
        base, rem = divmod(max(0, n), t)
        lo = tid * base + min(tid, rem)
        yield lo, lo + base + (tid < rem)
        return
    c = max(chunk, 1)
    if kind != "guided":  # round-robin chunks of c
        for start in range(tid * c, n, c * t):
            yield start, min(start + c, n)
        return
    start, k = 0, 0
    while start < n:  # each chunk takes half a share of what is left
        size = max(c, -(-(n - start) // (2 * t)))
        if k % t == tid:
            yield start, min(start + size, n)
        start += size
        k += 1


_HELPERS = {
    "_chunks": chunks,
    "_div": fdiv,
    "_f32": f32,
    "_f32z": f32z,
    "_fma": fma_d,
    "_fmaf": fma_f,
    "_ftz": ftz_d,
    "_ftzf": ftz_f,
    "_MATH": MATH_IMPLS,
    # the names ``repr`` gives a non-finite literal
    "inf": math.inf,
    "nan": math.nan,
}

#: helper parameter defaults appended to the kernel signature so every
#: hot-loop helper reference is a LOAD_FAST instead of a LOAD_GLOBAL;
#: the kernel's libm helpers follow them as ``_m_<name>``
_HELPER_PARAMS = ("_f32", "_f32z", "_ftz", "_ftzf", "_div", "_fma",
                  "_fmaf", "_chunks")

#: accumulator synchronization: the kernel mirrors the four CostState
#: lanes in fast locals and exchanges them with the shared object only
#: around the region boundaries (see RegionExecutor)
_FLUSH = "_c.cy = _cy; _c.ccy = _ccy; _c.ins = _ins; _c.br = _br"
_RELOAD = "_cy = _c.cy; _ccy = _c.ccy; _ins = _c.ins; _br = _c.br"

#: the helper every op result passes through, by ``(fp32, ftz)``
_WRAPPY = {(False, False): None, (True, False): "_f32",
           (True, True): "_f32z", (False, True): "_ftz"}

#: int expressions that need no parentheses as an operand
_IATOMS = (_ir.ILit, _ir.IVar, _ir.IMax0)


class _Emitter:
    """IR -> Python source for one kernel under one mode."""

    def __init__(self, kir: _ir.KernelIR, mode: _ir.Mode) -> None:
        self.kir = kir
        ftz, fma = mode
        self.ftz = ftz
        self.fma_level = _ir.FMA_MODES.index(fma)
        self.wrap_fn = _WRAPPY[kir.fp32, ftz]
        self.lines: list[str] = []
        self.depth = 0

    def wrap(self, text: str) -> str:
        fn = self.wrap_fn
        return text if fn is None else f"{fn}({text})"

    def w(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    # -- expressions ---------------------------------------------------
    def fexpr(self, e) -> str:
        t = type(e)
        if t is _ir.FLit:
            return repr(e.v)  # repr round-trips floats exactly
        if t is _ir.FVar:
            return e.name
        if t is _ir.ALoad:
            return f"{e.arr}[{self.iexpr(e.idx)}]"
        if t is _ir.IToF:
            return f"float({self.iexpr(e.ix)})"
        if t is _ir.FNeg:
            return f"(-({self.fexpr(e.x)}))"
        if t is _ir.FBin:
            a, b = self.fexpr(e.a), self.fexpr(e.b)
            if e.op == "/" and not (type(e.b) is _ir.FLit and e.b.v != 0.0):
                # only a nonzero (or nan) constant divisor may use
                # Python's own `/`, which raises on zero
                return self.wrap(f"_div({a}, {b})")
            return self.wrap(f"({a} {e.op} {b})")
        if t is _ir.FSite:
            fused = self.fma_level >= _ir.FMA_MODES.index(e.fma)
            return self.fexpr(e.fused if fused else e.plain)
        if t is _ir.FFma:
            fp32 = self.kir.fp32
            text = (f"{'_fmaf' if fp32 else '_fma'}({self.fexpr(e.a)}, "
                    f"{self.fexpr(e.b)}, {self.fexpr(e.c)})")
            if self.ftz:
                text = f"{'_ftzf' if fp32 else '_ftz'}({text})"
            return text
        if t is _ir.FCall:
            return self.wrap(f"_m_{e.func}({self.fexpr(e.arg)})")
        raise TypeError(f"unknown FP expr {t.__name__}")

    def iexpr(self, e) -> str:
        t = type(e)
        if t is _ir.ILit:
            return str(e.v)
        if t is _ir.IVar:
            return e.name
        if t is _ir.IMax0:
            return f"max(0, {e.name})"
        if t is _ir.IMod:
            return f"({self.iexpr(e.base)}) % {e.modulus}"
        if t is _ir.IMul:
            return f"({self.iexpr(e.a)}) * {self.iatom(e.b)}"
        if t is _ir.IFloorDiv:
            return f"{self.iatom(e.a)} // {self.iatom(e.b)}"
        if t is _ir.IModV:
            return f"{self.iatom(e.a)} % {self.iatom(e.b)}"
        raise TypeError(f"unknown int expr {t.__name__}")

    def iatom(self, e) -> str:
        text = self.iexpr(e)
        return text if isinstance(e, _IATOMS) else f"({text})"

    # -- statements ----------------------------------------------------
    def block(self, header: str, ops: list) -> None:
        self.w(header)
        self.depth += 1
        if not ops:
            self.w("pass")
        for op in ops:
            self.stmt(op)
        self.depth -= 1

    def stmt(self, op) -> None:  # noqa: C901 - one arm per IR op
        t = type(op)
        if t is _ir.Charge:
            lane = "_ccy" if op.lane else "_cy"
            parts = [f"{lane} += _K{op.k_cy}"]
            if op.k_ins is not None:
                parts.append(f"_ins += _K{op.k_ins}")
            if op.br:
                parts.append(f"_br += {op.br:.0f}")
            self.w("; ".join(parts))
        elif t is _ir.SetVar:
            self.w(f"{op.name} = {self.fexpr(op.e)}")
        elif t is _ir.SetIVar:
            self.w(f"{op.name} = {self.iexpr(op.e)}")
        elif t is _ir.AStore:
            self.w(f"{op.arr}[{self.iexpr(op.idx)}] = {self.fexpr(op.e)}")
        elif t is _ir.Flush:
            self.w(_FLUSH)
        elif t is _ir.Reload:
            self.w(_RELOAD)
        elif t is _ir.Prologue:
            self.w("_thr, _SCH, _DSP = _rt.prologue(); _acq = 0")
        elif t is _ir.Count:
            self.w(f"_n_{op.event} += 1")
        elif t is _ir.CritEnter:
            self.w("_acq += 1")
            self.w("if _acq >= _thr: _rt.livelock(_acq - _acq0, _n_atomic, "
                   "_cy, _ccy, _ins, _br)")
        elif t is _ir.RegionEnter:
            self.w(f"_rt.region_enter({op.rid})")
            self.w("_n_sync = _n_atomic = 0; _acq0 = _acq; _sch = 0.0; "
                   "_lcy = []; _lccy = []")
        elif t is _ir.ThreadBegin:
            self.w("_tcy = _cy; _tccy = _ccy")
        elif t is _ir.ThreadEnd:
            self.w("_lcy.append(_cy - _tcy); _lccy.append(_ccy - _tccy)")
        elif t is _ir.RegionExit:
            tail = ("None, None" if op.op is None
                    else f"_partials, {op.op!r}")
            self.w(f"{op.comp} = _rt.region_exit({op.rid}, {op.comp}, "
                   f"{tail}, _n_sync, _n_atomic, _acq - _acq0, _sch, _lcy, "
                   "_lccy)")
        elif t is _ir.InitPartials:
            self.w("_partials = []")
        elif t is _ir.AppendPartial:
            self.w(f"_partials.append({op.name})")
        elif t is _ir.ForRange:
            self.block(f"for {op.var} in range({self.iexpr(op.hi)}):",
                       op.body)
        elif t is _ir.ForAssign:
            self._for_assign(op)
        elif t is _ir.ForList:
            self.block(f"for {op.var} in {op.queue}:", op.body)
        elif t is _ir.QNew:
            self.w(f"{op.queue} = []")
        elif t is _ir.QPush:
            self.w(f"{op.queue}.append({op.k})")
        elif t is _ir.If:
            c = op.cond
            self.block(f"if ({self.fexpr(c.lhs)}) {c.op} "
                       f"({self.fexpr(c.rhs)}):", op.body)
        elif t is _ir.IfIntEq:
            self.block(f"if {op.var} == {op.k}:", op.body)
        elif t is _ir.LoadInt:
            self.w(f"{op.name} = _args[{op.name!r}]")
        elif t is _ir.LoadScalar:
            self.w(f"{op.name} = {self.wrap(f'_args[{op.name!r}]')}")
        elif t is _ir.LoadArray:
            arg = f"_args[{op.name!r}]"
            if not self.ftz:
                self.w(f"{op.name} = list({arg})")
            else:  # DAZ: inputs flushed on load
                fn = "_ftzf" if self.kir.fp32 else "_ftz"
                self.w(f"{op.name} = [{fn}(_x) for _x in {arg}]")
        elif t is _ir.Return:
            self.w(f"return {op.name}")
        else:
            raise TypeError(f"unknown IR op {t.__name__}")

    def _for_assign(self, op: _ir.ForAssign) -> None:
        static = op.kind == "static"
        if static:  # one schedule step per thread and encounter
            self.w("_sch += _SCH")
        u = op.var
        self.w(f"for _s_{u}, _e_{u} in _chunks({op.kind!r}, {op.chunk}, "
               f"{self.iexpr(op.n)}, {op.threads}, _tid):")
        self.depth += 1
        if not static:  # one dispatch per chunk the thread grabs
            self.w("_sch += _DSP")
        self.block(f"for {op.var} in range(_s_{u}, _e_{u}):", op.body)
        self.depth -= 1

    # -- whole function ------------------------------------------------
    def emit(self) -> str:
        helpers = ", ".join([f"{h}={h}" for h in _HELPER_PARAMS]
                            + [f"_m_{name}=_MATH[{name!r}]"
                               for name in self.kir.math_funcs])
        self.block(f"def _kernel(_args, _rt, _c, _K=_K, {helpers}):",
                   self.kir.ops)
        n = self.kir.n_constants
        if n:  # unpack the constants tuple into fast locals once per call
            names = ", ".join(f"_K{i}" for i in range(n))
            self.lines.insert(1, f"    {names}{',' if n == 1 else ''} = _K")
        return "\n".join(self.lines) + "\n"


def emit_py(kir: _ir.KernelIR, mode: _ir.Mode) -> str:
    """The Python source of one kernel under one FP mode (defines
    ``_kernel``)."""
    return _Emitter(kir, mode).emit()


def bind_py(structural, constants: tuple[float, ...], mode: _ir.Mode):
    """The interpreted entry for one vendor's binding of a kernel;
    compiles the source for ``mode`` on its first bind in this process."""
    key = ("py", *mode)
    code = structural.backend_cache.get(key)
    if code is None:
        kir = structural.ir
        shape = f"{'f32' if kir.fp32 else 'f64'}{'+ftz' if mode[0] else ''}"
        code = compile(emit_py(kir, mode), f"<lowered:{shape}>", "exec")
        structural.backend_cache[key] = code
    ns = dict(_HELPERS)
    ns["_K"] = constants
    exec(code, ns)  # noqa: S102 - our own generated code
    return ns["_kernel"]
