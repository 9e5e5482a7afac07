"""AST -> kernel IR lowering: the execution half of a simulated compiler.

A vendor "compiles" a generated program by lowering it to a typed
register IR (:mod:`repro.sim.ir`) via this module and binding its cost
model and FP mode to that IR; a kernel backend then makes the IR
executable — Python source for the interpreted reference
(:mod:`repro.sim.pykernel`) or a C extension (:mod:`repro.sim.ckernel`).
The lowered kernel:

* evaluates with exact IEEE semantics (binary64 values; binary32
  programs round each operation result to binary32; division and math
  calls are IEEE-total; Intel's FTZ flushes every result),
* contracts ``a*b + c`` shapes into one-rounding FMAs as the vendor's
  ``-ffp-contract`` mode does at the requested ``-O`` level: ``basic``
  (Clang, Intel) fuses the addition shapes ``a*b + c``/``c + a*b``,
  ``aggressive`` (GCC's ``-O3`` default ``-ffp-contract=fast``) also the
  subtraction shapes ``a*b - c``/``c - a*b``, and nothing fuses below
  ``-O2``.  A contracted multiply-add rounds once instead of twice; on
  extreme inputs the difference cascades into overflow/NaN divergence
  and branch flips — the numerical-exception mechanism of Section V-B,
* charges **statically pre-computed** cost constants per straight-line
  segment into local accumulators (``_cy``/``_ins``/``_br``; blocks
  inside critical sections charge the ``_ccy`` lane instead) that are
  synchronized with the shared :class:`CostState` at region boundaries,
* keeps every per-event interaction with the simulated OpenMP runtime
  in the kernel — event counts, critical-section acquires against the
  livelock threshold, ``omp for`` schedule walks and their cycles,
  per-thread lane deltas — and enters the runtime
  (:class:`repro.sim.runtime.RegionExecutor`) only at the prologue,
  region enter and exit, and the livelock abort.

Per-thread semantics follow the sequential-serialization argument: for
race-free programs (the generator's guarantee), executing team members
one after another is a legal OpenMP schedule, so results are exact and
deterministic; reduction partials are combined in thread order, the same
for every vendor, so numeric divergence comes only from *compiler*
transforms — as in the paper.

Two-phase lowering
------------------

Lowering is split into two passes so the vendors and opt levels of one
program share one walk of its tree:

1. a **structural pass** (:class:`StructuralLowerer`) — expression and
   statement lowering, constant folding, charge-site discovery, then the
   IR passes of :data:`repro.sim.irpasses.PASSES` (dead-code
   elimination: statements whose values reach no output go) — runs
   once per program and produces a :class:`StructuralKernel`: the
   program's :class:`~repro.sim.ir.KernelIR`, whose cost charges read
   slots of a constants tuple ``_K`` (two per charge site: cycles,
   instructions) and whose contraction sites
   (:class:`~repro.sim.ir.FSite`) hold both their fused and their
   two-rounding form, plus each region's team size (all the
   :class:`~repro.sim.runtime.RegionExecutor` knows of a region) and the
   program's count of critical sections inside ``omp for`` loops, which
   gates the hang fault;
2. a **cost pass** (:func:`bind_costs`) — pure arithmetic over the
   vendor's :class:`~repro.vendors.base.OpCosts` and scale factors —
   fills in the per-vendor ``_K`` values without touching the IR,
   pricing each contraction site as fused or not under the vendor's
   effective FMA mode, and records the mode ``(ftz, fma)`` the kernel
   runs under, yielding a :class:`LoweredKernel`.

The cost pass reproduces the exact floating-point evaluation order of the
classic single-pass lowerer (including its ``%.1f`` constant rounding),
so two-phase kernels are byte-identical in behaviour to the seed
reproduction.  Campaign compiles go through
:class:`repro.sim.kcache.KernelCache`, whose entry for a program holds
its structural kernel and every kernel bound from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isfinite

from ..core.nodes import (
    ArrayRef,
    Assignment,
    BinOp,
    Block,
    BoolExpr,
    DeclAssign,
    Expr,
    ForLoop,
    FPNumeral,
    IfBlock,
    IntNumeral,
    MathCall,
    ModIdx,
    OmpAtomic,
    OmpBarrier,
    OmpCritical,
    OmpParallel,
    OmpSections,
    OmpSingle,
    OmpTask,
    OmpTaskwait,
    Paren,
    Program,
    ThreadIdx,
    UnaryOp,
    VarRef,
)
from typing import TYPE_CHECKING

from ..core.types import AssignOpKind, BinOpKind, FPType
from ..obs import metrics as _obs
from . import ir as _ir, irpasses as _irpasses
from .pykernel import bind_py
from .values import MATH_IMPLS, f32, f32z, fdiv, fma_d, fma_f, ftz_d

if TYPE_CHECKING:  # typing-only: breaks the sim <-> vendors import cycle
    from ..vendors.base import VendorModel


class CostState:
    """Mutable cost accumulator shared between lowered code and runtime.

    ``cy``  — compute cycles on the current lane (serial or thread),
    ``ccy`` — cycles spent inside critical sections,
    ``ins`` — instructions, ``br`` — branches (both lane-independent).
    """

    __slots__ = ("cy", "ccy", "ins", "br")

    def __init__(self) -> None:
        self.cy = 0.0
        self.ccy = 0.0
        self.ins = 0.0
        self.br = 0.0


_OPSYM = {BinOpKind.ADD: "+", BinOpKind.SUB: "-", BinOpKind.MUL: "*",
          BinOpKind.DIV: "/"}


# ======================================================================
# FMA contraction
# ======================================================================

#: the weakest FMA mode that fuses a contraction site, by its op
_SITE_MODE = {BinOpKind.ADD: "basic", BinOpKind.SUB: "aggressive"}


def effective_fma_mode(fma_mode: str, opt_level: str) -> str:
    """FMA contraction only engages at -O2 and above."""
    if opt_level in ("-O0", "-O1"):
        return "none"
    return fma_mode


def opt_cycle_scale(opt_level: str) -> float:
    """Compute-cycle multiplier for the optimization level (unoptimized
    scalar code is ~3x slower; used by the opt-level ablation bench)."""
    return {"-O0": 3.2, "-O1": 1.6, "-O2": 1.08, "-O3": 1.0}[opt_level]


def _product(e: Expr) -> BinOp | None:
    """``e`` as a product once parentheses are stripped: contraction
    looks through parentheses, as real compilers do."""
    while isinstance(e, Paren):
        e = e.inner
    if isinstance(e, BinOp) and e.op is BinOpKind.MUL:
        return e
    return None


def _contraction(e: BinOp) -> tuple[BinOp, bool] | None:
    """The product a contraction site ``e`` fuses, and whether it is the
    left operand; ``None`` when ``e`` is not a site (an ADD or SUB with a
    product operand — the left one when both are)."""
    if e.op in _SITE_MODE:
        prod = _product(e.lhs)
        if prod is not None:
            return prod, True
        prod = _product(e.rhs)
        if prod is not None:
            return prod, False
    return None


# ======================================================================
# cost model (phase 2 arithmetic)
# ======================================================================

class CostModel:
    """Vendor-parameterized static cost functions.

    The bodies replicate the classic lowerer's recursion *exactly* —
    including association order of the floating-point sums — so the
    two-phase pipeline produces bit-identical cost constants.  A
    contraction site that ``fma`` fuses costs as one multiply-add over
    its three operands (a negated addend costs like a unary minus).
    """

    __slots__ = ("ops", "fuses")

    def __init__(self, ops, fma: str) -> None:
        self.ops = ops
        level = _ir.FMA_MODES.index(fma)
        #: the ops whose contraction sites ``fma`` fuses
        self.fuses = frozenset(op for op, mode in _SITE_MODE.items()
                               if _ir.FMA_MODES.index(mode) <= level)

    def expr_cost(self, e: Expr) -> tuple[float, float]:
        ops = self.ops
        if isinstance(e, (FPNumeral, IntNumeral, ThreadIdx)):
            return (0.0, 0.0)
        if isinstance(e, VarRef):
            return ops.load if e.var.is_fp else (ops.load[0] * 0.5, 1.0)
        if isinstance(e, ArrayRef):
            cy, ins = ops.load
            return (cy * 1.4, ins + 1.0)  # index arithmetic + indirection
        if isinstance(e, (Paren, UnaryOp)):
            inner = e.inner if isinstance(e, Paren) else e.operand
            cy, ins = self.expr_cost(inner)
            return (cy + 0.5, ins + 0.5)
        if isinstance(e, BinOp):
            site = _contraction(e) if e.op in self.fuses else None
            if site is not None:
                prod, left = site
                ac, ai = self.expr_cost(prod.lhs)
                bc, bi = self.expr_cost(prod.rhs)
                cc, ci = self.expr_cost(e.rhs if left else e.lhs)
                if left and e.op is BinOpKind.SUB:  # fma(a, b, -c)
                    cc, ci = cc + 0.5, ci + 0.5
                oc, oi = ops.arith
                return (ac + bc + cc + oc * 1.3, ai + bi + ci + oi * 1.1)
            lc, li = self.expr_cost(e.lhs)
            rc, ri = self.expr_cost(e.rhs)
            oc, oi = ops.div if e.op is BinOpKind.DIV else ops.arith
            return (lc + rc + oc, li + ri + oi)
        if isinstance(e, MathCall):
            ic, ii = self.expr_cost(e.arg)
            mc, mi = ops.math_call
            return (ic + mc, ii + mi)
        raise TypeError(f"no cost for {type(e).__name__}")

    def stmt_cost(self, s) -> tuple[float, float]:
        ops = self.ops
        if isinstance(s, Assignment):
            cy, ins = self.expr_cost(s.expr)
            sc, si = ops.store
            if isinstance(s.target, ArrayRef):
                sc, si = sc * 1.4, si + 1.0
            if s.op.binop is not None:  # compound: extra read + op
                lc, li = ops.load
                oc, oi = (ops.div if s.op is AssignOpKind.DIV_ASSIGN
                          else ops.arith)
                cy, ins = cy + lc + oc, ins + li + oi
            return (cy + sc, ins + si)
        if isinstance(s, DeclAssign):
            cy, ins = self.expr_cost(s.expr)
            sc, si = ops.store
            return (cy + sc, ins + si)
        raise TypeError(f"not a simple statement: {type(s).__name__}")

    def extra_cost(self, extra: tuple) -> tuple[float, float]:
        """Cost of a charge site's non-statement contribution."""
        kind = extra[0]
        if kind == "loop":  # one (or, collapsed, two) loop-head iterations
            mult = extra[1]
            cy, ins = self.ops.loop_iter
            return (cy, ins) if mult == 1 else (cy * mult, ins * mult)
        if kind == "if":  # condition eval + compare + branch
            cc, ci = self.expr_cost(extra[1])
            bc, bi = self.ops.branch
            return (cc + bc + self.ops.load[0], ci + bi + 1.0)
        if kind == "branch":  # bare branch (single's arrival election)
            return self.ops.branch
        raise ValueError(f"unknown extra kind {kind!r}")  # pragma: no cover

    def site_cost(self, site: "ChargeSite") -> tuple[float, float]:
        """Raw (cycles, instructions) of one charge site, pre-scaling:
        each statement priced once, each lane a builtin ``sum`` in
        statement order (compensated since CPython 3.12, so a plain
        ``+=`` loop would not give the same bits)."""
        costs = [self.stmt_cost(s) for s in site.stmts]
        cy = sum(c for c, _ in costs)
        ins = sum(i for _, i in costs)
        if site.extra is not None:
            ecy, eins = self.extra_cost(site.extra)
            cy, ins = cy + ecy, ins + eins
        return cy, ins


# ======================================================================
# charge sites: what the cost pass fills in per vendor
# ======================================================================

class ChargeSite:
    """One fused cost charge: statements plus an optional head term.

    ``k_cy``/``k_ins`` are the indices of its cycle and instruction
    costs in the kernel's ``_K`` constants tuple; its branch count is
    vendor-independent and baked into the IR as a literal.
    """

    __slots__ = ("stmts", "extra", "k_cy", "k_ins")

    def __init__(self, stmts: tuple, extra: tuple | None, k_cy: int,
                 k_ins: int):
        self.stmts = stmts
        self.extra = extra
        self.k_cy = k_cy
        self.k_ins = k_ins


class RuntimeConstSite:
    """An unscaled runtime-parameter constant (e.g. one atomic RMW).

    The classic lowerer charged these from inside a runtime call; the
    two-phase kernel charges them inline (same accumulator, same order),
    so the runtime never touches the lanes inside a region.
    """

    __slots__ = ("param", "k")

    def __init__(self, param: str, k: int):
        self.param = param
        self.k = k


@dataclass
class StructuralKernel:
    """Phase-1 output: one program's IR plus charge-site metadata."""

    ir: _ir.KernelIR = field(repr=False)
    sites: tuple[object, ...]  # ChargeSite | RuntimeConstSite, in _K order
    #: each parallel region's team size (``num_threads``), by region id
    teams: tuple[int, ...]
    #: critical sections nested in ``omp for`` loops
    #: (:attr:`~repro.core.features.ProgramFeatures.critical_in_omp_for`):
    #: the hang fault arms only where this is nonzero
    critical_in_omp_for: int = 0
    #: executables built lazily by the backends on first bind and shared
    #: by every vendor: the Python code compiled per mode, the loaded C
    #: kernel object (unloaded once this kernel is collected)
    backend_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)


@dataclass
class LoweredKernel:
    """Output of lowering: one program's kernel bound to one vendor's
    constants and FP mode."""

    structural: StructuralKernel = field(repr=False, compare=False)
    #: ``(ftz, fma)``: the FTZ wraps and contraction sites the kernel runs
    mode: _ir.Mode
    constants: tuple[float, ...] = ()
    _entries: dict = field(default_factory=dict, repr=False, compare=False)

    def bind(self, backend: str | None = None) -> object:
        """The ``_kernel`` callable for ``backend`` (default: the
        process-active :func:`repro.sim.backend.active_kernel_backend`).

        Entries are memoized per backend, so repeated binds (every
        execution site, every input) reuse one callable instead of
        re-exec'ing / re-building.  The C backend falls back to the
        interpreted entry — recording why — when unavailable; with
        telemetry on, ``repro_kernel_binds_total{backend,reason}`` counts
        the backend each new entry runs on, ``reason`` ``selected`` when
        it is the backend asked for (C, or interp asked for explicitly)
        and ``fallback`` when a ``c`` or ``auto`` request ended on interp,
        whether the build failed or the selection already resolved to
        interp.
        """
        requested = backend
        if backend is None:
            from .backend import active_kernel_backend
            backend = active_kernel_backend()
        entry = self._entries.get(backend)
        if entry is None:
            entry = self._make_entry(backend, requested)
            self._entries[backend] = entry
        return entry

    def _make_entry(self, backend: str, requested: str | None) -> object:
        entry = None
        if backend == "c":
            from .ckernel import bind_c
            # None when unavailable (no toolchain / untrusted cache /
            # build failure): ckernel recorded the reason and warned
            entry = bind_c(self.structural, self.constants, self.mode)
        if _obs.enabled():
            if requested is None:
                from .backend import kernel_backend_info
                requested = kernel_backend_info()["requested"]
            _obs.inc("repro_kernel_binds_total",
                     backend="interp" if entry is None else "c",
                     reason=("selected" if entry is not None
                             or requested == "interp" else "fallback"))
        if entry is None:
            entry = bind_py(self.structural, self.constants, self.mode)
        return entry


# ======================================================================
# phase 1: the structural pass
# ======================================================================

class StructuralLowerer:
    """Lowers one program to the IR every vendor and opt level shares.

    What a vendor contributes — per-op costs, cycle/instruction scales,
    fault scaling — lives in the ``_K`` constants tuple that
    :func:`bind_costs` computes in phase 2; its FP mode selects, at run
    time, the FTZ wraps and the form of each contraction site.
    """

    def __init__(self, program: Program):
        self.program = program
        self.fp32 = program.fp_type is FPType.FLOAT
        self.b = _ir.IrBuilder()
        #: each region's team size, by region id: the last is the team of
        #: the region being lowered (worksharing, section-arm assignment)
        self.teams: list[int] = []
        self.math_used: set[str] = set()
        self.sites: list[object] = []
        self._n_constants = 0
        #: name substitution (comp -> reduction private copy inside regions)
        self._subst: dict[str, str] = {}
        self._in_crit = False
        #: lowering the body of an ``omp for`` loop (the grammar keeps
        #: regions, section arms and tasks out of one), and the criticals
        #: met there: the
        #: :attr:`~repro.core.features.ProgramFeatures.critical_in_omp_for`
        #: count, taken on this walk
        self._in_omp_for = False
        self._crit_in_omp_for = 0
        #: per-arm task-queue lowering state (no nesting: one at a time)
        self._arm: dict | None = None
        self._uniq = 0

    # ==================================================================
    # expressions
    # ==================================================================
    def _fold(self, raw: float) -> float | None:
        """A constant op result under the kernel's wrap — the helpers the
        kernel calls, so a folded constant is bit-identical to executing
        the operation — or ``None`` when it must stay an op: non-finite
        (the Python kernel has no literal for inf/nan), or flushed to
        other bits under FTZ (the value would depend on the mode)."""
        if self.fp32:
            v, flushed = f32(raw), f32z(raw)
        else:
            v, flushed = raw, ftz_d(raw)
        return v if v == flushed and isfinite(v) else None

    def _bin(self, op: str, lhs: tuple, rhs: tuple) -> tuple:
        """One arithmetic op over lowered operands, folded when both are
        constants."""
        (lv, a), (rv, b) = lhs, rhs
        if lv is not None and rv is not None:
            v = self._fold(fdiv(lv, rv) if op == "/" else lv + rv if op == "+"
                           else lv - rv if op == "-" else lv * rv)
            if v is not None:
                return v, _ir.FLit(v)
        return None, _ir.FBin(op, a, b)

    def _fma(self, a: tuple, b: tuple, c: tuple) -> tuple:
        """A contracted multiply-add, folded when all three operands are
        constants."""
        (av, fa), (bv, fb), (cv, fc) = a, b, c
        if av is not None and bv is not None and cv is not None:
            v = self._fold(fma_f(av, bv, cv) if self.fp32
                           else fma_d(av, bv, cv))
            if v is not None:
                return v, _ir.FLit(v)
        return None, _ir.FFma(fa, fb, fc)

    @staticmethod
    def _neg(x: tuple) -> tuple:
        v, e = x
        return (None, _ir.FNeg(e)) if v is None else (-v, _ir.FLit(-v))

    def _site(self, e: BinOp, prod: BinOp, left: bool) -> tuple:
        """A contraction site: both forms over one lowering of the
        operands.  ``a*b - c`` fuses as ``fma(a, b, -c)`` and ``c - a*b``
        as ``fma(-a, b, c)``."""
        op = _OPSYM[e.op]
        a, b = self._expr(prod.lhs), self._expr(prod.rhs)
        other = self._expr(e.rhs if left else e.lhs)
        product = self._bin("*", a, b)
        pv, plain = (self._bin(op, product, other) if left
                     else self._bin(op, other, product))
        if op == "-":
            if left:
                other = self._neg(other)
            else:
                a = self._neg(a)
        fv, fused = self._fma(a, b, other)
        if pv is not None and fv is not None and pv.hex() == fv.hex():
            return pv, plain  # the same literal under every mode
        return None, _ir.FSite(fused, plain, _SITE_MODE[e.op])

    def _expr(self, e: Expr) -> tuple[float | None, object]:
        """(folded constant value or None, IR expression).

        Subtrees whose leaves are all numerals are evaluated once at
        lowering time — with the very helper functions the kernel would
        call — and become one :class:`~repro.sim.ir.FLit` of the result.
        Folding changes only the executed ops: the static cost model
        still charges the full tree, so costs, counters, and results
        match unfolded execution exactly.  A fold whose bits depend on
        the kernel's mode stays an op; at a contraction site the two
        forms fold separately (one literal per mode).
        """
        if isinstance(e, FPNumeral):
            v = f32(e.value) if self.fp32 else e.value
            return v, _ir.FLit(v)
        if isinstance(e, IntNumeral):
            v = float(e.value)
            return v, _ir.FLit(v)
        if isinstance(e, VarRef):
            name = self._subst.get(e.var.name, e.var.name)
            if e.var.is_fp:
                return None, _ir.FVar(self.b.fvar(name))
            return None, _ir.IToF(_ir.IVar(self.b.ivar(name)))
        if isinstance(e, ArrayRef):
            idx = self._index(e.index)
            return None, _ir.ALoad(self.b.array(e.var.name), idx)
        if isinstance(e, ThreadIdx):
            return None, _ir.IToF(_ir.IVar("_tid"))
        if isinstance(e, Paren):
            return self._expr(e.inner)  # grouping is explicit in the IR
        if isinstance(e, UnaryOp):
            x = self._expr(e.operand)
            return x if e.op == "+" else self._neg(x)
        if isinstance(e, BinOp):
            site = _contraction(e)
            if site is not None:
                return self._site(e, *site)
            return self._bin(_OPSYM[e.op], self._expr(e.lhs),
                             self._expr(e.rhs))
        if isinstance(e, MathCall):
            self.math_used.add(e.func)
            av, arg = self._expr(e.arg)
            if av is not None:
                v = self._fold(MATH_IMPLS[e.func](av))
                if v is not None:
                    return v, _ir.FLit(v)
            return None, _ir.FCall(e.func, arg)
        raise TypeError(f"cannot lower expression {type(e).__name__}")

    def _index(self, idx) -> object:
        if isinstance(idx, IntNumeral):
            return _ir.ILit(idx.value)
        if isinstance(idx, VarRef):
            return _ir.IVar(self.b.ivar(self._subst.get(idx.var.name,
                                                         idx.var.name)))
        if isinstance(idx, ThreadIdx):
            return _ir.IVar("_tid")
        if isinstance(idx, ModIdx):
            return _ir.IMod(self._index(idx.base), idx.modulus)
        raise TypeError(f"cannot lower index {type(idx).__name__}")

    def _bool(self, b: BoolExpr) -> _ir.Cmp:
        lhs = self._expr(b.lhs)[1]  # a scalar or an array element
        return _ir.Cmp(lhs, b.op.value, self._expr(b.rhs)[1])

    # ==================================================================
    # charge sites
    # ==================================================================
    def _alloc(self) -> int:
        k = self._n_constants
        self._n_constants += 1
        return k

    def _charge(self, stmts: tuple = (), extra: tuple | None = None,
                br: float = 0.0) -> None:
        """Emit one accumulator update for a fused segment.

        Every segment holds a statement or a head term, and every
        vendor per-op cost is strictly positive, so each site charges
        both cycles and instructions; the *values* are ``_K`` slots the
        cost pass fills per vendor.
        """
        k_cy = self._alloc()
        k_ins = self._alloc()
        self.sites.append(ChargeSite(stmts, extra, k_cy, k_ins))
        self.b.emit(_ir.Charge(1 if self._in_crit else 0, k_cy, k_ins,
                               float(br)))

    def _runtime_const(self, param: str) -> None:
        """Charge one unscaled runtime-parameter constant on the cycle
        lane (always ``_cy`` — the classic runtime charged ``c.cy``
        regardless of the critical lane)."""
        k = self._alloc()
        self.sites.append(RuntimeConstSite(param, k))
        self.b.emit(_ir.Charge(0, k, None, 0.0))

    # ==================================================================
    # statements
    # ==================================================================
    def _emit_assignment(self, s: Assignment) -> None:
        rhs = self._expr(s.expr)[1]
        if isinstance(s.target, VarRef):
            name = self._subst.get(s.target.var.name, s.target.var.name)
            idx = None
            load: object = _ir.FVar(self.b.fvar(name))
        else:
            name = s.target.var.name
            idx = self._index(s.target.index)
            load = _ir.ALoad(self.b.array(name), idx)
        binop = s.op.binop
        if binop is not None:  # compound: read-modify-write
            rhs = _ir.FBin(_OPSYM[binop], load, rhs)
        if idx is None:
            self.b.emit(_ir.SetVar(name, rhs))
        else:
            self.b.emit(_ir.AStore(name, idx, rhs))

    def _emit_simple(self, s) -> None:
        if isinstance(s, Assignment):
            self._emit_assignment(s)
        elif isinstance(s, DeclAssign):
            e_ir = self._expr(s.expr)[1]
            self.b.emit(_ir.SetVar(self.b.fvar(s.var.name), e_ir))
        else:  # pragma: no cover
            raise TypeError(type(s).__name__)

    def block(self, b: Block, *, extra: tuple | None = None,
              tid_var: str | None = None) -> None:
        """Lower a block: segments of simple statements get one fused
        charge."""
        pending: list = []
        first = True

        def flush() -> None:
            nonlocal first
            if not pending and not (first and extra is not None):
                return
            if first:
                self._charge(tuple(pending), extra,
                             extra[2] if extra is not None else 0.0)
                first = False
            else:
                self._charge(tuple(pending))
            for s in pending:
                self._emit_simple(s)
            pending.clear()

        for s in b.stmts:
            if isinstance(s, (Assignment, DeclAssign)):
                pending.append(s)
                continue
            flush()
            if first:  # control statement heads the block: standalone charge
                if extra is not None:
                    self._charge((), extra, extra[2])
                first = False
            self.stmt(s, tid_var=tid_var)
        flush()

    def stmt(self, s, *, tid_var: str | None = None) -> None:
        b = self.b
        if isinstance(s, IfBlock):
            self._charge((), ("if", s.cond.rhs), 1.0)
            cond = self._bool(s.cond)
            b.push()
            self.block(s.body, tid_var=tid_var)
            b.emit(_ir.If(cond, b.pop()))
            return
        if isinstance(s, ForLoop):
            self._emit_for(s, tid_var=tid_var)
            return
        if isinstance(s, OmpCritical):
            # the acquire may abort with the livelock fault, which hands
            # the runtime the cost lanes itself
            b.emit(_ir.CritEnter())
            self._crit_in_omp_for += self._in_omp_for
            was = self._in_crit
            self._in_crit = True
            self.block(s.body, tid_var=tid_var)
            self._in_crit = was
            return
        if isinstance(s, OmpAtomic):
            assert tid_var is not None, "atomic outside a parallel region"
            # the update itself costs like the plain statement; the RMW
            # premium is the runtime's uncontended atomic cost, charged
            # inline; contention is priced at region exit from the count
            self._charge((s.update,))
            self._runtime_const("atomic_rmw_cycles")
            b.emit(_ir.Count("atomic"))
            self._emit_assignment(s.update)
            return
        if isinstance(s, OmpSingle):
            assert tid_var is not None, "single outside a parallel region"
            # the simulator serializes threads, so "the first thread to
            # arrive" is deterministically thread 0; the body's effects
            # are restricted to team-uniform values, making any choice of
            # executor equivalent (and the native run deterministic)
            self._charge((), ("branch",), 1.0)
            b.push()
            self.block(s.body, tid_var=tid_var)
            b.emit(_ir.IfIntEq(tid_var, 0, b.pop()))
            self._runtime_const("single_arrival_cycles")
            b.emit(_ir.Count("sync"))  # its implicit barrier
            return
        if isinstance(s, OmpBarrier):
            assert tid_var is not None, "barrier outside a parallel region"
            b.emit(_ir.Count("sync"))
            return
        if isinstance(s, OmpSections):
            assert tid_var is not None, "sections outside a parallel region"
            self._emit_sections(s, tid_var)
            return
        if isinstance(s, OmpTask):
            self._emit_task_spawn(s)
            return
        if isinstance(s, OmpTaskwait):
            assert tid_var is not None, "taskwait outside a parallel region"
            self._emit_taskwait(tid_var)
            return
        if isinstance(s, OmpParallel):
            self._emit_region(s)
            return
        raise TypeError(f"cannot lower statement {type(s).__name__}")

    def _bound(self, bound) -> object:
        if isinstance(bound, IntNumeral):
            return _ir.ILit(bound.value)
        return _ir.IMax0(self.b.ivar(bound.var.name))

    def _schedule(self, s: ForLoop, n: object, var: str):
        """The loop op (awaiting its body) that runs ``var`` over the
        iterations of ``n`` that ``s``'s schedule clause assigns to the
        current thread (no clause: the default static blocks)."""
        kind = "static" if s.schedule is None else s.schedule.value
        return partial(_ir.ForAssign, var, n, kind, s.schedule_chunk,
                       self.teams[-1])

    def _emit_for(self, s: ForLoop, *, tid_var: str | None) -> None:
        lv = s.loop_var.name
        if s.omp_for and s.collapse == 2:
            self._emit_collapsed_for(s, tid_var=tid_var)
            return
        n = self._bound(s.bound)
        if s.omp_for:
            assert tid_var is not None, "omp for outside region"
            loop = self._schedule(s, n, lv)
        else:
            loop = partial(_ir.ForRange, lv, n)
        self.b.ivar(lv)
        self.b.push()
        was = self._in_omp_for
        self._in_omp_for = was or s.omp_for
        self.block(s.body, extra=("loop", 1, 1.0), tid_var=tid_var)
        self._in_omp_for = was
        self.b.emit(loop(self.b.pop()))
        if s.omp_for:
            self.b.emit(_ir.Count("sync"))  # its implicit barrier

    def _emit_collapsed_for(self, s: ForLoop, *, tid_var: str | None) -> None:
        """``collapse(2)``: iterate the flattened n1*n2 space and derive
        both induction variables — exactly how a conforming runtime
        schedules a collapsed nest (row-major logical iteration space)."""
        assert tid_var is not None, "omp for outside region"
        inner = s.body.stmts[0]
        assert isinstance(inner, ForLoop) and not inner.omp_for
        b = self.b
        lv, ilv = s.loop_var.name, inner.loop_var.name
        n2v, nv, kv = f"_n2_{lv}", f"_n_{lv}", f"_k_{lv}"
        n1, n2 = self._bound(s.bound), self._bound(inner.bound)
        b.emit(_ir.SetIVar(b.ivar(n2v), n2))
        b.emit(_ir.SetIVar(b.ivar(nv), _ir.IMul(n1, _ir.IVar(n2v))))
        loop = self._schedule(s, _ir.IVar(nv), kv)
        b.ivar(kv)
        b.push()
        b.emit(_ir.SetIVar(b.ivar(lv),
                           _ir.IFloorDiv(_ir.IVar(kv), _ir.IVar(n2v))))
        b.emit(_ir.SetIVar(b.ivar(ilv),
                           _ir.IModV(_ir.IVar(kv), _ir.IVar(n2v))))
        # two loop heads' worth of bookkeeping per flattened iteration
        was, self._in_omp_for = self._in_omp_for, True
        self.block(inner.body, extra=("loop", 2, 2.0), tid_var=tid_var)
        self._in_omp_for = was
        b.emit(loop(b.pop()))
        b.emit(_ir.Count("sync"))

    # ==================================================================
    # worksharing-graph constructs: sections arms + task queue
    # ==================================================================
    def _emit_sections(self, s: OmpSections, tid_var: str) -> None:
        """``omp sections``: deterministic round-robin arm assignment.

        Arm ``i`` executes on thread ``i % team``.  The serialized-team
        argument still holds because nothing outside an arm may read what
        it writes until the region-exit barrier (the generator's
        exclusive-ownership rule), so executing each arm at its thread's
        turn is a legal schedule.  Every thread charges the construct's
        dispatch cost and one guard branch per arm; the implicit barrier
        at the construct's end is a sync round counted by the runtime.
        """
        t = self.teams[-1]
        self._runtime_const("sections_dispatch_cycles")
        for i, sec in enumerate(s.sections):
            self._charge((), ("branch",), 1.0)
            self.b.push()
            self._emit_arm_body(sec.body, tid_var)
            self.b.emit(_ir.IfIntEq(tid_var, i % t, self.b.pop()))
        self.b.emit(_ir.Count("sync"))  # its implicit barrier

    def _emit_arm_body(self, body: Block, tid_var: str) -> None:
        """One section arm; hosts the arm's deterministic task queue."""
        uid = self._uniq
        self._uniq += 1
        qn = f"_tq{uid}"
        if any(isinstance(st, OmpTask) for st in body.stmts):
            self.b.emit(_ir.QNew(self.b.queue(qn)))
        prev = self._arm
        self._arm = {"qn": qn, "uid": uid, "tasks": [], "pending": False,
                     "tid_var": tid_var}
        try:
            self.block(body, tid_var=tid_var)
            if self._arm["pending"]:
                # unjoined tasks complete at the construct's implicit
                # barrier: drain them at arm end, in spawn order
                self._emit_task_drain()
        finally:
            self._arm = prev

    def _emit_task_spawn(self, s: OmpTask) -> None:
        arm = self._arm
        assert arm is not None, "task outside a section arm"
        k = len(arm["tasks"])
        arm["tasks"].append(s)
        arm["pending"] = True
        # deferral is bookkeeping, not execution: charge the runtime's
        # spawn cost now, run the body when the queue drains
        self._runtime_const("task_spawn_cycles")
        self.b.emit(_ir.QPush(arm["qn"], k))

    def _emit_taskwait(self, tid_var: str) -> None:
        arm = self._arm
        assert arm is not None, "taskwait outside a section arm"
        self._runtime_const("taskwait_cycles")
        if arm["tasks"]:
            self._emit_task_drain()

    def _emit_task_drain(self) -> None:
        """Execute the queue's deferred tasks in spawn order (the
        deterministic model of a runtime's task pool: the encountering
        thread drains its own queue at the join point)."""
        arm = self._arm
        assert arm is not None and arm["tasks"]
        b = self.b
        qn, tk = arm["qn"], f"_tk{arm['uid']}"
        b.ivar(tk)
        b.push()
        for k, task in enumerate(arm["tasks"]):
            self._charge((), ("branch",), 1.0)
            b.push()
            self.block(task.body, tid_var=arm["tid_var"])
            b.emit(_ir.IfIntEq(tk, k, b.pop()))
        b.emit(_ir.ForList(qn, tk, b.pop()))
        b.emit(_ir.QNew(qn))  # a fresh queue for the tasks spawned next
        arm["pending"] = False

    # ==================================================================
    # parallel regions
    # ==================================================================
    def _emit_region(self, s: OmpParallel) -> None:
        rid = len(self.teams)
        t = s.clauses.num_threads
        self.teams.append(t)
        privs = list(s.clauses.private)
        fprivs = list(s.clauses.firstprivate)
        reduction = s.clauses.reduction
        comp = self.program.comp.name

        # region_enter charges spawn instructions/branches and may abort
        # with the miscompile fault, and region_exit replaces the summed
        # thread cycles with the region's elapsed time: synchronize both
        # directions around each
        b = self.b
        b.emit(_ir.Flush())
        b.emit(_ir.RegionEnter(rid))
        b.emit(_ir.Reload())
        for v in privs + fprivs:
            b.emit(_ir.SetVar(b.fvar(f"_save_{v.name}"),
                              _ir.FVar(b.fvar(v.name))))
        if reduction is not None:
            b.emit(_ir.InitPartials())
        b.ivar("_tid")
        b.push()
        b.emit(_ir.ThreadBegin())
        for v in fprivs:
            b.emit(_ir.SetVar(v.name, _ir.FVar(f"_save_{v.name}")))
        if reduction is not None:
            # the OpenMP-specified initializer: 0 / 1 / largest / smallest
            # representable value of the program's fp type
            ident = reduction.identity(self.program.fp_type)
            b.emit(_ir.SetVar(b.fvar("_rcomp"), _ir.FLit(ident)))
            self._subst[comp] = "_rcomp"
        try:
            self.block(s.body, tid_var="_tid")
        finally:
            self._subst.pop(comp, None)
        if reduction is not None:
            b.emit(_ir.AppendPartial("_rcomp"))
        b.emit(_ir.ThreadEnd())
        b.emit(_ir.ForRange("_tid", _ir.ILit(t), b.pop()))
        b.emit(_ir.Flush())
        b.emit(_ir.RegionExit(rid, b.fvar(comp), None if reduction is None
                              else reduction.value, t))
        b.emit(_ir.Reload())
        for v in privs + fprivs:
            b.emit(_ir.SetVar(v.name, _ir.FVar(f"_save_{v.name}")))

    # ==================================================================
    # whole kernel
    # ==================================================================
    def lower(self) -> StructuralKernel:
        b = self.b
        b.emit(_ir.Prologue())
        for p in self.program.params:
            if p.is_int:
                b.emit(_ir.LoadInt(b.ivar(p.name)))
            elif p.is_array:
                b.emit(_ir.LoadArray(b.array(p.name)))
            else:
                b.emit(_ir.LoadScalar(b.fvar(p.name)))
        b.emit(_ir.Reload())  # seed the local accumulator mirror
        self.block(self.program.body)
        b.emit(_ir.Flush())  # the driver reads the shared state after return
        b.emit(_ir.Return(b.fvar(self.program.comp.name)))
        kernel_ir = b.finish(n_constants=self._n_constants,
                             math_funcs=tuple(sorted(self.math_used)),
                             fp32=self.fp32)
        for ir_pass in _irpasses.PASSES:
            kernel_ir = ir_pass(kernel_ir)
        return StructuralKernel(
            ir=kernel_ir, sites=tuple(self.sites), teams=tuple(self.teams),
            critical_in_omp_for=self._crit_in_omp_for)


# ======================================================================
# phase 2: the vendor cost pass
# ======================================================================

def bind_costs(structural: StructuralKernel, vendor: "VendorModel",
               opt_level: str, *, fast_armed: bool = False,
               slow_armed: bool = False) -> LoweredKernel:
    """Fill a structural kernel's ``_K`` slots with one vendor's costs
    and record the vendor's FP mode.

    Pure arithmetic — no IR rewrite, no code generation; the constants
    reproduce the classic lowerer's values exactly, including its
    ``%.1f`` source-literal rounding, with each contraction site priced
    as fused or not under the vendor's effective FMA mode.
    """
    fma = effective_fma_mode(vendor.traits.fma_mode, opt_level)
    # bake all static scales into the per-site constants; the latent
    # fast/slow paths are whole-binary codegen effects
    cy_scale = (vendor.traits.cycle_scale * opt_cycle_scale(opt_level)
                * (vendor.faults.fast_factor if fast_armed else 1.0)
                * (vendor.faults.slow_factor if slow_armed else 1.0))
    ins_scale = vendor.traits.instr_scale
    model = CostModel(vendor.ops, fma)
    constants = [0.0] * structural.ir.n_constants
    for site in structural.sites:
        if isinstance(site, RuntimeConstSite):
            constants[site.k] = float(getattr(vendor.runtime, site.param))
            continue
        cy, ins = model.site_cost(site)
        constants[site.k_cy] = float(f"{cy * cy_scale:.1f}")
        constants[site.k_ins] = float(f"{ins * ins_scale:.1f}")
    return LoweredKernel(structural=structural, constants=tuple(constants),
                         mode=(vendor.traits.flush_subnormals, fma))
