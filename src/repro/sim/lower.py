"""AST -> kernel IR lowering: the execution half of a simulated compiler.

A vendor "compiles" a generated program by (1) applying its FP transforms
(:mod:`repro.vendors.optimizer`) and (2) lowering the result to a typed
register IR (:mod:`repro.sim.ir`) via this module; a kernel backend then
makes the IR executable — Python source for the interpreted reference
(:mod:`repro.sim.pykernel`) or a C extension (:mod:`repro.sim.ckernel`).
The lowered kernel:

* evaluates with exact IEEE semantics (binary64 values; binary32
  programs round each operation result to binary32; division and math
  calls are IEEE-total; Intel's FTZ flushes every result),
* charges **statically pre-computed** cost constants per straight-line
  segment into local accumulators (``_cy``/``_ins``/``_br``; blocks
  inside critical sections charge the ``_ccy`` lane instead) that are
  synchronized with the shared :class:`CostState` around every runtime
  hook that observes or mutates it,
* drives the simulated OpenMP runtime through ``_rt`` hooks
  (:class:`repro.sim.runtime.RegionExecutor`): region enter/exit, static
  chunking of ``omp for``, critical enter/exit, per-thread accounting.

Per-thread semantics follow the sequential-serialization argument: for
race-free programs (the generator's guarantee), executing team members
one after another is a legal OpenMP schedule, so results are exact and
deterministic; reduction partials are combined in thread order, the same
for every vendor, so numeric divergence comes only from *compiler*
transforms — as in the paper.

Two-phase lowering
------------------

Lowering is split into two passes so the three simulated vendors stop
re-walking identical trees:

1. a **structural pass** (:class:`StructuralLowerer`) — expression and
   statement lowering, constant folding, region metadata, charge-site
   discovery — runs once per *kernel shape* ``(program, ftz, fma_mode)``
   and produces a :class:`StructuralKernel`: the shape's
   :class:`~repro.sim.ir.KernelIR`, whose cost charges read slots of a
   constants tuple ``_K``;
2. a **cost pass** (:func:`bind_costs`) — pure arithmetic over the
   vendor's :class:`~repro.vendors.base.OpCosts` and scale factors —
   fills in the per-vendor ``_K`` values without touching the AST or the
   IR, yielding a :class:`LoweredKernel`.

The cost pass reproduces the exact floating-point evaluation order of the
classic single-pass lowerer (including its ``%.1f`` constant rounding),
so two-phase kernels are byte-identical in behaviour to the seed
reproduction.  Campaign compiles go through
:class:`repro.sim.kcache.KernelCache`, which caches both phases.
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
from . import ir as _ir
from .fptransforms import FusedMulAdd, opt_cycle_scale
from .pykernel import bind_py
from .values import MATH_IMPLS, f32, f32z, fdiv, fma_d, fma_f, ftz_d, ftz_f

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


@dataclass
class RegionMeta:
    """Static facts about one parallel region, indexed by region id."""

    has_omp_for: bool = False
    has_critical: bool = False
    reduction_op: str | None = None
    n_threads: int = 32
    combined_for: bool = False
    has_atomic: bool = False
    has_single: bool = False
    has_barrier: bool = False
    has_collapse: bool = False
    #: worksharing-graph constructs (round-robin arm assignment / the
    #: deterministic cost-accounted task queue)
    has_sections: bool = False
    has_tasks: bool = False
    n_section_arms: int = 0
    n_tasks: int = 0
    #: explicit schedule kinds appearing on the region's worksharing loops
    schedules: tuple[str, ...] = ()


_OPSYM = {BinOpKind.ADD: "+", BinOpKind.SUB: "-", BinOpKind.MUL: "*",
          BinOpKind.DIV: "/"}


# ======================================================================
# cost model (phase 2 arithmetic, also used structurally in phase 1)
# ======================================================================

class _RefOps:
    """Positivity reference mirroring the OpCosts defaults.

    The structural pass only needs to know whether a charge site has
    *any* cost contribution (all vendor per-op costs are strictly
    positive, so zero cost is a structural property, not a vendor one);
    using a local mirror avoids importing :mod:`repro.vendors.base` at
    module scope, which would recreate the sim <-> vendors import cycle.
    """

    arith = (14.0, 4.0)
    div = (40.0, 5.0)
    math_call = (110.0, 40.0)
    load = (10.0, 1.0)
    store = (12.0, 1.0)
    branch = (6.0, 2.0)
    loop_iter = (8.0, 3.0)


class CostModel:
    """Vendor-parameterized static cost functions.

    The bodies replicate the classic lowerer's recursion *exactly* —
    including association order of the floating-point sums — so the
    two-phase pipeline produces bit-identical cost constants.
    """

    __slots__ = ("ops",)

    def __init__(self, ops) -> None:
        self.ops = ops

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
            lc, li = self.expr_cost(e.lhs)
            rc, ri = self.expr_cost(e.rhs)
            oc, oi = ops.div if e.op is BinOpKind.DIV else ops.arith
            return (lc + rc + oc, li + ri + oi)
        if isinstance(e, FusedMulAdd):
            ac, ai = self.expr_cost(e.a)
            bc, bi = self.expr_cost(e.b)
            cc, ci = self.expr_cost(e.c)
            oc, oi = ops.arith
            return (ac + bc + cc + oc * 1.3, ai + bi + ci + oi * 1.1)
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
        """Raw (cycles, instructions) of one charge site, pre-scaling."""
        cy = sum(self.stmt_cost(s)[0] for s in site.stmts)
        ins = sum(self.stmt_cost(s)[1] for s in site.stmts)
        if site.extra is not None:
            ecy, eins = self.extra_cost(site.extra)
            cy, ins = cy + ecy, ins + eins
        return cy, ins


_REF_MODEL = CostModel(_RefOps)


# ======================================================================
# charge sites: what the cost pass fills in per vendor
# ======================================================================

class ChargeSite:
    """One fused cost charge: statements plus an optional head term.

    ``k_cy``/``k_ins`` are indices into the kernel's ``_K`` constants
    tuple (``None`` when that component is structurally zero); ``br`` is
    vendor-independent and baked into the IR as a literal.
    """

    __slots__ = ("stmts", "extra", "br", "in_crit", "k_cy", "k_ins")

    def __init__(self, stmts: tuple, extra: tuple | None, br: float,
                 in_crit: bool):
        self.stmts = stmts
        self.extra = extra
        self.br = br
        self.in_crit = in_crit
        self.k_cy: int | None = None
        self.k_ins: int | None = None


class RuntimeConstSite:
    """An unscaled runtime-parameter constant (e.g. one atomic RMW).

    The classic lowerer charged these from inside the runtime hook; the
    two-phase kernel charges them inline (same accumulator, same order)
    so the hook stays cost-transparent and needs no local/shared
    synchronization.
    """

    __slots__ = ("param", "k")

    def __init__(self, param: str, k: int):
        self.param = param
        self.k = k


@dataclass
class StructuralKernel:
    """Phase-1 output: one kernel shape's IR plus charge-site metadata."""

    ir: _ir.KernelIR = field(repr=False)
    sites: tuple[object, ...]  # ChargeSite | RuntimeConstSite, in _K order
    regions: list[RegionMeta]
    #: per-shape executables (compiled Python code, C extension module),
    #: built lazily by the backends on first bind, shared across vendors
    backend_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)
    #: ``(cache, family key)`` of the KernelCache family this shape joined
    #: when the cache lowered it (the C backend builds a family as one
    #: module); ``None`` outside a cache: a family of one
    family: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class LoweredKernel:
    """Output of lowering: one kernel shape bound to one vendor's
    constants."""

    structural: StructuralKernel = field(repr=False, compare=False)
    constants: tuple[float, ...] = ()
    regions: list[RegionMeta] = field(default_factory=list)
    _entries: dict = field(default_factory=dict, repr=False, compare=False)

    def bind(self, backend: str | None = None) -> object:
        """The ``_kernel`` callable for ``backend`` (default: the
        process-active :func:`repro.sim.backend.active_kernel_backend`).

        Entries are memoized per backend, so repeated binds (every
        execution site, every input) reuse one callable instead of
        re-exec'ing / re-building.  The C backend falls back to the
        interpreted entry — recording why — when unavailable.
        """
        if backend is None:
            from .backend import active_kernel_backend
            backend = active_kernel_backend()
        entry = self._entries.get(backend)
        if entry is None:
            entry = self._make_entry(backend)
            self._entries[backend] = entry
        return entry

    def _make_entry(self, backend: str) -> object:
        if backend == "c":
            from .ckernel import bind_c
            entry = bind_c(self.structural, self.constants)
            if entry is not None:
                return entry
            # unavailable (no toolchain / untrusted cache / build
            # failure): sim.backend recorded the reason and warned
        return bind_py(self.structural, self.constants)


# ======================================================================
# phase 1: the structural pass
# ======================================================================

class StructuralLowerer:
    """Lowers one (FP-transformed) program to its kernel-shape IR.

    ``ftz`` is the only vendor trait that changes the lowered *ops* (the
    FMA mode changed the input tree before this pass); everything else a
    vendor contributes — per-op costs, cycle/instruction scales, fault
    scaling — lives in the ``_K`` constants tuple that
    :func:`bind_costs` computes in phase 2.
    """

    def __init__(self, program: Program, *, ftz: bool):
        self.program = program
        self.fp32 = program.fp_type is FPType.FLOAT
        self.ftz = ftz
        self.b = _ir.IrBuilder()
        self._wrapc = _ir.wrap_code(self.fp32, ftz)
        self.regions: list[RegionMeta] = []
        self.math_used: set[str] = set()
        self.sites: list[object] = []
        self._n_constants = 0
        #: name substitution (comp -> reduction private copy inside regions)
        self._subst: dict[str, str] = {}
        self._in_crit = False
        #: team size of the region being lowered (section-arm assignment)
        self._region_threads = 1
        #: per-arm task-queue lowering state (no nesting: one at a time)
        self._arm: dict | None = None
        self._uniq = 0

    # ==================================================================
    # expressions
    # ==================================================================
    def _wrap_value(self, v: float) -> float:
        """The value an op result gets under this shape's wrap code —
        same helper functions the kernel calls, so folded constants are
        bit-identical to executing the operation in the kernel."""
        if self.fp32:
            return f32z(v) if self.ftz else f32(v)
        if self.ftz:
            return ftz_d(v)
        return v

    def _expr(self, e: Expr) -> tuple[float | None, object]:
        """(folded constant value or None, IR expression).

        Subtrees whose leaves are all numerals are evaluated once at
        lowering time — with the very helper functions the kernel would
        call — and become one :class:`~repro.sim.ir.FLit` of the result.
        Folding changes only the executed ops: the static cost model
        still charges the full tree, so costs, counters, and results
        match unfolded execution exactly.  Non-finite results stay ops
        (the Python kernel has no literal for inf/nan).
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
            v, inner = self._expr(e.operand)
            if e.op == "+":
                return v, inner
            if v is not None:
                return -v, _ir.FLit(-v)
            return None, _ir.FNeg(inner)
        if isinstance(e, BinOp):
            (lv, lhs), (rv, rhs) = self._expr(e.lhs), self._expr(e.rhs)
            if lv is not None and rv is not None:
                op = e.op
                raw = (fdiv(lv, rv) if op is BinOpKind.DIV else
                       lv + rv if op is BinOpKind.ADD else
                       lv - rv if op is BinOpKind.SUB else lv * rv)
                folded = self._wrap_value(raw)
                if isfinite(folded):
                    return folded, _ir.FLit(folded)
            return None, _ir.FBin(_OPSYM[e.op], lhs, rhs, self._wrapc)
        if isinstance(e, FusedMulAdd):
            av, a = self._expr(e.a)
            bv, b = self._expr(e.b)
            cv, c = self._expr(e.c)
            if e.negate_product:
                if av is not None:
                    av = -av
                    a = _ir.FLit(av)
                else:
                    a = _ir.FNeg(a)
            if av is not None and bv is not None and cv is not None:
                folded = fma_f(av, bv, cv) if self.fp32 else fma_d(av, bv, cv)
                if self.ftz:
                    folded = ftz_f(folded) if self.fp32 else ftz_d(folded)
                if isfinite(folded):
                    return folded, _ir.FLit(folded)
            return None, _ir.FFma(a, b, c, self.fp32, self.ftz)
        if isinstance(e, MathCall):
            self.math_used.add(e.func)
            av, arg = self._expr(e.arg)
            if av is not None:
                folded = self._wrap_value(MATH_IMPLS[e.func](av))
                if isfinite(folded):
                    return folded, _ir.FLit(folded)
            return None, _ir.FCall(e.func, arg, self._wrapc)
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

        Which components appear is decided structurally (every vendor
        per-op cost is strictly positive, so a site's cost is zero for
        one vendor exactly when it is zero for all); the *values* are
        ``_K`` slots the cost pass fills per vendor.
        """
        site = ChargeSite(stmts, extra, br, self._in_crit)
        ref_cy, ref_ins = _REF_MODEL.site_cost(site)
        if ref_cy:
            site.k_cy = self._alloc()
        if ref_ins:
            site.k_ins = self._alloc()
        if site.k_cy is not None or site.k_ins is not None:
            self.sites.append(site)
        if site.k_cy is not None or site.k_ins is not None or br:
            self.b.emit(_ir.Charge(1 if self._in_crit else 0, site.k_cy,
                                   site.k_ins, float(br)))

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
            rhs = _ir.FBin(_OPSYM[binop], load, rhs, self._wrapc)
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
            # crit_enter may abort with the livelock fault: the shared
            # cost state must be current when the driver reads it
            b.emit(_ir.Flush())
            b.emit(_ir.Hook("crit_enter", False))
            was = self._in_crit
            self._in_crit = True
            self.block(s.body, tid_var=tid_var)
            self._in_crit = was
            b.emit(_ir.Hook("crit_exit", False))
            return
        if isinstance(s, OmpAtomic):
            assert tid_var is not None, "atomic outside a parallel region"
            # the update itself costs like the plain statement; the RMW
            # premium is the runtime's uncontended atomic cost, charged
            # inline so the hook stays cost-transparent
            self._charge((s.update,))
            self._runtime_const("atomic_rmw_cycles")
            b.emit(_ir.Hook("atomic_update", False))
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
            b.emit(_ir.Hook("single_done", True))
            return
        if isinstance(s, OmpBarrier):
            assert tid_var is not None, "barrier outside a parallel region"
            b.emit(_ir.Hook("barrier", True))
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

    def _schedule(self, s: ForLoop, n: object, label: str, var: str):
        """The loop op (awaiting its body) that runs ``var`` over the
        iterations of ``n`` that ``s``'s schedule clause assigns to the
        current thread; the default schedule first emits its
        :class:`~repro.sim.ir.Chunk`."""
        if s.schedule is None or (s.schedule.value == "static"
                                  and not s.schedule_chunk):
            # the default schedule: static contiguous blocks — keep the
            # cheap two-endpoint form on this hot path
            self.b.emit(_ir.Chunk(label, n))
            return partial(_ir.ForRange, var,
                           _ir.IVar(self.b.ivar(f"_lo_{label}")),
                           _ir.IVar(self.b.ivar(f"_hi_{label}")))
        return partial(_ir.ForAssign, var, n, s.schedule.value,
                       s.schedule_chunk)

    def _emit_for(self, s: ForLoop, *, tid_var: str | None) -> None:
        lv = s.loop_var.name
        if s.omp_for and s.collapse == 2:
            self._emit_collapsed_for(s, tid_var=tid_var)
            return
        n = self._bound(s.bound)
        if s.omp_for:
            assert tid_var is not None, "omp for outside region"
            loop = self._schedule(s, n, lv, lv)
        else:
            loop = partial(_ir.ForRange, lv, _ir.ILit(0), n)
        self.b.ivar(lv)
        self.b.push()
        self.block(s.body, extra=("loop", 1, 1.0), tid_var=tid_var)
        self.b.emit(loop(self.b.pop()))
        if s.omp_for:
            self.b.emit(_ir.Hook("omp_for_done", True))

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
        loop = self._schedule(s, _ir.IVar(nv), lv, kv)
        b.ivar(kv)
        b.push()
        b.emit(_ir.SetIVar(b.ivar(lv),
                           _ir.IFloorDiv(_ir.IVar(kv), _ir.IVar(n2v))))
        b.emit(_ir.SetIVar(b.ivar(ilv),
                           _ir.IModV(_ir.IVar(kv), _ir.IVar(n2v))))
        # two loop heads' worth of bookkeeping per flattened iteration
        self.block(inner.body, extra=("loop", 2, 2.0), tid_var=tid_var)
        b.emit(loop(b.pop()))
        b.emit(_ir.Hook("omp_for_done", True))

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
        t = self._region_threads
        self._runtime_const("sections_dispatch_cycles")
        for i, sec in enumerate(s.sections):
            self._charge((), ("branch",), 1.0)
            self.b.push()
            self._emit_arm_body(sec.body, tid_var)
            self.b.emit(_ir.IfIntEq(tid_var, i % t, self.b.pop()))
        self.b.emit(_ir.Hook("sections_done", True))

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
        self.b.emit(_ir.Hook("task_spawn", True))

    def _emit_taskwait(self, tid_var: str) -> None:
        arm = self._arm
        assert arm is not None, "taskwait outside a section arm"
        self._runtime_const("taskwait_cycles")
        self.b.emit(_ir.Hook("taskwait", True))
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
        b.emit(_ir.QClear(qn))
        arm["pending"] = False

    # ==================================================================
    # parallel regions
    # ==================================================================
    def _region_meta(self, s: OmpParallel) -> RegionMeta:
        from ..core.nodes import walk

        meta = RegionMeta(n_threads=s.clauses.num_threads,
                          combined_for=s.combined_for)
        schedules: list[str] = []
        for n in walk(s):
            if isinstance(n, ForLoop) and n.omp_for:
                meta.has_omp_for = True
                if n.schedule is not None:
                    schedules.append(n.schedule.value)
                if n.collapse > 1:
                    meta.has_collapse = True
            elif isinstance(n, OmpCritical):
                meta.has_critical = True
            elif isinstance(n, OmpAtomic):
                meta.has_atomic = True
            elif isinstance(n, OmpSingle):
                meta.has_single = True
            elif isinstance(n, OmpBarrier):
                meta.has_barrier = True
            elif isinstance(n, OmpSections):
                meta.has_sections = True
                meta.n_section_arms += len(n.sections)
            elif isinstance(n, OmpTask):
                meta.has_tasks = True
                meta.n_tasks += 1
        meta.schedules = tuple(schedules)
        if s.clauses.reduction is not None:
            meta.reduction_op = s.clauses.reduction.value
        return meta

    def _emit_region(self, s: OmpParallel) -> None:
        rid = len(self.regions)
        meta = self._region_meta(s)
        self.regions.append(meta)
        self._region_threads = meta.n_threads
        privs = list(s.clauses.private)
        fprivs = list(s.clauses.firstprivate)
        reduction = s.clauses.reduction
        comp = self.program.comp.name

        # region_enter charges spawn instructions/branches and may abort
        # with the miscompile fault: synchronize both directions
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
        # thread_begin snapshots the shared lanes; they are current here
        # because the previous thread's charges were flushed at its
        # thread_end and nothing in between charges
        b.emit(_ir.Hook("thread_begin", True))
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
        b.emit(_ir.Flush())
        b.emit(_ir.Hook("thread_end", True))
        b.emit(_ir.ForRange("_tid", _ir.ILit(0), _ir.ILit(meta.n_threads),
                            b.pop()))
        b.emit(_ir.RegionExit(rid, b.fvar(comp), reduction is not None,
                              None if reduction is None
                              else reduction.value))
        b.emit(_ir.Reload())  # region_exit rewrote the shared lanes
        for v in privs + fprivs:
            b.emit(_ir.SetVar(v.name, _ir.FVar(f"_save_{v.name}")))

    # ==================================================================
    # whole kernel
    # ==================================================================
    def lower(self) -> StructuralKernel:
        b = self.b
        b.emit(_ir.Hook("prologue", False))
        for p in self.program.params:
            if p.is_int:
                b.emit(_ir.LoadInt(b.ivar(p.name)))
            elif p.is_array:
                if self.ftz:  # DAZ: inputs flushed on load; also copy
                    mode = _ir.A_FTZ_F if self.fp32 else _ir.A_FTZ_D
                else:
                    mode = _ir.A_COPY
                b.emit(_ir.LoadArray(b.array(p.name), mode))
            else:
                b.emit(_ir.LoadScalar(b.fvar(p.name), self._wrapc))
        b.emit(_ir.Reload())  # seed the local accumulator mirror
        self.block(self.program.body)
        b.emit(_ir.Flush())  # the driver reads the shared state after return
        b.emit(_ir.Return(b.fvar(self.program.comp.name)))
        kernel_ir = b.finish(n_constants=self._n_constants,
                             comp=self.program.comp.name,
                             math_funcs=tuple(sorted(self.math_used)),
                             fp32=self.fp32, ftz=self.ftz)
        return StructuralKernel(ir=kernel_ir, sites=tuple(self.sites),
                                regions=self.regions)


# ======================================================================
# phase 2: the vendor cost pass
# ======================================================================

def bind_costs(structural: StructuralKernel, vendor: "VendorModel",
               opt_level: str, *, fast_armed: bool = False,
               slow_armed: bool = False) -> LoweredKernel:
    """Fill a structural kernel's ``_K`` slots with one vendor's costs.

    Pure arithmetic — no AST walk, no IR rewrite, no code generation;
    the constants reproduce the classic lowerer's values exactly,
    including its ``%.1f`` source-literal rounding.
    """
    # bake all static scales into the per-site constants; the latent
    # fast/slow paths are whole-binary codegen effects
    cy_scale = (vendor.traits.cycle_scale * opt_cycle_scale(opt_level)
                * (vendor.faults.fast_factor if fast_armed else 1.0)
                * (vendor.faults.slow_factor if slow_armed else 1.0))
    ins_scale = vendor.traits.instr_scale
    model = CostModel(vendor.ops)
    constants = [0.0] * structural.ir.n_constants
    for site in structural.sites:
        if isinstance(site, RuntimeConstSite):
            constants[site.k] = float(getattr(vendor.runtime, site.param))
            continue
        cy, ins = model.site_cost(site)
        if site.k_cy is not None:
            constants[site.k_cy] = float(f"{cy * cy_scale:.1f}")
        if site.k_ins is not None:
            constants[site.k_ins] = float(f"{ins * ins_scale:.1f}")
    return LoweredKernel(structural=structural, constants=tuple(constants),
                         regions=structural.regions)
