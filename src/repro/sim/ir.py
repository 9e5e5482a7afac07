"""Typed register IR for lowered kernels — the lowering's only product.

The structural pass (:class:`repro.sim.lower.StructuralLowerer`) lowers
each program to one :class:`KernelIR`, which the passes of
:mod:`repro.sim.irpasses` then prune, and both kernel backends are
emitted from it: :mod:`repro.sim.pykernel` writes the Python function
the interpreted reference ``exec``'s, :mod:`repro.sim.ckernel` the C
extension.  That is what makes the compiled backend byte-identical to the
interpreter by construction: every operation a kernel performs — each FP
op with its f32/FTZ/FMA/libm wrap, each fused cost charge against the
``_K`` constants tuple, each OpenMP event and schedule step in order —
is exactly one IR op, and the backends only differ in how they
*execute* that op.

One IR serves every vendor and opt level of a program.  What the
vendors' FP modes change is read from the *mode* a kernel runs under,
``(ftz, fma)`` (:data:`Mode`): whether results and loaded inputs flush
subnormals, and which :class:`FSite` contraction sites fuse.  No node
carries a per-vendor field.

Value semantics carried by the IR:

* **FP expressions** evaluate in binary64; every arithmetic result
  (:class:`FBin`, :class:`FCall`, scalar loads) gets the kernel's wrap —
  binary32 rounding for a float program, plus the subnormal flush under
  FTZ — through the same helpers of :mod:`repro.sim.values` the kernels
  call.  :class:`FFma` keeps the long-double contraction model and
  flushes under FTZ; :class:`FCall` names a
  :data:`repro.sim.values.MATH_IMPLS` entry.  Division is IEEE-total
  (``x/0 -> ±inf``, ``0/0 -> nan``).
* **Index expressions** are exact Python ``int`` arithmetic, including
  Python's floored ``%``/``//`` and negative-index wrap-around on array
  access (out-of-range raises ``IndexError``, as a Python list does).
* **Cost charges** add ``_K``-slot constants (and branch literals) to
  the four local accumulator lanes; :class:`Flush`/:class:`Reload`
  exchange the lanes with the shared
  :class:`~repro.sim.lower.CostState` around the region boundaries.
* **The region block.**  A kernel enters the
  :class:`~repro.sim.runtime.RegionExecutor` only at :class:`Prologue`,
  :class:`RegionEnter`, :class:`RegionExit` and the livelock abort of a
  :class:`CritEnter`.  Everything the runtime used to observe per event
  stays in kernel locals between a region's enter and exit: the
  :class:`Count` counters, the acquires, the schedule-cycle lane the
  :class:`ForAssign` walks charge, and the per-thread lane deltas
  :class:`ThreadBegin`/:class:`ThreadEnd` take; :class:`RegionExit`
  hands all of them over in one call.

The IR is deliberately structured (loops and ifs nest) rather than a
flat CFG: both backends are tree-walking source emitters, and neither
needs more.  It carries only what a run reads, and no field that every
lowered program sets alike: a :class:`ForRange` starts at 0, a
:class:`RegionExit` passes partials exactly when it has a reduction op,
and :class:`QNew` also empties a drained task queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# modes: the vendor FP behaviour a kernel runs under
# ----------------------------------------------------------------------

#: a kernel's FP mode: ``(ftz, fma)`` — whether subnormals flush, and
#: the FMA contraction mode (one of :data:`FMA_MODES`)
Mode = tuple[bool, str]

#: FMA contraction modes, weakest first: a contraction site fuses under
#: its own mode and every stronger one
FMA_MODES = ("none", "basic", "aggressive")


# ----------------------------------------------------------------------
# FP expressions (evaluate to a Python float / C double)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class FLit:
    """A folded constant — bit-exact: the lowerer already applied the
    helper functions, so backends just load the value."""

    v: float


@dataclass(slots=True)
class FVar:
    name: str


@dataclass(slots=True)
class ALoad:
    """``arr[idx]`` with Python list semantics (negative wrap,
    ``IndexError`` out of range)."""

    arr: str
    idx: "IExpr"


@dataclass(slots=True)
class IToF:
    """``float(<int expr>)`` — int params and ``_tid`` used as values."""

    ix: "IExpr"


@dataclass(slots=True)
class FNeg:
    """Sign flip, no wrap (negation is exact)."""

    x: "FExpr"


@dataclass(slots=True)
class FBin:
    """One arithmetic op; ``op`` in ``'+-*/'``; the result gets the
    kernel's wrap.

    Division is IEEE-total (:func:`repro.sim.values.fdiv` semantics);
    the Python kernel's plain-``/`` fast path only triggers for nonzero
    constant divisors, where the two are bit-identical.
    """

    op: str
    a: "FExpr"
    b: "FExpr"


@dataclass(slots=True)
class FFma:
    """Contracted multiply-add ``round(a*b + c)``.

    A float program uses :func:`~repro.sim.values.fma_f` (exact inside
    binary64, final round to binary32), a double one
    :func:`~repro.sim.values.fma_d` (x87 long-double recovery, NaN
    operands propagate); under FTZ the matching flush follows the
    contraction, exactly as the Python kernel chains ``_ftzf(_fmaf(...))``.
    """

    a: "FExpr"
    b: "FExpr"
    c: "FExpr"


@dataclass(slots=True)
class FCall:
    """IEEE-total libm call (a :data:`repro.sim.values.MATH_IMPLS` name);
    the result gets the kernel's wrap like any other op."""

    func: str
    arg: "FExpr"


@dataclass(slots=True)
class FSite:
    """A contraction site: an ADD or SUB with a product operand.

    A kernel whose FMA mode is ``fma`` or stronger (:data:`FMA_MODES`)
    evaluates ``fused`` (an :class:`FFma`), any other kernel ``plain``,
    the two-rounding form.  ADD sites fuse from ``"basic"`` on, SUB sites
    only under ``"aggressive"``.  The forms share their operand nodes
    and fold separately, so an all-constant site whose forms fold to
    different bits is one literal per mode.
    """

    fused: "FExpr"
    plain: "FExpr"
    fma: str


FExpr = FLit | FVar | ALoad | IToF | FNeg | FBin | FFma | FCall | FSite


@dataclass(slots=True)
class Cmp:
    """``(lhs) op (rhs)`` over floats; ``op`` is the C/Python symbol."""

    lhs: FExpr
    op: str
    rhs: FExpr


# ----------------------------------------------------------------------
# index (int) expressions — exact Python int arithmetic
# ----------------------------------------------------------------------

@dataclass(slots=True)
class ILit:
    v: int


@dataclass(slots=True)
class IVar:
    name: str


@dataclass(slots=True)
class IMax0:
    """``max(0, var)`` — the loop-bound clamp on int parameters."""

    name: str


@dataclass(slots=True)
class IMod:
    """``(base) % modulus`` with a positive constant modulus (Python's
    floored ``%``, so the result is always in range)."""

    base: "IExpr"
    modulus: int


@dataclass(slots=True)
class IMul:
    a: "IExpr"
    b: "IExpr"


@dataclass(slots=True)
class IFloorDiv:
    """Python ``//`` (operands are non-negative in generated code, but
    backends implement the floored semantics anyway)."""

    a: "IExpr"
    b: "IExpr"


@dataclass(slots=True)
class IModV:
    """Python ``%`` with a variable modulus (collapse(2) remainder)."""

    a: "IExpr"
    b: "IExpr"


IExpr = ILit | IVar | IMax0 | IMod | IMul | IFloorDiv | IModV


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------

@dataclass(slots=True)
class SetVar:
    """FP scalar assignment (also covers declare-and-init and the
    private save/restore copies)."""

    name: str
    e: FExpr


@dataclass(slots=True)
class SetIVar:
    """Int scalar assignment (collapse bookkeeping: ``_n2``/``_n``,
    derived induction variables)."""

    name: str
    e: IExpr


@dataclass(slots=True)
class AStore:
    arr: str
    idx: IExpr
    e: FExpr


@dataclass(slots=True)
class Charge:
    """One fused accumulator update.

    ``lane`` is 0 for ``_cy``, 1 for ``_ccy`` (inside critical
    sections); ``k_cy``/``k_ins`` index the ``_K`` constants tuple;
    ``br`` is the vendor-independent branch literal.  Runtime-parameter
    constants (atomic RMW, single arrival, ...) are a ``Charge`` with
    ``k_ins`` ``None`` — always on lane 0.
    """

    lane: int
    k_cy: int
    k_ins: int | None
    br: float


@dataclass(slots=True)
class Flush:
    """Write the four local lanes to the shared ``CostState``."""


@dataclass(slots=True)
class Reload:
    """Read the four local lanes back from the shared ``CostState``."""


@dataclass(slots=True)
class Prologue:
    """``_rt.prologue()`` at kernel entry (it may abort with the
    miscompile fault); it returns the run's constants: the livelock
    threshold of :class:`CritEnter`, and the ``omp for`` schedule and
    dispatch cycles the :class:`ForAssign` walks charge."""


#: the region-block counters :class:`Count` increments: ``sync`` one
#: thread's arrival at a barrier round (an ``omp for``, ``single`` or
#: ``sections`` end, an explicit barrier), ``atomic`` one atomic update
EVENTS = ("sync", "atomic")


@dataclass(slots=True)
class Count:
    """One OpenMP event on the region block's ``event`` counter (one of
    :data:`EVENTS`)."""

    event: str


@dataclass(slots=True)
class CritEnter:
    """A critical-section acquire: one on the run's acquire count, which
    aborts the run through ``_rt.livelock`` once it reaches the
    prologue's threshold, handing over the region's acquires and atomic
    updates so far and the four cost lanes."""


@dataclass(slots=True)
class RegionEnter:
    """``_rt.region_enter(rid)``, then a fresh region block: counters,
    acquire base, schedule lane and thread lanes."""

    rid: int


@dataclass(slots=True)
class ThreadBegin:
    """Snapshot the ``_cy``/``_ccy`` lanes at a team member's start."""


@dataclass(slots=True)
class ThreadEnd:
    """Record the team member's ``_cy``/``_ccy`` deltas since its
    :class:`ThreadBegin` (the thread lanes, in thread order)."""


@dataclass(slots=True)
class RegionExit:
    """``comp = _rt.region_exit(rid, comp, partials|None, op, sync,
    atomics, acquires, sched, compute, critical)``: the region block's
    counts, schedule cycles and the ``threads`` thread lanes, in one
    call; the partials go with the reduction ``op`` (``None``: no
    reduction, no partials)."""

    rid: int
    comp: str
    op: str | None
    threads: int


@dataclass(slots=True)
class InitPartials:
    """``_partials = []`` at region start (reduction regions only)."""


@dataclass(slots=True)
class AppendPartial:
    """``_partials.append(<var>)`` at each thread's end."""

    name: str


@dataclass(slots=True)
class ForRange:
    """``for var in range(hi)`` (the bound evaluated once, at entry)."""

    var: str
    hi: IExpr
    body: list


#: worksharing schedule kinds :class:`ForAssign` walks
SCHEDULES = ("static", "dynamic", "guided")


@dataclass(slots=True)
class ForAssign:
    """``for var in`` the iterations of ``range(max(0, n))`` that an
    ``omp for``'s schedule assigns to ``_tid`` of a ``threads`` team,
    walked by the kernel itself, in ascending order.

    ``kind`` is one of :data:`SCHEDULES`.  ``static`` with ``chunk <= 0``
    is the default schedule — one contiguous block per thread, the first
    ``n % threads`` threads taking one extra iteration; with a chunk it
    deals chunks round-robin.  ``dynamic`` (chunk ``max(chunk, 1)``) and
    ``guided`` (chunks of ``max(chunk, 1, ceil(left / (2 * threads)))``
    while iterations are left) are modelled as the same deterministic
    round-robin over their chunk sequence.  A static walk adds the
    schedule cycles to the schedule lane once; the others add the
    dispatch cycles once per chunk the thread owns, before that chunk's
    iterations — the lane sees no other adds, so it sums exactly as if
    the thread added them all up front.
    """

    var: str
    n: IExpr
    kind: str
    chunk: int
    threads: int
    body: list

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULES:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


@dataclass(slots=True)
class ForList:
    """``for var in <queue>`` over a live task queue: appends made by
    the body are picked up by the iteration, exactly like Python list
    iteration (task bodies may spawn further tasks)."""

    queue: str
    var: str
    body: list


@dataclass(slots=True)
class QNew:
    """``<queue> = []`` — a section arm's deterministic task queue, fresh
    at the arm's start and after each drain."""

    queue: str


@dataclass(slots=True)
class QPush:
    """``<queue>.append(k)`` — defer task ``k`` in spawn order."""

    queue: str
    k: int


@dataclass(slots=True)
class If:
    cond: Cmp
    body: list


@dataclass(slots=True)
class IfIntEq:
    """``if <var> == k:`` — single's thread-0 guard, sections' round-
    robin arm guards, the task drain's dispatch compare chain."""

    var: str
    k: int
    body: list


@dataclass(slots=True)
class LoadInt:
    """``name = _args[name]`` for an int parameter."""

    name: str


@dataclass(slots=True)
class LoadScalar:
    """FP scalar parameter load; the kernel's wrap applies the program's
    binary32/FTZ conversion on entry."""

    name: str


@dataclass(slots=True)
class LoadArray:
    """FP array parameter load: a copy, whose elements are flushed (DAZ)
    under FTZ."""

    name: str


@dataclass(slots=True)
class Return:
    name: str


Stmt = (SetVar | SetIVar | AStore | Charge | Flush | Reload | Prologue
        | Count | CritEnter | RegionEnter | ThreadBegin | ThreadEnd
        | RegionExit | InitPartials | AppendPartial | ForRange | ForAssign
        | ForList | QNew | QPush | If | IfIntEq | LoadInt
        | LoadScalar | LoadArray | Return)


# ----------------------------------------------------------------------
# the kernel container + the builder the structural pass drives
# ----------------------------------------------------------------------

@dataclass(slots=True)
class KernelIR:
    """One program's complete IR plus its symbol registries.

    ``n_constants`` sizes the ``_K`` tuple; the registries list every
    local the backends must declare, partitioned by type (names are
    globally unique within a kernel, so one namespace suffices for
    slots while C gets typed declarations).
    """

    ops: list = field(default_factory=list)
    n_constants: int = 0
    fp_vars: tuple[str, ...] = ()
    int_vars: tuple[str, ...] = ()
    arrays: tuple[str, ...] = ()
    queues: tuple[str, ...] = ()
    math_funcs: tuple[str, ...] = ()
    fp32: bool = False


class IrBuilder:
    """Block-structured emission helper for :class:`StructuralLowerer`.

    ``emit`` appends to the innermost open block; ``push``/``pop``
    bracket loop and branch bodies around the lowerer's ``block()``
    recursion, so the op order inside each block is the order the
    lowerer visits the statements.
    """

    def __init__(self) -> None:
        self.ops: list = []
        self._stack: list[list] = [self.ops]
        # ordered sets (dict keys) so declarations are deterministic
        self._fp: dict[str, None] = {}
        self._int: dict[str, None] = {}
        self._arr: dict[str, None] = {}
        self._q: dict[str, None] = {}

    def emit(self, op: Stmt) -> None:
        self._stack[-1].append(op)

    def push(self) -> None:
        self._stack.append([])

    def pop(self) -> list:
        if len(self._stack) <= 1:
            raise ValueError("unbalanced IR pop")
        return self._stack.pop()

    # -- symbol registries ---------------------------------------------
    def fvar(self, name: str) -> str:
        self._fp[name] = None
        return name

    def ivar(self, name: str) -> str:
        self._int[name] = None
        return name

    def array(self, name: str) -> str:
        self._arr[name] = None
        return name

    def queue(self, name: str) -> str:
        self._q[name] = None
        return name

    def finish(self, *, n_constants: int, math_funcs: tuple[str, ...],
               fp32: bool) -> KernelIR:
        if len(self._stack) != 1:
            raise ValueError("unbalanced IR builder at finish")
        return KernelIR(ops=self.ops, n_constants=n_constants,
                        fp_vars=tuple(self._fp), int_vars=tuple(self._int),
                        arrays=tuple(self._arr), queues=tuple(self._q),
                        math_funcs=math_funcs, fp32=fp32)
