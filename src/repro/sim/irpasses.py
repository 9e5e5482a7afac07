"""Passes over a lowered kernel's IR, run at the end of lowering.

:meth:`repro.sim.lower.StructuralLowerer.lower` builds a program's
:class:`~repro.sim.ir.KernelIR` in one walk of its tree, then hands it
through :data:`PASSES` in order; each pass takes the IR and returns the
IR both backends emit from.  A pass may rewrite the IR it is given in
place: nothing else holds it yet.

A pass moves no verdict byte.  A run's record reads the kernel's return
value, the ``comp`` and the reduction partials each region exit hands
the runtime, and the cost lanes; a pass keeps all of them, every charge,
count and runtime call, and every operation that can raise on an input
the driver builds, in the order the walk emitted them.
"""

from __future__ import annotations

from dataclasses import replace

from . import ir as _ir

_NONE: frozenset[str] = frozenset()


# ----------------------------------------------------------------------
# what an FP expression reads, and whether it can raise
# ----------------------------------------------------------------------

def _int_raises(e) -> bool:
    """Can int expression ``e`` raise?  Only a division or remainder by
    something other than a nonzero literal can (``ZeroDivisionError``)."""
    t = type(e)
    if t is _ir.IMod:
        return e.modulus == 0 or _int_raises(e.base)
    if t is _ir.IMul:
        return _int_raises(e.a) or _int_raises(e.b)
    if t is _ir.IFloorDiv or t is _ir.IModV:
        b = e.b
        return (not (type(b) is _ir.ILit and b.v != 0)
                or _int_raises(e.a) or _int_raises(b))
    return False


def _index_raises(idx) -> bool:
    """Can ``arr[idx]`` raise on an array the driver builds?  Not for the
    forms the C kernel checks once at entry — a constant ``c >= 0``,
    ``% M`` with ``M > 0`` and the thread index — whose arrays the
    driver sizes to hold them; any other index may be out of range."""
    t = type(idx)
    if t is _ir.ILit:
        return idx.v < 0
    if t is _ir.IMod:
        return idx.modulus <= 0 or _int_raises(idx.base)
    return not (t is _ir.IVar and idx.name == "_tid")


def _scan(e, reads: set, calls: set) -> bool:
    """Add the FP variables and arrays ``e`` reads to ``reads`` and its
    libm names to ``calls``; whether ``e`` can raise.  Float arithmetic
    cannot: division is IEEE-total and libm calls are total."""
    t = type(e)
    if t is _ir.FVar:
        reads.add(e.name)
        return False
    if t is _ir.FLit:
        return False
    if t is _ir.FBin:
        return _scan(e.a, reads, calls) | _scan(e.b, reads, calls)
    if t is _ir.ALoad:
        reads.add(e.arr)
        return _index_raises(e.idx)
    if t is _ir.FSite:  # both forms read the same operands
        return (_scan(e.fused, reads, calls)
                | _scan(e.plain, reads, calls))
    if t is _ir.FFma:
        return (_scan(e.a, reads, calls) | _scan(e.b, reads, calls)
                | _scan(e.c, reads, calls))
    if t is _ir.FNeg:
        return _scan(e.x, reads, calls)
    if t is _ir.FCall:
        calls.add(e.func)
        return _scan(e.arg, reads, calls)
    if t is _ir.IToF:
        return _int_raises(e.ix)
    raise TypeError(f"unknown FP expr {t.__name__}")


# ----------------------------------------------------------------------
# dead-code elimination
# ----------------------------------------------------------------------

class _DeadCode:
    """Backward liveness over the structured IR, then the rewrite.

    The live set holds FP variables and arrays (one namespace: names are
    unique within a kernel).  ``Return``, each ``RegionExit``'s ``comp``,
    each ``AppendPartial`` and every ``If`` condition read what they
    name; a kept ``SetVar`` or ``AStore`` reads its expressions.  A
    ``SetVar`` kills its variable; a store into an array does not (arrays
    are tracked whole).  A branch joins its body with the fall-through,
    and a loop, whose body runs zero or more times, iterates its body to
    a fixpoint.  A ``SetVar`` or ``AStore`` whose target is dead goes,
    unless its expressions can raise; nothing else does.
    """

    def __init__(self) -> None:
        #: id(op) -> (names read, can raise, libm names), once per op
        self._facts: dict[int, tuple[frozenset, bool, frozenset]] = {}
        #: id(loop) -> the live set at its head last time: where the next
        #: fixpoint starts (the set only grows as the outer ones do)
        self._heads: dict[int, set] = {}
        #: FP variables and libm names the kept ops still name
        self.names: set[str] = set()
        self.calls: set[str] = set()

    def facts(self, op) -> tuple[frozenset, bool, frozenset]:
        got = self._facts.get(id(op))
        if got is None:
            reads: set = set()
            calls: set = set()
            t = type(op)
            if t is _ir.If:
                raises = (_scan(op.cond.lhs, reads, calls)
                          | _scan(op.cond.rhs, reads, calls))
            else:
                raises = _scan(op.e, reads, calls)
                if t is _ir.AStore:
                    raises |= _index_raises(op.idx)
            got = (frozenset(reads), raises,
                   frozenset(calls) if calls else _NONE)
            self._facts[id(op)] = got
        return got

    def block(self, ops: list, live: set, rewrite: bool) -> set:
        """The live set before ``ops`` given ``live`` after them (updated
        in place and returned); with ``rewrite``, drop the dead ops from
        ``ops`` and from every body inside them."""
        kept = [] if rewrite else None
        for op in reversed(ops):
            t = type(op)
            if t is _ir.SetVar or t is _ir.AStore:
                reads, raises, calls = self.facts(op)
                target = op.name if t is _ir.SetVar else op.arr
                if target in live:
                    if t is _ir.SetVar:
                        live.discard(target)
                elif not raises:
                    continue  # dead: nothing reads what it writes
                live |= reads
                if rewrite:
                    self.names.add(target)
                    self.names |= reads
                    self.calls |= calls
            elif t is _ir.If:
                reads, _, calls = self.facts(op)
                live |= self.block(op.body, set(live), rewrite)
                live |= reads
                if rewrite:
                    self.names |= reads
                    self.calls |= calls
            elif t is _ir.IfIntEq:
                live |= self.block(op.body, set(live), rewrite)
            elif (t is _ir.ForRange or t is _ir.ForAssign
                  or t is _ir.ForList):
                live = self.loop(op, live, rewrite)
            elif t is _ir.RegionExit:
                live.add(op.comp)
                if rewrite:
                    self.names.add(op.comp)
            elif t is _ir.AppendPartial or t is _ir.Return:
                live.add(op.name)
                if rewrite:
                    self.names.add(op.name)
            elif t is _ir.LoadScalar and rewrite:
                self.names.add(op.name)
            if rewrite:
                kept.append(op)
        if rewrite:
            kept.reverse()
            ops[:] = kept
        return live

    def loop(self, op, live: set, rewrite: bool) -> set:
        """Live at the loop's head: what its exit needs, joined with what
        its body needs for one more turn, to a fixpoint."""
        head = self._heads.get(id(op))
        head = set(live) if head is None else head | live
        while True:
            size = len(head)
            head |= self.block(op.body, set(head), False)
            if len(head) == size:
                break
        self._heads[id(op)] = head
        if rewrite:
            self.block(op.body, set(head), True)
        return set(head)


def eliminate_dead_code(kir: _ir.KernelIR) -> _ir.KernelIR:
    """Drop every ``SetVar`` and ``AStore`` whose value nothing a record
    reads depends on, keeping any whose expressions can raise (see
    :class:`_DeadCode`); the ``fp_vars`` and ``math_funcs`` registries
    keep what the remaining ops name."""
    dce = _DeadCode()
    dce.block(kir.ops, set(), True)
    names, calls = dce.names, dce.calls
    return replace(kir,
                   fp_vars=tuple(v for v in kir.fp_vars if v in names),
                   math_funcs=tuple(f for f in kir.math_funcs if f in calls))


#: the passes :meth:`~repro.sim.lower.StructuralLowerer.lower` runs, in
#: order
PASSES = (eliminate_dead_code,)
