"""AST node classes for the generated OpenMP test programs.

The node set is exactly the paper's grammar (Listing 2) plus the two pieces
the paper describes in prose but elides from the grammar: the ``main()``
harness (Section III-B) and thread-id array indexing used for race freedom
(Section III-G).

Design notes
------------
* Nodes are plain ``dataclass`` objects with ``slots`` for speed — the
  simulated backend interprets these trees directly, so attribute access
  is on the hot path.
* Expression nodes are immutable in practice (lowering reads them, and
  the reducer's surgery clones a tree before it edits one), but are not
  ``frozen`` because the generator wires up parent links during
  construction in a few places.
* Every node supports ``children()`` so generic walkers (feature
  extraction, race checking, grammar conformance) need no per-node code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .types import (
    AssignOpKind,
    BinOpKind,
    BoolOpKind,
    FPType,
    OmpClauses,
    ScheduleKind,
    Variable,
)

# ======================================================================
# Expressions
# ======================================================================


@dataclass(slots=True)
class FPNumeral:
    """A floating-point constant, e.g. ``1.23e+4`` (``<fp-numeral>``)."""

    value: float

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class IntNumeral:
    """An integer constant (loop bounds, array indices)."""

    value: int

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class VarRef:
    """A reference to a scalar variable (``<identifier>``)."""

    var: Variable

    @property
    def name(self) -> str:
        return self.var.name

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class ThreadIdx:
    """``omp_get_thread_num()`` — used only as an array index (§III-G)."""

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class ModIdx:
    """``<loop-var> % <size>`` index expression (bounded array access)."""

    base: "IndexExpr"
    modulus: int

    def children(self) -> Iterator["Node"]:
        yield self.base  # type: ignore[misc]


#: Index expressions are a restricted sub-language: a loop variable,
#: the calling thread id, a constant, or one of those reduced modulo the
#: array size.  This restriction is what makes static race checking and
#: bounds safety tractable (and matches what Varity emits).
IndexExpr = Union[VarRef, ThreadIdx, IntNumeral, ModIdx]


@dataclass(slots=True)
class ArrayRef:
    """``var[idx]`` — read or write access to an array element."""

    var: Variable
    index: IndexExpr

    @property
    def name(self) -> str:
        return self.var.name

    def children(self) -> Iterator["Node"]:
        yield self.index  # type: ignore[misc]


@dataclass(slots=True)
class UnaryOp:
    """Signed term, e.g. ``-1.0`` or ``+2.0`` (sign characters on terms)."""

    op: str  # '+' or '-'
    operand: "Expr"

    def children(self) -> Iterator["Node"]:
        yield self.operand  # type: ignore[misc]


@dataclass(slots=True)
class BinOp:
    """``<expression> <op> <expression>`` with op in {+, -, *, /}."""

    op: BinOpKind
    lhs: "Expr"
    rhs: "Expr"

    def children(self) -> Iterator["Node"]:
        yield self.lhs  # type: ignore[misc]
        yield self.rhs  # type: ignore[misc]


@dataclass(slots=True)
class Paren:
    """Explicit parentheses — semantically transparent, kept for fidelity
    of the emitted source (``"(" <expression> ")"``)."""

    inner: "Expr"

    def children(self) -> Iterator["Node"]:
        yield self.inner  # type: ignore[misc]


@dataclass(slots=True)
class MathCall:
    """A call to a C math-library function, e.g. ``sin(x)``."""

    func: str
    arg: "Expr"

    def children(self) -> Iterator["Node"]:
        yield self.arg  # type: ignore[misc]


Expr = Union[FPNumeral, IntNumeral, VarRef, ArrayRef, UnaryOp, BinOp, Paren,
             MathCall, ThreadIdx, ModIdx]


@dataclass(slots=True)
class BoolExpr:
    """``<bool-expression> ::= <id> <bool-op> <expression>``."""

    lhs: VarRef | ArrayRef
    op: BoolOpKind
    rhs: Expr

    def children(self) -> Iterator["Node"]:
        yield self.lhs  # type: ignore[misc]
        yield self.rhs  # type: ignore[misc]


# ======================================================================
# Statements and blocks
# ======================================================================


@dataclass(slots=True)
class Assignment:
    """``<assignment>`` — write to ``comp``, a temporary, or an array slot."""

    target: VarRef | ArrayRef
    op: AssignOpKind
    expr: Expr

    def children(self) -> Iterator["Node"]:
        yield self.target  # type: ignore[misc]
        yield self.expr  # type: ignore[misc]


@dataclass(slots=True)
class DeclAssign:
    """``<fp-type> <id> = <expression>;`` — declare-and-init a temporary."""

    var: Variable
    expr: Expr

    def children(self) -> Iterator["Node"]:
        yield self.expr  # type: ignore[misc]


@dataclass(slots=True)
class Block:
    """``<block>`` — an ordered statement list."""

    stmts: list["Stmt"] = field(default_factory=list)

    def children(self) -> Iterator["Node"]:
        yield from self.stmts  # type: ignore[misc]


@dataclass(slots=True)
class IfBlock:
    """``if (<bool-expression>) { <block> }``."""

    cond: BoolExpr
    body: Block

    def children(self) -> Iterator["Node"]:
        yield self.cond
        yield self.body


@dataclass(slots=True)
class ForLoop:
    """``for (int i = 0; i < bound; ++i) { ... }``.

    ``bound`` is either a constant or an ``int`` kernel parameter; at run
    time the trip count is additionally clamped by the harness (both the
    emitted C++ and the interpreter apply the same clamp so backends agree).
    ``omp_for`` marks the ``#pragma omp for`` variant, legal only inside a
    parallel region (``<for-loop-head>``).

    Worksharing loops additionally carry the directive-diversity clauses:

    * ``schedule`` / ``schedule_chunk`` — an explicit ``schedule(...)``
      clause (``None`` = unspecified, 0 = no chunk size given),
    * ``collapse`` — ``collapse(2)`` over a perfectly nested inner loop
      (the inner loop is then ``body.stmts[0]`` and nothing else).
    """

    loop_var: Variable
    bound: IntNumeral | VarRef
    body: Block
    omp_for: bool = False
    schedule: ScheduleKind | None = None
    schedule_chunk: int = 0
    collapse: int = 1

    def children(self) -> Iterator["Node"]:
        yield self.bound  # type: ignore[misc]
        yield self.body


@dataclass(slots=True)
class OmpCritical:
    """``#pragma omp critical { <block> }``."""

    body: Block

    def children(self) -> Iterator["Node"]:
        yield self.body


@dataclass(slots=True)
class OmpAtomic:
    """``#pragma omp atomic`` guarding one compound update statement.

    The guarded statement is an ``x op= expr`` update of a shared scalar;
    per the OpenMP atomic-update rules the expression must not read the
    target variable (the read-modify-write of the target itself is the
    atomic operation).
    """

    update: Assignment

    def children(self) -> Iterator["Node"]:
        yield self.update


@dataclass(slots=True)
class OmpSingle:
    """``#pragma omp single { <block> }`` — one thread executes the block,
    the team synchronizes at the implicit barrier at its end."""

    body: Block

    def children(self) -> Iterator["Node"]:
        yield self.body


@dataclass(slots=True)
class OmpBarrier:
    """``#pragma omp barrier`` — explicit team-wide synchronization."""

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class OmpSection:
    """One ``#pragma omp section`` arm of a ``sections`` construct.

    Not a free-standing statement: sections only exist as children of an
    :class:`OmpSections` node.  Each arm's body is executed exactly once,
    by exactly one (unspecified) thread of the team — the first construct
    family whose scheduling is *graph-shaped*: the arms of one construct
    are mutually concurrent work nodes, not team-uniform code.
    """

    body: Block

    def children(self) -> Iterator["Node"]:
        yield self.body


@dataclass(slots=True)
class OmpSections:
    """``#pragma omp sections { #pragma omp section {...} ... }``.

    A worksharing construct distributing its section arms across the
    team; the construct ends with an implicit barrier (no ``nowait`` is
    ever generated), which also completes any explicit tasks the arms
    spawned (see :mod:`repro.core.taskgraph` for the DAG model).
    """

    sections: list[OmpSection] = field(default_factory=list)

    def children(self) -> Iterator["Node"]:
        yield from self.sections  # type: ignore[misc]


@dataclass(slots=True)
class OmpTask:
    """``#pragma omp task { <block> }`` — one explicit deferred task.

    Only generated inside execute-once contexts (a ``section`` arm), so
    each task directive creates exactly one task instance.  The task is
    concurrent with the code following its spawn point until a
    ``taskwait`` (or the enclosing construct's implicit barrier) joins it.
    """

    body: Block

    def children(self) -> Iterator["Node"]:
        yield self.body


@dataclass(slots=True)
class OmpTaskwait:
    """``#pragma omp taskwait`` — joins the child tasks spawned so far by
    the encountering task region."""

    def children(self) -> Iterator["Node"]:
        return iter(())


@dataclass(slots=True)
class OmpParallel:
    """``<openmp-block>``: directive head plus the structured block.

    Per the grammar the body is one or more leading assignments (used to
    initialize private copies — see Listing 1 line 9) followed by a
    for-loop block, which may itself be an ``omp for``.

    ``combined_for`` marks the combined ``#pragma omp parallel for``
    construct: the body is then exactly one worksharing loop (no leading
    assignments — the combined directive applies to the loop alone), and
    the clauses carry no ``private`` list (privates cannot be initialized
    before the loop starts).
    """

    clauses: OmpClauses
    body: Block
    combined_for: bool = False

    def children(self) -> Iterator["Node"]:
        yield self.body


Stmt = Union[Assignment, DeclAssign, IfBlock, ForLoop, OmpParallel, OmpCritical,
             OmpAtomic, OmpSingle, OmpBarrier, OmpSections, OmpTask,
             OmpTaskwait]

#: ``OmpSection`` is not a statement (it exists only under ``OmpSections``)
#: but generic walkers do visit it.
Node = Union[Expr, BoolExpr, Stmt, Block, OmpSection]


# ======================================================================
# Whole-program container
# ======================================================================


@dataclass(slots=True)
class Program:
    """A complete generated test: the ``compute`` kernel plus metadata.

    ``params`` is the kernel signature in declaration order; ``comp`` is
    the designated output accumulator (always present, always scalar —
    Section III-B: "the comp's value is printed to the standard output").
    """

    name: str
    seed: int
    fp_type: FPType
    comp: Variable
    params: list[Variable]
    body: Block
    num_threads: int = 32

    def children(self) -> Iterator[Node]:
        yield self.body

    @property
    def int_params(self) -> list[Variable]:
        return [p for p in self.params if p.is_int]

    @property
    def fp_scalar_params(self) -> list[Variable]:
        return [p for p in self.params if p.is_fp and not p.is_array]

    @property
    def array_params(self) -> list[Variable]:
        return [p for p in self.params if p.is_array]


# ======================================================================
# Generic tree walking
# ======================================================================


def walk(node: Node | Program) -> Iterator[Node]:
    """Yield ``node`` (unless it is a Program) and all its descendants,
    depth-first, in deterministic order."""
    stack: list[Node]
    if isinstance(node, Program):
        stack = [node.body]
    else:
        stack = [node]
    while stack:
        n = stack.pop()
        yield n
        kids = list(n.children())
        # reversed() keeps overall order depth-first left-to-right
        stack.extend(reversed(kids))


def iter_statements(node: Node | Program) -> Iterator[Stmt]:
    """Yield every statement in the (sub)tree."""
    for n in walk(node):
        if isinstance(n, (Assignment, DeclAssign, IfBlock, ForLoop,
                          OmpParallel, OmpCritical, OmpAtomic, OmpSingle,
                          OmpBarrier, OmpSections, OmpTask, OmpTaskwait)):
            yield n


def referenced_variables(node: Node | Program) -> list[Variable]:
    """All distinct variables referenced in the (sub)tree, in first-use order."""
    seen: dict[int, Variable] = {}
    for n in walk(node):
        v: Variable | None = None
        if isinstance(n, (VarRef, ArrayRef)):
            v = n.var
        elif isinstance(n, DeclAssign):
            v = n.var
        elif isinstance(n, ForLoop):
            v = n.loop_var
        if v is not None and id(v) not in seen:
            seen[id(v)] = v
    return list(seen.values())
