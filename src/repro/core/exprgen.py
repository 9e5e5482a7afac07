"""Random arithmetic / boolean expression generation (Section III-A/C).

Expressions are built exactly as the grammar's ``<expression>`` rule allows:
terms are identifiers (scalars, array elements, loop variables) or
floating-point numerals, combined with ``{+, -, *, /}``, optional
parentheses, optional unary signs on terms, and — with probability
``MATH_FUNC_PROBABILITY`` when ``MATH_FUNC_ALLOWED`` — calls into the C
math library.

The number of terms is drawn uniformly from ``[1, MAX_EXPRESSION_SIZE]``
(Section III-C randomizes "size of arithmetic expressions").  Which
identifiers are eligible depends on the generation context's race rules;
see :class:`~repro.core.genctx.GenContext`.
"""

from __future__ import annotations

import math

from .genctx import GenContext
from .nodes import (
    ArrayRef,
    BinOp,
    BoolExpr,
    Expr,
    FPNumeral,
    IntNumeral,
    MathCall,
    ModIdx,
    Paren,
    ThreadIdx,
    UnaryOp,
    VarRef,
)
from .types import BinOpKind, BoolOpKind, FPType, MATH_FUNCS, Variable

#: exponent magnitude by precision: keeps literals finite in the target type
_MAX_EXP = {FPType.FLOAT: 36, FPType.DOUBLE: 300}

#: weights over exponent bands: mostly ordinary magnitudes, occasional
#: extreme values like the -1.4719E45 literal visible in the paper's Fig. 4
_EXP_BANDS = ((0, 2, 0.80), (3, 9, 0.16), (10, 1000, 0.04))

#: arithmetic operator weights: additive ops dominate scientific kernels;
#: unconstrained division floods every output with inf/NaN and drowns the
#: differential signal
_OP_WEIGHTS = ((BinOpKind.ADD, 3.0), (BinOpKind.SUB, 3.0),
               (BinOpKind.MUL, 2.5), (BinOpKind.DIV, 1.2))


class ExprGen:
    """Generates grammar-conformant expressions for one program."""

    def __init__(self, ctx: GenContext):
        self.ctx = ctx
        self.rng = ctx.rng
        self.cfg = ctx.cfg

    # ------------------------------------------------------------------
    # numerals
    # ------------------------------------------------------------------
    def fp_numeral(self) -> FPNumeral:
        """A random floating-point constant with banded magnitude."""
        rng = self.rng
        max_exp = _MAX_EXP[self.ctx.fp_type]
        lo, hi, _ = rng.weighted_choice([(b, b[2]) for b in _EXP_BANDS])
        exp = rng.randint(lo, min(hi, max_exp))
        mantissa = rng.uniform(1.0, 10.0)
        if rng.coin():
            exp = -exp
        value = mantissa * (10.0 ** exp)
        if rng.coin():
            value = -value
        # round the mantissa so emitted literals stay short and readable
        value = float(f"{value:.4e}")
        if not math.isfinite(value):  # paranoid guard; bands prevent this
            value = math.copysign(1.0, value)
        return FPNumeral(value)

    def small_int(self, hi: int) -> IntNumeral:
        return IntNumeral(self.rng.randint(0, max(0, hi - 1)))

    # ------------------------------------------------------------------
    # readable atoms under the current context
    # ------------------------------------------------------------------
    def _readable_scalars(self) -> list[Variable]:
        ctx = self.ctx
        pool = [v for v in ctx.fp_scalar_params if ctx.can_read_scalar(v)]
        pool += [v for v in ctx.scope.visible_temps() if ctx.can_read_scalar(v)]
        if ctx.comp is not None and ctx.can_read_scalar(ctx.comp):
            pool.append(ctx.comp)
        return pool

    def _readable_array_atom(self) -> Expr | None:
        ctx = self.ctx
        arrays = ctx.array_params
        if not arrays:
            return None
        if ctx.owner is not None:
            # execute-once work nodes (section arms, task bodies) touch
            # scalars only: a[tid] is thread-dependent there — the real
            # runtime picks the executing thread — and serial code
            # outside the region may have written arbitrary slots
            return None
        arr = self.rng.choice(arrays)
        in_region = ctx.region is not None
        if in_region and id(arr) in ctx.region.write_arrays:
            if not ctx.can_read_array_at(arr, thread_idx=True):
                return None
            return ArrayRef(arr, ThreadIdx())
        # read-only array: any bounded index is legal
        idx = self._read_index(arr)
        if idx is None:
            return None
        return ArrayRef(arr, idx)

    def _read_index(self, arr: Variable):
        """A bounded index for reading: loop var % size, thread id (inside a
        region), or a constant below the array size."""
        ctx = self.ctx
        choices: list[str] = ["const"]
        loop_vars = ctx.scope.visible_loop_vars()
        if loop_vars:
            choices.append("loop")
        if ctx.region is not None and not ctx.in_single \
                and ctx.owner is None:
            # inside a single or an execute-once work node the executing
            # thread is unspecified, so the thread id is not a
            # meaningful (deterministic) index
            choices.append("tid")
        kind = self.rng.choice(choices)
        if kind == "loop":
            lv = self.rng.choice(loop_vars)
            return ModIdx(VarRef(lv), arr.array_size)
        if kind == "tid":
            return ThreadIdx()
        return self.small_int(arr.array_size)

    def term(self) -> Expr:
        """One ``<term>``: an identifier or an fp numeral, maybe signed."""
        ctx, rng = self.ctx, self.rng
        atom: Expr | None = None
        roll = rng.random()
        if roll < 0.45:
            scalars = self._readable_scalars()
            if scalars:
                atom = VarRef(rng.choice(scalars))
        elif roll < 0.70:
            atom = self._readable_array_atom()
        elif roll < 0.76:
            loop_vars = ctx.scope.visible_loop_vars()
            if loop_vars:  # ints promote to the fp type in C
                atom = VarRef(rng.choice(loop_vars))
        if atom is None:
            atom = self.fp_numeral()
        if rng.coin(0.15):
            atom = UnaryOp(rng.choice(("+", "-")), atom)
        return atom

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expression(self, max_terms: int | None = None) -> Expr:
        """A random ``<expression>`` with 1..MAX_EXPRESSION_SIZE terms."""
        cfg, rng = self.cfg, self.rng
        limit = max_terms if max_terms is not None else cfg.max_expression_size
        n_terms = rng.randint(1, max(1, limit))
        expr = self._maybe_math(self.term())
        for _ in range(n_terms - 1):
            op = rng.weighted_choice(_OP_WEIGHTS)
            rhs = self._maybe_math(self.term())
            if rng.coin(0.25):
                rhs = Paren(rhs) if isinstance(rhs, BinOp) else rhs
            if rng.coin(0.2):
                expr = Paren(expr)
            expr = BinOp(op, expr, rhs)
        return expr

    def _maybe_math(self, e: Expr) -> Expr:
        if (self.cfg.math_func_allowed
                and self.rng.coin(self.cfg.math_func_probability)):
            return MathCall(self.rng.choice(MATH_FUNCS), e)
        return e

    def bool_expression(self) -> BoolExpr | None:
        """``<bool-expression> ::= <id> <bool-op> <expression>``.

        Returns ``None`` when no identifier is readable in this context
        (callers then skip generating the conditional).
        """
        rng = self.rng
        lhs: VarRef | ArrayRef | None = None
        if rng.coin(0.75):
            scalars = self._readable_scalars()
            if scalars:
                lhs = VarRef(rng.choice(scalars))
        if lhs is None:
            atom = self._readable_array_atom()
            if isinstance(atom, ArrayRef):
                lhs = atom
        if lhs is None:
            scalars = self._readable_scalars()
            if not scalars:
                return None
            lhs = VarRef(rng.choice(scalars))
        op = rng.choice(list(BoolOpKind))
        # comparisons against a lone numeral are the common shape in the
        # paper's listings (e.g. "var_1 < 1.23e-10"); long right-hand sides
        # still occur with bounded probability
        if rng.coin(0.6):
            rhs: Expr = self.fp_numeral()
        else:
            rhs = self.expression(max_terms=max(1, self.cfg.max_expression_size - 1))
        return BoolExpr(lhs, op, rhs)
