"""Tests for vendor FP contraction: the IR's contraction sites.

A program lowers once; each ADD or SUB with a product operand becomes one
:class:`~repro.sim.ir.FSite` holding its fused and its two-rounding
form.  The mode a kernel runs under picks the form: ``basic`` (Clang,
Intel) fuses ``a*b + c`` and ``c + a*b``, ``aggressive`` (GCC at ``-O3``)
also ``a*b - c`` and ``c - a*b``, and ``none`` (every vendor below
``-O2``) fuses nothing.  The emitted-text tables below are what the
Python emitter wrote for each vendor's separately rewritten tree before
contraction moved into the IR.
"""

import pytest

from repro.core.nodes import (
    Assignment,
    BinOp,
    Block,
    FPNumeral,
    Paren,
    VarRef,
)
from repro.core.types import AssignOpKind, BinOpKind, FPType, Variable, VarKind
from repro.sim import ir
from repro.sim.lower import (
    CostModel,
    StructuralLowerer,
    effective_fma_mode,
    opt_cycle_scale,
)
from repro.sim.pykernel import emit_py
from repro.vendors.gcc import GCC
from test_lowering import _mk

_PARAMS = {n: Variable(f"var_{n}", FPType.DOUBLE, VarKind.PARAM)
           for n in "abcde"}


def _v(name):
    return VarRef(_PARAMS[name])


def _mul(a, b):
    return BinOp(BinOpKind.MUL, _v(a), _v(b))


def _add(lhs, rhs):
    return BinOp(BinOpKind.ADD, lhs, rhs)


def _sub(lhs, rhs):
    return BinOp(BinOpKind.SUB, lhs, rhs)


def _program(expr):
    return _mk(lambda comp: Block([
        Assignment(VarRef(comp), AssignOpKind.ASSIGN, expr)]),
        extra_params=list(_PARAMS.values()))


def _lowered(expr):
    """The IR expression ``comp = expr`` stores."""
    (store,) = [op for op in StructuralLowerer(_program(expr)).lower().ir.ops
                if isinstance(op, ir.SetVar) and op.name == "comp"]
    return store.e


def _emitted(expr, fma, ftz=False) -> str:
    """The line the Python emitter writes for ``comp = expr`` under
    ``(ftz, fma)``."""
    source = emit_py(StructuralLowerer(_program(expr)).lower().ir,
                     (ftz, fma))
    (line,) = [ln.strip() for ln in source.splitlines()
               if ln.strip().startswith("comp = ") and "_args" not in ln]
    return line


_PLAIN_ADD = "comp = ((var_a * var_b) + var_c)"
_FUSED_ADD = "comp = _fma(var_a, var_b, var_c)"

#: shape -> emitted line under (none, basic, aggressive)
SHAPES = {
    "a*b+c": (_add(_mul("a", "b"), _v("c")),
              (_PLAIN_ADD, _FUSED_ADD, _FUSED_ADD)),
    "c+a*b": (_add(_v("c"), _mul("a", "b")),
              ("comp = (var_c + (var_a * var_b))", _FUSED_ADD, _FUSED_ADD)),
    "a*b-c": (_sub(_mul("a", "b"), _v("c")),
              ("comp = ((var_a * var_b) - var_c)",
               "comp = ((var_a * var_b) - var_c)",
               "comp = _fma(var_a, var_b, (-(var_c)))")),
    "c-a*b": (_sub(_v("c"), _mul("a", "b")),
              ("comp = (var_c - (var_a * var_b))",
               "comp = (var_c - (var_a * var_b))",
               "comp = _fma((-(var_a)), var_b, var_c)")),
    "(a*b)+c": (_add(Paren(_mul("a", "b")), _v("c")),
                (_PLAIN_ADD, _FUSED_ADD, _FUSED_ADD)),
    "d*e+(a*b-c)": (_add(_mul("d", "e"),
                         Paren(_sub(_mul("a", "b"), _v("c")))),
                    ("comp = ((var_d * var_e) + ((var_a * var_b) - var_c))",
                     "comp = _fma(var_d, var_e, ((var_a * var_b) - var_c))",
                     "comp = _fma(var_d, var_e, "
                     "_fma(var_a, var_b, (-(var_c))))")),
}


class TestContraction:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_mode_fuses_where_the_rewrite_did(self, shape):
        expr, lines = SHAPES[shape]
        assert isinstance(_lowered(expr), ir.FSite)
        for fma, line in zip(ir.FMA_MODES, lines):
            assert _emitted(expr, fma) == line, (shape, fma)

    def test_basic_contracts_mul_plus(self):
        site = _lowered(_add(_mul("a", "b"), _v("c")))
        assert site.fma == "basic"
        assert site.fused == ir.FFma(ir.FVar("var_a"), ir.FVar("var_b"),
                                     ir.FVar("var_c"))
        assert site.plain == ir.FBin("+", ir.FBin("*", ir.FVar("var_a"),
                                                  ir.FVar("var_b")),
                                     ir.FVar("var_c"))

    def test_basic_contracts_plus_mul(self):
        site = _lowered(_add(_v("c"), _mul("a", "b")))
        assert site.fma == "basic"
        assert site.fused == ir.FFma(ir.FVar("var_a"), ir.FVar("var_b"),
                                     ir.FVar("var_c"))
        assert site.plain.a == ir.FVar("var_c")

    def test_basic_does_not_contract_sub(self):
        e = _sub(_mul("a", "b"), _v("c"))
        assert _lowered(e).fma == "aggressive"
        assert _emitted(e, "basic") == "comp = ((var_a * var_b) - var_c)"

    def test_aggressive_contracts_sub_left(self):
        site = _lowered(_sub(_mul("a", "b"), _v("c")))
        assert site.fused.c == ir.FNeg(ir.FVar("var_c"))

    def test_aggressive_contracts_sub_right(self):
        site = _lowered(_sub(_v("c"), _mul("a", "b")))
        assert site.fused.a == ir.FNeg(ir.FVar("var_a"))
        assert site.fused.c == ir.FVar("var_c")

    def test_none_mode_leaves_tree(self):
        for expr, lines in SHAPES.values():
            assert "_fma" not in _emitted(expr, "none")
            assert _emitted(expr, "none") == lines[0]

    def test_contraction_sees_through_parens(self):
        site = _lowered(_add(Paren(Paren(_mul("a", "b"))), _v("c")))
        assert site == _lowered(_add(_mul("a", "b"), _v("c")))

    def test_div_never_contracts(self):
        e = BinOp(BinOpKind.DIV, _mul("a", "b"), _v("c"))
        assert isinstance(_lowered(e), ir.FBin)
        assert _emitted(e, "aggressive") \
            == "comp = _div((var_a * var_b), var_c)"

    def test_nested_contraction(self):
        inner = _add(_mul("a", "b"), _v("c"))
        outer = _add(_mul("d", "e"), inner)
        site = _lowered(outer)
        assert isinstance(site.fused.c, ir.FSite)
        # the two forms share one lowering of the addend
        assert site.fused.c is site.plain.b
        assert _emitted(outer, "basic") \
            == "comp = _fma(var_d, var_e, _fma(var_a, var_b, var_c))"

    def test_original_tree_untouched(self):
        # lowering reads the tree: every vendor compiles identical source
        for expr, _ in SHAPES.values():
            program = _program(expr)
            (stmt,) = program.body.stmts
            before = repr(program.body)
            StructuralLowerer(program).lower()
            assert repr(program.body) == before
            assert stmt.expr is expr

    def test_lower_block_is_pure(self):
        # the fused form lives in the lowered IR, never in the block
        expr = _add(_mul("a", "b"), _v("c"))
        program = _program(expr)
        block = program.body
        (stmt,) = block.stmts
        lowered = StructuralLowerer(program).lower().ir
        (store,) = [op for op in lowered.ops
                    if isinstance(op, ir.SetVar) and op.name == "comp"]
        assert isinstance(store.e, ir.FSite)
        assert program.body is block and block.stmts[0] is stmt
        assert stmt.expr is expr and isinstance(expr.lhs, BinOp)

    def test_site_costs_follow_the_mode(self):
        e = _sub(_mul("a", "b"), _v("c"))
        load_cy, load_ins = GCC.ops.load
        arith_cy, arith_ins = GCC.ops.arith
        plain = CostModel(GCC.ops, "basic").expr_cost(e)
        fused = CostModel(GCC.ops, "aggressive").expr_cost(e)
        assert plain == (load_cy + load_cy + arith_cy + load_cy + arith_cy,
                         load_ins + load_ins + arith_ins + load_ins
                         + arith_ins)
        # fma(a, b, -c): the negated addend costs like a unary minus
        assert fused == (load_cy + load_cy + (load_cy + 0.5) + arith_cy * 1.3,
                         load_ins + load_ins + (load_ins + 0.5)
                         + arith_ins * 1.1)


class TestSiteFolding:
    def test_fold_equal_in_every_mode_is_one_literal(self):
        e = _add(BinOp(BinOpKind.MUL, FPNumeral(2.0), FPNumeral(3.0)),
                 FPNumeral(1.0))
        assert _lowered(e) == ir.FLit(7.0)

    def test_mode_dependent_fold_is_one_literal_per_mode(self):
        v = 1 + 2.0 ** -30
        e = _add(BinOp(BinOpKind.MUL, FPNumeral(v), FPNumeral(v)),
                 FPNumeral(-(1 + 2.0 ** -29)))
        assert _lowered(e) == ir.FSite(ir.FLit(2.0 ** -60), ir.FLit(0.0),
                                       "basic")
        assert _emitted(e, "none") == "comp = 0.0"
        assert _emitted(e, "basic") == f"comp = {2.0 ** -60!r}"

    def test_fold_the_flush_would_change_stays_an_op(self):
        e = BinOp(BinOpKind.MUL, FPNumeral(1e-300), FPNumeral(1e-10))
        assert _lowered(e) == ir.FBin("*", ir.FLit(1e-300), ir.FLit(1e-10))
        assert _emitted(e, "none", ftz=True) \
            == "comp = _ftz((1e-300 * 1e-10))"


class TestOptLevels:
    def test_fma_disabled_below_o2(self):
        assert effective_fma_mode("aggressive", "-O0") == "none"
        assert effective_fma_mode("aggressive", "-O1") == "none"
        assert effective_fma_mode("aggressive", "-O2") == "aggressive"
        assert effective_fma_mode("basic", "-O3") == "basic"

    def test_cycle_scale_monotonic(self):
        scales = [opt_cycle_scale(o) for o in ("-O0", "-O1", "-O2", "-O3")]
        assert scales == sorted(scales, reverse=True)
        assert opt_cycle_scale("-O3") == 1.0
