"""Tests for the passes over lowered kernel IR (:mod:`repro.sim.irpasses`).

Each test hands one rule of dead-code elimination a hand-built kernel
and pins the ops that survive it; the last class checks that lowering
runs the pass list.
"""

from __future__ import annotations

from repro.core.nodes import Assignment, Block, FPNumeral, VarRef
from repro.core.types import AssignOpKind, FPType, Variable, VarKind
from repro.sim import ir, irpasses
from repro.sim.irpasses import eliminate_dead_code
from repro.sim.lower import StructuralLowerer
from test_lowering import _mk

X, Y, COMP = ir.FVar("x"), ir.FVar("y"), ir.FVar("comp")
ONE = ir.FLit(1.0)


def _dce(*ops, fp_vars=("x", "y", "comp"), math_funcs=()) -> ir.KernelIR:
    """The pass over a kernel of ``ops`` ending in ``return comp``."""
    kir = ir.KernelIR(ops=[*ops, ir.Return("comp")], n_constants=4,
                      fp_vars=fp_vars, int_vars=("i", "n"),
                      arrays=("a", "b"), math_funcs=math_funcs)
    return eliminate_dead_code(kir)


def _sets(ops) -> list:
    """The ``SetVar``/``AStore`` ops of a block and the bodies in it."""
    out = []
    for op in ops:
        if isinstance(op, (ir.SetVar, ir.AStore)):
            out.append(op)
        out.extend(_sets(getattr(op, "body", ())))
    return out


def _charges(ops) -> list:
    return [op for op in ops if isinstance(op, ir.Charge)] + [
        c for op in ops for c in _charges(getattr(op, "body", ()))]


class TestScalars:
    def test_dead_setvar_is_removed(self):
        kir = _dce(ir.SetVar("x", ONE), ir.SetVar("comp", ONE))
        assert _sets(kir.ops) == [ir.SetVar("comp", ONE)]

    def test_overwritten_definition_is_removed(self):
        kir = _dce(ir.SetVar("comp", ir.FLit(2.0)), ir.SetVar("comp", ONE))
        assert _sets(kir.ops) == [ir.SetVar("comp", ONE)]

    def test_definition_read_by_a_live_one_stays(self):
        ops = [ir.SetVar("x", ONE), ir.SetVar("comp", ir.FBin("+", X, ONE))]
        assert _sets(_dce(*ops).ops) == ops

    def test_loop_carried_definition_stays(self):
        # y is read before it is written in the body: the next turn reads
        # the value this turn writes
        body = [ir.SetVar("comp", ir.FBin("+", COMP, Y)),
                ir.SetVar("y", ir.FBin("*", X, ONE))]
        kir = _dce(ir.ForRange("i", ir.ILit(3), list(body)))
        assert _sets(kir.ops) == body

    def test_definition_read_only_after_an_inner_loop_stays(self):
        # nested loops: x is written in the outer body and read in the
        # next outer turn, past an inner loop that reads none of it
        inner = ir.ForRange("n", ir.ILit(2), [ir.SetVar("y", ONE)])
        body = [ir.SetVar("comp", ir.FBin("+", COMP, X)), inner,
                ir.SetVar("x", ONE)]
        kir = _dce(ir.ForRange("i", ir.ILit(3), body))
        assert _sets(kir.ops) == [ir.SetVar("comp", ir.FBin("+", COMP, X)),
                                  ir.SetVar("x", ONE)]

    def test_definition_in_a_branch_keeps_the_one_before(self):
        # the branch may not run: the earlier x is still read after it
        ops = [ir.SetVar("x", ONE),
               ir.IfIntEq("i", 0, [ir.SetVar("x", ir.FLit(2.0))]),
               ir.SetVar("comp", X)]
        assert _sets(_dce(*ops).ops) == _sets(ops)


class TestArrays:
    def test_store_to_an_array_read_later_stays(self):
        store = ir.AStore("a", ir.ILit(0), ONE)
        kir = _dce(store, ir.SetVar("comp", ir.ALoad("a", ir.ILit(1))))
        assert store in kir.ops  # arrays are tracked whole

    def test_store_to_a_never_read_array_goes(self):
        kir = _dce(ir.AStore("b", ir.ILit(0), ONE), ir.SetVar("comp", ONE))
        assert _sets(kir.ops) == [ir.SetVar("comp", ONE)]

    def test_store_to_an_array_read_by_a_later_turn_stays(self):
        body = [ir.SetVar("comp", ir.ALoad("a", ir.ILit(0))),
                ir.AStore("a", ir.ILit(0), ONE)]
        kir = _dce(ir.ForRange("i", ir.ILit(3), list(body)))
        assert _sets(kir.ops) == body


class TestOpsThatCanRaise:
    def test_load_at_an_idx_fix_index_stays(self):
        # a[i]: not an entry-checked form, so it may raise IndexError
        load = ir.SetVar("x", ir.ALoad("a", ir.IVar("i")))
        assert load in _dce(load, ir.SetVar("comp", ONE)).ops

    def test_store_at_an_idx_fix_index_stays(self):
        store = ir.AStore("b", ir.IVar("i"), ONE)
        assert store in _dce(store, ir.SetVar("comp", ONE)).ops

    def test_negative_constant_index_stays(self):
        load = ir.SetVar("x", ir.ALoad("a", ir.ILit(-1)))
        assert load in _dce(load, ir.SetVar("comp", ONE)).ops

    def test_entry_checked_indices_go(self):
        dead = [ir.SetVar("x", ir.ALoad("a", ir.ILit(3))),
                ir.SetVar("x", ir.ALoad("a", ir.IMod(ir.IVar("i"), 4))),
                ir.AStore("b", ir.IVar("_tid"), ONE)]
        kir = _dce(*dead, ir.SetVar("comp", ONE))
        assert _sets(kir.ops) == [ir.SetVar("comp", ONE)]

    def test_int_division_by_a_variable_stays(self):
        div = ir.SetVar("x", ir.IToF(ir.IFloorDiv(ir.IVar("i"),
                                                  ir.IVar("n"))))
        mod = ir.SetVar("y", ir.IToF(ir.IModV(ir.IVar("i"), ir.IVar("n"))))
        by_literal = ir.SetVar("y", ir.IToF(ir.IFloorDiv(ir.IVar("i"),
                                                         ir.ILit(2))))
        kir = _dce(div, mod, by_literal, ir.SetVar("comp", ONE))
        assert _sets(kir.ops) == [div, mod, ir.SetVar("comp", ONE)]

    def test_reads_of_a_kept_op_stay_live(self):
        # x feeds nothing the record reads, but the op that reads it stays
        # (it may raise), so x must still hold its value there
        ops = [ir.SetVar("x", ONE),
               ir.SetVar("y", ir.FBin("+", X, ir.ALoad("a", ir.IVar("i")))),
               ir.SetVar("comp", ONE)]
        assert _sets(_dce(*ops).ops) == ops


class TestWhatRecordsRead:
    def test_if_condition_reads_stay(self):
        ops = [ir.SetVar("x", ONE),
               ir.If(ir.Cmp(X, "<", ir.FLit(2.0)), [ir.Charge(0, 0, 1, 1.0)])]
        kir = _dce(*ops, ir.SetVar("comp", ONE))
        assert ir.SetVar("x", ONE) in kir.ops

    def test_region_exit_comp_stays(self):
        ops = [ir.SetVar("comp", ONE), ir.RegionExit(0, "comp", None, 4),
               ir.SetVar("comp", ir.FLit(2.0))]
        assert _sets(_dce(*ops).ops) == [ir.SetVar("comp", ONE),
                                         ir.SetVar("comp", ir.FLit(2.0))]

    def test_append_partial_var_stays(self):
        thread = [ir.SetVar("y", ONE), ir.AppendPartial("y")]
        kir = _dce(ir.InitPartials(), ir.ForRange("_tid", ir.ILit(4), thread),
                   ir.SetVar("comp", ONE))
        assert ir.SetVar("y", ONE) in kir.ops[1].body

    def test_charges_counts_and_runtime_calls_are_untouched(self):
        rest = [ir.Prologue(), ir.LoadScalar("x"), ir.LoadArray("a"),
                ir.Charge(0, 0, 1, 1.0), ir.Count("sync"), ir.CritEnter(),
                ir.Charge(1, 2, 3, 0.0), ir.Flush(), ir.RegionEnter(0),
                ir.Reload(), ir.QNew("_tq0"), ir.QPush("_tq0", 0)]
        kir = _dce(*rest[:6], ir.SetVar("y", X), *rest[6:],
                   ir.SetVar("comp", ONE))
        assert kir.ops == [*rest, ir.SetVar("comp", ONE), ir.Return("comp")]


class TestRegistries:
    def test_fp_vars_keep_what_survives(self):
        kir = _dce(ir.LoadScalar("x"), ir.SetVar("y", ONE),
                   ir.SetVar("comp", ONE))
        assert kir.fp_vars == ("x", "comp")

    def test_math_funcs_keep_what_survives(self):
        kir = _dce(ir.SetVar("y", ir.FCall("sin", X)),
                   ir.SetVar("comp", ir.FCall("cos", X)),
                   math_funcs=("cos", "sin"))
        assert kir.math_funcs == ("cos",)


class TestLowering:
    def test_lower_runs_the_pass_list(self, monkeypatch):
        x = Variable("var_x", FPType.DOUBLE, VarKind.PARAM)
        program = _mk(lambda comp: Block([
            Assignment(VarRef(x), AssignOpKind.ASSIGN, FPNumeral(1.0)),
            Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(2.0))]),
            extra_params=[x])
        lowered = StructuralLowerer(program).lower()
        assert [op.name for op in _sets(lowered.ir.ops)] == ["comp"]
        monkeypatch.setattr(irpasses, "PASSES", ())
        walked = StructuralLowerer(program).lower()
        assert [op.name for op in _sets(walked.ir.ops)] == ["var_x", "comp"]
        # every charge stays, reading the walk's constants
        assert _charges(lowered.ir.ops) == _charges(walked.ir.ops)
        assert lowered.ir.n_constants == walked.ir.n_constants
