"""Tests for StructuralLowerer — AST to kernel-IR lowering — and for the
two IR emitters.

The IR is the lowering's only product: both kernel backends are emitted
from it, so these tests pin the op sequence each construct lowers to
(hand-built mini programs, reusing the builders of ``test_lowering``),
check that every IR op has an emitter arm in both backends, and pin the
Python emitter's semantic choices.
"""

from __future__ import annotations

import math
import re
import sys
import typing
from contextlib import nullcontext

import pytest

from repro.core.nodes import (
    ArrayRef,
    Assignment,
    BinOp,
    Block,
    ForLoop,
    FPNumeral,
    IntNumeral,
    OmpAtomic,
    OmpCritical,
    OmpParallel,
    OmpSection,
    OmpSections,
    OmpSingle,
    OmpTask,
    OmpTaskwait,
    Paren,
    UnaryOp,
    VarRef,
)
from repro.core.types import (
    AssignOpKind,
    BinOpKind,
    FPType,
    OmpClauses,
    ReductionOp,
    ScheduleKind,
    Variable,
    VarKind,
)
from repro.sim import _native, ir, irpasses
from repro.sim.backend import _c_available, quick_kernel_builds
from repro.sim.ckernel import bind_c, emit_c
from repro.sim.lower import (
    CostState,
    RuntimeConstSite,
    StructuralKernel,
    StructuralLowerer,
    bind_costs,
)
from repro.sim.pykernel import bind_py, emit_py
from repro.sim.values import MATH_IMPLS, f32
from repro.vendors.gcc import GCC
from test_lowering import _mk, _simple_region


#: no flush, no contraction: the mode hand-built kernels run under
PLAIN = (False, "none")


def _lower(program):
    return StructuralLowerer(program).lower()


def _walk_ir(program, monkeypatch) -> ir.KernelIR:
    """The IR of the lowering walk alone, before the pass list runs (the
    passes drop statements whose values reach no output)."""
    monkeypatch.setattr(irpasses, "PASSES", ())
    return _lower(program).ir


def _body(kir: ir.KernelIR) -> list:
    """The ops lowered from the program body: after the prologue, the
    parameter loads and the accumulator Reload; before the closing Flush
    and Return."""
    ops = kir.ops
    assert ops[0] == ir.Prologue()
    assert ops[-2:] == [ir.Flush(), ir.Return("comp")]
    start = ops.index(ir.Reload()) + 1
    return ops[start:-2]


def _names(ops) -> list[str]:
    return [type(op).__name__ for op in ops]


def _walk(ops):
    for op in ops:
        yield op
        yield from _walk(getattr(op, "body", ()))


def _find_all(ops, cls) -> list:
    return [op for op in _walk(ops) if isinstance(op, cls)]


def _param(name="var_x"):
    return Variable(name, FPType.DOUBLE, VarKind.PARAM)


def _assign(target, op, expr):
    return Assignment(VarRef(target), op, expr)


def _region(stmts, *, threads=4, reduction=None):
    return OmpParallel(OmpClauses(num_threads=threads, reduction=reduction),
                       Block(stmts))


def _thread_body(kir) -> list:
    """The body of the (single) region's per-thread loop."""
    (team,) = [op for op in _find_all(kir.ops, ir.ForRange)
               if op.var == "_tid"]
    return team.body


# ----------------------------------------------------------------------
# expressions: constant folding
# ----------------------------------------------------------------------

class TestFolding:
    def test_all_numeral_subtree_folds_to_one_literal(self):
        p = _mk(lambda comp: Block([_assign(
            comp, AssignOpKind.ASSIGN,
            BinOp(BinOpKind.MUL,
                  UnaryOp("-", Paren(BinOp(BinOpKind.ADD, FPNumeral(2.0),
                                           FPNumeral(3.0)))),
                  IntNumeral(4)))]))
        # the static cost model still charges the full tree
        assert _body(_lower(p).ir) == [
            ir.Charge(0, 0, 1, 0.0),
            ir.SetVar("comp", ir.FLit(-20.0))]

    def test_fold_applies_the_shape_wrap(self):
        p = _mk(lambda comp: Block([_assign(
            comp, AssignOpKind.ASSIGN,
            BinOp(BinOpKind.ADD, FPNumeral(0.1), FPNumeral(0.2)))]),
            fp=FPType.FLOAT)
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store.e == ir.FLit(f32(f32(0.1) + f32(0.2)))

    def test_non_finite_fold_stays_an_op(self):
        p = _mk(lambda comp: Block([_assign(
            comp, AssignOpKind.ASSIGN,
            BinOp(BinOpKind.DIV, FPNumeral(1.0), FPNumeral(0.0)))]))
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store.e == ir.FBin("/", ir.FLit(1.0), ir.FLit(0.0))

    def test_variable_operand_stops_folding_at_its_op(self):
        x = _param()
        p = _mk(lambda comp: Block([_assign(
            comp, AssignOpKind.ASSIGN,
            BinOp(BinOpKind.ADD, VarRef(x),
                  BinOp(BinOpKind.ADD, FPNumeral(1.0), FPNumeral(2.0))))]),
            extra_params=[x])
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store.e == ir.FBin("+", ir.FVar("var_x"), ir.FLit(3.0))


# ----------------------------------------------------------------------
# assignments
# ----------------------------------------------------------------------

class TestAssignments:
    def test_div_assign_by_nonzero_constant(self):
        p = _mk(lambda comp: Block([
            _assign(comp, AssignOpKind.DIV_ASSIGN, FPNumeral(4.0))]))
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store == ir.SetVar("comp", ir.FBin(
            "/", ir.FVar("comp"), ir.FLit(4.0)))

    def test_div_assign_by_variable(self):
        x = _param()
        p = _mk(lambda comp: Block([
            _assign(comp, AssignOpKind.DIV_ASSIGN, VarRef(x))]),
            extra_params=[x])
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store == ir.SetVar("comp", ir.FBin(
            "/", ir.FVar("comp"), ir.FVar("var_x")))

    def test_array_compound_assign_loads_and_stores_the_element(
            self, monkeypatch):
        arr = Variable("var_a", FPType.DOUBLE, VarKind.PARAM, is_array=True,
                       array_size=4)
        p = _mk(lambda comp: Block([Assignment(
            ArrayRef(arr, IntNumeral(2)), AssignOpKind.ADD_ASSIGN,
            FPNumeral(1.0))]), extra_params=[arr])
        kir = _walk_ir(p, monkeypatch)
        assert ir.LoadArray("var_a") in kir.ops
        (store,) = _find_all(kir.ops, ir.AStore)
        assert store == ir.AStore("var_a", ir.ILit(2), ir.FBin(
            "+", ir.ALoad("var_a", ir.ILit(2)), ir.FLit(1.0)))

    def test_ftz_shape_flushes_array_inputs_on_load(self):
        arr = Variable("var_a", FPType.FLOAT, VarKind.PARAM, is_array=True,
                       array_size=4)
        p = _mk(lambda comp: Block([]), fp=FPType.FLOAT,
                extra_params=[arr])
        kir = _lower(p).ir
        assert ir.LoadArray("var_a") in kir.ops
        # the FTZ mode flushes each element on load (DAZ); others copy
        assert "var_a = [_ftzf(_x) for _x in _args['var_a']]" \
            in emit_py(kir, (True, "basic"))
        assert "var_a = list(_args['var_a'])" \
            in emit_py(kir, (False, "basic"))


# ----------------------------------------------------------------------
# synchronization constructs
# ----------------------------------------------------------------------

class TestCritical:
    def test_critical_counts_the_acquire_and_charges_the_critical_lane(self):
        x = _param("var_p")

        def body(comp):
            lv = Variable("i_1", None, VarKind.LOOP)
            crit = OmpCritical(Block([
                _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))]))
            loop = ForLoop(lv, IntNumeral(10), Block([crit]), omp_for=True)
            return Block([_region([loop])])

        kir = _lower(_mk(body, extra_params=[x])).ir
        (loop,) = _find_all(kir.ops, ir.ForAssign)
        # no flush and no runtime call per acquire: the livelock abort
        # hands the runtime the lanes itself
        assert _names(loop.body) == ["Charge", "CritEnter", "Charge",
                                     "SetVar"]
        head, _, inner, _ = loop.body
        assert head.lane == 0 and head.br == 1.0  # the loop-head charge
        assert inner.lane == 1 and inner.k_cy is not None


class TestRuntimeConstants:
    def test_atomic_charges_the_rmw_constant_inline(self):
        def body(comp):
            upd = _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            return Block([_region([OmpAtomic(upd)])])

        structural = _lower(_mk(body))
        thread = _thread_body(structural.ir)
        at = thread.index(ir.Count("atomic"))
        update, rmw = thread[at - 2:at]
        assert update == ir.Charge(0, update.k_cy, update.k_cy + 1, 0.0)
        assert rmw == ir.Charge(0, update.k_cy + 2, None, 0.0)
        assert isinstance(thread[at + 1], ir.SetVar)
        site = structural.sites[-1]
        assert isinstance(site, RuntimeConstSite)
        assert (site.param, site.k) == ("atomic_rmw_cycles", rmw.k_cy)
        constants = bind_costs(structural, GCC, "-O3").constants
        assert constants[rmw.k_cy] == GCC.runtime.atomic_rmw_cycles

    def test_single_guards_thread_zero_then_charges_arrival(self):
        def body(comp):
            return Block([_region([OmpSingle(Block([
                _assign(comp, AssignOpKind.ASSIGN, FPNumeral(2.0))]))])])

        structural = _lower(_mk(body))
        thread = _thread_body(structural.ir)
        at = [type(op) for op in thread].index(ir.IfIntEq)
        branch, guard, arrival, done = thread[at - 1:at + 3]
        assert branch.br == 1.0
        assert (guard.var, guard.k) == ("_tid", 0)
        assert _names(guard.body) == ["Charge", "SetVar"]
        assert arrival == ir.Charge(0, arrival.k_cy, None, 0.0)
        assert done == ir.Count("sync")
        (site,) = [s for s in structural.sites
                   if isinstance(s, RuntimeConstSite)]
        assert (site.param, site.k) == ("single_arrival_cycles",
                                        arrival.k_cy)


# ----------------------------------------------------------------------
# parallel regions
# ----------------------------------------------------------------------

class TestRegion:
    def test_region_protocol(self, monkeypatch):
        def body(comp):
            region, self._x = _simple_region(comp, trip=8)
            return Block([region])

        p = _mk(body)
        p.params.append(self._x)
        ops = _body(_walk_ir(p, monkeypatch))
        assert _names(ops) == ["Flush", "RegionEnter", "Reload", "SetVar",
                               "ForRange", "Flush", "RegionExit", "Reload",
                               "SetVar"]
        assert ops[1] == ir.RegionEnter(0)
        assert ops[3] == ir.SetVar("_save_var_p", ir.FVar("var_p"))
        team = ops[4]
        assert (team.var, team.hi) == ("_tid", ir.ILit(4))
        assert team.body[0] == ir.ThreadBegin()
        assert team.body[-1] == ir.ThreadEnd()
        assert not _find_all(team.body, ir.Flush)  # no per-thread flush
        assert ops[5:8] == [ir.Flush(), ir.RegionExit(0, "comp", None, 4),
                            ir.Reload()]
        assert ops[8] == ir.SetVar("var_p", ir.FVar("_save_var_p"))

    def test_reduction_region_collects_partials(self, monkeypatch):
        def body(comp):
            region, self._x = _simple_region(comp, reduction=ReductionOp.SUM)
            return Block([region])

        p = _mk(body)
        p.params.append(self._x)
        kir = _walk_ir(p, monkeypatch)
        ops = _body(kir)
        assert _names(ops)[:5] == ["Flush", "RegionEnter", "Reload",
                                   "SetVar", "InitPartials"]
        thread = _thread_body(kir)
        assert thread[1] == ir.SetVar("_rcomp", ir.FLit(0.0))
        assert thread[-2:] == [ir.AppendPartial("_rcomp"), ir.ThreadEnd()]
        # comp is the private copy inside the region
        (update,) = [op for op in _find_all(thread, ir.SetVar)
                     if op.name == "_rcomp" and isinstance(op.e, ir.FBin)]
        assert update.e.a == ir.FVar("_rcomp")
        assert ir.RegionExit(0, "comp", "+", 4) in ops


# ----------------------------------------------------------------------
# worksharing
# ----------------------------------------------------------------------

class TestWorksharing:
    def _loop_region(self, **loop_kw):
        def body(comp):
            lv = Variable("i_1", None, VarKind.LOOP)
            upd = _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            return Block([_region([ForLoop(lv, IntNumeral(8), Block([upd]),
                                           omp_for=True, **loop_kw)],
                                  reduction=ReductionOp.SUM)])

        return _thread_body(_lower(_mk(body)).ir)

    def test_default_schedule_chunks_then_ranges(self):
        # the default schedule is static without a chunk: each thread's
        # one contiguous block, walked by the kernel
        thread = self._loop_region()
        at = [type(op) for op in thread].index(ir.ForAssign)
        loop, done = thread[at:at + 2]
        assert (loop.var, loop.n, loop.kind, loop.chunk, loop.threads) == (
            "i_1", ir.ILit(8), "static", 0, 4)
        assert done == ir.Count("sync")

    def test_static_chunked_schedule_assigns(self):
        thread = self._loop_region(schedule=ScheduleKind.STATIC,
                                   schedule_chunk=3)
        (loop,) = _find_all(thread, ir.ForAssign)
        assert (loop.kind, loop.chunk) == ("static", 3)

    def test_dynamic_schedule_assigns(self):
        thread = self._loop_region(schedule=ScheduleKind.DYNAMIC,
                                   schedule_chunk=2)
        (loop,) = _find_all(thread, ir.ForAssign)
        assert (loop.var, loop.n, loop.kind, loop.chunk) == (
            "i_1", ir.ILit(8), "dynamic", 2)
        assert _names(loop.body) == ["Charge", "SetVar"]

    def test_collapse2_flattens_the_nest(self):
        def body(comp):
            lv1 = Variable("i_1", None, VarKind.LOOP)
            lv2 = Variable("i_2", None, VarKind.LOOP)
            upd = _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            inner = ForLoop(lv2, IntNumeral(5), Block([upd]))
            outer = ForLoop(lv1, IntNumeral(3), Block([inner]), omp_for=True,
                            collapse=2)
            return Block([_region([outer], reduction=ReductionOp.SUM)])

        thread = _thread_body(_lower(_mk(body)).ir)
        at = [type(op) for op in thread].index(ir.SetIVar)
        n2, n, loop = thread[at:at + 3]
        assert n2 == ir.SetIVar("_n2_i_1", ir.ILit(5))
        assert n == ir.SetIVar("_n_i_1", ir.IMul(ir.ILit(3),
                                                 ir.IVar("_n2_i_1")))
        assert (loop.var, loop.n) == ("_k_i_1", ir.IVar("_n_i_1"))
        k, n2v = ir.IVar("_k_i_1"), ir.IVar("_n2_i_1")
        assert loop.body[:2] == [
            ir.SetIVar("i_1", ir.IFloorDiv(k, n2v)),
            ir.SetIVar("i_2", ir.IModV(k, n2v))]
        # two loop heads' worth of bookkeeping per flattened iteration
        assert loop.body[2].br == 2.0

    def test_sections_assign_arms_round_robin(self):
        x = _param()

        def body(comp):
            arms = [OmpSection(Block([
                _assign(x, AssignOpKind.ASSIGN, FPNumeral(float(i)))]))
                for i in range(5)]
            return Block([_region([OmpSections(arms)], threads=2)])

        thread = _thread_body(_lower(_mk(body, extra_params=[x])).ir)
        guards = [op for op in thread if isinstance(op, ir.IfIntEq)]
        assert [(g.var, g.k) for g in guards] == [
            ("_tid", i % 2) for i in range(5)]
        assert thread[-2] == ir.Count("sync")


class TestTasks:
    def _arm(self, stmts):
        x = _param()

        def body(comp):
            arm = OmpSection(Block(stmts(x)))
            return Block([_region([OmpSections([arm])])])

        thread = _thread_body(_lower(_mk(body, extra_params=[x])).ir)
        guard = _find_all(thread, ir.IfIntEq)[0]  # drain guards nest in it
        return guard.body

    @staticmethod
    def _task(x, v):
        return OmpTask(Block([_assign(x, AssignOpKind.ASSIGN,
                                      FPNumeral(v))]))

    def test_taskwait_drains_the_queue_in_spawn_order(self):
        arm = self._arm(lambda x: [self._task(x, 1.0), self._task(x, 2.0),
                                   OmpTaskwait()])
        assert _names(arm) == ["QNew", "Charge", "QPush", "Charge", "QPush",
                               "Charge", "ForList", "QNew"]
        assert arm[0] == ir.QNew("_tq0")
        assert [op.k for op in arm if isinstance(op, ir.QPush)] == [0, 1]
        drain = arm[6]
        assert (drain.queue, drain.var) == ("_tq0", "_tk0")
        assert [(g.var, g.k) for g in drain.body
                if isinstance(g, ir.IfIntEq)] == [("_tk0", 0), ("_tk0", 1)]
        assert arm[7] == ir.QNew("_tq0")  # a fresh queue after the drain

    def test_unjoined_tasks_drain_at_arm_end(self):
        arm = self._arm(lambda x: [self._task(x, 1.0)])
        assert _names(arm)[-2:] == ["ForList", "QNew"]

    def test_arm_without_tasks_has_no_queue(self):
        arm = self._arm(lambda x: [
            _assign(x, AssignOpKind.ASSIGN, FPNumeral(1.0))])
        assert not _find_all(arm, (ir.QNew, ir.ForList))


# ----------------------------------------------------------------------
# the emitters
# ----------------------------------------------------------------------

_X, _I = ir.FVar("x"), ir.IVar("i")

#: one instance of every IR class, keyed by class
_SAMPLES = {type(op): op for op in (
    ir.FLit(1.5), _X, ir.ALoad("a", ir.ILit(1)), ir.IToF(_I), ir.FNeg(_X),
    ir.FBin("+", _X, ir.FLit(2.0)),
    ir.FFma(_X, _X, ir.FLit(1.0)),
    ir.FCall("sin", _X),
    ir.FSite(ir.FFma(_X, _X, ir.FLit(1.0)),
             ir.FBin("+", ir.FLit(2.0), ir.FLit(1.0)), "basic"),
    ir.ILit(3), _I, ir.IMax0("n"), ir.IMod(_I, 4), ir.IMul(ir.ILit(2), _I),
    ir.IFloorDiv(_I, ir.ILit(2)), ir.IModV(_I, ir.IVar("j")),
    ir.SetVar("x", ir.FLit(1.0)), ir.SetIVar("i", ir.ILit(0)),
    ir.AStore("a", ir.ILit(0), _X), ir.Charge(1, 0, 1, 1.0), ir.Flush(),
    ir.Reload(), ir.Prologue(), ir.Count("sync"), ir.CritEnter(),
    ir.RegionEnter(0), ir.ThreadBegin(), ir.ThreadEnd(),
    ir.RegionExit(0, "comp", "+", 4), ir.InitPartials(),
    ir.AppendPartial("_rcomp"),
    ir.ForRange("i", ir.ILit(4), [ir.Flush()]),
    ir.ForAssign("i", ir.ILit(8), "dynamic", 2, 4, [ir.Flush()]),
    ir.ForList("_tq0", "_tk0", [ir.Flush()]), ir.QNew("_tq0"),
    ir.QPush("_tq0", 0),
    ir.If(ir.Cmp(_X, "<", ir.FLit(1.0)), [ir.Flush()]),
    ir.IfIntEq("_tid", 0, [ir.Flush()]), ir.LoadInt("n"),
    ir.LoadScalar("x"), ir.LoadArray("a"),
    ir.Return("comp"),
)}


def _as_stmt(op):
    """Wrap an expression sample in the statement that evaluates it."""
    if isinstance(op, typing.get_args(ir.FExpr)):
        return ir.SetVar("x", op)
    if isinstance(op, typing.get_args(ir.IExpr)):
        return ir.SetIVar("i", op)
    return op


def _kernel(*ops, n_constants=2) -> ir.KernelIR:
    return ir.KernelIR(ops=list(ops), n_constants=n_constants,
                       fp_vars=("x", "comp", "_rcomp"),
                       int_vars=("i", "j", "n", "_tk0"), arrays=("a",),
                       queues=("_tq0",), math_funcs=("sin",))


_IR_CLASSES = sorted({*typing.get_args(ir.Stmt), *typing.get_args(ir.FExpr),
                      *typing.get_args(ir.IExpr)},
                     key=lambda cls: cls.__name__)

#: one emitter case per IR class, plus the default schedule: once an op
#: of its own (``Chunk``), now a static ``ForAssign`` without a chunk,
#: which both emitters walk on an arm the ``dynamic`` sample skips
_CASES = {cls.__name__: _SAMPLES.get(cls) for cls in _IR_CLASSES}
_CASES["Chunk"] = ir.ForAssign("i", ir.ILit(8), "static", 0, 4, [ir.Flush()])


@pytest.mark.parametrize("name", sorted(_CASES))
class TestEmittersCoverEveryOp:
    def test_python_emitter(self, name):
        assert _CASES[name] is not None, f"add an {name} sample"
        source = emit_py(_kernel(_as_stmt(_CASES[name])), PLAIN)
        compile(source, "<test>", "exec")  # valid Python, not just text

    def test_c_emitter(self, name):
        assert _CASES[name] is not None, f"add an {name} sample"
        assert "krun" in emit_c(_kernel(_as_stmt(_CASES[name])))


def _py_line(op) -> str:
    """The first line the Python emitter writes for one statement."""
    return emit_py(_kernel(op, n_constants=0),
                   PLAIN).splitlines()[1].strip()


class TestPythonEmitter:
    @pytest.mark.parametrize("divisor,text", [
        (ir.FLit(4.0), "x = (x / 4.0)"),
        (ir.FLit(0.0), "x = _div(x, 0.0)"),
        (ir.FLit(-0.0), "x = _div(x, -0.0)"),
        (ir.FVar("y"), "x = _div(x, y)"),
    ])
    def test_plain_division_only_by_a_nonzero_literal(self, divisor, text):
        assert _py_line(ir.SetVar("x", ir.FBin("/", _X, divisor))) == text

    def test_zero_lower_bound_ranges_to_n(self):
        assert _py_line(ir.ForRange("i", ir.IMax0("n"), [ir.Flush()])) \
            == "for i in range(max(0, n)):"

    def test_empty_body_is_pass(self):
        lines = emit_py(_kernel(ir.IfIntEq("_tid", 0, []), ir.Flush(),
                                n_constants=0), PLAIN).splitlines()
        assert lines[1:3] == ["    if _tid == 0:", "        pass"]
        assert emit_py(_kernel(n_constants=0),
                       PLAIN).splitlines()[1] == "    pass"

    def test_constants_unpack_into_locals(self):
        assert emit_py(_kernel(n_constants=1), PLAIN).splitlines()[1] \
            == "    _K0, = _K"
        assert emit_py(_kernel(n_constants=3), PLAIN).splitlines()[1] \
            == "    _K0, _K1, _K2 = _K"

    def test_compound_int_operands_keep_their_grouping(self):
        e = ir.IMul(ir.ILit(2), ir.IMod(ir.IVar("i"), 3))
        text = _py_line(ir.SetIVar("j", e))
        assert text == "j = (2) * ((i) % 3)"
        assert eval(text.split(" = ")[1], {"i": 5}) == 4


# ----------------------------------------------------------------------
# one C module for every mode: selects on the running mode
# ----------------------------------------------------------------------

class TestFamilyEmitter:
    """What :func:`emit_c` writes for the family of modes one module
    serves, without compiling it."""

    def test_identical_members_need_no_select(self):
        # without contraction sites every FMA mode runs the same code
        source = emit_c(_kernel(ir.SetVar("x", _SAMPLES[ir.FBin])))
        assert "fm >=" not in source

    def test_ftz_decided_wraps_select_on_the_flag(self):
        kir = _kernel(ir.SetVar("x", ir.FBin("+", _X, ir.FLit(2.0))),
                      ir.LoadArray("a"))
        kir.fp32 = True
        source = emit_c(kir)
        # the flag picks the flush threshold once per call
        assert "thr_f = c->mode & 1 ? RK_MIN_NORMAL_F : 0.0;" in source
        assert "v_x = f32_sel(v_x + 0x1.0000000000000p+1, thr_f);" in source
        assert 'api->load_array(env, "a", thr_f, &a_a, &an_a)' in source

    def test_differing_subexpressions_select_on_the_member(self):
        # a contraction site selects its form on the running FMA level
        y, one = ir.FVar("y"), ir.FLit(1.0)
        site = ir.FSite(ir.FFma(ir.FNeg(_X), y, one),
                        ir.FBin("-", one, ir.FBin("*", _X, y)), "aggressive")
        source = emit_c(_kernel(ir.SetVar("x", ir.FNeg(site))))
        assert "long fm = c->mode >> 1;" in source
        assert ("v_x = (-((fm >= 2 ? "
                "ftz_sel(h_fmad((-(v_x)), v_y, 0x1.0000000000000p+0), "
                "thr_d) : "
                "ftz_sel(0x1.0000000000000p+0 - ftz_sel(v_x * v_y, thr_d), "
                "thr_d))));") in source
        # the same select whether or not a form folded
        source = emit_c(_kernel(ir.SetVar("x", _SAMPLES[ir.FSite])))
        assert ("v_x = (fm >= 1 ? "
                "ftz_sel(h_fmad(v_x, v_x, 0x1.0000000000000p+0), thr_d) : "
                "ftz_sel(0x1.0000000000000p+1 + 0x1.0000000000000p+0, "
                "thr_d));") in source

    def test_signed_zero_literals_are_not_merged(self):
        # a per-mode literal keeps the sign of each mode's zero
        site = ir.FSite(ir.FLit(-0.0), ir.FLit(0.0), "aggressive")
        source = emit_c(_kernel(ir.SetVar("x", site)))
        assert "(fm >= 2 ? -0x0.0p+0 : 0x0.0p+0)" in source



class TestKernelObjectEmitter:
    """The kernel object :func:`emit_c` writes: plain C over the kernel
    ABI, arrays indexed directly where one length check at entry covers
    the index."""

    def test_no_python_header(self):
        # no header at all: the prelude declares what a kernel calls
        source = emit_c(_kernel(*[_as_stmt(c) for c in _CASES.values()]))
        assert "Python.h" not in source
        assert re.search(r"\bPy[A-Z_]", source) is None  # no C-API name
        assert "#include" not in source
        assert "int krun(rk_ctx *c) {" in source

    def test_value_helpers_are_the_abi_copy(self):
        # the battery checks the helpers of the value-helper module, so a
        # kernel must compute with that very text: each helper defined
        # once, inside the ABI both include
        source = emit_c(_kernel(*[_as_stmt(c) for c in _CASES.values()]))
        assert _native.KERNEL_ABI in source
        for helper in ("ftz_sel", "f32_sel", "h_fmad", "h_fmaf"):
            definition = re.compile(rf"\bdouble\s+{helper}\s*\(")
            assert len(definition.findall(_native.KERNEL_ABI)) == 1, helper
            assert len(definition.findall(source)) == 1, helper

    #: a[3] (constant), a[i % 5] (``% M``), b[_tid] in a 4-thread loop,
    #: and b[j] over a loop variable
    BOUNDED = ir.KernelIR(
        ops=[ir.LoadInt("i"), ir.LoadArray("a"), ir.LoadArray("b"),
             ir.SetVar("comp", ir.ALoad("a", ir.ILit(3))),
             ir.AStore("a", ir.IMod(ir.IVar("i"), 5), ir.FLit(1.0)),
             ir.ForRange("_tid", ir.ILit(4), [
                 ir.SetVar("comp", ir.FBin("+", ir.FVar("comp"),
                                           ir.ALoad("b", ir.IVar("_tid"))))]),
             ir.ForRange("j", ir.IVar("i"), [
                 ir.AStore("b", ir.IVar("j"), ir.FVar("comp"))]),
             ir.Return("comp")],
        fp_vars=("comp",), int_vars=("i", "j"),
        arrays=("a", "b"))

    def test_bounded_sites_skip_idx_fix(self):
        body = emit_c(self.BOUNDED).split("int krun(rk_ctx *c) {")[1]
        assert "v_comp = a_a[3];" in body
        assert "a_a[py_mod(i_i, 5)] = 0x1.0000000000000p+0;" in body
        assert "a_b[i__tid]" in body
        # the loop variable keeps the wrap and the range check
        assert "a_b[idx_fix(i_j, an_b, &ierr)] = v_comp;" in body
        assert body.count("idx_fix(") == 1
        assert body.count("if (ierr) goto index_error;") == 1
        assert body.count("index_error:") == 1

    def test_one_length_check_per_array(self):
        body = emit_c(self.BOUNDED).split("int krun(rk_ctx *c) {")[1]
        # a: max(3 + 1, 5); b: the widest team
        assert body.count("api->array_len(") == 2
        assert 'if (api->array_len(env, "a") < 5) return RK_SHORT;' in body
        assert 'if (api->array_len(env, "b") < 4) return RK_SHORT;' in body
        # before the prologue's first runtime call
        kir = ir.KernelIR(ops=[ir.Prologue(), *self.BOUNDED.ops],
                          fp_vars=("comp",),
                          int_vars=("i", "j"), arrays=("a", "b"))
        body = emit_c(kir).split("int krun(rk_ctx *c) {")[1]
        assert body.index("api->array_len(") < body.index("api->prologue(")

    def test_tid_written_elsewhere_is_not_bounded(self):
        kir = ir.KernelIR(
            ops=[ir.LoadInt("_tid"), ir.LoadArray("a"),
                 ir.SetVar("comp", ir.ALoad("a", ir.IVar("_tid"))),
                 ir.Return("comp")],
            fp_vars=("comp",), arrays=("a",))
        body = emit_c(kir).split("int krun(rk_ctx *c) {")[1]
        assert "a_a[idx_fix(i__tid, an_a, &ierr)]" in body
        assert "array_len" not in body

    def test_negative_constant_keeps_the_wrap(self):
        kir = ir.KernelIR(
            ops=[ir.LoadArray("a"),
                 ir.SetVar("comp", ir.ALoad("a", ir.ILit(-1))),
                 ir.Return("comp")],
            fp_vars=("comp",), arrays=("a",))
        body = emit_c(kir).split("int krun(rk_ctx *c) {")[1]
        assert "a_a[idx_fix(-1, an_a, &ierr)]" in body


def _c_entry_or_skip():
    ok, why = _c_available()
    if not ok:
        pytest.skip(f"C kernel backend unavailable: {why}")


def _shape(kir: ir.KernelIR) -> StructuralKernel:
    """A hand-built kernel (no hooks, no constants) as a shape."""
    return StructuralKernel(ir=kir, sites=(), teams=())


def _call(entry, args: dict):
    """The kernel's result, or the class of the exception it raised."""
    try:
        return entry(dict(args), None, None)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


def _run_both(kir: ir.KernelIR, args: dict) -> list:
    """``[interp result, C result]`` of a hand-built kernel."""
    shape = _shape(kir)
    return [_call(bind(shape, (), PLAIN), args)
            for bind in (bind_py, bind_c)]


class TestCPreludeIntSemantics:
    """The prelude's ``idx_fix``, ``py_mod`` and ``py_fdv`` against the
    interpreted kernel's Python list and int semantics."""

    #: comp = a[i]; a[i] = 5.0; comp += a[0] — a wrapped load and store
    INDEX = ir.KernelIR(
        ops=[ir.LoadInt("i"), ir.LoadArray("a"),
             ir.SetVar("comp", ir.ALoad("a", ir.IVar("i"))),
             ir.AStore("a", ir.IVar("i"), ir.FLit(5.0)),
             ir.SetVar("comp", ir.FBin("+", ir.FVar("comp"),
                                       ir.ALoad("a", ir.ILit(0)))),
             ir.Return("comp")],
        fp_vars=("comp",), int_vars=("i",), arrays=("a",))

    #: comp = (i // j) * 10000 + (i % j) * 100 + i % 5
    INTS = ir.KernelIR(
        ops=[ir.LoadInt("i"), ir.LoadInt("j"),
             ir.SetIVar("q", ir.IFloorDiv(ir.IVar("i"), ir.IVar("j"))),
             ir.SetIVar("m", ir.IModV(ir.IVar("i"), ir.IVar("j"))),
             ir.SetVar("comp", ir.FBin(
                 "+", ir.FBin("+", ir.IToF(ir.IMul(ir.IVar("q"),
                                                   ir.ILit(10000))),
                              ir.IToF(ir.IMul(ir.IVar("m"), ir.ILit(100)))),
                 ir.IToF(ir.IMod(ir.IVar("i"), 5)))),
             ir.Return("comp")],
        fp_vars=("comp",), int_vars=("i", "j", "q", "m"))

    @pytest.mark.parametrize("i,expected", [
        (0, 15.0), (2, 40.0),        # in range
        (-1, 40.0), (-3, 15.0),      # negative indices wrap once
        (3, IndexError), (100, IndexError),     # past the end
        (-4, IndexError), (-100, IndexError),   # before the start
    ])
    def test_index_wrap_and_range(self, i, expected):
        _c_entry_or_skip()
        got = _run_both(self.INDEX, {"i": i, "a": [10.0, 20.0, 30.0]})
        assert got == [expected, expected]

    @pytest.mark.parametrize("i,j", [
        (7, 3), (-7, 3), (7, -3), (-7, -3),   # nonzero remainder
        (6, 3), (-6, 3), (6, -3), (-6, -3),   # exact division
        (0, 3), (0, -3), (1, 7), (-1, 7), (1, -7), (-1, -7),
    ])
    def test_floored_mod_and_div_every_sign(self, i, j):
        _c_entry_or_skip()
        expected = float((i // j) * 10000 + (i % j) * 100 + i % 5)
        assert _run_both(self.INTS, {"i": i, "j": j}) == [expected,
                                                          expected]



class _Recorder:
    """A runtime that records its calls and charges nothing."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def prologue(self):
        self.calls.append("prologue")
        return sys.maxsize, 0.0, 0.0


class TestShortArrays:
    """A C call whose array is shorter than the kernel's bound runs
    nothing and defers to the interpreted entry: the same result, the
    same exception, the same runtime calls and cost lanes."""

    #: comp = a[0]; if i == 1: comp += a[3]; one charge — a needs 4
    KIR = ir.KernelIR(
        ops=[ir.Prologue(), ir.LoadInt("i"), ir.LoadArray("a"), ir.Reload(),
             ir.SetVar("comp", ir.ALoad("a", ir.ILit(0))),
             ir.IfIntEq("i", 1, [ir.SetVar("comp", ir.FBin(
                 "+", ir.FVar("comp"), ir.ALoad("a", ir.ILit(3))))]),
             ir.Charge(0, 0, None, 1.0), ir.Flush(), ir.Return("comp")],
        n_constants=1, fp_vars=("comp",), int_vars=("i",),
        arrays=("a",))

    @staticmethod
    def _observe(entry, args: dict) -> tuple:
        rt, cost = _Recorder(), CostState()
        try:
            out = entry(dict(args), rt, cost)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            out = (type(exc), str(exc))
        return out, rt.calls, (cost.cy, cost.ccy, cost.ins, cost.br)

    @pytest.mark.parametrize("args", [
        {"i": 1, "a": [1.0, 2.0, 3.0, 4.0]},   # long enough: C runs
        {"i": 0, "a": [1.0, 2.0]},             # short, a[3] not reached
        {"i": 1, "a": [1.0, 2.0]},             # short, a[3] out of range
        {"i": 0, "a": []},                     # a[0] out of range
        {"i": 0},                              # no array argument
    ], ids=["long", "short", "short-oob", "empty", "missing"])
    def test_short_call_is_the_interp_call(self, args):
        _c_entry_or_skip()
        shape = _shape(self.KIR)
        interp = self._observe(bind_py(shape, (5.0,), PLAIN), args)
        assert self._observe(bind_c(shape, (5.0,), PLAIN), args) == interp
        assert interp[1] == ["prologue"]  # the C attempt added none

    def test_short_call_runs_nothing_in_c(self):
        _c_entry_or_skip()
        shape = _shape(self.KIR)
        bind_c(shape, (5.0,), PLAIN)
        rt, cost = _Recorder(), CostState()
        run = shape.backend_cache["c"]
        assert run({"i": 0, "a": [1.0, 2.0]}, rt, cost, (5.0,), 0) is None
        assert rt.calls == []
        assert (cost.cy, cost.ccy, cost.ins, cost.br) == (0.0,) * 4
        assert run({"i": 0, "a": [1.0] * 4}, rt, cost, (5.0,), 0) == 1.0
        assert rt.calls == ["prologue"]

    def test_short_call_is_counted(self, monkeypatch):
        from repro import obs
        from repro.obs.metrics import counter_value

        _c_entry_or_skip()
        monkeypatch.setenv("REPRO_OBS", "0")  # enable() writes it
        entry = bind_c(_shape(self.KIR), (5.0,), PLAIN)
        obs.reset()
        obs.enable(True)
        try:
            self._observe(entry, {"i": 0, "a": [1.0, 2.0]})
            self._observe(entry, {"i": 0, "a": [1.0] * 4})
            assert counter_value(obs.registry_snapshot(),
                                 "repro_kernel_runs_total", backend="interp",
                                 reason="short_array") == 1
        finally:
            obs.enable(False)
            obs.reset()


class TestFamilyRuns:
    """Each mode of one compiled module computes what the interpreted
    kernel emitted for that mode computes: its own FTZ wraps, flushes,
    loads and contraction, on subnormal data."""

    MODES = [(ftz, fma) for fma in ir.FMA_MODES for ftz in (False, True)]

    @classmethod
    def _run_modes(cls, kir: ir.KernelIR, args: dict) -> list:
        """``(interp result, C result)`` per mode, every C run from the
        one module the first bind built."""
        _c_entry_or_skip()
        shape = _shape(kir)
        runs = [(_call(bind_py(shape, (), mode), args),
                 _call(bind_c(shape, (), mode), args)) for mode in cls.MODES]
        assert ("py", True, "none") in shape.backend_cache
        assert shape.backend_cache["c"] is not None
        return runs

    @staticmethod
    def _ftz_kernel() -> ir.KernelIR:
        """comp = x * a[0]; comp = x * a[0] + comp, a contraction site —
        every wrap, the flush after the contraction and both loads
        follow the mode's FTZ flag."""
        x, a0 = ir.FVar("x"), ir.ALoad("a", ir.ILit(0))
        comp = ir.FVar("comp")
        return ir.KernelIR(
            ops=[ir.LoadScalar("x"), ir.LoadArray("a"),
                 ir.SetVar("comp", ir.FBin("*", x, a0)),
                 ir.SetVar("comp", ir.FSite(
                     ir.FFma(x, a0, comp),
                     ir.FBin("+", ir.FBin("*", x, a0), comp), "basic")),
                 ir.Return("comp")],
            fp_vars=("x", "comp"), arrays=("a",))

    @pytest.mark.parametrize("x,a0", [
        (1e-155, 1e-155),   # subnormal products
        (1e-310, 1.0),      # a subnormal scalar argument
        (1.0, 1e-310),      # a subnormal array element
    ])
    def test_each_member_runs_its_own_ftz(self, x, a0):
        runs = self._run_modes(self._ftz_kernel(), args={"x": x, "a": [a0]})
        for ref, got in runs:
            assert got.hex() == ref.hex()
        for (ftz, _), (ref, _) in zip(self.MODES, runs):
            assert (ref == 0.0) == ftz

    def test_each_member_runs_its_own_contraction(self):
        x, y = ir.FVar("x"), ir.FVar("y")
        c = ir.FLit(-(1 + 2.0 ** -29))
        site = ir.FSite(ir.FFma(x, y, c),
                        ir.FBin("+", ir.FBin("*", x, y), c), "aggressive")
        kernel = ir.KernelIR(
            ops=[ir.LoadScalar("x"), ir.LoadScalar("y"),
                 ir.SetVar("comp", site), ir.Return("comp")],
            fp_vars=("x", "y", "comp"))
        v = 1 + 2.0 ** -30
        runs = self._run_modes(kernel, args={"x": v, "y": v})
        assert [got for _, got in runs] == [ref for ref, _ in runs]
        fused = {(False, "aggressive"): 2.0 ** -60,
                 (True, "aggressive"): 2.0 ** -60}
        assert [got for _, got in runs] == [fused.get(mode, 0.0)
                                            for mode in self.MODES]

    #: shape -> (double inputs, float inputs): a = b = 1 + eps and c
    #: such that the fused result is eps**2 (up to sign) and the
    #: two-rounding one 0
    SITE_SHAPES = {
        "a*b+c": (BinOpKind.ADD, False, -1.0),
        "c+a*b": (BinOpKind.ADD, True, -1.0),
        "a*b-c": (BinOpKind.SUB, False, 1.0),
        "c-a*b": (BinOpKind.SUB, True, 1.0),
    }

    @pytest.mark.parametrize("fp", [FPType.DOUBLE, FPType.FLOAT],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("shape", sorted(SITE_SHAPES))
    def test_every_site_shape_runs_its_own_contraction(self, shape, fp):
        op, right, sign = self.SITE_SHAPES[shape]
        a, b, c = (Variable(f"var_{n}", fp, VarKind.PARAM) for n in "abc")
        prod = BinOp(BinOpKind.MUL, VarRef(a), VarRef(b))
        expr = (BinOp(op, VarRef(c), prod) if right
                else BinOp(op, prod, VarRef(c)))
        (store,) = [o for o in _lower(_mk(lambda comp: Block([
            _assign(comp, AssignOpKind.ASSIGN, expr)]), fp=fp,
            extra_params=[a, b, c])).ir.ops if isinstance(o, ir.SetVar)]
        assert isinstance(store.e, ir.FSite)
        kernel = ir.KernelIR(
            ops=[ir.LoadScalar("var_a"), ir.LoadScalar("var_b"),
                 ir.LoadScalar("var_c"), store, ir.Return("comp")],
            fp_vars=("var_a", "var_b", "var_c", "comp"),
            fp32=fp is FPType.FLOAT)
        eps = 2.0 ** (-12 if fp is FPType.FLOAT else -30)
        runs = self._run_modes(kernel, args={
            "var_a": 1 + eps, "var_b": 1 + eps,
            "var_c": sign * (1 + 2 * eps)})
        assert [got for _, got in runs] == [ref for ref, _ in runs]
        fused = {"none": False, "basic": op is BinOpKind.ADD,
                 "aggressive": True}
        for (_, fma), (ref, _) in zip(self.MODES, runs):
            assert abs(ref) == (eps * eps if fused[fma] else 0.0)

    #: every value a wrap or flush decides on, with both signs: zero, the
    #: smallest subnormal, the smallest double and float normals and the
    #: values just below them, infinity; and NaN
    EDGES = [v for m in (0.0, 5e-324, 2.2250738585072014e-308,
                         math.nextafter(2.2250738585072014e-308, 0.0),
                         1.1754943508222875e-38,
                         math.nextafter(1.1754943508222875e-38, 0.0),
                         f32(math.nextafter(1.1754943508222875e-38, 0.0)),
                         math.inf)
             for v in (m, -m)] + [math.nan]

    @staticmethod
    def _edge_kernel(fp32: bool) -> ir.KernelIR:
        """``sel`` picks what comp holds: 0 the loaded scalar, 1 the loaded
        array element, 2 an op result ``x * 1``, 3 a contraction site
        ``x * 1 + 0`` (the FMA flush when it fuses)."""
        x, one, zero = ir.FVar("x"), ir.FLit(1.0), ir.FLit(0.0)
        forms = [x, ir.ALoad("a", ir.ILit(0)), ir.FBin("*", x, one),
                 ir.FSite(ir.FFma(x, one, zero),
                          ir.FBin("+", ir.FBin("*", x, one), zero), "basic")]
        return ir.KernelIR(
            ops=[ir.LoadInt("sel"), ir.LoadScalar("x"), ir.LoadArray("a"),
                 *[ir.IfIntEq("sel", k, [ir.SetVar("comp", e)])
                   for k, e in enumerate(forms)],
                 ir.Return("comp")],
            fp_vars=("x", "comp"), int_vars=("sel",),
            arrays=("a",), fp32=fp32)

    @pytest.mark.parametrize("fp32", [False, True], ids=["fp64", "fp32"])
    def test_ftz_edge_values_match_interp(self, fp32):
        _c_entry_or_skip()
        shape = _shape(self._edge_kernel(fp32))
        entries = [(mode, bind_py(shape, (), mode), bind_c(shape, (), mode))
                   for mode in self.MODES]

        def bits(v):
            return "nan" if v != v else v.hex()

        flushed = 0
        for x in self.EDGES:
            for sel in range(4):
                args = {"sel": sel, "x": x, "a": [x]}
                for mode, py, c in entries:
                    ref = _call(py, args)
                    assert bits(_call(c, args)) == bits(ref), (mode, x, sel)
                    flushed += mode[0] and ref == 0.0 and x != 0.0
        assert flushed  # FTZ flushed some subnormal on every path

    def test_counter_mod_is_cs_mod(self):
        """``% M`` over a loop counter, which never goes negative, is C's
        ``%``; over a loaded int, which may, it keeps ``py_mod``."""
        x = ir.FVar("x")
        counted = ir.ALoad("a", ir.IMod(ir.IVar("i"), 3))
        loaded = ir.ALoad("a", ir.IMod(ir.IVar("j"), 3))
        kir = ir.KernelIR(
            ops=[ir.LoadInt("j"), ir.LoadScalar("x"), ir.LoadArray("a"),
                 ir.SetVar("comp", ir.FLit(0.0)),
                 ir.ForRange("i", ir.ILit(7), [ir.SetVar("comp", ir.FSite(
                     ir.FFma(ir.FVar("comp"), x, counted),
                     ir.FBin("+", ir.FBin("*", ir.FVar("comp"), x), counted),
                     "basic"))]),
                 ir.SetVar("comp", ir.FBin("+", ir.FVar("comp"), loaded)),
                 ir.Return("comp")],
            fp_vars=("x", "comp"), int_vars=("i", "j"), arrays=("a",))
        source = emit_c(kir)
        assert "a_a[(i_i % 3)]" in source
        assert "a_a[py_mod(i_j, 3)]" in source
        a = [1.0 + 2.0 ** -30, -3.5, 1e-310]
        for j in (-4, -1, 2):
            runs = self._run_modes(kir, {"j": j, "x": 1 + 2.0 ** -30,
                                         "a": a})
            for ref, got in runs:
                assert got.hex() == ref.hex(), j

    def test_shared_site_operands_are_evaluated_once(self):
        """A contraction site's operands that are more than a literal or
        a variable — here a difference, array elements and a nested site
        — are evaluated once, ahead of the select, and each mode still
        computes interp's bits."""
        x, y, z = ir.FVar("x"), ir.FVar("y"), ir.FVar("z")
        a1, a2 = ir.ALoad("a", ir.ILit(1)), ir.ALoad("a", ir.ILit(2))
        lhs = ir.FBin("-", x, ir.ALoad("a", ir.ILit(0)))
        inner = ir.FSite(ir.FFma(y, z, a1),
                         ir.FBin("+", ir.FBin("*", y, z), a1), "basic")
        site = ir.FSite(ir.FFma(lhs, inner, ir.FNeg(a2)),
                        ir.FBin("-", ir.FBin("*", lhs, inner), a2),
                        "aggressive")
        kir = ir.KernelIR(
            ops=[ir.LoadScalar("x"), ir.LoadScalar("y"), ir.LoadScalar("z"),
                 ir.LoadArray("a"), ir.SetVar("comp", site),
                 ir.Return("comp")],
            fp_vars=("x", "y", "z", "comp"), arrays=("a",))
        body = emit_c(kir).split("int krun(rk_ctx *c) {")[1]
        for operand in ("a_a[0]", "a_a[1]", "a_a[2]"):
            assert body.count(operand) == 1, operand
        assert body.count("double _s") == 4  # lhs, inner, a[1], a[2]
        eps = 2.0 ** -30
        results = set()
        for x_val in (2 + eps, 1e-300, -7.25):
            runs = self._run_modes(kir, {
                "x": x_val, "y": 1 + eps, "z": 1 + eps,
                "a": [1.0, -(1 + 2 * eps), 0.0]})
            for ref, got in runs:
                assert got.hex() == ref.hex(), x_val
            results |= {ref for ref, _ in runs}
        # the nested site's fused and plain forms differ on these inputs
        assert (1 + eps) * eps * eps in results and 0.0 in results

    def test_mode_out_of_range_is_rejected(self):
        _c_entry_or_skip()
        shape = _shape(self._ftz_kernel())
        bind_c(shape, (), PLAIN)
        with pytest.raises(ValueError, match="mode out of range"):
            shape.backend_cache["c"]({"x": 1.0, "a": [1.0]}, None, None,
                                     (), 2 * len(ir.FMA_MODES))


@pytest.mark.parametrize("tier", ["full", "quick"])
class TestLibmAndNonFiniteLiterals:
    """A kernel object includes no header: its prelude declares the libm
    functions, and NaN and the infinities are builtins.  Each libm call
    and each non-finite literal computes interp's bits in both build
    tiers."""

    NAMES = sorted(MATH_IMPLS)
    LITERALS = [math.inf, -math.inf, math.nan]
    ARGS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.75, -3.0, 100.0, 710.0,
            -710.0, 1e-300, 5e-324, 1e308, -1e308, math.inf, -math.inf,
            math.nan]

    @classmethod
    def _kernel(cls, fp32: bool) -> ir.KernelIR:
        """``sel`` picks what comp holds: a libm call on ``x`` per name,
        then each literal, then ``x`` times each literal."""
        x = ir.FVar("x")
        forms = ([ir.FCall(name, x) for name in cls.NAMES]
                 + [ir.FLit(v) for v in cls.LITERALS]
                 + [ir.FBin("*", x, ir.FLit(v)) for v in cls.LITERALS])
        return ir.KernelIR(
            ops=[ir.Prologue(), ir.LoadInt("sel"), ir.LoadScalar("x"),
                 *[ir.IfIntEq("sel", k, [ir.SetVar("comp", e)])
                   for k, e in enumerate(forms)],
                 ir.Return("comp")],
            fp_vars=("x", "comp"), int_vars=("sel",),
            math_funcs=tuple(cls.NAMES), fp32=fp32)

    @pytest.mark.parametrize("fp32", [False, True], ids=["fp64", "fp32"])
    def test_bits_match_interp(self, tier, fp32):
        _c_entry_or_skip()
        shape = _shape(self._kernel(fp32))
        with quick_kernel_builds() if tier == "quick" else nullcontext():
            c = bind_c(shape, (), PLAIN)
        assert "c" in shape.backend_cache
        py = bind_py(shape, (), PLAIN)

        def bits(entry, args):  # the prologue calls the runtime
            v = entry(dict(args), _Recorder(), None)
            return "nan" if v != v else v.hex()

        n_forms = len(self.NAMES) + 2 * len(self.LITERALS)
        for sel in range(n_forms):
            for x in self.ARGS:
                args = {"sel": sel, "x": x}
                assert bits(c, args) == bits(py, args), (sel, x)

    def test_libm_without_prologue(self, tier):
        """The interpreted kernel binds its libm helpers as parameter
        defaults, not at the ``Prologue``, so an ``FCall`` in a kernel
        with no ``Prologue`` runs under both emitters, with the same
        bits."""
        _c_entry_or_skip()
        x = ir.FVar("x")
        total = ir.FLit(0.0)
        for name in self.NAMES:
            total = ir.FBin("+", total, ir.FCall(name, x))
        shape = _shape(ir.KernelIR(
            ops=[ir.LoadScalar("x"), ir.SetVar("comp", total),
                 ir.Return("comp")],
            fp_vars=("x", "comp"),
            math_funcs=tuple(self.NAMES)))
        with quick_kernel_builds() if tier == "quick" else nullcontext():
            c = bind_c(shape, (), PLAIN)
        assert "c" in shape.backend_cache
        py = bind_py(shape, (), PLAIN)

        def bits(v):
            return v.__name__ if isinstance(v, type) else (
                "nan" if v != v else v.hex())

        for arg in self.ARGS:
            ref = _call(py, {"x": arg})
            assert not isinstance(ref, type), (arg, ref)
            assert bits(_call(c, {"x": arg})) == bits(ref), arg
