"""Tests for StructuralLowerer — AST to kernel-IR lowering — and for the
two IR emitters.

The IR is the lowering's only product: both kernel backends are emitted
from it, so these tests pin the op sequence each construct lowers to
(hand-built mini programs, reusing the builders of ``test_lowering``),
check that every IR op has an emitter arm in both backends, and pin the
Python emitter's semantic choices.
"""

from __future__ import annotations

import typing

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
from repro.sim import ir
from repro.sim.backend import _c_available
from repro.sim.ckernel import SkeletonMismatch, bind_c, emit_c, skeleton
from repro.sim.kcache import KernelCache
from repro.sim.lower import (
    RuntimeConstSite,
    StructuralKernel,
    StructuralLowerer,
    bind_costs,
)
from repro.sim.pykernel import bind_py, emit_py
from repro.sim.values import f32
from repro.vendors.gcc import GCC
from test_lowering import _mk, _simple_region


def _lower(program, *, ftz=False):
    return StructuralLowerer(program, ftz=ftz).lower()


def _body(kir: ir.KernelIR) -> list:
    """The ops lowered from the program body: after the prologue, the
    parameter loads and the accumulator Reload; before the closing Flush
    and Return."""
    ops = kir.ops
    assert ops[0] == ir.Hook("prologue", False)
    assert ops[-2:] == [ir.Flush(), ir.Return(kir.comp)]
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
        assert store.e == ir.FBin("/", ir.FLit(1.0), ir.FLit(0.0),
                                  ir.W_NONE)

    def test_variable_operand_stops_folding_at_its_op(self):
        x = _param()
        p = _mk(lambda comp: Block([_assign(
            comp, AssignOpKind.ASSIGN,
            BinOp(BinOpKind.ADD, VarRef(x),
                  BinOp(BinOpKind.ADD, FPNumeral(1.0), FPNumeral(2.0))))]),
            extra_params=[x])
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store.e == ir.FBin("+", ir.FVar("var_x"), ir.FLit(3.0),
                                  ir.W_NONE)


# ----------------------------------------------------------------------
# assignments
# ----------------------------------------------------------------------

class TestAssignments:
    def test_div_assign_by_nonzero_constant(self):
        p = _mk(lambda comp: Block([
            _assign(comp, AssignOpKind.DIV_ASSIGN, FPNumeral(4.0))]))
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store == ir.SetVar("comp", ir.FBin(
            "/", ir.FVar("comp"), ir.FLit(4.0), ir.W_NONE))

    def test_div_assign_by_variable(self):
        x = _param()
        p = _mk(lambda comp: Block([
            _assign(comp, AssignOpKind.DIV_ASSIGN, VarRef(x))]),
            extra_params=[x])
        (store,) = _find_all(_lower(p).ir.ops, ir.SetVar)
        assert store == ir.SetVar("comp", ir.FBin(
            "/", ir.FVar("comp"), ir.FVar("var_x"), ir.W_NONE))

    def test_array_compound_assign_loads_and_stores_the_element(self):
        arr = Variable("var_a", FPType.DOUBLE, VarKind.PARAM, is_array=True,
                       array_size=4)
        p = _mk(lambda comp: Block([Assignment(
            ArrayRef(arr, IntNumeral(2)), AssignOpKind.ADD_ASSIGN,
            FPNumeral(1.0))]), extra_params=[arr])
        kir = _lower(p).ir
        assert ir.LoadArray("var_a", ir.A_COPY) in kir.ops
        (store,) = _find_all(kir.ops, ir.AStore)
        assert store == ir.AStore("var_a", ir.ILit(2), ir.FBin(
            "+", ir.ALoad("var_a", ir.ILit(2)), ir.FLit(1.0), ir.W_NONE))

    def test_ftz_shape_flushes_array_inputs_on_load(self):
        arr = Variable("var_a", FPType.FLOAT, VarKind.PARAM, is_array=True,
                       array_size=4)
        p = _mk(lambda comp: Block([]), fp=FPType.FLOAT,
                extra_params=[arr])
        assert ir.LoadArray("var_a", ir.A_FTZ_F) in _lower(p, ftz=True).ir.ops


# ----------------------------------------------------------------------
# synchronization constructs
# ----------------------------------------------------------------------

class TestCritical:
    def test_critical_flushes_and_charges_the_critical_lane(self):
        x = _param("var_p")

        def body(comp):
            lv = Variable("i_1", None, VarKind.LOOP)
            crit = OmpCritical(Block([
                _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))]))
            loop = ForLoop(lv, IntNumeral(10), Block([crit]), omp_for=True)
            return Block([_region([loop])])

        kir = _lower(_mk(body, extra_params=[x])).ir
        (loop,) = [op for op in _find_all(kir.ops, ir.ForRange)
                   if op.var == "i_1"]
        assert _names(loop.body) == ["Charge", "Flush", "Hook", "Charge",
                                     "SetVar", "Hook"]
        head, _, enter, inner, _, leave = loop.body
        assert head.lane == 0 and head.br == 1.0  # the loop-head charge
        assert enter == ir.Hook("crit_enter", False)
        assert inner.lane == 1 and inner.k_cy is not None
        assert leave == ir.Hook("crit_exit", False)


class TestRuntimeConstants:
    def test_atomic_charges_the_rmw_constant_inline(self):
        def body(comp):
            upd = _assign(comp, AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            return Block([_region([OmpAtomic(upd)])])

        structural = _lower(_mk(body))
        thread = _thread_body(structural.ir)
        at = thread.index(ir.Hook("atomic_update", False))
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
        assert done == ir.Hook("single_done", True)
        (site,) = [s for s in structural.sites
                   if isinstance(s, RuntimeConstSite)]
        assert (site.param, site.k) == ("single_arrival_cycles",
                                        arrival.k_cy)


# ----------------------------------------------------------------------
# parallel regions
# ----------------------------------------------------------------------

class TestRegion:
    def test_region_protocol(self):
        def body(comp):
            region, self._x = _simple_region(comp, trip=8)
            return Block([region])

        p = _mk(body)
        p.params.append(self._x)
        ops = _body(_lower(p).ir)
        assert _names(ops) == ["Flush", "RegionEnter", "Reload", "SetVar",
                               "ForRange", "RegionExit", "Reload",
                               "SetVar"]
        assert ops[1] == ir.RegionEnter(0)
        assert ops[3] == ir.SetVar("_save_var_p", ir.FVar("var_p"))
        team = ops[4]
        assert (team.var, team.lo, team.hi) == ("_tid", ir.ILit(0),
                                                ir.ILit(4))
        assert team.body[0] == ir.Hook("thread_begin", True)
        assert team.body[-2:] == [ir.Flush(), ir.Hook("thread_end", True)]
        assert ops[5] == ir.RegionExit(0, "comp", False, None)
        assert ops[7] == ir.SetVar("var_p", ir.FVar("_save_var_p"))

    def test_reduction_region_collects_partials(self):
        def body(comp):
            region, self._x = _simple_region(comp, reduction=ReductionOp.SUM)
            return Block([region])

        p = _mk(body)
        p.params.append(self._x)
        kir = _lower(p).ir
        ops = _body(kir)
        assert _names(ops)[:5] == ["Flush", "RegionEnter", "Reload",
                                   "SetVar", "InitPartials"]
        thread = _thread_body(kir)
        assert thread[1] == ir.SetVar("_rcomp", ir.FLit(0.0))
        assert thread[-3:] == [ir.AppendPartial("_rcomp"), ir.Flush(),
                               ir.Hook("thread_end", True)]
        # comp is the private copy inside the region
        (update,) = [op for op in _find_all(thread, ir.SetVar)
                     if op.name == "_rcomp" and isinstance(op.e, ir.FBin)]
        assert update.e.a == ir.FVar("_rcomp")
        assert ir.RegionExit(0, "comp", True, "+") in ops


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
        thread = self._loop_region()
        at = [type(op) for op in thread].index(ir.Chunk)
        chunk, loop, done = thread[at:at + 3]
        assert chunk == ir.Chunk("i_1", ir.ILit(8))
        assert (loop.var, loop.lo, loop.hi) == (
            "i_1", ir.IVar("_lo_i_1"), ir.IVar("_hi_i_1"))
        assert done == ir.Hook("omp_for_done", True)

    def test_static_chunked_schedule_assigns(self):
        thread = self._loop_region(schedule=ScheduleKind.STATIC,
                                   schedule_chunk=3)
        (loop,) = _find_all(thread, ir.ForAssign)
        assert (loop.kind, loop.chunk) == ("static", 3)

    def test_dynamic_schedule_assigns(self):
        thread = self._loop_region(schedule=ScheduleKind.DYNAMIC,
                                   schedule_chunk=2)
        assert not _find_all(thread, ir.Chunk)
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
        n2, n, chunk, loop = thread[at:at + 4]
        assert n2 == ir.SetIVar("_n2_i_1", ir.ILit(5))
        assert n == ir.SetIVar("_n_i_1", ir.IMul(ir.ILit(3),
                                                 ir.IVar("_n2_i_1")))
        assert chunk == ir.Chunk("i_1", ir.IVar("_n_i_1"))
        assert loop.var == "_k_i_1"
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
        assert thread[-3] == ir.Hook("sections_done", True)


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
        assert _names(arm) == ["QNew", "Charge", "QPush", "Hook", "Charge",
                               "QPush", "Hook", "Charge", "Hook", "ForList",
                               "QClear"]
        assert arm[0] == ir.QNew("_tq0")
        assert [op.k for op in arm if isinstance(op, ir.QPush)] == [0, 1]
        assert arm[3] == ir.Hook("task_spawn", True)
        assert arm[8] == ir.Hook("taskwait", True)
        drain = arm[9]
        assert (drain.queue, drain.var) == ("_tq0", "_tk0")
        assert [(g.var, g.k) for g in drain.body
                if isinstance(g, ir.IfIntEq)] == [("_tk0", 0), ("_tk0", 1)]
        assert arm[10] == ir.QClear("_tq0")

    def test_unjoined_tasks_drain_at_arm_end(self):
        arm = self._arm(lambda x: [self._task(x, 1.0)])
        assert _names(arm)[-2:] == ["ForList", "QClear"]

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
    ir.FBin("+", _X, ir.FLit(2.0), ir.W_F32),
    ir.FFma(_X, _X, ir.FLit(1.0), True, True),
    ir.FCall("sin", _X, ir.W_FTZ),
    ir.ILit(3), _I, ir.IMax0("n"), ir.IMod(_I, 4), ir.IMul(ir.ILit(2), _I),
    ir.IFloorDiv(_I, ir.ILit(2)), ir.IModV(_I, ir.IVar("j")),
    ir.SetVar("x", ir.FLit(1.0)), ir.SetIVar("i", ir.ILit(0)),
    ir.AStore("a", ir.ILit(0), _X), ir.Charge(1, 0, 1, 1.0), ir.Flush(),
    ir.Reload(), ir.Hook("barrier", True), ir.RegionEnter(0),
    ir.RegionExit(0, "comp", True, "+"), ir.InitPartials(),
    ir.AppendPartial("_rcomp"), ir.Chunk("i", ir.ILit(8)),
    ir.ForRange("i", ir.ILit(0), ir.ILit(4), [ir.Flush()]),
    ir.ForAssign("i", ir.ILit(8), "dynamic", 2, [ir.Flush()]),
    ir.ForList("_tq0", "_tk0", [ir.Flush()]), ir.QNew("_tq0"),
    ir.QPush("_tq0", 0), ir.QClear("_tq0"),
    ir.If(ir.Cmp(_X, "<", ir.FLit(1.0)), [ir.Flush()]),
    ir.IfIntEq("_tid", 0, [ir.Flush()]), ir.LoadInt("n"),
    ir.LoadScalar("x", ir.W_F32), ir.LoadArray("a", ir.A_FTZ_D),
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
    return ir.KernelIR(ops=list(ops), n_constants=n_constants, comp="comp",
                       fp_vars=("x", "comp", "_rcomp"),
                       int_vars=("i", "j", "n", "_tk0"), arrays=("a",),
                       queues=("_tq0",), math_funcs=("sin",))


_IR_CLASSES = sorted({*typing.get_args(ir.Stmt), *typing.get_args(ir.FExpr),
                      *typing.get_args(ir.IExpr)},
                     key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _IR_CLASSES, ids=lambda c: c.__name__)
class TestEmittersCoverEveryOp:
    def test_python_emitter(self, cls):
        assert cls in _SAMPLES, f"add an {cls.__name__} sample"
        source = emit_py(_kernel(_as_stmt(_SAMPLES[cls])))
        compile(source, "<test>", "exec")  # valid Python, not just text

    def test_c_emitter(self, cls):
        assert cls in _SAMPLES, f"add an {cls.__name__} sample"
        assert "krun" in emit_c(_kernel(_as_stmt(_SAMPLES[cls])))


def _py_line(op) -> str:
    """The first line the Python emitter writes for one statement."""
    return emit_py(_kernel(op, n_constants=0)).splitlines()[1].strip()


class TestPythonEmitter:
    @pytest.mark.parametrize("divisor,text", [
        (ir.FLit(4.0), "x = (x / 4.0)"),
        (ir.FLit(0.0), "x = _div(x, 0.0)"),
        (ir.FLit(-0.0), "x = _div(x, -0.0)"),
        (ir.FVar("y"), "x = _div(x, y)"),
    ])
    def test_plain_division_only_by_a_nonzero_literal(self, divisor, text):
        assert _py_line(ir.SetVar("x", ir.FBin("/", _X, divisor,
                                               ir.W_NONE))) == text

    def test_zero_lower_bound_ranges_to_n(self):
        assert _py_line(ir.ForRange("i", ir.ILit(0), ir.IMax0("n"),
                                    [ir.Flush()])) \
            == "for i in range(max(0, n)):"
        assert _py_line(ir.ForRange("i", ir.IVar("lo"), ir.IVar("hi"),
                                    [ir.Flush()])) \
            == "for i in range(lo, hi):"

    def test_empty_body_is_pass(self):
        lines = emit_py(_kernel(ir.IfIntEq("_tid", 0, []), ir.Flush(),
                                n_constants=0)).splitlines()
        assert lines[1:3] == ["    if _tid == 0:", "        pass"]
        assert emit_py(_kernel(n_constants=0)).splitlines()[1] == "    pass"

    def test_constants_unpack_into_locals(self):
        assert emit_py(_kernel(n_constants=1)).splitlines()[1] \
            == "    _K0, = _K"
        assert emit_py(_kernel(n_constants=3)).splitlines()[1] \
            == "    _K0, _K1, _K2 = _K"

    def test_compound_int_operands_keep_their_grouping(self):
        e = ir.IMul(ir.ILit(2), ir.IMod(ir.IVar("i"), 3))
        text = _py_line(ir.SetIVar("j", e))
        assert text == "j = (2) * ((i) % 3)"
        assert eval(text.split(" = ")[1], {"i": 5}) == 4


# ----------------------------------------------------------------------
# kernel families: one C module for several shapes of one program
# ----------------------------------------------------------------------

class TestFamilyEmitter:
    """What :func:`emit_c` writes for a family, without compiling it."""

    def test_identical_members_need_no_select(self):
        kir = _kernel(ir.SetVar("x", _SAMPLES[ir.FBin]))
        source = emit_c(kir, kir)
        assert "static const int fam_ftz[2] = {0, 0};" in source
        assert "member ==" not in source and ", fz)" not in source

    def test_ftz_decided_wraps_select_on_the_flag(self):
        plain = _kernel(ir.SetVar("x", ir.FBin("+", _X, ir.FLit(2.0),
                                                ir.W_F32)),
                        ir.LoadArray("a", ir.A_COPY))
        flushed = _kernel(ir.SetVar("x", ir.FBin("+", _X, ir.FLit(2.0),
                                                  ir.W_F32Z)),
                          ir.LoadArray("a", ir.A_FTZ_F))
        flushed.ftz = True
        source = emit_c(plain, flushed)
        assert "fam_ftz[2] = {0, 1};" in source
        assert "v_x = w_f32q(v_x + 0x1.0000000000000p+1, fz);" in source
        assert "a_a[_i] = w_ftzfq(_x, fz);" in source
        assert "member ==" not in source

    def test_differing_subexpressions_select_on_the_member(self):
        fused = ir.FFma(_X, _X, ir.FLit(1.0), False, False)
        unfused = ir.FBin("+", ir.FBin("*", _X, _X, ir.W_NONE),
                          ir.FLit(1.0), ir.W_NONE)
        source = emit_c(*(_kernel(ir.SetVar("x", ir.FNeg(e)))
                          for e in (unfused, fused, unfused)))
        # the members that agree share one arm; the shared FNeg is
        # emitted once, around the select
        assert ("v_x = (-(((member == 0 || member == 2) ? "
                "((v_x * v_x) + 0x1.0000000000000p+0) : "
                "(h_fmad(v_x, v_x, 0x1.0000000000000p+0)))));") in source

    def test_signed_zero_literals_are_not_merged(self):
        source = emit_c(_kernel(ir.SetVar("x", ir.FLit(0.0))),
                        _kernel(ir.SetVar("x", ir.FLit(-0.0))))
        assert "((member == 0) ? 0x0.0p+0 : -0x0.0p+0)" in source

    @pytest.mark.parametrize("other", [
        ir.Charge(0, 1, 1, 0.0),                  # another _K slot
        ir.Charge(0, 0, 1, 1.0),                  # another branch charge
        ir.Hook("single_done", True),             # another statement
        ir.IfIntEq("_tid", 0, [ir.Flush(), ir.Flush()]),  # another body
    ])
    def test_different_skeletons_never_merge(self, other):
        base = {ir.Charge: ir.Charge(0, 0, 1, 0.0),
                ir.Hook: ir.Hook("barrier", True),
                ir.IfIntEq: ir.IfIntEq("_tid", 0, [ir.Flush()])}
        mine = _kernel(base[type(other)])
        theirs = _kernel(other)
        assert skeleton(mine) != skeleton(theirs)
        with pytest.raises(SkeletonMismatch):
            emit_c(mine, theirs)

    def test_wraps_and_expressions_are_not_skeleton(self):
        a = _kernel(ir.SetVar("x", _SAMPLES[ir.FFma]),
                    ir.LoadScalar("x", ir.W_F32), ir.LoadArray("a",
                                                               ir.A_COPY))
        b = _kernel(ir.SetVar("x", _SAMPLES[ir.FBin]),
                    ir.LoadScalar("x", ir.W_F32Z),
                    ir.LoadArray("a", ir.A_FTZ_F))
        assert skeleton(a) == skeleton(b)


def _c_entry_or_skip():
    ok, why = _c_available()
    if not ok:
        pytest.skip(f"C kernel backend unavailable: {why}")


def _shape(kir: ir.KernelIR) -> StructuralKernel:
    """A hand-built kernel (no hooks, no constants) as a shape."""
    return StructuralKernel(ir=kir, sites=(), regions=[])


def _call(entry, args: dict):
    """The kernel's result, or the class of the exception it raised."""
    try:
        return entry(dict(args), None, None)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


def _run_both(kir: ir.KernelIR, args: dict) -> list:
    """``[interp result, C result]`` of a hand-built kernel."""
    shape = _shape(kir)
    return [_call(bind(shape, ()), args) for bind in (bind_py, bind_c)]


class TestCPreludeIntSemantics:
    """The prelude's ``idx_fix``, ``py_mod`` and ``py_fdv`` against the
    interpreted kernel's Python list and int semantics."""

    #: comp = a[i]; a[i] = 5.0; comp += a[0] — a wrapped load and store
    INDEX = ir.KernelIR(
        ops=[ir.LoadInt("i"), ir.LoadArray("a", ir.A_COPY),
             ir.SetVar("comp", ir.ALoad("a", ir.IVar("i"))),
             ir.AStore("a", ir.IVar("i"), ir.FLit(5.0)),
             ir.SetVar("comp", ir.FBin("+", ir.FVar("comp"),
                                       ir.ALoad("a", ir.ILit(0)),
                                       ir.W_NONE)),
             ir.Return("comp")],
        comp="comp", fp_vars=("comp",), int_vars=("i",), arrays=("a",))

    #: comp = (i // j) * 10000 + (i % j) * 100 + i % 5
    INTS = ir.KernelIR(
        ops=[ir.LoadInt("i"), ir.LoadInt("j"),
             ir.SetIVar("q", ir.IFloorDiv(ir.IVar("i"), ir.IVar("j"))),
             ir.SetIVar("m", ir.IModV(ir.IVar("i"), ir.IVar("j"))),
             ir.SetVar("comp", ir.FBin(
                 "+", ir.FBin("+", ir.IToF(ir.IMul(ir.IVar("q"),
                                                   ir.ILit(10000))),
                              ir.IToF(ir.IMul(ir.IVar("m"), ir.ILit(100))),
                              ir.W_NONE),
                 ir.IToF(ir.IMod(ir.IVar("i"), 5)), ir.W_NONE)),
             ir.Return("comp")],
        comp="comp", fp_vars=("comp",), int_vars=("i", "j", "q", "m"))

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


class TestFamilyRuns:
    """Each member of a compiled family computes what its own IR
    computes under interp: per-member FTZ wraps and contraction sites."""

    @staticmethod
    def _run_members(*kirs, args: dict) -> list:
        """``(interp result, C result)`` per member of one family built
        from ``kirs``."""
        _c_entry_or_skip()
        cache = KernelCache()
        shapes = [cache.get_structural(("members", i), lambda k=kir: _shape(k))
                  for i, kir in enumerate(kirs)]
        runs = [(_call(bind_py(s, ()), args), _call(bind_c(s, ()), args))
                for s in shapes]
        assert len({s.backend_cache["c"][0] for s in shapes}) == 1
        return runs

    @staticmethod
    def _ftz_kernel(ftz: bool) -> ir.KernelIR:
        """comp = x * a[0]; comp = fma(x, a[0], comp) — every wrap, the
        flush after the contraction and both loads follow ``ftz``."""
        w = ir.W_FTZ if ftz else ir.W_NONE
        x, a0 = ir.FVar("x"), ir.ALoad("a", ir.ILit(0))
        return ir.KernelIR(
            ops=[ir.LoadScalar("x", w),
                 ir.LoadArray("a", ir.A_FTZ_D if ftz else ir.A_COPY),
                 ir.SetVar("comp", ir.FBin("*", x, a0, w)),
                 ir.SetVar("comp", ir.FFma(x, a0, ir.FVar("comp"), False,
                                           ftz)),
                 ir.Return("comp")],
            comp="comp", fp_vars=("x", "comp"), arrays=("a",), ftz=ftz)

    @pytest.mark.parametrize("x,a0", [
        (1e-155, 1e-155),   # subnormal products
        (1e-310, 1.0),      # a subnormal scalar argument
        (1.0, 1e-310),      # a subnormal array element
    ])
    def test_each_member_runs_its_own_ftz(self, x, a0):
        runs = self._run_members(
            self._ftz_kernel(False), self._ftz_kernel(True),
            self._ftz_kernel(False), args={"x": x, "a": [a0]})
        for ref, got in runs:
            assert got.hex() == ref.hex()
        assert runs[0][0] != 0.0 and runs[1][0] == 0.0

    def test_each_member_runs_its_own_contraction(self):
        x, y = ir.FVar("x"), ir.FVar("y")
        c = ir.FLit(-(1 + 2.0 ** -29))
        fused = ir.FFma(x, y, c, False, False)
        unfused = ir.FBin("+", ir.FBin("*", x, y, ir.W_NONE), c, ir.W_NONE)

        def kernel(e):
            return ir.KernelIR(
                ops=[ir.LoadScalar("x", ir.W_NONE),
                     ir.LoadScalar("y", ir.W_NONE),
                     ir.SetVar("comp", e), ir.Return("comp")],
                comp="comp", fp_vars=("x", "y", "comp"))

        v = 1 + 2.0 ** -30
        runs = self._run_members(kernel(unfused), kernel(fused),
                                 args={"x": v, "y": v})
        assert [got for _, got in runs] == [ref for ref, _ in runs]
        assert runs[0][1] == 0.0 and runs[1][1] == 2.0 ** -60
