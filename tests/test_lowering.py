"""Tests for AST -> Python lowering: semantics and cost accounting.

Hand-built mini programs with known answers exercise each construct the
lowerer supports; full generated programs verify executability at scale.
"""

import math

import pytest

from repro.config import MachineConfig
from repro.core.nodes import (
    ArrayRef,
    Assignment,
    BinOp,
    Block,
    BoolExpr,
    DeclAssign,
    ForLoop,
    FPNumeral,
    IfBlock,
    IntNumeral,
    MathCall,
    ModIdx,
    OmpCritical,
    OmpParallel,
    Program,
    ThreadIdx,
    VarRef,
)
from repro.core.types import (
    AssignOpKind,
    BinOpKind,
    BoolOpKind,
    FPType,
    OmpClauses,
    ReductionOp,
    Variable,
    VarKind,
)
from repro.driver.execution import run_binary
from repro.core.inputs import TestInput
from repro.backends import get_backend
from repro.vendors import GCC, INTEL
from repro.vendors.toolchain import compile_binary


def _mk(body_fn, *, fp=FPType.DOUBLE, extra_params=(), threads=4):
    comp = Variable("comp", fp, VarKind.COMP)
    params = [comp, *extra_params]
    body = body_fn(comp)
    return Program(name="mini", seed=0, fp_type=fp, comp=comp, params=params,
                   body=body, num_threads=threads)


def _input(program, **values) -> TestInput:
    inp = TestInput(program_name=program.name, index=0)
    defaults = {}
    for p in program.params:
        defaults[p.name] = values.get(p.name, 0 if p.is_int else 0.0)
    inp.values = defaults
    return inp


def _run(program, vendor="clang", **values):
    binary = get_backend(vendor).compile(program, "-O3")
    return run_binary(binary, _input(program, **values), MachineConfig())


class TestScalarSemantics:
    def test_simple_assignment(self):
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(2.5))]))
        assert _run(p).comp == 2.5

    def test_compound_ops(self):
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(10.0)),
            Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN, FPNumeral(5.0)),
            Assignment(VarRef(comp), AssignOpKind.MUL_ASSIGN, FPNumeral(2.0)),
            Assignment(VarRef(comp), AssignOpKind.SUB_ASSIGN, FPNumeral(6.0)),
            Assignment(VarRef(comp), AssignOpKind.DIV_ASSIGN, FPNumeral(8.0)),
        ]))
        assert _run(p).comp == ((10 + 5) * 2 - 6) / 8

    def test_division_by_zero_yields_inf(self):
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       BinOp(BinOpKind.DIV, FPNumeral(1.0), FPNumeral(0.0)))]))
        assert _run(p).comp == math.inf

    def test_math_call(self):
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       MathCall("sqrt", FPNumeral(16.0)))]))
        assert _run(p).comp == 4.0

    def test_decl_assign_temp(self):
        tmp = Variable("tmp_1", FPType.DOUBLE, VarKind.TEMP)
        p = _mk(lambda comp: Block([
            DeclAssign(tmp, FPNumeral(3.0)),
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       BinOp(BinOpKind.MUL, VarRef(tmp), FPNumeral(7.0)))]))
        assert _run(p).comp == 21.0

    def test_param_value_flows_in(self):
        x = Variable("var_1", FPType.DOUBLE, VarKind.PARAM)
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN, VarRef(x))]),
            extra_params=[x])
        assert _run(p, var_1=42.0).comp == 42.0


class TestControlFlow:
    def test_if_taken_and_not_taken(self):
        x = Variable("var_1", FPType.DOUBLE, VarKind.PARAM)

        def body(comp):
            cond = BoolExpr(VarRef(x), BoolOpKind.LT, FPNumeral(1.0))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                IfBlock(cond, Block([Assignment(VarRef(comp),
                                                AssignOpKind.ASSIGN,
                                                FPNumeral(9.0))]))])

        p = _mk(body, extra_params=[x])
        assert _run(p, var_1=0.5).comp == 9.0
        assert _run(p, var_1=1.5).comp == 0.0

    def test_nan_comparison_is_false(self):
        x = Variable("var_1", FPType.DOUBLE, VarKind.PARAM)

        def body(comp):
            cond = BoolExpr(VarRef(x), BoolOpKind.LT, FPNumeral(1.0))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                IfBlock(cond, Block([Assignment(VarRef(comp),
                                                AssignOpKind.ASSIGN,
                                                FPNumeral(9.0))]))])

        p = _mk(body, extra_params=[x])
        assert _run(p, var_1=math.nan).comp == 0.0

    def test_serial_loop_with_literal_bound(self):
        lv = Variable("i_1", None, VarKind.LOOP)

        def body(comp):
            inc = Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN,
                             FPNumeral(1.0))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                ForLoop(lv, IntNumeral(17), Block([inc]))])

        assert _run(_mk(body)).comp == 17.0

    def test_loop_with_param_bound(self):
        n = Variable("var_n", None, VarKind.PARAM)
        lv = Variable("i_1", None, VarKind.LOOP)

        def body(comp):
            inc = Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN,
                             FPNumeral(2.0))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                ForLoop(lv, VarRef(n), Block([inc]))])

        p = _mk(body, extra_params=[n])
        assert _run(p, var_n=6).comp == 12.0

    def test_loop_var_as_fp_term(self):
        lv = Variable("i_1", None, VarKind.LOOP)

        def body(comp):
            inc = Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN, VarRef(lv))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                ForLoop(lv, IntNumeral(5), Block([inc]))])

        assert _run(_mk(body)).comp == 0 + 1 + 2 + 3 + 4


class TestArrays:
    def _arr(self, size=8):
        return Variable("var_a", FPType.DOUBLE, VarKind.PARAM, is_array=True,
                        array_size=size)

    def test_array_fill_and_read(self):
        arr = self._arr()
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       ArrayRef(arr, IntNumeral(3)))]), extra_params=[arr])
        assert _run(p, var_a=1.25).comp == 1.25

    def test_array_write_with_mod_index(self):
        arr = self._arr(4)
        lv = Variable("i_1", None, VarKind.LOOP)

        def body(comp):
            w = Assignment(ArrayRef(arr, ModIdx(VarRef(lv), 4)),
                           AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            r = Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                           ArrayRef(arr, IntNumeral(1)))
            return Block([ForLoop(lv, IntNumeral(8), Block([w])), r])

        # 8 iterations over 4 slots: each slot incremented twice
        assert _run(_mk(body, extra_params=[arr]), var_a=0.0).comp == 2.0

    def test_runs_do_not_share_array_state(self):
        arr = self._arr(4)

        def body(comp):
            w = Assignment(ArrayRef(arr, IntNumeral(0)),
                           AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
            r = Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                           ArrayRef(arr, IntNumeral(0)))
            return Block([w, r])

        p = _mk(body, extra_params=[arr])
        binary = compile_binary(p, GCC, "-O3")
        inp = _input(p, var_a=0.0)
        r1 = run_binary(binary, inp, MachineConfig())
        r2 = run_binary(binary, inp, MachineConfig())
        assert r1.comp == r2.comp == 1.0


def _simple_region(comp, *, reduction=None, threads=4, trip=8,
                   private=None, extra_stmts=()):
    x = private or Variable("var_p", FPType.DOUBLE, VarKind.PARAM)
    clauses = OmpClauses(num_threads=threads, reduction=reduction,
                         private=[x])
    lv = Variable("i_1", None, VarKind.LOOP)
    if reduction is not None:
        upd = Assignment(VarRef(comp),
                         AssignOpKind.ADD_ASSIGN if reduction is ReductionOp.SUM
                         else AssignOpKind.MUL_ASSIGN,
                         FPNumeral(1.0 if reduction is ReductionOp.SUM else 2.0))
    else:
        upd = Assignment(VarRef(x), AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))
    loop = ForLoop(lv, IntNumeral(trip), Block([upd, *extra_stmts]),
                   omp_for=True)
    lead = Assignment(VarRef(x), AssignOpKind.ASSIGN, FPNumeral(0.0))
    return OmpParallel(clauses, Block([lead, loop])), x


class TestParallelRegions:
    def test_sum_reduction_exact(self):
        def body(comp):
            region, x = _simple_region(comp, reduction=ReductionOp.SUM,
                                       trip=12)
            self._x = x
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(5.0)),
                region])

        p = _mk(body)
        p.params.append(self._x)
        # 12 iterations of comp += 1 under reduction(+), initial 5
        assert _run(p).comp == 17.0

    def test_prod_reduction(self):
        def body(comp):
            region, x = _simple_region(comp, reduction=ReductionOp.PROD,
                                       trip=5)
            self._x = x
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(1.0)),
                region])

        p = _mk(body)
        p.params.append(self._x)
        assert _run(p).comp == 2.0 ** 5

    def test_private_does_not_leak_out(self):
        def body(comp):
            region, x = _simple_region(comp, trip=8)
            self._x = x
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                region,
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, VarRef(x))])

        p = _mk(body)
        p.params.append(self._x)
        # var_p is private: its outer value (the input, 3.5) must survive
        assert _run(p, var_p=3.5).comp == 3.5

    def test_tid_array_writes_land_in_own_slots(self):
        arr = Variable("var_a", FPType.DOUBLE, VarKind.PARAM, is_array=True,
                       array_size=16)
        x = Variable("var_p", FPType.DOUBLE, VarKind.PARAM)

        def body(comp):
            clauses = OmpClauses(num_threads=4, private=[x])
            lv = Variable("i_1", None, VarKind.LOOP)
            w = Assignment(ArrayRef(arr, ThreadIdx()), AssignOpKind.ADD_ASSIGN,
                           FPNumeral(1.0))
            loop = ForLoop(lv, IntNumeral(4), Block([w]))  # serial in region
            lead = Assignment(VarRef(x), AssignOpKind.ASSIGN, FPNumeral(0.0))
            region = OmpParallel(clauses, Block([lead, loop]))
            reads = [Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN,
                                ArrayRef(arr, IntNumeral(t)))
                     for t in range(4)]
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                region, *reads])

        p = _mk(body, extra_params=[arr, x])
        # each of 4 threads runs the serial loop: own slot += 4
        assert _run(p, var_a=0.0).comp == 16.0

    def test_critical_comp_updates_serialize_correctly(self):
        x = Variable("var_p", FPType.DOUBLE, VarKind.PARAM)

        def body(comp):
            clauses = OmpClauses(num_threads=4, private=[x])
            lv = Variable("i_1", None, VarKind.LOOP)
            crit = OmpCritical(Block([
                Assignment(VarRef(comp), AssignOpKind.ADD_ASSIGN,
                           FPNumeral(1.0))]))
            loop = ForLoop(lv, IntNumeral(10), Block([crit]), omp_for=True)
            lead = Assignment(VarRef(x), AssignOpKind.ASSIGN, FPNumeral(0.0))
            region = OmpParallel(clauses, Block([lead, loop]))
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                region])

        p = _mk(body, extra_params=[x])
        assert _run(p).comp == 10.0

    def test_omp_for_covers_every_iteration_exactly_once(self):
        # trip not divisible by thread count: chunking must still cover all
        x = Variable("var_p", FPType.DOUBLE, VarKind.PARAM)

        def body(comp):
            region, _ = _simple_region(comp, reduction=ReductionOp.SUM,
                                       trip=13, threads=4, private=x)
            return Block([
                Assignment(VarRef(comp), AssignOpKind.ASSIGN, FPNumeral(0.0)),
                region])

        p = _mk(body, extra_params=[x])
        assert _run(p).comp == 13.0


class TestFloat32Programs:
    def test_float_program_rounds_per_op(self):
        x = Variable("var_1", FPType.FLOAT, VarKind.PARAM)
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       BinOp(BinOpKind.ADD, VarRef(x), FPNumeral(1.0)))]),
            fp=FPType.FLOAT, extra_params=[x])
        # 0.1f + 1.0f in binary32
        from repro.sim.values import f32

        assert _run(p, var_1=0.1).comp == f32(f32(0.1) + 1.0)


class TestVendorDivergence:
    def _sub_pattern_program(self):
        # comp = a*b - c : contracted only by SimGCC (aggressive)
        a = Variable("var_1", FPType.DOUBLE, VarKind.PARAM)
        b = Variable("var_2", FPType.DOUBLE, VarKind.PARAM)
        c = Variable("var_3", FPType.DOUBLE, VarKind.PARAM)
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN,
                       BinOp(BinOpKind.SUB,
                             BinOp(BinOpKind.MUL, VarRef(a), VarRef(b)),
                             VarRef(c)))]), extra_params=[a, b, c])
        return p

    def test_gcc_contracts_where_clang_does_not(self):
        p = self._sub_pattern_program()
        vals = dict(var_1=1.0 + 2.0 ** -30, var_2=1.0 + 2.0 ** -23,
                    var_3=(1.0 + 2.0 ** -30) * (1.0 + 2.0 ** -23))
        gcc = _run(p, "gcc", **vals).comp
        clang = _run(p, "clang", **vals).comp
        intel = _run(p, "intel", **vals).comp
        assert clang == intel  # same LLVM lowering
        assert gcc != clang    # -ffp-contract=fast fuses the subtraction

    def test_intel_ftz_flushes_subnormal_inputs(self):
        x = Variable("var_1", FPType.DOUBLE, VarKind.PARAM)
        p = _mk(lambda comp: Block([
            Assignment(VarRef(comp), AssignOpKind.ASSIGN, VarRef(x))]),
            extra_params=[x])
        sub = 1e-310
        assert _run(p, "gcc", var_1=sub).comp == sub
        assert _run(p, "intel", var_1=sub).comp == 0.0


class TestGeneratedProgramsExecute:
    def test_whole_stream_runs_on_all_vendors(self, program_stream, input_gen,
                                              machine):
        for p in program_stream[:6]:
            inp = input_gen.generate(p, 0)
            outs = {}
            for vendor in ("gcc", "clang", "intel"):
                binary = get_backend(vendor).compile(p, "-O3")
                rec = run_binary(binary, inp, machine)
                assert rec.ok
                assert rec.time_us > 0
                outs[vendor] = rec.comp
            assert len(outs) == 3

    def test_execution_deterministic(self, program_stream, input_gen, machine):
        p = program_stream[0]
        inp = input_gen.generate(p, 0)
        binary = compile_binary(p, INTEL, "-O3")
        a = run_binary(binary, inp, machine)
        b = run_binary(binary, inp, machine)
        assert (a.comp == b.comp or (math.isnan(a.comp) and math.isnan(b.comp)))
        assert a.time_us == b.time_us
        assert a.counters.as_dict() == b.counters.as_dict()
