"""Tests for the execution driver: records, classification, build_args."""

import dataclasses
import math

import pytest

from repro.backends import get_backend
from repro.config import MachineConfig
from repro.core.inputs import FPCategory, TestInput
from repro.driver import (
    RunRecord,
    RunStatus,
    build_args,
    run_binary,
    values_equal,
)
from repro.errors import ExecutionError
from repro.vendors import CLANG, GCC, INTEL, compile_binary


class TestValuesEqual:
    def test_exact_equality(self):
        assert values_equal(1.5, 1.5)
        assert not values_equal(1.5, 1.5000001)

    def test_nans_are_equal(self):
        assert values_equal(math.nan, math.nan)
        assert values_equal(math.nan, -math.nan)

    def test_signed_zero_distinguished(self):
        assert not values_equal(0.0, -0.0)  # %.17g prints them differently

    def test_none_handling(self):
        assert values_equal(None, None)
        assert not values_equal(None, 1.0)

    def test_infinities(self):
        assert values_equal(math.inf, math.inf)
        assert not values_equal(math.inf, -math.inf)


class TestBuildArgs:
    def test_arrays_materialized_with_fill(self, program_stream, input_gen):
        p = program_stream[0]
        binary = compile_binary(p, GCC)
        inp = input_gen.generate(p, 0)
        args = build_args(binary, inp)
        for arr in p.array_params:
            data = args[arr.name]
            assert len(data) == arr.array_size
            assert all(x == float(inp.values[arr.name]) for x in data)

    def test_missing_param_raises(self, program_stream):
        p = program_stream[0]
        binary = compile_binary(p, GCC)
        empty = TestInput(program_name=p.name, index=0)
        with pytest.raises(ExecutionError, match="lacks a value"):
            build_args(binary, empty)

    def test_int_params_cast(self, program_stream, input_gen):
        p = program_stream[0]
        args = build_args(compile_binary(p, GCC), input_gen.generate(p, 0))
        for v in p.int_params:
            assert isinstance(args[v.name], int)


class TestClassification:
    def test_ok_record_shape(self, program_stream, input_gen, machine):
        p = program_stream[0]
        rec = run_binary(compile_binary(p, CLANG), input_gen.generate(p, 0),
                         machine)
        assert rec.status is RunStatus.OK
        assert rec.ok
        assert rec.label() == "P_clang^OK"
        assert rec.time_us > 0
        assert rec.counters.cycles > 0
        assert rec.counters.instructions > 0

    def test_crash_classification(self, program_stream, input_gen, machine):
        p = program_stream[0]
        binary = dataclasses.replace(compile_binary(p, GCC),
                                     crash_armed=True)
        inp = input_gen.generate(p, 0)
        # force the extreme-input condition
        inp.categories = {k: FPCategory.ALMOST_INF for k in inp.categories} \
            or {"var_1": FPCategory.ALMOST_INF, "var_2": FPCategory.SUBNORMAL}
        rec = run_binary(binary, inp, machine)
        assert rec.status is RunStatus.CRASH
        assert rec.comp is None
        assert "SIGSEGV" in rec.detail

    def test_armed_crash_needs_extreme_input(self, program_stream, input_gen,
                                             machine):
        p = program_stream[0]
        binary = dataclasses.replace(compile_binary(p, GCC),
                                     crash_armed=True)
        inp = input_gen.generate(p, 0)
        inp.categories = {k: FPCategory.NORMAL for k in inp.categories}
        rec = run_binary(binary, inp, machine)
        assert rec.status is RunStatus.OK

    def test_hang_classification(self, paper_gen_cfg, machine):
        # find a critical-heavy program and force the livelock
        from repro.core.generator import ProgramGenerator
        from repro.core.features import extract_features
        from repro.core.inputs import InputGenerator

        gen = ProgramGenerator(paper_gen_cfg, seed=20240915)
        ig = InputGenerator(paper_gen_cfg, seed=20240916)
        program = None
        for i in range(120):
            p = gen.generate(i)
            if extract_features(p).est_critical_acquires >= 5000:
                program = p
                break
        assert program is not None
        binary = dataclasses.replace(compile_binary(program, INTEL),
                                     hang_armed=True)
        rec = run_binary(binary, ig.generate(program, 0), machine)
        assert rec.status is RunStatus.HANG
        assert rec.time_us == machine.timeout_us
        assert rec.thread_states is not None
        assert sum(len(v) for v in rec.thread_states.values()) == \
            program.num_threads

    def test_timeout_becomes_hang(self, program_stream, input_gen):
        tiny = MachineConfig(timeout_us=1.0)  # everything times out
        p = program_stream[0]
        rec = run_binary(compile_binary(p, GCC), input_gen.generate(p, 0),
                         tiny)
        assert rec.status is RunStatus.HANG
        assert rec.time_us == 1.0


class TestDifferential:
    def test_runs_every_vendor(self, program_stream, input_gen, machine):
        p = program_stream[1]
        inp = input_gen.generate(p, 0)
        recs = [b.execute(b.compile(p), inp, machine)
                for b in map(get_backend, ("gcc", "clang", "intel"))]
        assert [r.vendor for r in recs] == ["gcc", "clang", "intel"]

    def test_to_dict_serializable(self, program_stream, input_gen, machine):
        import json

        p = program_stream[0]
        rec = run_binary(compile_binary(p, GCC), input_gen.generate(p, 0),
                         machine)
        text = json.dumps(rec.to_dict())
        assert p.name in text

    def test_profile_only_when_requested(self, program_stream, input_gen,
                                         machine):
        p = program_stream[0]
        binary = compile_binary(p, GCC)
        inp = input_gen.generate(p, 0)
        assert run_binary(binary, inp, machine).profile is None
        assert run_binary(binary, inp, machine,
                          collect_profile=True).profile is not None
