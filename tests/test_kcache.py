"""Tests for the two-phase lowering pipeline and its KernelCache."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.config import (DIRECTIVE_MIXES, GeneratorConfig, MachineConfig,
                          apply_directive_mix)
from repro.core.features import extract_features
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.core.nodes import Block, OmpParallel, walk
from repro.core.types import OmpClauses
from repro.sim.kcache import KernelCache, get_kernel_cache, set_kernel_cache
from repro.sim.lower import StructuralLowerer, bind_costs
from repro.driver.execution import run_binary
from repro.vendors import CLANG, GCC, INTEL
from repro.vendors.toolchain import compile_binary
from test_lowering import _mk


@pytest.fixture()
def program(program_stream):
    return program_stream[0]


class TestKernelCache:
    def test_recompile_hits_both_phases(self, program):
        cache = KernelCache()
        a = compile_binary(program, GCC, cache=cache)
        b = compile_binary(program, GCC, cache=cache)
        stats = cache.stats()
        assert stats.structural_hits >= 1
        assert stats.kernel_hits >= 1
        # the bound kernel object itself is shared, not rebuilt
        assert a.kernel is b.kernel

    def test_three_vendor_compile_counts(self, program):
        cache = KernelCache()
        for vendor in (GCC, CLANG, INTEL):
            compile_binary(program, vendor, cache=cache)
        stats = cache.stats()
        # at -O3 the three vendors run three FP modes (gcc contracts
        # aggressively, clang basic, intel basic+FTZ) of one lowering;
        # each binds its own constants, and nothing is lowered twice
        assert stats.kernel_misses == 3
        assert stats.kernel_hits == 0
        assert stats.structural_misses == 1
        assert stats.structural_hits == 2

    def test_every_vendor_and_opt_level_share_one_lowering(self, program):
        cache = KernelCache()
        binaries = [compile_binary(program, vendor, opt, cache=cache)
                    for opt in ("-O0", "-O1", "-O2", "-O3")
                    for vendor in (GCC, CLANG, INTEL)]
        stats = cache.stats()
        assert stats.structural_misses == 1
        assert stats.structural_hits == 11
        assert stats.kernel_misses == 12
        assert len({id(b.kernel.structural) for b in binaries}) == 1
        assert {b.kernel.mode for b in binaries} == {
            (False, "none"), (True, "none"), (False, "aggressive"),
            (False, "basic"), (True, "basic")}

    def test_structural_shared_when_shapes_coincide(self, program):
        # at -O1 FMA contraction is off for everyone: gcc and clang run
        # one lowering in one mode
        cache = KernelCache()
        a = compile_binary(program, GCC, "-O1", cache=cache)
        b = compile_binary(program, CLANG, "-O1", cache=cache)
        stats = cache.stats()
        assert stats.structural_misses == 1
        assert stats.structural_hits == 1
        assert a.kernel.structural is b.kernel.structural  # one lowering
        assert a.kernel.mode == b.kernel.mode == (False, "none")
        assert a.kernel.constants != b.kernel.constants  # vendor costs

    def test_lru_eviction_bounds_entries(self, program_stream):
        cache = KernelCache(capacity=2)
        for p in program_stream[:4]:
            compile_binary(p, GCC, cache=cache)
        assert len(cache) == 2  # one entry per program
        assert cache.stats().evictions == 2

    def test_cached_and_fresh_kernels_execute_identically(
            self, program, input_gen, machine):
        cache = KernelCache()
        warm1 = compile_binary(program, INTEL, cache=cache)
        warm2 = compile_binary(program, INTEL, cache=cache)  # cache hit
        fresh = compile_binary(program, INTEL, cache=KernelCache())
        t = input_gen.generate(program, 0)
        rows = [run_binary(b, t, machine).to_row()
                for b in (warm1, warm2, fresh)]
        assert rows[0] == rows[1] == rows[2]

    def test_snapshot_since_gives_per_phase_deltas(self, program,
                                                   program_stream):
        cache = KernelCache()
        compile_binary(program, GCC, cache=cache)
        before = cache.stats()
        compile_binary(program, GCC, cache=cache)          # all hits
        compile_binary(program_stream[1], GCC, cache=cache)  # all misses
        delta = cache.stats().since(before)
        assert delta.structural_hits == 1
        assert delta.kernel_hits == 1
        assert delta.structural_misses == 1
        assert delta.kernel_misses == 1
        # totals keep accumulating independently of the snapshot
        assert cache.stats().structural_misses == 2

    def test_reset_zeroes_counters_but_keeps_entries(self, program):
        cache = KernelCache()
        a = compile_binary(program, GCC, cache=cache)
        cache.reset()
        stats = cache.stats()
        assert stats.as_dict() == KernelCache().stats().as_dict()
        assert len(cache) > 0
        # entries survived: the next compile is a pure hit
        b = compile_binary(program, GCC, cache=cache)
        assert a.kernel is b.kernel
        assert cache.stats().kernel_hits == 1
        assert cache.stats().kernel_misses == 0

    def test_reset_zeroes_evictions(self, program_stream):
        cache = KernelCache(capacity=1)
        for p in program_stream[:3]:
            compile_binary(p, GCC, cache=cache)
        assert cache.stats().evictions > 0
        cache.reset()
        assert cache.stats().evictions == 0

    def test_threads_share_one_cache(self, program_stream):
        # more threads than cores, switching as often as the interpreter
        # allows: a lost counter update or a lost entry shows here
        cache = KernelCache(capacity=2)
        programs = program_stream[:4]
        errors = []

        def work():
            try:
                for _ in range(3):
                    for p in programs:
                        compile_binary(p, GCC, cache=cache)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = cache.stats()
        calls = len(threads) * 3 * len(programs)
        assert stats.structural_hits + stats.structural_misses == calls
        assert stats.kernel_hits + stats.kernel_misses == calls
        assert len(cache) == 2
        assert stats.evictions <= stats.structural_misses - 2

    def test_default_cache_swap(self):
        original = get_kernel_cache()
        try:
            mine = KernelCache()
            assert set_kernel_cache(mine) is mine
            assert get_kernel_cache() is mine
            with pytest.raises(TypeError):
                set_kernel_cache(object())  # type: ignore[arg-type]
        finally:
            set_kernel_cache(original)


class TestTwoPhaseLowering:
    def test_bind_is_memoized(self, program):
        kernel = bind_costs(StructuralLowerer(program).lower(),
                            CLANG, "-O3")
        assert kernel.bind() is kernel.bind()

    def test_cost_pass_needs_no_ast(self, program):
        structural = StructuralLowerer(program).lower()
        gcc_kernel = bind_costs(structural, GCC, "-O3")
        clang_kernel = bind_costs(structural, CLANG, "-O3")
        assert gcc_kernel.structural is clang_kernel.structural
        assert len(gcc_kernel.constants) == structural.ir.n_constants
        assert gcc_kernel.constants != clang_kernel.constants

    def test_fault_scaling_changes_only_constants(self, program):
        structural = StructuralLowerer(program).lower()
        plain = bind_costs(structural, GCC, "-O3")
        slow = bind_costs(structural, GCC, "-O3", slow_armed=True)
        assert plain.structural is slow.structural
        assert plain.constants != slow.constants

    def test_opt_level_changes_only_constants(self, program):
        # -O2 and -O3 share the gcc mode but cost differently; the
        # structural kernel is reused across levels
        cache = KernelCache()
        o2 = compile_binary(program, GCC, "-O2", cache=cache)
        o3 = compile_binary(program, GCC, "-O3", cache=cache)
        assert o2.kernel.structural is o3.kernel.structural
        assert o2.kernel.constants != o3.kernel.constants

    def test_interp_code_compiled_once_per_shape(self, program):
        # the first interp bind of a mode compiles the Python for it;
        # every vendor bound in the same mode reuses that code object
        structural = StructuralLowerer(program).lower()
        assert not structural.backend_cache
        gcc = bind_costs(structural, GCC, "-O1").bind("interp")
        clang = bind_costs(structural, CLANG, "-O1").bind("interp")
        assert list(structural.backend_cache) == [("py", False, "none")]
        assert gcc.__code__ is clang.__code__
        assert gcc is not clang  # each binds its own constants
        intel = bind_costs(structural, INTEL, "-O1").bind("interp")
        assert intel.__code__ is not gcc.__code__  # the FTZ mode

    def test_c_bind_compiles_no_python(self, program):
        from repro.sim.backend import _c_available

        ok, why = _c_available()
        if not ok:
            pytest.skip(f"C kernel backend unavailable: {why}")
        structural = StructuralLowerer(program).lower()
        bind_costs(structural, GCC, "-O3").bind("c")
        assert list(structural.backend_cache) == ["c"]

    def test_site_cost_prices_each_statement_once(self, monkeypatch):
        # each lane is a builtin sum in statement order, as the classic
        # lowerer summed it; sum() is compensated since CPython 3.12,
        # where a plain += loop would drop the 1.0s below
        from repro.sim.lower import ChargeSite, CostModel

        costs = {"a": (1e16, 1.0), "b": (1.0, 1e16), "c": (-1e16, -1e16)}
        priced = []

        def stmt_cost(self, s):
            priced.append(s)
            return costs[s]

        monkeypatch.setattr(CostModel, "stmt_cost", stmt_cost)
        site = ChargeSite(tuple(costs), None, 0, 1)
        assert CostModel(GCC.ops, "none").site_cost(site) == (
            sum([1e16, 1.0, -1e16]), sum([1.0, 1e16, -1e16]))
        assert priced == ["a", "b", "c"]

    def test_critical_in_omp_for_matches_features(self):
        # the hang fault arms only where this count is nonzero, so the
        # structural kernel must count exactly what the features count
        counts = []
        for mix in sorted(DIRECTIVE_MIXES):
            gen_cfg = apply_directive_mix(
                GeneratorConfig(max_total_iterations=4_000,
                                loop_trip_max=60, num_threads=8), mix)
            gen = ProgramGenerator(gen_cfg, seed=777)
            for i in range(20):
                program = gen.generate(i)
                got = StructuralLowerer(program).lower().critical_in_omp_for
                assert got == extract_features(
                    program).critical_in_omp_for, (mix, i)
                counts.append(got)
        assert 0 in counts and max(counts) > 0

    def test_teams_are_the_regions_num_threads(self, program_stream):
        # a region is its team size to the runtime: one entry per
        # ``omp parallel``, by region id, which is program order
        def three_teams(comp):
            return Block([OmpParallel(OmpClauses(num_threads=t), Block([]))
                          for t in (3, 5, 2)])

        for program in (*program_stream, _mk(three_teams)):
            teams = tuple(n.clauses.num_threads for n in walk(program)
                          if isinstance(n, OmpParallel))
            assert teams  # generated programs always have a region
            assert StructuralLowerer(program).lower().teams == teams
        assert StructuralLowerer(_mk(three_teams)).lower().teams == (3, 5, 2)


class TestVendorVariantKeys:
    def test_custom_vendor_variant_never_hits_stock_entry(self, program):
        """A replace()-built vendor sharing the registry name must get
        its own kernel entry — constants differ with the cost model."""
        import dataclasses

        from repro.vendors.base import OpCosts

        cache = KernelCache()
        stock = compile_binary(program, GCC, cache=cache)
        variant_model = dataclasses.replace(
            GCC, ops=OpCosts(arith=(99.0, 9.0)))
        variant = compile_binary(program, variant_model, cache=cache)
        assert variant_model.name == GCC.name
        assert stock.kernel.constants != variant.kernel.constants
        # the structural kernel is keyed by the program and still shared
        assert stock.kernel.structural is variant.kernel.structural
