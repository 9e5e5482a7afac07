"""Tests for the two-phase lowering pipeline and its KernelCache."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.sim.kcache import KernelCache, get_kernel_cache, set_kernel_cache
from repro.sim.lower import StructuralLowerer, bind_costs
from repro.driver.execution import run_binary
from repro.vendors import CLANG, GCC, INTEL
from repro.vendors.toolchain import compile_binary


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
        # at -O3 the three vendors have three distinct shapes (gcc
        # contracts aggressively, clang basic, intel basic+FTZ), so no
        # sharing yet — but nothing is compiled twice either
        assert stats.kernel_misses == 3
        assert stats.kernel_hits == 0

    def test_structural_shared_when_shapes_coincide(self, program):
        # at -O1 FMA contraction is off for everyone: gcc and clang emit
        # the identical template and must share one structural pass
        cache = KernelCache()
        a = compile_binary(program, GCC, "-O1", cache=cache)
        b = compile_binary(program, CLANG, "-O1", cache=cache)
        stats = cache.stats()
        assert stats.structural_misses == 1
        assert stats.structural_hits == 1
        assert a.kernel.structural is b.kernel.structural  # same shape
        assert a.kernel.constants != b.kernel.constants  # vendor costs

    def test_lru_eviction_bounds_entries(self, program_stream):
        cache = KernelCache(structural_capacity=2, kernel_capacity=2)
        for p in program_stream[:4]:
            compile_binary(p, GCC, cache=cache)
        assert len(cache) <= 4  # 2 structural + 2 kernel entries
        assert cache.stats().evictions >= 4

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
        cache = KernelCache(structural_capacity=1, kernel_capacity=1)
        for p in program_stream[:3]:
            compile_binary(p, GCC, cache=cache)
        assert cache.stats().evictions > 0
        cache.reset()
        assert cache.stats().evictions == 0

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
        kernel = bind_costs(StructuralLowerer(program, ftz=False).lower(),
                            CLANG, "-O3")
        assert kernel.bind() is kernel.bind()

    def test_cost_pass_needs_no_ast(self, program):
        structural = StructuralLowerer(program, ftz=False).lower()
        gcc_kernel = bind_costs(structural, GCC, "-O3")
        clang_kernel = bind_costs(structural, CLANG, "-O3")
        assert gcc_kernel.structural is clang_kernel.structural
        assert len(gcc_kernel.constants) == structural.ir.n_constants
        assert gcc_kernel.constants != clang_kernel.constants

    def test_fault_scaling_changes_only_constants(self, program):
        structural = StructuralLowerer(program, ftz=False).lower()
        plain = bind_costs(structural, GCC, "-O3")
        slow = bind_costs(structural, GCC, "-O3", slow_armed=True)
        assert plain.structural is slow.structural
        assert plain.constants != slow.constants

    def test_opt_level_changes_only_constants(self, program):
        # -O2 and -O3 share the gcc shape (same fma mode) but cost
        # differently; the structural kernel is reused across levels
        cache = KernelCache()
        o2 = compile_binary(program, GCC, "-O2", cache=cache)
        o3 = compile_binary(program, GCC, "-O3", cache=cache)
        assert o2.kernel.structural is o3.kernel.structural
        assert o2.kernel.constants != o3.kernel.constants

    def test_interp_code_compiled_once_per_shape(self, program):
        # the first interp bind compiles the shape's Python; every vendor
        # bound from the same shape reuses that code object
        structural = StructuralLowerer(program, ftz=False).lower()
        assert "py" not in structural.backend_cache
        gcc = bind_costs(structural, GCC, "-O3").bind("interp")
        clang = bind_costs(structural, CLANG, "-O3").bind("interp")
        assert "py" in structural.backend_cache
        assert gcc.__code__ is clang.__code__
        assert gcc is not clang  # each binds its own constants

    def test_c_bind_compiles_no_python(self, program):
        from repro.sim.backend import _c_available

        ok, why = _c_available()
        if not ok:
            pytest.skip(f"C kernel backend unavailable: {why}")
        structural = StructuralLowerer(program, ftz=False).lower()
        bind_costs(structural, GCC, "-O3").bind("c")
        assert "c" in structural.backend_cache
        assert "py" not in structural.backend_cache

    def test_regions_metadata_preserved(self, program):
        kernel = bind_costs(StructuralLowerer(program, ftz=False).lower(),
                            GCC, "-O3")
        legacy_meta = [m.n_threads for m in kernel.regions]
        assert legacy_meta  # generated programs always have a region


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
        # the structural kernel is shape-keyed and still shared
        assert stock.kernel.structural is variant.kernel.structural


class TestFamilies:
    """The shapes of one fingerprint the cache lowered and no C module
    holds yet (built together by the C backend's first bind)."""

    def _shapes(self, program, vendors, cache, opt="-O3"):
        return [compile_binary(program, v, opt, cache=cache).kernel.structural
                for v in vendors]

    def test_claim_takes_the_family_in_lowering_order(self, program):
        cache = KernelCache()
        gcc, clang, intel = self._shapes(program, (GCC, CLANG, INTEL), cache)
        assert cache.claim_family(clang) == [gcc, clang, intel]
        # claimed: each member is now on its own
        assert cache.claim_family(gcc) == [gcc]

    def test_shape_lowered_after_a_claim_starts_the_next_family(self,
                                                                program):
        cache = KernelCache()
        gcc, clang = self._shapes(program, (GCC, CLANG), cache)
        cache.claim_family(gcc)
        o1_gcc, o1_intel = self._shapes(program, (GCC, INTEL), cache, "-O1")
        assert cache.claim_family(o1_intel) == [o1_gcc, o1_intel]

    def test_programs_are_separate_families(self, program_stream):
        cache = KernelCache()
        a = self._shapes(program_stream[0], (GCC, INTEL), cache)
        b = self._shapes(program_stream[1], (GCC, INTEL), cache)
        assert cache.claim_family(a[0]) == a
        assert cache.claim_family(b[1]) == b

    def test_membership_ignores_the_active_kernel_backend(self, program):
        from repro.sim.backend import use_kernel_backend

        cache = KernelCache()
        shapes = []
        for vendor, backend in ((GCC, "interp"), (CLANG, "c"),
                                (INTEL, "auto")):
            with use_kernel_backend(backend):
                shapes += self._shapes(program, (vendor,), cache)
        assert cache.claim_family(shapes[0]) == shapes

    def test_lru_bounds_the_families(self, program, program_stream):
        cache = KernelCache(structural_capacity=2)
        gcc, clang, intel = self._shapes(program, (GCC, CLANG, INTEL), cache)
        # gcc's shape left the structural LRU, and with it its family
        assert cache.claim_family(intel) == [clang, intel]
        assert cache.claim_family(gcc) == [gcc]
        for p in program_stream[1:5]:
            self._shapes(p, (GCC,), cache)
        assert len(cache._families) <= 2
        cache.clear()
        assert not cache._families

    def test_shape_lowered_outside_a_cache_has_no_family(self, program):
        assert StructuralLowerer(program, ftz=False).lower().family is None
