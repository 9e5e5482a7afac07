"""Tests for vendor models, toolchain, and Binary artifacts."""

import pytest

from repro.backends import get_backend
from repro.errors import CompilationError
from repro.vendors import CLANG, GCC, INTEL, compile_binary


class TestVendorCatalog:
    def test_three_paper_implementations(self):
        # the backend registry serves the three paper models by name
        assert [get_backend(n).vendor for n in ("gcc", "clang", "intel")] \
            == [GCC, CLANG, INTEL]

    def test_versions_match_paper_table(self):
        assert GCC.version == "13.1" and GCC.release == "04/2023"
        assert CLANG.version == "16.0.0" and CLANG.release == "03/2023"
        assert INTEL.version == "2023.2.0" and INTEL.release == "02/2023"

    def test_kmp_lineage_locks_are_close(self):
        # Intel and Clang must usually be mutually "comparable" (Eq. 1)
        # on lock-dominated tests: their contention costs sit within 20%
        ic = INTEL.runtime.lock_base_cycles \
            + 31 * INTEL.runtime.lock_contention_cycles
        cc = CLANG.runtime.lock_base_cycles \
            + 31 * CLANG.runtime.lock_contention_cycles
        assert abs(ic - cc) / min(ic, cc) <= 0.2

    def test_gcc_lock_is_much_cheaper(self):
        gc = GCC.runtime.lock_base_cycles \
            + 31 * GCC.runtime.lock_contention_cycles
        ic = INTEL.runtime.lock_base_cycles \
            + 31 * INTEL.runtime.lock_contention_cycles
        assert ic / gc >= 1.5  # enough to cross the beta threshold

    def test_clang_thrash_dwarfs_team_reuse(self):
        assert CLANG.runtime.spawn_thrash_cycles \
            >= 5 * GCC.runtime.spawn_warm_cycles

    def test_only_gcc_contracts_aggressively(self):
        assert GCC.traits.fma_mode == "aggressive"
        assert CLANG.traits.fma_mode == "basic"
        assert INTEL.traits.fma_mode == "basic"

    def test_only_intel_flushes_subnormals(self):
        assert INTEL.traits.flush_subnormals
        assert not GCC.traits.flush_subnormals
        assert not CLANG.traits.flush_subnormals

    def test_clang_has_no_injected_faults(self):
        f = CLANG.faults
        assert f.crash_rate == f.hang_rate == f.slow_rate == f.fast_rate == 0.0


class TestFaultDeterminism:
    def test_decisions_are_stable(self):
        fp = "deadbeef" * 8
        assert GCC.decides_crash(fp) == GCC.decides_crash(fp)
        assert INTEL.decides_hang(fp) == INTEL.decides_hang(fp)

    def test_decisions_differ_across_channels(self):
        # crash and slow channels are independent hash draws
        fps = [f"fp{i}" for i in range(2000)]
        crash = {f for f in fps if GCC.decides_crash(f)}
        slow = {f for f in fps if GCC.decides_slow(f)}
        assert crash != slow

    def test_rates_are_approximately_respected(self):
        fps = [f"program-{i}" for i in range(20000)]
        crash_rate = sum(GCC.decides_crash(f) for f in fps) / len(fps)
        assert GCC.faults.crash_rate * 0.5 < crash_rate \
            < GCC.faults.crash_rate * 1.6


class TestCompileBinary:
    def test_binaries_share_source_and_fingerprint(self, program_stream):
        p = program_stream[0]
        bins = [compile_binary(p, v) for v in (GCC, CLANG, INTEL)]
        assert len({b.cpp_source for b in bins}) == 1
        assert len({b.fingerprint for b in bins}) == 1

    def test_lowered_python_differs_across_vendors(self, program_stream):
        p = program_stream[0]
        gcc = compile_binary(p, GCC).kernel
        intel = compile_binary(p, INTEL).kernel
        assert gcc.constants != intel.constants  # vendor cost models
        assert not gcc.structural.ir.ftz  # only intel flushes subnormals
        assert intel.structural.ir.ftz

    def test_bad_opt_level_rejected(self, program_stream):
        with pytest.raises(CompilationError):
            compile_binary(program_stream[0], GCC, "-O9")

    def test_binary_name_and_entry(self, program_stream):
        b = compile_binary(program_stream[0], CLANG)
        assert b.name.endswith(".clang")
        assert callable(b.entry)

    def test_opt_level_changes_cost_not_semantics(self, program_stream,
                                                  input_gen, machine):
        from repro.driver import run_binary

        p = program_stream[2]
        inp = input_gen.generate(p, 0)
        # clang has no fma at any level, so values agree while time shifts
        fast = run_binary(compile_binary(p, CLANG, "-O3"), inp, machine)
        slow = run_binary(compile_binary(p, CLANG, "-O0"), inp, machine)
        import math

        assert (fast.comp == slow.comp
                or (math.isnan(fast.comp) and math.isnan(slow.comp)))
        assert slow.time_us > fast.time_us * 2

    def test_fingerprint_is_source_hash(self, program_stream):
        import hashlib

        b = compile_binary(program_stream[0], GCC)
        assert b.fingerprint == hashlib.sha256(
            b.cpp_source.encode()).hexdigest()
