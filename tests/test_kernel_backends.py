"""Byte-identity battery and selection tests for the kernel backends.

The compiled C backend (:mod:`repro.sim.ckernel`) must be
*indistinguishable* from the interpreted reference
(:mod:`repro.sim.pykernel`) on every observable of a run record —
status, numerical output, virtual time, all nine counters, per-thread
states, and the fault detail string.  Anything less silently changes
campaign verdicts, which is the one thing a speed knob may never do.

The battery sweeps every directive mix × all three vendor models × two
optimization levels and compares full records across backends.  Fault
parity (CRASH/HANG records) is pinned separately.  Without a C toolchain
there is nothing to compare against, so the cross-backend checks skip
(the forced-``c`` CI leg fails instead of skipping).
"""

from __future__ import annotations

import warnings

import pytest

from repro.config import (
    DIRECTIVE_MIXES,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    MachineConfig,
    apply_directive_mix,
)
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.driver import run_binary
from repro.driver.engine import ExecutionPlan, execute_unit, plan_units
from repro.driver.records import RunStatus
from repro.sim import backend as backend_mod
from repro.sim import backend_info
from repro.sim.backend import (
    BACKENDS,
    active_kernel_backend,
    kernel_backend_info,
    set_kernel_backend,
    use_kernel_backend,
)
from repro.backends import get_backend

VENDORS = ("gcc", "clang", "intel")

_C_OK, _C_WHY = backend_mod._c_available()

#: the cross-backend comparisons need the compiled backend to exist
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"C kernel backend unavailable: {_C_WHY}")


def record_tuple(r):
    """Every observable of a run record (comp via repr: NaN-safe,
    -0.0-safe bit-level comparison)."""
    return (r.status, repr(r.comp), r.time_us, r.counters.as_dict(),
            r.thread_states, r.detail)


def run_under(binary, test_input, machine, backend):
    """Execute ``binary`` with the given backend, re-binding its entry
    (``Binary.entry`` memoizes the callable bound at first use)."""
    with use_kernel_backend(backend):
        binary.reset_entry()
        record = run_binary(binary, test_input, machine)
    binary.reset_entry()
    return record


# ----------------------------------------------------------------------
# entry-point caching
# ----------------------------------------------------------------------

class TestResetEntry:
    def test_reset_entry_drops_memoized_binding(self, program_stream):
        binary = get_backend("gcc").compile(program_stream[0], "-O1")
        assert "entry" not in binary.__dict__
        first = binary.entry
        assert binary.__dict__["entry"] is first  # memoized
        binary.reset_entry()
        assert "entry" not in binary.__dict__
        binary.reset_entry()  # idempotent on an unbound binary
        assert callable(binary.entry)  # re-binds on next access

    def test_reset_entry_rebinds_under_new_backend(self, program_stream):
        binary = get_backend("gcc").compile(program_stream[0], "-O1")
        with use_kernel_backend("interp"):
            interp_entry = binary.entry
        binary.reset_entry()
        with use_kernel_backend("c"):
            c_entry = binary.entry
            assert c_entry is binary.kernel.bind()  # the active entry
        binary.reset_entry()
        # without a toolchain "c" resolves to interp, the same entry
        assert (interp_entry is not c_entry) == _C_OK


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------

@pytest.fixture()
def toolchain(monkeypatch):
    """Selection as on a host with a C toolchain, whatever this one has."""
    monkeypatch.setattr(backend_mod, "_C_AVAIL",
                        (True, "simulated toolchain"))


class TestBackendSelection:
    def test_env_var_selects(self, monkeypatch, toolchain):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "interp")
        assert active_kernel_backend() == "interp"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        assert active_kernel_backend() == "c"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "turbo")
        with pytest.raises(ValueError, match="turbo"):
            active_kernel_backend()

    def test_set_kernel_backend_validates_eagerly(self):
        with pytest.raises(ValueError, match="warp"):
            set_kernel_backend("warp")

    def test_vm_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "vm")
        with pytest.raises(ValueError, match="vm"):
            active_kernel_backend()
        with pytest.raises(ConfigError, match="kernel backend"):
            CampaignConfig(kernel_backend="vm")

    def test_override_beats_environment(self, monkeypatch, toolchain):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        with use_kernel_backend("interp"):
            assert active_kernel_backend() == "interp"
        assert active_kernel_backend() == "c"

    def test_auto_resolves_to_c_or_interp(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        active = active_kernel_backend()
        assert active in ("c", "interp")
        assert active == ("c" if _C_OK else "interp")

    def test_info_reports_requested_and_active(self, monkeypatch,
                                               toolchain):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        info = kernel_backend_info()
        assert info["requested"] == "c"
        assert info["active"] == "c"
        assert info["reason"]

    def test_explicit_c_unavailable_warns_once(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_C_AVAIL",
                            (False, "simulated missing toolchain"))
        monkeypatch.setattr(backend_mod, "_warned", set())
        with use_kernel_backend("c"):
            with warnings.catch_warnings(record=True) as first:
                warnings.simplefilter("always")
                assert active_kernel_backend() == "interp"
            with warnings.catch_warnings(record=True) as second:
                warnings.simplefilter("always")
                active_kernel_backend()
        relevant = [w for w in first
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "simulated missing toolchain" in str(relevant[0].message)
        assert not [w for w in second
                    if issubclass(w.category, RuntimeWarning)]

    def test_auto_fallback_is_silent(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_C_AVAIL",
                            (False, "simulated missing toolchain"))
        monkeypatch.setattr(backend_mod, "_warned", set())
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert active_kernel_backend() == "interp"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert "unavailable" in kernel_backend_info()["reason"]

    def test_backend_info_aggregate(self):
        info = backend_info()
        assert set(info) == {"native_values", "kernel_backend", "ckernel"}
        assert "active" in info["native_values"]
        assert "reason" in info["kernel_backend"]
        assert "compiled" in info["ckernel"]


# ----------------------------------------------------------------------
# campaign-config plumbing
# ----------------------------------------------------------------------

class TestConfigPlumbing:
    def test_campaign_config_validates(self):
        with pytest.raises(ConfigError, match="kernel backend"):
            CampaignConfig(kernel_backend="fast")
        for b in BACKENDS:
            assert CampaignConfig(kernel_backend=b).kernel_backend == b

    def test_campaign_key_ignores_kernel_backend(self):
        from repro.fleet.store import campaign_key
        keys = {campaign_key(CampaignConfig(n_programs=2,
                                            kernel_backend=b))
                for b in (None, "interp", "c", "auto")}
        assert len(keys) == 1

    def test_execute_unit_applies_config_backend(self, fast_gen_cfg,
                                                 monkeypatch):
        applied = []
        real = backend_mod.use_kernel_backend

        def spy(backend):
            applied.append(backend)
            return real(backend)

        monkeypatch.setattr("repro.sim.backend.use_kernel_backend", spy)
        cfg = CampaignConfig(n_programs=1, inputs_per_program=1,
                             generator=fast_gen_cfg,
                             kernel_backend="interp")
        plan = ExecutionPlan(cfg)
        execute_unit(plan, plan_units(cfg)[0])
        assert applied == ["interp"]

    def test_execute_unit_none_leaves_default(self, fast_gen_cfg,
                                              monkeypatch):
        applied = []
        real = backend_mod.use_kernel_backend

        def spy(backend):
            applied.append(backend)
            return real(backend)

        monkeypatch.setattr("repro.sim.backend.use_kernel_backend", spy)
        cfg = CampaignConfig(n_programs=1, inputs_per_program=1,
                             generator=fast_gen_cfg)
        plan = ExecutionPlan(cfg)
        execute_unit(plan, plan_units(cfg)[0])
        assert applied == []

    @needs_c
    def test_unit_outcomes_identical_across_backends(self, fast_gen_cfg):
        def outcome_key(o):
            return [(v.program_name, v.input_index, v.analyzed,
                     v.output_divergent,
                     [record_tuple(r) for r in v.records],
                     sorted((x.vendor, x.kind, x.score)
                            for x in v.outliers))
                    for v in o.verdicts]

        results = []
        for b in ("interp", "c"):
            cfg = CampaignConfig(n_programs=2, inputs_per_program=2,
                                 generator=fast_gen_cfg,
                                 kernel_backend=b)
            plan = ExecutionPlan(cfg)
            results.append([outcome_key(execute_unit(plan, u))
                            for u in plan_units(cfg)])
        assert results[1] == results[0]


# ----------------------------------------------------------------------
# the bitwise battery
# ----------------------------------------------------------------------

@needs_c
@pytest.mark.parametrize("mix", sorted(DIRECTIVE_MIXES))
class TestBitwiseBattery:
    """Full-record identity across backends, per directive mix."""

    PROGRAMS_PER_MIX = 2
    OPT_LEVELS = ("-O1", "-O3")

    def test_records_identical(self, mix, machine):
        gen_cfg = apply_directive_mix(
            GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                            num_threads=8), mix)
        gen = ProgramGenerator(gen_cfg, seed=777)
        inputs = InputGenerator(gen_cfg, seed=778)
        compared = 0
        for i in range(self.PROGRAMS_PER_MIX):
            program = gen.generate(i)
            test_input = inputs.generate(program, 0)
            for vendor in VENDORS:
                for opt in self.OPT_LEVELS:
                    binary = get_backend(vendor).compile(program, opt)
                    reference = record_tuple(run_under(
                        binary, test_input, machine, "interp"))
                    got = record_tuple(run_under(
                        binary, test_input, machine, "c"))
                    assert got == reference, (
                        "c diverged from interp on "
                        f"{program.name}/{vendor}/{opt} ({mix})")
                    compared += 1
        assert compared == (self.PROGRAMS_PER_MIX * len(VENDORS)
                            * len(self.OPT_LEVELS))


# ----------------------------------------------------------------------
# fault parity
# ----------------------------------------------------------------------

class TestFaultParity:
    """CRASH/HANG records — injected-fault paths leave the kernel early;
    the compiled code must unwind to the same partial time and detail.

    The (program index, vendor, status) triples are pinned from a scan
    of the seed-777 full-mix stream; faults arm deterministically from
    (fingerprint, vendor), so they can only move if the generator stream
    or the arming rule changes — both of which should fail loudly.
    """

    FAULT_CASES = (
        (45, "intel", RunStatus.HANG),
        (62, "intel", RunStatus.HANG),
        (136, "gcc", RunStatus.CRASH),
    )

    @pytest.mark.parametrize("index,vendor,status", FAULT_CASES)
    def test_faulting_records_identical(self, index, vendor, status,
                                        machine):
        gen_cfg = apply_directive_mix(
            GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                            num_threads=8), "full")
        program = ProgramGenerator(gen_cfg, seed=777).generate(index)
        test_input = InputGenerator(gen_cfg, seed=778).generate(program, 0)
        binary = get_backend(vendor).compile(program, "-O3")
        ref = run_under(binary, test_input, machine, "interp")
        assert ref.status is status
        if not _C_OK:
            pytest.skip(f"C kernel backend unavailable: {_C_WHY}")
        got = run_under(binary, test_input, machine, "c")
        assert record_tuple(got) == record_tuple(ref), (
            f"c fault record diverged on program {index}/{vendor}")
