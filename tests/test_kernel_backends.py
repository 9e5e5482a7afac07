"""Byte-identity battery and selection tests for the kernel backends.

The compiled C backend (:mod:`repro.sim.ckernel`) must be
*indistinguishable* from the interpreted reference
(:mod:`repro.sim.pykernel`) on every observable of a run record —
status, numerical output, virtual time, all nine counters, per-thread
states, and the fault detail string.  Anything less silently changes
campaign verdicts, which is the one thing a speed knob may never do.

The battery sweeps every directive mix × all three vendor models × two
optimization levels and compares full records across backends; every
vendor and opt level of a program runs from the program's one C module,
each in its own FP mode.  That a program costs one compiler run and
one module load whatever order its vendors compile and run in, fault
parity (CRASH/HANG records), that a run enters the runtime only at
region boundaries, and which backend each kernel entry bound to, are
pinned separately.  The battery and fault parity run in both build
tiers: ``full`` (``-Og``) and ``quick`` (``-O0``, what reducer
candidates build at).  Without a C toolchain there is nothing to compare
against, so the cross-backend checks skip (the forced-``c`` CI leg
fails instead of skipping).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import warnings
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.config import (
    DIRECTIVE_MIXES,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    MachineConfig,
    apply_directive_mix,
)
from repro import obs
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator, TestInput
from repro.core.nodes import (
    Assignment,
    Block,
    ForLoop,
    FPNumeral,
    IntNumeral,
    OmpAtomic,
    OmpBarrier,
    OmpCritical,
    OmpParallel,
    OmpSection,
    OmpSections,
    OmpSingle,
    OmpTask,
    OmpTaskwait,
    Program,
    VarRef,
)
from repro.core.types import (
    AssignOpKind,
    FPType,
    OmpClauses,
    ScheduleKind,
    Variable,
    VarKind,
)
from repro.driver import execution, run_binary
from repro.driver.engine import ExecutionPlan, execute_unit, plan_units
from repro.driver.records import RunStatus
from repro.sim import _native, ckernel, kcache
from repro.sim import backend as backend_mod
from repro.sim import backend_info
from repro.sim.backend import (
    BACKENDS,
    active_kernel_backend,
    kernel_backend_info,
    quick_kernel_builds,
    set_kernel_backend,
    use_kernel_backend,
)
from repro.sim.runtime import RegionExecutor
from repro.obs.metrics import counter_value
from repro.backends import get_backend
from test_lowering import _mk

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


def c_module(binary):
    """The ``run`` of the C module the binary's kernel runs from (set by
    the first C bind of its program)."""
    return binary.kernel.structural.backend_cache["c"]


@pytest.fixture()
def fresh_kernel_cache(monkeypatch):
    """An empty process kernel cache: the test's programs lower anew
    instead of reusing IRs other tests already built."""
    monkeypatch.setattr(kcache, "_DEFAULT_CACHE", kcache.KernelCache())


@pytest.fixture()
def cc_calls(tmp_path, monkeypatch):
    """A fresh on-disk kernel cache; returns the lists every compiler run
    and object load is appended to."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    calls = {"build": [], "load": []}
    for key, attr in (("build", "build_shared_object"),
                      ("load", "load_kernel_object")):
        def counted(*args, _fn=getattr(_native, attr), _log=calls[key],
                    **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(_native, attr, counted)
    return calls


def built_at(calls: dict) -> set[str]:
    """The ``-O`` levels of the compiler runs ``cc_calls`` logged."""
    return {flag for _, _, _, flags in calls["build"] for flag in flags
            if flag.startswith("-O")}


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

    def test_records_identical(self, mix, machine, fresh_kernel_cache):
        self._compare(mix, machine)

    def test_records_identical_quick_tier(self, mix, machine,
                                          fresh_kernel_cache, cc_calls):
        with quick_kernel_builds():
            self._compare(mix, machine)
        assert built_at(cc_calls) == {"-O0"}

    def _compare(self, mix, machine):
        gen_cfg = apply_directive_mix(
            GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                            num_threads=8), mix)
        gen = ProgramGenerator(gen_cfg, seed=777)
        inputs = InputGenerator(gen_cfg, seed=778)
        compared = 0
        for i in range(self.PROGRAMS_PER_MIX):
            program = gen.generate(i)
            test_input = inputs.generate(program, 0)
            binaries = [(vendor, opt, get_backend(vendor).compile(
                program, opt)) for vendor in VENDORS
                for opt in self.OPT_LEVELS]
            for vendor, opt, binary in binaries:
                reference = record_tuple(run_under(
                    binary, test_input, machine, "interp"))
                got = record_tuple(run_under(
                    binary, test_input, machine, "c"))
                assert got == reference, (
                    "c diverged from interp on "
                    f"{program.name}/{vendor}/{opt} ({mix})")
                compared += 1
            assert len({c_module(b) for _, _, b in binaries}) == 1
        assert compared == (self.PROGRAMS_PER_MIX * len(VENDORS)
                            * len(self.OPT_LEVELS))


def _program(index: int, mix: str = "full"):
    gen_cfg = apply_directive_mix(
        GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                        num_threads=8), mix)
    program = ProgramGenerator(gen_cfg, seed=777).generate(index)
    return program, InputGenerator(gen_cfg, seed=778).generate(program, 0)


@needs_c
class TestFamilies:
    """A program's vendors and opt levels share one C module."""

    def test_family_of_one_records_identical(self, machine,
                                             fresh_kernel_cache, cc_calls):
        # each vendor compiles and runs before the next compiles: still
        # one compiler run, one module, each vendor in its own mode
        program, test_input = _program(3)
        runs = set()
        for vendor in VENDORS:
            binary = get_backend(vendor).compile(program, "-O3")
            reference = run_under(binary, test_input, machine, "interp")
            got = run_under(binary, test_input, machine, "c")
            assert record_tuple(got) == record_tuple(reference), vendor
            runs.add(c_module(binary))
        assert len(cc_calls["build"]) == 1
        assert len(cc_calls["load"]) == 1
        assert len(runs) == 1

    def test_one_program_one_compiler_run(self, machine, fresh_kernel_cache,
                                          cc_calls):
        program, test_input = _program(4)
        compiled = ckernel.build_info()["compiled"]
        binaries = [get_backend(v).compile(program, "-O3") for v in VENDORS]
        for binary in binaries:
            assert record_tuple(run_under(binary, test_input, machine,
                                          "c")) == \
                record_tuple(run_under(binary, test_input, machine,
                                       "interp"))
        assert len(cc_calls["build"]) == 1
        assert len(cc_calls["load"]) == 1
        assert ckernel.build_info()["compiled"] == compiled + 1
        assert len({c_module(b) for b in binaries}) == 1

    def test_identical_members_match_interp(self, machine,
                                            fresh_kernel_cache):
        # gcc and clang below -O2 run the same mode of one module
        program, test_input = _program(5)
        binaries = [get_backend(v).compile(program, "-O1")
                    for v in ("gcc", "clang")]
        records = [(record_tuple(run_under(b, test_input, machine, "c")),
                    record_tuple(run_under(b, test_input, machine,
                                           "interp"))) for b in binaries]
        for c_record, interp_record in records:
            assert c_record == interp_record
        assert binaries[0].kernel.mode == binaries[1].kernel.mode
        assert c_module(binaries[0]) is c_module(binaries[1])

    def test_shape_lowered_after_its_family_build(self, machine,
                                                  fresh_kernel_cache,
                                                  cc_calls):
        # vendors compiled after the first C bind, at every opt level,
        # lower nothing and build nothing: they join the program's module
        program, test_input = _program(7)
        cache = kcache.get_kernel_cache()
        early = [get_backend(v).compile(program, "-O3")
                 for v in ("gcc", "clang")]
        records = [run_under(b, test_input, machine, "c") for b in early]
        late = [get_backend(v).compile(program, opt) for v in VENDORS
                for opt in ("-O0", "-O1", "-O2", "-O3")]
        records += [run_under(b, test_input, machine, "c") for b in late]
        for binary, record in zip([*early, *late], records):
            assert record_tuple(record) == record_tuple(run_under(
                binary, test_input, machine, "interp"))
        assert len(cc_calls["build"]) == 1
        assert len(cc_calls["load"]) == 1
        assert cache.stats().structural_misses == 1
        assert len({c_module(b) for b in [*early, *late]}) == 1


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
                                        machine, fresh_kernel_cache):
        self._compare(index, vendor, status, machine)

    @pytest.mark.parametrize("index,vendor,status", FAULT_CASES)
    def test_faulting_records_identical_quick_tier(
            self, index, vendor, status, machine, fresh_kernel_cache,
            cc_calls):
        with quick_kernel_builds():
            self._compare(index, vendor, status, machine)
        assert built_at(cc_calls) == {"-O0"}

    @staticmethod
    def _compare(index, vendor, status, machine):
        program, test_input = _program(index)
        # the faulting vendor runs from the module its siblings share
        binary = {v: get_backend(v).compile(program, "-O3")
                  for v in VENDORS}[vendor]
        ref = run_under(binary, test_input, machine, "interp")
        assert ref.status is status
        if not _C_OK:
            pytest.skip(f"C kernel backend unavailable: {_C_WHY}")
        got = run_under(binary, test_input, machine, "c")
        assert record_tuple(got) == record_tuple(ref), (
            f"c fault record diverged on program {index}/{vendor}")

    #: the record below, as the runtime produced it when every acquire
    #: and atomic update was a runtime call
    HANG_AFTER_ATOMICS = (
        RunStatus.HANG, "None", 5_000_000.0,
        {"context_switches": 4, "cpu_migrations": 0, "page_faults": 222,
         "cycles": 555573, "instructions": 126641, "branches": 25341,
         "branch_misses": 675, "critical_acquires": 1500,
         "atomic_updates": 3009},
        {"__kmp_wait_4": [0, 1, 2, 3], "__kmp_eq_4": [4, 5],
         "sched_yield": [6, 7]},
        "stopped by SIGINT after timeout (livelock in critical)")

    @pytest.mark.parametrize("backend", ["interp", "c"])
    def test_hang_after_atomics_record_pinned(self, backend, machine):
        # the aborted region ran 2,999 atomic updates before the abort,
        # the region before it 10: all count, as do the cost lanes at
        # the aborting acquire
        if backend == "c" and not _C_OK:
            pytest.skip(f"C kernel backend unavailable: {_C_WHY}")
        binary, test_input = hang_after_atomics()
        got = run_under(binary, test_input, machine, backend)
        assert record_tuple(got) == self.HANG_AFTER_ATOMICS


# ----------------------------------------------------------------------
# the runtime boundary
# ----------------------------------------------------------------------

_X = Variable("var_x", FPType.DOUBLE, VarKind.PARAM)


def _mini(body) -> Program:
    """An 8-thread program over ``comp`` and the double parameter
    ``var_x``; ``body(comp, x)`` lists its statements."""
    return _mk(lambda comp: Block(body(comp, _X)), extra_params=[_X],
               threads=8)


def _add(v, c: float) -> Assignment:
    return Assignment(VarRef(v), AssignOpKind.ADD_ASSIGN, FPNumeral(c))


def _region(*stmts) -> OmpParallel:
    return OmpParallel(OmpClauses(num_threads=8), Block(list(stmts)))


def _for(var: str, trips: int, *stmts, **kw) -> ForLoop:
    return ForLoop(Variable(var, None, VarKind.LOOP), IntNumeral(trips),
                   Block(list(stmts)), omp_for=kw.pop("omp_for", True),
                   **kw)


def _input(program: Program, index: int = 0) -> TestInput:
    test_input = TestInput(program_name=program.name, index=index)
    test_input.values = {"comp": 0.0, "var_x": 0.5}
    return test_input


def hang_after_atomics():
    """An intel binary, livelock armed, whose second region hangs on its
    1,500th acquire after 2,999 atomic updates (the first region ran
    10), and the input the fault fires on."""
    program = _mini(lambda comp, x: [
        _region(_for("i_1", 10, OmpAtomic(_add(x, 1.0)))),
        _region(_for("i_2", 2000, OmpAtomic(_add(x, 1.0)),
                     OmpCritical(Block([_add(comp, 1.0)])),
                     OmpAtomic(_add(x, 2.0))))])
    binary = dataclasses.replace(get_backend("intel").compile(program, "-O3"),
                                 hang_armed=True)
    return binary, _input(program, index=1)  # input 0 does not livelock


#: name -> (program, region entries of one run): every construct whose
#: events a kernel once reported to the runtime one call each
BOUNDARY_PROGRAMS = {
    "critical-in-for": (_mini(lambda comp, x: [
        _region(_for("i_1", 64, OmpCritical(Block([_add(comp, 1.0)]))))]),
        1),
    "atomic": (_mini(lambda comp, x: [
        _region(_for("i_1", 64, OmpAtomic(_add(x, 1.0))))]), 1),
    "single-barrier": (_mini(lambda comp, x: [
        _region(OmpSingle(Block([_add(x, 1.0)])), OmpBarrier(),
                _for("i_1", 16, _add(x, 1.0)))]), 1),
    "sections-tasks": (_mini(lambda comp, x: [
        _region(OmpSections([
            OmpSection(Block([OmpTask(Block([_add(x, 1.0)])),
                              OmpTask(Block([_add(x, 2.0)])),
                              OmpTaskwait()])),
            OmpSection(Block([OmpTask(Block([_add(x, 3.0)]))]))]))]), 1),
    "schedules": (_mini(lambda comp, x: [
        _region(_for("i_1", 50, _add(x, 1.0),
                     schedule=ScheduleKind.STATIC, schedule_chunk=3),
                _for("i_2", 50, _add(x, 1.0),
                     schedule=ScheduleKind.DYNAMIC, schedule_chunk=2),
                _for("i_3", 50, _add(x, 1.0),
                     schedule=ScheduleKind.GUIDED, schedule_chunk=1))]), 1),
    "region-in-serial-loop": (_mini(lambda comp, x: [
        _for("j_1", 12, _region(_for("i_1", 16, _add(x, 1.0))),
             omp_for=False)]), 12),
}


@pytest.fixture()
def runtime_calls(monkeypatch):
    """Every call a run makes into its RegionExecutor, by method name."""
    calls: Counter = Counter()
    public = {name for name in vars(RegionExecutor)
              if not name.startswith("_")}

    class Spy(RegionExecutor):
        def __getattribute__(self, name):
            attr = super().__getattribute__(name)
            if name not in public:
                return attr

            def counted(*args, **kwargs):
                calls[name] += 1
                return attr(*args, **kwargs)
            return counted

    monkeypatch.setattr(execution, "RegionExecutor", Spy)
    return calls


@pytest.mark.parametrize("backend", ["interp", "c"])
class TestRuntimeBoundary:
    """A run enters the runtime only at the prologue, region enter and
    exit, and the livelock abort — once each per event, never per
    OpenMP event inside a region."""

    @pytest.fixture(autouse=True)
    def _needs_backend(self, backend):
        if backend == "c" and not _C_OK:
            pytest.skip(f"C kernel backend unavailable: {_C_WHY}")

    @pytest.mark.parametrize("name", sorted(BOUNDARY_PROGRAMS))
    def test_runs_enter_the_runtime_at_region_boundaries(
            self, backend, name, runtime_calls, machine):
        program, entries = BOUNDARY_PROGRAMS[name]
        binary = get_backend("gcc").compile(program, "-O3")
        record = run_under(binary, _input(program), machine, backend)
        assert record.status is RunStatus.OK
        assert dict(runtime_calls) == {"prologue": 1,
                                       "region_enter": entries,
                                       "region_exit": entries}

    def test_livelock_is_the_one_abort(self, backend, runtime_calls,
                                       machine):
        binary, test_input = hang_after_atomics()
        record = run_under(binary, test_input, machine, backend)
        assert record.status is RunStatus.HANG
        assert dict(runtime_calls) == {"prologue": 1, "region_enter": 2,
                                       "region_exit": 1, "livelock": 1}


# ----------------------------------------------------------------------
# which backend bound
# ----------------------------------------------------------------------

@pytest.fixture()
def binds(monkeypatch):
    """Telemetry on with a clean registry; returns a reader of
    ``repro_kernel_binds_total`` series."""
    monkeypatch.setattr(ckernel, "_N_FAILED", ckernel._N_FAILED)
    monkeypatch.setattr(ckernel, "_LAST_FAILURE", ckernel._LAST_FAILURE)
    obs.reset()
    obs.enable(True)
    yield lambda backend, reason: counter_value(
        obs.registry_snapshot(), "repro_kernel_binds_total",
        backend=backend, reason=reason)
    obs.enable(False)
    obs.reset()
    os.environ.pop("REPRO_OBS", None)


class TestTierFlags:
    """The build tiers differ only in the ``-O`` level, which moves no
    result bit; campaign programs build at ``-Og``."""

    def test_tiers_differ_only_in_the_opt_level(self):
        full, quick = ckernel._CFLAGS["full"], ckernel._CFLAGS["quick"]
        assert len(full) == len(quick)
        assert [(a, b) for a, b in zip(full, quick) if a != b] == [
            ("-Og", "-O0")]
        assert [flag for flag in full if flag.startswith("-O")] == ["-Og"]
        assert {"-ffp-contract=off", "-fno-builtin"} <= set(full)


@needs_c
class TestBindTelemetry:
    def test_failed_build_binds_interp_as_fallback(
            self, monkeypatch, binds, cc_calls, machine, fresh_kernel_cache):
        monkeypatch.setattr(_native, "build_shared_object",
                            lambda *args, **kwargs: (False, "no build"))
        program, test_input = _program(3)
        binary = get_backend("gcc").compile(program, "-O3")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_under(binary, test_input, machine, "c")
        assert binds("interp", "fallback") == 1
        assert binds("c", "selected") == 0

    def test_builds_counted_by_tier(self, binds, cc_calls, machine,
                                    fresh_kernel_cache):
        def builds(tier):
            return counter_value(obs.registry_snapshot(),
                                 "repro_kernel_builds_total", tier=tier)

        for index, tier in ((3, "quick"), (4, "full"), (5, "quick")):
            program, test_input = _program(index)
            binary = get_backend("gcc").compile(program, "-O3")
            with quick_kernel_builds() if tier == "quick" else nullcontext():
                run_under(binary, test_input, machine, "c")
        assert (builds("quick"), builds("full")) == (2, 1)
        assert built_at(cc_calls) == {"-O0", "-Og"}

    def test_bound_backend_is_selected(self, binds, cc_calls, machine,
                                       fresh_kernel_cache):
        program, test_input = _program(3)
        binary = get_backend("gcc").compile(program, "-O3")
        run_under(binary, test_input, machine, "c")
        run_under(binary, test_input, machine, "interp")
        assert binds("c", "selected") == 1
        assert binds("interp", "selected") == 1
        assert binds("interp", "fallback") == 0


class TestRequestResolvedToInterp:
    """A ``c`` or ``auto`` request that selection already resolved to
    interp is a fallback too; only interp asked for is ``selected``."""

    @pytest.mark.parametrize("requested,reason", [
        ("c", "fallback"), ("auto", "fallback"), ("interp", "selected")])
    def test_counted_by_request(self, requested, reason, monkeypatch, binds,
                                machine, fresh_kernel_cache):
        monkeypatch.setattr(backend_mod, "_C_AVAIL",
                            (False, "simulated: no toolchain"))
        program, test_input = _program(3)
        with warnings.catch_warnings():  # an explicit c request warns
            warnings.simplefilter("ignore", RuntimeWarning)
            binary = get_backend("gcc").compile(program, "-O3")
            run_under(binary, test_input, machine, requested)
        other = "selected" if reason == "fallback" else "fallback"
        assert binds("interp", reason) == 1
        assert binds("interp", other) == 0
        assert binds("c", "selected") == 0


# ----------------------------------------------------------------------
# bad objects in the kernel cache, short arrays
# ----------------------------------------------------------------------

@needs_c
class TestCorruptCachedObject:
    """A truncated or foreign file where a kernel object should be falls
    back to interp with the reason recorded, never crashes the process."""

    @pytest.mark.parametrize("damage", ["truncated", "not-elf"])
    def test_falls_back_to_interp(self, damage, monkeypatch, cc_calls,
                                  machine, tmp_path):
        monkeypatch.setattr(ckernel, "_N_FAILED", ckernel._N_FAILED)
        monkeypatch.setattr(ckernel, "_LAST_FAILURE", ckernel._LAST_FAILURE)
        program, test_input = _program(3)
        built = tmp_path / "built"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(built))
        monkeypatch.setattr(kcache, "_DEFAULT_CACHE", kcache.KernelCache())
        run_under(get_backend("gcc").compile(program, "-O3"), test_input,
                  machine, "c")
        (obj,) = built.glob("_repro_kernel-*.so")
        data = obj.read_bytes()
        # the damaged copy in a cache of its own: the loader would hand
        # back the object this process loaded from the same path
        damaged = tmp_path / "damaged"
        damaged.mkdir(mode=0o700)
        (damaged / obj.name).write_bytes(
            data[:len(data) // 2] if damage == "truncated"
            else b"not a kernel object\n" * 8)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(damaged))

        # a new process: nothing lowered, so nothing loaded
        monkeypatch.setattr(kcache, "_DEFAULT_CACHE", kcache.KernelCache())
        failed = ckernel.build_info()["failed"]
        binary = get_backend("gcc").compile(program, "-O3")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_under(binary, test_input, machine, "c")
        info = ckernel.build_info()
        assert info["failed"] == failed + 1
        assert info["last_failure"].startswith("load failed: ImportError")
        assert ("truncated ELF object" in info["last_failure"]) == (
            damage == "truncated")
        assert len(cc_calls["build"]) == 1  # the cached path is reused
        assert record_tuple(got) == record_tuple(
            run_under(binary, test_input, machine, "interp"))


def _mapped_objects(cache_dir) -> set[str]:
    """The kernel objects under ``cache_dir`` this process has mapped."""
    with open("/proc/self/maps") as fh:
        return {line.split()[-1] for line in fh
                if f"{cache_dir}/_repro_kernel-" in line}


@needs_c
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="no /proc/self/maps to read the loaded objects")
class TestEvictionUnloads:
    """A program that leaves the kernel cache unloads its kernel object,
    by reference count, once no binary holds it."""

    CAPACITY = 2

    def test_capacity_bounds_loaded_objects(self, cc_calls, monkeypatch,
                                            machine, tmp_path):
        monkeypatch.setattr(kcache, "_DEFAULT_CACHE",
                            kcache.KernelCache(self.CAPACITY))
        program, test_input = _program(0)
        kept = get_backend("gcc").compile(program, "-O3")
        with use_kernel_backend("c"):
            _ = kept.entry  # bound to C before its program is evicted
        (obj,) = _mapped_objects(tmp_path)
        for index in range(1, 2 * self.CAPACITY + 1):
            other, other_input = _program(index)
            binary = get_backend("gcc").compile(other, "-O3")
            with use_kernel_backend("c"):
                _ = binary.entry
                run_binary(binary, other_input, machine)
        del binary
        gc.collect()
        loads = len(cc_calls["load"])
        assert loads == 2 * self.CAPACITY + 1
        mapped = _mapped_objects(tmp_path)
        # the evicted program's object stays while its binary lives
        assert obj in mapped
        assert len(mapped) <= self.CAPACITY + 1
        with use_kernel_backend("c"):
            got = run_binary(kept, test_input, machine)
        assert len(cc_calls["load"]) == loads  # its own object, no reload
        assert record_tuple(got) == record_tuple(
            run_under(kept, test_input, machine, "interp"))
        del kept
        gc.collect()
        mapped = _mapped_objects(tmp_path)
        assert obj not in mapped
        assert len(mapped) <= self.CAPACITY


@needs_c
class TestShortArrayRecords:
    """Arrays shorter than the kernel's bound: the C entry defers the
    whole call to interp, so the run enters the runtime exactly as the
    interpreted run does — the C attempt adds no prologue."""

    @pytest.mark.parametrize("length", [0, 999, 1000])  # bound: 1000
    def test_short_arrays_run_the_interp_record(self, length, monkeypatch,
                                                runtime_calls, machine):
        build_args = execution.build_args

        def short_args(binary, test_input):
            args = build_args(binary, test_input)
            return {k: v[:length] if isinstance(v, list) else v
                    for k, v in args.items()}

        monkeypatch.setattr(execution, "build_args", short_args)
        program, test_input = _program(3)
        binary = get_backend("gcc").compile(program, "-O3")
        outcomes = []
        for backend in ("interp", "c"):
            runtime_calls.clear()
            try:
                outcome = record_tuple(run_under(binary, test_input,
                                                 machine, backend))
            except IndexError as exc:  # as the interpreted kernel raises
                outcome = repr(exc)
            outcomes.append((outcome, dict(runtime_calls)))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][1]["prologue"] == 1
