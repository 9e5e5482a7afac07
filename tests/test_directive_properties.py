"""Property-based conformance suite for the directive-diversity expansion.

For every new directive family — combined ``parallel for`` (with
``schedule`` and ``collapse``), ``min``/``max`` reductions, ``atomic``,
``single``, and ``barrier`` — generate hundreds of seeded programs with
that family boosted and assert the end-to-end invariants the four layers
must agree on:

* **grammar**: every generated program passes :func:`check_conformance`;
* **race oracle**: every ``allow_data_races=False`` program is race-free;
* **determinism**: regeneration from ``(config, index)`` yields a
  byte-identical translation unit;
* **execution**: the simulated vendors interpret every construct, and all
  three agree bit-for-bit on race-free schedule-independent programs;
* **native**: the emitted C++ compiles under ``g++ -fopenmp`` and — for
  schedule-independent candidates — prints the simulator's exact value
  (skipped cleanly when no ``g++`` is on PATH).

The sweep sizes satisfy the acceptance bar: >= 500 programs spanning all
five families pass conformance; set ``REPRO_FULL_NATIVE=1`` to also
native-compile every swept program instead of the stratified sample.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.backends import gcc_native
from repro.codegen.emit_main import emit_translation_unit
from repro.config import GeneratorConfig, MachineConfig
from repro.core.features import ProgramFeatures, extract_features
from repro.core.generator import ProgramGenerator
from repro.core.grammar import check_conformance
from repro.core.inputs import InputGenerator
from repro.core.races import find_races
from repro.driver import RunStatus, run_binary
from repro.driver.records import values_equal
from repro.vendors import CLANG, GCC, INTEL, compile_binary

#: small, fast base configuration shared by every family sweep
_BASE = GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                        num_threads=4)

#: per-family generator boost + the feature that proves the family landed
FAMILIES: dict[str, tuple[dict, str]] = {
    "parallel_for": (dict(parallel_for_probability=0.9), "n_parallel_for"),
    "schedules": (dict(schedule_probability=0.95,
                       parallel_for_probability=0.5), "n_scheduled"),
    "collapse": (dict(collapse_probability=0.85, schedule_probability=0.5),
                 "n_collapse"),
    "minmax_reduction": (dict(reduction_probability=0.9),
                         "n_minmax_reductions"),
    "atomic": (dict(atomic_probability=0.9), "n_atomic"),
    "single": (dict(single_probability=0.95), "n_single"),
    "barrier": (dict(barrier_probability=0.9), "n_barrier"),
    # the worksharing-graph families (repro.core.taskgraph): off by
    # default, so the boost must also flip their enable flags
    "sections": (dict(enable_sections=True, sections_probability=0.9,
                      parallel_for_probability=0.0), "n_sections"),
    "tasks": (dict(enable_sections=True, enable_tasks=True,
                   sections_probability=0.9, task_probability=0.9,
                   parallel_for_probability=0.0), "n_tasks"),
}

_PER_FAMILY = 80  # 9 families x 80 = 720 programs >= the 500 bar
_SEED = 20260730


def _family_cfg(name: str) -> GeneratorConfig:
    return dataclasses.replace(_BASE, **FAMILIES[name][0])


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_sweep(request):
    """(family name, programs, features) for one boosted family stream."""
    name = request.param
    gen = ProgramGenerator(_family_cfg(name), seed=_SEED)
    programs = [gen.generate(i) for i in range(_PER_FAMILY)]
    features = [extract_features(p) for p in programs]
    return name, programs, features


class TestGenerationProperties:
    def test_family_is_actually_exercised(self, family_sweep):
        name, _, features = family_sweep
        feat = FAMILIES[name][1]
        hits = sum(1 for f in features if getattr(f, feat) > 0)
        # the boost must make the family common, not incidental
        assert hits >= _PER_FAMILY // 5, (name, hits)

    def test_every_program_conforms(self, family_sweep):
        name, programs, _ = family_sweep
        for p in programs:
            check_conformance(p)  # raises GrammarError on violation

    def test_every_program_is_race_free(self, family_sweep):
        name, programs, _ = family_sweep
        for p in programs:
            reports = find_races(p)
            assert not reports, (name, p.name,
                                 [str(r) for r in reports])

    def test_seed_determinism_of_ast(self, family_sweep):
        """generate(config, index) is a pure function: a fresh generator
        reproduces the byte-identical translation unit."""
        name, programs, _ = family_sweep
        regen = ProgramGenerator(_family_cfg(name), seed=_SEED)
        for i in range(0, _PER_FAMILY, 8):
            assert emit_translation_unit(regen.generate(i)) == \
                emit_translation_unit(programs[i]), (name, i)


class TestSimulatedExecution:
    def test_all_vendors_execute_every_family(self, family_sweep):
        """Each family's directives lower and run on all three simulated
        vendors; race-free + schedule-independent programs must agree
        bit-for-bit across vendors at -O1 (no contraction applied)."""
        name, programs, features = family_sweep
        feat = FAMILIES[name][1]
        inputs = InputGenerator(_family_cfg(name), seed=_SEED + 1)
        machine = MachineConfig()
        executed = 0
        for p, f in zip(programs, features):
            if getattr(f, feat) == 0:
                continue
            inp = inputs.generate(p, 0)
            records = []
            for vendor in (GCC, CLANG, INTEL):
                rec = run_binary(compile_binary(p, vendor, "-O1"), inp,
                                 machine)
                assert rec.status in (RunStatus.OK, RunStatus.CRASH,
                                      RunStatus.HANG), (name, p.name)
                records.append(rec)
            # GCC and Clang models share IEEE semantics at -O1 (no FMA,
            # no FTZ); the only legal divergence left is reduction
            # combine order, which min/max make order-independent
            g, c = records[0], records[1]
            if (g.ok and c.ok and f.n_reductions == 0
                    and f.n_nondet_schedules == 0):
                assert values_equal(g.comp, c.comp), (name, p.name,
                                                      g.comp, c.comp)
            executed += 1
            if executed >= 10:
                break
        assert executed > 0, f"no {name} programs executed"


@pytest.mark.skipif(not gcc_native.available(), reason="no g++ on PATH")
class TestNativeConformance:
    def _sample(self, family_sweep, k: int):
        name, programs, features = family_sweep
        feat = FAMILIES[name][1]
        hits = [p for p, f in zip(programs, features)
                if getattr(f, feat) > 0]
        if os.environ.get("REPRO_FULL_NATIVE"):
            return name, hits
        return name, hits[:k]

    def test_emitted_cpp_compiles(self, family_sweep, tmp_path):
        """The generated C++ of every family is real OpenMP that g++
        accepts (stratified sample by default, everything under
        REPRO_FULL_NATIVE=1)."""
        name, sample = self._sample(family_sweep, 3)
        assert sample, f"no {name} programs to compile"
        for p in sample:
            binary = gcc_native.compile_native(p, opt_level="-O1",
                                               workdir=tmp_path / p.name)
            assert binary.path.exists()

    def test_sim_native_agreement_on_race_free(self, family_sweep):
        """For race-free schedule-independent programs of this family the
        pure-Python simulation and a real g++/libgomp run print the
        identical value.

        ``atomic`` and ``min``/``max`` reduction values are legitimately
        interleaving-dependent in a real runtime (RMW order, combine
        order with NaNs) — those two families have no exact-agreement
        candidates *by design* and are skipped explicitly.
        """
        name = family_sweep[0]
        if name in ("atomic", "minmax_reduction"):
            pytest.skip(f"{name}: native output is interleaving-dependent "
                        f"by design; covered by the simulated-vendor "
                        f"agreement test instead")
        # strip every interleaving-dependent feature that is not the
        # family under test, so candidates are common in a short window
        cfg = dataclasses.replace(
            _family_cfg(name), critical_probability=0.0,
            atomic_probability=0.0, reduction_probability=0.0,
            math_func_probability=0.0, fp_double_probability=1.0)
        gen = ProgramGenerator(cfg, seed=_SEED + 7)
        inputs = InputGenerator(cfg, seed=_SEED + 8)
        machine = MachineConfig()
        feat = FAMILIES[name][1]
        checked = 0
        for i in range(120):
            p = gen.generate(i)
            f = extract_features(p)
            if getattr(f, feat) == 0 or not _schedule_independent(f):
                continue
            assert not find_races(p)
            inp = inputs.generate(p, 0)
            sim = run_binary(compile_binary(p, CLANG, "-O1"), inp, machine)
            native = gcc_native.compile_and_run(p, inp, opt_level="-O1",
                                                fp_contract="off",
                                                num_threads=None)
            assert native.status is RunStatus.OK, (name, p.name,
                                                   native.detail)
            assert sim.ok, (name, p.name)
            assert values_equal(sim.comp, native.comp), (
                name, p.name, sim.comp, native.comp)
            checked += 1
            if checked >= 3:
                break
        assert checked > 0, f"no schedule-independent {name} candidates"


def _schedule_independent(f: ProgramFeatures) -> bool:
    """Is the printed value independent of runtime thread interleaving?

    Reductions (libgomp combine order), criticals and atomics
    (interleaving-dependent FP rounding), and dynamic/guided schedules
    (first-come chunk hand-out) all make native output vary run to run;
    math calls differ between libm and Python by ulps; float programs
    round differently through printf.  Everything else — including
    static schedules, collapse, singles, and barriers — is exact.
    """
    return (f.n_reductions == 0 and f.n_critical == 0 and f.n_atomic == 0
            and f.n_nondet_schedules == 0 and f.n_math_calls == 0
            and f.uses_double)


class TestWorkshareGraphCampaign:
    """The `tasks` mix end-to-end through the campaign surface: every
    engine, checkpoint/resume, and the kernel cache."""

    def _cfg(self, **kw):
        from repro.config import CampaignConfig

        boosted = dataclasses.replace(_BASE, sections_probability=0.9,
                                      task_probability=0.9)
        return CampaignConfig(n_programs=6, inputs_per_program=2, seed=4242,
                              directive_mix="tasks", generator=boosted, **kw)

    def _sweep_program(self):
        gen = ProgramGenerator(self._cfg().generator, seed=4242)
        for i in range(30):
            p = gen.generate(i)
            f = extract_features(p)
            if f.n_sections > 0 and f.n_tasks > 0:
                return p
        raise AssertionError("no sections+tasks program in 30 draws")

    def test_mix_opens_the_graph_families(self):
        cfg = self._cfg()
        assert cfg.generator.enable_sections and cfg.generator.enable_tasks
        gen = ProgramGenerator(cfg.generator, seed=cfg.seed)
        feats = [extract_features(gen.generate(i)) for i in range(12)]
        assert any(f.n_sections for f in feats)
        assert any(f.n_tasks for f in feats)

    def test_serial_and_pooled_engines_agree(self):
        from repro.harness.session import CampaignSession

        serial = CampaignSession(self._cfg(), engine="serial").run()
        pooled = CampaignSession(self._cfg(), engine="process", jobs=2).run()
        assert sorted(v.identity() for v in serial.verdicts) == \
            sorted(v.identity() for v in pooled.verdicts)
        # the grid really ran on all three simulated vendors
        vendors = {r.vendor for v in serial.verdicts for r in v.records}
        assert vendors == {"gcc", "clang", "intel"}

    def test_tasks_mix_checkpoint_resume_round_trip(self, tmp_path):
        from repro.harness.session import CampaignSession

        baseline = CampaignSession(self._cfg(), engine="serial").run()
        session = CampaignSession(self._cfg(), engine="serial")
        it = session.stream()
        for _ in range(session.total_tests // 2):
            next(it)
        it.close()
        path = tmp_path / "tasks.jsonl"
        session.checkpoint(path)

        resumed = CampaignSession.resume(path, engine="process", jobs=2)
        assert 0 < resumed.completed_tests < resumed.total_tests
        assert resumed.config.directive_mix == "tasks"
        assert resumed.config.generator.enable_sections
        result = resumed.run()
        assert sorted(v.identity() for v in result.verdicts) == \
            sorted(v.identity() for v in baseline.verdicts)

    def test_kernel_cache_hit_on_repeated_lowering(self):
        from repro.sim.kcache import get_kernel_cache

        p = self._sweep_program()
        cache = get_kernel_cache()
        b1 = compile_binary(p, GCC, "-O1")
        before = cache.stats()
        b2 = compile_binary(p, GCC, "-O1")
        after = cache.stats()
        assert b2.kernel is b1.kernel  # the bound kernel itself is reused
        assert after.kernel_hits == before.kernel_hits + 1
        # same-shape vendors share one structural kernel
        b3 = compile_binary(p, CLANG, "-O1")
        assert b3.kernel.structural is b1.kernel.structural


class TestAcceptanceSweep:
    def test_500_programs_span_all_families_and_conform(self):
        """The acceptance bar in one number: across the family sweeps,
        >= 500 distinct seeded programs all pass check_conformance and the
        race oracle, and every family appears."""
        total = 0
        family_seen: dict[str, int] = {}
        for name in sorted(FAMILIES):
            gen = ProgramGenerator(_family_cfg(name), seed=_SEED)
            feat = FAMILIES[name][1]
            for i in range(_PER_FAMILY):
                p = gen.generate(i)
                check_conformance(p)
                assert not find_races(p)
                f = extract_features(p)
                if getattr(f, feat) > 0:
                    family_seen[name] = family_seen.get(name, 0) + 1
                total += 1
        assert total >= 500
        assert set(family_seen) == set(FAMILIES), family_seen
