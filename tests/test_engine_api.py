"""Tests for the session/engine API: backend registry, execution engines,
streaming, and checkpoint/resume."""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import BrokenExecutor

import pytest

from repro.backends import (
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.backends.registry import SimulatedBackend
from repro.config import CampaignConfig, ConfigError, GeneratorConfig
from repro.driver.engine import (
    ExecutionPlan,
    ProcessPoolEngine,
    SerialEngine,
    WorkUnit,
    create_engine,
    execute_unit,
    plan_units,
)
from repro.driver.records import RunRecord, RunStatus
from repro.errors import UnknownBackendError
from repro.harness import CampaignSession
from repro.sim.counters import PerfCounters
from repro.vendors import GCC


def verdict_key(verdicts):
    """Order-independent identity of a verdict set (and its records)."""
    return sorted(v.identity() for v in verdicts)


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_paper_vendors_preregistered(self):
        assert {"gcc", "clang", "intel"} <= set(registered_backends())
        assert "gcc-native" in registered_backends()

    def test_simulated_backends_always_available(self):
        assert {"gcc", "clang", "intel"} <= set(available_backends())

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(UnknownBackendError, match="no-such-backend"):
            get_backend("no-such-backend")

    def test_register_lookup_unregister(self):
        b = register_backend(_Renamed(SimulatedBackend(GCC), "my-gcc"))
        try:
            assert get_backend("my-gcc") is b
            assert "my-gcc" in registered_backends()
        finally:
            unregister_backend("my-gcc")
        assert "my-gcc" not in registered_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend(_Renamed(SimulatedBackend(GCC), "gcc"))

    def test_duplicate_registration_with_replace(self):
        original = get_backend("gcc")
        try:
            replacement = register_backend(
                _Renamed(SimulatedBackend(GCC), "gcc"), replace=True)
            assert get_backend("gcc") is replacement
        finally:
            register_backend(original, replace=True)

    def test_backend_contract_round_trip(self, program_stream, input_gen,
                                         machine):
        """compile/execute through the registry matches the legacy path."""
        from repro.driver.execution import run_binary
        from repro.vendors.toolchain import compile_binary

        program = program_stream[0]
        test_input = input_gen.generate(program, 0)
        backend = get_backend("gcc")
        exe = backend.compile(program, "-O2")
        got = backend.execute(exe, test_input, machine)
        want = run_binary(compile_binary(program, GCC, "-O2"),
                          test_input, machine)
        assert (got.status, repr(got.comp), got.time_us) == \
            (want.status, repr(want.comp), want.time_us)


class _Renamed:
    """Wrap a backend under a different registry name."""

    def __init__(self, inner, name):
        self._inner = inner
        self.name = name

    def is_available(self):
        return self._inner.is_available()

    def compile(self, program, opt_level="-O3"):
        return self._inner.compile(program, opt_level)

    def execute(self, executable, test_input, machine=None, *,
                collect_profile=False):
        return self._inner.execute(executable, test_input, machine,
                                   collect_profile=collect_profile)


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

class TestEngines:
    def test_factory_names(self):
        from repro.fleet.coordinator import FleetEngine

        assert isinstance(create_engine("serial"), SerialEngine)
        assert isinstance(create_engine("process", 2), ProcessPoolEngine)
        assert isinstance(create_engine("fleet", 2), FleetEngine)
        with pytest.raises(ConfigError):
            create_engine("quantum")

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            CampaignConfig(engine="quantum")
        with pytest.raises(ConfigError):
            CampaignConfig(jobs=0)

    def test_plan_units_covers_grid(self, fast_campaign_cfg):
        units = plan_units(fast_campaign_cfg)
        assert len(units) == fast_campaign_cfg.n_programs
        assert all(u.n_tests == fast_campaign_cfg.inputs_per_program
                   for u in units)

    def test_execute_unit_is_pure(self, fast_campaign_cfg):
        plan = ExecutionPlan(config=fast_campaign_cfg)
        unit = WorkUnit(0, (0, 1))
        a, b = execute_unit(plan, unit), execute_unit(plan, unit)
        assert verdict_key(a.verdicts) == verdict_key(b.verdicts)
        assert a.program_name == b.program_name

    @pytest.mark.parametrize("engine,jobs", [("serial", None),
                                             ("process", 2),
                                             ("fleet", 2)])
    def test_engine_equivalence(self, fast_campaign_cfg, engine, jobs,
                                small_serial_result):
        result = CampaignSession(fast_campaign_cfg, engine=engine,
                                 jobs=jobs).run()
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)
        assert result.race_filtered == small_serial_result.race_filtered
        assert set(result.features) == set(small_serial_result.features)

    def test_run_order_is_deterministic_for_pooled_engines(
            self, fast_campaign_cfg, small_serial_result):
        result = CampaignSession(fast_campaign_cfg, engine="process",
                                 jobs=2).run()
        # run() (unlike stream()) re-orders by program then input
        assert [(v.program_name, v.input_index) for v in result.verdicts] == \
            [(v.program_name, v.input_index)
             for v in small_serial_result.verdicts]

    def test_jobs_implies_process_engine(self, fast_campaign_cfg):
        # jobs without an engine means "go parallel"...
        assert isinstance(CampaignSession(fast_campaign_cfg, jobs=2).engine,
                          ProcessPoolEngine)
        # ...and contradicting it with an explicit serial request errors
        with pytest.raises(ConfigError, match="pooled"):
            CampaignSession(fast_campaign_cfg, engine="serial", jobs=2)
        # an engine instance carries its own worker count: jobs conflicts
        with pytest.raises(ConfigError, match="jobs"):
            CampaignSession(fast_campaign_cfg, engine=ProcessPoolEngine(2),
                            jobs=4)
        # config.jobs only sizes pooled engines; it never conflicts with
        # serial — neither from the config nor when downgrading a pooled
        # checkpoint to a serial finish
        import dataclasses
        cfg = dataclasses.replace(fast_campaign_cfg, engine="serial", jobs=4)
        assert isinstance(CampaignSession(cfg).engine, SerialEngine)
        cfg = dataclasses.replace(fast_campaign_cfg, engine="process", jobs=2)
        assert isinstance(CampaignSession(cfg, engine="serial").engine,
                          SerialEngine)

    def test_progress_fires_per_test_in_parallel(self, fast_campaign_cfg):
        seen = []
        CampaignSession(fast_campaign_cfg, engine="process", jobs=2).run(
            progress=lambda d, t: seen.append((d, t)))
        n = fast_campaign_cfg.n_programs * fast_campaign_cfg.inputs_per_program
        assert seen == [(i + 1, n) for i in range(n)]


@pytest.fixture(scope="module")
def small_serial_result(fast_campaign_cfg):
    return CampaignSession(fast_campaign_cfg, engine="serial").run()


@pytest.fixture(scope="module")
def race_cfg():
    """Limitation-reproducing config whose grid contains racy programs."""
    gen = GeneratorConfig(allow_data_races=True, max_total_iterations=3_000,
                          loop_trip_max=50, num_threads=8)
    return CampaignConfig(n_programs=25, inputs_per_program=1,
                          seed=20240915, generator=gen)


@pytest.fixture(scope="module")
def race_full(race_cfg):
    return CampaignSession(race_cfg).run()


# ----------------------------------------------------------------------
# session streaming + checkpoint/resume
# ----------------------------------------------------------------------

class TestSession:
    def test_stream_yields_every_verdict(self, fast_campaign_cfg,
                                         small_serial_result):
        session = CampaignSession(fast_campaign_cfg, engine="process", jobs=2)
        streamed = list(session.stream())
        assert verdict_key(streamed) == \
            verdict_key(small_serial_result.verdicts)
        assert session.done
        # a drained session streams nothing more, runs nothing more
        assert list(session.stream()) == []

    def test_checkpoint_resume_round_trip_midway(self, fast_campaign_cfg,
                                                 small_serial_result,
                                                 tmp_path):
        session = CampaignSession(fast_campaign_cfg, engine="serial")
        half = (fast_campaign_cfg.n_programs *
                fast_campaign_cfg.inputs_per_program) // 2
        it = session.stream()
        for _ in range(half):
            next(it)
        it.close()  # interrupt mid-campaign
        path = tmp_path / "ckpt.jsonl"
        session.checkpoint(path)

        resumed = CampaignSession.resume(path, engine="process", jobs=2)
        assert 0 < resumed.completed_tests < resumed.total_tests
        result = resumed.run()
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)
        assert result.race_filtered == small_serial_result.race_filtered

    def test_checkpoint_of_complete_session(self, fast_campaign_cfg,
                                            small_serial_result, tmp_path):
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "done.jsonl"
        n = session.checkpoint(path)
        assert n == fast_campaign_cfg.n_programs
        resumed = CampaignSession.resume(path)
        assert resumed.done
        assert verdict_key(resumed.run().verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_checkpoint_is_jsonl_with_header(self, fast_campaign_cfg,
                                             tmp_path):
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "c.jsonl"
        session.checkpoint(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["config"]["n_programs"] == \
            fast_campaign_cfg.n_programs
        assert all(row["kind"] == "unit" for row in lines[1:])

    def test_checkpoint_persists_effective_engine(self, fast_campaign_cfg,
                                                  tmp_path):
        session = CampaignSession(fast_campaign_cfg, engine="process", jobs=2)
        it = session.stream()
        next(it)
        it.close()
        path = tmp_path / "eng.jsonl"
        session.checkpoint(path)
        # a bare resume continues the way the campaign was running
        resumed = CampaignSession.resume(path)
        assert isinstance(resumed.engine, ProcessPoolEngine)
        assert resumed.engine.jobs == 2

    def test_checkpoint_naming_thread_engine_rejected(self, fast_campaign_cfg,
                                                      tmp_path):
        """The thread engine is gone: a checkpoint that still names it
        fails to load, saying which engines remain."""
        session = CampaignSession(fast_campaign_cfg)
        path = tmp_path / "thread.jsonl"
        session.checkpoint(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"]["engine"] = "thread"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ConfigError, match="unknown engine 'thread'; "
                           "choose from serial, process, fleet"):
            CampaignSession.resume(path)

    def test_concurrent_streams_rejected(self, fast_campaign_cfg):
        session = CampaignSession(fast_campaign_cfg)
        it = session.stream()
        next(it)
        with pytest.raises(ConfigError, match="already running"):
            next(session.stream())
        it.close()
        # after teardown a fresh stream is allowed again
        assert list(session.stream()) is not None

    def test_interrupt_salvages_in_flight_units(self, fast_campaign_cfg):
        session = CampaignSession(fast_campaign_cfg, engine="process", jobs=2)
        it = session.stream()
        next(it)
        it.close()  # pool shutdown waits for in-flight units...
        # ...and everything that finished during teardown is kept
        assert session.completed_tests >= fast_campaign_cfg.inputs_per_program
        assert all(len(o.verdicts) == fast_campaign_cfg.inputs_per_program
                   for o in session._outcomes.values())

    def test_incremental_checkpoint_writer(self, fast_campaign_cfg,
                                           small_serial_result, tmp_path):
        session = CampaignSession(fast_campaign_cfg)
        path = tmp_path / "inc.jsonl"
        writer = session.open_checkpoint(path)
        seen = 0
        for _ in session.stream():
            seen += 1
            if seen % 3 == 0:
                writer.update()
        writer.update()
        assert writer.update() == 0  # idempotent when nothing is new
        # appended form resumes identically to a full snapshot
        resumed = CampaignSession.resume(path)
        assert resumed.done
        assert verdict_key(resumed.result().verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_resume_drops_torn_trailing_line(self, fast_campaign_cfg,
                                             small_serial_result, tmp_path):
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "torn.jsonl"
        session.checkpoint(path)
        with path.open("a") as fh:
            fh.write('{"kind": "unit", "program_index": 99, "trunca')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = CampaignSession.resume(path)  # hard-kill mid-append
        assert verdict_key(resumed.run().verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_resume_survives_byte_truncation(self, fast_campaign_cfg,
                                             small_serial_result, tmp_path):
        """A power-cut mid-append leaves a half-written final row; resume
        drops it with a warning and re-runs that unit."""
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "cut.jsonl"
        session.checkpoint(path)
        path.write_bytes(path.read_bytes()[:-20])

        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = CampaignSession.resume(path)
        assert resumed.completed_tests < resumed.total_tests

        # re-checkpointing produces a clean file that resumes silently
        clean_path = tmp_path / "clean.jsonl"
        resumed.checkpoint(clean_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = CampaignSession.resume(clean_path)
        assert verdict_key(clean.run().verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_resume_drops_malformed_final_row(self, fast_campaign_cfg,
                                              small_serial_result, tmp_path):
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "badrow.jsonl"
        session.checkpoint(path)
        with path.open("a") as fh:  # parses as JSON but fails to decode
            fh.write('{"kind": "unit", "program_index": 99}\n')
        with pytest.warns(RuntimeWarning, match="malformed final row"):
            resumed = CampaignSession.resume(path)
        assert verdict_key(resumed.run().verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_resume_rejects_malformed_middle_row(self, fast_campaign_cfg,
                                                 tmp_path):
        """Corruption anywhere but the tail is not crash debris — refuse."""
        session = CampaignSession(fast_campaign_cfg)
        session.run()
        path = tmp_path / "mid.jsonl"
        session.checkpoint(path)
        lines = path.read_text().splitlines()
        lines.insert(2, '{"kind": "unit", "program_index": 99}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="bad unit row"):
            CampaignSession.resume(path)

    def test_resume_rejects_bad_files(self, tmp_path):
        with pytest.raises(ConfigError):
            CampaignSession.resume(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "unit"}\n')
        with pytest.raises(ConfigError, match="header"):
            CampaignSession.resume(bad)

    def test_race_filtered_units_survive_resume(self, race_cfg, race_full,
                                                tmp_path):
        assert race_full.race_filtered  # the Section III-E limitation fires

        session = CampaignSession(race_cfg)
        it = session.stream()
        for _ in range(len(race_full.verdicts) // 2):
            next(it)
        it.close()
        path = tmp_path / "races.jsonl"
        session.checkpoint(path)
        result = CampaignSession.resume(path).run()
        assert result.race_filtered == race_full.race_filtered
        assert verdict_key(result.verdicts) == verdict_key(race_full.verdicts)


# ----------------------------------------------------------------------
# record row round-trip (the checkpoint's foundation)
# ----------------------------------------------------------------------

class TestRecordRows:
    def test_row_round_trip_exact(self):
        rec = RunRecord("t", "gcc", 1, RunStatus.OK, 1.0000000000000002e-308,
                        1234.56789012345,
                        counters=PerfCounters(cycles=7, branches=3),
                        detail="d", thread_states={"spin": [1, 2]})
        back = RunRecord.from_row(json.loads(json.dumps(rec.to_row())))
        assert repr(back.comp) == repr(rec.comp)
        assert back.time_us == rec.time_us
        assert back.counters == rec.counters
        assert back.thread_states == rec.thread_states
        assert back.status is rec.status

    def test_row_round_trip_nan_and_none(self):
        nan = RunRecord("t", "gcc", 0, RunStatus.OK, float("nan"), 1.0)
        back = RunRecord.from_row(json.loads(json.dumps(nan.to_row())))
        assert back.comp != back.comp  # NaN survives
        crash = RunRecord("t", "gcc", 0, RunStatus.CRASH, None, 0.0)
        back = RunRecord.from_row(json.loads(json.dumps(crash.to_row())))
        assert back.comp is None and back.status is RunStatus.CRASH


class TestChunkedDispatch:
    """Chunked pooled dispatch: batching must be invisible in results."""

    def test_resolve_chunk_size_auto_and_explicit(self, fast_campaign_cfg):
        import dataclasses

        from repro.driver.engine import resolve_chunk_size

        cfg = fast_campaign_cfg
        assert resolve_chunk_size(cfg, 8, jobs=8) == 1  # fits the pool
        assert resolve_chunk_size(cfg, 200, jobs=4) == 13  # ~4 per worker
        assert resolve_chunk_size(cfg, 10_000, jobs=2) == 16  # capped
        explicit = dataclasses.replace(cfg, chunk_size=5)
        assert resolve_chunk_size(explicit, 10_000, jobs=2) == 5

    def test_chunk_size_validation(self, fast_campaign_cfg):
        import dataclasses

        with pytest.raises(ConfigError, match="chunk_size"):
            dataclasses.replace(fast_campaign_cfg, chunk_size=0)

    @pytest.mark.parametrize("engine", ["process"])
    def test_chunked_verdicts_identical_to_serial(self, fast_campaign_cfg,
                                                  small_serial_result,
                                                  engine):
        import dataclasses

        cfg = dataclasses.replace(fast_campaign_cfg, chunk_size=3)
        result = CampaignSession(cfg, engine=engine, jobs=2).run()
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_mid_chunk_resume_equivalence(self, fast_campaign_cfg,
                                          small_serial_result, tmp_path):
        """Interrupting a chunked process run mid-grid and resuming must
        reproduce the uninterrupted result exactly (the checkpoint
        persists whole units, never partial chunks)."""
        import dataclasses

        cfg = dataclasses.replace(fast_campaign_cfg, chunk_size=3)
        session = CampaignSession(cfg, engine="process", jobs=2)
        seen = 0
        for _ in session.stream():
            seen += 1
            if seen >= 5:  # abandon mid-grid, mid-chunk
                break
        path = tmp_path / "midchunk.jsonl"
        session.checkpoint(path)

        resumed = CampaignSession.resume(path)
        assert 0 < resumed.completed_tests <= resumed.total_tests
        result = resumed.run()
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_salvaged_chunk_outcomes_checkpointable(self, fast_campaign_cfg,
                                                    tmp_path):
        import dataclasses

        cfg = dataclasses.replace(fast_campaign_cfg, chunk_size=4)
        session = CampaignSession(cfg, engine="process", jobs=2)
        stream = session.stream()
        next(stream)
        stream.close()  # interrupt: in-flight chunks are salvaged whole
        path = tmp_path / "salvaged.jsonl"
        session.checkpoint(path)
        resumed = CampaignSession.resume(path)
        assert resumed.completed_tests >= fast_campaign_cfg.inputs_per_program


def _double_or_die_once(item):
    """First call anywhere in the pool hard-kills its worker; later calls
    (sentinel present) succeed.  Module-level so process pools can pickle."""
    value, sentinel = item
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return value * 2


def _always_die(_value):
    os._exit(1)


class TestMapUnorderedWorkerDeath:
    def test_chunk_retried_once_after_worker_death(self, tmp_path):
        engine = ProcessPoolEngine(2)
        sentinel = str(tmp_path / "died-once")
        items = [(i, sentinel) for i in range(8)]
        got = sorted(engine.map_unordered(_double_or_die_once, items))
        assert got == [i * 2 for i in range(8)]

    def test_persistent_worker_death_raises(self):
        engine = ProcessPoolEngine(2)
        with pytest.raises(BrokenExecutor):
            list(engine.map_unordered(_always_die, list(range(4))))

    def test_progress_counts_retried_items_once(self, tmp_path):
        engine = ProcessPoolEngine(2)
        sentinel = str(tmp_path / "died-counting")
        items = [(i, sentinel) for i in range(6)]
        seen = []
        list(engine.map_unordered(_double_or_die_once, items,
                                  progress=lambda d, t: seen.append((d, t))))
        assert seen[-1] == (6, 6)
        assert [d for d, _ in seen] == list(range(1, 7))


class _DiesOnFirstCompile(_Renamed):
    """gcc under another name: the first compile anywhere hard-kills its
    worker process; later compiles (sentinel present) delegate."""

    def __init__(self, sentinel):
        super().__init__(SimulatedBackend(GCC), "gcc-dies-once")
        self.sentinel = sentinel

    def compile(self, program, opt_level="-O3"):
        if not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            os._exit(1)
        return super().compile(program, opt_level)


class TestCampaignWorkerDeath:
    def test_campaign_chunk_retried_once_after_worker_death(
            self, fast_campaign_cfg, small_serial_result, tmp_path):
        import dataclasses

        sentinel = str(tmp_path / "died-compiling")
        register_backend(_DiesOnFirstCompile(sentinel))
        try:
            cfg = dataclasses.replace(
                fast_campaign_cfg,
                compilers=("gcc-dies-once", "clang", "intel"))
            result = CampaignSession(cfg, engine="process", jobs=2).run()
        finally:
            unregister_backend("gcc-dies-once")
        assert os.path.exists(sentinel)  # a worker really died
        # the wrapped binaries still report "gcc", so the retried campaign
        # must equal the plain serial one exactly
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)
        assert result.race_filtered == small_serial_result.race_filtered


class TestProgressThrottling:
    def test_progress_none_runs_clean(self, fast_campaign_cfg,
                                      small_serial_result):
        result = CampaignSession(fast_campaign_cfg).run(progress=None)
        assert verdict_key(result.verdicts) == \
            verdict_key(small_serial_result.verdicts)

    def test_progress_every_throttles_firing_count(self, fast_campaign_cfg):
        per_test, throttled = [], []
        CampaignSession(fast_campaign_cfg).run(
            progress=lambda d, t: per_test.append((d, t)))
        CampaignSession(fast_campaign_cfg).run(
            progress=lambda d, t: throttled.append((d, t)),
            progress_every=6)
        n = (fast_campaign_cfg.n_programs *
             fast_campaign_cfg.inputs_per_program)
        assert len(per_test) == n
        assert len(throttled) < len(per_test)
        # monotone, and the final total always reports
        assert [d for d, _ in throttled] == sorted(d for d, _ in throttled)
        assert throttled[-1] == (n, n)

    def test_progress_every_on_pooled_engine(self, fast_campaign_cfg):
        seen = []
        CampaignSession(fast_campaign_cfg, engine="process", jobs=2).run(
            progress=lambda d, t: seen.append((d, t)), progress_every=4)
        n = (fast_campaign_cfg.n_programs *
             fast_campaign_cfg.inputs_per_program)
        assert seen and seen[-1] == (n, n)
        assert len(seen) <= -(-n // 4) + 1

    def test_mid_chunk_interrupt_salvages_rest_of_chunk(
            self, fast_campaign_cfg):
        """Closing the stream between two yields of one chunk must hand
        the chunk's remaining completed outcomes to the salvage hook —
        they are finished work."""
        import dataclasses

        cfg = dataclasses.replace(fast_campaign_cfg, chunk_size=4)
        plan = ExecutionPlan(config=cfg)
        units = plan_units(cfg)
        salvaged = []
        engine = ProcessPoolEngine(1)  # one worker: chunks complete whole
        stream = engine.run(plan, units, salvage=salvaged.append)
        first = next(stream)
        stream.close()
        salvaged_idx = {o.program_index for o in salvaged}
        assert first.program_index not in salvaged_idx
        # the first chunk had 4 units; the 3 unyielded ones must survive
        assert {1, 2, 3} <= salvaged_idx
