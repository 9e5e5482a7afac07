"""Triage layer tests: bucketing, bundles, session.triage, engines, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.buckets import (
    BugBucket,
    bug_signature,
    build_buckets,
    directive_vector,
)
from repro.analysis.outliers import OutlierKind
from repro.backends import (
    FaultInjectedBackend,
    InjectedFault,
    register_fault_backend,
)
from repro.config import CampaignConfig, GeneratorConfig
from repro.core.features import ProgramFeatures
from repro.errors import ConfigError
from repro.harness.session import CampaignSession

#: the injected vendor bug every end-to-end test here revolves around
register_fault_backend("intel", InjectedFault(kind="crash",
                                              trigger="n_atomic"),
                       name="triage-buggy", replace=True)


@pytest.fixture(scope="module")
def triage_cfg() -> CampaignConfig:
    gen = GeneratorConfig(max_total_iterations=1500, loop_trip_max=30,
                          num_threads=8)
    return CampaignConfig(n_programs=10, inputs_per_program=1, seed=4242,
                          generator=gen, directive_mix="sync",
                          compilers=("gcc", "clang", "triage-buggy"))


@pytest.fixture(scope="module")
def triaged_session(triage_cfg):
    session = CampaignSession(triage_cfg)
    session.run()
    report = session.triage()
    return session, report


# ----------------------------------------------------------------------
# fault-injected backends
# ----------------------------------------------------------------------

class TestFaultBackend:
    def test_trigger_validation(self):
        with pytest.raises(ConfigError):
            InjectedFault(kind="crash", trigger="not_a_feature")
        with pytest.raises(ConfigError):
            InjectedFault(kind="meltdown", trigger="n_atomic")
        with pytest.raises(ConfigError):
            InjectedFault(kind="slow", trigger="n_atomic", factor=0.0)

    def test_untriggered_program_runs_clean(self, program_stream, input_gen):
        from repro.backends.registry import get_backend

        backend = get_backend("triage-buggy")
        for program in program_stream:
            from repro.core.features import extract_features

            if extract_features(program).n_atomic:
                continue
            exe = backend.compile(program)
            rec = backend.execute(exe, input_gen.generate(program, 0))
            assert rec.ok
            assert rec.vendor == "triage-buggy"
            return
        pytest.skip("stream has no atomic-free program")

    def test_slow_fault_scales_time(self, program_stream, input_gen):
        from repro.backends.registry import get_backend, unregister_backend

        backend = register_fault_backend(
            "intel", InjectedFault(kind="slow", trigger="n_parallel_regions",
                                   factor=3.0),
            name="triage-slow", replace=True)
        try:
            program = program_stream[0]
            inner = get_backend("intel")
            tin = input_gen.generate(program, 0)
            base = inner.execute(inner.compile(program), tin)
            rec = backend.execute(backend.compile(program), tin)
            from repro.core.features import extract_features

            if extract_features(program).n_parallel_regions and base.ok:
                assert rec.time_us == pytest.approx(base.time_us * 3.0)
        finally:
            unregister_backend("triage-slow")


# ----------------------------------------------------------------------
# signatures and buckets
# ----------------------------------------------------------------------

class TestBuckets:
    def test_directive_vector_presence_only(self):
        f = ProgramFeatures(n_atomic=3, n_parallel_regions=1)
        assert directive_vector(f) == ("parallel", "atomic")
        assert directive_vector(ProgramFeatures()) == ()

    def test_bug_signature_format(self):
        f = ProgramFeatures(n_atomic=1, n_parallel_regions=2, n_omp_for=1)
        sig = bug_signature(OutlierKind.CRASH, "gcc", f)
        assert sig == "crash|gcc|parallel+for+atomic"
        assert bug_signature(OutlierKind.HANG, "x", ProgramFeatures()) \
            == "hang|x|serial"

    def test_build_buckets_groups_and_orders(self):
        entries = [("a|x|p", 1), ("b|y|q", 2), ("a|x|p", 3), ("a|x|p", 4)]
        buckets = build_buckets(entries)
        assert [b.signature for b in buckets] == ["a|x|p", "b|y|q"]
        assert buckets[0].members == [1, 3, 4]
        assert len(buckets[0]) == 3

    def test_exemplar_is_smallest(self):
        entries = [("s|v|c", "big"), ("s|v|c", "sm"), ("s|v|c", "mid")]
        [bucket] = build_buckets(entries, size_of=len)
        assert bucket.exemplar == "sm"

    def test_bucket_signature_parts(self):
        b = BugBucket(signature="crash|gcc|parallel+atomic", members=[1])
        assert b.kind == "crash"
        assert b.vendor == "gcc"
        assert b.vector == "parallel+atomic"


# ----------------------------------------------------------------------
# session triage end-to-end
# ----------------------------------------------------------------------

class TestSessionTriage:
    def test_campaign_produced_injected_outliers(self, triaged_session):
        session, report = triaged_session
        coords = session.outlier_coordinates()
        assert any(vendor == "triage-buggy" and kind == "crash"
                   for _pi, _ii, vendor, kind in coords)
        assert report.n_outliers == len(coords)

    def test_injected_fault_forms_one_bucket(self, triaged_session):
        _session, report = triaged_session
        crash_buckets = [b for b in report.buckets
                         if b.vendor == "triage-buggy" and b.kind == "crash"]
        assert len(crash_buckets) == 1
        bucket = crash_buckets[0]
        ex = bucket.exemplar
        assert ex.result.confirmed
        assert ex.result.reduced_statements < ex.result.original_statements

    def test_report_is_deterministic_and_ordered(self, triaged_session):
        session, report = triaged_session
        keys = [t.sort_key() for t in report.triaged]
        assert keys == sorted(keys)
        again = session.triage()
        assert [t.sort_key() for t in again.triaged] == keys
        assert [b.signature for b in again.buckets] == \
            [b.signature for b in report.buckets]

    def test_unconfirmed_outliers_are_not_bucketed(self, triaged_session):
        # a reduction that could not re-confirm its outlier has no
        # working reproducer: it must be reported but never bucketed
        import dataclasses

        from repro.reduce.triage import assemble_report

        _session, report = triaged_session
        real = report.buckets[0].exemplar
        ghost = dataclasses.replace(
            real, program_index=real.program_index + 1000,
            result=dataclasses.replace(real.result, confirmed=False))
        mixed = assemble_report(list(report.triaged) + [ghost])
        assert mixed.n_outliers == report.n_outliers + 1
        assert mixed.n_confirmed == report.n_confirmed
        assert all(ghost is not m for b in mixed.buckets
                   for m in b.members)
        assert mixed.unconfirmed() == [ghost]
        assert "unconfirmed (not bucketed)" in mixed.render()

    def test_render_mentions_buckets(self, triaged_session):
        _session, report = triaged_session
        text = report.render()
        assert "bug bucket" in text
        assert "exemplar:" in text

    def test_triage_progress_fires(self, triage_cfg):
        session = CampaignSession(triage_cfg)
        session.run()
        calls = []
        session.triage(progress=lambda done, total: calls.append((done,
                                                                  total)))
        n = len(session.outlier_coordinates())
        assert calls == [(i, n) for i in range(1, n + 1)]

    def test_process_engine_triage_agrees_with_serial(self, triage_cfg,
                                                      triaged_session):
        _session, serial_report = triaged_session
        session = CampaignSession(triage_cfg, engine="process", jobs=2)
        session.run()
        report = session.triage()
        assert [t.sort_key() for t in report.triaged] == \
            [t.sort_key() for t in serial_report.triaged]
        assert [(b.signature, len(b)) for b in report.buckets] == \
            [(b.signature, len(b)) for b in serial_report.buckets]


# ----------------------------------------------------------------------
# engine map_unordered
# ----------------------------------------------------------------------

class TestMapUnordered:
    @pytest.mark.parametrize("engine_name,jobs", [("serial", None),
                                                  ("process", 2),
                                                  ("fleet", 2)])
    def test_engines_agree(self, engine_name, jobs):
        from repro.driver.engine import create_engine

        items = [(i,) for i in range(9)]
        engine = create_engine(engine_name, jobs)
        results = sorted(engine.map_unordered(len, items))
        assert results == [1] * 9

    def test_progress_counts_every_item(self):
        from repro.driver.engine import create_engine

        calls = []
        engine = create_engine("process", 2)
        out = list(engine.map_unordered(
            len, ["ab", "c", "def"],
            progress=lambda d, t: calls.append((d, t))))
        assert sorted(out) == [1, 2, 3]
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_empty_and_bad_chunk(self):
        from repro.driver.engine import create_engine

        engine = create_engine("process", 2)
        assert list(engine.map_unordered(len, [])) == []
        # the pool's chunk size comes from the campaign config
        with pytest.raises(ConfigError, match="chunk_size"):
            CampaignConfig(chunk_size=0)


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------

class TestBundles:
    def test_write_bundle_contents(self, triaged_session, tmp_path):
        from repro.reduce.bundle import write_bundle

        session, report = triaged_session
        ex = report.buckets[0].exemplar
        out = write_bundle(tmp_path / "b", ex, session.config)
        names = {p.name for p in out.iterdir()}
        assert names == {"reduced.cpp", "original.cpp", "input.json",
                         "verdict.json", "config.json", "repro.sh",
                         "provenance.json"}
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["program_source"] == session.config.program_source
        assert provenance["spec"]["index"] == ex.program_index
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["expected"]["vendor"] == ex.vendor
        assert verdict["expected"]["kind"] == ex.kind.value
        assert verdict["signature"] == ex.signature
        assert verdict["reduced_statements"] <= \
            verdict["original_statements"]
        assert "records" in verdict["actual"]
        inp = json.loads((out / "input.json").read_text())
        assert len(inp["argv"]) == len(ex.result.reduced_program.params)
        script = (out / "repro.sh").read_text()
        assert "g++ -O3 -fopenmp reduced.cpp" in script
        assert "repro-omp reduce --config config.json" in script
        # the campaign used a runtime-registered backend: the script
        # must warn that re-deriving needs it registered first
        assert "runtime-registered backend(s) triage-buggy" in script
        assert "#pragma omp" in (out / "reduced.cpp").read_text()

    def test_write_triage_artifacts_layout(self, triaged_session, tmp_path):
        from repro.reduce.bundle import write_triage_artifacts

        session, report = triaged_session
        out = write_triage_artifacts(report, session.config, tmp_path / "t")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_outliers"] == report.n_outliers
        assert len(summary["buckets"]) == len(report.buckets)
        for row in summary["buckets"]:
            bucket_dir = out / row["directory"]
            assert (bucket_dir / "reduced.cpp").exists()
            assert (bucket_dir / "repro.sh").exists()
            assert row["n_tests"] == len(row["members"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def _write_config(self, cfg, tmp_path):
        from repro.config import save_campaign

        path = tmp_path / "cfg.json"
        save_campaign(cfg, path)
        return str(path)

    def test_campaign_save_outliers_and_triage(self, triage_cfg, tmp_path,
                                               capsys):
        from repro.cli import main

        cfg_path = self._write_config(triage_cfg, tmp_path)
        rc = main(["campaign", "--config", cfg_path, "--quiet",
                   "--save-outliers", str(tmp_path / "outliers"),
                   "--triage", str(tmp_path / "triage")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outlier test(s) saved to" in out
        assert "triage artifacts written to" in out
        dirs = list((tmp_path / "outliers").iterdir())
        assert dirs
        for d in dirs:
            assert (d / "source.cpp").exists()
            assert (d / "input.json").exists()
            assert (d / "verdict.json").exists()
        assert (tmp_path / "triage" / "summary.json").exists()

    def test_reduce_from_checkpoint(self, triage_cfg, tmp_path, capsys):
        from repro.cli import main

        cfg_path = self._write_config(triage_cfg, tmp_path)
        ckpt = tmp_path / "c.jsonl"
        assert main(["campaign", "--config", cfg_path, "--quiet",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        rc = main(["reduce", "--checkpoint", str(ckpt), "--quiet",
                   "--out", str(tmp_path / "red")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bug bucket" in out
        assert (tmp_path / "red" / "summary.json").exists()

    def test_reduce_inline_single_test(self, triage_cfg, tmp_path, capsys):
        from repro.cli import main

        session = CampaignSession(triage_cfg)
        session.run()
        pi, ii, vendor, _kind = next(
            c for c in session.outlier_coordinates()
            if c[2] == "triage-buggy")
        cfg_path = self._write_config(triage_cfg, tmp_path)
        rc = main(["reduce", "--config", cfg_path, "--index", str(pi),
                   "--input", str(ii), "--vendor", vendor, "--quiet"])
        assert rc == 0
        assert "bug bucket" in capsys.readouterr().out

    def test_reduce_inline_honors_config_engine(self, triage_cfg, tmp_path,
                                                monkeypatch):
        import dataclasses

        import repro.driver.engine as eng
        from repro.cli import main

        cfg = dataclasses.replace(triage_cfg, engine="process", jobs=2)
        cfg_path = self._write_config(cfg, tmp_path)
        seen = {}
        real = eng.create_engine

        def spy(name, jobs=None):
            seen["args"] = (name, jobs)
            return real(name, jobs)

        monkeypatch.setattr(eng, "create_engine", spy)
        assert main(["reduce", "--config", cfg_path, "--index", "8",
                     "--quiet"]) == 0
        # no CLI engine flags: the config file's engine/jobs must win
        assert seen["args"] == ("process", 2)

    def test_reduce_without_target_errors(self, capsys):
        from repro.cli import main

        assert main(["reduce"]) == 2
        assert "needs --checkpoint" in capsys.readouterr().err

    def test_reduce_no_matching_outliers(self, triage_cfg, tmp_path,
                                         capsys):
        from repro.cli import main

        cfg_path = self._write_config(triage_cfg, tmp_path)
        ckpt = tmp_path / "c2.jsonl"
        assert main(["campaign", "--config", cfg_path, "--quiet",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        rc = main(["reduce", "--checkpoint", str(ckpt), "--quiet",
                   "--vendor", "no-such-backend"])
        assert rc == 1
        assert "no matching outliers" in capsys.readouterr().out

    def test_reduce_kind_filter(self, triage_cfg, tmp_path, capsys):
        from repro.cli import main

        cfg_path = self._write_config(triage_cfg, tmp_path)
        ckpt = tmp_path / "c3.jsonl"
        assert main(["campaign", "--config", cfg_path, "--quiet",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        rc = main(["reduce", "--checkpoint", str(ckpt), "--quiet",
                   "--kind", "crash"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash" in out
