"""Integration tests: campaign runs, reports, result persistence."""

import json

import pytest

from repro.analysis.outliers import OutlierKind
from repro.config import CampaignConfig, GeneratorConfig
from repro.harness import (
    CampaignSession,
    differential_test_single,
    dump_campaign_artifacts,
    read_verdict_rows,
    render_campaign_summary,
    render_counters_table,
    render_table1,
    render_versions_table,
    write_verdicts,
)
from repro.sim.counters import PerfCounters
from repro.vendors import CLANG, GCC, INTEL


@pytest.fixture(scope="module")
def small_campaign(fast_campaign_cfg):
    return CampaignSession(fast_campaign_cfg).run()


class TestCampaignRunner:
    """A campaign run end to end through CampaignSession."""

    def test_grid_size(self, small_campaign, fast_campaign_cfg):
        cfg = fast_campaign_cfg
        assert len(small_campaign.verdicts) == \
            cfg.n_programs * cfg.inputs_per_program
        assert small_campaign.n_runs == cfg.total_runs

    def test_every_verdict_has_all_vendors(self, small_campaign,
                                           fast_campaign_cfg):
        for v in small_campaign.verdicts:
            assert {r.vendor for r in v.records} == \
                set(fast_campaign_cfg.compilers)

    def test_features_per_program(self, small_campaign, fast_campaign_cfg):
        assert len(small_campaign.features) == fast_campaign_cfg.n_programs

    def test_deterministic_across_runs(self, fast_campaign_cfg,
                                       small_campaign):
        again = CampaignSession(fast_campaign_cfg).run()
        a = [(v.program_name, v.input_index,
              sorted(str(o) for o in v.outliers),
              [repr(r.comp) for r in v.records])
             for v in small_campaign.verdicts]
        b = [(v.program_name, v.input_index,
              sorted(str(o) for o in v.outliers),
              [repr(r.comp) for r in v.records])
             for v in again.verdicts]
        assert a == b

    def test_progress_callback_per_test(self, fast_campaign_cfg):
        seen = []
        CampaignSession(fast_campaign_cfg).run(
            progress=lambda done, total: seen.append((done, total)))
        n_tests = (fast_campaign_cfg.n_programs *
                   fast_campaign_cfg.inputs_per_program)
        # fires once per differential test (program x input), monotonically
        assert seen == [(i + 1, n_tests) for i in range(n_tests)]

    def test_race_filtering_in_limitation_mode(self):
        gen = GeneratorConfig(allow_data_races=True,
                              max_total_iterations=3_000, loop_trip_max=50,
                              num_threads=8)
        cfg = CampaignConfig(n_programs=25, inputs_per_program=1,
                             seed=20240915, generator=gen)
        result = CampaignSession(cfg).run()
        # the Section III-E limitation produces races; the harness filters
        assert len(result.race_filtered) >= 1
        assert len(result.features) == 25 - len(result.race_filtered)


class TestSingleTest:
    def test_quickstart_shape(self):
        result = differential_test_single(seed=42)
        text = result.table()
        assert "gcc" in text and "clang" in text and "intel" in text
        assert "#pragma omp" in result.cpp_source
        assert len(result.records) == 3

    def test_package_level_entry(self):
        import repro

        result = repro.quick_differential_test(seed=7)
        assert len(result.records) == 3


class TestReports:
    def test_table1_rendering(self, small_campaign, fast_campaign_cfg):
        text = render_table1(small_campaign.table, fast_campaign_cfg.compilers)
        assert "Slow" in text and "Fast" in text
        assert "Gcc" in text and "Clang" in text and "Intel" in text

    def test_summary_rendering(self, small_campaign):
        text = render_campaign_summary(small_campaign.table)
        assert "outlier rate" in text
        assert "paper: 7.4%" in text

    def test_counters_table(self):
        text = render_counters_table("T", "Intel", PerfCounters(cycles=5),
                                     "GCC", PerfCounters(cycles=7))
        assert "cycles" in text and "Intel" in text

    def test_versions_table(self):
        text = render_versions_table([GCC, CLANG, INTEL])
        assert "GNU GCC" in text and "icpx" in text and "13.1" in text


class TestPersistence:
    def test_verdict_jsonl_roundtrip(self, small_campaign, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        n = write_verdicts(small_campaign.verdicts, path)
        rows = list(read_verdict_rows(path))
        assert len(rows) == n == len(small_campaign.verdicts)
        assert all("runs" in r and "outliers" in r for r in rows)
        # every run row is valid JSON with the seven counters
        first = rows[0]["runs"][0]
        assert set(first["counters"]) == set(PerfCounters.PERF_FIELDS)

    def test_dump_campaign_artifacts(self, small_campaign, tmp_path,
                                     fast_campaign_cfg):
        out = dump_campaign_artifacts(small_campaign, tmp_path / "ds")
        cpps = list((out / "tests").glob("*.cpp"))
        assert len(cpps) == fast_campaign_cfg.n_programs
        assert (out / "verdicts.jsonl").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["n_programs"] == fast_campaign_cfg.n_programs
        # sources are real OpenMP C++
        assert "#pragma omp" in cpps[0].read_text() or len(cpps) > 1
