"""Telemetry tests: registry algebra, spans, exposition, logging, the
status schema, the byte-identity gate, and fleet-wide reconciliation."""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os

import pytest

from repro import obs
from repro.config import CampaignConfig, campaign_to_json
from repro.fleet import ChaosPlan, ResultStore, run_chaos_campaign
from repro.fleet.store import campaign_key
from repro.fleet.supervisor import STATUS_SCHEMA
from repro.harness.session import CampaignSession
from repro.obs import metrics as m
from repro.obs.logsetup import LOG_FORMAT, log_context, resolve_level
from repro.obs.spans import _NULL, span

# identity literals every PR re-pins: telemetry must never move these
PINNED_DEFAULT_KEY = "c677e61cba706"
PINNED_DEFAULT_JSON_SHA = (
    "80e102f98a65f80dbe3491e91d1ac9f0ad8cca292e8153f57852f99c113d3c27")


def ordered_key(result):
    """Order-sensitive full-fidelity identity of a campaign result."""
    return [v.identity() for v in result.verdicts]


@pytest.fixture
def obs_on():
    """Telemetry enabled with a clean registry; fully undone afterwards."""
    obs.reset()
    obs.enable(True)
    yield
    obs.enable(False)
    obs.reset()
    obs.set_trace_file(None)
    os.environ.pop("REPRO_OBS", None)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counters_add_and_normalize_label_order(self):
        r = m.MetricsRegistry()
        r.inc("hits", 2.0, vendor="gcc", phase="cold")
        r.inc("hits", 3.0, phase="cold", vendor="gcc")  # same series
        snap = r.snapshot()
        assert snap["counters"] == {"hits|phase=cold|vendor=gcc": 5.0}

    def test_gauges_keep_last_set_value(self):
        r = m.MetricsRegistry()
        r.set_gauge("depth", 7.0)
        r.set_gauge("depth", 3.0)
        assert r.snapshot()["gauges"]["depth"] == 3.0

    def test_histogram_buckets_sum_and_overflow(self):
        r = m.MetricsRegistry()
        bounds = (1.0, 2.0, 4.0)
        for v in (0.5, 1.5, 3.0, 100.0):  # one per bucket + overflow
            r.observe("lat", v, bounds)
        h = r.snapshot()["hists"]["lat"]
        assert h["bounds"] == [1.0, 2.0, 4.0]
        assert h["counts"] == [1, 1, 1, 1]
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(105.0)

    def test_labels_reject_reserved_characters(self):
        r = m.MetricsRegistry()
        with pytest.raises(ValueError, match="may not contain"):
            r.inc("x", stage="a|b")
        with pytest.raises(ValueError, match="may not contain"):
            r.inc("x", stage="a=b")

    def test_snapshot_is_json_roundtrippable(self):
        r = m.MetricsRegistry()
        r.inc("c", 1.0, k="v")
        r.set_gauge("g", 2.5)
        r.observe("h", 0.01)
        snap = r.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["v"] == m.SNAPSHOT_VERSION

    def test_absorb_rejects_mismatched_bucket_bounds(self):
        r = m.MetricsRegistry()
        r.observe("h", 0.5, (1.0, 2.0))
        bad = {"hists": {"h": {"bounds": [1.0, 3.0], "counts": [1, 0, 0],
                               "sum": 0.5, "count": 1}}}
        with pytest.raises(ValueError, match="bucket bounds differ"):
            r.absorb(bad)

    def test_module_helpers_are_noops_while_disabled(self):
        assert not m.enabled()
        m.reset()
        m.inc("repro_tests_total")
        m.set_gauge("g", 1.0)
        m.observe("h", 0.1)
        snap = m.registry_snapshot()
        assert not snap["counters"] and not snap["gauges"]
        assert not snap["hists"]


class TestMergeAlgebra:
    def _snaps(self):
        a = m.MetricsRegistry()
        a.inc("c", 1.0, k="x")
        a.observe("h", 0.5, (1.0, 2.0))
        a.set_gauge("g", 5.0)
        b = m.MetricsRegistry()
        b.inc("c", 2.0, k="x")
        b.inc("c", 7.0, k="y")
        b.observe("h", 1.5, (1.0, 2.0))
        b.set_gauge("g", 3.0)
        c = m.MetricsRegistry()
        c.observe("h", 9.0, (1.0, 2.0))
        return a.snapshot(), b.snapshot(), c.snapshot()

    def test_merge_is_associative_and_commutative(self):
        a, b, c = self._snaps()
        flat = m.merge_snapshots([a, b, c])
        assert m.merge_snapshots([c, a, b]) == flat
        assert m.merge_snapshots(
            [m.merge_snapshots([a, b]), c]) == flat
        assert m.merge_snapshots(
            [a, m.merge_snapshots([b, c])]) == flat
        assert flat["counters"] == {"c|k=x": 3.0, "c|k=y": 7.0}
        assert flat["gauges"] == {"g": 5.0}  # max, not last
        assert flat["hists"]["h"]["count"] == 3

    def test_none_and_empty_snapshots_are_skipped(self):
        a, _, _ = self._snaps()
        assert m.merge_snapshots([None, a, {}]) == m.merge_snapshots([a])


class TestExposition:
    def test_render_parse_roundtrip(self):
        r = m.MetricsRegistry()
        r.inc("repro_tests_total", 4.0)
        r.inc("repro_lower_total", 2.0, phase="kernel", result="cold")
        r.set_gauge("repro_queue_depth", 3.0)
        r.observe("repro_stage_seconds", 0.003, (0.001, 0.01), stage="plan")
        r.observe("repro_stage_seconds", 0.5, (0.001, 0.01), stage="plan")
        text = m.render_exposition(r.snapshot())
        assert "# TYPE repro_tests_total counter" in text
        assert "# TYPE repro_stage_seconds histogram" in text
        parsed = m.parse_exposition(text)
        assert parsed["repro_tests_total"] == 4.0
        assert parsed['repro_lower_total{phase="kernel",result="cold"}'] == 2.0
        assert parsed['repro_queue_depth'] == 3.0
        # cumulative buckets: le=0.01 holds one, +Inf holds both
        assert parsed['repro_stage_seconds_bucket{le="0.01",stage="plan"}'] \
            == 1.0
        assert parsed['repro_stage_seconds_bucket{le="+Inf",stage="plan"}'] \
            == 2.0
        assert parsed['repro_stage_seconds_count{stage="plan"}'] == 2.0

    def test_parse_rejects_malformed_sample_line(self):
        with pytest.raises(ValueError, match="malformed"):
            m.parse_exposition("lonelytoken\n")

    def test_empty_snapshot_renders_empty(self):
        assert m.render_exposition(m.MetricsRegistry().snapshot()) == ""


class TestHistQuantile:
    def _hist(self, values, bounds=(1.0, 2.0, 4.0, 8.0)):
        r = m.MetricsRegistry()
        for v in values:
            r.observe("h", v, bounds)
        return r.snapshot()["hists"]["h"]

    def test_median_interpolates_inside_bucket(self):
        h = self._hist([0.5] * 2 + [1.5] * 2)
        assert 0.0 < m.hist_quantile(h, 0.5) <= 1.0
        assert 1.0 < m.hist_quantile(h, 0.95) <= 2.0

    def test_overflow_clamps_to_top_bound(self):
        h = self._hist([100.0, 200.0])
        assert m.hist_quantile(h, 0.99) == 8.0

    def test_empty_histogram_is_zero(self):
        h = {"bounds": [1.0], "counts": [0, 0], "sum": 0.0, "count": 0}
        assert m.hist_quantile(h, 0.5) == 0.0

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            m.hist_quantile(self._hist([1.0]), 1.5)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_is_the_shared_null(self):
        assert span("anything") is _NULL
        assert span("other", k="v") is _NULL

    def test_enabled_span_observes_stage_histogram(self, obs_on):
        with span("unittest_stage", flavor="x"):
            pass
        snap = m.registry_snapshot()
        assert m.span_seconds_count(snap, "unittest_stage") == 1
        assert m.total_counter(snap, "repro_stage_errors_total") == 0

    def test_span_counts_errors_and_reraises(self, obs_on):
        with pytest.raises(RuntimeError, match="boom"):
            with span("unittest_stage"):
                raise RuntimeError("boom")
        snap = m.registry_snapshot()
        assert m.counter_value(snap, "repro_stage_errors_total",
                               stage="unittest_stage") == 1.0

    def test_trace_file_records_one_line_per_span(self, obs_on, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.set_trace_file(str(trace))
        with span("traced", tag="t1"):
            pass
        with pytest.raises(ValueError):
            with span("traced_err"):
                raise ValueError("x")
        obs.set_trace_file(None)
        assert "REPRO_OBS_TRACE" not in os.environ
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert [r["span"] for r in records] == ["traced", "traced_err"]
        assert records[0]["ok"] is True
        assert records[0]["labels"] == {"tag": "t1"}
        assert records[1]["ok"] is False


# ----------------------------------------------------------------------
# logging (satellite: one logging setup for CLI and fleet)
# ----------------------------------------------------------------------

class TestLogging:
    def test_resolve_level(self):
        assert resolve_level(None) == logging.WARNING
        assert resolve_level(None, verbose=1) == logging.INFO
        assert resolve_level(None, verbose=2) == logging.DEBUG
        assert resolve_level("ERROR") == logging.ERROR
        assert resolve_level("info", verbose=2) == logging.INFO  # flag wins
        assert resolve_level(logging.DEBUG) == logging.DEBUG
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("loud")

    def test_setup_is_idempotent_and_formats_context(self):
        stream = io.StringIO()
        logger = obs.logging_setup("info", stream=stream)
        obs.logging_setup("info", stream=stream)  # again: no stacking
        tagged = [h for h in logger.handlers
                  if getattr(h, "_repro_obs_handler", False)]
        assert len(tagged) == 1
        ctx = log_context  # tokens restored by fresh defaults below
        ctx(campaign="cDEAD", worker="w7")
        logging.getLogger("repro.test_obs").info("hello %s", "there")
        line = stream.getvalue().strip()
        assert "[cDEAD/w7] hello there" in line
        assert "INFO" in line
        ctx(campaign="-", worker="-")
        assert "%(campaign)s/%(worker)s" in LOG_FORMAT


# ----------------------------------------------------------------------
# the hard gate: telemetry is strictly out-of-band
# ----------------------------------------------------------------------

class TestByteIdentity:
    def test_pinned_identities_unmoved_by_telemetry(self, obs_on):
        cfg = CampaignConfig()
        assert campaign_key(cfg) == PINNED_DEFAULT_KEY
        digest = hashlib.sha256(campaign_to_json(cfg).encode()).hexdigest()
        assert digest == PINNED_DEFAULT_JSON_SHA

    def test_campaign_result_identical_with_telemetry_on(self, fleet_cfg):
        baseline = CampaignSession(fleet_cfg, engine="serial").run()
        obs.reset()
        obs.enable(True)
        try:
            instrumented = CampaignSession(fleet_cfg, engine="serial").run()
            snap = m.registry_snapshot()
        finally:
            obs.enable(False)
            obs.reset()
            os.environ.pop("REPRO_OBS", None)
        assert ordered_key(instrumented) == ordered_key(baseline)
        assert instrumented.race_filtered == baseline.race_filtered
        # and the run actually recorded itself while changing nothing
        assert m.total_counter(snap, "repro_units_total") == \
            fleet_cfg.n_programs
        assert m.total_counter(snap, "repro_tests_total") == \
            len(instrumented.verdicts)

    def test_process_engine_worker_counts_reach_the_parent(
            self, fleet_cfg, fleet_serial_result, obs_on):
        """Pool workers report their telemetry back with each chunk; the
        parent folds in each worker's last snapshot exactly once, and
        workers forked after a counted serial run do not re-report the
        counts they inherited."""
        CampaignSession(fleet_cfg, engine="serial").run()
        result = CampaignSession(fleet_cfg, engine="process", jobs=2).run()
        snap = m.registry_snapshot()
        assert ordered_key(result) == ordered_key(fleet_serial_result)
        assert m.total_counter(snap, "repro_units_total") == \
            2 * fleet_cfg.n_programs
        assert m.total_counter(snap, "repro_tests_total") == \
            2 * len(result.verdicts)


# ----------------------------------------------------------------------
# status schema (satellite: versioned supervisor status JSON)
# ----------------------------------------------------------------------

class TestStatusSchema:
    def test_schema_constant_is_two(self):
        assert STATUS_SCHEMA == 2

    def test_status_file_roundtrips_with_schema_and_telemetry(
            self, fleet_cfg, tmp_path, capsys):
        from repro.cli import main

        obs.reset()
        obs.enable(True)
        try:
            status_path = tmp_path / "status.json"
            run_chaos_campaign(fleet_cfg, ChaosPlan(),
                               tmp_path / "s.db", workers=2,
                               timeout=180, status_path=status_path)
            doc = json.loads(status_path.read_text())
        finally:
            obs.enable(False)
            obs.reset()
            os.environ.pop("REPRO_OBS", None)
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["state"] == "finished"
        assert "telemetry" in doc
        assert doc["telemetry"]["units_ok"] == fleet_cfg.n_programs

        # the CLI renders a current-schema file without complaint...
        assert main(["fleet", "status",
                     "--status-file", str(status_path)]) == 0
        out, err = capsys.readouterr()
        assert "lowering" in out and "stage" in out
        assert "newer than this tool" not in err
        # ...and tolerates (while reporting) a newer schema
        doc["schema"] = STATUS_SCHEMA + 41
        doc["from_the_future"] = {"unknown": True}
        status_path.write_text(json.dumps(doc))
        assert main(["fleet", "status",
                     "--status-file", str(status_path)]) == 0
        out, err = capsys.readouterr()
        assert f"status schema v{STATUS_SCHEMA + 41} is newer" in err
        assert "finished" in out


# ----------------------------------------------------------------------
# the acceptance capstone: fleet-wide aggregation reconciles exactly
# ----------------------------------------------------------------------

class TestFleetReconciliation:
    def test_multiworker_fleet_counts_reconcile_with_result(self, fleet_cfg):
        """Real worker processes report snapshots over the queue; the
        merged registry must account for every unit and test exactly."""
        obs.reset()
        obs.enable(True)
        try:
            result = CampaignSession(fleet_cfg, engine="fleet",
                                     jobs=2).run()
            snap = m.registry_snapshot()
        finally:
            obs.enable(False)
            obs.reset()
            os.environ.pop("REPRO_OBS", None)
        assert m.total_counter(snap, "repro_units_total") == \
            fleet_cfg.n_programs
        assert m.total_counter(snap, "repro_tests_total") == \
            len(result.verdicts)
        assert m.total_counter(snap, "repro_queue_completions_total") == \
            fleet_cfg.n_programs
        assert m.total_counter(snap, "repro_queue_leases_total") >= \
            fleet_cfg.n_programs

    def test_chaos_run_telemetry_reconciles_with_store(self, fleet_cfg,
                                                       tmp_path):
        """Under a seeded chaos plan (every mutator duplicated, one store
        refusal) the persisted fleet-wide snapshot must reconcile with
        the result store row for row — duplicates absorbed, the refused
        write retried, nothing double-counted."""
        plan = ChaosPlan(seed=7, duplicate_rate=1.0, store_fail_calls=(0,))
        obs.reset()
        obs.enable(True)
        try:
            result, report = run_chaos_campaign(
                fleet_cfg, plan, tmp_path / "chaos.db", workers=2,
                timeout=180)
        finally:
            obs.enable(False)
            obs.reset()
            os.environ.pop("REPRO_OBS", None)
        assert report["store_faults"] == {"fail": 1}
        with ResultStore(tmp_path / "chaos.db") as store:
            cid = campaign_key(fleet_cfg)
            snap = store.telemetry(cid)
            assert snap is not None
            completed = store.completed_indices(cid)
            # queue completions are first-write-wins: every duplicated
            # delivery collapsed to exactly one completion per unit
            assert m.total_counter(
                snap, "repro_queue_completions_total") == len(completed)
            assert m.total_counter(snap, "repro_units_total") == \
                len(completed) == fleet_cfg.n_programs
            assert m.total_counter(snap, "repro_tests_total") == \
                store.verdict_count(cid) == len(result.verdicts)
            # the duplicates and the refused write were observed, not lost
            assert m.total_counter(
                snap, "repro_queue_duplicate_completions_total") >= 1
            assert m.total_counter(
                snap, "repro_store_write_failures_total") == 1
            assert m.total_counter(
                snap, "repro_store_writes_total") == len(completed)
            assert m.counter_value(
                snap, "repro_store_writes_total", result="fresh") == \
                len(completed)
