"""Result-store tests: append-only writes, indexed queries, synthetic
``comp`` rows, checkpoint import, store-backed resume, bucket merging,
and the fleet/query CLI surface."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.outliers import analyze_test
from repro.backends import unregister_backend
from repro.backends.fault import InjectedFault, register_fault_backend
from repro.cli import main
from repro.config import CampaignConfig, ConfigError
from repro.core.features import extract_features
from repro.driver.engine import UnitOutcome
from repro.driver.records import RunRecord, RunStatus
from repro.fleet import ResultStore
from repro.fleet.store import campaign_key
from repro.harness.session import CampaignSession


def verdict_key(verdicts):
    return sorted(v.identity() for v in verdicts)


@pytest.fixture(scope="module")
def fault_campaign(fast_gen_cfg):
    """A small campaign with an injected gcc crash: outliers guaranteed."""
    register_fault_backend(
        "gcc", InjectedFault("crash", "n_parallel_regions"),
        name="gcc-buggy")
    try:
        cfg = CampaignConfig(n_programs=5, inputs_per_program=2, seed=4242,
                             generator=fast_gen_cfg,
                             compilers=("gcc-buggy", "clang", "intel"))
        session = CampaignSession(cfg, engine="serial")
        result = session.run()
        assert any(v.outliers for v in result.verdicts)
        yield cfg, session, result
    finally:
        unregister_backend("gcc-buggy")


class TestResultStore:
    def test_record_query_roundtrip(self, fault_campaign, tmp_path):
        cfg, session, result = fault_campaign
        with ResultStore(tmp_path / "s.db") as store:
            cid, n = store.record_session(session)
            assert n == cfg.n_programs
            assert store.verdict_count(cid) == len(result.verdicts)
            crashes = store.query(kind="crash", backend="gcc-buggy")
            want = sum(1 for v in result.verdicts for o in v.outliers
                       if o.kind.value == "crash" and o.vendor == "gcc-buggy")
            assert len(crashes) == want > 0
            assert all(r["signature"].startswith("crash|gcc-buggy|")
                       for r in crashes)
            # the feature filter matches whole labels, not substrings
            for row in crashes:
                assert store.query(kind="crash",
                                   feature=row["vector"].split("+")[0])
            assert store.query(kind="crash", backend="clang") == []
            assert store.query(limit=1) == store.query()[:1]

    def test_record_unit_first_write_wins(self, fault_campaign, tmp_path):
        cfg, session, _result = fault_campaign
        with ResultStore(tmp_path / "dup.db") as store:
            cid = store.ensure_campaign(cfg)
            outcome = session._outcomes[0]
            assert store.record_unit(cid, outcome)
            assert not store.record_unit(cid, outcome)  # idempotent replay
            assert store.verdict_count(cid) == len(outcome.verdicts)

    def test_outcomes_roundtrip_full_fidelity(self, fault_campaign,
                                              tmp_path):
        cfg, session, result = fault_campaign
        with ResultStore(tmp_path / "rt.db") as store:
            cid, _ = store.record_session(session)
            stored = store.outcomes(cid)
            assert [o.program_index for o in stored] == \
                list(range(cfg.n_programs))
            assert verdict_key([v for o in stored for v in o.verdicts]) == \
                verdict_key(result.verdicts)

    def test_import_checkpoint(self, fault_campaign, tmp_path):
        cfg, session, result = fault_campaign
        ckpt = tmp_path / "c.jsonl"
        session.checkpoint(ckpt)
        with ResultStore(tmp_path / "imp.db") as store:
            cid, n = store.import_checkpoint(ckpt)
            assert n == cfg.n_programs
            assert store.verdict_count(cid) == len(result.verdicts)
            # importing again is a no-op, not a duplication
            cid2, n2 = store.import_checkpoint(ckpt)
            assert (cid2, n2) == (cid, 0)

    def test_campaign_key_ignores_execution_knobs(self, fault_campaign):
        cfg, _session, _result = fault_campaign
        variants = [
            dataclasses.replace(cfg, engine="process", jobs=4),
            dataclasses.replace(cfg, engine="fleet", chunk_size=3),
            dataclasses.replace(cfg, output_dir="/tmp/elsewhere"),
        ]
        assert {campaign_key(v) for v in variants} == {campaign_key(cfg)}
        # but grid fields DO change identity
        assert campaign_key(dataclasses.replace(cfg, seed=1)) != \
            campaign_key(cfg)

    def test_ensure_campaign_rejects_conflicting_grid(self, fault_campaign,
                                                      tmp_path):
        cfg, _session, _result = fault_campaign
        with ResultStore(tmp_path / "conflict.db") as store:
            store.ensure_campaign(cfg, "pinned-id")
            # same grid rejoins fine, even with different execution knobs
            assert store.ensure_campaign(
                dataclasses.replace(cfg, engine="process", jobs=2),
                "pinned-id") == "pinned-id"
            with pytest.raises(ConfigError, match="different"):
                store.ensure_campaign(dataclasses.replace(cfg, seed=9),
                                      "pinned-id")

    def test_stored_config_naming_thread_engine_rejected(
            self, fault_campaign, tmp_path):
        """The thread engine is gone: a stored campaign row that still
        names it fails to load, saying which engines remain."""
        import sqlite3
        from contextlib import closing

        cfg, _session, _result = fault_campaign
        path = tmp_path / "thread.db"
        with ResultStore(path) as store:
            cid = store.ensure_campaign(cfg)
        with closing(sqlite3.connect(path)) as db:
            (row,) = db.execute("SELECT config_json FROM campaigns").fetchone()
            db.execute("UPDATE campaigns SET config_json = ?",
                       (json.dumps({**json.loads(row), "engine": "thread"}),))
            db.commit()
        with ResultStore(path) as store:
            with pytest.raises(ConfigError, match="unknown engine 'thread'; "
                               "choose from serial, process, fleet"):
                store.config_for(cid)

    def test_comp_rows_for_divergent_outputs(self, program_stream,
                                             tmp_path):
        program = program_stream[0]
        records = [
            RunRecord("t", "gcc", 0, RunStatus.OK, 2.0, 2000.0),
            RunRecord("t", "clang", 0, RunStatus.OK, 2.0, 2000.0),
            RunRecord("t", "intel", 0, RunStatus.OK, 1.0, 2000.0),
        ]
        verdict = analyze_test(records)
        assert verdict.output_divergent
        outcome = UnitOutcome(program_index=0, program_name="t",
                              features=extract_features(program),
                              verdicts=[verdict])
        cfg = CampaignConfig(n_programs=1, inputs_per_program=1)
        with ResultStore(tmp_path / "comp.db") as store:
            cid = store.ensure_campaign(cfg)
            store.record_unit(cid, outcome)
            rows = store.query(kind="comp")
            # intel is the minority against the gcc/clang modal output
            assert [(r["vendor"], r["ratio"]) for r in rows] == \
                [("intel", 0.0)]
            assert rows[0]["signature"].startswith("comp|intel|")

    def test_merge_buckets_across_campaigns(self, fault_campaign,
                                            fast_gen_cfg, tmp_path):
        cfg, session, _result = fault_campaign
        other_cfg = dataclasses.replace(cfg, seed=4243)
        other = CampaignSession(other_cfg, engine="serial")
        other.run()
        with ResultStore(tmp_path / "merge.db") as store:
            cid_a, _ = store.record_session(session)
            cid_b, _ = store.record_session(other)
            assert cid_a != cid_b
            buckets = store.merge_buckets(kinds=["crash"])
            assert buckets
            # every crash row lands in exactly one bucket, and the merged
            # view draws members from both campaigns
            members = [m for b in buckets for m in b.members]
            assert len(members) == len(store.query(kind="crash"))
            assert {m["campaign_id"] for m in members} == {cid_a, cid_b}
            for bucket in buckets:
                assert len({m["signature"] for m in bucket.members}) == 1

    def test_unknown_campaign_raises(self, tmp_path):
        with ResultStore(tmp_path / "empty.db") as store:
            with pytest.raises(ConfigError, match="unknown campaign"):
                store.config_for("nope")


class TestStoreBackedResume:
    def test_store_session_finishes_grid(self, fast_gen_cfg, tmp_path):
        cfg = CampaignConfig(n_programs=6, inputs_per_program=1, seed=77,
                             generator=fast_gen_cfg)
        serial = CampaignSession(cfg, engine="serial").run()

        partial = CampaignSession(cfg, engine="serial")
        it = partial.stream()
        for _ in range(3):
            next(it)
        it.close()
        with ResultStore(tmp_path / "resume.db") as store:
            cid, n = store.record_session(partial)
            assert 0 < n < cfg.n_programs
            resumed = store.session(cid)
            assert 0 < resumed.completed_tests < resumed.total_tests
            result = resumed.run()
        assert verdict_key(result.verdicts) == verdict_key(serial.verdicts)


class TestFleetCli:
    def test_import_and_query_cli(self, fault_campaign, tmp_path, capsys):
        cfg, session, result = fault_campaign
        ckpt = tmp_path / "cli.jsonl"
        session.checkpoint(ckpt)
        db = str(tmp_path / "cli.db")

        assert main(["fleet", "import", str(ckpt), "--store", db]) == 0
        out = capsys.readouterr().out
        assert f"imported {cfg.n_programs} new unit(s)" in out

        assert main(["query", "--store", db, "--list"]) == 0
        out = capsys.readouterr().out
        assert f"verdicts={len(result.verdicts)}" in out

        assert main(["query", "--store", db, "--kind", "crash",
                     "--backend", "gcc-buggy"]) == 0
        out = capsys.readouterr().out
        assert "gcc-buggy crash" in out

        assert main(["query", "--store", db, "--buckets"]) == 0
        out = capsys.readouterr().out
        assert "crash|gcc-buggy|" in out

        assert main(["query", "--store", db, "--kind", "crash",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(r["kind"] == "crash" for r in rows)

    def test_fleet_run_cli_with_store(self, tmp_path, capsys):
        db = str(tmp_path / "run.db")
        code = main(["fleet", "run", "--programs", "3", "--inputs", "1",
                     "--seed", "1234", "--mix", "paper", "--workers", "2",
                     "--store", db, "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdicts stored in" in out
        with ResultStore(db) as store:
            (c,) = store.campaigns()
            assert c["units"] == 3 and c["verdicts"] == 3
