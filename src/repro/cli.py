"""Command-line interface: ``repro-omp``.

Subcommands mirror the pipeline stages of Fig. 1, plus the triage stage:

* ``generate``  — emit N random OpenMP C++ test programs (+ inputs),
* ``run``       — one differential test (generate, compile x3, run, compare),
* ``campaign``  — the full grid with the Table-I report,
* ``reduce``    — shrink flagged outliers to minimal reproducers and
  bucket them by bug signature (from a checkpoint, or one test inline),
* ``fleet``     — run the grid through the lease-queue fleet: a
  coordinator serving work over a socket, worker processes (local or
  external), and an indexed SQLite result store,
* ``query``     — indexed outlier lookup over a result store,
* ``casestudy`` — reproduce case study 1, 2, or 3,
* ``grammar``   — print the paper's grammar (Listing 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import (
    DIRECTIVE_MIXES,
    ENGINE_NAMES,
    PROGRAM_SOURCES,
    CampaignConfig,
    GeneratorConfig,
    apply_directive_mix,
    load_campaign,
)
from .errors import ReproError
from . import obs
from .core.generator import ProgramGenerator
from .core.grammar import GRAMMAR
from .core.inputs import InputGenerator
from .rng import RNG_MODES
from .sim.backend import BACKENDS as KERNEL_BACKENDS
from .codegen.emit_main import emit_translation_unit


#: with --checkpoint, also snapshot every N completed differential tests
_CHECKPOINT_EVERY = 30

#: the campaign seed, applied when neither --seed nor --config gives one
_DEFAULT_SEED = 20240915


def _add_seed(p: argparse.ArgumentParser) -> None:
    # default None, not the seed value: _load_config must distinguish "an
    # explicit --seed overriding a --config file" from "no seed given"
    p.add_argument("--seed", type=int, default=None,
                   help=f"base RNG seed (default: the campaign seed, "
                        f"{_DEFAULT_SEED})")


def _seed(args) -> int:
    return _DEFAULT_SEED if args.seed is None else args.seed


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-file", metavar="PATH", dest="metrics_file",
                   help="enable telemetry and write the final metrics "
                        "exposition (Prometheus text format) to PATH; "
                        "verdicts are byte-identical either way")
    p.add_argument("--trace-file", metavar="PATH", dest="trace_file",
                   help="enable telemetry and append one JSONL record per "
                        "pipeline span to PATH (offline flamegraph-style "
                        "analysis)")


def _setup_obs(args) -> str | None:
    """Enable telemetry when either obs flag is present; returns the
    metrics-file path (exposition is written by the command at exit)."""
    metrics_file = getattr(args, "metrics_file", None)
    trace_file = getattr(args, "trace_file", None)
    if metrics_file or trace_file:
        obs.enable(True)
    if trace_file:
        obs.set_trace_file(trace_file)
    return metrics_file


def _write_metrics_file(path: str | None, snapshot: dict | None = None) -> None:
    if not path:
        return
    snap = snapshot if snapshot is not None else obs.registry_snapshot()
    Path(path).write_text(obs.render_exposition(snap))
    print(f"metrics exposition written to {path}", file=sys.stderr)


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", dest="program_source",
                   choices=PROGRAM_SOURCES,
                   help="program source planning the grid: random (the "
                        "paper's stream, default), mutation (surgery-kit "
                        "edits of corpus parents), or adaptive "
                        "(coverage-directed draws and mutations)")
    p.add_argument("--corpus", metavar="DIR",
                   help="triage artifacts directory (from repro-omp "
                        "reduce/campaign --triage) whose bucket members "
                        "seed the mutation corpus")


def _load_config(args) -> CampaignConfig:
    """The effective campaign config: ``--config`` file first, explicit
    CLI flags applied as overrides on top of it.

    Flags the user did not pass stay at whatever the file (or the
    defaults) say — overrides go through :func:`dataclasses.replace` on
    the loaded config rather than rebuilding it, so every field the
    override does not name survives (including nested generator kwargs a
    config file may carry alongside ``rng_mode``).
    """
    if getattr(args, "config", None):
        base = load_campaign(args.config)
    else:
        base = CampaignConfig(seed=_seed(args))
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "programs", None) is not None:
        overrides["n_programs"] = args.programs
    if getattr(args, "inputs", None) is not None:
        overrides["inputs_per_program"] = args.inputs
    if getattr(args, "mix", None) is not None:
        overrides["directive_mix"] = args.mix
    if getattr(args, "chunk_size", None) is not None:
        overrides["chunk_size"] = args.chunk_size
    if getattr(args, "kernel_backend", None) is not None:
        overrides["kernel_backend"] = args.kernel_backend
    if getattr(args, "program_source", None) is not None:
        overrides["program_source"] = args.program_source
    if getattr(args, "corpus", None) is not None:
        from .corpus import corpus_from_triage

        overrides["mutation_corpus"] = corpus_from_triage(args.corpus)
    if getattr(args, "rng_mode", None) is not None:
        overrides["generator"] = dataclasses.replace(
            base.generator, rng_mode=args.rng_mode)
    return dataclasses.replace(base, **overrides) if overrides else base


def cmd_generate(args) -> int:
    cfg = GeneratorConfig()
    if getattr(args, "rng_mode", None) is not None:
        # the generate stream must be the stream a --rng-mode campaign
        # actually tests, so the flag threads into the same config field
        cfg = dataclasses.replace(cfg, rng_mode=args.rng_mode)
    if getattr(args, "mix", None) is not None:
        cfg = apply_directive_mix(cfg, args.mix)
    gen = ProgramGenerator(cfg, seed=_seed(args))
    inputs = InputGenerator(cfg, seed=_seed(args) + 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        program = gen.generate(i)
        (out / f"{program.name}.cpp").write_text(
            emit_translation_unit(program))
        batch = inputs.batch(program, args.inputs)
        rows = [{"index": t.index, "argv": t.argv(program)} for t in batch]
        (out / f"{program.name}.inputs.json").write_text(
            json.dumps(rows, indent=2))
    print(f"wrote {args.count} programs (+inputs) to {out}/")
    return 0


def cmd_run(args) -> int:
    from .harness.campaign import differential_test_single

    result = differential_test_single(seed=_seed(args),
                                      program_index=args.index)
    print(result.table())
    if args.source:
        print("\n--- generated C++ ---")
        print(result.cpp_source)
    return 0


def cmd_campaign(args) -> int:
    from .harness.report import render_campaign_summary, render_table1
    from .harness.results import dump_campaign_artifacts
    from .harness.session import CampaignSession

    metrics_file = _setup_obs(args)
    # interrupts re-checkpoint to --checkpoint, or back onto the file a
    # resumed campaign came from, so a resume is never less safe than the
    # run that produced its checkpoint.  CampaignSession itself applies
    # the "--jobs alone means go parallel" upgrade for both paths.
    checkpoint_path = args.checkpoint or args.resume
    if args.resume:
        session = CampaignSession.resume(args.resume, engine=args.engine,
                                         jobs=args.jobs)
        cfg = session.config
        if not args.quiet and session.completed_tests:
            print(f"  resuming: {session.completed_tests}/"
                  f"{session.total_tests} tests already done",
                  file=sys.stderr)
    else:
        cfg = _load_config(args)
        session = CampaignSession(cfg, engine=args.engine, jobs=args.jobs)

    def progress(done: int, total: int) -> None:
        print(f"\r  tests {done}/{total}", end="", flush=True,
              file=sys.stderr)

    writer = session.open_checkpoint(checkpoint_path) if checkpoint_path \
        else None
    # throttle the bar off the hot path: ~200 updates across the grid
    every = max(1, session.total_tests // 200)
    stream = session.stream(progress=progress if not args.quiet else None,
                            progress_every=every)
    try:
        seen = 0
        for _ in stream:
            seen += 1
            # periodic appends: a SIGTERM/OOM/crash loses at most one
            # slice of the grid, not the whole campaign
            if writer is not None and seen % _CHECKPOINT_EVERY == 0:
                writer.update()
        result = session.result()
    except KeyboardInterrupt:
        if checkpoint_path:
            # tear the engine down first: pooled engines wait for
            # in-flight units and salvage their outcomes into the
            # session, which the snapshot must include.  Then an atomic
            # full rewrite, not an append — the interrupt may have
            # landed mid-append and a torn non-trailing line would make
            # the file unreadable
            stream.close()
            session.checkpoint(checkpoint_path)
            n = session.completed_tests
            print(f"\ninterrupted; {n} completed tests checkpointed to "
                  f"{checkpoint_path}", file=sys.stderr)
            print(f"resume with: repro-omp campaign --resume "
                  f"{checkpoint_path}", file=sys.stderr)
            return 130
        raise
    if checkpoint_path:
        # final full rewrite: compacts the appends and refreshes the header
        session.checkpoint(checkpoint_path)
    if not args.quiet:
        print(file=sys.stderr)
    print(render_table1(result.table, cfg.compilers))
    print()
    print(render_campaign_summary(result.table))
    if result.race_filtered:
        print(f"race-filtered programs:       {len(result.race_filtered)}")
    if args.out:
        path = dump_campaign_artifacts(result, args.out)
        print(f"artifacts written to {path}/")
    if args.save_outliers:
        from .harness.results import dump_outlier_artifacts

        n_flagged = sum(1 for v in result.verdicts if v.outliers)
        path = dump_outlier_artifacts(result, args.save_outliers)
        print(f"{n_flagged} outlier test(s) saved to {path}/")
    if args.triage:
        from .reduce.bundle import write_triage_artifacts

        report = session.triage(
            progress=None if args.quiet else _triage_progress)
        if not args.quiet and report.n_outliers:
            print(file=sys.stderr)
        print()
        print(report.render())
        path = write_triage_artifacts(report, cfg, args.triage)
        print(f"triage artifacts written to {path}/")
    _write_metrics_file(metrics_file)
    return 0


def _triage_progress(done: int, total: int) -> None:
    print(f"\r  reductions {done}/{total}", end="", flush=True,
          file=sys.stderr)


def cmd_reduce(args) -> int:
    from .driver.engine import resolve_engine
    from .harness.session import CampaignSession
    from .reduce.bundle import write_triage_artifacts
    from .reduce.jobs import TriageJob, run_triage_job
    from .reduce.triage import assemble_report

    if args.checkpoint:
        # triage a (possibly partial) campaign from its checkpoint
        session = CampaignSession.resume(args.checkpoint, engine=args.engine,
                                         jobs=args.jobs)
        cfg = session.config
        engine = session.engine
        coords = session.outlier_coordinates()
    else:
        # inline mode: run one differential test and reduce its outliers
        if args.index is None:
            print("error: reduce needs --checkpoint PATH or --index N",
                  file=sys.stderr)
            return 2
        cfg = _load_config(args)
        engine = resolve_engine(cfg, args.engine, args.jobs)
        from .core.races import find_races
        from .reduce.reducer import run_differential_test

        program = ProgramGenerator(cfg.generator,
                                   seed=cfg.seed).generate(args.index)
        if cfg.generator.allow_data_races and find_races(program):
            print(f"program {args.index} is race-filtered; its verdicts "
                  f"are not analyzable", file=sys.stderr)
            return 1
        test_input = InputGenerator(cfg.generator, seed=cfg.seed + 1) \
            .generate(program, args.input)
        verdict = run_differential_test(program, test_input, cfg.compilers,
                                        cfg.opt_level, cfg.machine,
                                        cfg.outliers)
        coords = [(args.index, args.input, o.vendor, o.kind.value)
                  for o in verdict.outliers]

    if args.vendor:
        coords = [c for c in coords if c[2] == args.vendor]
    if args.kind:
        coords = [c for c in coords if c[3] == args.kind]
    if not coords:
        print("no matching outliers to reduce")
        return 1

    triage_jobs = [TriageJob(cfg, pi, ii, vendor, kind)
                   for pi, ii, vendor, kind in coords]
    triaged = list(engine.map_unordered(
        run_triage_job, triage_jobs,
        progress=None if args.quiet else _triage_progress))
    if not args.quiet:
        print(file=sys.stderr)
    report = assemble_report(triaged)
    print(report.render())
    if args.out:
        path = write_triage_artifacts(report, cfg, args.out)
        print(f"triage artifacts written to {path}/")
    return 0


def _fleet_authkey(args) -> bytes:
    from .fleet.queue import DEFAULT_AUTHKEY

    return args.authkey.encode() if args.authkey else DEFAULT_AUTHKEY


def cmd_fleet_coordinator(args) -> int:
    from .fleet import FleetCoordinator, ResultStore
    from .harness.report import render_campaign_summary, render_table1

    metrics_file = _setup_obs(args)
    cfg = _load_config(args)
    store = ResultStore(args.store) if args.store else None
    try:
        with FleetCoordinator(cfg, store=store,
                              lease_seconds=args.lease_seconds) as coord:
            addr = coord.serve(host=args.host, port=args.port,
                               authkey=_fleet_authkey(args))
            campaign_id = coord.campaign_id
            if not args.quiet:
                tag = f" (campaign {campaign_id})" if campaign_id else ""
                print(f"queue listening on {addr[0]}:{addr[1]}{tag}",
                      file=sys.stderr)
                print(f"start workers with: repro-omp fleet worker "
                      f"--host {addr[0]} --port {addr[1]}", file=sys.stderr)
            if args.workers:
                coord.spawn_workers(args.workers)

            def progress(done: int, total: int) -> None:
                print(f"\r  tests {done}/{total}", end="", flush=True,
                      file=sys.stderr)

            result = coord.wait(
                timeout=args.timeout,
                progress=None if args.quiet else progress)
        if not args.quiet:
            print(file=sys.stderr)
        print(render_table1(result.table, cfg.compilers))
        print()
        print(render_campaign_summary(result.table))
        if store is not None:
            print(f"verdicts stored in {args.store} "
                  f"(campaign {campaign_id})")
        _write_metrics_file(metrics_file, coord.telemetry())
        return 0
    finally:
        if store is not None:
            store.close()


def cmd_fleet_supervise(args) -> int:
    from .config import SupervisorConfig
    from .fleet import FleetSupervisor, ResultStore
    from .harness.report import render_campaign_summary, render_table1

    metrics_file = _setup_obs(args)
    cfg = _load_config(args)
    sup_cfg = SupervisorConfig(max_restarts=args.max_restarts,
                               restart_backoff_s=args.restart_backoff,
                               degrade=not args.no_degrade)
    with ResultStore(args.store) as store:
        sup = FleetSupervisor(cfg, store, workers=args.workers, serve=True,
                              supervisor=sup_cfg, host=args.host,
                              port=args.port, authkey=_fleet_authkey(args),
                              status_path=args.status_file)
        if not args.quiet:
            print(f"supervising campaign {sup.campaign_id} "
                  f"(store {args.store})", file=sys.stderr)
            if args.status_file:
                print(f"watch with: repro-omp fleet status --status-file "
                      f"{args.status_file}", file=sys.stderr)
        try:
            result = sup.run(timeout=args.timeout)
        except KeyboardInterrupt:
            # SIGINT drain: everything completed is already in the store
            print(f"\ninterrupted; campaign {sup.campaign_id} drained to "
                  f"{args.store} — re-run the same command to resume",
                  file=sys.stderr)
            _write_metrics_file(metrics_file, sup.fleet_snapshot())
            return 130
        _write_metrics_file(metrics_file, sup.fleet_snapshot())
    print(render_table1(result.table, cfg.compilers))
    print()
    print(render_campaign_summary(result.table))
    if sup.restarts:
        print(f"coordinator restarts: {sup.restarts} "
              f"(crashes: {'; '.join(sup.crashes)})")
    print(f"verdicts stored in {args.store} (campaign {sup.campaign_id})")
    return 0


def _render_telemetry(tel: dict) -> None:
    """Render a ``summarize_snapshot`` dict as operator-facing lines."""
    lower = tel.get("lower") or {}
    if lower.get("cold") or lower.get("warm"):
        print(f"lowering   {lower['cold']} cold / {lower['warm']} warm "
              f"(cache hit rate {lower['hit_rate']:.1%})")
    q = tel.get("queue") or {}
    if q:
        parts = [f"{q.get('leases', 0)} leases",
                 f"{q.get('completions', 0)} completions"]
        for key, label in (("duplicate_completions", "duplicate"),
                           ("failures", "failed"),
                           ("straggler_leases", "straggler"),
                           ("lease_expiries", "expired")):
            if q.get(key):
                parts.append(f"{q[key]} {label}")
        print(f"queue ops  {', '.join(parts)}")
    lat = tel.get("lease_latency") or {}
    if lat.get("count"):
        print(f"lease lat  p50 {lat['p50']:.3f}s / p95 {lat['p95']:.3f}s "
              f"over {lat['count']} completion(s)")
    for stage, row in sorted((tel.get("stages") or {}).items()):
        print(f"stage      {stage:<12} n={row['count']:<6} "
              f"p50 {row['p50'] * 1e3:8.3f}ms  p95 {row['p95'] * 1e3:8.3f}ms")
    if tel.get("degradation_events"):
        print(f"degraded   {tel['degradation_events']} degradation event(s)")


def cmd_fleet_status(args) -> int:
    if not args.status_file and not args.store:
        print("error: fleet status needs --status-file PATH or "
              "--store PATH", file=sys.stderr)
        return 2
    if args.status_file:
        p = Path(args.status_file)
        if not p.exists():
            print(f"error: status file not found: {p}", file=sys.stderr)
            return 2
        data = json.loads(p.read_text())
        if args.json:
            print(json.dumps(data, indent=2, sort_keys=True))
            return 0
        from .fleet.supervisor import STATUS_SCHEMA

        schema = data.get("schema", 1)  # v1 never carried the field
        if schema > STATUS_SCHEMA:
            # newer writer: render what we recognize, but say so — the
            # versioned-schema contract is tolerate-and-report
            print(f"note: status schema v{schema} is newer than this "
                  f"tool understands (v{STATUS_SCHEMA}); unknown fields "
                  f"are not rendered", file=sys.stderr)
        print(f"campaign   {data.get('campaign_id')}")
        print(f"state      {data.get('state')}")
        print(f"progress   {data.get('completed_tests')}/"
              f"{data.get('total_tests')} tests")
        if data.get("address"):
            host, port = data["address"]
            print(f"queue at   {host}:{port}")
        q = data.get("queue")
        if q:
            print(f"units      {q['completed']}/{q['total']} done, "
                  f"{q['leased']} leased, {q['pending']} pending, "
                  f"{q['dead']} dead")
        st = data.get("store", {})
        print(f"store      {st.get('recorded', 0)} recorded, "
              f"{st.get('buffered', 0)} buffered, "
              f"{st.get('write_failures', 0)} write failure(s)")
        print(f"restarts   {data.get('restarts', 0)}")
        for crash in data.get("crashes", []):
            print(f"  crash: {crash}")
        tel = data.get("telemetry")
        if tel:
            _render_telemetry(tel)
        return 0
    from .fleet import ResultStore

    with ResultStore(args.store) as store:
        rows = store.campaigns()
        if args.campaign:
            rows = [r for r in rows if r["campaign_id"] == args.campaign]
        if not rows:
            print("no matching campaigns in store")
            return 1
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        for c in rows:
            total = store.config_for(c["campaign_id"]).n_programs
            state = "COMPLETE" if c["units"] >= total else "partial"
            print(f"{c['campaign_id']}  units {c['units']}/{total} "
                  f"({state})  verdicts={c['verdicts']} "
                  f"outliers={c['outliers']}")
    return 0


def cmd_fleet_worker(args) -> int:
    from .fleet import run_worker

    n = run_worker((args.host, args.port), authkey=_fleet_authkey(args),
                   batch=args.batch, poll_s=args.poll,
                   max_idle_s=args.max_idle)
    print(f"worker done: {n} unit(s) completed")
    return 0


def cmd_fleet_import(args) -> int:
    from .fleet import ResultStore

    with ResultStore(args.store) as store:
        cid, n = store.import_checkpoint(args.checkpoint)
        total = len(store.completed_indices(cid))
    print(f"imported {n} new unit(s) into campaign {cid} "
          f"({total} stored)")
    return 0


def cmd_metrics(args) -> int:
    from .fleet import ResultStore

    with ResultStore(args.store) as store:
        ids = ([args.campaign] if args.campaign
               else [c["campaign_id"] for c in store.campaigns()])
        snaps = [s for s in (store.telemetry(cid) for cid in ids) if s]
    if not snaps:
        print("no stored telemetry for the requested campaign(s); record "
              "it by running with --metrics-file or REPRO_OBS=1",
              file=sys.stderr)
        return 1
    merged = obs.merge_snapshots(snaps)
    if args.summary:
        print(json.dumps(obs.summarize_snapshot(merged), indent=2,
                         sort_keys=True))
    else:
        print(obs.render_exposition(merged), end="")
    return 0


def cmd_query(args) -> int:
    from .fleet import ResultStore

    with ResultStore(args.store) as store:
        if getattr(args, "health", False):
            ids = ([args.campaign] if args.campaign
                   else [c["campaign_id"] for c in store.campaigns()])
            missing = True
            for cid in ids:
                snap = store.telemetry(cid)
                if snap is None:
                    print(f"{cid}  (no stored telemetry)")
                    continue
                missing = False
                print(f"campaign   {cid}")
                _render_telemetry(obs.summarize_snapshot(snap))
            return 1 if missing else 0
        if args.list:
            for c in store.campaigns():
                print(f"{c['campaign_id']}  units={c['units']} "
                      f"verdicts={c['verdicts']} outliers={c['outliers']}")
            return 0
        if args.coverage:
            ids = ([args.campaign] if args.campaign
                   else [c["campaign_id"] for c in store.campaigns()])
            reports = [store.coverage(cid) for cid in ids]
            if args.json:
                print(json.dumps(reports, indent=2, sort_keys=True))
                return 0
            for cov in reports:
                print(f"{cov['campaign_id']}  source={cov['program_source']} "
                      f"programs={cov['programs']} "
                      f"vectors={cov['distinct_vectors']} "
                      f"shapes={cov['distinct_shapes']} "
                      f"pairs={cov['distinct_pairs']}")
            return 0
        if args.buckets:
            buckets = store.merge_buckets(
                campaigns=[args.campaign] if args.campaign else None,
                kinds=[args.kind] if args.kind else None)
            for b in buckets:
                print(f"{len(b):4d}x  {b.signature}")
            print(f"{len(buckets)} bucket(s)")
            return 0
        rows = store.query(campaign=args.campaign, kind=args.kind,
                           backend=args.backend, feature=args.feature,
                           limit=args.limit)
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        for r in rows:
            ratio = f" x{r['ratio']:.2f}" if r["ratio"] else ""
            print(f"{r['campaign_id']}  {r['program_name']}"
                  f"#in{r['input_index']}: {r['vendor']} "
                  f"{r['kind']}{ratio}  [{r['vector']}]")
        print(f"{len(rows)} outlier row(s)")
    return 0


def cmd_casestudy(args) -> int:
    from .harness import casestudies
    from .analysis.profiles import render_children, render_flat
    from .analysis.threadstate import render_backtrace, render_thread_groups
    from .backends.registry import get_backend

    cfg = CampaignConfig(seed=_seed(args))
    if args.number == 1:
        cs = casestudies.case_study_1(cfg)
        print(f"# {cs.name}: {cs.note}\n")
        print(cs.comparison.render("Table II analogue (Intel vs GCC)"))
        print()
        for vendor in ("intel", "gcc"):
            rec = cs.record_for(vendor)
            print(render_flat(rec.profile, title=f"[{vendor} stack profile]"))
            print()
    elif args.number == 2:
        cs = casestudies.case_study_2(cfg)
        print(f"# {cs.name}: {cs.note}\n")
        print(cs.comparison.render("Table III analogue (Intel vs Clang)"))
        print()
        for vendor in ("intel", "clang"):
            rec = cs.record_for(vendor)
            print(render_children(rec.profile, get_backend(vendor).vendor,
                                  title=f"[{vendor} stack profile, children mode]"))
            print()
    else:
        cs = casestudies.case_study_3(cfg)
        print(f"# {cs.name}: {cs.note}\n")
        rec = cs.record_for("intel")
        print(render_backtrace(rec))
        print()
        print(render_thread_groups(rec))
    return 0


def cmd_grammar(_args) -> int:
    for prod in GRAMMAR.values():
        print(prod)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-omp",
        description="Randomized differential testing of OpenMP implementations "
                    "(SC'24 reproduction)")
    parser.add_argument("--log-level", dest="log_level",
                        choices=("debug", "info", "warning", "error"),
                        help="logging threshold for every subcommand "
                             "(default warning; overrides -v)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v = info, -vv = debug")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit random OpenMP C++ tests")
    _add_seed(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--inputs", type=int, default=3)
    p.add_argument("--out", default="generated-tests")
    p.add_argument("--mix", choices=sorted(DIRECTIVE_MIXES),
                   help="directive mix preset (default: all families on)")
    p.add_argument("--rng-mode", choices=RNG_MODES, dest="rng_mode",
                   help="RNG stream derivation — pass the same mode as "
                        "the campaign whose programs you want on disk")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="one differential test")
    _add_seed(p)
    p.add_argument("--index", type=int, default=0,
                   help="program index in the generator stream")
    p.add_argument("--source", action="store_true",
                   help="also print the generated C++")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("campaign", help="full differential campaign")
    _add_seed(p)
    p.add_argument("--config", help="campaign config JSON file")
    p.add_argument("--programs", type=int,
                   help="number of programs (default 200, the paper's)")
    p.add_argument("--inputs", type=int,
                   help="inputs per program (default 3, the paper's)")
    p.add_argument("--engine", choices=ENGINE_NAMES,
                   help="execution engine (default: config's, i.e. serial)")
    p.add_argument("--jobs", type=int,
                   help="worker count for pooled engines (default: CPUs); "
                        "implies --engine process unless --engine is given")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write a resumable JSONL checkpoint (also on Ctrl-C)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume a checkpointed campaign (config comes from "
                        "the checkpoint; other sizing flags are ignored)")
    p.add_argument("--mix", choices=sorted(DIRECTIVE_MIXES),
                   help="directive mix preset applied to the generator "
                        "(paper, worksharing, sync, reductions, tasks, "
                        "full)")
    p.add_argument("--chunk-size", type=int, dest="chunk_size",
                   help="work units per pooled-engine dispatch (default: "
                        "auto — about four chunks per worker)")
    p.add_argument("--kernel-backend", dest="kernel_backend",
                   choices=KERNEL_BACKENDS,
                   help="simulator kernel backend: auto (compiled C when "
                        "a toolchain is available, the default), c, or "
                        "interp — verdicts are byte-identical, only "
                        "throughput changes")
    p.add_argument("--rng-mode", choices=RNG_MODES, dest="rng_mode",
                   help="RNG stream derivation: compat (byte-identical "
                        "to the paper reproduction, default) or fast "
                        "(SplitMix64 mixer, a new program space)")
    _add_source_flags(p)
    p.add_argument("--out", help="directory for dataset-style artifacts")
    p.add_argument("--save-outliers", metavar="DIR", dest="save_outliers",
                   help="dump each outlier test's C++ source, failing "
                        "input, and verdict JSON to DIR (no reduction)")
    p.add_argument("--triage", metavar="DIR",
                   help="after the campaign, reduce and bucket every "
                        "outlier; write reproducer bundles to DIR")
    p.add_argument("--quiet", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "reduce",
        help="shrink outliers to minimal reproducers and bucket them")
    _add_seed(p)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="triage every outlier of a checkpointed campaign "
                        "(written by campaign --checkpoint)")
    p.add_argument("--config", help="campaign config JSON file "
                                    "(inline mode)")
    p.add_argument("--index", type=int,
                   help="program index in the generator stream "
                        "(inline mode: run + reduce one test)")
    p.add_argument("--input", type=int, default=0,
                   help="input index of the failing test (default 0)")
    p.add_argument("--vendor", help="only reduce outliers flagged on this "
                                    "backend")
    p.add_argument("--kind", choices=("slow", "fast", "crash", "hang"),
                   help="only reduce outliers of this kind")
    p.add_argument("--mix", choices=sorted(DIRECTIVE_MIXES),
                   help="directive mix preset (inline mode)")
    p.add_argument("--programs", type=int, help=argparse.SUPPRESS)
    p.add_argument("--inputs", type=int, help=argparse.SUPPRESS)
    p.add_argument("--engine", choices=ENGINE_NAMES,
                   help="execution engine for parallel reductions")
    p.add_argument("--jobs", type=int,
                   help="worker count for pooled engines")
    p.add_argument("--out", metavar="DIR",
                   help="write reproducer bundles + summary.json to DIR")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser(
        "fleet",
        help="coordinator + socket workers + indexed result store")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    def _add_campaign_sizing(fp: argparse.ArgumentParser) -> None:
        _add_seed(fp)
        fp.add_argument("--config", help="campaign config JSON file")
        fp.add_argument("--programs", type=int,
                        help="number of programs (default 200)")
        fp.add_argument("--inputs", type=int, help="inputs per program")
        fp.add_argument("--mix", choices=sorted(DIRECTIVE_MIXES),
                        help="directive mix preset")
        _add_source_flags(fp)

    def _add_transport(fp: argparse.ArgumentParser, *,
                       default_port: int) -> None:
        fp.add_argument("--host", default="127.0.0.1")
        fp.add_argument("--port", type=int, default=default_port)
        fp.add_argument("--authkey",
                        help="shared transport secret (default: built-in "
                             "loopback key)")

    for name, default_workers, blurb in (
            ("coordinator", 0,
             "serve the work queue and wait for workers to drain it"),
            ("run", os.cpu_count() or 1,
             "coordinator plus local workers in one shot "
             "(workers default: one per CPU)")):
        fp = fleet_sub.add_parser(name, help=blurb)
        _add_campaign_sizing(fp)
        _add_transport(fp, default_port=0)
        fp.add_argument("--workers", type=int, default=default_workers,
                        help="local worker processes to spawn")
        fp.add_argument("--store", metavar="PATH",
                        help="SQLite result store — every completed unit "
                             "persists immediately, and a restarted "
                             "coordinator resumes from it")
        fp.add_argument("--lease-seconds", type=float, default=60.0,
                        dest="lease_seconds",
                        help="work-unit lease deadline (default 60)")
        fp.add_argument("--timeout", type=float,
                        help="give up if the grid is unfinished after this "
                             "many seconds")
        fp.add_argument("--quiet", action="store_true")
        _add_obs_flags(fp)
        fp.set_defaults(fn=cmd_fleet_coordinator)

    fp = fleet_sub.add_parser(
        "supervise",
        help="run the campaign as a supervised service: crash-safe "
             "store writes, coordinator restart-from-store, clean "
             "SIGTERM/SIGINT drain, graceful degradation")
    _add_campaign_sizing(fp)
    _add_transport(fp, default_port=0)
    fp.add_argument("--store", required=True, metavar="PATH",
                    help="SQLite result store (required: it is what a "
                         "crashed coordinator restarts from)")
    fp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="local worker processes (default: one per CPU; "
                         "0 = external workers only)")
    fp.add_argument("--max-restarts", type=int, default=5,
                    dest="max_restarts",
                    help="coordinator restarts before degrading (default 5)")
    fp.add_argument("--restart-backoff", type=float, default=0.5,
                    dest="restart_backoff",
                    help="base of the exponential restart backoff "
                         "(default 0.5s)")
    fp.add_argument("--no-degrade", action="store_true", dest="no_degrade",
                    help="fail instead of finishing in-process when the "
                         "restart budget is spent")
    fp.add_argument("--status-file", metavar="PATH", dest="status_file",
                    help="mirror the health snapshot to this JSON file "
                         "(read by: repro-omp fleet status)")
    fp.add_argument("--timeout", type=float,
                    help="give up if the grid is unfinished after this "
                         "many seconds")
    fp.add_argument("--quiet", action="store_true")
    _add_obs_flags(fp)
    fp.set_defaults(fn=cmd_fleet_supervise)

    fp = fleet_sub.add_parser(
        "status",
        help="health/progress snapshot of a supervised campaign")
    fp.add_argument("--status-file", metavar="PATH", dest="status_file",
                    help="JSON snapshot written by supervise --status-file")
    fp.add_argument("--store", metavar="PATH",
                    help="inspect campaign completeness in a result store "
                         "instead of a live snapshot")
    fp.add_argument("--campaign", help="restrict --store mode to one "
                                       "campaign id")
    fp.add_argument("--json", action="store_true",
                    help="emit the raw snapshot/rows as JSON")
    fp.set_defaults(fn=cmd_fleet_status)

    fp = fleet_sub.add_parser("worker",
                              help="connect to a coordinator and execute "
                                   "leased units")
    _add_transport(fp, default_port=0)
    fp.add_argument("--batch", type=int, default=1,
                    help="units leased per round trip (default 1)")
    fp.add_argument("--poll", type=float, default=0.05,
                    help="idle poll interval in seconds")
    fp.add_argument("--max-idle", type=float, dest="max_idle",
                    help="exit after this many idle seconds "
                         "(default: wait for the campaign to finish)")
    fp.set_defaults(fn=cmd_fleet_worker)

    fp = fleet_sub.add_parser("import",
                              help="import a JSONL checkpoint into a store")
    fp.add_argument("checkpoint", help="checkpoint written by "
                                       "campaign --checkpoint")
    fp.add_argument("--store", required=True, metavar="PATH")
    fp.set_defaults(fn=cmd_fleet_import)

    p = sub.add_parser("query",
                       help="indexed outlier lookup over a result store")
    p.add_argument("--store", required=True, metavar="PATH",
                   help="SQLite store written by fleet --store / import")
    p.add_argument("--campaign", help="restrict to one campaign id")
    p.add_argument("--kind", choices=("slow", "fast", "crash", "hang",
                                      "comp"),
                   help="outlier kind (comp = numerical divergence)")
    p.add_argument("--backend", help="flagged vendor, e.g. intel-sim")
    p.add_argument("--feature", help="require a directive label in the "
                                     "program's feature vector, e.g. "
                                     "critical")
    p.add_argument("--limit", type=int, help="print at most N rows")
    p.add_argument("--buckets", action="store_true",
                   help="merge rows into cross-campaign bug buckets by "
                        "signature instead of listing them")
    p.add_argument("--list", action="store_true",
                   help="list stored campaigns with row counts")
    p.add_argument("--coverage", action="store_true",
                   help="per-campaign generation coverage: distinct "
                        "directive-feature vectors, kernel-shape "
                        "fingerprints, and (vector, shape) pairs — the "
                        "signal the adaptive source steers by")
    p.add_argument("--health", action="store_true",
                   help="render each campaign's stored telemetry summary "
                        "(pipeline stage latencies, queue ops, cache hit "
                        "rate) instead of outlier rows")
    p.add_argument("--json", action="store_true",
                   help="emit rows as JSON")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "metrics",
        help="Prometheus-style exposition of stored campaign telemetry")
    p.add_argument("--store", required=True, metavar="PATH",
                   help="SQLite result store holding telemetry rows "
                        "(written by runs with --metrics-file/REPRO_OBS=1)")
    p.add_argument("--campaign",
                   help="restrict to one campaign id (default: merge "
                        "every stored campaign)")
    p.add_argument("--summary", action="store_true",
                   help="operator summary JSON (p50/p95 per stage, cache "
                        "hit rate, queue counters) instead of the text "
                        "exposition")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("casestudy", help="reproduce a paper case study")
    _add_seed(p)
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.set_defaults(fn=cmd_casestudy)

    p = sub.add_parser("grammar", help="print the Listing-2 grammar")
    p.set_defaults(fn=cmd_grammar)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs.logging_setup(args.log_level, verbose=args.verbose)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
