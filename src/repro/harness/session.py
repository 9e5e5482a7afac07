"""CampaignSession: the streaming, resumable front door of the pipeline.

A session owns one campaign grid and tracks which work units (programs
with their input batches) have completed.  On top of that state it offers:

* :meth:`CampaignSession.stream` — an iterator of
  :class:`~repro.analysis.outliers.TestVerdict`\\ s yielded as the chosen
  :class:`~repro.driver.engine.ExecutionEngine` completes them, so a
  long campaign can be consumed, rendered, or aborted mid-flight;
* :meth:`CampaignSession.run` — drain the stream and return the familiar
  :class:`~repro.harness.campaign.CampaignResult` (deterministically
  ordered regardless of engine completion order);
* :meth:`CampaignSession.checkpoint` / :meth:`CampaignSession.resume` —
  JSONL snapshots of every completed unit, full-fidelity enough that a
  resumed session reproduces the exact verdict set of an uninterrupted
  run (outliers are re-derived from the persisted records, so analysis
  is always consistent with the config).

Typical use::

    session = CampaignSession(cfg, engine="process", jobs=4)
    for verdict in session.stream():
        ...                                # interrupt whenever
    session.checkpoint("campaign.jsonl")   # persist completed units

    session = CampaignSession.resume("campaign.jsonl")
    result = session.run()                 # finishes only what's missing
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from pathlib import Path
from typing import Iterator

from ..analysis.outliers import TestVerdict, analyze_test
from ..config import (
    ENGINE_NAMES,
    CampaignConfig,
    _to_dict,
    campaign_from_dict,
)
from ..core.features import ProgramFeatures
from ..driver.engine import (
    ExecutionEngine,
    ExecutionPlan,
    ProgressFn,
    UnitOutcome,
    WorkUnit,
    plan_units,
    resolve_engine,
)
from ..driver.records import RunRecord
from ..errors import ConfigError
from .campaign import CampaignResult

_CHECKPOINT_VERSION = 1


class CampaignSession:
    """One campaign grid: schedulable, streamable, checkpointable."""

    def __init__(self, config: CampaignConfig | None = None, *,
                 engine: str | ExecutionEngine | None = None,
                 jobs: int | None = None,
                 collect_profiles: bool = False):
        """``engine`` and ``jobs`` resolve against the config as
        :func:`~repro.driver.engine.resolve_engine` describes (``jobs``
        alone means "go parallel"); an engine instance is used as is."""
        self.config = config if config is not None else CampaignConfig()
        if not isinstance(engine, ExecutionEngine):
            engine = resolve_engine(self.config, engine, jobs)
        elif jobs is not None:
            # an ExecutionEngine instance carries its own worker count;
            # silently dropping the explicit jobs request would mis-size
            # the pool with no signal
            raise ConfigError(
                "jobs cannot be combined with an ExecutionEngine instance; "
                "size the engine at construction instead")
        self.engine: ExecutionEngine = engine
        self.collect_profiles = collect_profiles
        self._plan = ExecutionPlan(config=self.config,
                                   collect_profiles=collect_profiles)
        self._units = plan_units(self.config)
        self._outcomes: dict[int, UnitOutcome] = {}
        self._elapsed = 0.0
        self._stream_t0: float | None = None  # set while stream() is live

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def total_tests(self) -> int:
        """Scheduled differential tests (program x input pairs)."""
        return self.config.n_programs * self.config.inputs_per_program

    @property
    def completed_tests(self) -> int:
        return sum(len(u.input_indices) for u in self._units
                   if u.program_index in self._outcomes)

    def pending_units(self) -> list[WorkUnit]:
        return [u for u in self._units
                if u.program_index not in self._outcomes]

    @property
    def done(self) -> bool:
        return not self.pending_units()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def stream(self, *, progress: ProgressFn | None = None,
               progress_every: int | None = None) -> Iterator[TestVerdict]:
        """Yield verdicts as the engine completes them.

        Completion order is engine-dependent; every yielded verdict is
        already part of the session state, so interrupting the iterator
        loses nothing that was yielded — :meth:`checkpoint` afterwards
        persists exactly the completed units.  Progress fires once per
        differential test against the *whole* grid, so a resumed session
        picks up the bar where it left off; ``progress_every=N``
        throttles the callback to roughly every ``N`` tests (the final
        total always reports).  With ``progress=None`` the engine skips
        progress accounting entirely — no per-test bookkeeping runs on
        the hot path.
        """
        if self._stream_t0 is not None:
            raise ConfigError(
                "a stream() is already running on this session; a second "
                "concurrent iteration would execute the same units twice")
        pending = self.pending_units()
        if not pending:
            return
        offset = self.completed_tests
        total = self.total_tests

        on_progress: ProgressFn | None = None
        if progress is not None:
            def on_progress(done: int, _batch_total: int) -> None:
                progress(offset + done, total)

        def salvage(outcome: UnitOutcome) -> None:
            # units that finished while an interrupt unwound the engine:
            # completed work, kept so checkpoints don't re-run it
            self._outcomes[outcome.program_index] = outcome

        t0 = self._stream_t0 = time.perf_counter()
        try:
            for outcome in self.engine.run(self._plan, pending,
                                           progress=on_progress,
                                           progress_every=progress_every,
                                           salvage=salvage):
                self._outcomes[outcome.program_index] = outcome
                yield from outcome.verdicts
        finally:
            self._elapsed += time.perf_counter() - t0
            self._stream_t0 = None

    def run(self, *, progress: ProgressFn | None = None,
            progress_every: int | None = None) -> CampaignResult:
        """Execute everything still pending and assemble the result.

        The result is ordered by program index then input index — the
        same order the seed's sequential runner produced — no matter
        which engine ran the grid or how a resumed session was split.
        """
        for _ in self.stream(progress=progress,
                             progress_every=progress_every):
            pass
        return self.result()

    def ingest(self, outcome: UnitOutcome) -> bool:
        """Record a unit executed elsewhere (fleet coordinator, result
        store) as completed session state.  First write wins — a
        duplicate of an already-completed unit is dropped and reported
        ``False``, mirroring the fleet queue's completion semantics."""
        if not 0 <= outcome.program_index < self.config.n_programs:
            raise ConfigError(
                f"outcome for program index {outcome.program_index} is "
                f"outside this campaign's grid of "
                f"{self.config.n_programs} programs")
        if outcome.program_index in self._outcomes:
            return False
        self._outcomes[outcome.program_index] = outcome
        return True

    def add_elapsed(self, seconds: float) -> None:
        """Credit wall-clock time spent driving this session externally.

        The fleet coordinator pumps completions outside :meth:`stream`,
        so its wait-loop time is accounted here rather than by poking
        the private elapsed counter from outside.
        """
        if seconds < 0:
            raise ConfigError("add_elapsed needs seconds >= 0")
        self._elapsed += seconds

    # ------------------------------------------------------------------
    # triage
    # ------------------------------------------------------------------
    def outlier_coordinates(self) -> list[tuple[int, int, str, str]]:
        """Grid coordinates of every outlier among the completed units:
        ``(program_index, input_index, vendor, kind value)``, in
        deterministic grid order."""
        coords: list[tuple[int, int, str, str]] = []
        for index in sorted(self._outcomes):
            for verdict in self._outcomes[index].verdicts:
                for o in verdict.outliers:
                    coords.append((index, verdict.input_index, o.vendor,
                                   o.kind.value))
        return coords

    def triage(self, *, progress: ProgressFn | None = None):
        """Reduce and bucket every outlier of the completed units.

        Each outlier becomes one :class:`~repro.reduce.jobs.TriageJob` —
        reductions are mutually independent, so they are scheduled
        through this session's engine exactly like campaign work units
        (a process pool reduces outliers in parallel).  Returns a
        :class:`~repro.reduce.triage.TriageReport`; pair it with
        :func:`~repro.reduce.bundle.write_triage_artifacts` to lay
        reproducer bundles out on disk.  ``progress`` fires once per
        completed reduction with ``(done, total)``.
        """
        from ..reduce.jobs import TriageJob, run_triage_job
        from ..reduce.triage import assemble_report

        jobs = [TriageJob(self.config, pi, ii, vendor, kind)
                for pi, ii, vendor, kind in self.outlier_coordinates()]
        triaged = list(self.engine.map_unordered(run_triage_job, jobs,
                                                 progress=progress))
        return assemble_report(triaged)

    def result(self) -> CampaignResult:
        """Assemble a :class:`CampaignResult` from the completed units."""
        result = CampaignResult(config=self.config)
        result.elapsed_seconds = self._elapsed
        for index in sorted(self._outcomes):
            outcome = self._outcomes[index]
            if outcome.race_filtered:
                result.race_filtered.append(outcome.program_name)
                continue
            if outcome.features is not None:
                result.features[outcome.program_name] = outcome.features
            result.verdicts.extend(outcome.verdicts)
        return result

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def _elapsed_now(self) -> float:
        """Elapsed campaign seconds, counting a live stream() in flight."""
        if self._stream_t0 is not None:
            return self._elapsed + (time.perf_counter() - self._stream_t0)
        return self._elapsed

    def checkpoint(self, path: str | Path) -> int:
        """Write a JSONL snapshot of every completed unit.

        Line 1 is a header (format version + the full campaign config);
        each following line is one completed unit with its full-fidelity
        run records.  Safe to call while :meth:`stream` is live (the CLI
        does, periodically).  Returns the number of unit lines written.
        """
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_suffix(p.suffix + ".tmp")
        # persist the *effective* engine/jobs (e.g. the jobs-implies-
        # process upgrade), so a bare resume() continues the way the
        # interrupted campaign was actually running; custom engine
        # instances with unknown names fall back to the config's fields
        header_config = self.config
        if self.engine.name in ENGINE_NAMES:
            header_config = dataclasses.replace(
                header_config, engine=self.engine.name,
                jobs=getattr(self.engine, "requested_jobs",
                             header_config.jobs))
        n = 0
        with tmp.open("w") as fh:
            header = {
                "kind": "header",
                "version": _CHECKPOINT_VERSION,
                "config": _to_dict(header_config),
                "collect_profiles": self.collect_profiles,
                "elapsed_seconds": self._elapsed_now(),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index in sorted(self._outcomes):
                fh.write(json.dumps(outcome_to_row(self._outcomes[index]),
                                    sort_keys=True) + "\n")
                n += 1
        tmp.replace(p)  # atomic: a torn write never corrupts a checkpoint
        return n

    def open_checkpoint(self, path: str | Path) -> "CheckpointWriter":
        """Open an incremental checkpoint for periodic snapshotting.

        :meth:`checkpoint` rewrites the full snapshot each call — fine
        occasionally, quadratic if done every few tests on a huge grid.
        The returned :class:`CheckpointWriter` appends only the units
        completed since its last ``update()``, keeping total checkpoint
        I/O linear in campaign size.
        """
        return CheckpointWriter(self, path)

    @classmethod
    def resume(cls, path: str | Path, *,
               engine: str | ExecutionEngine | None = None,
               jobs: int | None = None) -> "CampaignSession":
        """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

        The campaign config is restored from the header; completed units
        are marked done and their verdicts re-derived from the persisted
        records, so ``resume(p).run()`` executes only the remaining grid
        and returns a result identical to an uninterrupted run.  Pass
        ``engine``/``jobs`` to finish with a different engine than the
        one interrupted.

        A hard kill mid-append can leave the final line torn; the tail
        is dropped with a :class:`RuntimeWarning` (its unit simply
        re-runs) and calling :meth:`checkpoint` afterwards rewrites the
        file cleanly.  Corruption anywhere before the tail still raises.
        """
        header, rows = read_checkpoint(path)
        config = campaign_from_dict(header["config"])
        session = cls(config, engine=engine, jobs=jobs,
                      collect_profiles=header.get("collect_profiles", False))
        session._elapsed = float(header.get("elapsed_seconds", 0.0))
        for i, row in enumerate(rows):
            if row.get("kind") == "elapsed":
                # appended by CheckpointWriter.update(); the last one wins
                session._elapsed = float(row.get("elapsed_seconds", 0.0))
                continue
            try:
                outcome = outcome_from_row(row, config)
            except (ConfigError, KeyError, TypeError, ValueError) as exc:
                if i == len(rows) - 1:
                    # parseable JSON but a malformed unit row: the other
                    # face of a torn trailing append
                    warnings.warn(
                        f"checkpoint {path}: dropping malformed final row "
                        f"({exc}); its unit will re-run",
                        RuntimeWarning, stacklevel=2)
                    continue
                raise ConfigError(
                    f"checkpoint {path} is corrupt (bad unit row "
                    f"{i + 2}): {exc}") from exc
            session._outcomes[outcome.program_index] = outcome
        return session


class CheckpointWriter:
    """Append-only incremental checkpointing for a live session.

    Opens with a full (atomic) snapshot, then each :meth:`update` appends
    only the units completed since the previous call plus a refreshed
    elapsed-time row, so periodic snapshots cost O(new work), not O(all
    work).  :meth:`CampaignSession.resume` reads the result like any
    checkpoint — later rows win, and a torn trailing append (hard kill
    mid-write) is dropped.
    """

    def __init__(self, session: CampaignSession, path: str | Path):
        self.session = session
        self.path = Path(path)
        session.checkpoint(self.path)
        self._written = set(session._outcomes)

    def update(self) -> int:
        """Append units completed since the last write; returns how many."""
        session = self.session
        new = sorted(set(session._outcomes) - self._written)
        if not new:
            return 0
        with self.path.open("a") as fh:
            for index in new:
                fh.write(json.dumps(outcome_to_row(session._outcomes[index]),
                                    sort_keys=True) + "\n")
            fh.write(json.dumps({"kind": "elapsed",
                                 "elapsed_seconds": session._elapsed_now()})
                     + "\n")
        self._written.update(new)
        return len(new)


# ----------------------------------------------------------------------
# checkpoint parsing / row codecs (shared with the fleet result store)
# ----------------------------------------------------------------------

def read_checkpoint(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a checkpoint file into ``(header, rows)``.

    Validates the header line and format version.  A torn trailing line
    (truncated JSON from a hard kill mid-append) is dropped with a
    :class:`RuntimeWarning` rather than raised — the unit it held simply
    re-runs; bad JSON anywhere *before* the final line still raises
    :class:`~repro.errors.ConfigError`.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"checkpoint file not found: {p}")
    with p.open() as fh:
        lines = [line for line in (l.strip() for l in fh) if line]
    if not lines:
        raise ConfigError(f"checkpoint {p} is empty")
    rows: list[dict] = []
    for i, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                # torn trailing append from a hard kill: drop it
                warnings.warn(
                    f"checkpoint {p}: dropping torn trailing line "
                    f"({exc}); its unit will re-run",
                    RuntimeWarning, stacklevel=2)
                break
            raise ConfigError(
                f"checkpoint {p} is corrupt (bad JSON line "
                f"{i + 1}): {exc}") from exc
    if not rows:
        raise ConfigError(f"checkpoint {p} has no readable lines")
    header = rows[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ConfigError(f"checkpoint {p} lacks a header line")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {p} has version {header.get('version')!r}; "
            f"this build reads version {_CHECKPOINT_VERSION}")
    return header, rows[1:]


def outcome_to_row(outcome: UnitOutcome) -> dict:
    return {
        "kind": "unit",
        "program_index": outcome.program_index,
        "program_name": outcome.program_name,
        "race_filtered": outcome.race_filtered,
        "features": (None if outcome.features is None
                     else outcome.features.as_dict()),
        "tests": [
            {"input_index": v.input_index,
             "records": [r.to_row() for r in v.records]}
            for v in outcome.verdicts
        ],
    }


def outcome_from_row(row: dict, config: CampaignConfig) -> UnitOutcome:
    if row.get("kind") != "unit":
        raise ConfigError(f"unexpected checkpoint row kind {row.get('kind')!r}")
    features = row.get("features")
    verdicts = [
        analyze_test([RunRecord.from_row(r) for r in test["records"]],
                     config.outliers)
        for test in row.get("tests", ())
    ]
    return UnitOutcome(
        program_index=int(row["program_index"]),
        program_name=row["program_name"],
        race_filtered=bool(row.get("race_filtered", False)),
        features=None if features is None else ProgramFeatures(**features),
        verdicts=verdicts,
    )
