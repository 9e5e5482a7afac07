"""Execution engines: schedule the campaign grid serially or in parallel.

The campaign grid (``n_programs x inputs_per_program x len(compilers)``)
decomposes into independent *work units*.  A unit is one program with its
batch of inputs: the program is generated, race-filtered, compiled once
per backend (batched compilation — the expensive step is shared by every
input), then each input is executed on every backend and analyzed into a
:class:`~repro.analysis.outliers.TestVerdict`.

Units are described by **indices, not objects**: program generation is a
pure function of ``(config, index)`` (see
:class:`~repro.core.generator.ProgramGenerator`), so a
:class:`WorkUnit` pickles as two integers and a worker process rebuilds
everything it needs from the :class:`ExecutionPlan`.  That is what lets
the same unit run unchanged on every engine:

* :class:`SerialEngine`       — in-order, zero overhead, the reference;
* :class:`ProcessPoolEngine`  — one interpreter per worker, true
  parallelism for the pure-Python simulated pipeline;
* :class:`~repro.fleet.coordinator.FleetEngine` — lease-queue worker
  processes (:mod:`repro.fleet`).

The process engine dispatches units in **chunks**
(:attr:`~repro.config.CampaignConfig.chunk_size`, auto-sized by
default): one future per chunk amortizes executor bookkeeping, pickling,
and progress accounting, and each worker's process-local
:class:`~repro.sim.kcache.KernelCache` stays warm across a chunk's
units.  Chunking never changes results — outcomes are yielded per unit
and verdicts are byte-identical for every chunk size.  Campaign units
and :meth:`~ExecutionEngine.map_unordered` items share one pool loop, so
both retry a chunk whose worker died once on a fresh pool, and both fold
each worker's telemetry into the parent registry.

All engines yield :class:`UnitOutcome`\\ s as they complete (completion
order for the pooled engines).  The progress callback fires once per
differential test — per ``(program, input)``, not per program — unless a
``progress_every`` stride throttles it off the hot path; passing
``progress=None`` skips the accounting entirely.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, as_completed
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from ..analysis.outliers import TestVerdict, analyze_test
from ..config import ENGINE_NAMES, CampaignConfig, ConfigError
from ..core.features import ProgramFeatures, extract_features
from ..core.generator import ProgramGenerator
from ..core.inputs import InputGenerator
from ..core.races import find_races
from ..obs import metrics as _obs
from ..obs.spans import span

#: progress callback: (differential tests completed, tests scheduled)
ProgressFn = Callable[[int, int], None]

#: hard ceiling for automatic chunk sizing — past this, batching no
#: longer measurably amortizes overhead but does delay outcome streaming
_MAX_AUTO_CHUNK = 16


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable slice of the grid: a program and its input batch.

    ``spec`` carries the program's provenance record when the campaign
    uses a non-default :mod:`repro.corpus` source; it is everything a
    worker needs to rematerialize the program (no corpus files travel
    with the unit).  Under the default random source it stays ``None``
    and execution follows the historical ``(config, index)`` path
    unchanged.
    """

    program_index: int
    input_indices: tuple[int, ...]
    spec: "ProgramSpec | None" = None

    @property
    def n_tests(self) -> int:
        return len(self.input_indices)


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """Everything a worker needs to execute any unit of one campaign.

    Backends are the config's ``compilers``, resolved by name from the
    registry inside whichever worker executes the unit.
    """

    config: CampaignConfig
    collect_profiles: bool = False


@dataclass(slots=True)
class UnitOutcome:
    """Everything one work unit produced."""

    program_index: int
    program_name: str
    race_filtered: bool = False
    features: ProgramFeatures | None = None
    verdicts: list[TestVerdict] = field(default_factory=list)


def plan_units(config: CampaignConfig) -> list[WorkUnit]:
    """The full campaign grid as an ordered list of work units.

    Planning is a pure function of ``config``: non-random sources plan
    their whole spec sequence here (coverage feedback and all), so a
    resumed checkpoint, a fleet coordinator, and a serial rerun all
    derive the very same units.
    """
    from ..corpus import plan_specs

    with span("plan", source=config.program_source):
        inputs = tuple(range(config.inputs_per_program))
        specs = plan_specs(config)
        if specs is None:
            return [WorkUnit(i, inputs) for i in range(config.n_programs)]
        return [WorkUnit(i, inputs, spec=specs[i])
                for i in range(config.n_programs)]


def resolve_chunk_size(config: CampaignConfig, n_units: int,
                       jobs: int) -> int:
    """Units per pooled-engine submission.

    An explicit :attr:`~repro.config.CampaignConfig.chunk_size` wins;
    otherwise aim for about four chunks per worker — enough batching to
    amortize dispatch overhead, enough chunks that completion streaming
    and work stealing stay responsive — capped so small grids still
    spread across the pool.
    """
    if config.chunk_size is not None:
        return config.chunk_size
    if n_units <= jobs:
        return 1
    return max(1, min(_MAX_AUTO_CHUNK, -(-n_units // (jobs * 4))))


def execute_unit(plan: ExecutionPlan, unit: WorkUnit) -> UnitOutcome:
    """Run one work unit start to finish (generate, filter, compile, run).

    Pure function of ``(plan, unit)``: generators are re-derived from the
    campaign seed, so any worker — the calling thread or a forked
    process — produces bit-identical outcomes for the same unit.
    """
    from ..backends.registry import get_backend
    from ..sim.backend import use_kernel_backend

    cfg = plan.config
    if cfg.kernel_backend is None:
        # leave the process default (env or set_kernel_backend) in charge
        return _execute_unit_body(plan, unit, cfg, get_backend)
    with use_kernel_backend(cfg.kernel_backend):
        return _execute_unit_body(plan, unit, cfg, get_backend)


def _execute_unit_body(plan: ExecutionPlan, unit: WorkUnit,
                       cfg: CampaignConfig, get_backend) -> UnitOutcome:
    inputs = InputGenerator(cfg.generator, seed=cfg.seed + 1)

    with span("materialize"):
        if unit.spec is not None:
            # provenance-carrying unit: rebuild from the spec alone (pure
            # function of (config, spec) — see repro.corpus)
            from ..corpus import materialize_spec

            program = materialize_spec(cfg, unit.spec)
        else:
            program = ProgramGenerator(
                cfg.generator, seed=cfg.seed).generate(unit.program_index)
    outcome = UnitOutcome(program_index=unit.program_index,
                          program_name=program.name)
    if cfg.generator.allow_data_races and find_races(program):
        # the paper "mitigated this by manually filtering out data race
        # cases in the evaluation" — we filter statically
        outcome.race_filtered = True
        _obs.inc("repro_units_total", result="race_filtered")
        return outcome

    outcome.features = extract_features(program)
    backends = [get_backend(name) for name in cfg.compilers]
    with span("compile"):
        executables = [(b, b.compile(program, cfg.opt_level))
                       for b in backends]
    for j in unit.input_indices:
        test_input = inputs.generate(program, j)
        with span("execute"):
            records = [b.execute(exe, test_input, cfg.machine,
                                 collect_profile=plan.collect_profiles)
                       for b, exe in executables]
        with span("verdict"):
            outcome.verdicts.append(analyze_test(records, cfg.outliers))
        _obs.inc("repro_tests_total")
    _obs.inc("repro_units_total", result="ok")
    return outcome


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

#: called for outcomes that completed but could not be yielded (the
#: consumer abandoned the stream while units were in flight)
SalvageFn = Callable[[UnitOutcome], None]


class ExecutionEngine(ABC):
    """Schedules work units and streams their outcomes."""

    name: str = "abstract"

    @abstractmethod
    def run(self, plan: ExecutionPlan, units: Sequence[WorkUnit], *,
            progress: ProgressFn | None = None,
            progress_every: int | None = None,
            salvage: SalvageFn | None = None) -> Iterator[UnitOutcome]:
        """Yield one :class:`UnitOutcome` per unit as each completes.

        ``progress_every`` throttles the callback to at most one firing
        per that many completed tests (the final total always fires);
        ``None`` keeps the per-test cadence.  ``salvage`` receives
        outcomes that finished while the iterator was being torn down —
        pooled engines wait for in-flight units on interrupt, and
        without a salvage hook that completed work would be silently
        discarded.
        """

    def map_unordered(self, fn: Callable, items: Sequence, *,
                      progress: ProgressFn | None = None) -> Iterator:
        """Apply ``fn`` to independent ``items``, yielding as completed.

        The generic sibling of :meth:`run` for work that is not a
        campaign unit — e.g. outlier reductions, which are mutually
        independent and therefore parallelize exactly like work units.
        ``fn`` and each item must be picklable for the process engine
        (module-level function + dataclass items, same contract as
        :func:`execute_unit`).  Serial engines apply in order; pooled
        engines yield in completion order.  ``progress`` fires once per
        completed item with ``(done, total)``.
        """
        total = len(items)
        for done, item in enumerate(items, 1):
            result = fn(item)
            if progress is not None:
                progress(done, total)
            yield result

    # ------------------------------------------------------------------
    @staticmethod
    def _progress_stepper(units: Sequence[WorkUnit],
                          progress: ProgressFn | None,
                          progress_every: int | None = None):
        """Per-test progress accounting, throttleable.

        With no throttle the callback fires once per (program, input)
        pair, monotonically.  With ``progress_every=N`` it fires when at
        least ``N`` tests accumulated since the last firing (and always
        on the final test), cutting callback overhead on the hot path.
        Race-filtered units still advance the counter by their input
        count so the bar always reaches ``total``.  A ``None`` callback
        costs nothing.
        """
        if progress is None:
            return lambda unit: None
        total = sum(u.n_tests for u in units)
        every = progress_every if progress_every and progress_every > 1 else 1
        done = 0
        unreported = 0

        def step(unit: WorkUnit) -> None:
            nonlocal done, unreported
            if every == 1:
                for _ in range(unit.n_tests):
                    done += 1
                    progress(done, total)
                return
            done += unit.n_tests
            unreported += unit.n_tests
            if unreported >= every or done >= total:
                unreported = 0
                progress(done, total)

        return step


class SerialEngine(ExecutionEngine):
    """In-order execution on the calling thread — the reference engine."""

    name = "serial"

    def run(self, plan: ExecutionPlan, units: Sequence[WorkUnit], *,
            progress: ProgressFn | None = None,
            progress_every: int | None = None,
            salvage: SalvageFn | None = None) -> Iterator[UnitOutcome]:
        # nothing runs between yields, so there is never anything to
        # salvage, and chunking would only delay outcome streaming
        step = self._progress_stepper(units, progress, progress_every)
        for unit in units:
            outcome = execute_unit(plan, unit)
            step(unit)
            yield outcome


# -- process-pool plumbing ---------------------------------------------

def _worker_init() -> None:
    # a forked worker inherits the parent's counters; start it from zero
    # so its snapshots hold only its own work
    _obs.REGISTRY.reset()


def _run_chunk(fn: Callable,
               items: tuple) -> tuple[list, int, int, dict | None]:
    """Apply ``fn`` to one chunk in a pool worker.

    Returns the results with the worker's pid, a monotonic timestamp
    that orders the worker's reports, and its cumulative telemetry
    snapshot (``None`` with telemetry off), so the parent can fold each
    worker's last snapshot in exactly once.
    """
    results = [fn(item) for item in items]
    snapshot = _obs.registry_snapshot() if _obs.enabled() else None
    return results, os.getpid(), time.monotonic_ns(), snapshot


def _keep_latest(reports: dict, pid: int, stamp: int,
                 snapshot: dict | None) -> None:
    if stamp > reports.get(pid, (-1, None))[0]:
        reports[pid] = (stamp, snapshot)


class ProcessPoolEngine(ExecutionEngine):
    """Process-pooled execution: real parallelism for the Python pipeline.

    Outcomes (verdicts, records, features) cross the process boundary by
    pickling; profiles survive too, but custom backends must be defined
    at module import time so worker processes can resolve their names
    from the registry.
    """

    name = "process"

    def __init__(self, jobs: int | None = None):
        if jobs is not None and jobs < 1:
            raise ConfigError("jobs must be >= 1 (or None for auto)")
        #: what was asked for (None = auto); checkpoints persist this so
        #: resuming on a different host re-resolves to *its* CPU count
        self.requested_jobs = jobs
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    def run(self, plan: ExecutionPlan, units: Sequence[WorkUnit], *,
            progress: ProgressFn | None = None,
            progress_every: int | None = None,
            salvage: SalvageFn | None = None) -> Iterator[UnitOutcome]:
        step = self._progress_stepper(units, progress, progress_every)
        size = resolve_chunk_size(plan.config, len(units), self.jobs)
        chunks = [tuple(units[i:i + size])
                  for i in range(0, len(units), size)]
        yield from self._dispatch(partial(execute_unit, plan), chunks, step,
                                  salvage)

    def map_unordered(self, fn: Callable, items: Sequence, *,
                      progress: ProgressFn | None = None) -> Iterator:
        total = len(items)
        done = 0

        def step(_item) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total)

        yield from self._dispatch(fn, [(item,) for item in items], step)

    def _dispatch(self, fn: Callable, chunks: list[tuple],
                  step: Callable[[object], None],
                  salvage: Callable[[object], None] | None = None) -> Iterator:
        """The one pool loop behind :meth:`run` and :meth:`map_unordered`.

        Submits one future per chunk and yields ``fn``'s results as their
        chunks complete, calling ``step(item)`` before each.  A worker
        death (``os._exit``, OOM kill) breaks the whole pool and poisons
        every outstanding future; each poisoned chunk gets ONE retry on a
        fresh pool — re-run from its start, which is safe because ``fn``
        is pure — before the failure surfaces.  Teardown (also reached via
        generator ``close()``) cancels what never started, waits for what
        is running, hands finished but unyielded results to ``salvage``,
        and folds each worker's last telemetry snapshot into this
        process's registry.
        """
        # imported here: it loads multiprocessing, which serial runs and
        # every process's start-up would otherwise pay for
        from concurrent.futures import ProcessPoolExecutor

        pending = [(chunk, 0) for chunk in chunks]
        while pending:
            pool = ProcessPoolExecutor(max_workers=self.jobs,
                                       initializer=_worker_init)
            futures = {pool.submit(_run_chunk, fn, chunk): (chunk, attempt)
                       for chunk, attempt in pending}
            pending = []
            #: pid -> (timestamp, snapshot) of its latest report
            reports: dict[int, tuple[int, dict | None]] = {}
            #: finished (item, result) pairs not yet yielded — an interrupt
            #: can land between two yields of one chunk
            unyielded: list[tuple] = []
            try:
                for fut in as_completed(list(futures)):
                    chunk, attempt = futures.pop(fut)
                    try:
                        results, *report = fut.result()
                    except BrokenExecutor:
                        if attempt >= 1:
                            raise
                        pending.append((chunk, attempt + 1))
                        continue  # siblings that finished still yield
                    _keep_latest(reports, *report)
                    unyielded = list(zip(chunk, results))
                    while unyielded:
                        # progress before the pop: if the callback raises
                        # (Ctrl-C), the result is still salvaged
                        step(unyielded[0][0])
                        yield unyielded.pop(0)[1]
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
                for fut, (chunk, _) in futures.items():
                    if (fut.done() and not fut.cancelled()
                            and fut.exception() is None):
                        results, *report = fut.result()
                        _keep_latest(reports, *report)
                        unyielded.extend(zip(chunk, results))
                if salvage is not None:
                    for _, result in unyielded:
                        salvage(result)
                for _, snapshot in reports.values():
                    if snapshot is not None:
                        _obs.REGISTRY.absorb(snapshot)


def create_engine(name: str, jobs: int | None = None) -> ExecutionEngine:
    """Engine factory: ``"serial"``, ``"process"``, or ``"fleet"``
    (lease-queue worker processes, :mod:`repro.fleet`)."""
    if name == "serial":
        if jobs is not None:
            # an explicit worker count is a parallelism request; dropping
            # it silently would mis-size the run with no signal
            raise ConfigError(
                "jobs requires a pooled engine (process or fleet); "
                "the serial engine always runs one worker")
        return SerialEngine()
    if name == "process":
        return ProcessPoolEngine(jobs)
    if name == "fleet":
        # imported lazily: the fleet package builds on this module
        from ..fleet.coordinator import FleetEngine

        return FleetEngine(jobs)
    raise ConfigError(
        f"unknown execution engine {name!r}; choose from {ENGINE_NAMES}")


def resolve_engine(config: CampaignConfig, engine: str | None = None,
                   jobs: int | None = None) -> ExecutionEngine:
    """The engine a campaign over ``config`` runs on.

    An explicit ``engine`` name wins over ``config.engine``.  ``jobs``
    without an engine name upgrades a config-default serial engine to
    ``process``: asking for workers means "go parallel" unless serial was
    requested explicitly.  ``config.jobs`` sizes a pooled engine when
    ``jobs`` is not given; a serial engine ignores it, so only an
    explicit ``jobs`` conflicts with serial.
    """
    if engine is None:
        engine = config.engine
        if jobs is not None and engine == "serial":
            engine = "process"
    if jobs is None and engine != "serial":
        jobs = config.jobs
    return create_engine(engine, jobs)
