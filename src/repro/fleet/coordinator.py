"""Fleet coordinator: shard a campaign grid across worker processes.

Two entry points share the queue machinery:

* :class:`FleetEngine` — the :class:`~repro.driver.engine.ExecutionEngine`
  adapter.  ``CampaignSession(cfg, engine="fleet", jobs=4)`` runs the
  grid through a coordinator-owned :class:`~repro.fleet.queue.WorkQueue`
  served over a loopback socket to ``jobs`` locally spawned worker
  processes — same streaming/salvage contract as the in-process engines,
  so sessions, checkpoints, and the CLI work unchanged.
* :class:`FleetCoordinator` — the service form for long campaigns:
  explicit ``serve()`` address for externally launched workers
  (``repro-omp fleet worker``), optional
  :class:`~repro.fleet.store.ResultStore` persistence after every
  completed unit, and restart-from-store (a new coordinator over the
  same config re-queues only what the store has not yet seen).

Scheduling policy — deadlines, heartbeats, bounded retry with backoff,
straggler re-dispatch, first-write-wins completion — lives entirely in
the queue; the coordinator just pumps completions out of it.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import secrets
import time
import warnings
from typing import Iterator, Sequence

from ..config import CampaignConfig
from ..driver.engine import (
    ExecutionEngine,
    ExecutionPlan,
    ProgressFn,
    SalvageFn,
    UnitOutcome,
    WorkUnit,
)
from ..errors import ConfigError, FleetDegradedWarning, FleetError
from ..harness.campaign import CampaignResult
from ..harness.session import CampaignSession
from ..obs import log_context
from ..obs import metrics as _obs
from .queue import DEFAULT_AUTHKEY, QueueServer, WorkQueue
from .store import StoreWriteBuffer, campaign_key
from .worker import _worker_process_entry, worker_loop

log = logging.getLogger(__name__)


#: how long the engine's pump loop sleeps between queue sweeps
_ENGINE_POLL_S = 0.02


def _spawn_worker(address: tuple[str, int], authkey: bytes, *,
                  batch: int = 1, poll_s: float = 0.05) -> mp.Process:
    proc = mp.Process(target=_worker_process_entry,
                      args=(address, authkey, batch, poll_s),
                      name="repro-fleet-worker", daemon=True)
    proc.start()
    return proc


def _dead_unit_error(dead: list[tuple[int, str]]) -> FleetError:
    detail = "; ".join(f"unit {uid}: {reason}" for uid, reason in dead[:3])
    more = f" (+{len(dead) - 3} more)" if len(dead) > 3 else ""
    return FleetError(
        f"{len(dead)} unit(s) exhausted their retry budget — {detail}{more}")


class FleetEngine(ExecutionEngine):
    """Run units through a local fleet of worker processes.

    The engine owns the whole arrangement per :meth:`run` call: an
    in-process :class:`WorkQueue` over the given units, a
    :class:`QueueServer` on loopback with a fresh random authkey, and
    ``jobs`` worker processes draining it.  Workers that die (crash,
    OOM-kill) are respawned while the campaign is unfinished, within a
    restart budget; units whose own retry budget is spent surface as a
    :class:`~repro.errors.FleetError` after the survivors complete.

    ``map_unordered`` is inherited serial: triage reductions are
    in-process work and gain nothing from the socket hop.
    """

    name = "fleet"

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
        if not units:
            return
        step = self._progress_stepper(units, progress, progress_every)
        by_id = {u.program_index: u for u in units}
        queue = WorkQueue(plan, units)
        authkey = secrets.token_bytes(16)
        server = QueueServer(queue, authkey=authkey)
        procs = [_spawn_worker(server.address, authkey)
                 for _ in range(self.jobs)]
        restarts = 2 * self.jobs
        #: completions pulled off the queue but not yet yielded — an
        #: interrupt between yields must hand these to the salvage hook
        unyielded: list[UnitOutcome] = []
        try:
            while True:
                finished = queue.finished()
                unyielded.extend(o for _, o in queue.collect())
                while unyielded:
                    step(by_id[unyielded[0].program_index])
                    yield unyielded.pop(0)
                if finished:
                    break
                procs = [p for p in procs if p.is_alive()]
                while len(procs) < self.jobs and restarts > 0:
                    restarts -= 1
                    procs.append(_spawn_worker(server.address, authkey))
                if not procs:
                    # graceful degradation: the distributed substrate is
                    # gone (every worker died, restart budget spent) but
                    # units are pure functions of their indices — finish
                    # the grid in-process rather than abandoning it
                    warnings.warn(
                        "every fleet worker died and the restart budget "
                        "is spent; falling back to in-process serial "
                        "execution for the remaining units",
                        FleetDegradedWarning, stacklevel=2)
                    log.error(
                        "fleet degraded: %s; finishing the remaining "
                        "units in-process", queue.stats())
                    _obs.inc("repro_degradation_events_total")
                    worker_loop(queue, worker_id="fleet-inline-degraded")
                    continue
                time.sleep(_ENGINE_POLL_S)
            dead = queue.dead_units()
            if dead:
                raise _dead_unit_error(dead)
        finally:
            if _obs.enabled() and queue.finished():
                # let workers flush their final metrics report before the
                # transport goes away (only on the happy path — interrupts
                # must not linger); a worker that misses the window just
                # leaves its last-but-one cumulative snapshot in place
                for p in procs:
                    p.join(timeout=2)
            server.close()
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5)
            if _obs.enabled():
                for snap in queue.worker_metrics().values():
                    try:
                        _obs.REGISTRY.absorb(snap)
                    except Exception:
                        log.warning("discarding malformed worker metrics "
                                    "snapshot", exc_info=True)
            if salvage is not None:
                unyielded.extend(o for _, o in queue.collect())
                for outcome in unyielded:
                    salvage(outcome)


class FleetCoordinator:
    """The service form: serve a campaign's queue to external workers.

    Holds a serial :class:`CampaignSession` as the authoritative state;
    every completion pulled from the queue is ingested there (and, when
    a :class:`~repro.fleet.store.ResultStore` is attached, persisted
    immediately — crash the coordinator at any point and a successor
    over the same config resumes from the store, re-queueing only the
    units it has not seen).

    Typical use::

        store = ResultStore("campaign.db")
        with FleetCoordinator(cfg, store=store) as coord:
            addr = coord.serve(port=7171)      # workers connect here
            coord.spawn_workers(2)             # or launch them remotely
            result = coord.wait(progress=bar)
    """

    def __init__(self, config: CampaignConfig, *,
                 store=None,
                 store_buffer: StoreWriteBuffer | None = None,
                 campaign_id: str | None = None,
                 collect_profiles: bool = False,
                 lease_seconds: float = 60.0,
                 max_attempts: int = 3,
                 backoff_s: float = 0.25,
                 straggler_after: float | None = None):
        if store is not None and store_buffer is not None:
            raise ConfigError(
                "pass store or store_buffer, not both (a buffer already "
                "wraps its store)")
        self.config = config
        self.session = CampaignSession(config, engine="serial",
                                       collect_profiles=collect_profiles)
        self.campaign_id: str | None = None
        self.store_buffer: StoreWriteBuffer | None = None
        if store_buffer is not None:
            # supervisor-owned buffer, shared across coordinator
            # incarnations so parked writes survive a coordinator crash
            if campaign_id not in (None, store_buffer.campaign_id):
                raise ConfigError(
                    f"campaign_id {campaign_id!r} conflicts with the "
                    f"store buffer's {store_buffer.campaign_id!r}")
            store = store_buffer.store
            self.campaign_id = store_buffer.campaign_id
            self.store_buffer = store_buffer
        elif store is not None:
            self.campaign_id = store.ensure_campaign(config, campaign_id)
            self.store_buffer = StoreWriteBuffer(store, self.campaign_id)
        self.store = store
        if store is not None:
            for outcome in store.outcomes(self.campaign_id):
                self.session.ingest(outcome)
        if self.store_buffer is not None:
            # outcomes parked by a predecessor's dying store are session
            # state too — without them a successor would re-run units the
            # buffer already holds
            for outcome in self.store_buffer.pending_outcomes():
                self.session.ingest(outcome)
        log_context(campaign=self.campaign_id or campaign_key(config))
        plan = ExecutionPlan(config=config, collect_profiles=collect_profiles)
        self.queue = WorkQueue(plan, self.session.pending_units(),
                               lease_seconds=lease_seconds,
                               max_attempts=max_attempts,
                               backoff_s=backoff_s,
                               straggler_after=straggler_after)
        self._server: QueueServer | None = None
        self._authkey: bytes = DEFAULT_AUTHKEY
        self._procs: list[mp.Process] = []

    # ------------------------------------------------------------------
    def serve(self, *, host: str = "127.0.0.1", port: int = 0,
              authkey: bytes = DEFAULT_AUTHKEY) -> tuple[str, int]:
        """Expose the queue on a socket; returns the bound address."""
        if self._server is not None:
            raise FleetError("coordinator is already serving")
        self._authkey = authkey
        self._server = QueueServer(self.queue, host=host, port=port,
                                   authkey=authkey)
        return self._server.address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise FleetError("coordinator is not serving; call serve() first")
        return self._server.address

    def spawn_workers(self, n: int, *, batch: int = 1,
                      poll_s: float = 0.05) -> list[mp.Process]:
        """Launch ``n`` local worker processes against this queue."""
        if self._server is None:
            self.serve()
        procs = [_spawn_worker(self.address, self._authkey,
                               batch=batch, poll_s=poll_s)
                 for _ in range(n)]
        self._procs.extend(procs)
        return procs

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain queue completions into the session (and store).

        Returns how many *new* units were ingested; duplicates (a
        straggler race already resolved first-write-wins by the queue,
        or a unit the store already held) count zero.

        Store writes go through a :class:`~repro.fleet.store.
        StoreWriteBuffer`: a failing store cannot desynchronize session
        from store (the write parks and retries with backoff) and cannot
        drop the rest of a collected batch (``collect()`` drains the
        queue's fresh list — an exception mid-batch would lose every
        outcome after it).
        """
        n = 0
        for _uid, outcome in self.queue.collect():
            if self.session.ingest(outcome):
                n += 1
                if self.store_buffer is not None:
                    self.store_buffer.record(outcome)
        if self.store_buffer is not None:
            self.store_buffer.retry_due()
        return n

    def telemetry(self) -> dict:
        """The coordinator's fleet-wide metrics snapshot: this process's
        registry (queue + store + any in-process execution) merged with
        the latest cumulative snapshot from every reporting worker."""
        return _obs.merge_snapshots(
            [_obs.registry_snapshot(),
             *self.queue.worker_metrics().values()])

    def _persist_telemetry(self) -> None:
        if (self.store is None or self.campaign_id is None
                or not _obs.enabled()):
            return
        try:
            self.store.record_telemetry(self.campaign_id, self.telemetry())
        except Exception:
            log.warning("could not persist campaign telemetry",
                        exc_info=True)

    def wait(self, *, poll_s: float = 0.05, timeout: float | None = None,
             progress: ProgressFn | None = None) -> CampaignResult:
        """Pump completions until the grid is finished; return the result.

        Raises :class:`~repro.errors.FleetError` if units died (retry
        budget spent) or ``timeout`` elapsed first.  A timeout shuts the
        arrangement down (:meth:`close`) before raising — no live worker
        processes or bound socket outlive the failed wait.  Progress
        fires with ``(completed tests, total tests)`` against the whole
        grid, counting units restored from the store.
        """
        t0 = time.monotonic()
        while True:
            self.poll()
            if progress is not None:
                progress(self.session.completed_tests,
                         self.session.total_tests)
            if self.queue.finished():
                self.poll()  # completions that landed since the drain
                break
            if timeout is not None and time.monotonic() - t0 > timeout:
                stats = self.queue.stats()
                self.session.add_elapsed(time.monotonic() - t0)
                self.close()
                raise FleetError(
                    f"fleet campaign unfinished after {timeout:.1f}s "
                    f"({stats}); workers and socket shut down")
            time.sleep(poll_s)
        self.session.add_elapsed(time.monotonic() - t0)
        if self.store_buffer is not None:
            self.store_buffer.flush()
            if self.store_buffer.pending:
                warnings.warn(
                    f"campaign finished but {self.store_buffer.pending} "
                    f"completed unit(s) could not be persisted to the "
                    f"store (last error: {self.store_buffer.last_error}); "
                    f"verdicts are complete in memory only",
                    FleetDegradedWarning, stacklevel=2)
                log.error(
                    "store still failing at campaign end: %d outcome(s) "
                    "unpersisted (last error: %s)",
                    self.store_buffer.pending, self.store_buffer.last_error)
        dead = self.queue.dead_units()
        if dead:
            raise _dead_unit_error(dead)
        self._persist_telemetry()
        return self.session.result()

    def close(self) -> None:
        self.queue.close()
        if self._server is not None:
            self._server.close()
            self._server = None
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=5)
        self._procs.clear()
        if self.store_buffer is not None:
            self.store_buffer.flush()  # never raises; parks on failure

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
