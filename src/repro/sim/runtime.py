"""The simulated OpenMP runtime: team, worksharing, locks, faults.

One :class:`RegionExecutor` instance drives a single execution of a
lowered binary.  The lowered kernel keeps every per-event interaction in
its own locals — event counts, critical-section acquires, the ``omp
for`` schedule walks and their cycles, each team member's lane deltas —
and enters the executor only at region boundaries.  Of the program the
executor knows only each region's team size
(:attr:`~repro.sim.lower.StructuralKernel.teams`), which prices locks,
atomics, barriers, the reduction combine and the livelock split:

* ``prologue`` at kernel entry: the no-region crash fallback, and the
  run's constants the kernel needs (the livelock threshold, the schedule
  and dispatch cycles of a worksharing loop);
* ``region_enter``: team spawn cost, the miscompile crash;
* ``region_exit``: the region's counts, schedule cycles and per-thread
  lanes in one call, folded into
* **virtual time** — a region's elapsed cycles are
  ``spawn + sched + max(per-thread compute) + serialized critical time +
  lock overhead + barriers`` (threads run concurrently, critical sections
  serialize),
* **perf counters** — wait time generates context switches / migrations /
  page faults / spin instructions at vendor-specific rates,
* **profile samples** — cycles are charged to the vendor's runtime symbol
  names so Fig. 6/7 listings can be rendered;
* ``livelock``: the queuing-lock hang (Fig. 9), raised once the kernel's
  acquire count reaches the prologue's threshold inside a region.

The kernel mirrors the :class:`CostState` lanes in fast locals and
synchronizes them with it around ``region_enter`` and ``region_exit``
(the prologue runs before the kernel reads them); ``livelock`` receives
them as arguments.  The per-event cycle charges (atomic RMW, single
arrival, task spawn, ...) are ``_K`` constants the kernel charges
itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from typing import TYPE_CHECKING

from ..errors import SimulatedCrash, SimulatedHang
from ..rng import stable_hash
from .counters import PerfCounters
from .events import ProfileRecorder
from .lower import CostState

if TYPE_CHECKING:  # typing-only: breaks the sim <-> vendors import cycle
    from ..vendors.base import VendorModel


@dataclass(slots=True)
class _RegionAccounting:
    """What ``region_enter`` leaves for the matching ``region_exit``."""

    rid: int
    snap_cy: float
    snap_ccy: float
    spawn_cycles: float = 0.0


class RegionExecutor:
    """Vendor runtime model bound to one run of one binary; ``teams``
    holds each parallel region's team size, by region id."""

    def __init__(
        self,
        vendor: VendorModel,
        teams: tuple[int, ...],
        cost: CostState,
        counters: PerfCounters,
        profile: ProfileRecorder,
        *,
        wrap_fn: Callable[[float], float],
        crash_active: bool = False,
        hang_active: bool = False,
        slow_armed: bool = False,
        fingerprint: str = "",
    ):
        self.vendor = vendor
        self.teams = teams
        self.c = cost
        self.counters = counters
        self.profile = profile
        self.wrap = wrap_fn
        self.crash_active = crash_active
        self.hang_active = hang_active
        self.slow_armed = slow_armed
        self.fingerprint = fingerprint

        self._entries = 0
        self._cur: _RegionAccounting | None = None
        #: cycles attributed to parallel regions (driver derives serial time)
        self.region_cycles_total = 0.0

    # ------------------------------------------------------------------
    # kernel prologue
    # ------------------------------------------------------------------
    def prologue(self) -> tuple[int, float, float]:
        """Called at kernel entry; hosts the no-region crash fallback.

        Returns the run's constants: the run-wide critical-section
        acquire count at which the livelock fault aborts (never, unless
        it is armed for this run), and the cycles one static schedule
        and one dynamic/guided chunk dispatch cost.
        """
        if self.crash_active and not self.teams:
            self._crash()
        rt = self.vendor.runtime
        threshold = (self.vendor.faults.hang_min_acquires
                     if self.hang_active else sys.maxsize)
        return (threshold, rt.omp_for_sched_cycles,
                rt.omp_for_dispatch_cycles)

    def _crash(self) -> None:
        # a miscompiled store: charge a little work, then "segfault"
        self.c.cy += 5_000.0
        raise SimulatedCrash("SIGSEGV", "latent miscompile store out of bounds")

    # ------------------------------------------------------------------
    # region lifecycle
    # ------------------------------------------------------------------
    def region_enter(self, rid: int) -> None:
        if self._cur is not None:
            raise RuntimeError("nested parallel regions are not supported")
        if self.crash_active:
            self._crash()
        rt = self.vendor.runtime
        sym = self.vendor.symbols
        self._entries += 1

        acc = _RegionAccounting(rid=rid, snap_cy=self.c.cy, snap_ccy=self.c.ccy)
        if self._entries == 1:
            acc.spawn_cycles = rt.spawn_cold_cycles
            self.counters.page_faults += rt.spawn_cold_page_faults
            spawn_instr = rt.spawn_cold_instr
        elif self._entries > rt.spawn_thrash_threshold:
            # repeated re-entry (region inside a serial loop): runtimes that
            # do not reuse team resources cleanly pay per-entry allocation
            acc.spawn_cycles = rt.spawn_thrash_cycles
            self.counters.page_faults += rt.spawn_warm_page_faults
            spawn_instr = rt.spawn_warm_instr
        else:
            acc.spawn_cycles = rt.spawn_warm_cycles
            self.counters.page_faults += rt.spawn_warm_page_faults
            spawn_instr = rt.spawn_warm_instr
        self.c.ins += spawn_instr
        # allocator/bookkeeping code is branch-heavy (Table III shows the
        # clang binary's branches scaling with its instruction explosion)
        self.c.br += spawn_instr * 0.25
        self.counters.branch_misses += int(spawn_instr * 0.25 * 0.02)
        self.counters.context_switches += rt.spawn_ctx_switches
        alloc = acc.spawn_cycles * rt.spawn_alloc_fraction
        self.profile.charge(sym.shared_object, sym.spawn,
                            acc.spawn_cycles - alloc)
        self.profile.charge("libc-2.28.so", sym.alloc, alloc)
        self._cur = acc

    # ------------------------------------------------------------------
    # the livelock abort
    # ------------------------------------------------------------------
    def livelock(self, acquires: int, atomics: int, cy: float, ccy: float,
                 ins: float, br: float) -> None:
        """The Case-Study-3 livelock: every thread stuck acquiring the
        queuing lock, split across the three states of the paper's Fig. 9.

        The kernel calls this on the acquire that reaches the prologue's
        threshold, with the aborted region's acquires and atomic updates
        so far and its four cost lanes, which become the run's partial
        cost."""
        t = self.teams[self._require_region().rid]
        # the abort skips region_exit's folding of these counters
        self.counters.critical_acquires += acquires
        self.counters.atomic_updates += atomics
        c = self.c
        c.cy, c.ccy, c.ins, c.br = cy, ccy, ins, br
        sym = self.vendor.symbols
        # faults are functions of the program text, never of the fuzzer's
        # RNG mode: pin the compat derivation explicitly
        h = stable_hash("hang-split", self.fingerprint, mode="compat")
        g1 = max(1, t // 2 + (h % 3) - 1)
        g2 = max(1, (t - g1) // 2)
        g3 = max(0, t - g1 - g2)
        states = {
            sym.wait_secondary: list(range(g1)),
            "__kmp_eq_4": list(range(g1, g1 + g2)),
            sym.yield_: list(range(g1 + g2, g1 + g2 + g3)),
        }
        raise SimulatedHang(elapsed_us=float("inf"), thread_states=states)

    # ------------------------------------------------------------------
    # region exit: fold per-thread lanes into elapsed time + counters
    # ------------------------------------------------------------------
    def region_exit(self, rid: int, comp: float, partials: list[float] | None,
                    op: str | None, sync_rounds: int, atomics: int,
                    acquires: int, sched_cycles: float, compute: list[float],
                    critical: list[float]) -> float:
        """Fold one region into the run: ``sync_rounds`` barrier arrivals
        (``omp for``/``single``/``sections`` ends and explicit barriers,
        one per thread each), ``atomics`` updates and ``acquires``
        critical-section entries, the schedule lane ``sched_cycles``, and
        each thread's ``compute`` and ``critical`` lane deltas in thread
        order.  Returns ``comp`` with the reduction partials combined."""
        acc = self._require_region()
        rt = self.vendor.runtime
        sym = self.vendor.symbols
        t = self.teams[rid]
        self.counters.critical_acquires += acquires
        self.counters.atomic_updates += atomics

        # float reductions stay in Python: sum() is compensated since
        # CPython 3.12, so the kernels must not reorder or re-implement it
        compute_max = max(compute, default=0.0)
        compute_sum = sum(compute)
        crit_total = sum(critical)

        lock_cost = acquires * (rt.lock_base_cycles
                                + (t - 1) * rt.lock_contention_cycles)
        # cache-line ping-pong of contended atomic RMWs, serialized like
        # lock traffic (each update invalidates every other core's copy)
        atomic_cost = atomics * (t - 1) * rt.atomic_contention_cycles
        # implicit barriers: region end, each omp-for end, each single
        # end, each sections end, plus the explicit barrier rounds
        barrier_events = 1 + sync_rounds // max(1, t)
        barrier_cost = barrier_events * rt.barrier_cycles_per_thread * t

        # reduction combine — the combine *order* is implementation-defined
        # (libgomp: linear in thread order; KMP: pairwise tree), and FP
        # non-associativity makes the orders print different values
        combine_cost = 0.0
        if partials is not None and op is not None:
            comp = self._combine_reduction(comp, partials, op,
                                           tree=rt.reduction_tree)
            combine_cost = rt.reduction_combine_cycles_per_thread * t

        # waiting splits into two regimes:
        #  - lock waiting: long queues make KMP sleep -> context switches,
        #    migrations, page faults (the Table II mechanism)
        #  - barrier/imbalance waiting: within the runtime's blocktime the
        #    threads pure-spin -> instructions only
        imbalance = sum(compute_max - x for x in compute)
        lock_wait = (t - 1) * crit_total + lock_cost + atomic_cost
        barrier_wait = imbalance + barrier_cost
        self._apply_wait_side_effects(lock_wait, reschedules=True)
        self._apply_wait_side_effects(barrier_wait, reschedules=False)
        wait = lock_wait + barrier_wait

        elapsed = (acc.spawn_cycles + sched_cycles + compute_max
                   + crit_total + lock_cost + atomic_cost + barrier_cost
                   + combine_cost)
        if self.slow_armed:
            # the pathological path also inflates the runtime-side costs
            # (per-thread compute is already scaled at lowering time)
            elapsed += (acc.spawn_cycles + lock_cost + barrier_cost) \
                * (self.vendor.faults.slow_factor - 1.0)

        # replace the summed per-thread cycles with the concurrent elapsed
        self.c.cy = acc.snap_cy + elapsed
        self.c.ccy = acc.snap_ccy
        self.region_cycles_total += elapsed

        # profile: thread-time view (sums, like perf across 32 threads)
        self.profile.charge(self.profile.binary_name, sym.compute,
                            compute_sum + crit_total)
        self.profile.charge(sym.shared_object, sym.invoke,
                            0.06 * (compute_sum + crit_total))
        self.profile.charge(sym.shared_object, sym.lock, lock_cost)
        self.profile.charge(sym.shared_object, sym.wait_primary,
                            wait * rt.wait_primary_share)
        self.profile.charge(sym.shared_object, sym.wait_secondary,
                            wait * (1.0 - rt.wait_primary_share) * 0.8)
        self.profile.charge("[kernel]", sym.yield_,
                            wait * (1.0 - rt.wait_primary_share) * 0.2)
        self.profile.charge(sym.shared_object, sym.barrier, barrier_cost)

        self._cur = None
        return comp

    def _combine_reduction(self, comp: float, partials: list[float],
                           op: str, *, tree: bool) -> float:
        if not partials:
            return comp
        if op in ("min", "max"):
            # min/max select one of their operands: no rounding, and the
            # combine order cannot change the value (unlike +/*), so the
            # linear and tree strategies coincide
            pick = min if op == "min" else max
            for p in partials:
                comp = pick(comp, p)
            return comp
        apply = ((lambda a, b: self.wrap(a + b)) if op == "+"
                 else (lambda a, b: self.wrap(a * b)))
        if not tree:
            for p in partials:  # linear, thread order (libgomp)
                comp = apply(comp, p)
            return comp
        level = list(partials)  # pairwise tree (KMP lineage)
        while len(level) > 1:
            nxt = [apply(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return apply(comp, level[0])

    def _apply_wait_side_effects(self, wait_cycles: float, *,
                                 reschedules: bool) -> None:
        rt = self.vendor.runtime
        spin_instr = wait_cycles / 1_000.0 * rt.wait_spin_instr_per_kcycle
        self.c.ins += spin_instr
        # spin loops are branch-heavy and mispredict on their exit path
        self.c.br += spin_instr * 0.4
        self.counters.branch_misses += int(spin_instr * 0.02)
        if reschedules:
            m = wait_cycles / 1_000_000.0
            self.counters.context_switches += int(m * rt.wait_ctx_per_mcycle)
            self.counters.cpu_migrations += int(m * rt.wait_migration_per_mcycle)
            self.counters.page_faults += int(m * rt.wait_pf_per_mcycle)

    # ------------------------------------------------------------------
    def _require_region(self) -> _RegionAccounting:
        if self._cur is None:
            raise RuntimeError("OpenMP event outside a parallel region")
        return self._cur
