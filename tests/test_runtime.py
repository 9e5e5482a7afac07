"""Tests for the simulated OpenMP runtime (RegionExecutor).

Lowered kernels keep every per-event interaction in the kernel and enter
the executor only at ``prologue``, ``region_enter``, ``region_exit`` and
the ``livelock`` abort.  The region tests drive that contract the way a
kernel does: the kernel's summed lanes flushed into the cost state, then
one ``region_exit`` with the region's counts, schedule cycles and
per-thread lane deltas.  Chunking and the acquire loop now run inside
the kernels, so those tests run lowered kernels under every available
backend.
"""

import pytest

from repro.core.nodes import (
    Assignment,
    Block,
    ForLoop,
    FPNumeral,
    IntNumeral,
    OmpCritical,
    OmpParallel,
    VarRef,
)
from repro.core.types import AssignOpKind, OmpClauses, Variable, VarKind
from repro.errors import SimulatedCrash, SimulatedHang
from repro.sim.backend import _c_available
from repro.sim.counters import PerfCounters
from repro.sim.events import ProfileRecorder
from repro.sim.lower import CostState, StructuralLowerer, bind_costs
from repro.sim.runtime import RegionExecutor
from repro.vendors import CLANG, GCC, INTEL
from test_lowering import _mk
from test_schedules import walk

#: the kernel backends this host can run
BACKENDS = ("interp", "c") if _c_available()[0] else ("interp",)


def _executor(vendor=GCC, *, teams=None, threads=4, **kw):
    teams = teams if teams is not None else (threads,)
    cost = CostState()
    return RegionExecutor(vendor, teams, cost, PerfCounters(),
                          ProfileRecorder(binary_name="t"),
                          wrap_fn=lambda x: x, **kw), cost


def _exit(ex, compute=(), critical=(), *, sync=0, atomics=0, acquires=0,
          sched=0.0, rid=0):
    """``region_exit`` of a region without a reduction, as a kernel makes
    it."""
    return ex.region_exit(rid, 0.0, None, None, sync, atomics, acquires,
                          sched, list(compute), list(critical))


#: default-schedule cases of the chunking tests: one kernel serves them
_DEFAULT = tuple(("static", 0, t) for t in (4, 8, 32))


class TestChunking:
    @pytest.mark.parametrize("n,threads", [(0, 4), (1, 4), (13, 4), (16, 4),
                                           (100, 32), (3, 8)])
    def test_chunks_partition_range(self, n, threads):
        for backend in BACKENDS:
            per = walk(backend, _DEFAULT, ("static", 0, threads), n)
            covered = [i for iters, _ in per for i in iters]
            assert covered == list(range(n)), backend

    def test_chunks_are_balanced(self):
        for backend in BACKENDS:
            per = walk(backend, _DEFAULT, ("static", 0, 4), 14)
            sizes = [len(iters) for iters, _ in per]
            assert max(sizes) - min(sizes) <= 1, backend


class TestRegionAccounting:
    def test_elapsed_is_max_thread_plus_overheads(self):
        ex, cost = _executor(threads=2)
        ex.region_enter(0)
        # thread 0 computes 1000 cycles, thread 1 computes 3000; the
        # kernel flushes their summed lanes before the exit
        cost.cy += 4000.0
        _exit(ex, compute=(1000.0, 3000.0), critical=(0.0, 0.0))
        # cycles were replaced by snapshot + elapsed, not the 4000 sum
        region_elapsed = cost.cy
        assert region_elapsed < 4000.0 + ex.vendor.runtime.spawn_cold_cycles \
            + 100_000
        assert region_elapsed >= 3000.0  # at least the slowest thread

    def test_critical_time_serializes(self):
        ex, cost = _executor(threads=2)
        ex.region_enter(0)
        # each thread enters the critical section once, for 500 cycles
        cost.ccy += 1000.0
        _exit(ex, compute=(0.0, 0.0), critical=(500.0, 500.0), acquires=2)
        # both threads' critical bodies must appear in elapsed (serialized)
        assert cost.cy >= 1000.0
        assert cost.ccy == 0.0  # folded back
        assert ex.counters.critical_acquires == 2

    def test_cold_then_warm_spawn(self):
        ex, _ = _executor(vendor=GCC)
        ex.region_enter(0)
        _exit(ex)
        pf_after_cold = ex.counters.page_faults
        ex.region_enter(0)
        _exit(ex)
        pf_after_warm = ex.counters.page_faults
        assert pf_after_cold == GCC.runtime.spawn_cold_page_faults
        assert pf_after_warm - pf_after_cold == GCC.runtime.spawn_warm_page_faults

    def test_clang_thrash_mode_engages_after_threshold(self):
        ex, cost = _executor(vendor=CLANG)
        costs = []
        for i in range(CLANG.runtime.spawn_thrash_threshold + 3):
            before = cost.cy
            ex.region_enter(0)
            _exit(ex)
            costs.append(cost.cy - before)
        # entries beyond the threshold pay the thrash cost
        assert costs[-1] > costs[2] * 3

    def test_nested_region_enter_rejected(self):
        ex, _ = _executor()
        ex.region_enter(0)
        with pytest.raises(RuntimeError):
            ex.region_enter(0)

    def test_event_outside_region_rejected(self):
        # a region's events reach the runtime with its exit, and there
        # is no exit without an enter
        ex, _ = _executor()
        with pytest.raises(RuntimeError):
            _exit(ex, compute=(0.0,) * 4, critical=(0.0,) * 4, acquires=1)

    def test_livelock_outside_region_rejected(self):
        # the livelock splits the open region's team, so with no region
        # open it fails as region_exit does
        ex, _ = _executor(vendor=INTEL)
        with pytest.raises(RuntimeError) as exit_error:
            _exit(ex)
        with pytest.raises(RuntimeError) as livelock_error:
            ex.livelock(1, 0, 0.0, 0.0, 0.0, 0.0)
        assert str(livelock_error.value) == str(exit_error.value)
        assert ex.counters.critical_acquires == 0  # rejected before use

    def test_livelock_splits_the_open_regions_team(self):
        ex, _ = _executor(vendor=INTEL, teams=(4, 8))
        ex.region_enter(1)
        with pytest.raises(SimulatedHang) as exc:
            ex.livelock(1, 0, 0.0, 0.0, 0.0, 0.0)
        states = exc.value.thread_states
        assert sorted(t for v in states.values() for t in v) == list(range(8))

    def test_counts_fold_into_the_counters(self):
        ex, _ = _executor(threads=4)
        ex.region_enter(0)
        _exit(ex, compute=(0.0,) * 4, critical=(0.0,) * 4, atomics=7,
              acquires=5)
        assert ex.counters.atomic_updates == 7
        assert ex.counters.critical_acquires == 5

    def test_sync_rounds_and_schedule_cycles_add_time(self):
        def elapsed(**counts):
            ex, cost = _executor(threads=4)
            ex.region_enter(0)
            _exit(ex, compute=(0.0,) * 4, critical=(0.0,) * 4, **counts)
            return cost.cy

        base = elapsed()
        barrier = GCC.runtime.barrier_cycles_per_thread * 4
        # one round is every thread's arrival at one barrier
        assert elapsed(sync=4) == base + barrier
        assert elapsed(sync=3) == base
        assert elapsed(sched=700.0) == base + 700.0


class TestReductionCombining:
    def test_linear_combine_order(self):
        ex, _ = _executor(vendor=GCC)
        out = ex._combine_reduction(1.0, [2.0, 3.0, 4.0], "+", tree=False)
        assert out == ((1.0 + 2.0) + 3.0) + 4.0

    def test_tree_combine_order(self):
        ex, _ = _executor(vendor=INTEL)
        out = ex._combine_reduction(1.0, [2.0, 3.0, 4.0, 5.0], "+", tree=True)
        assert out == 1.0 + ((2.0 + 3.0) + (4.0 + 5.0))

    def test_orders_can_differ_numerically(self):
        ex, _ = _executor()
        partials = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0]
        lin = ex._combine_reduction(0.0, partials, "+", tree=False)
        tree = ex._combine_reduction(0.0, partials, "+", tree=True)
        assert lin != tree

    def test_product_combine(self):
        ex, _ = _executor()
        assert ex._combine_reduction(2.0, [3.0, 4.0], "*", tree=False) == 24.0

    def test_empty_partials(self):
        ex, _ = _executor()
        assert ex._combine_reduction(7.0, [], "+", tree=True) == 7.0


class TestFaults:
    def test_crash_on_region_enter(self):
        ex, _ = _executor(crash_active=True)
        with pytest.raises(SimulatedCrash) as exc:
            ex.region_enter(0)
        assert exc.value.signal_name == "SIGSEGV"

    def test_crash_in_prologue_when_no_regions(self):
        ex, _ = _executor(teams=(), crash_active=True)
        with pytest.raises(SimulatedCrash):
            ex.prologue()

    def test_no_crash_when_inactive(self):
        ex, _ = _executor(crash_active=False)
        ex.prologue()
        ex.region_enter(0)

    @staticmethod
    def _critical_loop(trips: int, threads: int = 32):
        """Intel's kernel for one region whose ``omp for`` runs ``trips``
        critical sections."""
        def body(comp):
            lv = Variable("i_1", None, VarKind.LOOP)
            crit = OmpCritical(Block([Assignment(
                VarRef(comp), AssignOpKind.ADD_ASSIGN, FPNumeral(1.0))]))
            loop = ForLoop(lv, IntNumeral(trips), Block([crit]), omp_for=True)
            return Block([OmpParallel(OmpClauses(num_threads=threads),
                                      Block([loop]))])

        structural = StructuralLowerer(_mk(body, threads=threads)).lower()
        return bind_costs(structural, INTEL, "-O3")

    def test_hang_after_threshold_acquires(self):
        threshold = INTEL.faults.hang_min_acquires
        kernel = self._critical_loop(threshold + 10)
        for backend in BACKENDS:
            ex, cost = _executor(vendor=INTEL, teams=kernel.structural.teams,
                                 hang_active=True)
            assert ex.prologue()[0] == threshold
            with pytest.raises(SimulatedHang) as exc:
                kernel.bind(backend)({"comp": 0.0}, ex, cost)
            # the kernel aborts on the threshold-th acquire, handing over
            # the region's acquires and its partial cost
            assert ex.counters.critical_acquires == threshold, backend
            assert cost.ccy > 0.0
            states = exc.value.thread_states
            assert sum(len(v) for v in states.values()) == 32
            assert "__kmp_eq_4" in states
            assert INTEL.symbols.yield_ in states

    def test_no_hang_when_inactive(self):
        trips = INTEL.faults.hang_min_acquires + 10
        kernel = self._critical_loop(trips)
        for backend in BACKENDS:
            ex, cost = _executor(vendor=INTEL, teams=kernel.structural.teams,
                                 hang_active=False)
            assert kernel.bind(backend)({"comp": 0.0}, ex, cost) == trips
            assert ex.counters.critical_acquires == trips, backend


class TestWaitSideEffects:
    def test_intel_lock_waiting_generates_counters(self):
        ex, _ = _executor(vendor=INTEL)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=True)
        assert ex.counters.context_switches > 100
        assert ex.counters.cpu_migrations > 50
        assert ex.c.ins > 1_000_000

    def test_barrier_waiting_only_spins(self):
        ex, _ = _executor(vendor=INTEL)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=False)
        assert ex.counters.context_switches == 0
        assert ex.counters.cpu_migrations == 0
        assert ex.c.ins > 1_000_000  # spinning still burns instructions

    def test_gcc_waiting_is_quiet(self):
        ex, _ = _executor(vendor=GCC)
        ex._apply_wait_side_effects(10_000_000.0, reschedules=True)
        assert ex.counters.context_switches < 100
        assert ex.counters.cpu_migrations == 0

    def test_profile_receives_wait_symbols(self):
        ex, cost = _executor(vendor=INTEL, threads=2)
        ex.region_enter(0)
        cost.ccy += 20_000.0
        _exit(ex, compute=(0.0, 0.0), critical=(10_000.0, 10_000.0),
              acquires=2)
        symbols = {sym for _, sym in ex.profile.samples}
        assert INTEL.symbols.wait_primary in symbols
        assert INTEL.symbols.lock in symbols
