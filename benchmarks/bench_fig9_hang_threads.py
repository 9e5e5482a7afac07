"""Figures 8-9 — the Intel hang: GDB backtrace and thread-state groups.

Paper: after SIGINT-ing the hung Intel binary, all 32 threads sit inside
``__kmpc_critical_with_hint`` -> ``__kmp_acquire_queuing_lock...``,
grouped into three states: ``__kmp_wait_4``, ``__kmp_eq_4`` and
``sched_yield``.  The GCC and Clang binaries finish in milliseconds.
"""

from __future__ import annotations

from repro.analysis.threadstate import (
    render_backtrace,
    render_thread_groups,
    thread_groups,
)
from repro.driver.records import RunStatus


def test_fig9_thread_states(benchmark, case3):
    intel = case3.record_for("intel")
    benchmark(lambda: thread_groups(intel))

    print()
    print(render_backtrace(intel))
    print()
    print(render_thread_groups(intel))

    assert intel.status is RunStatus.HANG
    groups = thread_groups(intel)

    # Fig. 9: the whole 32-thread team is stuck, in exactly three states
    assert sum(g.size for g in groups) == case3.program.num_threads == 32
    states = {g.state for g in groups}
    assert "__kmp_eq_4" in states
    assert "sched_yield" in states
    assert any("wait" in s for s in states)

    # Fig. 8: the backtrace walks the queuing-lock acquisition chain
    bt = render_backtrace(intel)
    assert "__kmpc_critical_with_hint" in bt
    assert "__kmp_acquire_queuing_lock" in bt

    # the sibling binaries finish quickly (paper: "a few milliseconds")
    for vendor in ("gcc", "clang"):
        rec = case3.record_for(vendor)
        assert rec.status is RunStatus.OK
        assert rec.time_us < intel.time_us / 10


def test_fig9_hang_is_input_reproducible(benchmark, case3, paper_cfg):
    """Re-running the same binary+input hangs again — the trigger is a
    deterministic function of the test, as a released dataset requires."""
    import dataclasses

    from repro.core.inputs import InputGenerator
    from repro.driver.execution import run_binary
    from repro.vendors import INTEL, compile_binary

    binary = compile_binary(case3.program, INTEL, paper_cfg.opt_level)
    if not binary.hang_armed:
        binary = dataclasses.replace(binary, hang_armed=True)
    inputs = InputGenerator(paper_cfg.generator, seed=paper_cfg.seed + 1)
    inp = inputs.generate(case3.program, 0)

    rec = benchmark.pedantic(
        lambda: run_binary(binary, inp, paper_cfg.machine),
        rounds=2, iterations=1)
    assert rec.status is RunStatus.HANG
