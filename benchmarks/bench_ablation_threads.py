"""Ablation — thread-count scaling of the critical-section mechanism.

DESIGN.md calls out the KMP-vs-libgomp lock gap as the mechanism behind
the GCC fast-outlier dominance.  This bench sweeps the team size on the
Case-Study-1 program and shows the gap *widening* with contention —
at 2 threads the implementations are nearly comparable; at 32 the Intel/
GCC ratio crosses the beta threshold.
"""

from __future__ import annotations

from repro.backends.gcc_native import _with_threads
from repro.core.inputs import InputGenerator
from repro.driver.execution import run_binary
from repro.vendors import GCC, INTEL, compile_binary

THREADS = (2, 4, 8, 16, 32)


def _time_for(program, vendor, inp, machine):
    return run_binary(compile_binary(program, vendor), inp, machine).time_us


def test_contention_scaling(benchmark, case1, paper_cfg):
    inputs = InputGenerator(paper_cfg.generator, seed=paper_cfg.seed + 1)

    def sweep():
        rows = []
        for t in THREADS:
            program = _with_threads(case1.program, t)
            inp = inputs.generate(program, 0)
            gcc = _time_for(program, GCC, inp, paper_cfg.machine)
            intel = _time_for(program, INTEL, inp, paper_cfg.machine)
            rows.append((t, gcc, intel, intel / gcc))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("critical-section contention sweep (Case-Study-1 program):")
    print(f"{'threads':>8} {'gcc (us)':>12} {'intel (us)':>12} {'intel/gcc':>10}")
    for t, g, i, r in rows:
        print(f"{t:>8} {g:>12.0f} {i:>12.0f} {r:>10.2f}")

    ratios = [r for _, _, _, r in rows]
    # the gap widens with contention...
    assert ratios[-1] > ratios[0]
    # ...and crosses the outlier threshold at the paper's 32 threads
    assert ratios[-1] >= 1.5
    # at low contention the implementations are near-comparable
    assert ratios[0] < 1.5
