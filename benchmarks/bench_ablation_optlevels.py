"""Ablation — optimization levels.

The paper compiles everything at -O3.  Two design consequences are worth
regenerating: (1) timing scales with the optimization level, (2) FMA
contraction — the compiler-half divergence mechanism — only exists at
-O2 and above, so the GCC-vs-LLVM numeric divergence disappears at -O1.
"""

from __future__ import annotations

from repro.config import CampaignConfig
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.driver.execution import run_binary
from repro.driver.records import values_equal
from repro.vendors import CLANG, GCC, compile_binary

LEVELS = ("-O0", "-O1", "-O2", "-O3")
CFG = CampaignConfig(seed=20240915)


def test_opt_level_timing_and_divergence(benchmark):
    gen = ProgramGenerator(CFG.generator, seed=CFG.seed)
    inputs = InputGenerator(CFG.generator, seed=CFG.seed + 1)

    def sweep():
        rows = []
        for i in range(8):
            program = gen.generate(i)
            inp = inputs.generate(program, 0)
            times = {}
            values = {}
            for lvl in LEVELS:
                rec = run_binary(compile_binary(program, GCC, lvl), inp,
                                 CFG.machine)
                times[lvl] = rec.time_us
                values[lvl] = rec.comp
            diverged = {}
            for lvl in LEVELS:
                g = run_binary(compile_binary(program, GCC, lvl), inp,
                               CFG.machine).comp
                c = run_binary(compile_binary(program, CLANG, lvl), inp,
                               CFG.machine).comp
                diverged[lvl] = not values_equal(g, c)
            rows.append((program.name, times, diverged))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("optimization-level sweep (gcc timing; gcc-vs-clang divergence):")
    n_div = {lvl: 0 for lvl in LEVELS}
    for name, times, diverged in rows:
        marks = " ".join(f"{lvl}:{times[lvl]:.0f}us{'*' if diverged[lvl] else ''}"
                         for lvl in LEVELS)
        print(f"  {name}: {marks}")
        for lvl in LEVELS:
            n_div[lvl] += diverged[lvl]
    print(f"  divergent programs per level: "
          f"{ {lvl: n_div[lvl] for lvl in LEVELS} }")

    # timing: -O0 must be slowest, -O3 fastest, monotone in between
    for _, times, _ in rows:
        assert times["-O0"] > times["-O2"] > 0
        assert times["-O0"] >= times["-O1"] >= times["-O2"] >= times["-O3"]

    # divergence mechanism only exists where contraction is on
    assert n_div["-O0"] == 0
    assert n_div["-O1"] == 0
    assert n_div["-O3"] >= n_div["-O1"]
