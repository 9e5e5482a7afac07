"""Table I — outlier counts per OpenMP implementation.

Paper (200 programs x 3 inputs x 3 implementations = 1,800 runs,
454 tests analyzed after the 1 ms filter):

    =======  =====  =====  ======  =====
             Slow   Fast   Crash   Hang
    Clang      10      -       -      -
    GCC         4    115       3      -
    Intel       -      1       -      1
    =======  =====  =====  ======  =====

plus the Section V-B rates: 7.4 % of runs are outliers, 0.22 % are
correctness outliers.  This bench regenerates the table (scaled grid by
default; set REPRO_BENCH_FULL=1 for the full 1,800 runs) and asserts the
qualitative shape: GCC dominates fast outliers by an order of magnitude,
Clang contributes only slow outliers, Intel is near-clean, and the two
rates land in the paper's bands.
"""

from __future__ import annotations

from repro.analysis.outliers import OutlierKind
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.harness.report import render_campaign_summary, render_table1
from repro.reduce.reducer import run_differential_test


def test_table1_outlier_overview(benchmark, campaign_cfg, campaign_result):
    # Bench cost: re-running one program of the campaign grid end to end
    cfg = campaign_cfg
    program = ProgramGenerator(cfg.generator, seed=cfg.seed).generate(0)
    inputs = InputGenerator(cfg.generator, seed=cfg.seed + 1)

    def one_test():
        return run_differential_test(program, inputs.generate(program, 0),
                                     cfg.compilers, cfg.opt_level,
                                     cfg.machine, cfg.outliers)

    benchmark.pedantic(one_test, rounds=3, iterations=1)

    table = campaign_result.table
    print()
    print(render_table1(table, campaign_cfg.compilers))
    print()
    print(render_campaign_summary(table))

    # --- the paper's configuration is in force (Section V-A) ---
    g = campaign_cfg.generator
    assert (g.max_expression_size, g.max_nesting_levels,
            g.max_lines_in_block, g.array_size,
            g.max_same_level_blocks) == (5, 3, 10, 1000, 3)
    assert g.math_func_allowed and g.math_func_probability == 0.01
    assert g.num_threads == 32
    assert campaign_cfg.outliers.alpha == 0.2
    assert campaign_cfg.outliers.beta == 1.5
    assert campaign_cfg.opt_level == "-O3"

    # --- Table I shape ---
    gcc_fast = table.count("gcc", OutlierKind.FAST)
    gcc_slow = table.count("gcc", OutlierKind.SLOW)
    clang_slow = table.count("clang", OutlierKind.SLOW)
    clang_fast = table.count("clang", OutlierKind.FAST)
    intel_slow = table.count("intel", OutlierKind.SLOW)

    assert gcc_fast >= 10 * max(1, clang_slow) / 2, \
        "GCC fast outliers dominate the table (paper: 115 vs 10)"
    assert clang_slow >= 1, "Clang contributes slow outliers (paper: 10)"
    assert clang_fast == 0, "no Clang fast outliers (paper: none)"
    assert intel_slow == 0, "Intel is the platform baseline (paper: 0 slow)"
    assert gcc_slow <= gcc_fast / 5, "GCC slow outliers are rare (paper: 4)"

    # --- Section V-B rates ---
    rate = table.outlier_run_rate()
    assert 0.03 <= rate <= 0.15, f"outlier run rate {rate:.2%} (paper: 7.4%)"
    crate = table.correctness_run_rate()
    assert crate <= 0.02, f"correctness rate {crate:.3%} (paper: 0.22%)"

    # --- the >=1ms filter bites, as in the paper (454 of 600 tests) ---
    assert 0.5 <= table.n_analyzed / table.n_tests <= 0.95


def test_table1_correctness_classes_present_at_full_scale(benchmark,
                                                          campaign_result,
                                                          campaign_cfg):
    """At the paper's scale the crash/hang classes appear; on the scaled
    grid we only require that no *unexpected* class appears."""
    from repro.analysis.outliers import build_outlier_table

    # bench cost: assembling the Table-I aggregation from the verdicts
    table = benchmark(lambda: build_outlier_table(campaign_result.verdicts))
    assert table.count("clang", OutlierKind.CRASH) == 0
    assert table.count("clang", OutlierKind.HANG) == 0
    assert table.count("intel", OutlierKind.CRASH) == 0
    if campaign_cfg.n_programs >= 200:
        assert table.count("gcc", OutlierKind.CRASH) >= 1  # paper: 3
        assert table.count("intel", OutlierKind.HANG) >= 1  # paper: 1
