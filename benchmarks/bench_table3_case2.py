"""Table III — perf counters for Case Study 2 (Clang binary is slow).

Paper (Intel vs Clang on a test with a parallel region inside a serial
loop; the Clang binary runs 946 % slower):

    Counters          Intel         Clang
    context-switches     300         40,483
    cpu-migrations        93            126
    page-faults          684         70,990
    cycles         1,195,535,760  10,168,915,718
    instructions     887,175,940   8,212,422,901
    branches         250,167,701   2,163,265,059
    branch-misses        458,225      3,827,212

Mechanism: libomp re-allocates team resources on every region entry
(calloc/mprotect churn in the paper's Fig. 7), so a region inside a
serial loop multiplies the overhead by the loop trip count.
"""

from __future__ import annotations

from repro.analysis.perfstats import TABLE3_DIRECTIONS, check_directions
from repro.driver.execution import run_binary


def test_table3_counters_clang_slow_case(benchmark, case2, paper_cfg):
    from repro.vendors import CLANG, compile_binary
    from repro.core.inputs import InputGenerator

    inputs = InputGenerator(paper_cfg.generator, seed=paper_cfg.seed + 1)
    inp = inputs.generate(case2.program, 0)
    clang_binary = compile_binary(case2.program, CLANG,
                                  paper_cfg.opt_level)
    benchmark.pedantic(
        lambda: run_binary(clang_binary, inp, paper_cfg.machine,
                           collect_profile=True),
        rounds=3, iterations=1)

    cmp = case2.comparison  # (intel left, clang right): ratios = clang/intel
    print()
    print(cmp.render("Table III analogue — " + case2.note))

    result = check_directions(cmp, TABLE3_DIRECTIONS)
    for key, _ in TABLE3_DIRECTIONS:
        assert result[key], (key, cmp.rows())

    # magnitudes: context switches and page faults explode under clang
    assert cmp.ratio("context_switches") > 10   # paper: ~135x
    assert cmp.ratio("page_faults") > 10        # paper: ~104x
    assert cmp.ratio("instructions") > 2        # paper: ~9x

    # the timing claim: clang slower by >= the beta threshold
    clang = case2.record_for("clang")
    intel = case2.record_for("intel")
    assert clang.time_us / intel.time_us >= 1.5
