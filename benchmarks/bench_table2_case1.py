"""Table II — perf counters for Case Study 1 (GCC binary is fast).

Paper (Intel vs GCC on a critical-section-heavy test where the GCC
binary runs 80 % faster):

    Counters          Intel        GCC
    context-switches    232          10
    cpu-migrations       96           0
    page-faults         627         226
    cycles        110,520,780  154,797,061
    instructions   85,366,729   60,084,059
    branches       20,832,349   20,582,275
    branch-misses     182,300      67,406

The claim is directional: the KMP queuing lock spins and reschedules
(more context switches, migrations, instructions and misses on Intel)
while libgomp parks on a futex.  This bench regenerates the comparison
from a found GCC-fast outlier and asserts every direction.
"""

from __future__ import annotations

from repro.analysis.perfstats import TABLE2_DIRECTIONS, check_directions
from repro.driver.execution import run_binary


def test_table2_counters_gcc_fast_case(benchmark, case1, paper_cfg):
    from repro.vendors import INTEL, compile_binary
    from repro.core.inputs import InputGenerator

    # bench cost: one profiled run of the case-study test on Intel
    inputs = InputGenerator(paper_cfg.generator, seed=paper_cfg.seed + 1)
    inp = inputs.generate(case1.program, 0)
    intel_binary = compile_binary(case1.program, INTEL,
                                  paper_cfg.opt_level)
    benchmark.pedantic(
        lambda: run_binary(intel_binary, inp, paper_cfg.machine,
                           collect_profile=True),
        rounds=3, iterations=1)

    cmp = case1.comparison  # oriented (intel left, gcc right)
    print()
    print(cmp.render("Table II analogue — " + case1.note))

    # flip to (gcc, intel) so directions read intel/gcc like the paper
    flipped = type(cmp)(cmp.program_name, cmp.input_index, "gcc", "intel",
                        cmp.right, cmp.left)
    result = check_directions(flipped, TABLE2_DIRECTIONS)
    for key in ("context_switches", "cpu_migrations", "instructions",
                "branch_misses", "page_faults"):
        assert result[key], (key, flipped.rows())

    # magnitude checks: the paper's ratios are order-of-magnitude
    assert flipped.ratio("context_switches") > 5   # paper: 23x
    assert flipped.ratio("cpu_migrations") > 5     # paper: 96 vs 0

    # and the timing claim itself: GCC fast by >= the beta threshold
    gcc = case1.record_for("gcc")
    intel = case1.record_for("intel")
    assert intel.time_us / gcc.time_us >= 1.5
