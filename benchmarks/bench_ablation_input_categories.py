"""Ablation — sensitivity to the Section III-D input categories.

The input generator's five categories exist because extreme values shake
out behaviour that normal inputs never reach: the paper attributes about
half of the GCC fast outliers to NaN-driven control-flow divergence, and
its crash cases required specific inputs ("the test along with the
particular input that generates this behavior").

This bench re-runs a fixed program set with inputs *forced* into each
single category and measures (a) how often implementations print
different values and (b) how often outputs leave the finite range —
the upstream signals of input-dependent outliers.
"""

from __future__ import annotations

import math

from repro.backends import get_backend
from repro.config import CampaignConfig
from repro.core.generator import ProgramGenerator
from repro.core.inputs import FPCategory, TestInput, sample_category
from repro.driver.records import values_equal
from repro.rng import Rng

CFG = CampaignConfig(seed=20240915)
BACKENDS = [get_backend(name) for name in CFG.compilers]
N_PROGRAMS = 12
CATEGORIES = (FPCategory.NORMAL, FPCategory.SUBNORMAL, FPCategory.ALMOST_INF,
              FPCategory.ALMOST_SUBNORMAL, FPCategory.ZERO)


def _forced_input(program, category: FPCategory, rng: Rng) -> TestInput:
    inp = TestInput(program_name=program.name, index=0)
    for p in program.params:
        if p.is_int:
            inp.values[p.name] = rng.randint(CFG.generator.loop_trip_min,
                                             CFG.generator.loop_trip_max)
        else:
            inp.values[p.name] = sample_category(rng, category,
                                                 program.fp_type)
            inp.categories[p.name] = category
    return inp


def test_input_category_sensitivity(benchmark):
    gen = ProgramGenerator(CFG.generator, seed=CFG.seed)
    programs = [gen.generate(i) for i in range(N_PROGRAMS)]
    binaries = {p.name: [b.compile(p, CFG.opt_level) for b in BACKENDS]
                for p in programs}

    def sweep():
        stats = {}
        for cat in CATEGORIES:
            rng = Rng(99).child(f"cat:{cat.value}")
            divergent = nonfinite = crash = 0
            for p in programs:
                inp = _forced_input(p, cat, rng)
                records = [b.execute(exe, inp, CFG.machine) for b, exe
                           in zip(BACKENDS, binaries[p.name])]
                ok = [r for r in records if r.ok]
                crash += len(records) - len(ok)
                if len(ok) >= 2 and not all(
                        values_equal(ok[0].comp, r.comp) for r in ok[1:]):
                    divergent += 1
                if ok and not math.isfinite(ok[0].comp):
                    nonfinite += 1
            stats[cat] = (divergent, nonfinite, crash)
        return stats

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print(f"input-category sweep over {N_PROGRAMS} programs "
          f"(same programs, forced input category):")
    print(f"{'category':<18} {'divergent':>10} {'non-finite':>11} {'crashed':>8}")
    for cat in CATEGORIES:
        d, nf, c = stats[cat]
        print(f"{cat.value:<18} {d:>10} {nf:>11} {c:>8}")

    # extreme categories drive non-finite outputs far more than normals
    nf_normal = stats[FPCategory.NORMAL][1]
    nf_extreme = max(stats[FPCategory.ALMOST_INF][1],
                     stats[FPCategory.ZERO][1],
                     stats[FPCategory.SUBNORMAL][1])
    assert nf_extreme >= nf_normal

    # subnormal inputs are where Intel's FTZ diverges from the others
    assert stats[FPCategory.SUBNORMAL][0] >= stats[FPCategory.NORMAL][0]
