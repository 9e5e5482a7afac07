"""Campaign results: the complete Figure-1 pipeline's output.

``config file -> generate programs+inputs -> compile with every OpenMP
implementation -> run -> compare results & find anomalies``

:class:`~repro.harness.session.CampaignSession` executes the whole grid
(``n_programs x inputs_per_program x len(compilers)`` runs, the paper's
200 x 3 x 3 = 1,800) and produces a :class:`CampaignResult` with
per-test verdicts, the Table-I outlier table, and feature statistics.
The paper's manual data-race filtering step is automated: when the
generator runs in its limitation-reproducing ``allow_data_races`` mode,
racy programs are detected statically and excluded from analysis (and
counted).  :func:`differential_test_single` runs one test of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CampaignConfig
from ..core.features import ProgramFeatures
from ..core.generator import ProgramGenerator
from ..core.inputs import InputGenerator, TestInput
from ..core.nodes import Program
from ..driver.records import RunRecord
from ..analysis.outliers import (
    OutlierTable,
    TestVerdict,
    analyze_test,
    build_outlier_table,
)


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    verdicts: list[TestVerdict] = field(default_factory=list)
    features: dict[str, ProgramFeatures] = field(default_factory=dict)
    race_filtered: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def table(self) -> OutlierTable:
        return build_outlier_table(self.verdicts)

    @property
    def n_runs(self) -> int:
        return sum(len(v.records) for v in self.verdicts)


# ----------------------------------------------------------------------
# convenience single-test entry point (used by the quickstart example)
# ----------------------------------------------------------------------

@dataclass
class SingleTestResult:
    """One generated test run through every implementation."""

    program: Program
    test_input: TestInput
    records: list[RunRecord]
    verdict: TestVerdict
    cpp_source: str

    def table(self) -> str:
        lines = [f"test {self.program.name} "
                 f"(fp={self.program.fp_type.cpp_name}, "
                 f"threads={self.program.num_threads})"]
        lines.append(f"{'impl':<8} {'status':<7} {'time (us)':>12} comp")
        for r in self.records:
            lines.append(f"{r.vendor:<8} {r.status.value:<7} "
                         f"{r.time_us:>12.1f} {r.comp!r}")
        if self.verdict.outliers:
            for o in self.verdict.outliers:
                lines.append(f"OUTLIER: {o}")
        else:
            lines.append("no outliers detected")
        return "\n".join(lines)


def differential_test_single(seed: int = 42,
                             program_index: int = 0) -> SingleTestResult:
    """Generate one program + one input, run all implementations, compare."""
    from ..backends.registry import get_backend

    cfg = CampaignConfig(seed=seed)
    program = ProgramGenerator(cfg.generator,
                               seed=cfg.seed).generate(program_index)
    test_input = InputGenerator(cfg.generator,
                                seed=cfg.seed + 1).generate(program, 0)
    backends = [get_backend(name) for name in cfg.compilers]
    binaries = [b.compile(program, cfg.opt_level) for b in backends]
    records = [b.execute(exe, test_input, cfg.machine, collect_profile=True)
               for b, exe in zip(backends, binaries)]
    verdict = analyze_test(records, cfg.outliers)
    return SingleTestResult(program=program, test_input=test_input,
                            records=records, verdict=verdict,
                            cpp_source=binaries[0].cpp_source)
