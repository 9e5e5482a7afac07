"""Outlier detection via differential comparison (Section IV).

Implements the paper's definitions verbatim:

* **Comparable times** (Eq. 1): ``|ri - rj| / min(ri, rj) <= alpha`` with
  ``min(ri, rj) != 0``; the default ``alpha = 0.2`` means "within 20 %".
* **Midpoint**: the average of a set of mutually comparable times.
* **Slow outlier** (Eq. 2): the remaining implementations are mutually
  comparable and ``ri / M >= beta`` against their midpoint ``M``
  (default ``beta = 1.5``); **fast outlier** symmetrically ``M / ri >= beta``.
* **Correctness outlier** (Section IV-C): one execution CRASHes or HANGs
  while all the others terminate OK.  Correctness outliers are *not*
  performance outliers.
* **Analysis filter** (Section V-A): tests whose executions take less than
  ``min_time_us`` (1,000 µs) are excluded from performance analysis.  The
  paper does not spell out the aggregation; we require the *minimum* OK
  time to clear the threshold — sub-millisecond measurements are noise on
  any backend — and record the choice here.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..config import OutlierConfig
from ..driver.records import RunRecord, RunStatus, values_equal
from ..errors import AnalysisError


class OutlierKind(enum.Enum):
    SLOW = "slow"
    FAST = "fast"
    CRASH = "crash"
    HANG = "hang"


@dataclass(frozen=True, slots=True)
class Outlier:
    """One flagged implementation on one test (program + input)."""

    program_name: str
    input_index: int
    vendor: str
    kind: OutlierKind
    #: r_i / midpoint for SLOW, midpoint / r_i for FAST; 0 for correctness
    ratio: float = 0.0

    def __str__(self) -> str:
        tag = f"{self.program_name}#in{self.input_index}"
        if self.kind in (OutlierKind.SLOW, OutlierKind.FAST):
            return f"{tag}: {self.vendor} is a {self.kind.value} outlier (x{self.ratio:.2f})"
        return f"{tag}: {self.vendor} is a {self.kind.value} outlier"


def comparable(ri: float, rj: float, alpha: float) -> bool:
    """Eq. 1 — are two execution times comparable?"""
    m = min(ri, rj)
    if m <= 0:
        return False
    return abs(ri - rj) / m <= alpha


def midpoint(times: list[float]) -> float:
    """The midpoint of mutually comparable times (their average)."""
    if not times:
        raise AnalysisError("midpoint of an empty set")
    return sum(times) / len(times)


def mutually_comparable(times: list[float], alpha: float) -> bool:
    """Every pair comparable (trivially true for a single time)."""
    return all(comparable(a, b, alpha)
               for a, b in itertools.combinations(times, 2))


@dataclass(slots=True)
class TestVerdict:
    """Differential analysis result for one test (program + input)."""

    program_name: str
    input_index: int
    records: list[RunRecord]
    analyzed: bool = False          # passed the min-time filter
    filtered_reason: str = ""
    outliers: list[Outlier] = field(default_factory=list)
    #: True when the OK executions do not all print the same value —
    #: the numerical-divergence signal of Section V-B
    output_divergent: bool = False

    @property
    def ok_records(self) -> list[RunRecord]:
        return [r for r in self.records if r.ok]

    def times(self) -> dict[str, float]:
        return {r.vendor: r.time_us for r in self.records}

    def identity(self) -> tuple:
        """Hashable full-fidelity identity for equivalence comparisons.

        Two verdicts with equal identities agree on everything
        observable: test coordinates, analysis flags, outliers, and
        every record's status/output/time.  Engines and checkpoints are
        validated by comparing sorted identity sets.
        """
        return (self.program_name, self.input_index, self.analyzed,
                self.output_divergent,
                tuple(sorted(str(o) for o in self.outliers)),
                tuple((r.vendor, r.status.value, repr(r.comp), r.time_us)
                      for r in self.records))


def detect_correctness_outliers(records: list[RunRecord]) -> list[Outlier]:
    """Section IV-C: exactly one failing execution among OK siblings."""
    failing = [r for r in records if not r.ok]
    if len(failing) != 1 or len(records) - 1 < 2:
        # zero failures: nothing to flag; 2+ failures: the signal is not
        # attributable to a single implementation (and with fewer than two
        # OK witnesses there is no majority to trust)
        return []
    if len([r for r in records if r.ok]) != len(records) - 1:
        return []
    r = failing[0]
    kind = OutlierKind.CRASH if r.status is RunStatus.CRASH else OutlierKind.HANG
    return [Outlier(r.program_name, r.input_index, r.vendor, kind)]


def detect_performance_outliers(records: list[RunRecord],
                                cfg: OutlierConfig) -> list[Outlier]:
    """Section IV-B applied over the OK executions."""
    ok = [r for r in records if r.ok]
    if len(ok) < 3:
        return []  # need at least two comparable witnesses plus a candidate
    out: list[Outlier] = []
    for r in ok:
        others = [o.time_us for o in ok if o is not r]
        if not mutually_comparable(others, cfg.alpha):
            continue
        m = midpoint(others)
        if m <= 0:
            continue
        if r.time_us / m >= cfg.beta:
            out.append(Outlier(r.program_name, r.input_index, r.vendor,
                               OutlierKind.SLOW, r.time_us / m))
        elif m / r.time_us >= cfg.beta and r.time_us > 0:
            out.append(Outlier(r.program_name, r.input_index, r.vendor,
                               OutlierKind.FAST, m / r.time_us))
    return out


def analyze_test(records: list[RunRecord],
                 cfg: OutlierConfig | None = None) -> TestVerdict:
    """Full differential verdict for one (program, input) test."""
    cfg = cfg if cfg is not None else OutlierConfig()
    if not records:
        raise AnalysisError("analyze_test needs at least one record")
    names = {r.program_name for r in records}
    inputs = {r.input_index for r in records}
    if len(names) != 1 or len(inputs) != 1:
        raise AnalysisError(
            f"records mix tests: programs={names}, inputs={inputs}")

    v = TestVerdict(program_name=records[0].program_name,
                    input_index=records[0].input_index, records=list(records))

    v.outliers.extend(detect_correctness_outliers(records))

    ok = v.ok_records
    if len(ok) >= 2:
        first = ok[0].comp
        v.output_divergent = not all(values_equal(first, r.comp) for r in ok[1:])

    ok_times = [r.time_us for r in ok]
    if not ok_times:
        v.filtered_reason = "no successful execution"
        return v
    if min(ok_times) < cfg.min_time_us:
        v.filtered_reason = (f"fastest OK time {min(ok_times):.0f}us below "
                             f"{cfg.min_time_us:.0f}us threshold")
        return v
    v.analyzed = True
    v.outliers.extend(detect_performance_outliers(records, cfg))
    return v


@dataclass
class OutlierTable:
    """Table-I-shaped summary: vendor x {slow, fast, crash, hang} counts."""

    counts: dict[str, dict[OutlierKind, int]] = field(default_factory=dict)
    n_tests: int = 0
    n_analyzed: int = 0
    n_runs: int = 0

    def add(self, verdict: TestVerdict) -> None:
        self.n_tests += 1
        self.n_runs += len(verdict.records)
        self.n_analyzed += verdict.analyzed
        for o in verdict.outliers:
            row = self.counts.setdefault(
                o.vendor, {k: 0 for k in OutlierKind})
            row[o.kind] += 1

    def count(self, vendor: str, kind: OutlierKind) -> int:
        return self.counts.get(vendor, {}).get(kind, 0)

    def total_outlier_tests(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    def outlier_run_rate(self) -> float:
        """Share of runs flagged as outliers (paper: 7.4 % of 1,800)."""
        if self.n_runs == 0:
            return 0.0
        return self.total_outlier_tests() / self.n_runs

    def correctness_run_rate(self) -> float:
        """Share of runs with correctness outliers (paper: 0.22 %)."""
        if self.n_runs == 0:
            return 0.0
        n = sum(row[OutlierKind.CRASH] + row[OutlierKind.HANG]
                for row in self.counts.values())
        return n / self.n_runs


def build_outlier_table(verdicts: list[TestVerdict]) -> OutlierTable:
    table = OutlierTable()
    for v in verdicts:
        table.add(v)
    return table
