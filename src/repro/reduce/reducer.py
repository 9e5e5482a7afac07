"""Delta-debugging reduction of one flagged outlier test.

The unit of reduction is an :class:`OutlierCase` — one (program, input)
pair plus the outlier it produced (kind + faulting backend) and the
campaign parameters needed to re-run the differential test.  The
:class:`ReductionOracle` is the single arbiter of candidate survival; a
candidate program/input pair is **kept only if all three gates pass**:

1. **Grammar conformance** — :func:`repro.core.grammar.check_conformance`
   accepts the candidate exactly as it accepts generator output.
2. **Race freedom** — :func:`repro.core.races.find_races` (which
   dispatches to the :mod:`repro.core.taskgraph` rule for graph-shaped
   regions) reports no races: reduction must never "simplify" a
   correctness outlier into an undefined-behaviour program.
3. **Same-outlier reproduction** — the differential test is re-run
   through the backend registry and the verdict must still flag the
   *same kind* of outlier on the *same backend*.  A crash that turns
   into a hang, or migrates to another vendor, is a different bug — the
   candidate is rejected.

Greedy first-accept iteration over the deterministic pass pipeline
(:data:`repro.reduce.passes.DEFAULT_PASSES`) makes the whole reduction a
pure function of the case: reducing twice yields byte-identical
programs, which the property suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.outliers import OutlierKind, TestVerdict, analyze_test
from ..config import CampaignConfig, MachineConfig, OutlierConfig, TriageConfig
from ..core.grammar import check_conformance
from ..core.inputs import TestInput, classify
from ..core.nodes import Program
from ..core.races import find_races
from ..core.surgery import count_statements, reads_undeclared_locals
from ..driver.records import RunRecord
from ..errors import GrammarError, ReproError
from ..obs.spans import span
from .passes import DEFAULT_PASSES, ReductionPass


@dataclass(frozen=True)
class OutlierCase:
    """One outlier to reduce: the test, the flag, and how to re-run it."""

    program: Program
    test_input: TestInput
    vendor: str
    kind: OutlierKind
    compilers: tuple[str, ...]
    opt_level: str = "-O3"
    machine: MachineConfig = field(default_factory=MachineConfig)
    outliers: OutlierConfig = field(default_factory=OutlierConfig)

    @classmethod
    def from_campaign(cls, config: CampaignConfig, program: Program,
                      test_input: TestInput, vendor: str,
                      kind: OutlierKind) -> "OutlierCase":
        return cls(program=program, test_input=test_input, vendor=vendor,
                   kind=kind, compilers=config.compilers,
                   opt_level=config.opt_level, machine=config.machine,
                   outliers=config.outliers)


def run_differential_test(program: Program, test_input: TestInput,
                          compilers: tuple[str, ...], opt_level: str,
                          machine: MachineConfig,
                          outliers: OutlierConfig) -> TestVerdict:
    """One differential test through the backend registry.

    The single re-execution primitive of the triage stage — the oracle
    and the CLI's inline mode both run candidates through here.  Every
    backend compiles before any executes, so a candidate's kernel shapes
    form one family and build as one C module (compilation is pure, so
    the order cannot change a record).
    """
    from ..backends.registry import get_backend

    backends = [get_backend(name) for name in compilers]
    executables = [b.compile(program, opt_level) for b in backends]
    records: list[RunRecord] = [
        b.execute(exe, test_input, machine)
        for b, exe in zip(backends, executables)]
    return analyze_test(records, outliers)


class ReductionOracle:
    """Validates reduction candidates; counts what it evaluated."""

    def __init__(self, case: OutlierCase):
        self.case = case
        self.evaluated = 0
        self.accepted = 0
        #: every (program, input) the oracle accepted, in order — the
        #: property tests re-assert the gate invariants over this trail
        self.accepted_trail: list[tuple[Program, TestInput]] = []

    # -- gates ---------------------------------------------------------
    def gates_pass(self, program: Program) -> bool:
        """The static gates: conformance + scope validity + race freedom."""
        try:
            check_conformance(program)
        except GrammarError:
            return False
        if reads_undeclared_locals(program):
            # statement removal orphaned a temporary/loop-variable use;
            # the tree is no longer valid C++ (grammar conformance does
            # not cover this — the generator cannot produce it)
            return False
        return not find_races(program)

    def run_differential(self, program: Program,
                         test_input: TestInput) -> TestVerdict:
        """Re-run the differential test through the backend registry."""
        case = self.case
        return run_differential_test(program, test_input, case.compilers,
                                     case.opt_level, case.machine,
                                     case.outliers)

    def still_fails(self, verdict: TestVerdict) -> bool:
        return any(o.vendor == self.case.vendor and o.kind is self.case.kind
                   for o in verdict.outliers)

    def reproduces(self, program: Program,
                   test_input: TestInput) -> TestVerdict | None:
        """Full candidate check; the verdict if all three gates pass."""
        self.evaluated += 1
        if not self.gates_pass(program):
            return None
        try:
            verdict = self.run_differential(program, test_input)
        except ReproError:
            # a backend refused the candidate (compilation/execution
            # error) — not a reproduction, just a rejected edit
            return None
        if not self.still_fails(verdict):
            return None
        self.accepted += 1
        self.accepted_trail.append((program, test_input))
        return verdict


@dataclass
class ReductionResult:
    """What one reduction produced."""

    case: OutlierCase
    reduced_program: Program
    reduced_input: TestInput
    verdict: TestVerdict | None
    #: False when the original case did not reproduce under re-execution
    #: (e.g. a latent-fault trigger keyed to state the case no longer
    #: has); the "reduced" program is then the untouched original
    confirmed: bool = True
    original_statements: int = 0
    reduced_statements: int = 0
    rounds: int = 0
    candidates_tried: int = 0
    candidates_kept: int = 0
    history: list[str] = field(default_factory=list)

    @property
    def reduction_factor(self) -> float:
        if self.reduced_statements <= 0:
            return 1.0
        return self.original_statements / self.reduced_statements


def _shrunk_inputs(program: Program,
                   test_input: TestInput) -> list[tuple[str, TestInput]]:
    """Input-vector candidates: one simplified parameter per candidate."""
    out: list[tuple[str, TestInput]] = []
    for p in program.params:
        current = test_input.values[p.name]
        target: float | int = 2 if p.is_int else 1.0
        if current == target:
            continue
        values = dict(test_input.values)
        values[p.name] = target
        categories = dict(test_input.categories)
        if not p.is_int:
            categories[p.name] = classify(1.0, program.fp_type)
        out.append((f"simplify input {p.name} -> {target!r}",
                    TestInput(program_name=test_input.program_name,
                              index=test_input.index, values=values,
                              categories=categories)))
    return out


def reduce_case(case: OutlierCase, triage: TriageConfig | None = None, *,
                passes: tuple[ReductionPass, ...] = DEFAULT_PASSES,
                oracle: ReductionOracle | None = None) -> ReductionResult:
    """Reduce one outlier case to a minimal reproducing test.

    Deterministic: the passes enumerate candidates in a fixed order and
    the first accepted candidate replaces the current best, so the
    result is a pure function of ``(case, triage config)``.
    """
    cfg = triage if triage is not None else TriageConfig()
    oracle = oracle if oracle is not None else ReductionOracle(case)
    best_program = case.program
    best_input = case.test_input
    result = ReductionResult(
        case=case, reduced_program=best_program, reduced_input=best_input,
        verdict=None, original_statements=count_statements(case.program),
        reduced_statements=count_statements(case.program))

    verdict = oracle.reproduces(best_program, best_input)
    if verdict is None:
        result.confirmed = False
        result.candidates_tried = oracle.evaluated
        return result
    result.verdict = verdict

    enabled = [p for p in passes if _pass_enabled(p, cfg)]
    budget = cfg.max_candidates
    progressed = True
    while progressed and result.rounds < cfg.max_rounds:
        progressed = False
        result.rounds += 1
        for pass_ in enabled:
            # greedy fixpoint per pass: re-enumerate from the new best
            # after every accepted edit
            with span("reduce_pass", pass_name=pass_.name):
                accepted = True
                while accepted and oracle.evaluated < budget:
                    accepted = False
                    for desc, cand in pass_.candidates(best_program):
                        if oracle.evaluated >= budget:
                            break
                        v = oracle.reproduces(cand, best_input)
                        if v is not None:
                            best_program = cand
                            result.verdict = v
                            result.history.append(f"{pass_.name}: {desc}")
                            accepted = progressed = True
                            break
        if cfg.shrink_inputs:
            accepted = True
            while accepted and oracle.evaluated < budget:
                accepted = False
                for desc, cand_input in _shrunk_inputs(best_program,
                                                       best_input):
                    if oracle.evaluated >= budget:
                        break
                    v = oracle.reproduces(best_program, cand_input)
                    if v is not None:
                        best_input = cand_input
                        result.verdict = v
                        result.history.append(f"shrink-inputs: {desc}")
                        accepted = progressed = True
                        break

    result.reduced_program = best_program
    result.reduced_input = best_input
    result.reduced_statements = count_statements(best_program)
    result.candidates_tried = oracle.evaluated
    result.candidates_kept = oracle.accepted
    return result


def _pass_enabled(pass_: ReductionPass, cfg: TriageConfig) -> bool:
    if pass_.name == "strip-clauses":
        return cfg.strip_clauses
    if pass_.name == "shrink-loop-bounds":
        return cfg.shrink_loop_bounds
    if pass_.name == "simplify-expressions":
        return cfg.simplify_expressions
    return True
