"""Reduction subsystem tests: surgery, passes, reducer, and the
injected-fault invariant sweep of the acceptance criteria.

The sweep seeds a corpus of outliers by wrapping one simulated vendor in
a :class:`~repro.backends.fault.FaultInjectedBackend` — a deterministic
*structural* fault (crash on ``atomic``, hang on combined ``parallel
for``, crash on ``task``) — and asserts, for every case, the reducer
contracts: every accepted step is conformant and race-free, the reduced
test still reproduces the same outlier kind on the same backend, the
reduction is deterministic, and the corpus-wide mean statement reduction
clears 5x.
"""

from __future__ import annotations

import pytest

from repro.analysis.outliers import OutlierKind
from repro.backends import InjectedFault, register_fault_backend
from repro.codegen.emit_main import emit_translation_unit
from repro.config import CampaignConfig, GeneratorConfig, TriageConfig
from repro.core.generator import ProgramGenerator
from repro.core.grammar import check_conformance, conforms
from repro.core.inputs import InputGenerator
from repro.core.nodes import Block, DeclAssign, walk
from repro.core.races import find_races
from repro.core.surgery import (
    clone_program,
    count_statements,
    index_blocks,
    reads_undeclared_locals,
)
from repro.core.features import extract_features
from repro.errors import ConfigError
from repro.reduce.passes import DEFAULT_PASSES, DropStatements
from repro.reduce.reducer import OutlierCase, ReductionOracle, reduce_case

# ----------------------------------------------------------------------
# injected-fault fixtures: one structural vendor bug per directive mix
# ----------------------------------------------------------------------

#: (mix, trigger feature, fault kind, backend name) — three distinct
#: injected faults across three directive mixes (acceptance criteria)
FAULTS = (
    ("sync", "n_atomic", "crash", "buggy-atomic"),
    ("worksharing", "n_parallel_for", "hang", "buggy-parfor"),
    ("tasks", "n_tasks", "crash", "buggy-task"),
)

for _mix, _trigger, _kind, _name in FAULTS:
    register_fault_backend("intel", InjectedFault(kind=_kind, trigger=_trigger),
                           name=_name, replace=True)


def small_gen(mix: str) -> GeneratorConfig:
    from repro.config import apply_directive_mix

    return apply_directive_mix(
        GeneratorConfig(max_total_iterations=1500, loop_trip_max=30,
                        num_threads=8), mix)


def corpus_cases(mix: str, trigger: str, kind: str, backend: str,
                 count: int, seed: int = 4242) -> list[OutlierCase]:
    """The first ``count`` programs of the stream that arm the fault."""
    gen_cfg = small_gen(mix)
    programs = ProgramGenerator(gen_cfg, seed=seed)
    inputs = InputGenerator(gen_cfg, seed=seed + 1)
    cases = []
    index = 0
    while len(cases) < count and index < 300:
        program = programs.generate(index)
        index += 1
        if getattr(extract_features(program), trigger) < 1:
            continue
        if find_races(program):
            continue
        cases.append(OutlierCase(
            program=program, test_input=inputs.generate(program, 0),
            vendor=backend, kind=OutlierKind(kind),
            compilers=("gcc", "clang", backend)))
    assert len(cases) == count, f"stream too short for {mix}/{trigger}"
    return cases


# ----------------------------------------------------------------------
# surgery
# ----------------------------------------------------------------------

class TestSurgery:
    def test_clone_emits_identical_source(self, program_stream):
        for program in program_stream:
            clone = clone_program(program)
            assert emit_translation_unit(clone) == \
                emit_translation_unit(program)

    def test_clone_is_independent(self, program_stream):
        program = program_stream[0]
        before = emit_translation_unit(program)
        clone = clone_program(program)
        clone.body.stmts.pop()
        assert emit_translation_unit(program) == before

    def test_clone_shares_variables(self, program_stream):
        # Variables compare by identity: a clone must reference the
        # same objects or clause lists would detach from the body
        program = program_stream[0]
        clone = clone_program(program)
        assert clone.params[0] is program.params[0]

    def test_block_indices_stable_across_clone(self, program_stream):
        for program in program_stream[:4]:
            blocks = index_blocks(program)
            cloned = index_blocks(clone_program(program))
            assert len(blocks) == len(cloned)
            for b, c in zip(blocks, cloned):
                assert len(b.stmts) == len(c.stmts)

    def test_generator_output_has_no_undeclared_reads(self, program_stream):
        for program in program_stream:
            assert not reads_undeclared_locals(program)

    def test_dropped_declaration_is_detected(self, program_stream):
        # find a program with a temporary that is read after declaration
        for program in program_stream:
            clone = clone_program(program)
            for block in index_blocks(clone):
                for i, stmt in enumerate(block.stmts):
                    if not isinstance(stmt, DeclAssign):
                        continue
                    var = stmt.var
                    rest = Block(block.stmts[i + 1:])
                    reads = any(
                        getattr(n, "var", None) is var for n in walk(rest))
                    if not reads:
                        continue
                    del block.stmts[i]
                    assert reads_undeclared_locals(clone)
                    return
        pytest.fail("no droppable declaration found in the stream")


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

class TestPasses:
    def test_candidates_do_not_mutate_original(self, program_stream):
        program = program_stream[0]
        before = emit_translation_unit(program)
        for pass_ in DEFAULT_PASSES:
            for _desc, _cand in pass_.candidates(program):
                pass
        assert emit_translation_unit(program) == before

    def test_drop_statements_shrinks(self, program_stream):
        program = program_stream[0]
        n = count_statements(program)
        for _desc, cand in DropStatements().candidates(program):
            assert count_statements(cand) < n

    def test_conformant_candidates_are_distinct(self, program_stream):
        # candidates may be grammar-invalid (the oracle rejects those);
        # every *conformant* candidate must differ from its parent
        program = program_stream[1]
        source = emit_translation_unit(program)
        seen_conformant = 0
        for pass_ in DEFAULT_PASSES:
            for _desc, cand in pass_.candidates(program):
                if conforms(cand):
                    seen_conformant += 1
                    assert emit_translation_unit(cand) != source
        assert seen_conformant > 0


# ----------------------------------------------------------------------
# reducer mechanics
# ----------------------------------------------------------------------

class TestReducer:
    def test_unreproducible_case_is_unconfirmed(self):
        # intel never crashes here (no fault backend in the loop), so
        # the claimed crash cannot be confirmed
        [case] = corpus_cases("sync", "n_atomic", "crash", "buggy-atomic", 1)
        bogus = OutlierCase(program=case.program, test_input=case.test_input,
                            vendor="intel", kind=OutlierKind.CRASH,
                            compilers=("gcc", "clang", "intel"))
        result = reduce_case(bogus)
        assert not result.confirmed
        assert result.reduced_statements == result.original_statements
        assert result.reduction_factor == 1.0

    def test_candidate_budget_is_respected(self):
        [case] = corpus_cases("sync", "n_atomic", "crash", "buggy-atomic", 1)
        result = reduce_case(case, TriageConfig(max_candidates=10))
        assert result.candidates_tried <= 10

    def test_triage_config_validation(self):
        with pytest.raises(ConfigError):
            TriageConfig(max_rounds=0)
        with pytest.raises(ConfigError):
            TriageConfig(max_candidates=0)

    def test_candidate_is_one_compiler_run(self, tmp_path, monkeypatch):
        # every backend compiles before any executes, so a never-seen
        # candidate's three kernel shapes build as one C module
        from repro.reduce.reducer import run_differential_test
        from repro.sim import _native, ckernel, kcache
        from repro.sim.backend import _c_available, use_kernel_backend

        ok, why = _c_available()
        if not ok:
            pytest.skip(f"C kernel backend unavailable: {why}")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(ckernel, "_MODULES", {})
        monkeypatch.setattr(kcache, "_DEFAULT_CACHE", kcache.KernelCache())
        builds = []
        real = _native.build_shared_object

        def counted(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(_native, "build_shared_object", counted)
        [case] = corpus_cases("sync", "n_atomic", "crash", "buggy-atomic", 1)
        verdicts = []
        for backend in ("c", "interp"):
            with use_kernel_backend(backend):
                verdicts.append(run_differential_test(
                    case.program, case.test_input, case.compilers,
                    case.opt_level, case.machine, case.outliers))
        assert len(builds) == 1
        assert [r.to_row() for r in verdicts[0].records] == \
            [r.to_row() for r in verdicts[1].records]


# ----------------------------------------------------------------------
# the acceptance sweep: >=20 injected-fault outliers, >=3 mixes
# ----------------------------------------------------------------------

#: cases per fault — 3 faults x 7 = 21 outliers
_CASES_PER_FAULT = 7


@pytest.fixture(scope="module")
def sweep_results():
    results = {}
    for mix, trigger, kind, backend in FAULTS:
        cases = corpus_cases(mix, trigger, kind, backend, _CASES_PER_FAULT)
        reduced = []
        for case in cases:
            oracle = ReductionOracle(case)
            result = reduce_case(case, oracle=oracle)
            reduced.append((case, result, oracle))
        results[(mix, trigger, kind, backend)] = reduced
    return results


class TestInjectedFaultSweep:
    def test_corpus_size(self, sweep_results):
        total = sum(len(v) for v in sweep_results.values())
        assert total >= 20
        assert len(sweep_results) >= 3

    def test_every_case_confirmed_and_kind_preserved(self, sweep_results):
        for fault, reduced in sweep_results.items():
            for case, result, _oracle in reduced:
                assert result.confirmed, fault
                # 100% outlier-kind preservation: the reduced test still
                # flags the same kind on the same backend
                oracle = ReductionOracle(case)
                verdict = oracle.run_differential(result.reduced_program,
                                                  result.reduced_input)
                assert oracle.still_fails(verdict), fault

    def test_every_accepted_step_passes_the_gates(self, sweep_results):
        for fault, reduced in sweep_results.items():
            for _case, _result, oracle in reduced:
                assert oracle.accepted_trail, fault
                for program, _test_input in oracle.accepted_trail:
                    check_conformance(program)        # conformant
                    assert not find_races(program)    # race-free verdict
                    assert not reads_undeclared_locals(program)

    def test_reduced_program_keeps_the_trigger(self, sweep_results):
        for (mix, trigger, kind, backend), reduced in sweep_results.items():
            for _case, result, _oracle in reduced:
                feats = extract_features(result.reduced_program)
                assert getattr(feats, trigger) >= 1, (mix, trigger)

    def test_mean_reduction_factor_at_least_5x(self, sweep_results):
        factors = [result.reduction_factor
                   for reduced in sweep_results.values()
                   for _case, result, _oracle in reduced]
        mean = sum(factors) / len(factors)
        assert mean >= 5.0, f"mean reduction only x{mean:.2f}: {factors}"

    def test_bucketing_groups_each_fault_into_one_bucket(self, sweep_results):
        from repro.analysis.buckets import build_buckets
        from repro.reduce.triage import triaged_from_result

        entries = []
        fault_of = {}
        for fault, reduced in sweep_results.items():
            for i, (case, result, _oracle) in enumerate(reduced):
                t = triaged_from_result(i, 0, case.vendor, case.kind, result)
                entries.append((t.signature, t))
                fault_of[id(t)] = fault
        buckets = build_buckets(
            entries, size_of=lambda t: t.result.reduced_statements)
        # every outlier of one injected fault lands in exactly one bucket
        for fault in sweep_results:
            homes = {b.signature for b in buckets
                     for m in b.members if fault_of[id(m)] == fault}
            assert len(homes) == 1, (fault, homes)
        # and distinct faults never share a bucket
        assert len({b.signature for b in buckets}) == len(sweep_results)

    def test_reduction_is_deterministic(self, sweep_results):
        for fault, reduced in list(sweep_results.items()):
            case, first, _oracle = reduced[0]
            again = reduce_case(case)
            assert emit_translation_unit(again.reduced_program) == \
                emit_translation_unit(first.reduced_program), fault
            assert again.reduced_input.values == first.reduced_input.values
            assert again.history == first.history

    def test_reduced_programs_conform(self, sweep_results):
        for reduced in sweep_results.values():
            for _case, result, _oracle in reduced:
                assert conforms(result.reduced_program)
                assert not find_races(result.reduced_program)
