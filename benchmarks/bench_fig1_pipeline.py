"""Figure 1 — the end-to-end differential pipeline.

(a) generate program+input -> (b) compile with every implementation ->
(c) run all binaries -> (d) compare results & find anomalies.

This bench times each stage separately and the pipeline as a whole, so
regressions in any stage are visible.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_test
from repro.backends import get_backend
from repro.config import CampaignConfig
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator

CFG = CampaignConfig(seed=20240915)
BACKENDS = [get_backend(name) for name in CFG.compilers]


def compile_stage(program):
    """Stage (b): one executable per implementation."""
    return [b.compile(program, CFG.opt_level) for b in BACKENDS]


def execute_stage(binaries, test_input):
    """Stage (c): every implementation's executable on one input."""
    return [b.execute(exe, test_input, CFG.machine)
            for b, exe in zip(BACKENDS, binaries)]


@pytest.fixture(scope="module")
def pipeline_pieces():
    gen = ProgramGenerator(CFG.generator, seed=CFG.seed)
    inputs = InputGenerator(CFG.generator, seed=CFG.seed + 1)
    program = gen.generate(0)
    test_input = inputs.generate(program, 0)
    binaries = compile_stage(program)
    records = execute_stage(binaries, test_input)
    return gen, inputs, program, test_input, binaries, records


def test_stage_a_generation(benchmark):
    gen = ProgramGenerator(CFG.generator, seed=CFG.seed)
    counter = iter(range(10**9))
    program = benchmark(lambda: gen.generate(next(counter)))
    assert program.params


def test_stage_b_compilation(benchmark, pipeline_pieces):
    _, _, program, _, _, _ = pipeline_pieces
    binaries = benchmark(lambda: compile_stage(program))
    assert len(binaries) == 3


def test_stage_c_execution(benchmark, pipeline_pieces):
    _, _, _, test_input, binaries, _ = pipeline_pieces
    records = benchmark.pedantic(
        lambda: execute_stage(binaries, test_input),
        rounds=5, iterations=1)
    assert all(r.time_us >= 0 for r in records)


def test_stage_d_comparison(benchmark, pipeline_pieces):
    _, _, _, _, _, records = pipeline_pieces
    verdict = benchmark(lambda: analyze_test(records, CFG.outliers))
    assert verdict.records


def test_full_pipeline(benchmark):
    gen = ProgramGenerator(CFG.generator, seed=CFG.seed)
    inputs = InputGenerator(CFG.generator, seed=CFG.seed + 1)

    def pipeline(index: int = 0):
        program = gen.generate(index)
        test_input = inputs.generate(program, 0)
        records = execute_stage(compile_stage(program), test_input)
        return analyze_test(records, CFG.outliers)

    verdict = benchmark.pedantic(pipeline, rounds=3, iterations=1)
    assert len(verdict.records) == 3
    print()
    print(f"pipeline verdict for {verdict.program_name}: "
          f"{[f'{r.vendor}:{r.time_us:.0f}us' for r in verdict.records]} "
          f"outliers={[str(o) for o in verdict.outliers]}")
