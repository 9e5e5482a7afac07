"""Native g++ backend tests: the generator's output is real OpenMP C++.

Skipped wholesale when no g++ is on PATH.  The agreement test is the
strongest statement in the suite: for programs whose output is
schedule-independent and contraction-free, the pure-Python simulated
backend and a real g++/libgomp execution print the *identical* value.
"""

import math

import pytest

from repro.backends import gcc_native
from repro.config import GeneratorConfig, MachineConfig
from repro.core.features import extract_features
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.driver import RunStatus, run_binary
from repro.driver.records import values_equal
from repro.vendors import CLANG, compile_binary

pytestmark = pytest.mark.skipif(not gcc_native.available(),
                                reason="no g++ on PATH")

#: small teams so the native runs do not oversubscribe CI hosts
_CFG = GeneratorConfig(num_threads=4, max_total_iterations=4_000,
                       loop_trip_max=60)


@pytest.fixture(scope="module")
def native_stream():
    gen = ProgramGenerator(_CFG, seed=424242)
    return [gen.generate(i) for i in range(6)]


class TestNativeCompilation:
    def test_every_program_compiles(self, native_stream, tmp_path_factory):
        wd = tmp_path_factory.mktemp("native")
        for p in native_stream:
            binary = gcc_native.compile_native(p, workdir=wd / p.name)
            assert binary.path.exists()

    def test_compile_and_run_produces_record(self, native_stream):
        p = native_stream[0]
        inputs = InputGenerator(_CFG, seed=99)
        rec = gcc_native.compile_and_run(p, inputs.generate(p, 0),
                                         num_threads=2)
        assert rec.status is RunStatus.OK
        assert rec.comp is not None
        assert rec.time_us >= 0


class TestSimulatedNativeAgreement:
    def _agreement_candidates(self, count=3):
        """Programs whose printed value is schedule-independent: no
        reductions (combine order varies at runtime in libgomp), no
        criticals or atomics (interleaving-dependent rounding), no
        dynamic/guided schedules (nondeterministic iteration-to-thread
        mapping), no math calls (libm vs Python ulp differences), double
        precision.  static schedules, collapse, singles, and barriers are
        all deterministic and stay eligible."""
        gen = ProgramGenerator(_CFG, seed=31337)
        out = []
        i = 0
        while len(out) < count and i < 300:
            p = gen.generate(i)
            i += 1
            f = extract_features(p)
            if (f.n_reductions == 0 and f.n_critical == 0
                    and f.n_atomic == 0 and f.n_nondet_schedules == 0
                    and f.n_math_calls == 0 and f.uses_double):
                out.append(p)
        assert out, "no agreement candidates found"
        return out

    def test_printed_values_match_real_gcc(self):
        inputs = InputGenerator(_CFG, seed=555)
        machine = MachineConfig()
        checked = 0
        for p in self._agreement_candidates():
            inp = inputs.generate(p, 0)
            # clang model = plain IEEE at -O1 (no contraction, no FTZ);
            # native g++ with contraction pinned off is the same function
            sim = run_binary(compile_binary(p, CLANG, "-O1"), inp, machine)
            native = gcc_native.compile_and_run(p, inp, fp_contract="off",
                                                num_threads=None)
            assert native.status is RunStatus.OK
            assert sim.ok
            assert values_equal(sim.comp, native.comp), (
                p.name, sim.comp, native.comp)
            checked += 1
        assert checked >= 1

    def test_thread_override_rewrites_clauses(self, native_stream):
        p = native_stream[0]
        from repro.backends.gcc_native import _with_threads
        from repro.core.nodes import OmpParallel, walk

        clone = _with_threads(p, 2)
        for n in walk(clone):
            if isinstance(n, OmpParallel):
                assert n.clauses.num_threads == 2
        # original untouched
        for n in walk(p):
            if isinstance(n, OmpParallel):
                assert n.clauses.num_threads == _CFG.num_threads
