#!/usr/bin/env python3
"""Validate the generator against a *real* OpenMP toolchain.

The differential campaign runs on simulated implementations, but the
generator emits genuine OpenMP C++.  On hosts with g++ this example:

1. generates a handful of test programs,
2. compiles each with ``g++ -O3 -fopenmp`` (real libgomp),
3. runs the native binaries with generated inputs,
4. for contraction-free, schedule-independent programs, checks that the
   simulated backend printed the *bit-identical* comp value.

Run:  python examples/native_gcc_validation.py
"""

import sys

from repro.backends import gcc_native
from repro.config import GeneratorConfig, MachineConfig
from repro.core.features import extract_features
from repro.core.generator import ProgramGenerator
from repro.core.inputs import InputGenerator
from repro.driver import run_binary
from repro.driver.records import values_equal
from repro.vendors import CLANG, compile_binary


def main() -> int:
    if not gcc_native.available():
        print("no g++ on PATH — nothing to validate (the simulated backend "
              "is the default everywhere else)")
        return 0

    cfg = GeneratorConfig(num_threads=4, max_total_iterations=4_000,
                          loop_trip_max=60)
    gen = ProgramGenerator(cfg, seed=31337)
    inputs = InputGenerator(cfg, seed=555)
    machine = MachineConfig()

    # phase 1: arbitrary generated programs compile and run natively
    compiled = 0
    for i in range(6):
        program = gen.generate(i)
        inp = inputs.generate(program, 0)
        native = gcc_native.compile_and_run(program, inp, fp_contract="off",
                                            num_threads=None)
        compiled += 1
        print(f"{program.name}: native g++ -> {native.status.value} "
              f"comp={native.comp!r} time={native.time_us:.0f}us")

    # phase 2: for schedule-independent, contraction-free programs the
    # simulated backend must print the *identical* value
    print()
    print("searching for deterministic agreement candidates "
          "(no reduction/critical/math, double precision) ...")
    agreed = checked = 0
    i = 0
    while checked < 3 and i < 300:
        program = gen.generate(i)
        i += 1
        f = extract_features(program)
        if (f.n_reductions or f.n_critical or f.n_math_calls
                or not f.uses_double):
            continue
        inp = inputs.generate(program, 0)
        native = gcc_native.compile_and_run(program, inp, fp_contract="off",
                                            num_threads=None)
        if not native.ok:
            continue
        sim = run_binary(compile_binary(program, CLANG, "-O1"), inp,
                         machine)
        same = values_equal(sim.comp, native.comp)
        checked += 1
        agreed += same
        print(f"  {program.name}: native={native.comp!r} "
              f"simulated={sim.comp!r} "
              f"{'EXACT MATCH' if same else 'MISMATCH (BUG)'}")

    print()
    print(f"compiled & ran {compiled + checked} generated programs with real "
          f"g++; simulated/native agreement: {agreed}/{checked}")
    return 0 if agreed == checked else 1


if __name__ == "__main__":
    sys.exit(main())
