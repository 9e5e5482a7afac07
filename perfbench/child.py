"""One measured process: set up, run the timed phase, then check outputs.

Started by ``perfbench/run.py`` as ``python3 perfbench/child.py SPEC OUT``
with ``PYTHONPATH`` at a compiled copy of the checkout's ``src/`` and
``REPRO_NATIVE_CACHE`` at a kernel cache the benchmark owns.  ``SPEC`` is
a JSON file naming the mode and its inputs; ``OUT`` receives a JSON
result.

Modes:

``helper``    load (and so build) the native value helpers, nothing else;
``prime``     build every kernel shape of a warm-rerun grid, then record
              the interp verdicts of every input of the grid;
``probe``     set up exactly as a timed process would, then stop where
              the first unit would start (one more ``setup_s`` sample);
``campaign``  run work units through :func:`repro.driver.engine.
              execute_unit` on the serial path, one after another;
``triage``    run :func:`repro.reduce.reducer.reduce_case` on injected-
              fault outliers, one after another.

The timed phase is a closed loop: the next work unit starts when the
last one finishes, until the time budget is spent, and the unit in
progress is finished.  In triage the unit is a round: one case per
fault, each reduced to completion, so every run reduces whole rounds of
the same mix of faults; each differential re-run by the reducer's oracle
is one timed sample.  CPU time, peak RSS and kernel-cache bytes are read
at the two ends of the timed phase, so the output checks that follow
never count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import time

#: the injected faults of the triage workload: (directive mix, trigger
#: feature, fault kind, backend name) — one structural bug per mix, each
#: wrapping the simulated Intel backend, as in tests/test_reduce.py
FAULTS = (
    ("sync", "n_atomic", "crash", "buggy-atomic"),
    ("worksharing", "n_parallel_for", "hang", "buggy-parfor"),
    ("tasks", "n_tasks", "crash", "buggy-task"),
)


def verdict_digest(verdict) -> str:
    """Hash of a full verdict record: every run's status, output, time,
    counters and thread states, plus the analysis flags and outliers."""
    payload = [verdict.program_name, verdict.input_index, verdict.analyzed,
               verdict.filtered_reason, verdict.output_divergent,
               sorted(str(o) for o in verdict.outliers),
               [r.to_row() for r in verdict.records]]
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome_digests(outcome) -> dict:
    """Verdict digests of one work unit, by input index."""
    if outcome.race_filtered:
        return {"race-filtered": True}
    return {str(v.input_index): verdict_digest(v) for v in outcome.verdicts}


def cache_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


#: iterations of the host-speed loop, about 10 ms on the host the
#: README describes
CAL_LOOPS = 200_000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds that one fixed pure-Python loop takes now.

    Speed on a shared host drifts by up to 1.5x over minutes, in CPU time
    as much as in wall time; the loop's seconds, taken between units,
    track it, so timings can be scaled to a reference speed."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    total = 0
    for i in range(CAL_LOOPS):
        total += i
    return time.perf_counter() - wall0, time.process_time() - cpu0


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ----------------------------------------------------------------------
# set-up: everything a measured process does before its first unit
# ----------------------------------------------------------------------

def campaign_setup(spec: dict):
    from repro.config import CampaignConfig
    from repro.driver.engine import ExecutionPlan, WorkUnit

    inputs = tuple(spec["inputs"])
    cfg = CampaignConfig(n_programs=max(spec["programs"]) + 1,
                         inputs_per_program=len(inputs),
                         seed=spec["campaign_seed"])
    return ExecutionPlan(cfg), [WorkUnit(i, inputs) for i in spec["programs"]]


def interp_digests(plan, units) -> dict:
    """Reference verdicts: the same units under the interp backend, the
    reference semantics (never the C backend under test)."""
    from repro.driver.engine import execute_unit

    ref_plan = dataclasses.replace(
        plan, config=dataclasses.replace(plan.config,
                                         kernel_backend="interp"))
    return {str(u.program_index): outcome_digests(execute_unit(ref_plan, u))
            for u in units}


def triage_generator(mix: str):
    """The small-program generator of the reducer's test fixture, with
    blocks held to a few statements: reduction cost grows faster than
    program size, and these cases reduce fully in 5-20 s each."""
    from repro.config import GeneratorConfig, apply_directive_mix

    return apply_directive_mix(
        GeneratorConfig(max_total_iterations=1500, loop_trip_max=30,
                        num_threads=8, max_lines_in_block=4,
                        max_same_level_blocks=2, max_nesting_levels=2), mix)


def register_faults() -> None:
    from repro.backends import InjectedFault, register_fault_backend

    for _mix, trigger, kind, name in FAULTS:
        register_fault_backend("intel", InjectedFault(kind=kind,
                                                      trigger=trigger),
                               name=name, replace=True)


#: the triage programs come from the reducer test fixture's stream at
#: its seed; the benchmark seed draws each case's failing input
TRIAGE_CASE_SEED = 4242


class _CaseMaker:
    """Outlier cases of one fault, built from stream indices."""

    def __init__(self, fault: tuple) -> None:
        from repro.core.generator import ProgramGenerator
        from repro.core.inputs import InputGenerator

        mix, self.trigger, self.kind, self.name = fault
        gen_cfg = triage_generator(mix)
        self.programs = ProgramGenerator(gen_cfg, seed=TRIAGE_CASE_SEED)
        self.inputs = InputGenerator(gen_cfg, seed=TRIAGE_CASE_SEED + 1)

    def case(self, index: int, input_index: int, program=None):
        from repro.analysis.outliers import OutlierKind
        from repro.reduce.reducer import OutlierCase

        if program is None:
            program = self.programs.generate(index)
        return (f"{self.name}#{index}/in{input_index}", OutlierCase(
            program=program,
            test_input=self.inputs.generate(program, input_index),
            vendor=self.name, kind=OutlierKind(self.kind),
            compilers=("gcc", "clang", self.name)))


def is_outlier(case) -> bool:
    """Whether the differential test, under interp, flags the case's kind
    on its backend (a latent vendor fault can crash a sibling too, and
    then there is no outlier to reduce)."""
    from repro.reduce.reducer import ReductionOracle
    from repro.sim.backend import use_kernel_backend

    oracle = ReductionOracle(case)
    with use_kernel_backend("interp"):
        verdict = oracle.run_differential(case.program, case.test_input)
    return oracle.still_fails(verdict)


def triage_programs(rounds: int) -> list[list[int]]:
    """Per fault, the stream indices of the first ``rounds`` programs of
    the fault's mix that arm the fault, are race-free, and are outliers
    on their first input.  Part of the benchmark's input selection, made
    by ``run.py``: the measured processes only build the chosen cases."""
    from repro.core.features import extract_features
    from repro.core.races import find_races

    register_faults()
    chosen = []
    for fault in FAULTS:
        maker = _CaseMaker(fault)
        indices, index = [], 0
        while len(indices) < rounds:
            program = maker.programs.generate(index)
            if getattr(extract_features(program), maker.trigger) >= 1 \
                    and not find_races(program) \
                    and is_outlier(maker.case(index, 0, program)[1]):
                indices.append(index)
            index += 1
        chosen.append(indices)
    return chosen


def triage_inputs(seed: int, programs: list[list[int]]) -> list[list[int]]:
    """Per case, the first input index drawn from ``seed`` on which the
    case is an outlier."""
    register_faults()
    chosen = []
    for fault, indices in zip(FAULTS, programs):
        maker = _CaseMaker(fault)
        inputs = []
        for index in indices:
            draws = random.Random(f"{seed}:{fault[3]}:{index}")
            program = maker.programs.generate(index)
            for _ in range(100):
                input_index = draws.randrange(10 ** 6)
                if is_outlier(maker.case(index, input_index, program)[1]):
                    inputs.append(input_index)
                    break
            else:
                raise RuntimeError(f"no failing input for {fault[3]} "
                                   f"program {index}")
        chosen.append(inputs)
    return chosen


def triage_setup(spec: dict) -> list[tuple]:
    """The outlier cases of ``spec["programs"]`` with their inputs
    ``spec["inputs"]``, as rounds: round ``r`` holds the ``r``-th case of
    each fault."""
    register_faults()
    cases = []
    for fault, indices, inputs in zip(FAULTS, spec["programs"],
                                      spec["inputs"]):
        maker = _CaseMaker(fault)
        cases.append([maker.case(index, input_index)
                      for index, input_index in zip(indices, inputs)])
    return list(zip(*cases))


# ----------------------------------------------------------------------
# timed phases
# ----------------------------------------------------------------------

class Phase:
    """Clock, CPU and cache readings at the two ends of the timed phase,
    and one row per unit run inside it."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.cache_dir = os.environ["REPRO_NATIVE_CACHE"]
        self.rows: list[dict] = []
        #: host-speed samples taken before each unit, and their seconds
        #: (kept out of the timed phase's wall and CPU time)
        self.cal: list[float] = []
        self.cal_wall = self.cal_cpu = 0.0

    def start(self) -> None:
        from repro.sim.kcache import get_kernel_cache

        if self.tracer is not None:
            self.tracer.install()
        self.cache0 = cache_bytes(self.cache_dir)
        self.kstats0 = get_kernel_cache().stats()
        self.cpu0 = cpu_now()
        self.first = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.first - self.cal_wall

    def unit(self, label, tests: int, span: str | None, fn, *args,
             reraise: bool = False):
        """Take a host-speed sample, then run one unit, recording its
        seconds and its C builds that fell back to interp.  ``span``
        names the trace span around ``fn`` when the tracer does not
        already wrap it.  An exception is recorded, and re-raised if
        asked."""
        from repro.sim import ckernel

        t0 = time.monotonic()
        if self.tracer is None:
            _, cal_cpu = calibrate()
        else:
            # a span the tracer takes out of the spans around it
            _, cal_cpu = self.tracer.call("bench.calibrate", calibrate)
        t1 = time.monotonic()
        self.cal.append(t1 - t0)
        self.cal_wall += t1 - t0
        self.cal_cpu += cal_cpu
        failed0 = ckernel.build_info()["failed"]
        t0 = time.monotonic()
        result, error = None, None
        try:
            if self.tracer is not None:
                self.tracer.unit = label
            if self.tracer is None or span is None:
                result = fn(*args)
            else:
                result = self.tracer.call(span, fn, *args)
        except Exception as exc:  # a failed unit
            error = f"{type(exc).__name__}: {exc}"
            if reraise:
                raise
        finally:
            seconds = time.monotonic() - t0
            self.rows.append({
                "label": label, "seconds": seconds, "tests": tests,
                "error": error,
                "c_failures": ckernel.build_info()["failed"] - failed0})
        return result

    def stop(self) -> dict:
        from repro.sim import ckernel
        from repro.sim.kcache import get_kernel_cache

        end = time.monotonic()
        cpu = cpu_now() - self.cpu0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            self.tracer.recording = False
        kstats = get_kernel_cache().stats().since(self.kstats0)
        return {"t_first": self.first,
                "timed_s": end - self.first - self.cal_wall,
                "cpu_s": cpu - self.cal_cpu, "cal_s": self.cal,
                "peak_rss_mb": rss_kb / 1024,
                "cache_added_bytes": cache_bytes(self.cache_dir) - self.cache0,
                "kcache": dataclasses.asdict(kstats), "units": self.rows,
                # C modules built or loaded by this process: none means
                # every kernel ran on interp, whatever backend_info() says
                "c_modules": ckernel.build_info()["compiled"]}


def run_campaign(spec: dict, tracer) -> dict:
    from repro.driver.engine import execute_unit

    plan, units = campaign_setup(spec)
    phase = Phase(tracer)
    budget = spec.get("budget_s")
    outcomes = []
    phase.start()
    for unit in units:
        if budget is not None and outcomes and phase.elapsed() >= budget:
            break
        outcomes.append(phase.unit(unit.program_index, unit.n_tests,
                                   "driver.engine.execute_unit",
                                   execute_unit, plan, unit))
    result = phase.stop()

    # -- output check: full verdict records against interp ---------------
    reference = spec.get("reference")
    if reference is None:
        reference = interp_digests(plan, units[:len(outcomes)])
    for row, outcome in zip(result["units"], outcomes):
        expected = reference[str(row["label"])]
        row["mismatch"] = outcome is not None and any(
            expected.get(key) != digest
            for key, digest in outcome_digests(outcome).items())
    return result


def run_prime(spec: dict) -> dict:
    """Build the grid's kernel shapes, then record the interp verdicts of
    every input of the grid.  Shapes depend on the program and backend
    only, so one input per unit runs every kernel once."""
    from repro.driver.engine import WorkUnit, execute_unit

    plan, units = campaign_setup(spec)
    for unit in units:
        execute_unit(plan, WorkUnit(unit.program_index,
                                    unit.input_indices[:1]))
    return {"reference": interp_digests(plan, units)}


def run_triage(spec: dict, tracer) -> dict:
    from repro.core.grammar import check_conformance
    from repro.core.races import find_races
    from repro.core.surgery import count_statements, reads_undeclared_locals
    from repro.errors import GrammarError
    from repro.reduce.reducer import (ReductionOracle, reduce_case,
                                      run_differential_test)
    from repro.sim.backend import use_kernel_backend

    rounds = triage_setup(spec)
    phase = Phase(tracer)
    diffs: list = []  # (case, program, input), one per unit row

    class TimedOracle(ReductionOracle):
        """The reducer's own oracle; each differential re-run is a timed
        unit.  An exception is recorded and re-raised, for the reducer to
        handle as it does in production."""

        def __init__(self, case, case_id):
            super().__init__(case)
            self.case_id = case_id

        def run_differential(self, program, test_input):
            diffs.append((self.case, program, test_input))
            verdict = phase.unit(self.case_id, 1, None,
                                 super().run_differential, program,
                                 test_input, reraise=True)
            phase.rows[-1]["digest"] = verdict_digest(verdict)
            return verdict

    phase.start()
    reduced = []  # (case id, case, result or None, error, seconds)
    for round_cases in rounds:
        if reduced and phase.elapsed() >= spec["budget_s"]:
            break
        for case_id, case in round_cases:
            oracle = TimedOracle(case, case_id)
            started, cal0 = time.monotonic(), phase.cal_wall
            try:
                if tracer is None:
                    outcome = reduce_case(case, oracle=oracle)
                else:
                    tracer.unit = case_id
                    outcome = tracer.call("reduce.reducer.reduce_case",
                                          reduce_case, case, oracle=oracle)
                error = None
            except Exception as exc:  # a failed case
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            reduced.append((case_id, case, outcome, error,
                            time.monotonic() - started
                            - (phase.cal_wall - cal0)))
    result = phase.stop()

    # -- output check 1: every differential verdict against interp -------
    with use_kernel_backend("interp"):
        for row, (case, program, test_input) in zip(result["units"], diffs):
            try:
                expected = verdict_digest(run_differential_test(
                    program, test_input, case.compilers, case.opt_level,
                    case.machine, case.outliers))
            except Exception as exc:
                expected = f"{type(exc).__name__}: {exc}"
            row["mismatch"] = expected != (row["error"] or row["digest"])
            row["error"] = None  # the same refusal as interp is no failure

    # -- output check 2: re-confirm each reproducer, measure its size ----
    checked = []
    with use_kernel_backend("interp"):
        for case_id, case, outcome, error, seconds in reduced:
            ok = error is None and outcome.confirmed
            program = outcome.reduced_program if ok else case.program
            if ok:
                try:
                    check_conformance(program)
                except GrammarError:
                    ok = False
            ok = ok and not reads_undeclared_locals(program) \
                and not find_races(program)
            oracle = ReductionOracle(case)
            ok = ok and oracle.still_fails(oracle.run_differential(
                program, outcome.reduced_input))
            checked.append({"case": case_id, "seconds": seconds,
                            "error": error, "reproduces": ok,
                            "original": count_statements(case.program),
                            "reduced": count_statements(program)})
    result["cases"] = checked
    return result


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    import repro.sim.values  # noqa: F401  (loads the native value helpers)

    if mode == "helper":
        from repro.sim.values import native_values_info

        result = {"helper": native_values_info()}
    elif mode == "prime":
        result = run_prime(spec)
    elif mode == "probe":
        if spec["kind"] == "campaign":
            campaign_setup(spec)
        else:
            triage_setup(spec)
        result = {"t_first": time.monotonic(),
                  "cal_s": [calibrate()[0] for _ in range(3)]}
    else:
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer  # perfbench/ is sys.path[0]

            tracer = Tracer()
        runner = run_campaign if mode == "campaign" else run_triage
        result = runner(spec, tracer)
        if tracer is not None:
            tracer.write(spec["spans_path"])
            result["tracer_s"] = tracer.own_s
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
