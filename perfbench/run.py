"""The repro-omp benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-campaign --seed 20240915 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for seeds, reasons and sizes):

``cold-campaign``  the default ``CampaignConfig`` traffic from an empty
                   kernel cache: every program is three new kernel shapes;
``warm-rerun``     a many-input grid re-run by fresh processes against a
                   kernel cache primed with its shapes;
``triage-reduce``  ``reduce_case`` on injected-fault outliers from an
                   empty kernel cache.

Load is one process on the serial path in a closed loop; its only
children are the compiler runs the program starts itself.  Each measured
process is a ``perfbench/child.py`` started by this script with a kernel
cache the benchmark owns under ``.perfbench/``.  Every output is checked:
campaign verdicts field by field against the interp backend, every
reducer differential verdict against interp, and each case's reproducer
re-confirmed.  The last line of stdout is one JSON object; a
readable report goes to stderr.  Times are scaled to a reference host
speed, measured by a fixed loop between units (see ``end_to_end``); the
report also gives them as timed.  With ``--trace 1`` the same run is
traced and prints the per-layer metrics instead, from spans taken around
each layer's public functions (``perfbench/tracer.py``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("cold-campaign", "warm-rerun", "triage-reduce")

END_TO_END = {
    "tests_per_s": "1/s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.ckernel.emit_s": "s", "sim.ckernel.emit_kb": "kB",
    "sim.ckernel.cc_calls": "count", "sim.ckernel.cc_s": "s",
    "sim.ckernel.cc_failed": "count", "sim.ckernel.load_calls": "count",
    "sim.ckernel.load_s": "s",
    "backends.execute_calls": "count", "backends.execute_self_s": "s",
    "backends.execute_c_frac": "ratio",
    "sim.lower.structural_calls": "count", "sim.lower.structural_s": "s",
    "sim.lower.bind_costs_s": "s", "sim.lower.bind_self_s": "s",
    "sim.kcache.structural_hit_frac": "ratio",
    "sim.kcache.kernel_hit_frac": "ratio",
    "codegen.calls": "count", "codegen.s": "s",
    "vendors.toolchain.self_s": "s",
    "core.grammar.s": "s", "core.surgery.s": "s",
    "core.races.calls": "count", "core.races.s": "s",
    "reduce.reducer.candidates": "count",
    "reduce.reducer.candidates_per_s": "1/s",
    "reduce.reducer.gate_reject_frac": "ratio",
    "reduce.reducer.accept_frac": "ratio",
    "reduce.reducer.diff_runs": "count", "reduce.reducer.diff_s": "s",
    "reduce.reducer.self_s": "s",
    "core.generator.s": "s", "analysis.outliers.s": "s",
    "driver.engine.self_s": "s",
    "reduced_size_frac": "ratio",
    "cache_disk_mb": "MB/op",
    "trace.ops": "count", "trace.timed_s": "s",
    "trace.unbooked_frac": "ratio", "trace.overhead_frac": "ratio",
    "trace.host_slowness": "ratio",
}

#: cold-campaign draws COLD_PICKS programs from the seed's first
#: COLD_POOL, one per C++-size stratum (see ``stratified``)
COLD_POOL, COLD_PICKS = 128, 32
#: warm-rerun grid: a fixed draw of WARM_PICKS programs from the first
#: WARM_POOL of the reference campaign seed, each run with WARM_INPUTS
#: of their first WARM_INPUT_POOL inputs, drawn by the benchmark seed
WARM_CAMPAIGN_SEED, WARM_POOL, WARM_PICKS = 20240915, 64, 8
WARM_INPUT_POOL, WARM_INPUTS = 48, 24
#: triage rounds prepared (one case per fault each; a run on this
#: host completes one, a host twice as fast two)
TRIAGE_ROUNDS = 3
#: set-up samples per run: SETUP_BEFORE probes before the timed phase,
#: then the timed processes, then probes up to SETUP_SAMPLES in all
SETUP_BEFORE, SETUP_SAMPLES = 3, 7
#: a child process taking longer than this plus twice --seconds is killed
CHILD_TIMEOUT_S = 120
#: seconds of the host-speed loop (``child.calibrate``) at the reference
#: speed: about its median on the host the README describes
CAL_REF_S = 0.0105


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


def code_hash(root: Path) -> str:
    """Content hash of the program under test and of this benchmark,
    keying the state reused across runs (bytecode, primed cache)."""
    digest = hashlib.sha256()
    for top in (root / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stratified(keys: list[float], picks: int, seed: int) -> list[int]:
    """Indices of ``picks`` pool members, one per stratum of ``keys``.

    The pool is sorted by key and cut into ``picks`` equal strata; a
    seeded draw takes one member of each.  Draws are returned in
    bit-reversed stratum order (``picks`` is a power of two), so every
    prefix a time-boxed run completes spans the whole key range.  Run
    cost follows program size closely (r = 0.93 between C++ bytes and
    cold unit seconds), and a plain prefix of a heavy-tailed stream made
    one seed's throughput unlike the next one's.
    """
    rng = random.Random(seed)
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    size = len(order) // picks
    draws = [order[s * size + rng.randrange(size)] for s in range(picks)]
    bits = picks.bit_length() - 1
    return [draws[int(f"{s:0{bits}b}"[::-1], 2)] for s in range(picks)]


def percentile_summary(samples: list[float]) -> dict:
    """Median, and the tail: the highest percentile with at least ten
    samples beyond it (the eleventh-largest sample), kept only when it
    lies above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    if n > 10 and ordered[n - 11] > out["p50"]:
        out["tail"] = ordered[n - 11]
        out["tail_level"] = 100 * (n - 10) / n
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """One invocation: owns the run directory and every child process."""

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.timeout = CHILD_TIMEOUT_S + 2 * seconds
        self.state = root / ".perfbench" / code_hash(root)
        self.src = self.installed_src()
        self.rundir = root / ".perfbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        (self.rundir / "tmp").mkdir(parents=True)
        self.spawned = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(self.src),
                        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
                        TMPDIR=str(self.rundir / "tmp"))

    def installed_src(self) -> Path:
        """A copy of ``src/`` with its bytecode compiled, made once per
        code version.  Processes read it and none writes, so set-up
        always starts from the state of an installed package, whatever
        ``__pycache__`` the checkout holds."""
        ready = self.state / "src"
        if not ready.is_dir():
            building = self.state / f"src.{os.getpid()}"
            shutil.rmtree(building, ignore_errors=True)
            shutil.copytree(self.root / "src", building,
                            ignore=shutil.ignore_patterns("__pycache__"))
            if not compileall.compile_dir(building, quiet=1):
                raise BenchError("src/ does not compile")
            os.replace(building, ready)
        return ready

    def close(self) -> None:
        shutil.rmtree(self.rundir, ignore_errors=True)

    # -- processes ------------------------------------------------------
    def spawn(self, spec: dict, cache: Path) -> dict:
        """Run one ``child.py`` to completion and return its result."""
        self.spawned += 1
        spec_path = self.rundir / f"spec{self.spawned}.json"
        out_path = self.rundir / f"out{self.spawned}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(self.env, REPRO_NATIVE_CACHE=str(cache))
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(out_path)], cwd=self.root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            _, err = proc.communicate(timeout=self.timeout)
        except BaseException:
            # the compiler runs are in the child's session: stop them too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{spec['mode']} process exited "
                             f"{proc.returncode}: {' | '.join(tail)}")
        result = json.loads(out_path.read_text())
        if "t_first" in result:
            result["setup_s"] = result["t_first"] - started
        return result

    def helper_cache(self) -> Path:
        """A kernel cache holding only the native value helpers, built
        once per code version: the state of any machine that has run
        the program once, before it has seen a kernel shape."""
        ready = self.state / "helper-cache"
        if not ready.is_dir():
            building = self.state / f"helper-cache.{os.getpid()}"
            shutil.rmtree(building, ignore_errors=True)
            info = self.spawn({"mode": "helper"}, building)["helper"]
            if not info["active"]:
                raise BenchError(f"native value helpers unavailable: "
                                 f"{info['reason']}")
            os.replace(building, ready)
        return ready

    def fresh_cache(self) -> Path:
        cache = self.rundir / "cache"
        shutil.copytree(self.helper_cache(), cache)
        return cache

    # -- workload inputs --------------------------------------------------
    def import_src(self) -> None:
        """Make the program importable here, to choose workload inputs."""
        if str(self.src) not in sys.path:
            # choosing inputs needs no native helpers: keep this process
            # from building or caching any of its own
            os.environ["REPRO_NATIVE_VALUES"] = "0"
            sys.path.insert(1, str(self.src))

    def campaign_programs(self, seed: int, pool: int,
                          picks: int) -> list[int]:
        """A seeded size-stratified draw from a campaign's stream."""
        self.import_src()
        from repro.codegen.emit_main import emit_translation_unit
        from repro.config import CampaignConfig
        from repro.core.generator import ProgramGenerator

        generator = ProgramGenerator(CampaignConfig().generator, seed=seed)
        sizes = [len(emit_translation_unit(generator.generate(i)))
                 for i in range(pool)]
        return stratified(sizes, picks, seed)

    def triage_programs(self) -> list[list[int]]:
        """The triage cases' programs: fixed, so chosen once per code
        version.  A seed-drawn case set made one seed's throughput unlike
        the next one's (25-30% IQR over median across ten seeds)."""
        self.import_src()
        from child import triage_programs

        path = self.state / "triage-programs.json"
        if not path.is_file():
            building = path.with_suffix(f".{os.getpid()}")
            building.write_text(json.dumps(triage_programs(TRIAGE_ROUNDS)))
            os.replace(building, path)
        return json.loads(path.read_text())

    def warm_state(self, spec: dict) -> tuple[Path, dict]:
        """The warm grid's primed kernel cache and the interp verdicts of
        every input a seed can draw, made together once per code version,
        outside any timed phase."""
        cache = self.state / "warm-cache"
        path = self.state / "warm-reference.json"
        if not path.is_file():
            building = self.state / f"warm-cache.{os.getpid()}"
            shutil.rmtree(building, ignore_errors=True)
            shutil.copytree(self.helper_cache(), building)
            pool = dict(spec, mode="prime",
                        inputs=list(range(WARM_INPUT_POOL)))
            reference = self.spawn(pool, building)["reference"]
            shutil.rmtree(cache, ignore_errors=True)
            os.replace(building, cache)
            written = path.with_suffix(f".{os.getpid()}")
            written.write_text(json.dumps(reference))
            os.replace(written, path)
        return cache, json.loads(path.read_text())

    # -- one measured pass ----------------------------------------------
    def measure(self, trace: bool) -> dict:
        """Set-up probes, the timed processes of the run, more probes."""
        timed: list[dict] = []
        measured: dict = {}
        base = {"seed": self.seed, "trace": trace}
        if self.workload == "triage-reduce":
            programs = self.triage_programs()
            from child import triage_inputs

            spec = dict(base, mode="triage", kind="triage",
                        programs=programs,
                        inputs=triage_inputs(self.seed, programs),
                        budget_s=self.seconds)
            cache = self.fresh_cache()
        elif self.workload == "cold-campaign":
            spec = dict(base, mode="campaign", kind="campaign",
                        campaign_seed=self.seed,
                        programs=self.campaign_programs(
                            self.seed, COLD_POOL, COLD_PICKS),
                        inputs=[0, 1, 2], budget_s=self.seconds)
            cache = self.fresh_cache()
        else:
            # fixed programs, so one primed cache serves every seed and
            # a seed cannot swap a hook-heavy kernel in or out (one such
            # program made a grid 7x slower); the seed draws the inputs
            inputs = random.Random(self.seed).sample(
                range(WARM_INPUT_POOL), WARM_INPUTS)
            spec = dict(base, mode="campaign", kind="campaign",
                        campaign_seed=WARM_CAMPAIGN_SEED,
                        programs=sorted(self.campaign_programs(
                            WARM_CAMPAIGN_SEED, WARM_POOL, WARM_PICKS)),
                        inputs=sorted(inputs))
            cache, reference = self.warm_state(spec)
            files_before = sorted(os.listdir(cache))
        probe = dict(spec, mode="probe")
        # set-up samples spread over the run, so one burst of host load
        # cannot decide their median
        setups = [self.spawn(probe, cache) for _ in range(SETUP_BEFORE)]
        if self.workload == "warm-rerun":
            spec["reference"] = reference
            while not timed or sum(r["timed_s"] for r in timed) \
                    < self.seconds:
                timed.append(self.spawn(self._traced(spec, len(timed)),
                                        cache))
            measured["cache_unchanged"] = \
                sorted(os.listdir(cache)) == files_before
        else:
            timed.append(self.spawn(self._traced(spec, 0), cache))
        setups += timed
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn(probe, cache))
        # each set-up sample with the host-speed samples taken right after
        setups = [(r["setup_s"], r["cal_s"][:3]) for r in setups]
        measured.update(timed=timed, setups=setups)
        return measured

    def _traced(self, spec: dict, index: int) -> dict:
        if not spec["trace"]:
            return spec
        return dict(spec, spans_path=str(self.spans_path(index)))

    def spans_path(self, index: int) -> Path:
        return self.rundir / f"spans-{index}.jsonl"

    # -- the run ----------------------------------------------------------
    def run(self, trace: bool) -> dict:
        measured = self.measure(trace=trace)
        result = self.end_to_end(measured)
        if trace:
            result["metrics"] = self.per_layer(measured, result)
        return result

    def end_to_end(self, measured: dict) -> dict:
        timed = measured["timed"]
        notes: list[str] = []
        tests = failed = 0
        for r in timed:
            for unit in r["units"]:
                tests += unit["tests"]
                why = unit["error"] or ("verdicts differ from interp"
                                        if unit.get("mismatch") else None)
                if why:
                    failed += unit["tests"]
                    notes.append(f"unit {unit['label']}: {why}")
                if unit["c_failures"]:
                    failed += unit["c_failures"]
                    notes.append(f"unit {unit['label']}: "
                                 f"{unit['c_failures']} C builds failed")
        if not any(r["c_modules"] for r in timed):
            failed = tests
            notes.append("no C kernel module was built or loaded: every "
                         "kernel ran on interp")
        cases = timed[0].get("cases", [])
        for case in cases:
            if not case["reproduces"]:
                failed += 1
                notes.append(f"case {case['case']}: reproducer not "
                             f"re-confirmed ({case['error'] or 'checks'})")
        if measured.get("cache_unchanged") is False:
            failed += 1
            notes.append("the timed phase added files to the primed "
                         "kernel cache")
        # an op is a differential test in a campaign, a reduced case in
        # triage (whose tests are the reducer's differential re-runs)
        ops = len(cases) if cases else tests
        timed_s = sum(r["timed_s"] for r in timed)
        cpu_s = sum(r["cpu_s"] for r in timed)
        samples = [u["seconds"] for r in timed for u in r["units"]]
        setups = measured["setups"]
        # host slowness: the mean host-speed loop time over the timed
        # phase against the reference; times are divided by it.  This
        # host's speed drifts by up to 1.5x over minutes, in CPU time as
        # much as in wall time, and the loop tracks it: scaled, the same
        # runs spread 2-3x less (README, "Host speed")
        cal = [c for r in timed for c in r["cal_s"]]
        slow = statistics.fmean(cal) / CAL_REF_S
        raw = {
            "tests_per_s": ratio(tests, timed_s),
            "cpu_s_per_op": ratio(cpu_s, ops),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in timed),
        }
        metrics = {
            "tests_per_s": raw["tests_per_s"] * slow,
            "cpu_s_per_op": raw["cpu_s_per_op"] / slow,
            # each set-up sample scaled by the loop times taken after it
            "setup_s": statistics.median(
                s * CAL_REF_S / statistics.median(c) for s, c in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        return {"correct": failed == 0, "attempted": tests + len(cases),
                "failed": failed, "metrics": metrics, "raw": raw,
                "slow": slow, "ops": ops,
                "tests": tests, "timed_s": timed_s, "cases": cases,
                "percentiles": percentile_summary(samples), "notes": notes,
                "setups": [s for s, _ in setups], "processes": len(timed)}

    def per_layer(self, traced: dict, checked: dict) -> dict:
        from tracer import layer_totals, read_spans

        totals: dict[str, float] = {}
        kcache = {"structural_hits": 0, "structural_misses": 0,
                  "kernel_hits": 0, "kernel_misses": 0}
        cache_bytes = 0
        for index, r in enumerate(traced["timed"]):
            spans = read_spans(self.spans_path(index))
            for name, value in layer_totals(spans).items():
                totals[name] = totals.get(name, 0) + value
            for key in kcache:
                kcache[key] += r["kcache"][key]
            cache_bytes += r["cache_added_bytes"]
        ops, timed_s = checked["ops"], checked["timed_s"]
        cases = checked["cases"]
        metrics = {name: totals[name] for name in PER_LAYER
                   if name in totals}
        metrics.update({
            "backends.execute_c_frac": ratio(
                totals["backends.execute_c_runs"],
                totals["backends.execute_calls"]),
            "sim.kcache.structural_hit_frac": ratio(
                kcache["structural_hits"],
                kcache["structural_hits"] + kcache["structural_misses"]),
            "sim.kcache.kernel_hit_frac": ratio(
                kcache["kernel_hits"],
                kcache["kernel_hits"] + kcache["kernel_misses"]),
            "reduce.reducer.candidates_per_s": ratio(
                totals["reduce.reducer.candidates"], timed_s),
            "reduce.reducer.gate_reject_frac": ratio(
                totals["reduce.reducer.gate_rejects"],
                totals["reduce.reducer.candidates"]),
            "reduce.reducer.accept_frac": ratio(
                totals["reduce.reducer.accepted"],
                totals["reduce.reducer.candidates"]),
            "reduced_size_frac": ratio(sum(c["reduced"] for c in cases),
                                       sum(c["original"] for c in cases)),
            "cache_disk_mb": ratio(cache_bytes / 2 ** 20, ops),
            "trace.ops": ops,
            "trace.timed_s": timed_s,
            "trace.unbooked_frac": ratio(
                timed_s - totals["trace.booked_s"], timed_s),
            "trace.overhead_frac": ratio(
                sum(r["tracer_s"] for r in traced["timed"]), timed_s),
            "trace.host_slowness": checked["slow"],
        })
        return metrics


def report(workload: str, seed: int, result: dict, trace: bool) -> str:
    pct = result["percentiles"]
    lines = [f"perfbench {workload} seed={seed}: "
             f"{'checks passed' if result['correct'] else 'CHECKS FAILED'}"
             f" ({result['failed']} failed of {result['attempted']})",
             f"  timed phase {result['timed_s']:.2f} s in "
             f"{result['processes']} process(es), {result['tests']} tests, "
             f"{result['ops']} ops; set-up samples "
             f"{[round(s, 3) for s in result['setups']]}",
             f"  unit_p50_s {pct['p50']:.4f} (p50, n={pct['n']}, as timed)"]
    if "tail" in pct:
        lines.append(f"  unit_tail_s {pct['tail']:.4f} "
                     f"(p{pct['tail_level']:.1f}, n={pct['n']}, as timed)")
    else:
        lines.append(f"  unit_tail_s omitted: n={pct['n']} allows no "
                     f"percentile above the median with 10 samples beyond")
    units = END_TO_END if not trace else PER_LAYER
    for name, unit in units.items():
        lines.append(f"  {name} = {result['metrics'][name]:.6g} {unit}")
    lines.append(f"  host slowness {result['slow']:.4f}; as timed: " + ", ".join(
        f"{name} = {value:.6g}" for name, value in result["raw"].items()))
    for case in result["cases"]:
        lines.append(f"  case {case['case']}: {case['seconds']:.2f} s, "
                     f"{case['original']} -> {case['reduced']} statements")
    lines.extend(f"  note: {note}" for note in result["notes"][:20])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child processes (see Bench.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro-omp checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    bench = None
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds)
        result = bench.run(trace=bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
    print(report(args.workload, args.seed, result, bool(args.trace)),
          file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
