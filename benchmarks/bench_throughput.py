"""Per-stage throughput profiling + the 20% regression gate.

Profiles each stage of the generate -> lower -> execute -> verdict hot
path on the reference campaign grid, measures end-to-end serial
throughput, and writes ``BENCH_throughput.json`` at the repo root.  The
checked-in copy of that file is the **baseline**: ``--check`` re-runs
the benchmark and fails (exit 1) if end-to-end throughput regressed more
than 20% against it, on either path:

* **cold** (``end_to_end_cold``) — timed first, on a fresh private
  on-disk kernel cache (a temporary ``REPRO_NATIVE_CACHE``) and an empty
  process kernel cache, so every C kernel module is built inside the
  clock, as for every new program of a campaign;
* **warm** (``end_to_end``) — timed last, after the stage profile and
  the backend sweep have built and bound every kernel.

Cross-host comparability: absolute tests/s moves with the host, so the
gate compares *normalized* throughput — ``tests_per_s x calibration_s``,
where ``calibration_s`` times a fixed pure-Python spin on the same
machine moments before the measurement.  A 2x-slower host halves both
factors' movement and the product stays put; a real hot-path regression
moves only ``tests_per_s``.

Usage::

    python benchmarks/bench_throughput.py            # full grid, write
    python benchmarks/bench_throughput.py --quick    # CI-sized grid
    python benchmarks/bench_throughput.py --quick --check   # + gate

Environment: ``REPRO_BENCH_THROUGHPUT_PROGRAMS`` overrides the full grid
size (default 50); the quick grid is fixed at 10 so CI baselines stay
comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.outliers import analyze_test
from repro.config import CampaignConfig
from repro.core.generator import ProgramGenerator
from repro.backends import get_backend
from repro.core.inputs import InputGenerator
from repro.driver.execution import run_binary
from repro.harness.session import CampaignSession
from repro.sim import backend_info
from repro.sim.backend import _c_available, use_kernel_backend
from repro.sim.kcache import KernelCache, set_kernel_cache
from repro.sim.values import native_values_active
from repro.vendors.toolchain import compile_binary

SEED = 20240915  # the seed every reported number in EXPERIMENTS.md uses
FULL_PROGRAMS = int(os.environ.get("REPRO_BENCH_THROUGHPUT_PROGRAMS", "50"))
QUICK_PROGRAMS = 10
REGRESSION_THRESHOLD = 0.20

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_throughput.json"


def calibrate() -> float:
    """Seconds for a fixed pure-Python spin — the host-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1_500_000):
        acc += (i % 7) * 0.5
    _ = acc
    return time.perf_counter() - t0


def profile_stages(cfg: CampaignConfig) -> dict:
    """Wall time of each pipeline stage over the grid, run in isolation.

    Stage sums exceed the end-to-end wall because the end-to-end path
    interleaves and shares work (e.g. one generation feeds both the
    race filter and compilation); the per-stage numbers are for spotting
    *which* stage moved, not for adding up.
    """
    gen = ProgramGenerator(cfg.generator, seed=cfg.seed)
    inputs = InputGenerator(cfg.generator, seed=cfg.seed + 1)
    vendors = [get_backend(name).vendor for name in cfg.compilers]

    t0 = time.perf_counter()
    programs = [gen.generate(i) for i in range(cfg.n_programs)]
    t_generate = time.perf_counter() - t0

    cold_cache = KernelCache()
    mark = cold_cache.stats()
    t0 = time.perf_counter()
    binaries = {}
    for p in programs:
        binaries[p.name] = [compile_binary(p, v, cfg.opt_level,
                                           cache=cold_cache)
                            for v in vendors]
    t_lower_cold = time.perf_counter() - t0
    cache_cold = cold_cache.stats().since(mark).as_dict()

    mark = cold_cache.stats()
    t0 = time.perf_counter()
    for p in programs:
        for v in vendors:
            compile_binary(p, v, cfg.opt_level, cache=cold_cache)
    t_lower_warm = time.perf_counter() - t0
    cache_warm = cold_cache.stats().since(mark).as_dict()

    t0 = time.perf_counter()
    all_records = []
    for p in programs:
        batch = [inputs.generate(p, j)
                 for j in range(cfg.inputs_per_program)]
        for t_input in batch:
            all_records.append([run_binary(b, t_input, cfg.machine)
                                for b in binaries[p.name]])
    t_execute = time.perf_counter() - t0

    t0 = time.perf_counter()
    for records in all_records:
        analyze_test(records, cfg.outliers)
    t_verdict = time.perf_counter() - t0

    return {
        "generate_s": round(t_generate, 3),
        "lower_cold_s": round(t_lower_cold, 3),
        "lower_warm_s": round(t_lower_warm, 3),
        "execute_s": round(t_execute, 3),
        "verdict_s": round(t_verdict, 3),
        "cache": cold_cache.stats().as_dict(),
        # per-stage deltas (stats/since), not totals: the cold pass
        # must read all-miss, the warm pass all-hit — a regression in
        # either shows up here without cross-stage smearing
        "cache_lower_cold": cache_cold,
        "cache_lower_warm": cache_warm,
    }


def backend_sweep(cfg: CampaignConfig) -> dict:
    """Warm execute-only throughput (runs/s) of each kernel backend on
    the same grid, plus the compiled backend's speedup over interp.

    Entry binding (including any C shared-object builds) happens before
    the clock starts: the sweep measures steady-state execution, which
    is what a long campaign amortizes to.
    """
    gen = ProgramGenerator(cfg.generator, seed=cfg.seed)
    inputs = InputGenerator(cfg.generator, seed=cfg.seed + 1)
    programs = [gen.generate(i) for i in range(cfg.n_programs)]
    vendors = [get_backend(name).vendor for name in cfg.compilers]
    grid = []
    for p in programs:
        bins = [compile_binary(p, v, cfg.opt_level) for v in vendors]
        for j in range(cfg.inputs_per_program):
            t_input = inputs.generate(p, j)
            grid.extend((b, t_input) for b in bins)

    backends = ["interp"] + (["c"] if _c_available()[0] else [])
    runs_per_s = {}
    for backend in backends:
        with use_kernel_backend(backend):
            for b, _ in grid:
                b.reset_entry()
                _ = b.entry  # bind (and build) outside the clock
            t0 = time.perf_counter()
            for b, t_input in grid:
                run_binary(b, t_input, cfg.machine)
            wall = time.perf_counter() - t0
        runs_per_s[backend] = round(len(grid) / wall, 2)
        for b, _ in grid:
            b.reset_entry()
    out = {"runs_per_s": runs_per_s}
    if "c" in runs_per_s:
        out["c_speedup_vs_interp"] = round(
            runs_per_s["c"] / runs_per_s["interp"], 2)
    return out


def end_to_end(cfg: CampaignConfig, calibration_s: float) -> dict:
    """Serial ``CampaignSession`` throughput over the grid."""
    t0 = time.perf_counter()
    result = CampaignSession(cfg).run()
    wall = time.perf_counter() - t0
    tests_per_s = len(result.verdicts) / wall
    return {"wall_s": round(wall, 3), "tests_per_s": round(tests_per_s, 2),
            "normalized": round(tests_per_s * calibration_s, 4)}


def cold_end_to_end(cfg: CampaignConfig, calibration_s: float) -> dict:
    """:func:`end_to_end` with every kernel built inside the clock: a
    fresh temporary on-disk cache and an empty process kernel cache.
    Run it before anything else in the process has loaded kernels."""
    saved = os.environ.get("REPRO_NATIVE_CACHE")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cold-") as tmp:
        os.environ["REPRO_NATIVE_CACHE"] = tmp
        set_kernel_cache(KernelCache())
        try:
            return end_to_end(cfg, calibration_s)
        finally:
            if saved is None:
                del os.environ["REPRO_NATIVE_CACHE"]
            else:
                os.environ["REPRO_NATIVE_CACHE"] = saved


def run_profile(n_programs: int) -> dict:
    cfg = CampaignConfig(n_programs=n_programs, inputs_per_program=3,
                         seed=SEED)
    calibration_s = calibrate()
    cold = cold_end_to_end(cfg, calibration_s)
    stages = profile_stages(cfg)
    backends = backend_sweep(cfg)
    return {
        "grid": {
            "n_programs": cfg.n_programs,
            "inputs_per_program": cfg.inputs_per_program,
            "compilers": list(cfg.compilers),
            "total_runs": cfg.total_runs,
            "seed": cfg.seed,
        },
        "calibration_s": round(calibration_s, 4),
        "stages": stages,
        "kernel_backends": backends,
        "end_to_end_cold": cold,
        "end_to_end": end_to_end(cfg, calibration_s),
        "native_values": native_values_active(),
        "backend_info": backend_info(),
    }


def check_regression(current: dict, baseline: dict,
                     threshold: float = REGRESSION_THRESHOLD
                     ) -> tuple[bool, str]:
    """(ok, message): does ``current`` hold the line against ``baseline``?

    Both dicts are single-profile results (see :func:`run_profile`).
    Normalized throughput (tests/s x host calibration seconds) must not
    drop more than ``threshold`` on the cold path or on the warm one;
    grids must match for the comparison to mean anything.
    """
    if current["grid"] != baseline["grid"]:
        return False, (f"grid mismatch: current {current['grid']} vs "
                       f"baseline {baseline['grid']}")
    ok, msgs = True, []
    for path, key in (("cold", "end_to_end_cold"), ("warm", "end_to_end")):
        if key not in baseline:
            ok = False
            msgs.append(f"{path}: baseline lacks {key!r}; refresh it")
            continue
        cur = current[key]["normalized"]
        base = baseline[key]["normalized"]
        if base <= 0:
            ok = False
            msgs.append(f"{path}: baseline normalized throughput is {base}")
            continue
        floor = base * (1.0 - threshold)
        ok = ok and cur >= floor
        msgs.append(f"{path}: normalized throughput {cur:.4f} vs baseline "
                    f"{base:.4f} ({cur / base:.2%}); floor at "
                    f"-{threshold:.0%} is {floor:.4f}")
    return ok, "; ".join(msgs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"CI-sized grid ({QUICK_PROGRAMS} programs) "
                         f"instead of the full {FULL_PROGRAMS}")
    ap.add_argument("--check", action="store_true",
                    help="gate against the checked-in baseline "
                         "(exit 1 on >20%% regression)")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_OUT,
                    help="baseline JSON for --check (default: the "
                         "checked-in BENCH_throughput.json)")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write results (default: the baseline "
                         "path itself, i.e. refresh BENCH_throughput.json)")
    ap.add_argument("--telemetry", action="store_true",
                    help="run with the metrics registry and pipeline "
                         "spans enabled — proves enabled-telemetry "
                         "overhead stays inside the regression gate")
    args = ap.parse_args(argv)

    if args.telemetry:
        from repro import obs

        obs.enable(True)
        print("bench_throughput: telemetry ENABLED for this run",
              file=sys.stderr)

    profile_name = "quick" if args.quick else "full"
    n = QUICK_PROGRAMS if args.quick else FULL_PROGRAMS

    print(f"bench_throughput: {profile_name} grid ({n} programs x 3 "
          f"inputs x 3 compilers)", file=sys.stderr)
    current = run_profile(n)
    for path, key in (("cold", "end_to_end_cold"), ("warm", "end_to_end")):
        e2e = current[key]
        print(f"  end-to-end {path}: {e2e['wall_s']}s, {e2e['tests_per_s']} "
              f"tests/s (normalized {e2e['normalized']})", file=sys.stderr)
    for k, v in current["stages"].items():
        if not k.startswith("cache"):
            print(f"  {k:>14}: {v}s", file=sys.stderr)
    sweep = current["kernel_backends"]
    print(f"  kernel backends (runs/s): {sweep['runs_per_s']}"
          + (f", c speedup {sweep['c_speedup_vs_interp']}x"
             if "c_speedup_vs_interp" in sweep else ""), file=sys.stderr)

    ok = True
    if args.check:
        if not args.baseline.exists():
            print(f"  no baseline at {args.baseline}; nothing to gate "
                  f"against", file=sys.stderr)
        else:
            doc = json.loads(args.baseline.read_text())
            base = doc.get(profile_name)
            if base is None:
                print(f"  baseline lacks a {profile_name!r} profile; "
                      f"run without --check to create it", file=sys.stderr)
                ok = False
            else:
                ok, msg = check_regression(current, base)
                verdict = "OK" if ok else "REGRESSION"
                print(f"  gate: {verdict} — {msg}", file=sys.stderr)

    out_path = args.out if args.out is not None else args.baseline
    doc = {}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc["bench"] = "throughput"
    doc[profile_name] = current
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"  written to {out_path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
