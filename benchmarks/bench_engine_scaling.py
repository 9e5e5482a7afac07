"""Engine scaling: SerialEngine vs ProcessPoolEngine.

Runs the same 50-program campaign grid (50 x 3 inputs x 3 implementations
= 450 runs) through each execution engine, asserts both produce the
identical verdict set, and records wall-clock plus speedup as a
trajectory point in ``BENCH_engine.json`` at the repo root.  One untimed
pass first builds every C kernel and warms the kernel cache, so each
timed leg measures its engine rather than the one-time kernel builds.

Each engine entry records the worker count that *actually ran*
(``jobs_resolved`` — the serial engine is always 1) next to what was
requested, plus the resolved chunk size for the pooled engines, and the
top level records the host's CPU count; a 1-CPU host can no longer
masquerade as a parallel-scaling reference point.

Interpretation guide: the process engine is the one that scales with
cores.  On a single-core host the pool pays its overhead and lands at or
below 1x.

Run:  python -m pytest benchmarks/bench_engine_scaling.py -q -s
  or: python benchmarks/bench_engine_scaling.py

Environment: ``REPRO_BENCH_ENGINE_PROGRAMS`` overrides the grid size
(default 50); ``REPRO_BENCH_JOBS`` overrides the pool width (default:
CPU count, at least 2).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.config import CampaignConfig
from repro.driver.engine import resolve_chunk_size
from repro.harness.session import CampaignSession

N_PROGRAMS = int(os.environ.get("REPRO_BENCH_ENGINE_PROGRAMS", "50"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or \
    max(2, os.cpu_count() or 1)
SEED = 20240915  # the seed every reported number in EXPERIMENTS.md uses

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _verdict_key(result):
    return sorted(v.identity() for v in result.verdicts)


def run_engine_comparison() -> dict:
    cfg = CampaignConfig(n_programs=N_PROGRAMS, inputs_per_program=3,
                         seed=SEED)
    point: dict = {
        "bench": "engine_scaling",
        "grid": {
            "n_programs": cfg.n_programs,
            "inputs_per_program": cfg.inputs_per_program,
            "compilers": list(cfg.compilers),
            "total_runs": cfg.total_runs,
            "seed": cfg.seed,
        },
        "jobs_requested": JOBS,
        "cpu_count": os.cpu_count(),
        "engines": {},
    }

    CampaignSession(cfg, engine="serial").run()  # untimed cache prime
    keys = {}
    for engine in ("serial", "process"):
        session = CampaignSession(cfg, engine=engine,
                                  jobs=None if engine == "serial" else JOBS)
        resolved = getattr(session.engine, "jobs", 1)
        t0 = time.perf_counter()
        result = session.run()
        wall = time.perf_counter() - t0
        keys[engine] = _verdict_key(result)
        entry = {
            "wall_s": round(wall, 3),
            "tests_per_s": round(len(result.verdicts) / wall, 2),
            "jobs_resolved": resolved,
        }
        if engine != "serial":
            entry["chunk_size"] = resolve_chunk_size(cfg, cfg.n_programs,
                                                     resolved)
        point["engines"][engine] = entry
        print(f"  {engine:<8} {wall:7.2f}s  "
              f"({len(result.verdicts)} verdicts, "
              f"{resolved} worker{'s' if resolved != 1 else ''})")

    point["engines"]["process"]["speedup_vs_serial"] = round(
        point["engines"]["serial"]["wall_s"]
        / point["engines"]["process"]["wall_s"], 3)
    point["identical_verdicts"] = keys["serial"] == keys["process"]
    return point


def test_engine_scaling_trajectory():
    print()
    point = run_engine_comparison()
    assert point["identical_verdicts"], \
        "engines disagreed on the verdict set"
    OUT_PATH.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    print(f"  trajectory point written to {OUT_PATH}")


if __name__ == "__main__":
    test_engine_scaling_trajectory()
