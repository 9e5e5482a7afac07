"""Fleet scaling: coordinator + socket-queue workers vs SerialEngine.

Runs the same campaign grid serially and then through ``engine="fleet"``
at 1, 2, and 4 workers (each worker is a separate process pulling leases
over the socket queue), asserts every fleet run reproduces the serial
verdict stream byte-identically *in grid order*, and records wall-clock
plus tests/s as a trajectory point in ``BENCH_fleet.json`` at the repo
root.  One untimed pass first builds every C kernel and warms the kernel
cache, so each timed leg measures its engine rather than the one-time
kernel builds.

Interpretation guide: fleet workers are processes, so scaling tracks the
process engine minus the lease/transport overhead — a 1-worker fleet
measures that overhead directly. On a single-core host the fleet pays
its coordination cost and lands at or below 1x, same as any pool.

Run:  python -m pytest benchmarks/bench_fleet.py -q -s
  or: python benchmarks/bench_fleet.py

Environment: ``REPRO_BENCH_FLEET_PROGRAMS`` overrides the grid size
(default 30); ``REPRO_BENCH_FLEET_WORKERS`` overrides the worker sweep
(comma-separated, default ``1,2,4``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.config import CampaignConfig
from repro.harness.session import CampaignSession

N_PROGRAMS = int(os.environ.get("REPRO_BENCH_FLEET_PROGRAMS", "30"))
WORKER_SWEEP = tuple(
    int(w) for w in
    os.environ.get("REPRO_BENCH_FLEET_WORKERS", "1,2,4").split(","))
SEED = 20240915  # the seed every reported number in EXPERIMENTS.md uses

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def _ordered_key(result):
    return [v.identity() for v in result.verdicts]


def run_fleet_comparison() -> dict:
    cfg = CampaignConfig(n_programs=N_PROGRAMS, inputs_per_program=2,
                         seed=SEED)
    point: dict = {
        "bench": "fleet_scaling",
        "grid": {
            "n_programs": cfg.n_programs,
            "inputs_per_program": cfg.inputs_per_program,
            "compilers": list(cfg.compilers),
            "total_runs": cfg.total_runs,
            "seed": cfg.seed,
        },
        "cpu_count": os.cpu_count(),
        "engines": {},
    }

    CampaignSession(cfg, engine="serial").run()  # untimed cache prime
    t0 = time.perf_counter()
    serial = CampaignSession(cfg, engine="serial").run()
    serial_wall = time.perf_counter() - t0
    serial_key = _ordered_key(serial)
    point["engines"]["serial"] = {
        "wall_s": round(serial_wall, 3),
        "tests_per_s": round(len(serial.verdicts) / serial_wall, 2),
        "jobs_resolved": 1,
    }
    print(f"  serial     {serial_wall:7.2f}s  "
          f"({len(serial.verdicts)} verdicts)")

    identical = True
    for workers in WORKER_SWEEP:
        t0 = time.perf_counter()
        result = CampaignSession(cfg, engine="fleet", jobs=workers).run()
        wall = time.perf_counter() - t0
        identical = identical and _ordered_key(result) == serial_key
        point["engines"][f"fleet-{workers}"] = {
            "wall_s": round(wall, 3),
            "tests_per_s": round(len(result.verdicts) / wall, 2),
            "jobs_resolved": workers,
            "speedup_vs_serial": round(serial_wall / wall, 3),
        }
        print(f"  fleet-{workers:<4} {wall:7.2f}s  "
              f"({workers} worker{'s' if workers != 1 else ''}, "
              f"{serial_wall / wall:.2f}x serial)")

    point["identical_verdicts"] = identical
    return point


def test_fleet_scaling_trajectory():
    print()
    point = run_fleet_comparison()
    assert point["identical_verdicts"], \
        "a fleet run disagreed with the serial verdict stream"
    OUT_PATH.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    print(f"  trajectory point written to {OUT_PATH}")


if __name__ == "__main__":
    test_fleet_scaling_trajectory()
