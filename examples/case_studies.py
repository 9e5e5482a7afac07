#!/usr/bin/env python3
"""Reproduce the paper's three case studies end to end.

* Case 1 (Section V-C): a critical-section-heavy test where the GCC
  binary is a fast outlier — perf counters (Table II) and flat call-stack
  profiles (Fig. 6).
* Case 2 (Section V-D): a parallel region inside a serial loop where the
  Clang binary is a slow outlier — perf counters (Table III) and
  children-mode profiles (Fig. 7).
* Case 3 (Section V-E): an Intel binary that livelocks in
  ``__kmpc_critical_with_hint`` — GDB-style backtrace (Fig. 8) and the
  thread-state grouping (Fig. 9).

Run:  python examples/case_studies.py [1|2|3]   (default: all three)
"""

import sys

from repro.analysis.profiles import render_children, render_flat
from repro.analysis.threadstate import render_backtrace, render_thread_groups
from repro.backends import get_backend
from repro.codegen import emit_translation_unit
from repro.config import CampaignConfig
from repro.harness.casestudies import case_study_1, case_study_2, case_study_3


def show_case1(cfg: CampaignConfig) -> None:
    cs = case_study_1(cfg)
    print("=" * 70)
    print(f"CASE STUDY 1 — {cs.note}")
    print("=" * 70)
    times = {r.vendor: r.time_us for r in cs.records}
    print("execution times:",
          ", ".join(f"{v}={t:.0f}us" for v, t in times.items()))
    print()
    print(cs.comparison.render("perf counters (Table II analogue):"))
    print()
    for vendor in ("intel", "gcc"):
        print(render_flat(cs.record_for(vendor).profile,
                          title=f"--- {vendor} call-stack profile (Fig. 6) ---"))
        print()


def show_case2(cfg: CampaignConfig) -> None:
    cs = case_study_2(cfg)
    print("=" * 70)
    print(f"CASE STUDY 2 — {cs.note}")
    print("=" * 70)
    times = {r.vendor: r.time_us for r in cs.records}
    print("execution times:",
          ", ".join(f"{v}={t:.0f}us" for v, t in times.items()))
    print()
    print(cs.comparison.render("perf counters (Table III analogue):"))
    print()
    for vendor in ("intel", "clang"):
        print(render_children(
            cs.record_for(vendor).profile, get_backend(vendor).vendor,
            title=f"--- {vendor} profile, children mode (Fig. 7) ---"))
        print()
    print("--- the offending source pattern (parallel inside a serial loop) ---")
    src = emit_translation_unit(cs.program)
    in_loop = [ln for ln in src.splitlines() if "#pragma omp parallel" in ln]
    print(f"  {len(in_loop)} parallel directive(s); region re-entered "
          f"~{cs.features.est_region_entries} times")


def show_case3(cfg: CampaignConfig) -> None:
    cs = case_study_3(cfg)
    print("=" * 70)
    print(f"CASE STUDY 3 — {cs.note}")
    print("=" * 70)
    for r in cs.records:
        status = r.status.value
        t = "3+ min (SIGINT)" if status == "HANG" else f"{r.time_us:.0f}us"
        print(f"  {r.vendor}: {status} ({t})")
    print()
    intel = cs.record_for("intel")
    print("--- GDB backtrace of thread 1 (Fig. 8) ---")
    print(render_backtrace(intel))
    print()
    print("--- thread states (Fig. 9) ---")
    print(render_thread_groups(intel))


def main() -> int:
    cfg = CampaignConfig(seed=20240915)
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    if which in ("1", "all"):
        show_case1(cfg)
    if which in ("2", "all"):
        show_case2(cfg)
    if which in ("3", "all"):
        show_case3(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
