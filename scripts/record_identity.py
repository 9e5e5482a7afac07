#!/usr/bin/env python
"""Fingerprint every verdict byte of a sample grid, for comparing trees.

Writes one line per (mix, program, vendor, opt level, input): the
SHA-256 of the run record's full row (``RunRecord.to_row()``) and of the
kernel's ``_K`` constants tuple.  Run it against two ``src/`` trees —
a change and its base commit — and ``diff`` the outputs: a change that
moves no verdict byte writes identical files.

The script only touches API that every tree since the directive mixes
has: ``get_backend(name).compile``/``.execute`` (and the executable's
``kernel.constants``), ``ProgramGenerator``, ``InputGenerator`` and
``CampaignConfig(directive_mix=...)``.  The kernel backend is whatever
``REPRO_KERNEL_BACKEND`` selects, so one run per backend covers both;
an explicit ``c`` request falls back to interp with a warning where no
toolchain exists.

    python scripts/record_identity.py --src ../base/src > base.txt
    python scripts/record_identity.py > head.txt
    diff base.txt head.txt

The grid is fixed: :data:`PROGRAMS` programs of each directive mix,
:data:`INPUTS` inputs each, every vendor at every opt level.  Every
program compiles for every vendor and opt level before any of its
binaries runs, as in a campaign.  A fault leg follows, since the grid's
records all end OK: the :data:`FAULT_PROGRAMS` of the seed-777 ``full``
stream at the 8-thread generator config whose runs end HANG (45 and 62,
under intel) or CRASH (136, under gcc), each under every vendor at
``-O3`` with input 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

VENDORS = ("gcc", "clang", "intel")
OPT_LEVELS = ("-O0", "-O1", "-O2", "-O3")
MIXES = ("full", "paper", "reductions", "sync", "tasks", "worksharing")
PROGRAMS = 10  # per directive mix
INPUTS = 2     # per program
FAULT_PROGRAMS = (45, 62, 136)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lines(tag: str, program, test_inputs, opt_levels, machine):
    """One line per (vendor, opt level, input) of one program, compiled
    for every vendor and opt level first."""
    from repro.backends import get_backend

    builds = [(vendor, opt, get_backend(vendor).compile(program, opt))
              for vendor in VENDORS for opt in opt_levels]
    for vendor, opt, exe in builds:
        constants = _sha(repr(tuple(exe.kernel.constants)))
        for k, test_input in enumerate(test_inputs):
            row = get_backend(vendor).execute(exe, test_input,
                                              machine).to_row()
            record = _sha(json.dumps(row, sort_keys=True))
            yield (f"{tag} {vendor} {opt} {k} "
                   f"record={record} K={constants}")


def record_lines():
    """The lines for the sample grid and the fault leg, in a fixed
    order."""
    from repro.config import (CampaignConfig, GeneratorConfig,
                              MachineConfig, apply_directive_mix)
    from repro.core.generator import ProgramGenerator
    from repro.core.inputs import InputGenerator

    for mix in MIXES:
        cfg = CampaignConfig(directive_mix=mix)
        gen = ProgramGenerator(cfg.generator, seed=cfg.seed)
        input_gen = InputGenerator(cfg.generator, seed=cfg.seed + 1)
        for index in range(PROGRAMS):
            program = gen.generate(index)
            test_inputs = [input_gen.generate(program, k)
                           for k in range(INPUTS)]
            yield from _lines(f"{mix} {index}", program, test_inputs,
                             OPT_LEVELS, cfg.machine)
    fault_cfg = apply_directive_mix(
        GeneratorConfig(max_total_iterations=4_000, loop_trip_max=60,
                        num_threads=8), "full")
    gen = ProgramGenerator(fault_cfg, seed=777)
    input_gen = InputGenerator(fault_cfg, seed=778)
    machine = MachineConfig()
    for index in FAULT_PROGRAMS:
        program = gen.generate(index)
        yield from _lines(f"fault {index}", program,
                         [input_gen.generate(program, 0)], ("-O3",), machine)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("--src", default=str(root / "src"),
                        help="the src/ tree to import repro from "
                             "(default: this checkout's)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"record_identity: imported repro from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    print(f"record_identity: {src}, REPRO_KERNEL_BACKEND="
          f"{os.environ.get('REPRO_KERNEL_BACKEND', 'auto')}",
          file=sys.stderr)
    n = 0
    for line in record_lines():
        print(line)
        n += 1
    print(f"record_identity: {n} lines", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
