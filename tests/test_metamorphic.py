"""Metamorphic properties of the generator and emitter.

Two invariances the differential pipeline silently depends on:

* **emission is pure** — emitting the same ``Program`` twice (even with a
  compile in between, which must not mutate the tree) yields byte-identical
  C++; fingerprints and fault triggers would otherwise drift;
* **generation is restart-invariant** — ``generate(config, index)`` is a
  pure function of its arguments, reproducible in a *fresh interpreter
  process* (work units cross process boundaries as two integers, so a
  forked pool worker must rebuild the identical program).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.codegen.emit_main import emit_translation_unit, source_fingerprint
from repro.config import GeneratorConfig
from repro.core.generator import ProgramGenerator
from repro.vendors import CLANG, GCC, INTEL, compile_binary

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: a deliberately non-default config: the subprocess must reproduce the
#: stream from the serialized parameters alone
_CFG_KWARGS = dict(max_total_iterations=3_000, loop_trip_max=50,
                   num_threads=4, parallel_for_probability=0.6,
                   atomic_probability=0.5, single_probability=0.5,
                   reduction_probability=0.5)
_SEED = 99173
_INDICES = (0, 1, 5, 11)


def _digests_inprocess() -> list[str]:
    gen = ProgramGenerator(GeneratorConfig(**_CFG_KWARGS), seed=_SEED)
    return [hashlib.sha256(
        emit_translation_unit(gen.generate(i)).encode()).hexdigest()
        for i in _INDICES]


class TestEmissionIsPure:
    def test_double_emission_is_byte_identical(self, program_stream):
        for p in program_stream:
            assert emit_translation_unit(p) == emit_translation_unit(p)

    def test_compilation_does_not_mutate_the_tree(self, program_stream):
        """Vendor lowering builds new trees; the original program must
        emit identically (and keep its fingerprint) after a compile."""
        for p in program_stream[:4]:
            before = emit_translation_unit(p)
            fp_before = source_fingerprint(p)
            for vendor in (GCC, CLANG, INTEL):
                compile_binary(p, vendor, "-O3")
            assert emit_translation_unit(p) == before
            assert source_fingerprint(p) == fp_before


class TestRestartInvariance:
    def test_generate_is_invariant_under_process_restart(self):
        """A fresh interpreter rebuilds byte-identical programs from
        (config, seed, index) — the contract the process-pool engine's
        two-integer work units rely on."""
        script = (
            "import hashlib, json, sys\n"
            "from repro.config import GeneratorConfig\n"
            "from repro.core.generator import ProgramGenerator\n"
            "from repro.codegen.emit_main import emit_translation_unit\n"
            "spec = json.loads(sys.stdin.read())\n"
            "gen = ProgramGenerator(GeneratorConfig(**spec['cfg']),"
            " seed=spec['seed'])\n"
            "out = [hashlib.sha256(emit_translation_unit("
            "gen.generate(i)).encode()).hexdigest()"
            " for i in spec['indices']]\n"
            "print(json.dumps(out))\n"
        )
        spec = json.dumps({"cfg": _CFG_KWARGS, "seed": _SEED,
                           "indices": list(_INDICES)})
        proc = subprocess.run(
            [sys.executable, "-c", script], input=spec, text=True,
            capture_output=True, timeout=120,
            env={"PYTHONPATH": _SRC_DIR, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr[:2000]
        assert json.loads(proc.stdout) == _digests_inprocess()

    def test_same_session_regeneration_matches(self):
        a = ProgramGenerator(GeneratorConfig(**_CFG_KWARGS), seed=_SEED)
        b = ProgramGenerator(GeneratorConfig(**_CFG_KWARGS), seed=_SEED)
        # out-of-order access must not matter: the stream is indexed
        for i in reversed(_INDICES):
            assert emit_translation_unit(b.generate(i)) == \
                emit_translation_unit(a.generate(i))
