"""``compile()`` — turn a generated program into vendor binaries.

This is Fig. 1 step (b): the same source program is compiled by each
available OpenMP implementation.  For a simulated vendor that means:

1. emit the canonical C++ translation unit and fingerprint it (the
   identity a compiler sees),
2. decide the deterministic latent faults for (fingerprint, vendor),
3. apply the vendor's FP lowering (FMA contraction per its
   ``-ffp-contract`` default at the requested ``-O`` level),
4. lower the result to the kernel IR, with the vendor's cost model
   bound as per-site constants.

Step (4) runs through the two-phase pipeline of :mod:`repro.sim.lower`
behind the process-local :class:`~repro.sim.kcache.KernelCache`: the
structural pass is shared by every vendor whose kernel shape coincides,
and recompiling a program the cache has seen (same fingerprint, vendor,
opt level) returns the previously bound kernel outright.  The cache
keys shapes by ``(fingerprint, ftz, fma_mode)``, and the fingerprint
names the shape's family: the C backend builds the shapes of one
program that were lowered before its first C bind as one module.
Step (1) now hashes the translation unit it just emitted instead of
re-emitting it, so one compile performs one C++ emission, not two.
"""

from __future__ import annotations

import hashlib

from ..codegen.emit_main import emit_translation_unit
from ..core.features import extract_features
from ..core.nodes import Program
from ..errors import CompilationError
from ..obs import metrics as _obs
from ..sim.backend import active_kernel_backend
from ..sim.kcache import KernelCache, get_kernel_cache
from ..sim.lower import StructuralLowerer, bind_costs
from .base import VendorModel
from .binary import Binary
from .optimizer import effective_fma_mode, lower_block


#: fingerprint -> critical-in-omp-for count, for the hang-fault gate.
#: Content-keyed (never stale); cleared wholesale when it outgrows the
#: cap so the common three-vendor compile of one program walks the tree
#: once instead of three times.
_CRIT_MEMO: dict[str, int] = {}
_CRIT_MEMO_CAP = 4096


def _critical_in_omp_for(program: Program, fingerprint: str) -> int:
    count = _CRIT_MEMO.get(fingerprint)
    if count is None:
        count = extract_features(program).critical_in_omp_for
        if len(_CRIT_MEMO) >= _CRIT_MEMO_CAP:
            _CRIT_MEMO.clear()
        _CRIT_MEMO[fingerprint] = count
    return count


def compile_binary(program: Program, vendor: VendorModel,
                   opt_level: str = "-O3", *,
                   cache: KernelCache | None = None) -> Binary:
    """Compile ``program`` with one simulated OpenMP implementation.

    Implementations are resolved by name through
    :mod:`repro.backends.registry` (``get_backend(name).compile``); this
    is the simulated backends' compile step, taking the vendor model.
    ``cache`` overrides the process-default
    :class:`~repro.sim.kcache.KernelCache` (tests pass fresh instances
    to measure cold costs; ``None`` uses :func:`~repro.sim.kcache.
    get_kernel_cache`).
    """
    if opt_level not in ("-O0", "-O1", "-O2", "-O3"):
        raise CompilationError(f"unsupported optimization level {opt_level!r}")
    if cache is None:
        cache = get_kernel_cache()

    cpp = emit_translation_unit(program)
    # identical to codegen.emit_main.source_fingerprint, without paying
    # for a second emission of the translation unit we already hold
    fingerprint = hashlib.sha256(cpp.encode()).hexdigest()

    crash = vendor.decides_crash(fingerprint)
    # the livelock lives in the queuing lock: only programs that actually
    # contend a critical section can expose it (Case Study 3)
    hang = (vendor.decides_hang(fingerprint)
            and _critical_in_omp_for(program, fingerprint) > 0)
    slow = vendor.decides_slow(fingerprint)
    fast = vendor.decides_fast(fingerprint)

    fma = effective_fma_mode(vendor.traits.fma_mode, opt_level)
    ftz = vendor.traits.flush_subnormals

    # telemetry: which lowering phases actually ran (cache misses) —
    # observation only, the cached value is identical either way
    obs_on = _obs.enabled()
    misses: set[str] = set()

    def build_structural():
        misses.add("structural")
        lowered_body = lower_block(program.body, fma)
        return StructuralLowerer(replace_body(program, lowered_body),
                                 ftz=ftz).lower()

    def build_kernel():
        misses.add("kernel")
        return bind_costs(structural, vendor, opt_level,
                          fast_armed=fast, slow_armed=slow)

    structural = cache.get_structural((fingerprint, ftz, fma),
                                      build_structural)
    # key the bound kernel by the vendor *value*, not its name: a custom
    # VendorModel variant (same name, different costs/traits) must never
    # receive another model's constants — frozen dataclasses hash by
    # content, so the key stays correct for replace()-built variants
    kernel = cache.get_kernel(
        (fingerprint, vendor, opt_level, fast, slow), build_kernel)
    if obs_on:
        backend = active_kernel_backend()
        for phase in ("structural", "kernel"):
            _obs.inc("repro_lower_total", phase=phase,
                     result="cold" if phase in misses else "warm",
                     backend=backend)
    return Binary(
        program=program,
        vendor=vendor,
        opt_level=opt_level,
        fingerprint=fingerprint,
        cpp_source=cpp,
        kernel=kernel,
        crash_armed=crash,
        hang_armed=hang,
        slow_armed=slow,
        fast_armed=fast,
    )


def replace_body(program: Program, body) -> Program:
    """Shallow-copy a program with a new (lowered) body."""
    return Program(
        name=program.name,
        seed=program.seed,
        fp_type=program.fp_type,
        comp=program.comp,
        params=program.params,
        body=body,
        num_threads=program.num_threads,
    )
