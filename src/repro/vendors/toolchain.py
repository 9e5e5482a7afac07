"""``compile()`` — turn a generated program into vendor binaries.

This is Fig. 1 step (b): the same source program is compiled by each
available OpenMP implementation.  For a simulated vendor that means:

1. emit the canonical C++ translation unit and fingerprint it (the
   identity a compiler sees),
2. decide the deterministic latent faults for (fingerprint, vendor),
3. lower the program to the kernel IR, with the vendor's cost model
   bound as per-site constants and its FP mode (FTZ, and FMA
   contraction per its ``-ffp-contract`` default at the requested
   ``-O`` level) recorded for the kernel to run under.

Step (3) runs through the two-phase pipeline of :mod:`repro.sim.lower`
behind the process-local :class:`~repro.sim.kcache.KernelCache`: the
structural pass runs once per program, keyed by the fingerprint alone,
so every vendor × opt level of a program shares one IR and the one C
kernel object built from it, in whatever order they compile;
recompiling a program the cache has seen (same fingerprint, vendor, opt
level) returns the previously bound kernel outright.  The hang fault of
step (2) reads the program's critical-in-``omp for`` count from its
structural kernel, so it costs no tree walk of its own.  Step (1) hashes
the translation unit it just emitted instead of re-emitting it, so one
compile performs one C++ emission, not two.
"""

from __future__ import annotations

import hashlib

from ..codegen.emit_main import emit_translation_unit
from ..core.nodes import Program
from ..errors import CompilationError
from ..obs import metrics as _obs
from ..sim.backend import active_kernel_backend
from ..sim.kcache import KernelCache, get_kernel_cache
from ..sim.lower import StructuralLowerer, bind_costs
from .base import VendorModel
from .binary import Binary


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

    slow = vendor.decides_slow(fingerprint)
    fast = vendor.decides_fast(fingerprint)

    # telemetry: which lowering phases actually ran (cache misses) —
    # observation only, the cached value is identical either way
    obs_on = _obs.enabled()
    misses: set[str] = set()

    def build_structural():
        misses.add("structural")
        return StructuralLowerer(program).lower()

    def build_kernel(structural):
        misses.add("kernel")
        return bind_costs(structural, vendor, opt_level,
                          fast_armed=fast, slow_armed=slow)

    # key the bound kernel by the vendor *value*, not its name: a custom
    # VendorModel variant (same name, different costs/traits) must never
    # receive another model's constants — frozen dataclasses hash by
    # content, so the key stays correct for replace()-built variants
    kernel = cache.get(fingerprint, build_structural,
                       (vendor, opt_level, fast, slow), build_kernel)
    # the livelock lives in the queuing lock: only programs that actually
    # contend a critical section can expose it (Case Study 3)
    hang = (vendor.decides_hang(fingerprint)
            and kernel.structural.critical_in_omp_for > 0)
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
        crash_armed=vendor.decides_crash(fingerprint),
        hang_armed=hang,
        slow_armed=slow,
        fast_armed=fast,
    )
