"""Process-local kernel cache for the two-phase lowering pipeline.

A campaign compiles every generated program once per simulated vendor;
sessions, benchmarks, resumed runs, and test suites re-compile the same
programs again and again.  :class:`KernelCache` memoizes both lowering
phases in one bounded LRU map with one entry per program, keyed by its
fingerprint.  The entry owns everything built from the program:

* its :class:`~repro.sim.lower.StructuralKernel` — the expensive pass
  (AST walk, constant folding, IR construction).  A program lowers to
  one IR whatever vendor or opt level compiles it (the vendors' FP modes
  are read at run time), so every vendor × opt level of a program
  shares that IR — and the executables the backends build from it on
  first bind (the compiled Python code of each mode, the loaded C
  kernel object), which the structural kernel keeps in its
  ``backend_cache``;
* the :class:`~repro.sim.lower.LoweredKernel` bound from it per
  ``(vendor, opt_level, fast_armed, slow_armed)``: the program's IR +
  that vendor's ``_K`` constants and FP mode.  Bound kernels also
  memoize their callable per backend
  (:meth:`~repro.sim.lower.LoweredKernel.bind`), so a cache hit skips
  the bind as well.

Invalidation is purely capacity-based (LRU eviction): every component of
a key is content-derived — the fingerprint hashes the emitted C++
translation unit, and the fault arms are deterministic functions of
``(fingerprint, vendor)`` — so an entry can never go stale, only cold.
The capacity bounds worst-case memory and the C kernel objects a
process keeps loaded: evicting a program drops the cache's references
to its kernels, and its object unloads as soon as no
:class:`~repro.vendors.binary.Binary` still holds one — by reference
count, with no cyclic GC pass, because the bound kernels hang off the
entry, not off the structural kernel they reference.  A running call
holds its kernel, so no object unloads under it.  The default holds a
full 200-program campaign with room to spare.

The cache is **process-local** by design: worker processes of a
:class:`~repro.driver.engine.ProcessPoolEngine` each warm their own copy
(work units arrive as indices, so cached objects never cross the pickle
boundary).  Threads of one process share it under its lock
(:class:`~repro.fleet.chaos.ChaosWorkerFleet` runs workers on threads).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

S = TypeVar("S")
T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Counters for one :class:`KernelCache` (totals since creation)."""

    structural_hits: int = 0
    structural_misses: int = 0
    kernel_hits: int = 0
    kernel_misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = (self.structural_hits + self.structural_misses
                 + self.kernel_hits + self.kernel_misses)
        if total == 0:
            return 0.0
        return (self.structural_hits + self.kernel_hits) / total

    def as_dict(self) -> dict[str, float]:
        return {
            "structural_hits": self.structural_hits,
            "structural_misses": self.structural_misses,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an ``earlier`` one —
        per-phase/per-campaign counters instead of totals-since-creation
        (meaningless in a long-lived fleet worker)."""
        return CacheStats(
            structural_hits=self.structural_hits - earlier.structural_hits,
            structural_misses=(self.structural_misses
                               - earlier.structural_misses),
            kernel_hits=self.kernel_hits - earlier.kernel_hits,
            kernel_misses=self.kernel_misses - earlier.kernel_misses,
            evictions=self.evictions - earlier.evictions,
        )


class KernelCache:
    """Bounded, thread-safe memoization of both lowering phases, one
    entry per program."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        #: fingerprint -> (structural kernel, {key: bound kernel}), least
        #: recently used first
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._shits = 0
        self._smisses = 0
        self._khits = 0
        self._kmisses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, lower: Callable[[], S], key: Hashable,
            bind: Callable[[S], T]) -> T:
        """The kernel ``key`` names, bound from the program
        ``fingerprint`` names: ``lower()`` builds the program's
        structural kernel and ``bind(structural)`` the bound kernel, each
        on first use and outside the lock (lowering can be slow)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._smisses += 1
            else:
                self._shits += 1
                self._entries.move_to_end(fingerprint)
        if entry is None:
            built = (lower(), {})
            with self._lock:  # a racing thread's entry wins: one object
                entry = self._entries.setdefault(fingerprint, built)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        structural, kernels = entry
        with self._lock:
            kernel = kernels.get(key)
            if kernel is None:
                self._kmisses += 1
            else:
                self._khits += 1
        if kernel is None:
            kernel = bind(structural)
            with self._lock:
                kernel = kernels.setdefault(key, kernel)
        return kernel

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The counters, frozen; delta two reads with
        :meth:`CacheStats.since` (per-campaign accounting)."""
        with self._lock:
            return CacheStats(
                structural_hits=self._shits,
                structural_misses=self._smisses,
                kernel_hits=self._khits,
                kernel_misses=self._kmisses,
                evictions=self._evictions,
            )

    def reset(self) -> None:
        """Zero every counter (entries stay cached).

        A long-lived worker serves many campaigns from one cache; after
        ``reset()`` the next :meth:`stats` reads as if the cache were
        freshly created, without losing its warm entries.
        """
        with self._lock:
            self._shits = 0
            self._smisses = 0
            self._khits = 0
            self._kmisses = 0
            self._evictions = 0

    def __len__(self) -> int:
        """The number of programs cached."""
        with self._lock:
            return len(self._entries)


# ----------------------------------------------------------------------
# the process-default cache
# ----------------------------------------------------------------------

_DEFAULT_CACHE = KernelCache()


def get_kernel_cache() -> KernelCache:
    """The process-wide cache :func:`repro.vendors.toolchain.compile_binary`
    uses when no explicit cache is passed."""
    return _DEFAULT_CACHE


def set_kernel_cache(cache: KernelCache) -> KernelCache:
    """Replace the process-default cache (returns the new one); useful
    for tests and for sizing experiments."""
    global _DEFAULT_CACHE
    if not isinstance(cache, KernelCache):
        raise TypeError("set_kernel_cache expects a KernelCache")
    _DEFAULT_CACHE = cache
    return cache
