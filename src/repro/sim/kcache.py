"""Process-local kernel cache for the two-phase lowering pipeline.

A campaign compiles every generated program once per simulated vendor;
sessions, benchmarks, resumed runs, and test suites re-compile the same
programs again and again.  :class:`KernelCache` memoizes both lowering
phases behind bounded LRU maps:

* **structural entries** — keyed by the fingerprint alone: the
  expensive pass (AST walk, constant folding, IR construction).  A
  program lowers to one IR whatever vendor or opt level compiles it
  (the vendors' FP modes are read at run time), so every vendor × opt
  level of a program shares that IR — and the executables the backends
  build from it on first bind (the compiled Python code of each mode,
  one C extension), which the entry keeps in its ``backend_cache``;
* **kernel entries** — keyed by ``(fingerprint, vendor, opt_level,
  fast_armed, slow_armed)``: the bound
  :class:`~repro.sim.lower.LoweredKernel` (the program's IR + that
  vendor's ``_K`` constants and FP mode).  Bound kernels also memoize
  their callable per backend
  (:meth:`~repro.sim.lower.LoweredKernel.bind`), so a cache hit skips
  the bind as well.

Invalidation is purely capacity-based (LRU eviction): every component of
a key is content-derived — the fingerprint hashes the emitted C++
translation unit, and the fault arms are deterministic functions of
``(fingerprint, vendor)`` — so an entry can never go stale, only cold.
Capacities bound worst-case memory (a program's IR and charge sites,
plus the compiled Python code once it runs under ``interp``); the
defaults hold a full 200-program campaign with room to spare.

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


class _LruMap:
    """A tiny bounded LRU over OrderedDict (thread-safety lives above)."""

    __slots__ = ("capacity", "data", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.data: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, key):
        try:
            value = self.data[key]
        except KeyError:
            return None
        self.data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.capacity:
            self.data.popitem(last=False)
            self.evictions += 1


class KernelCache:
    """Bounded, thread-safe memoization of both lowering phases."""

    def __init__(self, structural_capacity: int = 512,
                 kernel_capacity: int = 2048):
        self._structural = _LruMap(structural_capacity)
        self._kernels = _LruMap(kernel_capacity)
        self._lock = threading.Lock()
        self._shits = 0
        self._smisses = 0
        self._khits = 0
        self._kmisses = 0

    # ------------------------------------------------------------------
    def get_structural(self, fingerprint: str,
                       build: Callable[[], T]) -> T:
        """The structural kernel of the program ``fingerprint`` names,
        building on first use."""
        with self._lock:
            hit = self._structural.get(fingerprint)
            if hit is not None:
                self._shits += 1
                return hit
            self._smisses += 1
        value = build()  # built outside the lock: lowering can be slow
        with self._lock:
            self._structural.put(fingerprint, value)
        return value

    def get_kernel(self, key: Hashable, build: Callable[[], T]) -> T:
        """The vendor-bound kernel for ``key``, building on first use."""
        with self._lock:
            hit = self._kernels.get(key)
            if hit is not None:
                self._khits += 1
                return hit
            self._kmisses += 1
        value = build()
        with self._lock:
            self._kernels.put(key, value)
        return value

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
                evictions=(self._structural.evictions
                           + self._kernels.evictions),
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
            self._structural.evictions = 0
            self._kernels.evictions = 0

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._structural.data.clear()
            self._kernels.data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._structural.data) + len(self._kernels.data)


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
