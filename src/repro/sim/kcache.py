"""Process-local kernel cache for the two-phase lowering pipeline.

A campaign compiles every generated program once per simulated vendor;
sessions, benchmarks, resumed runs, and test suites re-compile the same
programs again and again.  :class:`KernelCache` memoizes both lowering
phases behind bounded LRU maps:

* **structural entries** — keyed by ``(fingerprint, ftz, fma_mode)``:
  the expensive pass (AST walk, constant folding, IR construction).
  The key is the *kernel shape*: the program text plus the only two
  vendor traits that change the lowered ops, so vendors whose shapes
  coincide (e.g. every vendor at ``-O0``/``-O1``, where contraction is
  off) share one IR — and the executables the backends build from it
  on first bind (a compiled Python code object, a C extension), which
  the entry keeps in its ``backend_cache``;
* **families** — beside the structural entries, the shapes of each
  fingerprint lowered since that fingerprint's last C build, in
  lowering order.  The C backend builds a family as one extension
  module on the first C bind of any member
  (:func:`~repro.sim.ckernel.bind_c`), so a program's vendor shapes
  cost one compiler run; a shape lowered after its family was built
  starts the next one.  A shape joins whatever kernel backend is
  active, and leaves when the structural LRU drops it, so the LRU
  bounds the family state too;
* **kernel entries** — keyed by ``(fingerprint, vendor, opt_level,
  fast_armed, slow_armed)``: the bound
  :class:`~repro.sim.lower.LoweredKernel` (shape + that vendor's
  ``_K`` constants).  Bound kernels also memoize their callable per
  backend (:meth:`~repro.sim.lower.LoweredKernel.bind`), so a cache hit
  skips the bind as well.

Invalidation is purely capacity-based (LRU eviction): every component of
a key is content-derived — the fingerprint hashes the emitted C++
translation unit, and the fault arms are deterministic functions of
``(fingerprint, vendor)`` — so an entry can never go stale, only cold.
Capacities bound worst-case memory (a shape's IR and charge sites, plus
the compiled Python code once it runs under ``interp``); the defaults
hold a full 200-program campaign with room to spare.

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

    def put(self, key, value) -> list:
        """Insert; returns the values this dropped (replaced or
        evicted)."""
        dropped = [] if (old := self.data.get(key)) is None else [old]
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.capacity:
            dropped.append(self.data.popitem(last=False)[1])
            self.evictions += 1
        return dropped


class KernelCache:
    """Bounded, thread-safe memoization of both lowering phases."""

    def __init__(self, structural_capacity: int = 512,
                 kernel_capacity: int = 2048):
        self._structural = _LruMap(structural_capacity)
        self._kernels = _LruMap(kernel_capacity)
        #: family key -> its unbuilt shapes, in lowering order
        self._families: dict[Hashable, list] = {}
        self._lock = threading.Lock()
        self._shits = 0
        self._smisses = 0
        self._khits = 0
        self._kmisses = 0

    # ------------------------------------------------------------------
    def get_structural(self, key: tuple, build: Callable[[], T]) -> T:
        """The structural kernel for ``key``, building on first use; a
        new shape joins the family named by ``key[0]`` (the
        fingerprint)."""
        with self._lock:
            hit = self._structural.get(key)
            if hit is not None:
                self._shits += 1
                return hit
            self._smisses += 1
        value = build()  # built outside the lock: lowering can be slow
        value.family = (self, key[0])
        with self._lock:
            for old in self._structural.put(key, value):
                self._leave_family(old)
            self._families.setdefault(key[0], []).append(value)
        return value

    def claim_family(self, shape) -> list:
        """Take ``shape``'s family for one C build: every shape of its
        fingerprint lowered since the last claim, in lowering order, or
        just ``[shape]`` when its family no longer holds it."""
        key = shape.family[1]
        with self._lock:
            members = self._families.get(key, ())
            if not any(m is shape for m in members):
                return [shape]
            return self._families.pop(key)

    def _leave_family(self, shape) -> None:
        key = shape.family[1]
        members = self._families.get(key, [])
        members[:] = [m for m in members if m is not shape]
        if not members:
            self._families.pop(key, None)

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
            self._families.clear()

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
