"""Worksharing schedules, walked by the kernels themselves.

A worksharing loop's iterations and the schedule cycles they cost used
to come from runtime calls (``RegionExecutor.chunk``/``assign``).  The
kernels now walk the schedules — :func:`repro.sim.pykernel.chunks` in
the interpreted kernel, ``sched_next`` in the C prelude — and charge the
schedule lane themselves.  This module keeps the runtime's old
assignment code as the reference model and checks both kernels against
it over every schedule kind × chunk × trip count × team size: each
thread's iterations, in order, and the schedule cycles its walk added.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import pytest

from repro.sim import ir
from repro.sim.backend import _c_available
from repro.sim.ckernel import bind_c
from repro.sim.lower import CostState, StructuralKernel
from repro.sim.pykernel import bind_py

KINDS = ("static", "dynamic", "guided")
CHUNKS = (0, 1, 3, 7)
TEAMS = (1, 3, 8, 32)

#: inexact cycle values, so a sum shows how many adds made it
SCHED, DISPATCH = 0.1, 1.0 / 3.0

_C_OK, _C_WHY = _c_available()
BACKENDS = ("interp", "c")


def trip_counts(t: int) -> tuple[int, ...]:
    return (-3, 0, 1, t - 1, t, 5 * t + 3, 1000)


# ----------------------------------------------------------------------
# the reference model: the runtime's assignment before the kernels
# walked schedules themselves
# ----------------------------------------------------------------------

def _static_span(tid: int, n: int, t: int) -> tuple[int, int]:
    base, rem = divmod(n, t)
    lo = tid * base + min(tid, rem)
    hi = lo + base + (1 if tid < rem else 0)
    return lo, hi


def _assigned_iterations(kind: str, chunk: int, n: int, t: int):
    per: list[list[int]] = [[] for _ in range(t)]
    owned = [0] * t
    if kind == "static":  # schedule(static, chunk): round-robin chunks
        for tid in range(t):
            for start in range(tid * chunk, n, chunk * t):
                per[tid].extend(range(start, min(start + chunk, n)))
    else:
        if kind == "dynamic":
            c = chunk if chunk > 0 else 1
            sizes = [min(c, n - s) for s in range(0, n, c)]
        else:  # guided
            c_min = chunk if chunk > 0 else 1
            sizes = []
            remaining = n
            while remaining > 0:
                size = min(remaining, max(c_min, -(-remaining // (2 * t))))
                sizes.append(size)
                remaining -= size
        start = 0
        for i, size in enumerate(sizes):
            tid = i % t
            per[tid].extend(range(start, start + size))
            owned[tid] += 1
            start += size
    return per, owned


def reference(kind: str, chunk: int, n: int, t: int) -> list:
    """Per thread: ``(iterations, schedule cycles)`` as the runtime's
    ``chunk``/``assign`` produced them (each thread's cycles from 0.0)."""
    n = max(0, int(n))
    out = []
    for tid in range(t):
        sched = 0.0
        if kind == "static":
            sched += SCHED
            if chunk <= 0:
                iters = list(range(*_static_span(tid, n, t)))
            else:
                iters = _assigned_iterations(kind, chunk, n, t)[0][tid]
        else:
            per, owned = _assigned_iterations(kind, chunk, n, t)
            iters = per[tid]
            for _ in range(owned[tid]):
                sched += DISPATCH
        out.append((list(iters), sched))
    return out


# ----------------------------------------------------------------------
# the kernels under test
# ----------------------------------------------------------------------

class Recorder:
    """The runtime side of a schedule kernel: records, per region, the
    reduction partials (the iterations walked) and the schedule lane."""

    def __init__(self) -> None:
        self.exits: list[tuple[list[int], float]] = []

    def prologue(self):
        return sys.maxsize, SCHED, DISPATCH

    def region_enter(self, rid):
        pass

    def region_exit(self, rid, comp, partials, op, sync, atomics, acquires,
                    sched, compute, critical):
        self.exits.append(([int(x) for x in partials], sched))
        return comp


def schedule_kernel(cases: tuple) -> StructuralKernel:
    """One kernel for a list of ``(kind, chunk, threads)`` cases, picked
    by the int parameter ``sel``; ``n`` is the trip count.  Case ``j``
    runs one region per thread ``r``, in which only thread ``r`` walks
    the loop and appends each iteration to the reduction partials, so
    every region exit reports one thread's iterations and schedule
    cycles."""
    ops: list = [ir.Prologue(), ir.LoadInt("sel"), ir.LoadInt("n"),
                 ir.Reload(), ir.SetVar("comp", ir.FLit(0.0))]
    rid = 0
    for j, (kind, chunk, t) in enumerate(cases):
        body: list = []
        for r in range(t):
            loop = ir.ForAssign("i", ir.IVar("n"), kind, chunk, t, [
                ir.SetVar("x", ir.IToF(ir.IVar("i"))),
                ir.AppendPartial("x")])
            body += [ir.Flush(), ir.RegionEnter(rid), ir.Reload(),
                     ir.InitPartials(),
                     ir.ForRange("_tid", ir.ILit(t), [
                         ir.ThreadBegin(), ir.IfIntEq("_tid", r, [loop]),
                         ir.ThreadEnd()]),
                     ir.Flush(), ir.RegionExit(rid, "comp", "+", t),
                     ir.Reload()]
            rid += 1
        ops.append(ir.IfIntEq("sel", j, body))
    ops += [ir.Flush(), ir.Return("comp")]
    kir = ir.KernelIR(ops=ops, fp_vars=("comp", "x"),
                      int_vars=("sel", "n", "i"))
    return StructuralKernel(ir=kir, sites=(), teams=())


@lru_cache(maxsize=None)
def _entries(cases: tuple) -> dict:
    shape = schedule_kernel(cases)
    entries = {"interp": bind_py(shape, (), (False, "none"))}
    if _C_OK:
        entries["c"] = bind_c(shape, (), (False, "none"))
    return entries


def walk(backend: str, cases: tuple, case: tuple, n: int) -> list:
    """Per thread of ``case``: ``(iterations, schedule cycles)`` as the
    ``backend`` kernel built for ``cases`` walked them."""
    entry = _entries(cases).get(backend)
    if entry is None:
        pytest.skip(f"C kernel backend unavailable: {_C_WHY}")
    rec = Recorder()
    entry({"sel": cases.index(case), "n": n}, rec, CostState())
    return rec.exits


ALL_CASES = tuple((kind, chunk, t) for kind in KINDS for chunk in CHUNKS
                  for t in TEAMS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,chunk,t", ALL_CASES,
                         ids=lambda v: str(v))
def test_kernel_walks_match_the_runtime_assignment(backend, kind, chunk, t):
    for n in trip_counts(t):
        got = walk(backend, ALL_CASES, (kind, chunk, t), n)
        want = reference(kind, chunk, n, t)
        assert [iters for iters, _ in got] == [it for it, _ in want], n
        # bit-identical schedule lanes: the same adds in the same order
        assert [s.hex() for _, s in got] == [s.hex() for _, s in want], n


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown schedule kind"):
        ir.ForAssign("i", ir.ILit(4), "auto", 0, 2, [])
