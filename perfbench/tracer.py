"""In-memory span tracer that wraps the public boundaries of each layer.

Spans are recorded from the benchmark's own code: :meth:`Tracer.install`
replaces each boundary function with a timing wrapper under every name
its callers look it up by (modules import these functions by name, so
``repro.vendors.toolchain.bind_costs`` is patched as well as
``repro.sim.lower.bind_costs``).  The program's own telemetry
(``REPRO_OBS``) stays off: its spans book lazy C builds to ``execute``.

A span is ``(name, start, end, parent, unit, extra)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``unit`` the work unit or
triage case being run, and ``extra`` a per-boundary observation (bytes
of C emitted, whether a compiler run succeeded, whether an execution ran
a C kernel, how a reduction candidate ended).  Spans stay in memory and
are written as JSON lines by :meth:`Tracer.write` when the process ends.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref

#: (span name, ["module:function", ...], extra): every name a caller
#: resolves the boundary through at call time gets the same wrapper
_FUNCTION_BOUNDARIES = (
    ("sim.ckernel.emit", ["repro.sim.ckernel:emit_c"], "len"),
    ("sim.ckernel.cc", ["repro.sim._native:build_shared_object"], "ok"),
    ("sim.ckernel.load", ["repro.sim._native:import_shared_object"], None),
    ("sim.lower.bind_costs", ["repro.sim.lower:bind_costs",
                              "repro.vendors.toolchain:bind_costs"], None),
    ("codegen.emit", ["repro.codegen.emit_main:emit_translation_unit",
                      "repro.vendors.toolchain:emit_translation_unit"], None),
    ("vendors.toolchain.compile", ["repro.vendors.toolchain:compile_binary"],
     None),
    ("core.grammar.check", ["repro.core.grammar:check_conformance",
                            "repro.reduce.reducer:check_conformance"], None),
    ("core.surgery.check", ["repro.core.surgery:reads_undeclared_locals",
                            "repro.reduce.reducer:reads_undeclared_locals"],
     None),
    ("core.races.find", ["repro.core.races:find_races",
                         "repro.driver.engine:find_races",
                         "repro.reduce.reducer:find_races"], None),
    ("analysis.outliers.analyze", ["repro.analysis.outliers:analyze_test",
                                   "repro.driver.engine:analyze_test",
                                   "repro.reduce.reducer:analyze_test"], None),
)

#: (span name, "module:Class", method, extra): patched on the class
_METHOD_BOUNDARIES = (
    ("backends.execute", "repro.backends.registry:SimulatedBackend",
     "execute", "c_ran"),
    ("sim.lower.structural", "repro.sim.lower:StructuralLowerer", "lower",
     None),
    ("sim.lower.bind", "repro.sim.lower:LoweredKernel", "bind", None),
    ("reduce.reducer.reproduces", "repro.reduce.reducer:ReductionOracle",
     "reproduces", "verdict"),
    ("reduce.reducer.diff", "repro.reduce.reducer:ReductionOracle",
     "run_differential", None),
    ("core.generator.generate", "repro.core.generator:ProgramGenerator",
     "generate", None),
)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    return importlib.import_module(module), attr


class Tracer:
    """Records nested spans around the calls into each layer."""

    def __init__(self) -> None:
        self.spans: list = []
        self.unit: object = None
        #: wrappers call straight through while this is off, so set-up
        #: and the output checks leave no spans
        self.recording = False
        #: seconds spent in the wrappers outside the calls they time —
        #: the cost the trace adds to the run it measures
        self.own_s = 0.0
        self._stack: list[int] = []
        #: entries returned by the C backend's ``bind_c``: an execution
        #: whose binary's entry is one of these ran a compiled kernel
        self._c_entries: weakref.WeakSet = weakref.WeakSet()

    # -- recording ------------------------------------------------------
    def call(self, span_name: str, fn, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``span_name``."""
        return self._record(span_name, fn, None, args, kwargs)

    def _record(self, name: str, fn, extra, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        entered = time.perf_counter()
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.unit,
                               self._observe(extra, args, result))
            self.own_s += (start - entered) + (time.perf_counter() - end)

    def _observe(self, extra, args, result):
        if extra == "len":
            return len(result) if result is not None else 0
        if extra == "ok":
            return bool(result and result[0])
        if extra == "verdict":
            return None if result is None else "accepted"
        if extra == "c_ran":
            # the entry the execution bound, read from the binary's
            # cached_property slot: reading ``.entry`` could bind anew
            entry = vars(args[1]).get("entry")
            return entry is not None and entry in self._c_entries
        return None

    def _wrap(self, name: str, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._record(name, fn, extra, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Patch every boundary and start recording; call once, after
        set-up and right before the timed phase."""
        for name, paths, extra in _FUNCTION_BOUNDARIES:
            first_module, first_attr = _resolve(paths[0])
            wrapper = self._wrap(name, getattr(first_module, first_attr),
                                 extra)
            for path in paths:
                module, attr = _resolve(path)
                setattr(module, attr, wrapper)
        for name, cls_path, method, extra in _METHOD_BOUNDARIES:
            module, cls_name = _resolve(cls_path)
            cls = getattr(module, cls_name)
            setattr(cls, method, self._wrap(name, cls.__dict__[method],
                                            extra))
        ckernel = importlib.import_module("repro.sim.ckernel")
        bind_c = ckernel.bind_c

        def recording_bind_c(*args, **kwargs):
            entry = bind_c(*args, **kwargs)
            if entry is not None:
                self._c_entries.add(entry)
            return entry

        ckernel.bind_c = recording_bind_c
        self.recording = True

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                name, start, end, parent, unit, extra = span
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "unit": unit,
                                     "extra": extra}) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


#: the spans the benchmark opens around each unit it runs: the entry
#: points, whose self time is time no layer below them accounts for
ENTRY_SPANS = ("driver.engine.execute_unit", "reduce.reducer.reduce_case")
#: the benchmark's host-speed loop: kept out of the timed phase, and so
#: out of every span around it (in triage it runs inside the reducer)
HOLE_SPAN = "bench.calibrate"


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Additive per-layer totals over one traced process's spans.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    Booked time is the time covered by spans of the layers below the
    entry points: a boundary the tracer misses leaves its time unbooked.
    The host-speed loop's spans are holes, cut out of every span around
    them.  Totals of several processes add up; ratios are formed
    afterwards.
    """
    position = {s["id"]: pos for pos, s in enumerate(spans)}
    dur = [s["end"] - s["start"] for s in spans]
    for pos, s in enumerate(spans):
        if s["name"] == HOLE_SPAN:
            outer = position.get(s["parent"])
            while outer is not None:
                dur[outer] -= dur[pos]
                outer = position.get(spans[outer]["parent"])
    spans = [s for s in spans if s["name"] != HOLE_SPAN]
    dur = [dur[position[s["id"]]] for s in spans]
    position = {s["id"]: pos for pos, s in enumerate(spans)}
    child_s = [0.0] * len(spans)
    ran_diff = [False] * len(spans)
    for pos, s in enumerate(spans):
        parent = position.get(s["parent"])
        if parent is not None:
            child_s[parent] += dur[pos]
            ran_diff[parent] |= s["name"] == "reduce.reducer.diff"

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    flagged: dict[str, int] = {}
    emitted_bytes = 0
    gate_rejects = 0
    booked_s = 0.0
    for pos, s in enumerate(spans):
        name = s["name"]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[pos]
        own[name] = own.get(name, 0.0) + dur[pos] - child_s[pos]
        if s["extra"] is True or s["extra"] == "accepted":
            flagged[name] = flagged.get(name, 0) + 1
        if name == "sim.ckernel.emit":
            emitted_bytes += s["extra"]
        if name == "reduce.reducer.reproduces" and not ran_diff[pos]:
            gate_rejects += 1
        parent = position.get(s["parent"])
        if name not in ENTRY_SPANS and (
                parent is None or spans[parent]["name"] in ENTRY_SPANS):
            booked_s += dur[pos]

    return {
        "sim.ckernel.emit_s": total.get("sim.ckernel.emit", 0.0),
        "sim.ckernel.emit_kb": emitted_bytes / 1024,
        "sim.ckernel.cc_calls": count.get("sim.ckernel.cc", 0),
        "sim.ckernel.cc_s": total.get("sim.ckernel.cc", 0.0),
        "sim.ckernel.cc_failed": (count.get("sim.ckernel.cc", 0)
                                  - flagged.get("sim.ckernel.cc", 0)),
        "sim.ckernel.load_calls": count.get("sim.ckernel.load", 0),
        "sim.ckernel.load_s": total.get("sim.ckernel.load", 0.0),
        "backends.execute_calls": count.get("backends.execute", 0),
        "backends.execute_self_s": own.get("backends.execute", 0.0),
        "backends.execute_c_runs": flagged.get("backends.execute", 0),
        "sim.lower.structural_calls": count.get("sim.lower.structural", 0),
        "sim.lower.structural_s": total.get("sim.lower.structural", 0.0),
        "sim.lower.bind_costs_s": total.get("sim.lower.bind_costs", 0.0),
        "sim.lower.bind_self_s": own.get("sim.lower.bind", 0.0),
        "codegen.calls": count.get("codegen.emit", 0),
        "codegen.s": total.get("codegen.emit", 0.0),
        "vendors.toolchain.self_s": own.get("vendors.toolchain.compile", 0.0),
        "core.grammar.s": total.get("core.grammar.check", 0.0),
        "core.surgery.s": total.get("core.surgery.check", 0.0),
        "core.races.calls": count.get("core.races.find", 0),
        "core.races.s": total.get("core.races.find", 0.0),
        "reduce.reducer.candidates": count.get("reduce.reducer.reproduces", 0),
        "reduce.reducer.gate_rejects": gate_rejects,
        "reduce.reducer.accepted": flagged.get("reduce.reducer.reproduces", 0),
        "reduce.reducer.diff_runs": count.get("reduce.reducer.diff", 0),
        "reduce.reducer.diff_s": total.get("reduce.reducer.diff", 0.0),
        "core.generator.s": total.get("core.generator.generate", 0.0),
        "analysis.outliers.s": total.get("analysis.outliers.analyze", 0.0),
        "reduce.reducer.self_s": own.get("reduce.reducer.reduce_case", 0.0),
        "driver.engine.self_s": own.get("driver.engine.execute_unit", 0.0),
        "trace.booked_s": booked_s,
    }
