"""The benchmark's entry points into ``repro`` must keep resolving.

``perfbench/tracer.py`` times each layer by patching named functions and
methods, and ``perfbench/child.py``/``run.py`` import ``repro`` names to
drive the workloads.  A refactor that deletes or moves one of those names
would otherwise only show up as a silently zeroed per-layer metric (or a
crashed benchmark run), so this test pins every such name, and the
values the scripts read from ``ckernel.build_info()`` and
``KernelCache.stats()``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path: str):
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


def _repro_imports(source: Path) -> list[str]:
    """``module:name`` for every name ``source`` imports from ``repro``
    (a bare ``import repro.x.y`` is recorded with an empty name)."""
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            found += [f"{node.module}:{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            found += [f"{a.name}:" for a in node.names
                      if a.name.split(".")[0] == "repro"]
    return found


def test_function_boundaries_resolve(tracer):
    paths = [p for _, paths, _ in tracer._FUNCTION_BOUNDARIES for p in paths]
    assert paths
    for path in [*paths, "repro.sim.ckernel:bind_c"]:
        assert callable(_resolve(path)), path


def test_method_boundaries_are_defined_on_their_classes(tracer):
    assert tracer._METHOD_BOUNDARIES
    for _, cls_path, method, _ in tracer._METHOD_BOUNDARIES:
        cls = _resolve(cls_path)
        # the tracer patches cls.__dict__[method]: an inherited method
        # would raise KeyError at install time
        assert callable(cls.__dict__.get(method)), f"{cls_path}.{method}"


@pytest.mark.parametrize("script", ["child.py", "run.py"])
def test_script_imports_resolve(script):
    names = _repro_imports(PERFBENCH / script)
    assert names
    for path in names:
        module, _, name = path.partition(":")
        mod = importlib.import_module(module)
        if name and not hasattr(mod, name):
            # ``from package import submodule``
            importlib.import_module(f"{module}.{name}")


def _summed_kcache_keys() -> set[str]:
    """The keys of the ``kcache`` dict ``perfbench/run.py`` sums the
    children's ``dataclasses.asdict(KernelCache.stats())`` into."""
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and any(isinstance(t, ast.Name) and t.id == "kcache"
                        for t in node.targets):
            return {k.value for k in node.value.keys}
    raise AssertionError("perfbench/run.py sums no kcache dict")


def test_kernel_cache_stats_carry_the_summed_keys(program_stream):
    from repro.sim.kcache import KernelCache
    from repro.vendors import GCC
    from repro.vendors.toolchain import compile_binary

    keys = _summed_kcache_keys()
    assert keys == {"structural_hits", "structural_misses", "kernel_hits",
                    "kernel_misses"}
    cache = KernelCache()
    before = cache.stats()
    compile_binary(program_stream[0], GCC, cache=cache)
    compile_binary(program_stream[0], GCC, cache=cache)
    delta = dataclasses.asdict(cache.stats().since(before))
    assert {k: delta[k] for k in keys} == {
        "structural_hits": 1, "structural_misses": 1, "kernel_hits": 1,
        "kernel_misses": 1}


def test_build_info_counts_c_binds(program_stream, tmp_path, monkeypatch):
    # perfbench fails every test of a run whose ``compiled`` reads 0, and
    # charges each unit's rise in ``failed`` to the unit
    from repro.sim import ckernel
    from repro.sim.backend import _c_available
    from repro.sim.lower import StructuralLowerer, bind_costs
    from repro.vendors import GCC

    info = ckernel.build_info()
    assert set(info) == {"compiled", "failed", "last_failure"}
    assert isinstance(info["compiled"], int)
    assert isinstance(info["failed"], int)
    assert info["last_failure"] is None or isinstance(
        info["last_failure"], str)
    ok, why = _c_available()
    if not ok:
        pytest.skip(f"C kernel backend unavailable: {why}")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    structural = StructuralLowerer(program_stream[0]).lower()
    bind_costs(structural, GCC, "-O3").bind("c")
    after = ckernel.build_info()
    assert after["compiled"] == info["compiled"] + 1
    assert after["failed"] == info["failed"]
