"""The benchmark's entry points into ``repro`` must keep resolving.

``perfbench/tracer.py`` times each layer by patching named functions and
methods, and ``perfbench/child.py``/``run.py`` import ``repro`` names to
drive the workloads.  A refactor that deletes or moves one of those names
would otherwise only show up as a silently zeroed per-layer metric (or a
crashed benchmark run), so this test pins every such name.
"""

from __future__ import annotations

import ast
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
