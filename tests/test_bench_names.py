"""Every fgclock name the benchmark in ``bench/`` reaches must exist.

The benchmark traces and calls fgclock through module attributes, so a
deletion or rename in the package breaks it. These tests load the bench
scripts by path and resolve each of those names against the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import fgclock

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_modules():
    """The ``MODULES`` tuple of ``bench/run.py``, read without running the script."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no MODULES assignment")


def namespace():
    """The ``fg`` namespace that ``bench/run.py`` hands to the tracer and workloads."""
    return SimpleNamespace(
        pkg=fgclock, **{m: importlib.import_module(f"fgclock.{m}") for m in bench_modules()})


def dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def workload_names():
    """Every ``fg.*`` and ``pkg.*`` chain in ``bench/workloads.py``, ``self.`` dropped."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        name = dotted(node)
        if name is not None:
            name = name.removeprefix("self.")
            if name.startswith(("fg.", "pkg.")):
                names.add(name)
    return sorted(names)


def resolve(root, chain):
    obj = root
    for attr in chain:
        obj = getattr(obj, attr)
    return obj


def test_tracer_targets_resolve():
    targets = load("tracer").targets(namespace())
    assert targets
    for owner, attr, _ in targets:
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr}"


def test_workload_scan_finds_the_package_calls():
    assert load("workloads").WORKLOADS
    names = workload_names()
    for name in ("fg.pkg.simulate_paths", "pkg.fge_offset", "pkg.exact_map_active_set",
                 "fg.cli.main", "fg.errors.FgclockError"):
        assert name in names


@pytest.mark.parametrize("name", workload_names())
def test_workload_names_resolve(name):
    root, *chain = name.split(".")
    resolve(namespace() if root == "fg" else fgclock, chain)
