"""Static checks over the package sources and the names the tracer binds.

Every name a module imports is used in that module; ``__init__.py`` is
skipped because it imports names in order to re-export them. Every
public function is read by some module of the package or wrapped by the
tracer, unless it is exempt with a reason. Every function the benchmark
tracer in ``perfbench/tracing.py`` wraps exists, and a measure rebuilt
from its tag, function and parameters, as the tracer rebuilds it,
equals the original.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import roughpart
from roughpart import InclusionFn, kappa_k0, kappa_k1, kappa_k2, kappa_st

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "roughpart").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from typing import Callable, Sequence\nx: Callable\n"
    assert _unused_imports(source) == ["Sequence"]


def _tracer_constants() -> dict[str, object]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id in ("TARGETS", "MEASURE_FACTORIES")}


def test_traced_functions_exist():
    constants = _tracer_constants()
    named = [(layer, name) for layer, names in constants["TARGETS"].items()
             for name in names]
    named += [("inclusion", name) for name in constants["MEASURE_FACTORIES"]]
    missing = [f"{layer}.{name}" for layer, name in named
               if not callable(getattr(importlib.import_module(
                   f"roughpart.{layer}"), name, None))]
    assert missing == []


# Public functions no module reads, each with the reason it stays.
UNREAD_EXEMPT = (
    # A measure of the paper; tying it to a verify clause would change the
    # report digests the benchmark pins.
    "dependence_degree",
)


def test_every_public_function_is_used():
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    constants = _tracer_constants()
    traced = {name for names in constants["TARGETS"].values()
              for name in names} | set(constants["MEASURE_FACTORIES"])
    unused = [name for name in roughpart.__all__
              if inspect.isfunction(getattr(roughpart, name))
              and name not in read | traced | set(UNREAD_EXEMPT)]
    assert unused == []


@pytest.mark.parametrize("measure", (
    kappa_k0(), kappa_k1(), kappa_k2(), kappa_st("1/5", "4/5"),
    kappa_st("1/5", "4/5", kappa_k1()), kappa_st("1/4", "3/4", kappa_k2())),
    ids=InclusionFn.describe)
def test_a_measure_rebuilt_positionally_is_equal(measure):
    rebuilt = InclusionFn(measure.tag, measure.fn, measure.parameters)
    assert rebuilt == measure
    assert rebuilt.describe() == measure.describe()
