"""The traced benchmark wraps library functions and methods by name
(perfbench/layers.py). Installing and removing those wrappers here makes a
renamed op, or a wrapped `__call__` moved into a base class, fail the test
suite rather than only a traced benchmark run."""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_modules():
    # the module list perfbench/run.py imports, read without running run.py
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_perfbench_wrappers_install_and_uninstall():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        tracer_mod = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    pkg = {name: importlib.import_module(f"promptrestore.{name}") for name in _run_modules()}
    before = {name: dict(vars(mod)) for name, mod in pkg.items()}
    tracer = tracer_mod.Tracer(pkg.values())
    try:
        layers.instrument(tracer, pkg)
        wrapped = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert wrapped
    assert any(obj is pkg["tensor"] and key == "conv2d" for obj, key, _ in wrapped)
    for obj, key, fn in wrapped:
        assert getattr(obj, key) is fn
    assert {name: dict(vars(mod)) for name, mod in pkg.items()} == before
