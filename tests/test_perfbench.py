"""The traced benchmark wraps library functions and methods by name
(perfbench/layers.py). Installing and removing those wrappers here makes a
renamed op, or a wrapped `__call__` moved into a base class, fail the test
suite rather than only a traced benchmark run; a small traced restore run
through the benchmark's coverage check does the same for a layer the
restore path stops reaching (e.g. a conv that bypasses tensor.conv2d), and a
small traced build_dataset run does it for a renderer that stops going
through degradations.apply_<kind>. The train_64 and datagen_128 workloads
also run untraced in-process, so every record attribute they read stays
covered by the suite."""

import ast
import importlib
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_modules():
    # the module list perfbench/run.py imports, read without running run.py
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def _perfbench(names=("layers", "tracer")):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(PERFBENCH))


def _package():
    return {name: importlib.import_module(f"promptrestore.{name}") for name in _run_modules()}


def test_perfbench_wrappers_install_and_uninstall():
    layers, tracer_mod = _perfbench()
    pkg = _package()
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


def test_traced_restore_passes_coverage_check():
    # a MICRO_CONFIG stand-in for one traced restore_128 operation: set-up
    # (model construction) and the operation are summarised separately, as
    # perfbench/run.py does, then every required layer must have recorded
    layers, tracer_mod = _perfbench()
    pkg = _package()
    M = pkg["model"]
    image = np.random.default_rng(0).uniform(0.0, 1.0, (32, 32, 3))
    tracer = tracer_mod.Tracer(pkg.values())
    try:
        layers.instrument(tracer, pkg)
        tracer.active = True
        model = M.RestorationModel(M.MICRO_CONFIG, seed=0)
        setup = tracer.summary()
        tracer.reset()
        model.restore(image, "Remove rain.")
        loop = tracer.summary()
    finally:
        tracer.uninstall()

    def value(name):
        return layers.resolve(name, loop, setup, tracer, 1, {})

    layers.check_coverage("restore_128", value)


def test_traced_datagen_passes_coverage_check(tmp_path):
    # a 32x32 stand-in for one traced datagen_128 operation; this config's
    # three samples hold all five degradation kinds between them
    layers, tracer_mod = _perfbench()
    pkg = _package()
    D = pkg["dataset"]
    tracer = tracer_mod.Tracer(pkg.values())
    try:
        layers.instrument(tracer, pkg)
        tracer.active = True
        manifest = D.build_dataset(D.DatasetConfig(count=3, image_size=32, seed=6), tmp_path)
        loop = tracer.summary()
    finally:
        tracer.uninstall()
    kinds = {k for rec in D.read_manifest(manifest) for k in rec.present}
    assert kinds == set(pkg["degradations"].KINDS)

    def value(name):
        return layers.resolve(name, loop, {}, tracer, 1, {})

    layers.check_coverage("datagen_128", value)


@pytest.mark.parametrize("name", ["train_64", "datagen_128"])
def test_workload_set_up_and_operations_pass_their_checks(tmp_path, name):
    # one set-up, then two operations and their checks, as perfbench/run.py
    # drives them but with no timing or tracing
    (workloads,) = _perfbench(("workloads",))
    wl = workloads.WORKLOADS[name](_package(), 1, str(tmp_path))
    wl.setup()
    for i in range(2):
        wl.check(i, wl.op(i, lambda _name: nullcontext()))
