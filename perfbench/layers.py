"""What the traced run instruments in promptrestore, and how its spans become
the per-layer metrics that BENCHMARK.json names.

Layers are the package's modules; the `_kernels` module's metrics are
named `kernels.*`, since a metric name must start with a letter or digit.
Hot tensor ops and kernels get a span per call; `tensor._finish` (every op
ends there) and `Tape._record` (every taped op) are counted without spans. README.md holds the metric map: which
end-to-end metric each per-layer metric should move, and on which workload.
REQUIRED and MUST_BE_ZERO below are the part of that map the traced run
enforces, so that a renamed layer or a bypass that stops holding fails the
run instead of reporting a silent 0.

Per-layer values are per workload operation (totals over the traced
operations divided by their count), except `.gbps` (bytes over self time),
the set-up span `model.RestorationModel.init` (seconds per construction)
and the extras that run.py measures outside the traced loop.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import TraceError

TENSOR_OPS = ("gelu", "matmul", "add_bias", "layer_norm", "softmax", "reshape", "transpose")
CONV_SPANS = ("tensor.conv2d_depthwise", "tensor.conv2d_dense")
KERNELS = ("gelu", "depthwise3x3", "depthwise3x3_grad_input", "depthwise3x3_grad_weight")
DEGRADATIONS = ("rain", "snow", "haze", "blur", "lowlight")
CLASS_CALLS = (
    ("attention", "AgentSelfAttention"), ("attention", "AgentCrossAttention"),
    ("attention", "VanillaSelfAttention"),
    ("blocks", "ContextBlock"), ("blocks", "GatedDConvFFN"), ("blocks", "Downsample"),
    ("blocks", "Upsample"), ("blocks", "DegradationClassifier"),
    ("text", "PromptEncoder"),
)
MODEL_METHODS = ("__init__", "encode", "encode_prompt", "restore")
TRAIN_PHASES = ("data_wait", "forward", "backward", "update")
SETUP_SPANS = {"model.RestorationModel.init"}

_RESTORE_PATH = (
    [f"tensor.{op}.calls" for op in TENSOR_OPS]
    + [f"{name}.calls" for name in CONV_SPANS]
    + ["tensor.ops.calls", "kernels.gelu.calls", "kernels.depthwise3x3.calls"]
    + [f"{mod}.{cls}.s" for mod, cls in CLASS_CALLS]
    + ["text.tokenize.s", "model.RestorationModel.encode.s",
       "model.RestorationModel.encode_prompt.s", "model.RestorationModel.restore.s",
       "model.RestorationModel.init.s"]
)
REQUIRED = {
    "restore_128": _RESTORE_PATH,
    "train_64": _RESTORE_PATH + [
        "kernels.depthwise3x3_grad_input.calls", "kernels.depthwise3x3_grad_weight.calls",
        "tensor.Tape.backward_s", "tensor.Tape.nodes", "tensor.Tape.out_bytes",
        "dataset.read_ppm.s"] + [f"train.{p}_s" for p in TRAIN_PHASES],
    "datagen_128": [f"degradations.apply_{k}.calls" for k in DEGRADATIONS] + [
        "dataset.generate_clean_image.s", "dataset.write_ppm.s", "dataset.write_manifest.s"],
}
# the bypasses each workload is defined by
MUST_BE_ZERO = {
    "restore_128": ["tensor.Tape.nodes", "tensor.Tape.backward_s"],
    "datagen_128": ["tensor.ops.calls"],
}


# ---------------------------------------------------------------------------
# byte counts (computed from array sizes, not measured traffic)


def _fresh_bytes(out: np.ndarray, inputs) -> int:
    """Bytes an op allocated for its output; a view of an input counts 0."""
    if any(np.may_share_memory(out, x) for x in inputs):
        return 0
    return out.nbytes


def _op_bytes(args, kwargs, result):
    inputs = [getattr(a, "data", None) for a in (*args, *kwargs.values())]
    return _fresh_bytes(result.data, [x for x in inputs if isinstance(x, np.ndarray)])


def _finish_bytes(args, kwargs, result):
    out_data, parents = args[0], args[1]
    return _fresh_bytes(out_data, [p.data for p in parents])


def _record_bytes(args, kwargs, result):
    _tape, out, parents = args[0], args[1], args[2]
    return _fresh_bytes(out.data, [p.data for p in parents])


def _array_bytes(args, kwargs, result):
    # bytes a kernel reads plus bytes it writes
    outs = result if isinstance(result, tuple) else (result,)
    return sum(a.nbytes for a in (*args, *outs) if isinstance(a, np.ndarray))


def _file_bytes(index):
    def nbytes(args, kwargs, result):
        return os.path.getsize(args[index])
    return nbytes


def _result_bytes(args, kwargs, result):
    return result.nbytes


def _conv_name(args, kwargs):
    x = args[0]
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    return CONV_SPANS[0] if groups > 1 and groups == x.shape[0] else CONV_SPANS[1]


# ---------------------------------------------------------------------------


def instrument(tracer, pkg) -> None:
    """Install every wrapper; raises TraceError if a target has gone."""
    T, K = pkg["tensor"], pkg["_kernels"]
    for op in TENSOR_OPS:
        tracer.wrap_function(T, op, tracer.timed(f"tensor.{op}", nbytes=_op_bytes))
    tracer.wrap_function(T, "conv2d", tracer.timed(None, namer=_conv_name, nbytes=_op_bytes),
                         names=CONV_SPANS)
    tracer.wrap_function(T, "_finish", tracer.counted("tensor.ops", "calls", "bytes",
                                                       _finish_bytes))
    tracer.wrap_method(T.Tape, "_record", tracer.counted("tensor.Tape", "nodes", "out_bytes",
                                                          _record_bytes))
    tracer.wrap_method(T.Tape, "backward", tracer.timed("tensor.Tape.backward"))
    for name in KERNELS:
        tracer.wrap_function(K, name, tracer.timed(f"kernels.{name}", nbytes=_array_bytes))
    for mod, cls in CLASS_CALLS:
        tracer.wrap_method(getattr(pkg[mod], cls), "__call__", tracer.timed(f"{mod}.{cls}"))
    for meth in MODEL_METHODS:
        label = "init" if meth == "__init__" else meth
        tracer.wrap_method(pkg["model"].RestorationModel, meth,
                           tracer.timed(f"model.RestorationModel.{label}"))
    tracer.wrap_function(pkg["text"], "tokenize", tracer.timed("text.tokenize"))
    for kind in DEGRADATIONS:
        tracer.wrap_function(pkg["degradations"], f"apply_{kind}",
                             tracer.timed(f"degradations.apply_{kind}"))
    D = pkg["dataset"]
    for name, nbytes in (("generate_clean_image", _result_bytes), ("write_ppm", _file_bytes(0)),
                         ("read_ppm", _file_bytes(0)), ("write_manifest", _file_bytes(1))):
        tracer.wrap_function(D, name, tracer.timed(f"dataset.{name}", nbytes=nbytes))
    for phase in TRAIN_PHASES:
        tracer.names.add(f"train.{phase}")


def resolve(name, loop, setup, tracer, ops, extras) -> float:
    """Value of per-layer metric `name` from the traced loop and set-up."""
    if name in extras:
        return extras[name]
    head, _, field = name.rpartition(".")
    fields = tracer.counter_fields.get(head, ())
    if field in fields:
        return tracer.counters.get(head, {}).get(field, 0) / ops
    if field.endswith("_s") and field != "self_s":
        head, field = f"{head}.{field[:-2]}", "s"
    if head not in tracer.names:
        raise TraceError(f"per-layer metric {name} names no traced layer")
    if head in SETUP_SPANS:
        st = setup.get(head)
        return st[field] / st["calls"] if st else 0.0
    st = loop.get(head)
    if st is None:
        return 0.0
    if field == "gbps":
        return st["bytes"] / st["self_s"] / 1e9 if st["self_s"] > 0 else 0.0
    return st[field] / ops


def check_coverage(workload: str, value) -> None:
    """Loud failure: a layer the workload must hit stayed silent, or a bypass
    leaked. `value(name)` resolves a per-layer metric."""
    silent = [m for m in REQUIRED[workload] if not value(m) > 0]
    if silent:
        raise TraceError(f"{workload}: layers recorded nothing: {', '.join(silent)}")
    leaked = [m for m in MUST_BE_ZERO.get(workload, ()) if value(m) != 0]
    if leaked:
        raise TraceError(f"{workload}: bypassed layers were hit: {', '.join(leaked)}")
