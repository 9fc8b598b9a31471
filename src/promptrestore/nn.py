"""Parameter containers and the basic trainable layers.

Features are channels-last: Linear maps the last axis of any tensor, and
Conv2d takes and returns [H,W,C]. Conv2d transposes to and from the [C,H,W]
signature of tensor.conv2d, which computes channels-last, so both transposes
are free views; it is the only place a feature visits that layout.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Holds named parameters and submodules in declaration order.

    Assigning a requires_grad Tensor registers a parameter; assigning a
    Module registers a child. named_parameters() gives each parameter its
    dotted path, the name a checkpoint stores it under. Declaration order
    fixes the order of the init draws, not the checkpoint format. A module
    keeps no state between calls: a call reads its parameters and config
    and returns new tensors.
    """

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self.__dict__.get("_params", {}).items():
            yield prefix + name, p
        for name, child in self.__dict__.get("_children", {}).items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Sequential(Module):
    """Calls its modules in order, each on the previous one's output; child
    i is named str(i), so its parameters are "<i>.<name>"."""

    def __init__(self, modules):
        for i, m in enumerate(modules):
            setattr(self, str(i), m)

    def __call__(self, x: Tensor) -> Tensor:
        for m in self.__dict__.get("_children", {}).values():
            x = m(x)
        return x


def param(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=T.DTYPE), requires_grad=True)


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return param(rng.uniform(-limit, limit, size=shape))


class Linear(Module):
    """y = x @ weight + bias on the last axis of x [..., in_features];
    weight stored [in_features, out_features]."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = xavier_uniform(rng, (in_features, out_features),
                                     in_features, out_features)
        self.bias = param(np.zeros(out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return T.add_bias(T.matmul(x, self.weight), self.bias)


class Conv2d(Module):
    """3x3 conv, zero padding 1, of a channels-last feature [H,W,C_in] ->
    [(H-1)//stride+1, (W-1)//stride+1, C_out]; weight [C_out, C_in/groups, 3, 3].
    groups is 1 (dense) or C_in == C_out (depthwise, stride 1)."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 stride: int = 1, groups: int = 1, zero_init: bool = False):
        fan_in = (c_in // groups) * 9
        fan_out = (c_out // groups) * 9
        shape = (c_out, c_in // groups, 3, 3)
        if zero_init:
            self.weight = param(np.zeros(shape))
        else:
            self.weight = xavier_uniform(rng, shape, fan_in, fan_out)
        self.bias = param(np.zeros(c_out))
        self.stride, self.groups = stride, groups

    def __call__(self, x: Tensor) -> Tensor:
        y = T.conv2d(T.transpose(x, (2, 0, 1)), self.weight, self.bias,
                     stride=self.stride, groups=self.groups)
        return T.transpose(y, (1, 2, 0))


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = param(np.ones(dim))
        self.beta = param(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)
