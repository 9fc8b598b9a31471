import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.nn import Conv2d, Linear, Module, param
from promptrestore.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("c_in,c_out,stride,groups", [
    (5, 5, 1, 5),   # depthwise 3x3
    (4, 6, 2, 1),   # stride-2 dense
])
def test_conv2d_module_is_channels_last_conv2d(c_in, c_out, stride, groups):
    # Conv2d on [H,W,C] is tensor.conv2d on the [C,H,W] transpose, transposed back
    m = Conv2d(c_in, c_out, rng(1), stride=stride, groups=groups)
    m.bias.data = rng(2).uniform(-1, 1, c_out)
    x = rng(3).uniform(-1, 1, (7, 6, c_in))
    out = m(Tensor(x)).data
    ref = T.conv2d(Tensor(x.transpose(2, 0, 1)), m.weight, m.bias, stride=stride,
                   groups=groups).data.transpose(1, 2, 0)
    assert out.shape == ref.shape == ((7 - 1) // stride + 1, (6 - 1) // stride + 1, c_out)
    np.testing.assert_array_equal(out, ref)
    # tensor.conv2d computes channels-last, so transposing back is free
    assert out.flags.c_contiguous


def _names(module):
    return [name for name, _ in module.named_parameters()]


def test_named_parameters_yield_own_tensors_then_children_in_first_assignment_order():
    root = Module()
    root.a = Linear(1, 1, rng(0))
    root.w = param(np.zeros(2))
    root.b = Linear(1, 1, rng(1))
    root.a = Linear(1, 1, rng(2))       # re-assigned: keeps its place
    assert _names(root) == ["w", "a.weight", "a.bias", "b.weight", "b.bias"]
    assert list(root.parameters()) == [root.w, root.a.weight, root.a.bias,
                                       root.b.weight, root.b.bias]


def test_a_tensor_reassigned_without_grad_is_no_longer_a_parameter():
    lin = Linear(3, 2, rng(0))
    lin.weight = Tensor(np.ones((3, 2)))     # a constant, not requires_grad
    assert _names(lin) == ["bias"]


def test_a_child_set_to_none_or_deleted_leaves_no_parameters():
    root = Module()
    root.child = Linear(3, 2, rng(0))
    root.child = None
    assert _names(root) == []
    root.other = Linear(3, 2, rng(1))
    del root.other
    assert _names(root) == []
