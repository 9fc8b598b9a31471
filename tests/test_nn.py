import numpy as np
import pytest

from promptrestore import tensor as T
from promptrestore.nn import Conv2d
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

