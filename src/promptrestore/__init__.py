"""promptrestore: text-prompted multi-degradation image restoration.

Library layout:
  tensor / nn     float32/float64 autodiff core and trainable layers
  _kernels        numpy depthwise 3x3 and GELU kernels behind tensor
  attention       agent self/cross attention and a vanilla self-attention baseline
  blocks          residual context blocks, gated feedforward, sampling units
  text            prompt tokenizer and trainable prompt encoder
  model           the full encoder/decoder restoration network
  degradations    parameterized procedural degradation renderers
  dataset         multi-degradation sample composer and manifest writer
"""

__version__ = "0.1.0"
