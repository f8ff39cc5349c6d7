"""NumPy-backed neural network substrate (autograd, layers, optimizers).

This package stands in for the TensorFlow stack the paper used, so the
reproduction needs NumPy only (README introduction; the README's "Deviations
from the paper" section lists where the training itself differs).  Public
surface:

* :class:`~repro.nn.tensor.Tensor`, :func:`~repro.nn.tensor.no_grad`
* ``repro.nn.functional`` — embedding lookup, softmax, dropout, losses
* layers: :class:`Linear`, :class:`Embedding`, :class:`LayerNorm`,
  :class:`Dropout`, :class:`MLP`, :class:`Sequential`
* attention: :class:`MultiHeadSelfAttention`, :class:`TransformerEncoderLayer`
* optimizers: :class:`Adam`, :class:`SGD` with LR schedules
* checkpointing: :func:`save_checkpoint` / :func:`load_checkpoint`
"""

from __future__ import annotations

from . import functional
from . import init
from .attention import (
    MultiHeadSelfAttention,
    PositionwiseFeedForward,
    TransformerEncoderLayer,
    causal_mask,
    scaled_dot_product_attention,
)
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear, ReLU, Sequential, Sigmoid, Tanh
from .module import Module, Parameter
from .optim import SGD, Adam, ConstantSchedule, LinearDecay, Optimizer, StepDecay
from .serialization import load_checkpoint, load_state_dict, save_checkpoint, save_state_dict
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "MLP",
    "MultiHeadSelfAttention",
    "PositionwiseFeedForward",
    "TransformerEncoderLayer",
    "causal_mask",
    "scaled_dot_product_attention",
    "Optimizer",
    "SGD",
    "Adam",
    "ConstantSchedule",
    "LinearDecay",
    "StepDecay",
    "save_checkpoint",
    "load_checkpoint",
    "save_state_dict",
    "load_state_dict",
]
