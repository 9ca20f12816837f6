"""``repro.nn`` — a from-scratch NumPy autograd + neural network framework.

This package is the substrate replacing PyTorch for the SSDRec
reproduction: reverse-mode autodiff (:mod:`repro.nn.tensor`), layers,
recurrent and attention modules, optimizers, and Gumbel-Softmax sampling.
"""

from . import functional
from . import kernels
from . import reference
from .attention import (MultiHeadAttention, TransformerEncoder,
                        TransformerEncoderLayer, causal_mask, padding_mask,
                        scaled_dot_product_attention, sparsemax)
from .gumbel import (TemperatureSchedule, gumbel_log_logits, gumbel_sigmoid,
                     gumbel_softmax)
from .layers import (Conv1d, Dropout, Embedding, FeedForward, LayerNorm,
                     Linear, MaxPool1d, PositionalEmbedding)
from .module import (Module, ModuleList, Parameter, Sequential,
                     inference_mode)
from .optim import SGD, Adam, clip_grad_norm
from .profiler import Profiler, profiler
from .rng import default_generator, resolve_rng, set_global_seed
from .rnn import (GRU, LSTM, BiLSTM, GRUCell, LSTMCell, gru_sequence,
                  gru_step, lstm_sequence)
from .sanitizer import Sanitizer, SanitizerError, sanitizer
from .schedulers import (CosineAnnealingLR, ExponentialLR, LRScheduler,
                         ReduceOnPlateau, StepLR, WarmupLR)
from .tensor import Tensor, arange, ensure_tensor, no_grad, ones, randn, zeros

__all__ = [
    "Tensor", "ensure_tensor", "no_grad", "zeros", "ones", "randn", "arange",
    "Module", "ModuleList", "Parameter", "Sequential", "inference_mode",
    "Linear", "Embedding", "Dropout", "LayerNorm", "Conv1d", "MaxPool1d",
    "PositionalEmbedding", "FeedForward",
    "GRU", "LSTM", "BiLSTM", "GRUCell", "LSTMCell",
    "MultiHeadAttention", "TransformerEncoder", "TransformerEncoderLayer",
    "causal_mask", "padding_mask", "sparsemax",
    "scaled_dot_product_attention", "gru_step",
    "lstm_sequence", "gru_sequence",
    "Profiler", "profiler", "reference",
    "Sanitizer", "SanitizerError", "sanitizer",
    "set_global_seed", "default_generator", "resolve_rng",
    "gumbel_softmax", "gumbel_sigmoid", "gumbel_log_logits",
    "TemperatureSchedule",
    "SGD", "Adam", "clip_grad_norm",
    "LRScheduler", "StepLR", "ExponentialLR", "CosineAnnealingLR",
    "WarmupLR", "ReduceOnPlateau",
    "functional", "kernels",
]
