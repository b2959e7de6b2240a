"""Wavelet-based tokenization, forecasting and evaluation for univariate
time series.

The pipeline scales a window with its context statistics, decomposes it
with a decimated wavelet transform, optionally thresholds the detail
coefficients, quantizes everything against a shared codebook and lays the
tokens out coarsest-first. An autoregressive categorical model forecasts
horizon tokens, which invert exactly back to real values.

The package namespace holds the :mod:`wavets.pipeline` entry points and the
few names the benchmark reads; everything else is imported from its
submodule.
"""

# The benchmark reads these submodules as attributes of the package.
from . import data_io, data_synth, dwt, seq_model, tokenizer
from .codebook import load_codebook
from .data_io import load_dataset, split_last_h
from .dwt import decompose
from .families import get_family
from .pipeline import (
    RunConfig,
    evaluate_dataset,
    forecast_dataset,
    make_windows,
    pool_coefficients,
    run_cell,
    tokenize_windows,
    train_model,
)
from .seq_model import cross_entropy, load_model
from .thresholding import ThresholdSpec
from .tokenizer import TokenizerConfig, pad_to_length, tokenize_pair

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "ThresholdSpec",
    "TokenizerConfig",
    "cross_entropy",
    "decompose",
    "evaluate_dataset",
    "forecast_dataset",
    "get_family",
    "load_codebook",
    "load_dataset",
    "load_model",
    "make_windows",
    "pad_to_length",
    "pool_coefficients",
    "run_cell",
    "split_last_h",
    "tokenize_pair",
    "tokenize_windows",
    "train_model",
]
