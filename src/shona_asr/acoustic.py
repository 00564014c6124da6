"""CNN acoustic model: stacked features in, per-frame phone log-posteriors out.

Two blocks of same-padded 3x3 convolution -> 2x2 max pooling -> ReLU,
then a 128-unit dense layer per downsampled frame, optional self-attention
over the frame sequence, and a log-softmax output over the phone set plus
the blank symbol. Both time and feature axes are pooled, so the grid has
floor(floor(T/2)/2) rows and the feature axis shrinks 39 -> 19 -> 9.

Pooling before the ReLU equals the usual ReLU-then-pool: ReLU is
monotone, so the maximum commutes with it, and the gradient reaches the
same element (the window's first maximum, or none when that maximum is
<= 0). The ReLU then runs on a quarter of the elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Layout, Parameters, Tensor

FEATURE_DIM = 39


@dataclass
class AcousticConfig:
    conv1_filters: int = 32
    conv2_filters: int = 64
    kernel_size: int = 3
    dense_units: int = 128
    use_attention: bool = True


@dataclass
class PosteriorGrid:
    """[T', P+1] matrix of phone(+blank) log-probabilities, one row per frame."""

    log_probs: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def n_frames(self) -> int:
        return self.log_probs.shape[0]


def output_frames(n_frames: int) -> int:
    """Grid rows left from n_frames input frames after the two stride-2 pools."""
    return (n_frames // 2) // 2


def acoustic_layout(cfg: AcousticConfig, n_phones: int) -> Layout:
    """Name, shape and init fan of every acoustic tensor, in draw order.

    The output layer has n_phones + 1 rows, the extra one being the blank.
    """
    if n_phones < 2:
        raise ValueError(f"need at least 2 phones, got {n_phones}")
    k, c1, c2, d = cfg.kernel_size, cfg.conv1_filters, cfg.conv2_filters, cfg.dense_units
    dense_in = c2 * output_frames(FEATURE_DIM)  # the feature axis pools alike
    layout = [("conv1.kernels", (c1, 1, k, k), k * k), ("conv1.bias", (c1,), 0),
              ("conv2.kernels", (c2, c1, k, k), c1 * k * k), ("conv2.bias", (c2,), 0),
              ("dense.W", (d, dense_in), dense_in), ("dense.b", (d,), 0)]
    if cfg.use_attention:
        layout += [(name, (d, d), d + d) for name in ("attn.Wq", "attn.Wk", "attn.Wv")]
    return layout + [("out.W", (n_phones + 1, d), d), ("out.b", (n_phones + 1,), 0)]


def build_acoustic_model(cfg: AcousticConfig, n_phones: int, seed: int) -> Parameters:
    """Fresh parameters for the acoustic network; deterministic in seed."""
    return Parameters.draw(acoustic_layout(cfg, n_phones), np.random.default_rng(seed))


def acoustic_forward(params: Parameters, feats, cfg: AcousticConfig | None = None) -> Tensor:
    """Differentiable forward pass; returns the [T', P+1] log-posterior tensor.

    The features are cast to the parameters' dtype, so float32 parameters
    (training, and a checkpoint's) give a float32 grid and float64 ones
    (the gradient checks) a float64 grid.
    """
    cfg = cfg or AcousticConfig(use_attention="attn.Wq" in params)
    values = np.asarray(feats, dtype=params["conv1.kernels"].data.dtype)
    t = values.shape[0]
    if output_frames(t) < 1:
        raise ValueError(f"need at least 4 frames to survive two stride-2 pools, got {t}")
    if values.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM}-dim features, got {values.shape[1]}")
    x = Tensor(values[None, :, :])
    h = ad.relu(ad.max_pool2d(ad.conv2d(x, params["conv1.kernels"], params["conv1.bias"])))
    h = ad.relu(ad.max_pool2d(ad.conv2d(h, params["conv2.kernels"], params["conv2.bias"])))
    rows = ad.channels_to_rows(h)
    rows = ad.relu(ad.dense(rows, params["dense.W"], params["dense.b"]))
    if cfg.use_attention:
        rows = ad.attention_layer(rows, params["attn.Wq"], params["attn.Wk"], params["attn.Wv"])
    logits = ad.dense(rows, params["out.W"], params["out.b"])
    return ad.log_softmax(logits)


def posteriors(params: Parameters, feats, cfg: AcousticConfig | None = None) -> PosteriorGrid:
    """Inference wrapper returning a plain log-posterior grid."""
    return PosteriorGrid(acoustic_forward(params, feats, cfg).data)
