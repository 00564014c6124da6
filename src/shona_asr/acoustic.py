"""CNN acoustic model: stacked features in, per-frame phone log-posteriors out.

Two same-padded 3x3 convolution blocks, each followed by 2x2 max pooling,
then a 128-unit dense layer per downsampled frame, optional self-attention
over the frame sequence, and a log-softmax output over the phone set plus
the blank symbol. Both time and feature axes are pooled, so the grid has
floor(floor(T/2)/2) rows and the feature axis shrinks 39 -> 19 -> 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameters, Tensor
from .features import FeatureMatrix

FEATURE_DIM = 39
FRAME_SUBSAMPLE = 4


@dataclass
class AcousticConfig:
    conv1_filters: int = 32
    conv2_filters: int = 64
    kernel_size: int = 3
    dense_units: int = 128
    use_attention: bool = True

    def pooled_cols(self) -> int:
        return (FEATURE_DIM // 2) // 2


@dataclass
class PosteriorGrid:
    """[T', P+1] matrix of phone(+blank) log-probabilities, one row per frame."""

    log_probs: np.ndarray
    frame_subsample: int = FRAME_SUBSAMPLE

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def n_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.log_probs.shape[1]

    @property
    def blank(self) -> int:
        return self.log_probs.shape[1] - 1


def build_acoustic_model(cfg: AcousticConfig, n_phones: int, seed: int) -> Parameters:
    """Fresh parameters for the acoustic network; deterministic in seed.

    The output layer has n_phones + 1 rows, the extra one being the blank.
    """
    if n_phones < 2:
        raise ValueError(f"need at least 2 phones, got {n_phones}")
    rng = np.random.default_rng(seed)
    k = cfg.kernel_size
    params = Parameters()
    params.add("conv1.kernels", ad.he_uniform(rng, (cfg.conv1_filters, 1, k, k), fan_in=k * k))
    params.add("conv1.bias", np.zeros(cfg.conv1_filters))
    params.add("conv2.kernels",
               ad.he_uniform(rng, (cfg.conv2_filters, cfg.conv1_filters, k, k),
                             fan_in=cfg.conv1_filters * k * k))
    params.add("conv2.bias", np.zeros(cfg.conv2_filters))
    dense_in = cfg.conv2_filters * cfg.pooled_cols()
    params.add("dense.W", ad.he_uniform(rng, (cfg.dense_units, dense_in), fan_in=dense_in))
    params.add("dense.b", np.zeros(cfg.dense_units))
    if cfg.use_attention:
        d = cfg.dense_units
        for name in ("attn.Wq", "attn.Wk", "attn.Wv"):
            params.add(name, ad.xavier_uniform(rng, (d, d), fan_in=d, fan_out=d))
    params.add("out.W", ad.he_uniform(rng, (n_phones + 1, cfg.dense_units), fan_in=cfg.dense_units))
    params.add("out.b", np.zeros(n_phones + 1))
    return params


def acoustic_forward(params: Parameters, feats, cfg: AcousticConfig | None = None) -> Tensor:
    """Differentiable forward pass; returns the [T', P+1] log-posterior tensor."""
    cfg = cfg or AcousticConfig(use_attention="attn.Wq" in params)
    values = feats.values if isinstance(feats, FeatureMatrix) else np.asarray(feats, dtype=np.float64)
    t = values.shape[0]
    if t < 4:
        raise ValueError(f"need at least 4 frames to survive two stride-2 pools, got {t}")
    if values.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM}-dim features, got {values.shape[1]}")
    x = Tensor(values[None, :, :])
    h = ad.max_pool2d(ad.relu(ad.conv2d(x, params["conv1.kernels"], params["conv1.bias"])))
    h = ad.max_pool2d(ad.relu(ad.conv2d(h, params["conv2.kernels"], params["conv2.bias"])))
    rows = ad.channels_to_rows(h)
    rows = ad.relu(ad.dense(rows, params["dense.W"], params["dense.b"]))
    if cfg.use_attention:
        rows = ad.attention_layer(rows, params["attn.Wq"], params["attn.Wk"], params["attn.Wv"])
    logits = ad.dense(rows, params["out.W"], params["out.b"])
    return ad.log_softmax(logits)


def posteriors(params: Parameters, feats, cfg: AcousticConfig | None = None) -> PosteriorGrid:
    """Inference wrapper returning a plain log-posterior grid."""
    return PosteriorGrid(acoustic_forward(params, feats, cfg).data)
