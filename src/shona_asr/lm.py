"""Two-layer LSTM language model over phone or word tokens.

A sentence is scored as <s> t1 ... tn </s>; in phone mode every word
contributes its phones followed by the <wb> boundary token, so the model
learns both phonotactics and word transitions. Training runs each layer
over the whole sentence as one autodiff node (`autodiff.lstm_layer`);
scoring and decoding run on plain arrays without a graph. Both paths step
through one gate function, `autodiff.lstm_gates`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameters, Tensor
from .optim import OptimizerState, optimizer_step

BOS, EOS, WB, UNK = "<s>", "</s>", "<wb>", "<unk>"
SPECIALS = (BOS, EOS, WB, UNK)


@dataclass
class TokenVocab:
    """Ordered token list; the four special tokens come first."""

    tokens: list[str]
    granularity: str = "phone"  # "phone" | "word"

    def __post_init__(self):
        for sp in SPECIALS:
            if self.tokens.count(sp) != 1:
                raise ValueError(f"special token {sp} must appear exactly once")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab tokens must be unique")
        if self.granularity not in ("phone", "word"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        self._index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, units: list[str], granularity: str = "phone") -> "TokenVocab":
        return cls(list(SPECIALS) + list(units), granularity)

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._index.get(token, self._index[UNK])

    @property
    def bos(self) -> int:
        return self._index[BOS]

    @property
    def eos(self) -> int:
        return self._index[EOS]

    @property
    def wb(self) -> int:
        return self._index[WB]


def word_tokens(word: str, phones: list[str], granularity: str) -> list[str]:
    """Token contribution of one word to the LM stream."""
    if granularity == "word":
        return [word]
    return list(phones) + [WB]


@dataclass
class LmConfig:
    embed_dim: int = 64
    lstm1_units: int = 128
    lstm2_units: int = 64


def build_lm(vocab: TokenVocab, cfg: LmConfig, seed: int) -> Parameters:
    """Embedding, two stacked LSTM layers, projection back to the vocab."""
    v = len(vocab)
    if v < 3:
        raise ValueError(f"vocab of {v} tokens is too small")
    rng = np.random.default_rng(seed)
    params = Parameters()
    params.add("embed.W", ad.xavier_uniform(rng, (v, cfg.embed_dim), fan_in=v, fan_out=cfg.embed_dim))
    for name, (d_in, d_out) in (("lstm1", (cfg.embed_dim, cfg.lstm1_units)),
                                ("lstm2", (cfg.lstm1_units, cfg.lstm2_units))):
        params.add(f"{name}.W_ih", ad.xavier_uniform(rng, (4 * d_out, d_in), fan_in=d_in, fan_out=d_out))
        params.add(f"{name}.W_hh", ad.xavier_uniform(rng, (4 * d_out, d_out), fan_in=d_out, fan_out=d_out))
        bias = np.zeros(4 * d_out)
        bias[d_out:2 * d_out] = 1.0  # forget gate starts open
        params.add(f"{name}.b", bias)
    params.add("out.W", ad.he_uniform(rng, (v, cfg.lstm2_units), fan_in=cfg.lstm2_units))
    params.add("out.b", np.zeros(v))
    return params


# ---------------------------------------------------------------------------
# graph-free path (scoring / decoding)
# ---------------------------------------------------------------------------

class LmState:
    """Recurrent state after some token prefix."""

    __slots__ = ("h1", "c1", "h2", "c2")

    def __init__(self, h1, c1, h2, c2):
        self.h1, self.c1, self.h2, self.c2 = h1, c1, h2, c2


def lm_initial_state(params: Parameters) -> LmState:
    k1, k2 = params["lstm1.W_hh"].data.shape[1], params["lstm2.W_hh"].data.shape[1]
    return LmState(np.zeros(k1), np.zeros(k1), np.zeros(k2), np.zeros(k2))


def lm_step(params: Parameters, state: LmState, token_index: int) -> tuple[LmState, np.ndarray]:
    """Advance one token; returns the new state and next-token log-probs."""
    x = params["embed.W"].data[token_index]
    pre1 = (params["lstm1.W_ih"].data @ x + params["lstm1.W_hh"].data @ state.h1
            + params["lstm1.b"].data)
    _, _, _, o1, c1, tanh_c1 = ad.lstm_gates(pre1, state.c1)
    h1 = o1 * tanh_c1
    pre2 = (params["lstm2.W_ih"].data @ h1 + params["lstm2.W_hh"].data @ state.h2
            + params["lstm2.b"].data)
    _, _, _, o2, c2, tanh_c2 = ad.lstm_gates(pre2, state.c2)
    h2 = o2 * tanh_c2
    logits = params["out.W"].data @ h2 + params["out.b"].data
    return LmState(h1, c1, h2, c2), ad.log_softmax_values(logits)


def score_tokens(params: Parameters, state: LmState, last_index: int,
                 token_indices: list[int]) -> tuple[LmState, int, float]:
    """Score a token run given (state, previous token); natural-log total."""
    total = 0.0
    for idx in token_indices:
        state, log_probs = lm_step(params, state, last_index)
        total += float(log_probs[idx])
        last_index = idx
    return state, last_index, total


def lm_score(params: Parameters, tokens: list[str], vocab: TokenVocab) -> float:
    """Total natural-log probability of a sequence wrapped in <s> ... </s>."""
    if len(tokens) == 0:
        raise ValueError("token sequence must be non-empty")
    indices = [vocab.index(t) for t in tokens] + [vocab.eos]
    state = lm_initial_state(params)
    _, _, total = score_tokens(params, state, vocab.bos, indices)
    return total


def sequence_logprob_end(params: Parameters, state: LmState, last_index: int,
                         vocab: TokenVocab) -> float:
    """Log-probability of </s> as the next token; state is not advanced."""
    _, log_probs = lm_step(params, state, last_index)
    return float(log_probs[vocab.eos])


# ---------------------------------------------------------------------------
# training (autodiff path)
# ---------------------------------------------------------------------------

def sentence_loss(params: Parameters, token_indices: list[int], vocab: TokenVocab) -> Tensor:
    """Teacher-forced mean next-token cross-entropy for one sentence."""
    inputs = np.array([vocab.bos] + token_indices, dtype=np.int64)
    targets = np.array(token_indices + [vocab.eos], dtype=np.int64)
    embedded = ad.gather_rows(params["embed.W"], inputs)
    h1 = ad.lstm_layer(embedded, params["lstm1.W_ih"], params["lstm1.W_hh"], params["lstm1.b"])
    h2 = ad.lstm_layer(h1, params["lstm2.W_ih"], params["lstm2.W_hh"], params["lstm2.b"])
    logits = ad.dense(h2, params["out.W"], params["out.b"])
    picked = ad.take_per_row(ad.log_softmax(logits), targets)
    return ad.scale(ad.tsum(picked), -1.0 / len(targets))


def lm_train(params: Parameters, corpus: list[list[str]], vocab: TokenVocab,
             epochs: int, optimizer: OptimizerState | None = None) -> list[float]:
    """Train in corpus order; returns mean per-token loss per epoch."""
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    optimizer = optimizer or OptimizerState(kind="adam", learning_rate=1e-3)
    indexed = [[vocab.index(t) for t in sent] for sent in corpus]
    trace = []
    for _ in range(epochs):
        total_loss = 0.0
        total_tokens = 0
        for sent in indexed:
            loss = sentence_loss(params, sent, vocab)
            weight = len(sent) + 1
            total_loss += float(loss.data) * weight
            total_tokens += weight
            params.zero_grad()
            ad.backward(loss)
            optimizer_step(optimizer, params)
        trace.append(total_loss / total_tokens)
    return trace


def corpus_loss(params: Parameters, corpus: list[list[str]], vocab: TokenVocab) -> float:
    """Mean per-token cross-entropy without updating parameters."""
    total, count = 0.0, 0
    for sent in corpus:
        total += -lm_score(params, sent, vocab)
        count += len(sent) + 1
    if count == 0:
        raise ValueError("corpus has no tokens")
    return total / count


def perplexity(params: Parameters, corpus: list[list[str]], vocab: TokenVocab) -> float:
    """exp of the mean negative log-likelihood per predicted token."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    return float(np.exp(corpus_loss(params, corpus, vocab)))
