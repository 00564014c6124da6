"""Two-layer LSTM language model over phone or word tokens.

A sentence is scored as <s> t1 ... tn </s>; in phone mode every word
contributes its phones followed by the <wb> boundary token, so the model
learns both phonotactics and word transitions. Training runs each layer
over the whole sentence as one autodiff node (`autodiff.lstm_layer`);
scoring and decoding run on plain arrays without a graph, stepping a stack
of states held as one [n, S] matrix (`lm_step`). Both paths step through one
gate function, `autodiff.lstm_gates`.

A search state is one row of S = 2 k1 + 2 k2 columns, `h1 c1 h2 c2` for
the two layers' hidden and cell vectors, in the weights' dtype. Only this
module reads the columns; callers gather, stack and store whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Layout, Parameters, Tensor
from .optim import OptimizerState, optimizer_step

BOS, EOS, WB, UNK = "<s>", "</s>", "<wb>", "<unk>"
SPECIALS = (BOS, EOS, WB, UNK)
GRANULARITIES = ("phone", "word")


@dataclass
class TokenVocab:
    """Ordered token list; the four special tokens come first."""

    tokens: list[str]
    granularity: str = "phone"  # one of GRANULARITIES

    def __post_init__(self):
        for sp in SPECIALS:
            if self.tokens.count(sp) != 1:
                raise ValueError(f"special token {sp} must appear exactly once")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab tokens must be unique")
        if self.granularity not in GRANULARITIES:
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


def word_tokens(word: str, phones: list[str], granularity: str) -> list[str]:
    """Token contribution of one word to the LM stream."""
    if granularity == "word":
        return [word]
    return list(phones) + [WB]


@dataclass
class LmConfig:
    embed_dim: int = 64
    lstm1_units: int = 64
    lstm2_units: int = 64

    def __post_init__(self):
        for name in ("embed_dim", "lstm1_units", "lstm2_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def lm_layout(vocab: TokenVocab, cfg: LmConfig) -> Layout:
    """Name, shape and init fan of every LM tensor, in draw order."""
    v = len(vocab)
    if v < 3:
        raise ValueError(f"vocab of {v} tokens is too small")
    layout = [("embed.W", (v, cfg.embed_dim), v + cfg.embed_dim)]
    for name, d_in, d_out in (("lstm1", cfg.embed_dim, cfg.lstm1_units),
                              ("lstm2", cfg.lstm1_units, cfg.lstm2_units)):
        layout += [(f"{name}.W_ih", (4 * d_out, d_in), d_in + d_out),
                   (f"{name}.W_hh", (4 * d_out, d_out), d_out + d_out),
                   (f"{name}.b", (4 * d_out,), 0)]
    return layout + [("out.W", (v, cfg.lstm2_units), cfg.lstm2_units), ("out.b", (v,), 0)]


def build_lm(vocab: TokenVocab, cfg: LmConfig, seed: int) -> Parameters:
    """Embedding, two stacked LSTM layers, projection back to the vocab."""
    params = Parameters.draw(lm_layout(vocab, cfg), np.random.default_rng(seed))
    for name, k in (("lstm1", cfg.lstm1_units), ("lstm2", cfg.lstm2_units)):
        params[f"{name}.b"].data[k:2 * k] = 1.0  # forget gate starts open
    return params


# ---------------------------------------------------------------------------
# graph-free path (scoring / decoding)
# ---------------------------------------------------------------------------

# A width that OpenBLAS's x86-64 GEMM kernels take in whole blocks, in
# float32 and float64 alike (measured for 2 to 400 rows).
COLUMN_BLOCK = 16


@dataclass(frozen=True)
class LmWeights:
    """The LM's weights laid out for stepping [n, S] state rows.

    The first layer's input projection is tabulated per token (embedding
    row times W_ih), and every other matrix is stored transposed and
    contiguous, so each product is one row-major GEMM. Every matrix and
    bias is widened with zero columns to a multiple of COLUMN_BLOCK (the
    products' extra columns are dropped): OpenBLAS rounds a ragged last
    block of columns differently as the row count changes, and full blocks
    keep each row's results independent of the rows beside it. Build it
    once per fixed set of parameters with `from_params`; it keeps their
    dtype.
    """

    token_in1: np.ndarray  # [V, 4 k1], widened
    hh1: np.ndarray  # [k1, 4 k1], widened
    b1: np.ndarray
    ih2: np.ndarray  # [k1, 4 k2], widened
    hh2: np.ndarray  # [k2, 4 k2], widened
    b2: np.ndarray
    out: np.ndarray  # [k2, V], widened
    out_b: np.ndarray

    @classmethod
    def from_params(cls, params: Parameters) -> "LmWeights":
        def widened(a):
            width = -(-a.shape[-1] // COLUMN_BLOCK) * COLUMN_BLOCK
            out = np.zeros(a.shape[:-1] + (width,), dtype=a.dtype)
            out[..., :a.shape[-1]] = a
            return out

        def t(name):
            return widened(params[name].data.T)

        def b(name):
            return widened(params[name].data)

        return cls(widened(params["embed.W"].data @ params["lstm1.W_ih"].data.T),
                   t("lstm1.W_hh"), b("lstm1.b"), t("lstm2.W_ih"), t("lstm2.W_hh"), b("lstm2.b"),
                   t("out.W"), b("out.b"))


def lm_initial_state(weights: LmWeights) -> np.ndarray:
    """One row of zero state, [1, S], in the weights' dtype."""
    k1, k2 = weights.hh1.shape[0], weights.hh2.shape[0]
    return np.zeros((1, 2 * k1 + 2 * k2), dtype=weights.hh1.dtype)


def _rows_times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix through GEMM whatever the row count.

    numpy multiplies a single row with GEMV, which rounds differently from
    the GEMM that several rows take, so a single row goes in twice.
    """
    if len(rows) == 1:
        return (np.concatenate((rows, rows)) @ matrix)[:1]
    return rows @ matrix


def lm_step(weights: LmWeights, state: np.ndarray, token_indices) -> tuple[np.ndarray, np.ndarray]:
    """Advance every [n, S] state row by its token; returns the new rows and [n, V] log-probs.

    A row's results do not depend on the other rows (see `_rows_times`, and
    `LmWeights` for the columns), so a search scores a history alike
    whatever else steps with it.
    """
    k1, k2 = weights.hh1.shape[0], weights.hh2.shape[0]
    h1, c1 = state[:, :k1], state[:, k1:2 * k1]
    h2, c2 = state[:, 2 * k1:2 * k1 + k2], state[:, 2 * k1 + k2:]
    pre1 = weights.token_in1[token_indices] + _rows_times(h1, weights.hh1) + weights.b1
    _, _, _, o1, c1, tanh_c1 = ad.lstm_gates(pre1[:, :4 * k1], c1)
    h1 = o1 * tanh_c1
    pre2 = _rows_times(h1, weights.ih2) + _rows_times(h2, weights.hh2) + weights.b2
    _, _, _, o2, c2, tanh_c2 = ad.lstm_gates(pre2[:, :4 * k2], c2)
    h2 = o2 * tanh_c2
    logits = (_rows_times(h2, weights.out) + weights.out_b)[:, :len(weights.token_in1)]
    return np.concatenate((h1, c1, h2, c2), axis=1), ad.log_softmax_values(logits)


def pad_runs(runs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged token runs as a zero-padded [n, L] index matrix and the [n] run lengths."""
    lengths = np.array([len(run) for run in runs], dtype=np.int64)
    tokens = np.zeros((len(runs), int(lengths.max(initial=0))), dtype=np.int64)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = [t for run in runs for t in run]
    return tokens, lengths


def score_tokens(weights: LmWeights, state: np.ndarray, last_index: np.ndarray,
                 tokens: np.ndarray, lengths: np.ndarray, totals: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score one token run per state row, given each row's previous token.

    Row i's run is tokens[i, :lengths[i]] (see `pad_runs`); the columns
    past it are not read. The rows advance together, one `lm_step` per
    token position, and a row drops out when its run ends. Returns the
    advanced states (in the weights' dtype), each row's last token and its
    natural-log total, summed in float64 onto `totals` (zeros when None);
    a row with an empty run comes back unchanged.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")  # rows still stepping stay a prefix
    tokens = np.asarray(tokens, dtype=np.int64)[order]
    rows = state[order]
    last = np.asarray(last_index, dtype=np.int64)[order]
    totals = np.zeros(len(lengths)) if totals is None else np.array(totals, dtype=np.float64)[order]
    active = np.count_nonzero(lengths[:, None] > np.arange(lengths.max(initial=0)), axis=0)
    row_ids = np.arange(len(lengths))
    for pos, m in enumerate(active.tolist()):
        rows[:m], log_probs = lm_step(weights, rows[:m], last[:m])
        last[:m] = tokens[:m, pos]
        totals[:m] += log_probs[row_ids[:m], last[:m]]
    back = np.argsort(order)
    return rows[back], last[back], totals[back]


def lm_score(params: Parameters, tokens: list[str], vocab: TokenVocab) -> float:
    """Total natural-log probability of a sequence wrapped in <s> ... </s>."""
    if len(tokens) == 0:
        raise ValueError("token sequence must be non-empty")
    weights = LmWeights.from_params(params)
    _, _, totals = score_tokens(weights, lm_initial_state(weights), np.array([vocab.bos]),
                                *pad_runs([[vocab.index(t) for t in tokens] + [vocab.eos]]))
    return float(totals[0])


def sequence_logprob_end(weights: LmWeights, state: np.ndarray, last_index: np.ndarray,
                         vocab: TokenVocab) -> np.ndarray:
    """Per-row log-probability of </s> as the next token; the states are not advanced."""
    _, log_probs = lm_step(weights, state, last_index)
    return log_probs[:, vocab.eos]


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
    optimizer = optimizer or OptimizerState()
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
    """Mean per-token cross-entropy without updating parameters.

    Every sentence is one row of a single `score_tokens` run from the
    initial state; a row scores alike whatever rows step with it, so each
    total is that of `lm_score`, and they are summed in corpus order.
    """
    runs = [[vocab.index(t) for t in sent] for sent in corpus]
    if not runs:
        raise ValueError("corpus has no tokens")
    if not all(runs):
        raise ValueError("token sequence must be non-empty")
    weights = LmWeights.from_params(params)
    n = len(runs)
    tokens, lengths = pad_runs([run + [vocab.eos] for run in runs])
    _, _, totals = score_tokens(weights, np.repeat(lm_initial_state(weights), n, axis=0),
                                np.full(n, vocab.bos), tokens, lengths)
    total = 0.0
    for logprob in totals.tolist():  # not sum(), which compensates from Python 3.12
        total += -logprob
    return total / sum(len(run) + 1 for run in runs)


def perplexity(params: Parameters, corpus: list[list[str]], vocab: TokenVocab) -> float:
    """exp of the mean negative log-likelihood per predicted token."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    return float(np.exp(corpus_loss(params, corpus, vocab)))
