"""Word-sequence search over CTC log-posteriors with language-model fusion.

beam_decode runs a lexicon-constrained CTC prefix beam search: hypotheses
are (committed words, position in the pronunciation trie) pairs carrying
the usual ending-in-blank / ending-in-non-blank log-probability split.
Completed words add a weighted language-model increment and an optional
per-word bonus, so the returned transcript maximizes

    log P(X|W) + lm_weight * log P(W) + word_bonus * |W|

which reduces to the plain acoustic-times-prior product at lm_weight=1,
word_bonus=0. exhaustive_decode computes the same objective by brute
force on guard-railed tiny instances and serves as the search oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustic import PosteriorGrid
from .autodiff import Parameters
from .ctc import ctc_forward_logprob
from .lexicon import Lexicon, TrieNode
from .lm import LmState, TokenVocab, lm_initial_state, score_tokens, sequence_logprob_end, word_tokens

NEG_INF = float("-inf")


@dataclass
class Transcript:
    words: list[str]
    score: float = NEG_INF
    complete: bool = True  # False when no hypothesis survived

    def text(self) -> str:
        return " ".join(self.words)


def _log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class _LmFusion:
    """Incremental LM scoring with per-word-sequence memoization."""

    def __init__(self, params: Parameters, vocab: TokenVocab, lexicon: Lexicon):
        self.params = params
        self.vocab = vocab
        self.lexicon = lexicon
        init = lm_initial_state(params)
        # words-tuple -> (state, last token index, total log-prob so far)
        self.cache: dict[tuple[str, ...], tuple[LmState, int, float]] = {
            (): (init, vocab.bos, 0.0)
        }
        self.end_cache: dict[tuple[str, ...], float] = {}

    def extend(self, words: tuple[str, ...], word: str) -> tuple[str, ...]:
        new_words = words + (word,)
        if new_words not in self.cache:
            state, last, total = self.cache[words]
            tokens = word_tokens(word, self.lexicon.phone_symbols(word), self.vocab.granularity)
            indices = [self.vocab.index(t) for t in tokens]
            state, last, inc = score_tokens(self.params, state, last, indices)
            self.cache[new_words] = (state, last, total + inc)
        return new_words

    def total(self, words: tuple[str, ...]) -> float:
        return self.cache[words][2]

    def final_total(self, words: tuple[str, ...]) -> float:
        """Committed-words log-prob plus the end-of-sequence transition."""
        if words not in self.end_cache:
            state, last, total = self.cache[words]
            self.end_cache[words] = total + sequence_logprob_end(self.params, state, last, self.vocab)
        return self.end_cache[words]


class _NullLm:
    """Stands in when no language model is fused (lm_weight = 0)."""

    def extend(self, words, word):
        return words + (word,)

    def total(self, words):
        return 0.0

    def final_total(self, words):
        return 0.0


def beam_decode(grid: PosteriorGrid | np.ndarray, lexicon: Lexicon,
                lm_params: Parameters | None = None, vocab: TokenVocab | None = None,
                lm_weight: float = 1.0, word_bonus: float = 0.0,
                beam_width: int = 16) -> Transcript:
    """Lexicon-constrained CTC prefix beam search with LM fusion over log-posteriors."""
    log_y = grid.log_probs if isinstance(grid, PosteriorGrid) else np.asarray(grid)
    if log_y.shape[0] < 1:
        raise ValueError("posterior grid is empty")
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    blank = log_y.shape[1] - 1

    if lm_params is not None and lm_weight != 0.0:
        if vocab is None:
            raise ValueError("vocab required when fusing a language model")
        fusion = _LmFusion(lm_params, vocab, lexicon)
    else:
        fusion = _NullLm()

    root = lexicon.root
    # key: (words tuple, trie node); value: [p_blank, p_nonblank]
    beams: dict[tuple[tuple[str, ...], TrieNode], list[float]] = {((), root): [0.0, NEG_INF]}

    def hyp_score(key, pb, pnb):
        words, _ = key
        return _log_add(pb, pnb) + lm_weight * fusion.total(words) + word_bonus * len(words)

    for t in range(log_y.shape[0]):
        ly = log_y[t]
        nxt: dict[tuple[tuple[str, ...], TrieNode], list[float]] = {}

        def bump(key, p_b=NEG_INF, p_nb=NEG_INF):
            entry = nxt.get(key)
            if entry is None:
                nxt[key] = [p_b, p_nb]
            else:
                entry[0] = _log_add(entry[0], p_b)
                entry[1] = _log_add(entry[1], p_nb)

        for key, (pb, pnb) in beams.items():
            words, node = key
            total = _log_add(pb, pnb)
            last = node.phone_path[-1] if node.phone_path else None
            # stay on this prefix via a blank frame
            bump(key, p_b=total + ly[blank])
            # stay via a repeated emission of the last phone (collapses)
            if last is not None and pnb != NEG_INF:
                bump(key, p_nb=pnb + ly[last])
            # go deeper in the current word
            for k, child in node.children.items():
                src = pb if k == last else total
                if src != NEG_INF:
                    bump((words, child), p_nb=src + ly[k])
            # finish a word here and start the next one
            for word in node.words:
                new_words = fusion.extend(words, word)
                for k, child in root.children.items():
                    src = pb if k == last else total
                    if src != NEG_INF:
                        bump((new_words, child), p_nb=src + ly[k])

        ranked = sorted(nxt.items(),
                        key=lambda item: (-hyp_score(item[0], *item[1]),
                                          item[0][0], item[0][1].phone_path))
        beams = dict(ranked[:beam_width])

    # Finalize: hypotheses must end at a word boundary. Each finalist's
    # acoustic term is rescored exactly with the full forward recursion;
    # pruning can only underestimate the searched scores, so rescoring makes
    # the returned score the true objective of the returned words.
    finalists: set[tuple[str, ...]] = set()
    for (words, node), (pb, pnb) in beams.items():
        if _log_add(pb, pnb) == NEG_INF:
            continue
        if node is root:
            finalists.add(words)
        finalists.update(fusion.extend(words, w) for w in node.words)
    best: tuple[float, tuple[str, ...]] | None = None
    for cand in sorted(finalists):
        phones = [p for w in cand for p in lexicon.pronunciations[w]]
        acoustic = ctc_forward_logprob(log_y, phones, blank)
        if acoustic == NEG_INF:
            continue
        score = acoustic + lm_weight * fusion.final_total(cand) + word_bonus * len(cand)
        if best is None or score > best[0]:
            best = (score, cand)
    if best is None:
        return Transcript(words=[], score=NEG_INF, complete=False)
    return Transcript(words=list(best[1]), score=best[0])


def exhaustive_decode(grid: PosteriorGrid | np.ndarray, lexicon: Lexicon,
                      lm_params: Parameters | None = None, vocab: TokenVocab | None = None,
                      lm_weight: float = 1.0, word_bonus: float = 0.0,
                      max_words: int = 3) -> Transcript:
    """Enumerate every word sequence up to max_words and score it exactly.

    Guard rails keep this to oracle-sized problems: at most 5 lexicon
    words, 8 grid rows, and 3-word sequences.
    """
    log_grid = grid.log_probs if isinstance(grid, PosteriorGrid) else np.asarray(grid)
    t_frames = log_grid.shape[0]
    if len(lexicon) > 5 or t_frames > 8 or max_words > 3:
        raise ValueError(f"guard rail: lexicon<=5, frames<=8, max_words<=3; "
                         f"got {len(lexicon)}, {t_frames}, {max_words}")
    blank = log_grid.shape[1] - 1
    words = lexicon.words()

    use_lm = lm_params is not None and lm_weight != 0.0

    def lm_total(seq: tuple[str, ...]) -> float:
        if not use_lm:
            return 0.0
        state = lm_initial_state(lm_params)
        last = vocab.bos
        total = 0.0
        for w in seq:
            tokens = word_tokens(w, lexicon.phone_symbols(w), vocab.granularity)
            state, last, inc = score_tokens(lm_params, state, last, [vocab.index(tk) for tk in tokens])
            total += inc
        return total + sequence_logprob_end(lm_params, state, last, vocab)

    best: tuple[float, tuple[str, ...]] | None = None
    stack: list[tuple[str, ...]] = [()]
    while stack:
        seq = stack.pop()
        phones = [p for w in seq for p in lexicon.pronunciations[w]]
        acoustic = ctc_forward_logprob(log_grid, phones, blank)
        if acoustic != NEG_INF:
            score = acoustic + lm_weight * lm_total(seq) + word_bonus * len(seq)
            if best is None or score > best[0] or (score == best[0] and seq < best[1]):
                best = (score, seq)
        if len(seq) < max_words:
            stack.extend(seq + (w,) for w in words)
    if best is None or best[0] == NEG_INF:
        return Transcript(words=[], score=NEG_INF, complete=False)
    return Transcript(words=list(best[1]), score=best[0])
