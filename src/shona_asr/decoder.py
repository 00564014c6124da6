"""Word-sequence search over CTC log-posteriors with language-model fusion.

beam_decode runs a lexicon-constrained CTC prefix beam search (Hannun et
al. 2014, arXiv:1408.2873): hypotheses are (committed words, position in
the pronunciation trie) pairs carrying the usual ending-in-blank /
ending-in-non-blank log-probability split. Completed words add a weighted
language-model increment and an optional per-word bonus, so the returned
transcript maximizes

    log P(X|W) + lm_weight * log P(W) + word_bonus * |W|

which reduces to the plain acoustic-times-prior product at lm_weight=1,
word_bonus=0. The test oracles (`tests/oracles.py`) check it against a
brute-force enumeration of the same objective on tiny instances and a
dict-of-hypotheses reference search on larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .acoustic import PosteriorGrid
from .autodiff import Parameters
from .ctc import ctc_forward_logprob
from .lexicon import Lexicon
from .lm import (LmWeights, TokenVocab, lm_initial_state, score_tokens, sequence_logprob_end,
                 word_tokens)

NEG_INF = float("-inf")


@dataclass
class DecodeStats:
    """Counts of one search, or summed over several; deterministic for given inputs."""

    frames: int = 0
    candidates_generated: int = 0  # distinct (history, trie node) candidates, over all frames
    candidates_pruned: int = 0  # of those, the ones cut from the beam
    lm_step_calls: int = 0  # batched LM steps: one per token position of a batch
    lm_rows_stepped: int = 0  # state rows advanced over those steps
    lm_cache_hits: int = 0  # word extensions of a history that were already scored

    def add(self, other: "DecodeStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class Transcript:
    words: list[str]
    score: float = NEG_INF
    # False when no hypothesis at a word boundary survived, or when the grid
    # is too short for any word (the empty transcript is then all that fits)
    complete: bool = True
    stats: DecodeStats = field(default_factory=DecodeStats)

    def text(self) -> str:
        return " ".join(self.words)


class _LmFusion:
    """The word histories of one search, with their LM totals and LM states.

    A history is an id into `words` (its word tuple) and into the rows of
    `lm_total`, `length`, `last` and `state`, which grow by doubling.
    `extend` maps (history, word) pairs to history ids; the new ones are
    scored together by one `score_tokens` run over their parents' state
    rows. A state row is opaque here: `lm` alone knows its columns, and
    `state` is one [n, S] matrix in the LM weights' dtype. The totals are
    float64. Without a language model the totals stay zero and nothing is
    stepped.
    """

    def __init__(self, lexicon: Lexicon, params: Parameters | None, vocab: TokenVocab | None,
                 stats: DecodeStats):
        self.weights = None if params is None else LmWeights.from_params(params)
        self.vocab, self.stats = vocab, stats
        self.names = lexicon.flat.words
        self.words: list[tuple[str, ...]] = [()]
        self.children: dict[int, int] = {}  # parent history * len(names) + word -> history
        self.lm_total = np.zeros(1)
        self.length = np.zeros(1, dtype=np.int64)
        if params is not None:
            self.tokens = [[vocab.index(t) for t in word_tokens(w, lexicon.phone_symbols(w),
                                                                vocab.granularity)]
                           for w in self.names]
            self.state = lm_initial_state(self.weights)
            self.last = np.array([vocab.bos], dtype=np.int64)

    def _reserve(self, n: int) -> None:
        """Grow every per-history array to hold at least n rows."""
        if n <= len(self.lm_total):
            return
        cap = max(n, 2 * len(self.lm_total))

        def grown(a):
            out = np.zeros((cap,) + a.shape[1:], dtype=a.dtype)
            out[:len(a)] = a
            return out

        self.lm_total, self.length = grown(self.lm_total), grown(self.length)
        if self.weights is not None:
            self.last, self.state = grown(self.last), grown(self.state)

    def extend(self, hists: np.ndarray, word_ids: np.ndarray) -> np.ndarray:
        """History id of each (history, word) pair, scoring the pairs not seen before."""
        pairs, inverse = np.unique(hists * len(self.names) + word_ids, return_inverse=True)
        ids = np.array([self.children.get(code, -1) for code in pairs.tolist()], dtype=np.int64)
        new = np.flatnonzero(ids < 0)
        self.stats.lm_cache_hits += len(pairs) - len(new)
        if len(new) == 0:
            return ids[inverse]
        parents, words = np.divmod(pairs[new], len(self.names))
        fresh = np.arange(len(self.words), len(self.words) + len(new))
        for code, parent, word, h in zip(pairs[new].tolist(), parents.tolist(), words.tolist(),
                                         fresh.tolist()):
            self.words.append(self.words[parent] + (self.names[word],))
            self.children[code] = h
        self._reserve(len(self.words))
        self.length[fresh] = self.length[parents] + 1
        if self.weights is not None:
            runs = [self.tokens[w] for w in words.tolist()]
            state, last, inc = score_tokens(self.weights, self.state[parents], self.last[parents],
                                            runs)
            self.stats.lm_step_calls += max(map(len, runs))
            self.stats.lm_rows_stepped += sum(map(len, runs))
            self.lm_total[fresh] = self.lm_total[parents] + inc
            self.last[fresh] = last
            self.state[fresh] = state
        ids[new] = fresh
        return ids[inverse]

    def final_totals(self, hists: list[int]) -> np.ndarray:
        """Committed-words log-prob plus the end-of-sequence transition, per history."""
        hists = np.array(hists, dtype=np.int64)
        if self.weights is None or len(hists) == 0:
            return np.zeros(len(hists))
        self.stats.lm_step_calls += 1
        self.stats.lm_rows_stepped += len(hists)
        return self.lm_total[hists] + sequence_logprob_end(self.weights, self.state[hists],
                                                           self.last[hists], self.vocab)


def _csr_gather(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row position, entry index) of every entry start[r]:start[r + 1] of each row r."""
    first, counts = start[rows], start[rows + 1] - start[rows]
    owner = np.repeat(np.arange(len(rows)), counts)
    offsets = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, first[owner] + offsets


def _prune(score: np.ndarray, hist: np.ndarray, node: np.ndarray,
           hist_words: list[tuple[str, ...]], width: int) -> np.ndarray:
    """Indices of the `width` best candidates.

    Candidates tied at the cut are taken in (words, trie node) order; node
    ids are numbered in phone-path order (see `FlatTrie`).
    """
    n = len(score)
    if n <= width:
        return np.arange(n)
    cut = np.partition(score, n - width)[n - width]
    above = np.flatnonzero(score > cut)
    tied = np.flatnonzero(score == cut)
    need = width - len(above)
    if len(tied) > need:
        tied = np.array(sorted(tied.tolist(), key=lambda i: (hist_words[hist[i]], node[i]))[:need],
                        dtype=np.int64)
    return np.concatenate((above, tied))


def beam_decode(grid: PosteriorGrid | np.ndarray, lexicon: Lexicon,
                lm_params: Parameters | None = None, vocab: TokenVocab | None = None,
                lm_weight: float = 1.0, word_bonus: float = 0.0,
                beam_width: int = 16) -> Transcript:
    """Lexicon-constrained CTC prefix beam search with LM fusion over log-posteriors.

    The beam is held as arrays (history id, trie node, p_blank, p_nonblank);
    each frame expands every hypothesis along its precomputed trie arcs
    (`Lexicon.flat`) in one gather, and the words completed in that frame
    are scored by one batched LM run.
    """
    log_y = grid.log_probs if isinstance(grid, PosteriorGrid) else np.asarray(grid)
    if log_y.shape[0] < 1:
        raise ValueError("posterior grid is empty")
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")
    if not (np.isfinite(lm_weight) and np.isfinite(word_bonus)):
        raise ValueError(f"lm_weight and word_bonus must be finite, got {lm_weight}, {word_bonus}")
    blank = log_y.shape[1] - 1
    fused = lm_params is not None and lm_weight != 0.0
    if fused and vocab is None:
        raise ValueError("vocab required when fusing a language model")

    stats = DecodeStats(frames=log_y.shape[0])
    trie = lexicon.flat
    n_nodes = len(trie)
    hists = _LmFusion(lexicon, lm_params if fused else None, vocab, stats)
    hist = np.zeros(1, dtype=np.int64)
    node = np.zeros(1, dtype=np.int64)  # the root
    pb, pnb = np.zeros(1), np.full(1, NEG_INF)

    for t in range(log_y.shape[0]):
        ly = log_y[t]
        total = np.logaddexp(pb, pnb)
        last = trie.last_phone[node]
        # Each hypothesis keeps its own key: a blank frame stays on the prefix,
        # and a repeat of the last phone collapses into it.
        own_pnb = np.where((last >= 0) & (pnb > NEG_INF), pnb + ly[last], NEG_INF)
        # Every arc: deeper into the current word, or finish a word and enter
        # the next one. A phone equal to the last one needs a blank in between.
        owner, arc = _csr_gather(trie.arc_start, node)
        phone = trie.arc_phone[arc]
        src = np.where(phone == last[owner], pb[owner], total[owner])
        live = src > NEG_INF
        owner, arc, phone = owner[live], arc[live], phone[live]
        arc_pnb = src[live] + ly[phone]
        arc_hist = hist[owner]
        word = trie.arc_word[arc]
        ends = word >= 0
        if ends.any():
            arc_hist[ends] = hists.extend(arc_hist[ends], word[ends])
        # Merge candidates that share a key; a key comes at most from its own
        # hypothesis and from one arc, so this matches pairwise accumulation.
        keys = np.concatenate((hist * n_nodes + node, arc_hist * n_nodes + trie.arc_dest[arc]))
        cand_pb = np.concatenate((total + ly[blank], np.full(len(arc), NEG_INF)))
        cand_pnb = np.concatenate((own_pnb, arc_pnb))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        groups = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        cand_hist, cand_node = np.divmod(keys[groups], n_nodes)
        cand_pb = np.logaddexp.reduceat(cand_pb[order], groups)
        cand_pnb = np.logaddexp.reduceat(cand_pnb[order], groups)
        score = (np.logaddexp(cand_pb, cand_pnb) + lm_weight * hists.lm_total[cand_hist]
                 + word_bonus * hists.length[cand_hist])
        keep = _prune(score, cand_hist, cand_node, hists.words, beam_width)
        stats.candidates_generated += len(groups)
        stats.candidates_pruned += len(groups) - len(keep)
        hist, node, pb, pnb = cand_hist[keep], cand_node[keep], cand_pb[keep], cand_pnb[keep]

    # Finalize: hypotheses must end at a word boundary. The finalists'
    # acoustic terms are rescored exactly by one forward recursion over
    # their shared phone prefixes; pruning can only underestimate the
    # searched scores, so rescoring makes the returned score the true
    # objective of the returned words.
    alive = np.logaddexp(pb, pnb) > NEG_INF
    hist, node = hist[alive], node[alive]
    finalists = set(hist[node == 0].tolist())
    owner, entry = _csr_gather(trie.word_start, node)
    finalists.update(hists.extend(hist[owner], trie.word_ids[entry]).tolist())
    finalists = sorted(finalists, key=hists.words.__getitem__)
    acoustics = ctc_forward_logprob(
        log_y, [[p for w in hists.words[h] for p in lexicon.pronunciations[w]] for h in finalists],
        blank)
    feasible = [(h, acoustic) for h, acoustic in zip(finalists, acoustics) if acoustic != NEG_INF]
    lm_final = hists.final_totals([h for h, _ in feasible])
    best: tuple[float, int] | None = None
    for (h, acoustic), lm in zip(feasible, lm_final.tolist()):
        score = acoustic + lm_weight * lm + word_bonus * len(hists.words[h])
        if best is None or score > best[0]:
            best = (score, h)
    if best is None:
        return Transcript(words=[], score=NEG_INF, complete=False, stats=stats)
    return Transcript(words=list(hists.words[best[1]]), score=best[0],
                      complete=log_y.shape[0] >= lexicon.min_frames, stats=stats)
