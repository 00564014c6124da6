"""Independent reference implementations used only by the tests.

Each oracle takes the dumbest correct route: O(N^2) DFT matrices, 4-loop
convolution, exhaustive path enumeration for the sequence loss, plain
recursion for edit distance. They deliberately share no code with the
package internals they check, with one exception: the two search
oracles (the exhaustive decoder and the reference beam search) score
words with the package's LM step and exact CTC forward recursion, which
have oracles of their own, so that they check only the search.
"""

import itertools
import math

import numpy as np

from shona_asr.ctc import ctc_forward_logprob
from shona_asr.decoder import Transcript
from shona_asr.lm import (LmWeights, lm_initial_state, score_tokens, sequence_logprob_end,
                          word_tokens)


def naive_dft_magnitude(signal: np.ndarray, n_fft: int) -> np.ndarray:
    """|DFT| of a zero-padded signal via the explicit O(N^2) matrix."""
    x = np.zeros(n_fft)
    x[:min(len(signal), n_fft)] = signal[:n_fft]
    n = np.arange(n_fft)
    k = np.arange(n_fft // 2 + 1)[:, None]
    real = np.cos(-2.0 * np.pi * k * n / n_fft) @ x
    imag = np.sin(-2.0 * np.pi * k * n / n_fft) @ x
    return np.sqrt(real ** 2 + imag ** 2)


def naive_mel_energies(signal: np.ndarray, sample_rate: int, n_fft: int,
                       n_mels: int, fmin: float, fmax: float,
                       frame_len: int, hop: int, pre_emphasis: float) -> np.ndarray:
    """Mel filterbank energies from first principles, one frame at a time."""
    emphasized = np.concatenate(([signal[0]], signal[1:] - pre_emphasis * signal[:-1]))
    n_frames = 1 + (len(emphasized) - frame_len) // hop
    window = np.array([0.54 - 0.46 * math.cos(2 * math.pi * i / (frame_len - 1))
                       for i in range(frame_len)])

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    corners = [imel(mel(fmin) + (mel(fmax) - mel(fmin)) * i / (n_mels + 1))
               for i in range(n_mels + 2)]
    bin_freqs = [k * sample_rate / n_fft for k in range(n_fft // 2 + 1)]
    weights = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = corners[m], corners[m + 1], corners[m + 2]
        for k, f in enumerate(bin_freqs):
            if lo <= f <= center:
                weights[m, k] = (f - lo) / (center - lo)
            elif center < f <= hi:
                weights[m, k] = (hi - f) / (hi - center)

    out = np.zeros((n_frames, n_mels))
    for t in range(n_frames):
        frame = emphasized[t * hop:t * hop + frame_len] * window
        out[t] = weights @ naive_dft_magnitude(frame, n_fft)
    return out


def naive_deltas(c: np.ndarray, window: int) -> np.ndarray:
    """Element-by-element evaluation of the regression-delta formula."""
    t_frames, dim = c.shape
    out = np.zeros_like(c)
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    for t in range(t_frames):
        for d in range(dim):
            acc = 0.0
            for n in range(1, window + 1):
                ahead = c[min(t + n, t_frames - 1), d]
                behind = c[max(t - n, 0), d]
                acc += n * (ahead - behind)
            out[t, d] = acc / denom
    return out


def naive_conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation with four explicit loops."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = bias[co]
                for ci in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            ii, jj = i + di - ph, j + dj - pw
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += kernels[co, ci, di, dj] * x[ci, ii, jj]
                out[co, i, j] = acc
    return out


def reference_max_pool2d(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 stride-2 max pool of a [C, H, W] array and its input gradient.

    Each window's four elements are gathered in row-major order; argmax
    picks the first maximum, which gets the upstream gradient g. A trailing
    odd row or column is dropped and gets no gradient. Returns (out, dx).
    """
    c, h, w = x.shape
    oh, ow = h // 2, w // 2
    crop = x[:, :oh * 2, :ow * 2]
    windows = crop.reshape(c, oh, 2, ow, 2).transpose(0, 1, 3, 2, 4).reshape(c, oh, ow, 4)
    argmax = windows.argmax(axis=3)
    out = np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]
    dwin = np.zeros_like(windows)
    np.put_along_axis(dwin, argmax[..., None], g[..., None], axis=3)
    dx = np.zeros_like(x)
    dcrop = dwin.reshape(c, oh, ow, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, oh * 2, ow * 2)
    dx[:, :oh * 2, :ow * 2] = dcrop
    return out, dx


def collapse_path(path, blank: int) -> tuple:
    """CTC collapse: merge adjacent repeats, then remove blanks."""
    out = []
    prev = None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return tuple(out)


def brute_force_ctc_logprob(grid: np.ndarray, target) -> float:
    """-log of the summed probability over every path that collapses to target.

    grid holds probabilities, the blank in its last column.
    """
    t_frames, n_classes = grid.shape
    target = tuple(target)
    total = 0.0
    for path in itertools.product(range(n_classes), repeat=t_frames):
        if collapse_path(path, n_classes - 1) == target:
            prob = 1.0
            for t, p in enumerate(path):
                prob *= grid[t, p]
            total += prob
    return float("-inf") if total == 0.0 else math.log(total)


def slice_ctc_loss(log_grid: np.ndarray, target) -> tuple[float, np.ndarray]:
    """The sequence loss and its log-grid gradient from one blank-augmented chain.

    The forward recursion reads the previous row through shifted slices
    (s, s - 1, s - 2) of a row padded with two leading -inf columns, in
    place of predecessor gathers over a state graph; the backward variables
    are the same recursion on the reversed grid and chain.
    """
    t_frames, k = log_grid.shape
    blank = k - 1
    ext = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    ext[1::2] = target

    def alpha_of(lg, chain):
        skip = np.zeros(len(chain), dtype=bool)
        skip[2:] = (chain[2:] != blank) & (chain[2:] != chain[:-2])
        emit = lg[:, chain]
        alpha = np.full((t_frames, len(chain) + 2), -np.inf)
        alpha[0, 2:4] = emit[0, :2]
        for t in range(1, t_frames):
            prev, new = alpha[t - 1], alpha[t, 2:]
            np.logaddexp(prev[2:], prev[1:-1], out=new)
            np.logaddexp(new, prev[:-2], out=new, where=skip)
            new += emit[t]
        return alpha[:, 2:]

    alpha = alpha_of(log_grid, ext)
    beta = alpha_of(log_grid[::-1], ext[::-1])[::-1, ::-1]
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    occupancy = np.exp(alpha + beta - log_grid[:, ext] - log_p)
    grad = np.zeros((t_frames, k))
    np.add.at(grad, (slice(None), ext), occupancy)
    return float(-log_p), -grad


def recursive_edit_distance(ref, hyp) -> int:
    """Plain exponential recursion, no DP table."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    if ref[0] == hyp[0]:
        return recursive_edit_distance(ref[1:], hyp[1:])
    return 1 + min(recursive_edit_distance(ref[1:], hyp),
                   recursive_edit_distance(ref, hyp[1:]),
                   recursive_edit_distance(ref[1:], hyp[1:]))


def all_segmentations(word: str, units) -> list[tuple[str, ...]]:
    """Every way to split a word into inventory spelling units."""
    if not word:
        return [()]
    out = []
    for unit in units:
        if word.startswith(unit):
            out.extend((unit,) + rest for rest in all_segmentations(word[len(unit):], units))
    return out


def greedy_segmentation_oracle(word: str, units) -> tuple[str, ...] | None:
    """The segmentation longest-match greedy must return, by enumeration.

    Among all complete segmentations, picks the one whose unit-length
    sequence is lexicographically greatest (longest first unit, then
    longest second, ...). Returns None when no segmentation exists.
    """
    segs = all_segmentations(word, units)
    if not segs:
        return None
    return max(segs, key=lambda seg: tuple(len(u) for u in seg))


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class _ReferenceLm:
    """Per-word-sequence LM totals, one state row at a time."""

    def __init__(self, params, vocab, lexicon):
        self.weights = LmWeights.from_params(params)
        self.vocab, self.lexicon = vocab, lexicon
        self.cache = {(): (lm_initial_state(self.weights), np.array([vocab.bos]), 0.0)}

    def extend(self, words, word):
        new_words = words + (word,)
        if new_words not in self.cache:
            state, last, total = self.cache[words]
            tokens = word_tokens(word, self.lexicon.phone_symbols(word), self.vocab.granularity)
            state, last, inc = score_tokens(self.weights, state, last,
                                            [[self.vocab.index(t) for t in tokens]])
            self.cache[new_words] = (state, last, total + float(inc[0]))
        return new_words

    def total(self, words):
        return self.cache[words][2]

    def final_total(self, words):
        state, last, total = self.cache[words]
        return total + float(sequence_logprob_end(self.weights, state, last, self.vocab)[0])


class _NoLm:
    def extend(self, words, word):
        return words + (word,)

    def total(self, words):
        return 0.0

    def final_total(self, words):
        return 0.0


def reference_beam_decode(log_y: np.ndarray, lexicon, lm_params=None, vocab=None,
                          lm_weight: float = 1.0, word_bonus: float = 0.0,
                          beam_width: int = 16) -> tuple[list[str], float]:
    """Lexicon-constrained CTC prefix beam search over dicts of hypotheses.

    Hypotheses are keyed by (words, phone path) and walk a dict trie built
    here from lexicon.pronunciations, one candidate at a time; the beam
    keeps the beam_width best by score, ties broken by (words, phone path).
    Returns the best finalist's words and exact objective, or ([], -inf)
    when none survived.
    """
    neg_inf = -math.inf
    blank = log_y.shape[1] - 1
    fusion = (_ReferenceLm(lm_params, vocab, lexicon)
              if lm_params is not None and lm_weight != 0.0 else _NoLm())
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}
    ends: dict[tuple[int, ...], list[str]] = {}
    for word, phones in sorted(lexicon.pronunciations.items()):
        for i in range(1, len(phones) + 1):
            if phones[:i] not in children:
                children[phones[:i]] = []
                children[phones[:i - 1]].append(phones[:i])
        ends.setdefault(phones, []).append(word)
    beams = {((), ()): [0.0, neg_inf]}

    def hyp_score(key, pb, pnb):
        return _log_add(pb, pnb) + lm_weight * fusion.total(key[0]) + word_bonus * len(key[0])

    for t in range(log_y.shape[0]):
        ly = log_y[t]
        nxt = {}

        def bump(key, p_b=neg_inf, p_nb=neg_inf):
            entry = nxt.setdefault(key, [neg_inf, neg_inf])
            entry[0] = _log_add(entry[0], p_b)
            entry[1] = _log_add(entry[1], p_nb)

        for key, (pb, pnb) in beams.items():
            words, node = key
            total = _log_add(pb, pnb)
            last = node[-1] if node else None
            bump(key, p_b=total + ly[blank])
            if last is not None and pnb != neg_inf:
                bump(key, p_nb=pnb + ly[last])
            for child in children[node]:
                src = pb if child[-1] == last else total
                if src != neg_inf:
                    bump((words, child), p_nb=src + ly[child[-1]])
            for word in ends.get(node, []):
                new_words = fusion.extend(words, word)
                for child in children[()]:
                    src = pb if child[-1] == last else total
                    if src != neg_inf:
                        bump((new_words, child), p_nb=src + ly[child[-1]])

        ranked = sorted(nxt.items(), key=lambda item: (-hyp_score(item[0], *item[1]),
                                                       item[0][0], item[0][1]))
        beams = dict(ranked[:beam_width])

    finalists = set()
    for (words, node), (pb, pnb) in beams.items():
        if _log_add(pb, pnb) == neg_inf:
            continue
        if not node:
            finalists.add(words)
        finalists.update(fusion.extend(words, w) for w in ends.get(node, []))
    best = None
    for cand in sorted(finalists):
        phones = [p for w in cand for p in lexicon.pronunciations[w]]
        acoustic = ctc_forward_logprob(log_y, [phones])[0]
        if acoustic == neg_inf:
            continue
        score = acoustic + lm_weight * fusion.final_total(cand) + word_bonus * len(cand)
        if best is None or score > best[0]:
            best = (score, cand)
    if best is None:
        return [], neg_inf
    return list(best[1]), best[0]


def exhaustive_decode(log_grid: np.ndarray, lexicon, lm_params=None, vocab=None,
                      lm_weight: float = 1.0, word_bonus: float = 0.0,
                      max_words: int = 3) -> Transcript:
    """Enumerate every word sequence up to max_words and score it exactly.

    The objective is `beam_decode`'s; ties go to the smaller word tuple.
    Guard rails keep this to oracle-sized problems: at most 5 lexicon
    words, 8 grid rows, and 3-word sequences.
    """
    log_grid = np.asarray(log_grid)
    t_frames = log_grid.shape[0]
    if len(lexicon) > 5 or t_frames > 8 or max_words > 3:
        raise ValueError(f"guard rail: lexicon<=5, frames<=8, max_words<=3; "
                         f"got {len(lexicon)}, {t_frames}, {max_words}")
    words = lexicon.words()
    fusion = (_ReferenceLm(lm_params, vocab, lexicon)
              if lm_params is not None and lm_weight != 0.0 else _NoLm())

    best = None
    stack = [()]
    while stack:
        seq = stack.pop()
        phones = [p for w in seq for p in lexicon.pronunciations[w]]
        acoustic = ctc_forward_logprob(log_grid, [phones])[0]
        if acoustic != -math.inf:
            score = acoustic + lm_weight * fusion.final_total(seq) + word_bonus * len(seq)
            if best is None or score > best[0] or (score == best[0] and seq < best[1]):
                best = (score, seq)
        if len(seq) < max_words:
            stack.extend(fusion.extend(seq, w) for w in words)
    if best is None or best[0] == -math.inf:
        return Transcript(words=[], score=-math.inf, complete=False)
    return Transcript(words=list(best[1]), score=best[0], complete=t_frames >= lexicon.min_frames)
