"""Error-rate scoring: Levenshtein alignment, WER/PER/SER, reports."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError


@dataclass
class Alignment:
    """Minimal-cost edit alignment between a reference and a hypothesis.

    ops is a list of (kind, ref_token, hyp_token) with kind in
    {"match", "sub", "del", "ins"}; absent tokens are None.
    """

    ops: list[tuple[str, object, object]]
    matches: int
    substitutions: int
    deletions: int
    insertions: int

    @property
    def cost(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def align(ref: list, hyp: list) -> Alignment:
    """Dynamic-programming alignment with unit costs.

    Backtrace ties prefer match > substitution > deletion > insertion.
    """
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, prev = dist[i], dist[i - 1]
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            row[j] = min(prev[j - 1] + (0 if same else 1), prev[j] + 1, row[j - 1] + 1)

    ops: list[tuple[str, object, object]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(("match", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(("sub", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", ref[i - 1], None))
            i -= 1
        else:
            ops.append(("ins", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    counts = {"match": 0, "sub": 0, "del": 0, "ins": 0}
    for kind, _, _ in ops:
        counts[kind] += 1
    return Alignment(ops, counts["match"], counts["sub"], counts["del"], counts["ins"])


def token_error_rate(pairs: list[tuple[list, list]]) -> float:
    """Corpus-pooled (S + D + I) / total reference tokens."""
    if not pairs:
        raise DataError("no utterance pairs to score")
    total_ref = sum(len(ref) for ref, _ in pairs)
    if total_ref == 0:
        raise DataError("reference corpus has no tokens")
    total_err = sum(align(ref, hyp).cost for ref, hyp in pairs)
    return total_err / total_ref


def wer(pairs: list[tuple[list, list]]) -> float:
    return token_error_rate(pairs)


def per(pairs: list[tuple[list, list]]) -> float:
    return token_error_rate(pairs)


def ser(pairs: list[tuple[list, list]]) -> float:
    """Fraction of utterances with any error at all."""
    if not pairs:
        raise DataError("no utterance pairs to score")
    wrong = sum(1 for ref, hyp in pairs if list(ref) != list(hyp))
    return wrong / len(pairs)


@dataclass
class MetricsReport:
    wer: float
    per: float
    ser: float
    word_accuracy: float
    sentence_accuracy: float
    n_utts: int
    n_ref_words: int
    n_ref_phones: int

    def to_dict(self) -> dict:
        return {
            "wer": self.wer,
            "per": self.per,
            "ser": self.ser,
            "word_accuracy": self.word_accuracy,
            "sentence_accuracy": self.sentence_accuracy,
            "n_utts": self.n_utts,
            "n_ref_words": self.n_ref_words,
            "n_ref_phones": self.n_ref_phones,
        }

    def to_table(self) -> str:
        rows = [(k, f"{v:.4f}" if isinstance(v, float) else str(v))
                for k, v in self.to_dict().items()]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v:>10}" for k, v in rows)


def report(pairs_words: list[tuple[list, list]],
           pairs_phones: list[tuple[list, list]]) -> MetricsReport:
    """Full corpus report from parallel word- and phone-level pairs.

    Word accuracy is 1 - WER clamped at zero; sentence accuracy is 1 - SER.
    These are two different conventions and both are reported.
    """
    if len(pairs_words) != len(pairs_phones):
        raise DataError(f"word/phone utterance counts differ: "
                        f"{len(pairs_words)} vs {len(pairs_phones)}")
    w = wer(pairs_words)
    p = per(pairs_phones)
    s = ser(pairs_words)
    return MetricsReport(
        wer=w,
        per=p,
        ser=s,
        word_accuracy=max(0.0, 1.0 - w),
        sentence_accuracy=1.0 - s,
        n_utts=len(pairs_words),
        n_ref_words=sum(len(ref) for ref, _ in pairs_words),
        n_ref_phones=sum(len(ref) for ref, _ in pairs_phones),
    )


def normalize_text(text: str) -> list[str]:
    """Lowercase, strip punctuation, collapse whitespace; returns words."""
    cleaned = re.sub(r"[^a-z\s]", " ", text.lower())
    return cleaned.split()
