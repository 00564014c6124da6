"""Corpus manifests (JSON Lines) and deterministic train/val/test splits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import wav_duration_s
from .errors import DataError, unknown_keys

_RECORD_KEYS = {"id", "audio", "text", "duration_s"}


@dataclass
class ManifestRecord:
    utt_id: str
    audio: Path  # resolved absolute path
    text: str
    duration_s: float


@dataclass
class CorpusManifest:
    records: list[ManifestRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def total_duration_s(self) -> float:
        return sum(r.duration_s for r in self.records)


def load_manifest(path) -> CorpusManifest:
    """Read and validate a JSONL manifest; audio paths resolve relative to it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    root = path.parent
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: record must be a JSON object")
        unknown = set(obj) - _RECORD_KEYS
        if unknown:
            raise DataError(f"{path}:{lineno}: {unknown_keys(unknown)}")
        for key in ("id", "audio", "text"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: missing key {key!r}")
        utt_id = str(obj["id"])
        if utt_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {utt_id!r}")
        seen.add(utt_id)
        text = str(obj["text"]).strip()
        if not text:
            raise DataError(f"{path}:{lineno}: empty text for id {utt_id!r}")
        if not isinstance(obj["audio"], str) or not obj["audio"]:
            raise DataError(f"{path}:{lineno}: audio must be a non-empty path string, "
                            f"got {obj['audio']!r}")
        audio = (root / obj["audio"]).resolve()
        if not audio.is_file():
            raise DataError(f"{path}:{lineno}: audio file not found: {audio}")
        duration = obj.get("duration_s")
        if duration is None:
            duration = wav_duration_s(audio)
        elif type(duration) not in (int, float) or not 0 < duration < math.inf:
            raise DataError(f"{path}:{lineno}: duration_s must be a finite number above 0, "
                            f"got {duration!r}")
        records.append(ManifestRecord(utt_id, audio, text, float(duration)))
    if not records:
        raise DataError(f"{path}: manifest is empty")
    return CorpusManifest(records)


def save_manifest(path, records: list[dict]) -> None:
    """Write manifest records (plain dicts) as JSON Lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_corpus(manifest: CorpusManifest, ratios=(0.8, 0.1, 0.1),
                 seed: int = 0) -> tuple[CorpusManifest, CorpusManifest, CorpusManifest]:
    """Deterministic shuffle-and-partition into train/val/test.

    Val and test sizes are floored; the remainder goes to train. Every
    split must receive at least one utterance.
    """
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise DataError(f"split ratios must be 3 non-negative values summing to 1, got {ratios}")
    n = len(manifest)
    n_val = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise DataError(f"corpus of {n} utterances too small for ratios {ratios}")
    order = np.random.default_rng(seed).permutation(n)
    recs = [manifest.records[i] for i in order]
    return (CorpusManifest(recs[:n_train]),
            CorpusManifest(recs[n_train:n_train + n_val]),
            CorpusManifest(recs[n_train + n_val:]))
