import json
import math

import numpy as np
import pytest

from shona_asr.errors import DataError
from shona_asr.manifest import load_manifest, split_corpus

from test_audio import write_pcm


def write_manifest(tmp_path, records):
    path = tmp_path / "manifest.jsonl"
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def make_corpus(tmp_path, n, rate=16000):
    records = []
    for i in range(n):
        name = f"utt{i}.wav"
        write_pcm(tmp_path / name, np.zeros(rate // 2))
        records.append({"id": f"utt{i}", "audio": name, "text": f"baba {i}"})
    return write_manifest(tmp_path, records)


def test_three_valid_lines(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 3))
    assert len(m) == 3
    assert m.records[0].duration_s == pytest.approx(0.5)


def test_duplicate_id_reports_the_id(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [
        {"id": "dup", "audio": "a.wav", "text": "x"},
        {"id": "dup", "audio": "a.wav", "text": "y"},
    ])
    with pytest.raises(DataError, match="dup"):
        load_manifest(path)


def test_empty_text_reports_line_number(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [
        {"id": "u1", "audio": "a.wav", "text": "ok"},
        {"id": "u2", "audio": "a.wav", "text": "  "},
    ])
    with pytest.raises(DataError, match=":2"):
        load_manifest(path)


def test_missing_audio_rejected(tmp_path):
    path = write_manifest(tmp_path, [{"id": "u1", "audio": "nope.wav", "text": "x"}])
    with pytest.raises(DataError, match="not found"):
        load_manifest(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "u1"\n')
    with pytest.raises(DataError, match=":1"):
        load_manifest(path)


def test_json_nested_too_deep_reports_line(tmp_path):
    path = make_corpus(tmp_path, 2)
    with open(path, "a") as fh:
        fh.write("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(DataError, match=f"{path}:3: invalid JSON"):
        load_manifest(path)


def test_unknown_keys_rejected(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [{"id": "u1", "audio": "a.wav", "text": "x", "extra": 1}])
    with pytest.raises(DataError, match="extra"):
        load_manifest(path)


def test_unknown_key_error_is_short_whatever_the_key(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [{"id": "u1", "audio": "a.wav", "text": "x", "k" * 5000: 1}])
    with pytest.raises(DataError, match=r":1: unknown keys \(1\), the first 'kkkk") as info:
        load_manifest(path)
    assert len(str(info.value)) < 200 + len(str(path))


def test_explicit_duration_respected(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [{"id": "u1", "audio": "a.wav", "text": "x", "duration_s": 2.5}])
    assert load_manifest(path).records[0].duration_s == 2.5


def test_split_10_utterances_8_1_1(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 10))
    train, val, test = split_corpus(m, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_deterministic(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 12))
    a = split_corpus(m, (0.8, 0.1, 0.1), seed=5)
    b = split_corpus(m, (0.8, 0.1, 0.1), seed=5)
    for s1, s2 in zip(a, b):
        assert [r.utt_id for r in s1] == [r.utt_id for r in s2]


def test_split_is_a_partition(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 17))
    for seed in range(5):
        parts = split_corpus(m, (0.6, 0.2, 0.2), seed=seed)
        ids = [r.utt_id for part in parts for r in part]
        assert sorted(ids) == sorted(r.utt_id for r in m)
        assert len(set(ids)) == len(ids)


def test_split_too_small_rejected(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 3))
    with pytest.raises(DataError, match="too small"):
        split_corpus(m, (0.9, 0.05, 0.05), seed=0)


def test_bad_ratios_rejected(tmp_path):
    m = load_manifest(make_corpus(tmp_path, 10))
    with pytest.raises(DataError, match="sum"):
        split_corpus(m, (0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("bad", [
    {"audio": 5}, {"audio": ""}, {"audio": "."},
    {"duration_s": True}, {"duration_s": math.inf}, {"duration_s": math.nan},
    {"duration_s": "2.5"}, {"duration_s": 0},
], ids=["audio-int", "audio-empty", "audio-directory", "duration-bool", "duration-inf",
        "duration-nan", "duration-string", "duration-zero"])
def test_malformed_audio_or_duration_is_a_data_error_naming_the_line(tmp_path, bad):
    # before, an int audio raised TypeError, an empty one or a directory
    # IsADirectoryError, and a bool or infinite duration loaded
    write_pcm(tmp_path / "a.wav", np.zeros(100))
    path = write_manifest(tmp_path, [{"id": "u1", "audio": "a.wav", "text": "x"},
                                     {"id": "u2", "audio": "a.wav", "text": "y", **bad}])
    with pytest.raises(DataError, match=":2: (audio|duration_s)"):
        load_manifest(path)
