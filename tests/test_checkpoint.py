import json
import struct
import zlib

import numpy as np
import pytest

from shona_asr.audio import AudioBuffer, save_wav
from shona_asr.checkpoint import (Checkpoint, FORMAT_VERSION, load_checkpoint, params_hash,
                                  save_checkpoint)
from shona_asr.cli import main
from shona_asr.errors import ChecksumError, DataError


def sample_ckpt(rng):
    return Checkpoint(
        config={"seed": 3, "note": "test"},
        inventory_lines=["0 a a", "1 b b"],
        vocab=["<s>", "</s>", "<wb>", "<unk>", "a", "b"],
        tensors={
            "acoustic.conv1.kernels": rng.normal(size=(2, 1, 3, 3)).astype(np.float32),
            "lm.out.b": rng.normal(size=6).astype(np.float32),
        },
        best_metric=0.25,
        epoch=7,
    )


def rewrite_header(path, edit, raw=False):
    """Replace the JSON header with edit(header), recomputing the CRC so it still passes.

    With raw, edit maps the header's bytes to new bytes instead of its parsed JSON.
    """
    blob = path.read_bytes()
    header_len = struct.unpack("<I", blob[8:12])[0]
    header = blob[12:12 + header_len]
    new_header = (edit(header) if raw else json.dumps(
        edit(json.loads(header)), ensure_ascii=False, separators=(",", ":")).encode())
    body = blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def test_round_trip_bit_exact(tmp_path, rng):
    ckpt = sample_ckpt(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.inventory_lines == ckpt.inventory_lines
    assert back.vocab == ckpt.vocab
    assert back.best_metric == ckpt.best_metric
    assert back.epoch == ckpt.epoch
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(back.tensors[name], arr)
    # saving the loaded checkpoint reproduces the file byte for byte
    save_checkpoint(back, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_single_byte_corruption_detected(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_ckpt(rng), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match="CRC"):
        load_checkpoint(path)


def test_every_byte_position_detectable(tmp_path, rng):
    # flip a byte at a few positions across all sections
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_ckpt(rng), path)
    original = path.read_bytes()
    for pos in [0, 9, 30, len(original) // 2, len(original) - 5, len(original) - 1]:
        blob = bytearray(original)
        blob[pos] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises((ChecksumError, DataError)):
            load_checkpoint(path)


def test_version_mismatch_is_explicit_error(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    ckpt = sample_ckpt(rng)
    save_checkpoint(ckpt, path)
    rewrite_header(path, lambda h: {**h, "version": FORMAT_VERSION + 1})
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def _with_first_offset(header, offset):
    return {**header, "tensors": [{**header["tensors"][0], "offset": offset}]
            + header["tensors"][1:]}


@pytest.mark.parametrize("edit, message", [
    (lambda h: {k: v for k, v in h.items() if k != "tensors"}, "missing or mistyped"),
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "config": 5}, "missing or mistyped"),
    (lambda h: {**h, "inventory": [5]}, "must hold strings"),
    (lambda h: _with_first_offset(h, -4), "malformed tensor entry"),
    (lambda h: _with_first_offset(h, 10**6), "extends past payload"),
    (lambda h: {**h, "tensors": h["tensors"] + h["tensors"][:1]}, "listed twice"),
], ids=["no-tensors-key", "header-is-list", "config-not-object", "inventory-not-strings",
        "negative-offset", "offset-past-payload", "duplicate-tensor-name"])
def test_forged_header_is_data_error(tmp_path, rng, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_ckpt(rng), path)
    rewrite_header(path, edit)
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)
    wav = tmp_path / "tone.wav"
    save_wav(wav, AudioBuffer(0.1 * np.ones(8000), 16000))
    assert main(["decode", "--ckpt", str(path), "--wav", str(wav)]) == 2


def test_header_nested_too_deep_is_data_error(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_ckpt(rng), path)
    deep = b"[" * 100_000 + b"]" * 100_000
    rewrite_header(path, lambda h: h.replace(b'"config":{', b'"config":{"augment":' + deep + b",",
                                             1), raw=True)
    with pytest.raises(DataError, match=f"{path}: unreadable header"):
        load_checkpoint(path)
    wav = tmp_path / "tone.wav"
    save_wav(wav, AudioBuffer(0.1 * np.ones(8000), 16000))
    assert main(["decode", "--ckpt", str(path), "--wav", str(wav)]) == 2


def test_truncated_file_detected(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_ckpt(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"NOTMAGIC" + bytes(100))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_params_hash_stable_and_sensitive(rng):
    tensors = {"a": rng.normal(size=4).astype(np.float32),
               "b": rng.normal(size=(2, 2)).astype(np.float32)}
    first = params_hash(tensors)
    second = params_hash(dict(reversed(list(tensors.items()))))
    assert first == second  # order-insensitive
    tensors["a"] = tensors["a"] + 1e-3
    assert params_hash(tensors) != first
