"""Versioned, checksummed binary container for model state.

Layout: magic "ASRCKPT1", a little-endian uint32 header length, a UTF-8
JSON header (version, config snapshot, phone inventory, vocab, tensor
directory with name/shape/offset, best metric, epoch), tensor payloads as
little-endian IEEE-754 float32 in directory order, and a trailing uint32
CRC-32 of everything before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChecksumError, DataError

MAGIC = b"ASRCKPT1"
FORMAT_VERSION = 1
# Header keys required besides "version", and the JSON type of each value.
_HEADER_TYPES = {"config": dict, "inventory": list, "vocab": list,
                 "best_metric": object, "epoch": object, "tensors": list}


@dataclass
class Checkpoint:
    config: dict
    inventory_lines: list[str]
    vocab: list[str]
    tensors: dict[str, np.ndarray]  # name -> float32 array
    best_metric: float | None = None
    epoch: int | None = None

    def __post_init__(self):
        self.tensors = {name: np.ascontiguousarray(arr, dtype=np.float32)
                        for name, arr in self.tensors.items()}


def params_hash(tensors: dict[str, np.ndarray]) -> str:
    """sha256 over name/shape/float32-payload of a tensor map."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _is_count(value) -> bool:
    """A non-negative JSON integer (bool is excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file beside it, moved into place by `os.replace`.

    A process killed, or a disk filled, during the write leaves the file
    at `path` as it was, and a failed write removes the temporary file. The
    data is not synced to the disk, so a power loss is not covered.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    payloads = []
    directory = []
    offset = 0
    for name, arr in ckpt.tensors.items():
        blob = arr.astype("<f4").tobytes(order="C")
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payloads.append(blob)
        offset += len(blob)
    header_obj = {
        "version": FORMAT_VERSION,
        "config": ckpt.config,
        "inventory": ckpt.inventory_lines,
        "vocab": ckpt.vocab,
        "best_metric": ckpt.best_metric,
        "epoch": ckpt.epoch,
        "tensors": directory,
    }
    header = json.dumps(header_obj, ensure_ascii=False, separators=(",", ":"),
                        allow_nan=False).encode("utf-8")
    body = MAGIC + struct.pack("<I", len(header)) + header + b"".join(payloads)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    write_atomic(path, body + struct.pack("<I", crc))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 8:
        raise ChecksumError(f"{path}: file truncated ({len(blob)} bytes)")
    if blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic bytes; not a checkpoint file")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(f"{path}: CRC mismatch "
                            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})")
    header_len = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])[0]
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if header_end > len(blob) - 4:
        raise ChecksumError(f"{path}: header extends past end of file")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version!r} "
                        f"(this build reads version {FORMAT_VERSION})")
    bad = [key for key, kind in _HEADER_TYPES.items()
           if key not in header or not isinstance(header[key], kind)]
    if bad:
        raise DataError(f"{path}: header keys missing or mistyped: {bad}")
    if not all(isinstance(line, str) for line in header["inventory"] + header["vocab"]):
        raise DataError(f"{path}: header inventory and vocab must hold strings")
    payload = blob[header_end:-4]
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        fields = entry if isinstance(entry, dict) else {}
        name, shape, start = fields.get("name"), fields.get("shape"), fields.get("offset")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start)):
            raise DataError(f"{path}: malformed tensor entry {entry!r}")
        if name in tensors:
            raise DataError(f"{path}: tensor {name!r} listed twice")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise DataError(f"{path}: tensor {name!r} extends past payload")
        tensors[name] = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
    return Checkpoint(
        config=header["config"],
        inventory_lines=header["inventory"],
        vocab=header["vocab"],
        tensors=tensors,
        best_metric=header["best_metric"],
        epoch=header["epoch"],
    )
