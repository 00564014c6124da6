"""Environment record stored with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# A comparison between results whose records differ in any of these is flagged.
COMPARED_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }


def differences(a: dict, b: dict) -> list[str]:
    """Human-readable list of compared keys on which two records differ."""
    return [f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
            for key in COMPARED_KEYS if a.get(key) != b.get(key)]
