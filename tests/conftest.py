import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from shona_asr.audio import AudioBuffer
from shona_asr.autodiff import Parameters


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a child process running; the process is killed first."""
    yield
    left = multiprocessing.active_children()
    named = ", ".join(f"{process.name} (pid {process.pid})" for process in left)
    for process in left:
        process.kill()
        process.join()
    if left:
        pytest.fail(f"the test left child processes running: {named}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tone_1khz():
    t = np.arange(16000) / 16000.0
    return AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)


def make_tone(freq_hz: float, duration_s: float = 1.0, amplitude: float = 0.5,
              sample_rate: int = 16000) -> AudioBuffer:
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t), sample_rate)


def params_as(params: Parameters, dtype) -> Parameters:
    """A copy of params with every tensor cast to dtype."""
    out = Parameters()
    for name, t in params.items():
        out.add(name, t.data.astype(dtype))
    return out
