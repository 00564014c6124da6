import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from shona_asr.audio import AudioBuffer, load_wav, resample_linear, save_wav, wav_duration_s
from shona_asr.errors import DataError


def write_pcm(path, samples, rate=16000, channels=1, sampwidth=2):
    pcm = np.round(np.clip(samples, -1, 1) * 32767).astype("<i2")
    if channels == 2:
        pcm = np.repeat(pcm, 2)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def test_one_second_16k_gives_16000_samples(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(16000))
    buf = load_wav(tmp_path / "a.wav")
    assert len(buf.samples) == 16000
    assert buf.sample_rate_hz == 16000


def test_8k_source_resampled_to_16000_samples(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(8000), rate=8000)
    buf = load_wav(tmp_path / "a.wav")
    assert len(buf.samples) == 16000
    assert buf.sample_rate_hz == 16000


def test_zero_length_payload_rejected(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(0))
    with pytest.raises(DataError, match="zero-length"):
        load_wav(tmp_path / "a.wav")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_wav(tmp_path / "missing.wav")


def test_stereo_rejected_not_downmixed(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(100), channels=2)
    with pytest.raises(DataError, match="mono"):
        load_wav(tmp_path / "a.wav")


def test_8bit_samples_rejected(tmp_path):
    with wave.open(str(tmp_path / "a.wav"), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(bytes(100))
    with pytest.raises(DataError, match="16-bit"):
        load_wav(tmp_path / "a.wav")


def test_samples_scaled_to_unit_range(tmp_path):
    write_pcm(tmp_path / "a.wav", np.array([1.0, -1.0, 0.5]))
    buf = load_wav(tmp_path / "a.wav")
    assert np.all(np.abs(buf.samples) <= 1.0)
    assert buf.samples[0] == pytest.approx(32767 / 32768)


def test_save_load_round_trip(tmp_path, rng):
    samples = rng.uniform(-0.9, 0.9, 500)
    save_wav(tmp_path / "a.wav", AudioBuffer(samples, 16000))
    back = load_wav(tmp_path / "a.wav")
    # scale-up by 32767 on save, down by 32768 on load, plus quantization
    assert np.max(np.abs(back.samples - samples)) < 1.0 / 10000


def test_resample_identity_when_rates_match(rng):
    x = rng.uniform(-1, 1, 100)
    assert np.array_equal(resample_linear(x, 16000, 16000), x)


def test_resample_length_formula(rng):
    x = rng.uniform(-1, 1, 441)
    assert len(resample_linear(x, 44100, 16000)) == round(441 * 16000 / 44100)


def test_wav_duration_header_only(tmp_path):
    write_pcm(tmp_path / "a.wav", np.zeros(8000))
    assert wav_duration_s(tmp_path / "a.wav") == pytest.approx(0.5)


@pytest.mark.parametrize("rate", [0, 500, 200_000])
def test_declared_rate_out_of_range_is_a_data_error_naming_the_file(tmp_path, rate):
    # before, 0 Hz divided by zero in both readers; a tiny payload keeps the
    # low rates from resampling to a huge signal at the parent
    path = tmp_path / "a.wav"
    write_pcm(path, np.zeros(4))
    raw = bytearray(path.read_bytes())
    raw[24:32] = struct.pack("<II", rate, 2 * rate)  # fmt chunk: sample rate, byte rate
    path.write_bytes(bytes(raw))
    for read in (load_wav, wav_duration_s):
        with pytest.raises(DataError, match=f"{path}: declared sample rate {rate} Hz"):
            read(path)


def test_every_single_byte_header_mutation_loads_or_is_a_data_error(tmp_path):
    # before, a fmt chunk size (bytes 16-19) that wave cannot follow raised EOFError or
    # RuntimeError, and a data size of an odd byte count a ValueError naming no file
    path = tmp_path / "a.wav"
    write_pcm(path, 0.3 * np.sin(np.arange(400) / 3.0))
    original = path.read_bytes()
    loaded = 0
    for pos in range(44):
        for value in range(256):
            if value == original[pos]:
                continue
            mutated = bytearray(original)
            mutated[pos] = value
            path.write_bytes(bytes(mutated))
            for read in (load_wav, wav_duration_s):
                try:
                    read(path)
                    loaded += 1
                except DataError as exc:
                    assert str(path) in str(exc)
    assert 0 < loaded < 2 * 44 * 255


def test_declared_frames_beyond_the_file_read_only_what_it_holds(tmp_path):
    # before, the reader asked for every declared byte at once: 4 GB for this header,
    # a MemoryError under a 1 GB address-space limit
    path = tmp_path / "a.wav"
    write_pcm(path, np.full(100, 0.25))
    raw = bytearray(path.read_bytes())
    raw[4:8] = raw[40:44] = struct.pack("<I", 0xFFFFFFF0)  # RIFF and data sizes: about 4 GB
    path.write_bytes(bytes(raw))
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from shona_asr.audio import load_wav; print(load_wav(sys.argv[1]).samples.sum())")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == pytest.approx(25.0, abs=0.01)


def test_a_directory_is_a_data_error_naming_it(tmp_path):
    # before, both readers tested exists() and wave.open raised IsADirectoryError
    for read in (load_wav, wav_duration_s):
        with pytest.raises(DataError, match=f"{tmp_path}: not a readable PCM WAV file"):
            read(tmp_path)
