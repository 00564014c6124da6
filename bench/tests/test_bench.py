"""Tests of the benchmark harness itself, at a tiny size.

The quality gates (WER, val_per trend) are not asserted here: a model
trained for one epoch on ten utterances is not expected to pass them.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path)
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(train_utts=10, train_epochs=1, model_utts=10, model_epochs=1,
                       eval_utts=3)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run.run_workload(name, seed=3, seconds=0.0, trace=False, sizes=TINY,
                              work_root=tmp_path)
    for metric in SPEC["end_to_end"]:
        assert result["values"][metric["name"]] > 0.0, metric["name"]
    assert result["gates"]["setup_deterministic"]
    assert result["gates"]["outputs_repeat"]
    if name == "train":
        assert result["gates"]["checkpoint_roundtrip"]
        assert result["gates"]["losses_finite"]
    else:
        assert result["report"]["latency_samples"] == workloads.MIN_PASSES * TINY.eval_utts
    assert result["attempted"] > 0
    assert list(tmp_path.iterdir()) == []  # generated corpora are removed


@pytest.mark.parametrize("name", ["train", "decode"])
def test_traced_run_restores_attributes_and_matches_untraced(name, tmp_path):
    before = run._restorable_state()
    result = run.run_workload(name, seed=3, seconds=0.0, trace=True, sizes=TINY,
                              work_root=tmp_path)
    assert run._restorable_state() == before
    assert result["gates"]["tracer_restored"]
    # traced and untraced units give the same val_per log / transcripts and scores
    assert result["gates"]["outputs_repeat"]
    values = result["values"]
    for metric in SPEC["per_layer"]:
        assert metric["name"] in values, metric["name"]
    if name == "train":
        # caught through `from .ctc import ctc_loss` inside shona_asr.train
        assert values["ctc.loss_ms"] > 0 and values["ctc.loss_bwd_ms"] > 0
        assert values["autodiff.backward_acoustic_ms"] > 0 and values["autodiff.backward_lm_ms"] > 0
        assert values["decoder.beam_decode_ms"] == 0
    else:
        # caught through the names shona_asr.decoder binds at import
        assert values["lm.score_tokens.calls"] > 0
        assert values["ctc.forward_logprob.calls"] > 0
        assert values["autodiff.conv2d.bwd_ms"] == 0
    assert result["tracer"].spans


def test_scaled_clock_times_slices_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    clock = speed.ScaledClock()
    clock.start()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:  # busy: the timer cuts about five slices
        pass
    wall = clock.stop()
    assert 0.05 < wall == clock.wall_s < 0.15
    assert clock.nominal_s > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_environment_differences(tmp_path, capsys):
    def write(side, blas_threads, value):
        d = tmp_path / side
        d.mkdir(exist_ok=True)
        env = {"python": "3.11", "numpy": "2.0", "blas": "openblas", "blas_threads": blas_threads,
               "nproc": 2}
        (d / "r.json").write_text(json.dumps({
            "workload": "decode", "trace": 0, "env": env,
            "metrics": {"rtf": {"value": value, "unit": "s/s"}}}))

    write("a", 2, 0.02)
    write("b", 2, 0.01)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "-50.00" in capsys.readouterr().out
    write("b", 1, 0.01)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "blas_threads" in capsys.readouterr().out
