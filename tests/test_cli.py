import dataclasses
import errno
import importlib
import json
import logging
import multiprocessing
import os

import numpy as np
import pytest

from shona_asr.audio import load_wav
from shona_asr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from shona_asr.cli import main
from shona_asr.corpusgen import GenConfig, generate_corpus
from shona_asr.errors import DataError
from shona_asr.features import extract_features
from shona_asr.lm import SPECIALS, LmConfig, TokenVocab, build_lm
from shona_asr.train import restore_models

from test_audio import write_pcm
from test_checkpoint import rewrite_header

TINY_TRAIN = {
    "seed": 3,
    "epochs_max": 2,
    "patience": 2,
    "augment": {"speed_factors": [1.0], "gain_db_range": [0.0, 0.0],
                "n_freq_masks": 0, "n_time_masks": 0},
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    generate_corpus(GenConfig(seed=5, vocab_size=6, n_utterances=12), out)
    return out


def train_tiny(out, corpus_dir, config):
    """Train config through `asr train` into out; returns the checkpoint path."""
    cfg_path = out / "train.json"
    cfg_path.write_text(json.dumps(config))
    ckpt_path = out / "model.ckpt"
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(ckpt_path), "--log", str(out / "log.json")])
    assert code == 0
    return ckpt_path


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, corpus_dir):
    return train_tiny(tmp_path_factory.mktemp("cli_train"), corpus_dir, TINY_TRAIN)


@pytest.fixture(scope="module")
def phone_lm_ckpt(tmp_path_factory, corpus_dir):
    """trained_ckpt's run with a phone-token LM, the default before word tokens."""
    return train_tiny(tmp_path_factory.mktemp("cli_train_phone"), corpus_dir,
                      {**TINY_TRAIN, "granularity": "phone"})


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


def test_features_command_writes_container(tmp_path):
    wav = tmp_path / "tone.wav"
    write_pcm(wav, 0.4 * np.sin(2 * np.pi * 440 * np.arange(8000) / 16000))
    out = tmp_path / "feats.bin"
    assert main(["features", str(wav), "--out", str(out)]) == 0
    ckpt = load_checkpoint(out)
    assert list(ckpt.tensors) == ["features"]
    assert ckpt.tensors["features"].shape == (1 + (8000 - 400) // 160, 39)
    assert np.array_equal(ckpt.tensors["features"], extract_features(load_wav(wav)).astype(np.float32))


def test_features_missing_wav_exits_2(tmp_path):
    assert main(["features", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.bin")]) == 2


def test_features_of_a_directory_exits_2_naming_it(tmp_path, capsys):
    # before, IsADirectoryError escaped as a traceback with exit 1
    assert main(["features", str(tmp_path), "--out", str(tmp_path / "o.bin")]) == 2
    assert f"{tmp_path}: not a readable PCM WAV file" in capsys.readouterr().err


def test_corpusgen_command(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"seed": 1, "vocab_size": 4, "n_utterances": 3}))
    assert main(["corpusgen", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "manifest.jsonl").exists()
    assert (tmp_path / "c" / "lexicon.txt").exists()
    assert (tmp_path / "c" / "phones.txt").exists()


def test_corpusgen_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"seed": 1, "wat": 2}))
    assert main(["corpusgen", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("key", ["phone_duration_ms", "sample_rate", "noise_band_hz",
                                 "noise_band_start_hz", "noise_band_step_hz"])
def test_corpusgen_rendering_settings_are_not_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"seed": 1, "n_utterances": 2, key: 100}))
    assert main(["corpusgen", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 2
    assert "unknown keys" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("field, value", [
    ("n_utterances", 0),
    ("words_per_sentence", [0, 2]),
    ("words_per_sentence", [3, 2]),
    ("syllables_per_word", [0, 2]),
    ("syllables_per_word", [3, 2]),
], ids=["no-utterances", "words-from-0", "words-reversed", "syllables-from-0",
        "syllables-reversed"])
def test_corpusgen_empty_or_reversed_range_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                     field, value):
    # before, these wrote some WAVs and then failed on an empty word, an empty
    # sentence or an empty manifest, or in the RNG without naming the field
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"seed": 1, "vocab_size": 4, "n_utterances": 8, field: value}))
    assert main(["corpusgen", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 2
    assert f"config: {field} must" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_corpusgen_vocabulary_beyond_the_syllable_range_exits_2_and_writes_nothing(tmp_path,
                                                                                   capsys):
    # 49 onsets x 5 vowels allow 245 one-syllable words; before, 300 drew for seconds,
    # then failed and left an empty wav/ directory
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"vocab_size": 300, "syllables_per_word": [1, 1],
                               "n_utterances": 2}))
    assert main(["corpusgen", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 2
    assert ("config.vocab_size: 300 words exceed the 245 distinct pronunciations of 1-1 "
            "syllables") in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("bad", [{"lexicon_words": [1, 2]}, {"seed": "x"}, {"seed": True}],
                         ids=["lexicon-ints", "seed-string", "seed-bool"])
def test_train_config_value_of_wrong_type_exits_2(corpus_dir, tmp_path, capsys, bad):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({**TINY_TRAIN, **bad}))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 2
    assert "config." in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_config_with_a_zero_width_exits_2_with_one_line(corpus_dir, tmp_path, capsys):
    # this used to read the corpus, fork the workers and end in a ZeroDivisionError (exit 1)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({**TINY_TRAIN, "acoustic": {"dense_units": 0}}))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert "config.acoustic: dense_units must be >= 1, got 0" in line
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_train_config_with_a_non_json_number_exits_2_naming_the_file(corpus_dir, tmp_path,
                                                                     capsys, constant):
    # Python's json reads these; before, a NaN lm_weight trained every epoch and then
    # failed to write the checkpoint
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN)[:-1] + f', "decode": {{"lm_weight": {constant}}}}}')
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 2
    assert f"{cfg_path}: invalid JSON ({constant} is not a JSON number)" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


TRAIN_ARGS = ["train", "--config", "{cfg}", "--manifest", "{manifest}"]
OUTPUTS = {
    "train-out": TRAIN_ARGS + ["--out", "{missing}"],
    "train-log": TRAIN_ARGS + ["--out", "{ckpt}", "--log", "{missing}"],
    "eval-report": ["eval", "--ckpt", "{ckpt}", "--manifest", "{manifest}", "--report", "{missing}"],
    "features-out": ["features", "x.wav", "--out", "{missing}"],
}


@pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS.keys())
def test_missing_output_directory_exits_2_before_any_work(corpus_dir, tmp_path, monkeypatch,
                                                          capsys, argv):
    # before, `asr train --out /missing/m.ckpt` trained every epoch, then raised
    # FileNotFoundError naming its temporary file (exit 1)
    def refuse(*args, **kwargs):
        raise AssertionError("the command worked before checking its outputs")

    for module, name in (("shona_asr.train", "train"), ("shona_asr.train", "evaluate"),
                         ("shona_asr.manifest", "load_manifest"),
                         ("shona_asr.checkpoint", "load_checkpoint"),
                         ("shona_asr.audio", "load_wav")):
        monkeypatch.setattr(importlib.import_module(module), name, refuse)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    missing = tmp_path / "missing" / "out.bin"
    assert main([arg.format(cfg=cfg_path, manifest=corpus_dir / "manifest.jsonl",
                            ckpt=tmp_path / "model.ckpt", missing=missing) for arg in argv]) == 2
    assert f"{missing}: the output directory {missing.parent} does not exist" in (
        capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


def test_train_config_nested_too_deep_exits_2_naming_the_file(corpus_dir, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text('{"augment": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 2
    assert f"{cfg_path}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("lexicon_words", [1, 2]), ("seed", "x")],
                         ids=["lexicon-ints", "seed-string"])
def test_checkpoint_config_value_of_wrong_type_exits_2(trained_ckpt, corpus_dir, tmp_path,
                                                       field, value):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(trained_ckpt.read_bytes())
    rewrite_header(bad, lambda h: {**h, "config": {**h["config"], field: value}})
    wav = sorted((corpus_dir / "wav").glob("*.wav"))[0]
    assert main(["decode", "--ckpt", str(bad), "--wav", str(wav)]) == 2


def with_one_nan(arr):
    out = arr.copy()
    out.flat[0] = np.nan
    return out


TENSOR_EDITS = {
    "acoustic-out-missing": lambda t: t.pop("acoustic.out.W"),
    "acoustic-bogus-extra": lambda t: t.update({"acoustic.bogus": np.zeros(3, np.float32)}),
    "lm-out-one-row-short": lambda t: t.update({"lm.out.W": t["lm.out.W"][:-1]}),
    "acoustic-conv2-one-filter-short":
        lambda t: t.update({"acoustic.conv2.kernels": t["acoustic.conv2.kernels"][:-1]}),
    "lm-weight-nan": lambda t: t.update({"lm.lstm1.W_hh": with_one_nan(t["lm.lstm1.W_hh"])}),
}


@pytest.mark.parametrize("edit", TENSOR_EDITS.values(), ids=TENSOR_EDITS.keys())
def test_checkpoint_tensors_not_matching_config_exit_2(trained_ckpt, corpus_dir, tmp_path, edit):
    ckpt = load_checkpoint(trained_ckpt)
    edit(ckpt.tensors)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    with pytest.raises(DataError):
        restore_models(load_checkpoint(bad))
    wav = sorted((corpus_dir / "wav").glob("*.wav"))[0]
    assert main(["decode", "--ckpt", str(bad), "--wav", str(wav)]) == 2


def test_train_writes_checkpoint_and_log(trained_ckpt):
    ckpt = load_checkpoint(trained_ckpt)
    assert ckpt.epoch is not None
    log = json.loads((trained_ckpt.parent / "log.json").read_text())
    assert len(log) == 2


def test_train_log_with_non_finite_value_exits_3(corpus_dir, tmp_path, monkeypatch):
    train_mod = importlib.import_module("shona_asr.train")
    ckpt = Checkpoint(config={}, inventory_lines=[], vocab=[], tensors={})
    log = [{"epoch": 1, "train_ctc": float("inf"), "val_per": 1.0}]
    monkeypatch.setattr(train_mod, "train",
                        lambda cfg, manifest: train_mod.TrainResult(ckpt, log, 1, False, ""))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt"), "--log", str(tmp_path / "log.json")])
    assert code == 3
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


def test_train_with_non_finite_losses_exits_3(corpus_dir, tmp_path, monkeypatch, capsys):
    train_mod = importlib.import_module("shona_asr.train")
    ad = importlib.import_module("shona_asr.autodiff")
    real = train_mod.ctc_loss
    monkeypatch.setattr(train_mod, "ctc_loss",
                        lambda grid, target: ad.scale(real(grid, target), float("nan")))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 3
    assert "non-finite loss or gradient" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]


def test_train_whose_lm_process_dies_exits_4_with_one_line(corpus_dir, tmp_path, monkeypatch,
                                                           capsys):
    # as an OOM kill ends it; before, a RuntimeError escaped with its traceback (exit 1)
    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "lm_train",
                        lambda *args, **kwargs: os._exit(137))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert "LM training" in line and "137" in line
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]
    assert multiprocessing.active_children() == []


def test_train_whose_lm_process_runs_out_of_memory_exits_4_with_one_line(corpus_dir, tmp_path,
                                                                        monkeypatch, capsys):
    # before, the MemoryError was raised again in the caller: a traceback, exit 1
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "lm_train", exhausted)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    code = main(["train", "--config", str(cfg_path),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "model.ckpt")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line == "error: the LM training process ran out of memory"
    assert [p.name for p in tmp_path.iterdir()] == ["train.json"]
    assert multiprocessing.active_children() == []


def failing_replace_of(name, monkeypatch):
    """Make `os.replace` onto a file called `name` fail as a full disk would."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("name", ["model.ckpt", "log.json"])
def test_train_that_fails_to_write_an_output_keeps_its_previous_bytes(corpus_dir, tmp_path,
                                                                      monkeypatch, name):
    train_mod = importlib.import_module("shona_asr.train")
    ckpt = Checkpoint(config={}, inventory_lines=[], vocab=[], tensors={})
    log = [{"epoch": 1, "train_ctc": 1.0, "val_per": 1.0}]
    monkeypatch.setattr(train_mod, "train",
                        lambda cfg, manifest: train_mod.TrainResult(ckpt, log, 1, False, ""))
    (tmp_path / "train.json").write_text(json.dumps(TINY_TRAIN))
    for previous in ("model.ckpt", "log.json"):
        (tmp_path / previous).write_bytes(b"previous")
    failing_replace_of(name, monkeypatch)
    with pytest.raises(OSError, match="No space"):
        main(["train", "--config", str(tmp_path / "train.json"),
              "--manifest", str(corpus_dir / "manifest.jsonl"),
              "--out", str(tmp_path / "model.ckpt"), "--log", str(tmp_path / "log.json")])
    assert (tmp_path / name).read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.json", "model.ckpt", "train.json"]


def test_eval_that_fails_to_write_its_report_keeps_the_previous_bytes(trained_ckpt, corpus_dir,
                                                                      tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    report.write_bytes(b"previous")
    failing_replace_of("report.json", monkeypatch)
    with pytest.raises(OSError, match="No space"):
        main(["eval", "--ckpt", str(trained_ckpt), "--manifest", str(corpus_dir / "manifest.jsonl"),
              "--split", "val", "--report", str(report), "--beam", "4"])
    assert report.read_bytes() == b"previous"
    assert list(tmp_path.iterdir()) == [report]


@pytest.mark.parametrize("command", ["decode", "eval"])
@pytest.mark.parametrize("option", [("--lm-weight", "nan"), ("--lm-weight", "inf"),
                                    ("--beam", "0")], ids=lambda o: " ".join(o))
def test_bad_search_option_exits_1_before_loading(tmp_path, capsys, command, option):
    # the checkpoint does not exist: loading it would be a data error (exit 2)
    rest = {"decode": ["--wav", str(tmp_path / "a.wav")],
            "eval": ["--manifest", str(tmp_path / "m.jsonl"), "--report", str(tmp_path / "r")]}
    with pytest.raises(SystemExit) as exc:
        main([command, "--ckpt", str(tmp_path / "missing.ckpt"), *rest[command], *option])
    assert exc.value.code == 1
    assert f"argument {option[0]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["features", "decode", "eval", "gradcheck"])
def test_seed_is_rejected_where_nothing_reads_it(tmp_path, capsys, command):
    # only corpusgen and train have a config seed for --seed to override
    args = {"features": ["a.wav", "--out", "f.ckpt"],
            "decode": ["--ckpt", "m.ckpt", "--wav", "a.wav"],
            "eval": ["--ckpt", "m.ckpt", "--manifest", "m.jsonl", "--report", "r.json"],
            "gradcheck": ["--seeds", "1"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *args[command], "--seed", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# the LM widths that were LmConfig's defaults before the width sweep
EARLIER_LM = LmConfig(embed_dim=64, lstm1_units=128, lstm2_units=64)


@pytest.fixture(scope="module")
def earlier_lm_ckpt(tmp_path_factory, trained_ckpt):
    """trained_ckpt with a drawn LM of EARLIER_LM's widths, which its config names."""
    ckpt = load_checkpoint(trained_ckpt)
    lm = build_lm(TokenVocab(list(ckpt.vocab), ckpt.config["granularity"]), EARLIER_LM, seed=0)
    tensors = {name: a for name, a in ckpt.tensors.items() if not name.startswith("lm.")}
    tensors.update(("lm." + name, t.data) for name, t in lm.items())
    config = {**ckpt.config, "lm": dataclasses.asdict(EARLIER_LM)}
    path = tmp_path_factory.mktemp("cli_earlier_lm") / "model.ckpt"
    save_checkpoint(Checkpoint(config, ckpt.inventory_lines, ckpt.vocab, tensors,
                               ckpt.best_metric, ckpt.epoch), path)
    return path


def test_decode_prints_words(trained_ckpt, earlier_lm_ckpt, phone_lm_ckpt, corpus_dir, capsys):
    # the LM's widths and token granularity come from the checkpoint's
    # config, not from LmConfig() or TrainConfig()
    assert EARLIER_LM != LmConfig()
    cfg, *_, lm, _ = restore_models(load_checkpoint(earlier_lm_ckpt))
    assert cfg.lm == EARLIER_LM and lm["lstm1.W_hh"].data.shape == (512, 128)
    cfg, inventory, vocab, *_ = restore_models(load_checkpoint(phone_lm_ckpt))
    assert cfg.granularity == vocab.granularity == "phone"
    assert vocab.tokens[len(SPECIALS):] == inventory.symbols()
    wav = sorted((corpus_dir / "wav").glob("*.wav"))[0]
    for ckpt in (trained_ckpt, earlier_lm_ckpt, phone_lm_ckpt):
        assert main(["decode", "--ckpt", str(ckpt), "--wav", str(wav), "--beam", "4"]) == 0
        out = capsys.readouterr().out.strip()
        assert isinstance(out, str)  # possibly empty for an undertrained model


def test_decode_wav_too_short_for_any_word_exits_2(trained_ckpt, tmp_path, capsys):
    wav = tmp_path / "short.wav"
    write_pcm(wav, 0.1 * np.sin(np.arange(960) / 5.0))  # 60 ms: one posterior frame
    assert main(["decode", "--ckpt", str(trained_ckpt), "--wav", str(wav)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too short for any word (1 posterior frames" in captured.err


def test_decode_wav_that_is_a_directory_exits_2(trained_ckpt, tmp_path, capsys):
    assert main(["decode", "--ckpt", str(trained_ckpt), "--wav", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{tmp_path}: not a readable PCM WAV file" in captured.err


def test_decode_incomplete_search_exits_3(trained_ckpt, corpus_dir, monkeypatch, capsys):
    decoder = importlib.import_module("shona_asr.decoder")
    monkeypatch.setattr(decoder, "beam_decode",
                        lambda *args, **kwargs: decoder.Transcript(words=[], complete=False))
    wav = sorted((corpus_dir / "wav").glob("*.wav"))[0]
    assert main(["decode", "--ckpt", str(trained_ckpt), "--wav", str(wav), "--beam", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no hypothesis at a word boundary at beam 4" in captured.err


def test_eval_writes_report(trained_ckpt, corpus_dir, tmp_path, caplog):
    caplog.set_level(logging.DEBUG)
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", str(trained_ckpt),
                 "--manifest", str(corpus_dir / "manifest.jsonl"),
                 "--split", "val", "--report", str(report), "--beam", "4", "--verbose"]) == 0
    obj = json.loads(report.read_text())
    assert set(obj) == {"wer", "per", "ser", "word_accuracy", "sentence_accuracy",
                        "n_utts", "n_ref_words", "n_ref_phones", "greedy_per", "greedy_wer",
                        "incomplete", "search"}
    assert set(obj["search"]) == {"frames", "candidates_generated", "candidates_pruned",
                                  "lm_step_calls", "lm_rows_stepped", "lm_cache_hits"}
    assert obj["search"]["frames"] > 0 and 0 <= obj["incomplete"] <= obj["n_utts"]
    # wall time and the real-time factor go to the verbose log, never into the report
    assert "real-time factor" in caplog.text
    assert "real" not in report.read_text()


def test_corrupted_checkpoint_exits_3(trained_ckpt, corpus_dir, tmp_path):
    blob = bytearray(trained_ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    wav = sorted((corpus_dir / "wav").glob("*.wav"))[0]
    assert main(["decode", "--ckpt", str(bad), "--wav", str(wav)]) == 3


def test_gradcheck_command_small():
    assert main(["gradcheck", "--seeds", "2"]) == 0
