"""Command-line surface: asr features | corpusgen | train | decode | eval | gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric or
verification failure. `asr decode` exits 2 when the audio is too short for
any word and 3 when the search ends with no hypothesis at a word boundary.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

from .errors import DataError, VerificationError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no abbreviated options: `gradcheck --seed 9` would otherwise mean `--seeds 9`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="asr", description="Shona speech recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed: bool = False):
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("features", help="extract stacked MFCC features from a WAV file")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("corpusgen", help="generate a synthetic CV-syllable corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    common(p, seed=True)

    p = sub.add_parser("train", help="train acoustic and language models")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="write the per-epoch log as JSON")
    common(p, seed=True)

    p = sub.add_parser("decode", help="decode one WAV file with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--lm-weight", type=finite_float, default=None)
    p.add_argument("--beam", type=positive_int, default=None)
    common(p)

    p = sub.add_parser("eval", help="score a manifest split against a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--report", required=True)
    p.add_argument("--lm-weight", type=finite_float, default=None)
    p.add_argument("--beam", type=positive_int, default=None)
    common(p)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=50)
    common(p)
    return parser


def _cmd_features(args) -> int:
    from .audio import load_wav
    from .checkpoint import Checkpoint, save_checkpoint
    from .features import extract_features

    feats = extract_features(load_wav(args.wav))
    ckpt = Checkpoint(config={"kind": "feature-dump", "source": str(args.wav)},
                      inventory_lines=[], vocab=[],
                      tensors={"features": feats.astype("float32")})
    save_checkpoint(ckpt, args.out)
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} features to {args.out}")
    return EXIT_OK


def _cmd_corpusgen(args) -> int:
    from .corpusgen import GenConfig
    from .corpusgen import generate_corpus
    from .train import _config_from_dict

    cfg = _config_from_dict(GenConfig, _load_config(args), path="config")
    manifest = generate_corpus(cfg, args.out_dir)
    print(f"generated {len(manifest)} utterances "
          f"({manifest.total_duration_s():.1f} s) under {args.out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .checkpoint import save_checkpoint, write_atomic
    from .manifest import load_manifest
    from .train import TrainConfig, train

    cfg = TrainConfig.from_dict(_load_config(args))
    manifest = load_manifest(args.manifest)
    result = train(cfg, manifest)
    log_text = None
    if args.log:
        try:
            log_text = json.dumps(result.epoch_log, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise VerificationError(f"epoch log holds a non-finite value ({exc})") from exc
    save_checkpoint(result.checkpoint, args.out)
    if log_text is not None:
        write_atomic(args.log, log_text.encode())
    last = result.epoch_log[-1] if result.epoch_log else {}
    print(f"trained {len(result.epoch_log)} epochs "
          f"(best epoch {result.best_epoch}, val PER {result.checkpoint.best_metric}); "
          f"early stop: {result.stopped_early}; last val_per={last.get('val_per')}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    from .acoustic import acoustic_forward
    from .audio import load_wav
    from .checkpoint import load_checkpoint
    from .decoder import beam_decode
    from .features import extract_features
    from .train import restore_models

    ckpt = load_checkpoint(args.ckpt)
    cfg, _, vocab, acoustic_params, lm_params, lexicon = restore_models(ckpt)
    lam = cfg.decode.lm_weight if args.lm_weight is None else args.lm_weight
    beam = cfg.decode.beam_width if args.beam is None else args.beam
    started = time.perf_counter()
    wav = load_wav(args.wav)
    grid = acoustic_forward(acoustic_params, extract_features(wav), cfg.acoustic).data
    hyp = beam_decode(grid, lexicon, lm_params, vocab, lm_weight=lam,
                      word_bonus=cfg.decode.word_bonus, beam_width=beam)
    wall_s = time.perf_counter() - started
    log.debug(
        "decoded %.2f s of audio in %.3f s, real-time factor %.3f; search: %s",
        wav.duration_s, wall_s, wall_s / wav.duration_s, hyp.stats)
    if not hyp.complete:
        if len(grid) < lexicon.min_frames:
            raise DataError(f"{args.wav}: the audio is too short for any word ({len(grid)} "
                            f"posterior frames; the shortest word needs {lexicon.min_frames})")
        raise VerificationError(f"no hypothesis at a word boundary at beam {beam}")
    print(hyp.text())
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint, write_atomic
    from .manifest import load_manifest, split_corpus
    from .train import TrainConfig, evaluate

    ckpt = load_checkpoint(args.ckpt)
    manifest = load_manifest(args.manifest)
    if args.split == "all":
        part = manifest
    else:
        cfg = TrainConfig.from_dict(ckpt.config)
        splits = dict(zip(("train", "val", "test"),
                          split_corpus(manifest, cfg.split_ratios, cfg.seed)))
        part = splits[args.split]
    result = evaluate(ckpt, part, lm_weight=args.lm_weight, beam_width=args.beam)
    write_atomic(args.report, (json.dumps(result.to_dict(), indent=2) + "\n").encode())
    print(result.report.to_table())
    print(f"greedy_per         {result.greedy_per:>10.4f}")
    print(f"greedy_wer         {result.greedy_wer:>10.4f}")
    print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .verify import gradient_suite_passes, run_gradient_suite

    results = run_gradient_suite(n_seeds=args.seeds, verbose=True)
    if not gradient_suite_passes(results):
        print("gradient suite FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print("gradient suite passed")
    return EXIT_OK


def _load_config(args) -> dict:
    """The `--config` JSON object, its seed replaced by `--seed` when that is given."""
    p = Path(args.config)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{p}: config must be a JSON object")
    if args.seed is not None:
        obj["seed"] = args.seed
    return obj


_COMMANDS = {
    "features": _cmd_features,
    "corpusgen": _cmd_corpusgen,
    "train": _cmd_train,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
