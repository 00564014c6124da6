"""Command-line surface: asr features | corpusgen | train | decode | eval | gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric or
verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import DataError, VerificationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="asr", description="Shona speech recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("features", help="extract stacked MFCC features from a WAV file")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("corpusgen", help="generate a synthetic CV-syllable corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    common(p)

    p = sub.add_parser("train", help="train acoustic and language models")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="write the per-epoch log as JSON")
    common(p)

    p = sub.add_parser("decode", help="decode one WAV file with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--lm-weight", type=float, default=None)
    p.add_argument("--beam", type=int, default=None)
    common(p)

    p = sub.add_parser("eval", help="score a manifest split against a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--report", required=True)
    p.add_argument("--lm-weight", type=float, default=None)
    p.add_argument("--beam", type=int, default=None)
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
                      tensors={"features": feats.values.astype("float32")})
    save_checkpoint(ckpt, args.out)
    print(f"wrote {feats.n_frames}x{feats.dim} features to {args.out}")
    return EXIT_OK


def _cmd_corpusgen(args) -> int:
    from .corpusgen import GenConfig
    from .corpusgen import generate_corpus
    from .train import _config_from_dict

    obj = _load_json(args.config)
    if args.seed is not None:
        obj["seed"] = args.seed
    cfg = _config_from_dict(GenConfig, obj, path="config")
    manifest = generate_corpus(cfg, args.out_dir)
    print(f"generated {len(manifest)} utterances "
          f"({manifest.total_duration_s():.1f} s) under {args.out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .manifest import load_manifest
    from .train import TrainConfig, train

    obj = _load_json(args.config)
    if args.seed is not None:
        obj["seed"] = args.seed
    cfg = TrainConfig.from_dict(obj)
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
        Path(args.log).write_text(log_text)
    last = result.epoch_log[-1] if result.epoch_log else {}
    print(f"trained {len(result.epoch_log)} epochs "
          f"(best epoch {result.best_epoch}, val PER {result.checkpoint.best_metric}); "
          f"early stop: {result.stopped_early}; last val_per={last.get('val_per')}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    from .acoustic import posteriors
    from .audio import load_wav
    from .checkpoint import load_checkpoint
    from .decoder import beam_decode
    from .features import extract_features
    from .train import restore_models

    ckpt = load_checkpoint(args.ckpt)
    cfg, _, vocab, acoustic_params, lm_params, lexicon = restore_models(ckpt)
    lam = cfg.decode.lm_weight if args.lm_weight is None else args.lm_weight
    beam = cfg.decode.beam_width if args.beam is None else args.beam
    feats = extract_features(load_wav(args.wav))
    grid = posteriors(acoustic_params, feats, cfg.acoustic)
    hyp = beam_decode(grid, lexicon, lm_params, vocab, lm_weight=lam,
                      word_bonus=cfg.decode.word_bonus, beam_width=beam)
    print(hyp.text())
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint
    from .manifest import load_manifest, split_corpus
    from .train import evaluate, restore_models

    ckpt = load_checkpoint(args.ckpt)
    manifest = load_manifest(args.manifest)
    if args.split == "all":
        part = manifest
    else:
        cfg, *_ = restore_models(ckpt)
        splits = dict(zip(("train", "val", "test"),
                          split_corpus(manifest, cfg.split_ratios, cfg.seed)))
        part = splits[args.split]
    result = evaluate(ckpt, part, lm_weight=args.lm_weight, beam_width=args.beam)
    Path(args.report).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
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


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{p}: config must be a JSON object")
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
