"""End-to-end training, warm starting, and evaluation.

One epoch loop trains the acoustic model (CTC) and the language model
(teacher forcing) with independent optimizers, monitors validation PER
from greedy decoding, and early-stops with patience. Training runs in up
to three processes, forked once per run (so it needs the `fork` start
method, which Linux has), with both models' tensors in one shared memory
mapping made before the forks:

- an LM process owns the LM's Adam moments and runs each epoch's LM pass
  and LM validation while this process runs the acoustic ones. The two
  models share no tensor, optimizer or input.
- an acoustic worker takes part of each batch. The training utterances
  that can complete the pending batch are split in two: this process runs
  the first half and the worker the rest, at the same time and with the
  same parameters, each through the same per-utterance function (augment,
  features, forward, CTC and backward). This process merges the outcomes
  in utterance order (too short, non-finite, or a loss and that
  utterance's gradients), so the counts, the loss sums, the update
  boundaries and each gradient sum are those of one serial loop, bit for
  bit. It then runs the optimizer step, whose in-place update the worker
  reads through the shared mapping. A batch of one has nothing to split,
  and forks no worker.

Validation, and the train-PER pass of a `target_train_per` run, read the
acoustic model through a read-only view of the same arrays, so they build
no graph, and score CTC with the forward recursion alone.

While a function of the LM's code is replaced (by a tracer's wrapper,
say), this process trains the LM itself, so that the wrapper sees its
calls; the results are the same. The acoustic worker forks whatever has
been replaced, so such a wrapper sees this process's share of the
acoustic calls only. Both models train in float32;
the CTC recursion and the loss totals sum in float64. The corpus is held
as each WAV's int16 samples, which an utterance decodes to float64 each
time its audio is read. The best epoch is kept as a read-only copy of its
tensors, which its checkpoint holds.

The whole run is a pure function of (config, manifest), whatever the
host's core count or `OPENBLAS_NUM_THREADS`: OpenBLAS is pinned to one
thread for the duration of `train()` (and so in the forked processes),
and its previous thread count is restored afterwards. The sums of a
multi-threaded BLAS depend on how it splits them, and one thread per
process is also what a 2-core host can run without oversubscription.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import logging
import math
import mmap
import multiprocessing
import signal
import time
import traceback
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad, lm as lm_module, optim as optim_module
from .acoustic import (AcousticConfig, acoustic_forward, acoustic_layout, build_acoustic_model,
                       output_frames)
from .audio import AudioBuffer, decode_pcm, read_pcm
from .augment import AugmentPolicy, augment_audio, spec_augment
from .checkpoint import Checkpoint, load_checkpoint, params_hash
from .ctc import ctc_forward_logprob, ctc_greedy_decode, ctc_loss, min_frames
from .decoder import DecodeStats, beam_decode
from .errors import DataError, VerificationError, WorkerError, unknown_keys
from .features import extract_features
from .lexicon import Lexicon, build_lexicon
from .lm import (GRANULARITIES, LmConfig, TokenVocab, build_lm, corpus_loss, lm_layout, lm_train,
                 word_tokens)
from .manifest import CorpusManifest, split_corpus
from .metrics import MetricsReport, normalize_text, per, report, wer
from .optim import OptimizerConfig, OptimizerState, optimizer_step
from .phones import PhoneInventory, default_inventory

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    lm_weight: float = 1.0
    word_bonus: float = 0.0
    beam_width: int = 16

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        for name in ("lm_weight", "word_bonus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class TrainConfig:
    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    epochs_max: int = 100
    patience: int = 10
    batch_size: int = 4
    granularity: str = "phone"  # LM token granularity, one of GRANULARITIES
    target_train_per: float | None = None  # optional convergence shortcut
    lexicon_words: list[str] | None = None  # default: all manifest words
    warm_start_path: str | None = None
    freeze: tuple[str, ...] = ()
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    lm_optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    acoustic: AcousticConfig = field(default_factory=AcousticConfig)
    lm: LmConfig = field(default_factory=LmConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self):
        if self.epochs_max < 1:
            raise ValueError("epochs_max must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}")
        if min(self.split_ratios) < 0:
            raise ValueError(f"split ratios must not be negative, got {self.split_ratios}")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {self.split_ratios}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return _config_from_dict(cls, obj, path="config")


def _config_from_dict(cls, obj, path: str):
    """Build a config dataclass from JSON, led by its field annotations.

    Every value is checked against its field's annotation (see
    `_decode_value`); a mismatch is a DataError naming the field.
    """
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise DataError(f"{path}: {unknown_keys(unknown)}")
    kwargs = {name: _decode_value(hints[name], value, f"{path}.{name}")
              for name, value in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _decode_value(hint, value, path: str):
    """Check one JSON value against a field annotation and convert it.

    Handles dataclasses (decoded recursively), bool, int, float (an int is
    accepted), str, `X | None`, `list[X]` and `tuple[...]` (a JSON list
    becomes a tuple). A bool is not accepted as an int or a float. An error
    names the field and the value's type, never the value itself, which
    can be arbitrarily long or deep.
    """
    if dataclasses.is_dataclass(hint):
        return _config_from_dict(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode_value(inner, value, path)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{path}: expected a list, got {_type_name(value)}")
        if origin is list or args[-1:] == (Ellipsis,):
            items = [args[0]] * len(value)
        elif len(value) != len(args):
            raise DataError(f"{path}: expected {len(args)} items, got {len(value)}")
        else:
            items = args
        decoded = [_decode_value(h, v, f"{path}[{i}]")
                   for i, (h, v) in enumerate(zip(items, value))]
        return decoded if origin is list else tuple(decoded)
    kinds = _SCALARS[hint]
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, kinds):
        raise DataError(f"{path}: expected {hint.__name__}, got {_type_name(value)}")
    return value


def _type_name(value) -> str:
    """The type of a JSON value, for an error message that must stay short whatever the value."""
    return "null" if value is None else type(value).__name__


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

@dataclass
class WarmStart:
    acoustic: ad.Parameters
    lm: ad.Parameters
    reinitialized: list[str]


def warm_start(ckpt: Checkpoint, n_phones: int, vocab: TokenVocab,
               acoustic_cfg: AcousticConfig, lm_cfg: LmConfig, seed: int = 0) -> WarmStart:
    """Initialize new float32 models, for training, from a checkpoint.

    Tensors whose name and shape match are copied. Output layers may
    legitimately differ (new phone set or vocab) and stay freshly
    initialized; any other shape mismatch is an error, which names the
    fields of the model's config that differ from the checkpoint's own.
    """
    new_acoustic = build_acoustic_model(acoustic_cfg, n_phones, seed)
    new_lm = build_lm(vocab, lm_cfg, seed + 1)
    _to_float32(new_acoustic, new_lm)
    reinitialized = []
    for section, new_params, cfg in (("acoustic", new_acoustic, acoustic_cfg),
                                     ("lm", new_lm, lm_cfg)):
        prefix = section + "."
        for name, tensor in new_params.items():
            old = ckpt.tensors.get(prefix + name)
            if old is None:
                reinitialized.append(prefix + name)
            elif old.shape == tensor.data.shape:
                tensor.data[...] = old
            elif name.startswith(("out.", "embed.")):
                reinitialized.append(prefix + name)
            else:
                raise DataError(f"incompatible hidden-layer shape for {prefix}{name}: "
                                f"checkpoint {old.shape} vs model {tensor.data.shape}"
                                + _config_differences(ckpt.config, section, cfg))
    return WarmStart(new_acoustic, new_lm, reinitialized)


def _config_differences(saved: dict, section: str, cfg) -> str:
    """The fields of cfg that the saved config's section sets otherwise, as a message tail."""
    saved = saved.get(section)
    if not isinstance(saved, dict):
        return ""
    differ = [f.name for f in dataclasses.fields(cfg)
              if f.name in saved and saved[f.name] != getattr(cfg, f.name)]
    if not differ:
        return ""
    return (f"; the checkpoint's {section} config has "
            + ", ".join(f"{n}={saved[n]!r}" for n in differ) + " (this model: "
            + ", ".join(f"{n}={getattr(cfg, n)!r}" for n in differ) + ")")


def _to_float32(*models: ad.Parameters) -> None:
    """Cast every tensor of the models to float32, the dtype training runs in."""
    for params in models:
        for _, t in params.items():
            t.data = t.data.astype(np.float32)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class EarlyStopper:
    """Patience counter over a to-be-minimized validation metric.

    An epoch improves only when strictly below the best seen; training
    stops once `patience` consecutive epochs fail to improve.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_value = float("inf")
        self.best_epoch = 0
        self.stale = 0

    def update(self, value: float, epoch: int) -> bool:
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class Utterance:
    """A transcribed utterance whose audio is held as its WAV's int16 samples."""

    utt_id: str
    pcm: np.ndarray  # int16, at sample_rate_hz, as `read_pcm` returns them
    sample_rate_hz: int
    words: list[str]
    phones: list[int]

    @property
    def audio(self) -> AudioBuffer:
        """The samples as `load_wav` gives them, float64 at 16 kHz, decoded on each use."""
        return decode_pcm(self.pcm, self.sample_rate_hz)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_log: list[dict]
    best_epoch: int
    stopped_early: bool
    best_hash: str


def _prepare_utterances(manifest: CorpusManifest, lexicon: Lexicon) -> tuple[list[Utterance], int]:
    """Read each WAV's samples and derive phone targets; drop utterances g2p cannot cover."""
    out = []
    skipped = 0
    for rec in manifest:
        words = normalize_text(rec.text)
        if not words or any(w not in lexicon for w in words):
            log.warning("skipping %s: transcript not covered by the lexicon", rec.utt_id)
            skipped += 1
            continue
        phones = [p for w in words for p in lexicon.pronunciations[w]]
        out.append(Utterance(rec.utt_id, *read_pcm(rec.audio), words, phones))
    return out, skipped


def _base_features(utts: list[Utterance], dtype) -> dict[str, np.ndarray]:
    """Each utterance's unaugmented features by utt_id, in the acoustic model's `dtype`.

    `acoustic_forward` casts its features to that dtype, so holding them
    cast makes the same values, once instead of on every forward pass.
    """
    return {u.utt_id: extract_features(u.audio).astype(dtype) for u in utts}


def _lm_sentences(utts: list[Utterance], lexicon: Lexicon, granularity: str) -> list[list[str]]:
    return [[tok for w in utt.words
             for tok in word_tokens(w, lexicon.phone_symbols(w), granularity)]
            for utt in utts]


@functools.lru_cache(maxsize=1)
def _openblas_thread_calls():
    """The loaded OpenBLAS's (get_num_threads, set_num_threads), or None.

    The library is found among the files this process has mapped, and the
    calls under the names numpy's wheels (`scipy_openblas*`) or a system
    OpenBLAS give them. None when numpy runs on another BLAS.
    """
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
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore its thread count after."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


class _Code:
    """The functions of `modules`, as bound when this module was imported.

    A tracer or profiler replaces them with wrappers that record into the
    memory of the process that calls them, which a forked process's
    records never reach.
    """

    def __init__(self, modules: tuple[types.ModuleType, ...]):
        self._modules = modules
        self._imported = self._bound()

    def _bound(self) -> dict:
        return {(mod.__name__, name): value for mod in self._modules
                for name, value in vars(mod).items() if isinstance(value, types.FunctionType)}

    def replaced(self) -> bool:
        return self._bound() != self._imported


def _serve(conn, parent_end, name: str, serve) -> None:
    """A worker process: answers each request, a tuple of arguments, with `serve(*request)`.

    An exception `serve` raises is sent as the reply, with a note that holds
    its traceback; a reply that cannot be pickled ends the process, which
    the caller reports. A closed pipe ends the process. Ctrl-C is left to
    the caller, which kills the process.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()  # so that a caller that dies closes the pipe
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            reply = serve(*request)
        except Exception as exc:
            exc.add_note(f"in the {name} process:\n" + traceback.format_exc().rstrip())
            reply = exc
        conn.send(reply)


class _Worker:
    """Calls `serve(*request)` in a forked process, one call per `submit(*request)`.

    The process inherits everything `serve` reads. `result()` waits for
    the reply to the last request; an exception raised in the process is
    raised again here, except a MemoryError, which is a WorkerError naming
    the process, as is a process that exits without answering (with its
    exit code). Leaving the `with` block ends the process: it is closed
    after a normal exit and killed after an exception, and joined either
    way.

    With `fork` false, no process is forked: `result()` calls `serve`
    here, so that what a tracer's wrappers record stays in this process.
    The replies are the same either way.
    """

    def __init__(self, name: str, serve, fork: bool = True):
        self.name, self._serve = name, serve
        self._process = self._request = None
        if not fork:
            return
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(target=_serve, name=name, daemon=True,
                                        args=(child_end, self._conn, name, serve))
        self._process.start()
        child_end.close()

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._process is None:
            return
        if exc_type is not None:
            self._process.kill()
        self._conn.close()
        self._process.join()

    def submit(self, *request) -> None:
        if self._process is None:
            self._request = request
        else:
            self._conn.send(request)

    def result(self):
        if self._process is None:
            return self._serve(*self._request)
        try:
            reply = self._conn.recv()
        except EOFError:
            self._process.join()
            raise WorkerError(f"the {self.name} process exited with code "
                              f"{self._process.exitcode} without answering") from None
        if isinstance(reply, MemoryError):
            raise WorkerError(f"the {self.name} process ran out of memory") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply


def _shared_arrays(templates: list[np.ndarray]) -> list[np.ndarray]:
    """Zeroed arrays shaped and typed like `templates`, in one MAP_SHARED anonymous mapping.

    A process forked afterwards maps the same pages, so each process reads
    what the other writes there, with no copy. Each array starts at a
    multiple of 64 bytes.
    """
    offsets, end = [], 0
    for a in templates:
        offsets.append(end)
        end += -(-a.nbytes // 64) * 64
    mapping = mmap.mmap(-1, max(end, 1), flags=mmap.MAP_SHARED)
    return [np.frombuffer(mapping, a.dtype, a.size, offset).reshape(a.shape)
            for a, offset in zip(templates, offsets)]


def _share(*models: ad.Parameters) -> None:
    """Move every tensor of the models into shared memory (see `_shared_arrays`)."""
    tensors = [t for params in models for _, t in params.items()]
    for t, shared in zip(tensors, _shared_arrays([t.data for t in tensors])):
        shared[...] = t.data
        t.data = shared


def _lm_epoch(params: ad.Parameters, opt: OptimizerState, vocab: TokenVocab,
              train_sents: list[list[str]], val_sents: list[list[str]]) -> tuple[float, float]:
    """One LM epoch and its validation loss: (train_lm_ce, val_lm_ce)."""
    return (lm_train(params, train_sents, vocab, epochs=1, optimizer=opt)[0],
            corpus_loss(params, val_sents, vocab))


_TOO_SHORT, _NON_FINITE = "too short", "non-finite"


def _acoustic_outcome(params: ad.Parameters, cfg: TrainConfig, utts: list[Utterance],
                      base_feats: dict | None, kept: list, epoch: int, i: int):
    """Augment, extract, forward, CTC and backward for training utterance `i`.

    `base_feats` holds the unaugmented features, which an identity augment
    policy trains on; None means augmenting. Returns _TOO_SHORT,
    _NON_FINITE (no backward pass then) or the loss, a float, whose
    gradients accumulate in the parameters' `.grad`.

    `kept` holds the last utterance's graph until the next one's forward
    pass is built, as a plain loop's variables would. Freed earlier, it
    leaves the heap top free, which glibc hands back to the OS and the next
    utterance faults in again; held through the next backward pass, it
    raises the peak memory.
    """
    utt = utts[i]
    if base_feats is not None:
        feats = base_feats[utt.utt_id]
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(cfg.augment.seed, epoch, i)))
        audio = augment_audio(utt.audio, cfg.augment, rng)
        feats = spec_augment(extract_features(audio), cfg.augment, rng)
    if output_frames(feats.shape[0]) < min_frames(utt.phones):
        return _TOO_SHORT
    loss = ctc_loss(acoustic_forward(params, feats, cfg.acoustic), utt.phones)
    kept[:] = [loss]
    if not np.isfinite(loss.data):
        return _NON_FINITE
    ad.backward(loss)
    return float(loss.data)


def _worker_outcomes(run, trainable: list[ad.Tensor], slots: list[list[np.ndarray]],
                     epoch: int, indices) -> list:
    """The acoustic worker's reply: the outcome of `run` for each of its utterances.

    The k-th utterance's gradients, one per trainable tensor, move into
    `slots[k]` and are cleared here, so that a reply carries only outcomes.
    """
    outcomes = []
    for i, slot in zip(indices, slots):
        outcome = run(epoch, i)
        if isinstance(outcome, float):
            for t, grad in zip(trainable, slot):
                np.copyto(grad, t.grad)
                t.grad = None
        outcomes.append(outcome)
    return outcomes


def _gradient_slots(trainable: list[ad.Tensor], n: int) -> list[list[np.ndarray]]:
    """`n` lists of shared arrays shaped like the trainable tensors, one per utterance of a request."""
    arrays = _shared_arrays([t.data for t in trainable] * n)
    return [arrays[k * len(trainable):(k + 1) * len(trainable)] for k in range(n)]


@dataclass
class _AcousticTally:
    """An epoch's acoustic outcomes, merged in utterance order, and the pending batch's count.

    The pending batch's gradient sums are the parameters' `.grad`.
    """

    loss_sum: float = 0.0
    scored: int = 0
    too_short: int = 0
    non_finite: int = 0  # a non-finite loss, or in a batch with a non-finite gradient
    pending: int = 0

    def add(self, outcome) -> None:
        if outcome == _TOO_SHORT:
            self.too_short += 1
        elif outcome == _NON_FINITE:
            self.non_finite += 1
        else:
            self.loss_sum += outcome
            self.scored += 1
            self.pending += 1

    def update(self, opt: OptimizerState, params: ad.Parameters) -> None:
        """One optimizer step from the pending gradients, unless one is non-finite.

        A non-finite gradient drops the update, clears the gradients and
        counts the pending utterances as non-finite.
        """
        if all(t.grad is None or np.isfinite(t.grad).all() for _, t in params.items()):
            optimizer_step(opt, params)
        else:
            params.zero_grad()
            self.non_finite += self.pending
        self.pending = 0


_LM_CODE = _Code((lm_module, ad, optim_module))


@_one_blas_thread()
def train(cfg: TrainConfig, manifest: CorpusManifest) -> TrainResult:
    """Joint training run; returns the checkpoint of the best epoch."""
    inventory = default_inventory()
    train_m, val_m, _ = split_corpus(manifest, cfg.split_ratios, cfg.seed)

    words = cfg.lexicon_words
    if words is None:
        words = sorted({w for rec in manifest for w in normalize_text(rec.text)})
    lexicon = build_lexicon(words, inventory)
    for word, reason in lexicon.skipped:
        log.warning("lexicon drops %r: %s", word, reason)

    if cfg.granularity == "word":
        vocab = TokenVocab.build(lexicon.words(), "word")
    else:
        vocab = TokenVocab.build(inventory.symbols(), "phone")

    seed_seq = np.random.SeedSequence(cfg.seed)
    seeds = [int(s.generate_state(1)[0]) for s in seed_seq.spawn(2)]
    if cfg.warm_start_path is not None:
        ws = warm_start(load_checkpoint(cfg.warm_start_path), len(inventory), vocab,
                        cfg.acoustic, cfg.lm, seeds[0])
        acoustic_params, lm_params = ws.acoustic, ws.lm
        if ws.reinitialized:
            log.info("warm start reinitialized: %s", ", ".join(ws.reinitialized))
    else:
        acoustic_params = build_acoustic_model(cfg.acoustic, len(inventory), seeds[0])
        lm_params = build_lm(vocab, cfg.lm, seeds[1])
        _to_float32(acoustic_params, lm_params)

    # both models' tensors under their checkpoint names
    named = [*(("acoustic." + n, t) for n, t in acoustic_params.items()),
             *(("lm." + n, t) for n, t in lm_params.items())]
    # a frozen tensor gets no gradient, so the optimizer leaves it as it is
    for prefix in cfg.freeze:
        frozen = [t for name, t in named if name.startswith(prefix)]
        if not frozen:
            raise DataError(f"config.freeze: {prefix!r} matches no tensor (names look like "
                            f"'acoustic.conv1.kernels' or 'lm.embed.W')")
        for t in frozen:
            t.requires_grad = False
    ac_opt = OptimizerState(cfg.optimizer)
    lm_opt = OptimizerState(cfg.lm_optimizer)

    train_utts, n_skipped = _prepare_utterances(train_m, lexicon)
    val_utts, _ = _prepare_utterances(val_m, lexicon)
    if not train_utts or not val_utts:
        raise DataError("no usable training or validation utterances")
    if n_skipped > len(train_m) / 2:
        raise DataError(f"{n_skipped} of {len(train_m)} training utterances unusable; aborting")

    identity_augment = cfg.augment.is_identity()
    # an augmenting epoch extracts its own training features, so only the
    # identity policy and the train-PER pass read the unaugmented ones
    keep_train = identity_augment or cfg.target_train_per is not None
    base_feats = _base_features((train_utts if keep_train else []) + val_utts,
                                acoustic_params["conv1.kernels"].data.dtype)
    lm_train_sents = _lm_sentences(train_utts, lexicon, vocab.granularity)
    lm_val_sents = _lm_sentences(val_utts, lexicon, vocab.granularity)

    stopper = EarlyStopper(cfg.patience)
    best_tensors = None
    epoch_log: list[dict] = []
    stopped_early = False

    _share(acoustic_params, lm_params)  # before any fork, so that the workers see each update
    acoustic_view = acoustic_params.read_only()  # reads each update, as the workers do
    run_utterance = functools.partial(_acoustic_outcome, acoustic_params, cfg, train_utts,
                                      base_feats if identity_augment else None, [])
    trainable = [t for _, t in acoustic_params.items() if t.requires_grad]
    with contextlib.ExitStack() as workers:
        lm = workers.enter_context(_Worker("LM training", functools.partial(
            _lm_epoch, lm_params, lm_opt, vocab, lm_train_sents, lm_val_sents),
            fork=not _LM_CODE.replaced()))
        # a batch of one has nothing to split, so it needs no acoustic worker
        if cfg.batch_size > 1:
            slots = _gradient_slots(trainable, cfg.batch_size // 2)
            acoustic = workers.enter_context(_Worker("acoustic training", functools.partial(
                _worker_outcomes, run_utterance, trainable, slots)))
        for epoch in range(1, cfg.epochs_max + 1):
            lm.submit()  # the LM's pass and validation run beside the acoustic ones
            # -- acoustic pass -------------------------------------------------
            # The utterances that can complete the pending batch are split in
            # two: this process runs the first half while the acoustic worker
            # runs the rest with the same parameters. Merging the outcomes in
            # utterance order gives the serial loop's counts, sums and updates:
            # a backward pass adds to each trainable tensor once, so adding a
            # worker utterance's gradients here keeps each sum ((G1+G2)+G3)+G4.
            tally = _AcousticTally()
            start = 0
            while start < len(train_utts):
                group = range(start, min(start + cfg.batch_size - tally.pending, len(train_utts)))
                start = group.stop
                half = (len(group) + 1) // 2
                mine, theirs = group[:half], group[half:]
                if theirs:
                    acoustic.submit(epoch, theirs)
                for i in mine:
                    tally.add(run_utterance(epoch, i))
                if theirs:
                    for outcome, slot in zip(acoustic.result(), slots):
                        tally.add(outcome)
                        if isinstance(outcome, float):
                            for t, grad in zip(trainable, slot):
                                ad._accumulate(t, grad)
                if tally.pending >= cfg.batch_size:
                    tally.update(ac_opt, acoustic_params)
            if tally.pending:
                tally.update(ac_opt, acoustic_params)
            n_failed = tally.too_short + tally.non_finite
            if n_failed > len(train_utts) / 2:
                message = f"epoch {epoch}: {n_failed}/{len(train_utts)} utterances failed"
                if tally.non_finite:
                    raise VerificationError(f"{message}, {tally.non_finite} of them on a "
                                            f"non-finite loss or gradient")
                raise DataError(message)

            # -- validation and a target run's train-PER pass, read-only -------
            # A validation utterance too short for its phones scores -inf, so
            # it counts in val_per only.
            read = val_utts + (train_utts if cfg.target_train_per is not None else [])
            val_ctc, n_val, pairs = 0.0, 0, []
            for k, utt in enumerate(read):
                grid = acoustic_forward(acoustic_view, base_feats[utt.utt_id], cfg.acoustic).data
                pairs.append((utt.phones, ctc_greedy_decode(grid)))
                score = ctc_forward_logprob(grid, [utt.phones])[0] if k < len(val_utts) else -np.inf
                if score != -np.inf:
                    val_ctc -= score
                    n_val += 1
            val_per = per(pairs[:len(val_utts)])
            train_lm_ce, val_lm = lm.result()

            entry = {
                "epoch": epoch,
                "train_ctc": tally.loss_sum / max(tally.scored, 1),
                "train_lm_ce": train_lm_ce,
                "val_ctc": val_ctc / max(n_val, 1),
                "val_lm_ce": val_lm,
                "val_per": val_per,
                "skipped": n_failed,
            }

            improved = stopper.update(val_per, epoch)
            reached_target = False
            if cfg.target_train_per is not None:
                entry["train_per"] = train_per = per(pairs[len(val_utts):])
                reached_target = train_per <= cfg.target_train_per
                if reached_target:
                    stopper.best_value = val_per
                    stopper.best_epoch = epoch

            if improved or reached_target:
                best_tensors = {name: t.data.copy() for name, t in named}
                for data in best_tensors.values():
                    data.flags.writeable = False  # decodes of the checkpoint share one search LM
            epoch_log.append(entry)
            if reached_target:
                log.info("epoch %d: train PER %.4f reached target, stopping", epoch, train_per)
                break
            log.info("epoch %d: train_ctc=%.4f val_ctc=%.4f val_per=%.4f lm_ce=%.4f",
                     epoch, entry["train_ctc"], entry["val_ctc"], val_per, entry["train_lm_ce"])

            if stopper.should_stop:
                stopped_early = True
                log.info("early stopping at epoch %d (best epoch %d)", epoch, stopper.best_epoch)
                break

    config_snapshot = cfg.to_dict()
    config_snapshot["lexicon_words"] = lexicon.words()
    ckpt = Checkpoint(
        config=config_snapshot,
        inventory_lines=inventory.to_lines(),
        vocab=list(vocab.tokens),
        tensors=best_tensors,
        best_metric=stopper.best_value if stopper.best_value != float("inf") else None,
        epoch=stopper.best_epoch,
    )
    return TrainResult(ckpt, epoch_log, stopper.best_epoch, stopped_early,
                       params_hash(best_tensors))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    report: MetricsReport
    greedy_per: float
    greedy_wer: float
    transcripts: dict[str, str]
    incomplete: int = 0  # searches that returned complete=False
    search: DecodeStats = field(default_factory=DecodeStats)  # summed over the split

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["greedy_per"] = self.greedy_per
        out["greedy_wer"] = self.greedy_wer
        out["incomplete"] = self.incomplete
        out["search"] = dataclasses.asdict(self.search)
        return out


def restore_models(ckpt: Checkpoint) -> tuple[TrainConfig, PhoneInventory, TokenVocab,
                                              ad.Parameters, ad.Parameters, Lexicon]:
    """Rebuild configs, inventory, vocab, parameters and lexicon from a checkpoint.

    Every tensor of the models' layouts must be in the checkpoint with its
    layout shape, and the checkpoint may hold no other tensor; otherwise
    this is a DataError. No model is drawn: the models are `read_only()`
    views of the checkpoint's float32 tensors, so decode and eval run in float32.
    """
    cfg = TrainConfig.from_dict(ckpt.config)
    inventory = PhoneInventory.from_lines(ckpt.inventory_lines)
    vocab = TokenVocab(list(ckpt.vocab), cfg.granularity)
    acoustic, lm = ad.Parameters(), ad.Parameters()
    mismatched, model_names = [], set()
    for prefix, layout, params in (
            ("acoustic.", acoustic_layout(cfg.acoustic, len(inventory)), acoustic),
            ("lm.", lm_layout(vocab, cfg.lm), lm)):
        for name, shape, _ in layout:
            model_names.add(prefix + name)
            stored = ckpt.tensors.get(prefix + name)
            if stored is None or stored.shape != shape:
                mismatched.append(prefix + name)
                continue
            params.add(name, stored)
    if mismatched:
        raise DataError("checkpoint tensors missing or of the wrong shape for its config: "
                        + ", ".join(mismatched))
    unknown = sorted(set(ckpt.tensors) - model_names)
    if unknown:
        raise DataError("checkpoint holds tensors its config's models lack: " + ", ".join(unknown))
    if not cfg.lexicon_words:
        raise DataError("checkpoint config carries no lexicon_words; cannot decode")
    lexicon = build_lexicon(cfg.lexicon_words, inventory)
    return cfg, inventory, vocab, acoustic.read_only(), lm.read_only(), lexicon


def evaluate(ckpt: Checkpoint, split: CorpusManifest,
             lm_weight: float | None = None, beam_width: int | None = None) -> EvalResult:
    """Decode a split and score it; also reports no-LM greedy baselines.

    greedy_per comes from raw best-path CTC decoding; greedy_wer from a
    width-1, zero-LM-weight constrained search.
    """
    if len(split) == 0:
        raise DataError("evaluation split is empty")
    cfg, inventory, vocab, acoustic_params, lm_params, lexicon = restore_models(ckpt)
    lam = cfg.decode.lm_weight if lm_weight is None else lm_weight
    beam = cfg.decode.beam_width if beam_width is None else beam_width

    utts, n_skipped = _prepare_utterances(split, lexicon)
    if not utts:
        raise DataError("no evaluable utterances in the split")
    if n_skipped:
        log.warning("evaluation skipped %d utterances", n_skipped)

    word_pairs, phone_pairs, greedy_phone_pairs, greedy_word_pairs = [], [], [], []
    transcripts = {}
    search, incomplete = DecodeStats(), 0
    started = time.perf_counter()
    audio_s = 0.0
    for utt in utts:
        audio = utt.audio
        audio_s += audio.duration_s
        feats = extract_features(audio)
        grid = acoustic_forward(acoustic_params, feats, cfg.acoustic).data
        hyp = beam_decode(grid, lexicon, lm_params, vocab,
                          lm_weight=lam, word_bonus=cfg.decode.word_bonus, beam_width=beam)
        search.add(hyp.stats)
        incomplete += not hyp.complete
        greedy_words = beam_decode(grid, lexicon, None, None,
                                   lm_weight=0.0, word_bonus=0.0, beam_width=1)
        greedy_phones = ctc_greedy_decode(grid)
        hyp_phones = [p for w in hyp.words for p in lexicon.pronunciations[w]]
        word_pairs.append((utt.words, hyp.words))
        phone_pairs.append((utt.phones, hyp_phones))
        greedy_phone_pairs.append((utt.phones, greedy_phones))
        greedy_word_pairs.append((utt.words, greedy_words.words))
        transcripts[utt.utt_id] = hyp.text()

    wall_s = time.perf_counter() - started
    log.debug("decoded %d utterances (%.2f s of audio) in %.2f s, real-time factor %.3f; "
              "search: %s", len(utts), audio_s, wall_s, wall_s / audio_s, search)
    if incomplete:
        log.warning("%d of %d searches ended without a complete transcript", incomplete, len(utts))
    rep = report(word_pairs, phone_pairs)
    return EvalResult(
        report=rep,
        greedy_per=per(greedy_phone_pairs),
        greedy_wer=wer(greedy_word_pairs),
        transcripts=transcripts,
        incomplete=incomplete,
        search=search,
    )
