"""Outside-in tracing of shona_asr layers.

The tracer records spans (name, start, end, parent span, request id) in
memory. Two sources feed it:

- the benchmark's own calls into a layer, wrapped in `Tracer.span`;
- calls made inside the program, caught by replacing the module
  attributes its callers look up (`install`) and put back by `uninstall`.

A function is replaced in every loaded `shona_asr` module that binds it,
so both `ad.conv2d(...)` lookups and `from .ctc import ctc_loss` bindings
are caught. `score_tokens`, `sequence_logprob_end` and
`ctc_forward_logprob` are replaced in `shona_asr.decoder` only, so their
counts are the search's LM cache misses and rescored finalists, not the
LM validation pass of training.

Per-op backward time comes from wrapping the `_backward` closure of the
tensor an op returns. Composite ops (`attention_layer`, `lstm_cell`) get
forward time only: their inner ops carry their own spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One program function to wrap."""

    module: str  # defining module
    attr: str
    span: str  # span name; backward spans get ".bwd" appended
    backward: bool = False  # also time the returned tensor's backward closure
    only_in: tuple[str, ...] | None = None  # replace only in these modules


TARGETS = (
    Target("shona_asr.autodiff", "conv2d", "autodiff.conv2d", backward=True),
    Target("shona_asr.autodiff", "max_pool2d", "autodiff.max_pool2d", backward=True),
    Target("shona_asr.autodiff", "dense", "autodiff.dense", backward=True),
    Target("shona_asr.autodiff", "softmax", "autodiff.softmax"),
    Target("shona_asr.autodiff", "attention_layer", "autodiff.attention_layer"),
    Target("shona_asr.autodiff", "lstm_cell", "autodiff.lstm_cell"),
    Target("shona_asr.autodiff", "backward", "autodiff.backward"),
    Target("shona_asr.optim", "optimizer_step", "optim.step"),
    Target("shona_asr.ctc", "ctc_loss", "ctc.loss", backward=True),
    Target("shona_asr.acoustic", "acoustic_forward", "acoustic.forward"),
    Target("shona_asr.lm", "sentence_loss", "lm.sentence_loss"),
    Target("shona_asr.lm", "corpus_loss", "lm.corpus_loss"),
    Target("shona_asr.audio", "load_wav", "audio.load_wav"),
    Target("shona_asr.features", "extract_features", "features.extract"),
    Target("shona_asr.augment", "augment_audio", "augment.audio"),
    Target("shona_asr.augment", "spec_augment", "augment.spec"),
    Target("shona_asr.decoder", "beam_decode", "decoder.beam_decode"),
    Target("shona_asr.lm", "score_tokens", "lm.score_tokens", only_in=("shona_asr.decoder",)),
    Target("shona_asr.lm", "sequence_logprob_end", "lm.sequence_logprob_end",
           only_in=("shona_asr.decoder",)),
    Target("shona_asr.ctc", "ctc_forward_logprob", "ctc.forward_logprob",
           only_in=("shona_asr.decoder",)),
)


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.request = ""
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_loss = {"ctc": None, "lm": None}

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _clock(), 0.0, parent, self.request])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._open.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around the benchmark's own call."""
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target in the loaded shona_asr modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "shona_asr" or name.startswith("shona_asr."))}
        for target in TARGETS:
            original = getattr(modules[target.module], target.attr)
            wrapper = self._wrapper(target, original)
            scope = target.only_in or tuple(modules)
            for mod_name in scope:
                mod = modules[mod_name]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every replaced attribute, in reverse order."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "autodiff.backward":
                span_name = tracer._backward_name(args[0])
            elif name == "optim.step":
                span_name = "optim.acoustic_step" if "conv1.kernels" in args[1] else "optim.lm_step"
            idx = tracer._begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if hook is not None:
                hook(tracer, args, out)
            if target.backward and getattr(out, "_backward", None) is not None:
                out._backward = tracer._timed_backward(name + ".bwd", out._backward)
            return out

        return traced

    def _timed_backward(self, name: str, fn: Callable) -> Callable:
        def timed(g):
            idx = self._begin(name)
            try:
                fn(g)
            finally:
                self._end(idx)

        return timed

    def _backward_name(self, loss) -> str:
        if loss is self._last_loss["ctc"]:
            return "autodiff.backward_acoustic"
        if loss is self._last_loss["lm"]:
            return "autodiff.backward_lm"
        return "autodiff.backward_other"

    # -- output ------------------------------------------------------------

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._begin(self.name)

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False


class NullTracer:
    """Stands in when tracing is off: spans cost one call and record nothing."""

    request = ""

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


# -- per-call hooks: counts measured where the work happens -------------------

def _after_ctc_loss(tracer: Tracer, args, out) -> None:
    tracer._last_loss["ctc"] = out


def _after_sentence_loss(tracer: Tracer, args, out) -> None:
    tracer._last_loss["lm"] = out
    tracer.count("lm.train_tokens", len(args[1]) + 1)


def _after_beam_decode(tracer: Tracer, args, out) -> None:
    grid = args[0]
    probs = getattr(grid, "probs", grid)
    tracer.count("decoder.frames", int(probs.shape[0]))


_HOOKS = {
    "ctc.loss": _after_ctc_loss,
    "lm.sentence_loss": _after_sentence_loss,
    "decoder.beam_decode": _after_beam_decode,
}


# -- per-layer metrics ---------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `units` traced units of work.

    Times are medians per call in ms; `.calls` and `decoder.frames` are
    counts per unit of work. A layer the workload never calls reads 0.
    """
    def med(name: str) -> float:
        return _median(tracer.durations_ms(name))

    def calls(name: str) -> float:
        return len(tracer.durations_ms(name)) / units

    def total(name: str) -> float:
        return sum(tracer.durations_ms(name))

    lm_tokens = tracer.counts.get("lm.train_tokens", 0)
    lm_train_ms = total("lm.sentence_loss") + total("autodiff.backward_lm") + total("optim.lm_step")
    frames = tracer.counts.get("decoder.frames", 0)
    return {
        "autodiff.conv2d.fwd_ms": med("autodiff.conv2d"),
        "autodiff.conv2d.bwd_ms": med("autodiff.conv2d.bwd"),
        "autodiff.max_pool2d.fwd_ms": med("autodiff.max_pool2d"),
        "autodiff.max_pool2d.bwd_ms": med("autodiff.max_pool2d.bwd"),
        "autodiff.dense.fwd_ms": med("autodiff.dense"),
        "autodiff.dense.bwd_ms": med("autodiff.dense.bwd"),
        "autodiff.backward_acoustic_ms": med("autodiff.backward_acoustic"),
        "ctc.loss_ms": med("ctc.loss"),
        "ctc.loss_bwd_ms": med("ctc.loss.bwd"),
        "optim.acoustic_step_ms": med("optim.acoustic_step"),
        "acoustic.forward_ms": med("acoustic.forward"),
        "autodiff.attention_layer.fwd_ms": med("autodiff.attention_layer"),
        "autodiff.softmax.fwd_ms": med("autodiff.softmax"),
        "autodiff.lstm_cell.fwd_ms": med("autodiff.lstm_cell"),
        "autodiff.lstm_cell.calls": calls("autodiff.lstm_cell"),
        "lm.sentence_loss_ms": med("lm.sentence_loss"),
        "autodiff.backward_lm_ms": med("autodiff.backward_lm"),
        "optim.lm_step_ms": med("optim.lm_step"),
        "lm.train_ms_per_token": lm_train_ms / lm_tokens if lm_tokens else 0.0,
        "lm.corpus_loss_ms": med("lm.corpus_loss"),
        "decoder.beam_decode_ms": med("decoder.beam_decode"),
        "decoder.ms_per_frame": total("decoder.beam_decode") / frames if frames else 0.0,
        "decoder.frames": frames / units,
        "lm.score_tokens_ms": med("lm.score_tokens"),
        "lm.score_tokens.calls": calls("lm.score_tokens"),
        "lm.sequence_logprob_end.calls": calls("lm.sequence_logprob_end"),
        "ctc.forward_logprob_ms": med("ctc.forward_logprob"),
        "ctc.forward_logprob.calls": calls("ctc.forward_logprob"),
        "audio.load_wav_ms": med("audio.load_wav"),
        "features.extract_ms": med("features.extract"),
        "augment.ms": med("augment.audio") + med("augment.spec"),
        "checkpoint.load_ms": med("checkpoint.load"),
        "train.restore_models_ms": med("train.restore_models"),
        "corpusgen.generate_ms": med("corpusgen.generate"),
    }
