"""Desk-scale Shona speech recognition.

CNN acoustic model over stacked MFCC features, trained with an
alignment-free sequence loss; two-layer LSTM language model over phone or
word tokens; lexicon-constrained beam search fusing both scores; plus a
synthetic CV-syllable corpus generator so the whole pipeline is testable
end to end.
"""

from .audio import AudioBuffer, load_wav, save_wav
from .features import compute_deltas, compute_mfcc, extract_features, stack_features
from .augment import AugmentPolicy, spec_augment, speed_perturb, volume_perturb
from .autodiff import Parameters, Tensor, backward
from .optim import OptimizerConfig, OptimizerState, optimizer_step
from .gradcheck import grad_check
from .acoustic import AcousticConfig, PosteriorGrid, acoustic_forward, build_acoustic_model, posteriors
from .ctc import ctc_greedy_decode, ctc_loss
from .lm import LmConfig, TokenVocab, build_lm, lm_score, lm_train, perplexity
from .phones import PhoneInventory, default_inventory, g2p
from .lexicon import Lexicon, build_lexicon
from .decoder import Transcript, beam_decode
from .metrics import Alignment, MetricsReport, align, per, report, ser, wer
from .manifest import CorpusManifest, load_manifest, split_corpus
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .corpusgen import GenConfig, generate_corpus, synth_utterance
from .train import TrainConfig, evaluate, train, warm_start

__version__ = "0.1.0"
