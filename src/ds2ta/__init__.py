"""Desk-scale spiking transformer kernels.

Windowed power-of-two decay attention over spike trains, integer score
matrices denoised through per-head lookup tables, trained end to end with
surrogate gradients on a small reverse-mode tape.

``ds2ta.train`` is the training function, not the ``train`` module: the
import of ``train`` below rebinds the package attribute that importing the
submodule had set, so ``import ds2ta.train as t`` also yields the function.
The module itself is reachable only as ``sys.modules["ds2ta.train"]``,
which is where the benchmark's tracer (``perfbench/trace.py``) finds it to
wrap ``train``, ``evaluate`` and ``AdamW.step``.  Renaming the module or the
function would break ``ds2ta.train(...)`` calls or that lookup, so the
shadowing stays.
"""

__version__ = "0.1.0"

from .analyze import (BlockEnergy, EnergyReport, count_attention_ops, energy_nj,
                      export_attention, measure, render_report, sparsity)
from .data import (EventDataset, gen_static_patterns, gen_temporal_order,
                   read_evtb, write_evtb)
from .model import (ModelConfig, SpikingTransformer, load_checkpoint,
                    save_checkpoint)
from .neuron import LifParams, LifState, lif_forward, surrogate_grad, surrogate_primitive
from .nsad import NsadHead, build_table, denoise, f_eval, g_eval
from .tasa import (AttentionScores, attention_scores, decay_factors,
                   explicit_sta_oracle, shift_decay_apply, tau_round_ste,
                   temporal_filter)
from .tensorcore import (DiffTensor, GradCheckReport, Tape, Tensor, add, bias_add,
                         check_gradients, cross_entropy_logits, make_rng, matmul,
                         reduce_mean, reshape, round_half_away, transpose)
from .train import AdamW, EvalResult, TrainConfig, cosine_lr, evaluate, train

__all__ = [name for name in dir() if not name.startswith("_")]
