"""Desk-scale laboratory for soft-target self-distillation via discounted
Dirichlet evidence accumulation, with baselines, noise protocols, calibration
metrics, and dark-knowledge diagnostics."""

from .analysis import (CalibrationReport, DarkKnowledge, ace, auroc,
                       calibration_report, delta_decomposition, ece,
                       fit_temperature, mean_flip_probability, mu_matrix, nll,
                       sce, temp_adjusted_kl, temperature_scale)
from .data import (Dataset, NoiseSpec, apply_noise, augment_strong,
                   augment_weak, inject_asymmetric, inject_symmetric,
                   load_csv, load_idx, make_blobs)
from .models import (Model, ModelSpec, backward, forward, init_model, param_count,
                     predict)
from .numerics import (OptimizerState, entropy, kl_div, one_hot, optimizer_step,
                       softmax, soft_cross_entropy)
from .targets import (EvidenceStore, StrategyConfig, TargetStrategy, init_prior,
                      sharpen)
from .training import (BsdPlusConfig, SeedRun, TrainConfig, TrainingDiverged,
                       contrastive_term, evaluate, lr_at, run_experiment,
                       train_epoch)

__version__ = "0.1.0"
