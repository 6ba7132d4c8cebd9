"""Deterministic federated-learning simulator.

FedPSD local training (history-fused labels, progressive
self-distillation, calibrated logits loss) next to FedAvg/FedProx
baselines, non-IID partitioners, and a seeded round engine whose runs
reproduce byte-for-byte.
"""
from .config import ConfigError, ExperimentConfig
from .data import (
    IdxParseError,
    PartitionError,
    class_prior,
    partition_dirichlet,
    partition_sharding,
    synth_generate,
)
from .engine import aggregate, run_ablation, run_experiment
from .nn import (
    ContractViolation,
    ModelParams,
    backprop,
    finite_diff_check,
    forward,
    init_model,
    init_optimizer,
    one_hot,
    sgd_step,
    softmax_ce,
)
from .psd import (
    alpha_schedule,
    balanced_prediction,
    calibrated_ce_loss,
    fuse_labels,
    local_train_fedpsd,
    proximal_term,
    psd_kd_loss,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractViolation",
    "ExperimentConfig",
    "IdxParseError",
    "ModelParams",
    "PartitionError",
    "aggregate",
    "alpha_schedule",
    "backprop",
    "balanced_prediction",
    "calibrated_ce_loss",
    "class_prior",
    "finite_diff_check",
    "forward",
    "fuse_labels",
    "init_model",
    "init_optimizer",
    "local_train_fedpsd",
    "one_hot",
    "partition_dirichlet",
    "partition_sharding",
    "proximal_term",
    "psd_kd_loss",
    "run_ablation",
    "run_experiment",
    "sgd_step",
    "softmax_ce",
    "synth_generate",
]
