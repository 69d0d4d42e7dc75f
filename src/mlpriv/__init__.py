"""Multilingual compression metrics, DP training with Renyi accounting,
and training-data influence estimation on desk-scale synthetic data."""

from .accountant import MechanismParams, PrivacySpending, epsilon_for, sigma_for
from .influence import CheckpointSet, InfluenceProfile, infu, self_influence, tracin_cp
from .metrics import (
    MetricReport,
    isoscore,
    linear_cka,
    linguistic_fairness_gap,
    pairwise_report,
    retrieval_precision,
    rsa_score,
    spearman_rho,
)
from .repr_store import EmbeddingSet, Manifest, TokenMatrix, load_set, mean_pool
from .synth import SynthSpec, gen_classification_data, gen_parallel_set, plant_outlier
from .trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    evaluate,
    train,
    train_many,
)

__all__ = [
    "Checkpoint",
    "CheckpointSet",
    "EmbeddingSet",
    "InfluenceProfile",
    "LabeledDataset",
    "Manifest",
    "MechanismParams",
    "MetricReport",
    "ModelSpec",
    "PrivacySpending",
    "SynthSpec",
    "TokenMatrix",
    "TrainConfig",
    "epsilon_for",
    "evaluate",
    "gen_classification_data",
    "gen_parallel_set",
    "infu",
    "isoscore",
    "linear_cka",
    "linguistic_fairness_gap",
    "load_set",
    "mean_pool",
    "pairwise_report",
    "plant_outlier",
    "retrieval_precision",
    "rsa_score",
    "self_influence",
    "sigma_for",
    "spearman_rho",
    "tracin_cp",
    "train",
    "train_many",
]

__version__ = "0.1.0"
