"""Multilingual compression metrics, DP training with Renyi accounting,
and training-data influence estimation on desk-scale synthetic data."""

from .accountant import PrivacySpending, epsilon_for, sigma_for
from .influence import CheckpointSet, InfluenceProfile, influence_profiles
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
from .repr_store import EmbeddingSet, Manifest, load_set
from .synth import SynthSpec, gen_classification_data, gen_parallel_set, plant_outlier
from .trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    Variant,
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
    "MetricReport",
    "ModelSpec",
    "PrivacySpending",
    "SynthSpec",
    "TrainConfig",
    "Variant",
    "epsilon_for",
    "evaluate",
    "gen_classification_data",
    "gen_parallel_set",
    "influence_profiles",
    "isoscore",
    "linear_cka",
    "linguistic_fairness_gap",
    "load_set",
    "pairwise_report",
    "plant_outlier",
    "retrieval_precision",
    "rsa_score",
    "sigma_for",
    "spearman_rho",
    "train",
    "train_many",
]

__version__ = "0.1.0"
