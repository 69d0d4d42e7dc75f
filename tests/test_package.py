"""The package's public surface: the names ``import mlpriv`` exports."""

import mlpriv

PUBLIC = {
    "Checkpoint", "CheckpointSet", "EmbeddingSet", "InfluenceProfile", "LabeledDataset",
    "Manifest", "MetricReport", "ModelSpec", "PrivacySpending", "SynthSpec",
    "TrainConfig", "Variant", "epsilon_for", "evaluate", "gen_classification_data",
    "gen_parallel_set", "influence_profiles", "isoscore", "linear_cka",
    "linguistic_fairness_gap", "load_set", "pairwise_report", "plant_outlier",
    "retrieval_precision", "rsa_score", "sigma_for", "spearman_rho", "train", "train_many",
}


def test_all_is_the_public_surface_and_every_name_resolves():
    assert len(mlpriv.__all__) == len(PUBLIC) == 29
    assert set(mlpriv.__all__) == PUBLIC
    assert all(getattr(mlpriv, name, None) is not None for name in mlpriv.__all__)
