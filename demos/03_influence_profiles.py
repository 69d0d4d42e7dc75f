"""Influence analysis: TracInCP profiles, uniformity, and the LOO oracle.

Trains a model on a parallel dataset, builds per-tuple influence profiles
from the saved checkpoints, and shows that influence is near-uniform across
a tuple's language variants when representations are compressed (lambda
near 1) and concentrated when they are not. Then plants an outlier and
confirms with the exact leave-one-out retraining oracle that removing it
changes the model's prediction at the outlier far more than removing an
ordinary inlier does.

Run:  python3 demos/03_influence_profiles.py
"""

import numpy as np

from mlpriv.influence import CheckpointSet, influence_profiles, loo_probabilities
from mlpriv.synth import SynthSpec, gen_classification_data, plant_outlier
from mlpriv.trainer import ModelSpec, TrainConfig, Variant, train


def mean_infu(compression: float) -> float:
    spec = SynthSpec(num_languages=4, tuples=20, dim=8, classes=3,
                     compression=compression, seed=0)
    dataset = gen_classification_data(spec)
    model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
    cfg = TrainConfig(base_lr=1.0, total_steps=300, batch_size=32, seed=0)
    result = train(dataset, model, cfg)
    cks = CheckpointSet.last_k(result.checkpoints, 3)
    return float(np.mean([p.infu for p in influence_profiles(dataset, cks, model)]))


def main() -> None:
    print("Mean influence uniformity (InfU) by compression level:")
    for lam in (0.0, 0.5, 1.0):
        print(f"  lambda = {lam:4.2f}: InfU = {mean_infu(lam):.4f}")

    print()
    print("Leave-one-out oracle on a planted outlier:")
    spec = SynthSpec(num_languages=2, tuples=16, dim=8, classes=3,
                     compression=0.5, seed=3)
    dataset = gen_classification_data(spec)
    planted, index = plant_outlier(dataset, magnitude=6.0, seed=3)
    model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
    cfg = TrainConfig(base_lr=0.1, total_steps=300, batch_size=16, seed=0)
    point = planted.features[index]
    label = int(planted.labels[index])
    inlier = (index + 1) % len(planted)
    # the full-data run and both coupled retrains, trained together
    p, p_outlier, p_inlier = loo_probabilities(
        planted, model, cfg, [Variant(e) for e in (None, index, inlier)], point, label,
    )
    delta_outlier = p - p_outlier
    delta_inlier = p - p_inlier
    print(f"  removing the planted outlier (index {index}): "
          f"delta P[event] = {delta_outlier:+.4f}")
    print(f"  removing an ordinary inlier  (index {inlier}): "
          f"delta P[event] = {delta_inlier:+.4f}")
    print("  the outlier is its own sole support; inliers are redundant.")


if __name__ == "__main__":
    main()
