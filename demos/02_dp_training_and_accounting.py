"""DP training with Renyi-DP accounting.

Trains the desk-scale classifier on a synthetic dataset at several privacy
budgets. For each target epsilon the accountant bisects for the smallest
noise multiplier sigma; one batched ``train_many`` call then trains every
budget's run on the same batches, each with its own sigma, with per-example
clipping plus Gaussian noise, and we report accuracy and the per-language
fairness gap. Tighter budgets (smaller epsilon) need more noise and cost
accuracy.

Run:  python3 demos/02_dp_training_and_accounting.py
"""

import math

from mlpriv.accountant import epsilon_for, sigma_for
from mlpriv.metrics import linguistic_fairness_gap
from mlpriv.synth import SynthSpec, gen_classification_data
from mlpriv.trainer import ModelSpec, TrainConfig, Variant, evaluate, train_many

STEPS = 300
BATCH = 32
DELTA = 1e-6


def main() -> None:
    spec = SynthSpec(num_languages=4, tuples=50, dim=8, classes=3,
                     compression=0.75, seed=0)
    dataset = gen_classification_data(spec)
    model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
    q = BATCH / len(dataset)

    header = f"{'target eps':>10} {'sigma':>8} {'spent eps':>10} {'accuracy':>9} {'fair gap':>9}"
    print(header)
    print("-" * len(header))
    targets = (math.inf, 16.0, 8.0, 2.0, 0.5)
    sigmas = [sigma_for(target, q=q, steps=STEPS, delta=DELTA) for target in targets]
    cfg = TrainConfig(base_lr=0.1, total_steps=STEPS, batch_size=BATCH, seed=0)
    runs = train_many(dataset, model, cfg, [Variant(noise_multiplier=s) for s in sigmas])
    for target, sigma, result in zip(targets, sigmas, runs):
        accuracy, per_language = evaluate(result.theta, model, dataset)
        _, gap = linguistic_fairness_gap(per_language)
        if sigma > 0:
            spent = epsilon_for(q, sigma, STEPS, DELTA).epsilon
            spent_str = f"{spent:10.4f}"
        else:
            spent_str = f"{'inf':>10}"
        print(f"{target:10} {sigma:8.4f} {spent_str} {accuracy:9.4f} {gap:9.4f}")

    print()
    print("Accountant round trip at q = {:.3f}, T = {}, delta = {}:".format(q, STEPS, DELTA))
    spending = epsilon_for(q, sigma=1.0, steps=STEPS, delta=DELTA)
    print(f"  sigma = 1.0  ->  epsilon = {spending.epsilon:.6f} (best order {spending.best_order})")
    recovered = sigma_for(spending.epsilon, q=q, steps=STEPS, delta=DELTA)
    print(f"  sigma_for(epsilon) = {recovered:.6f}  (relative error "
          f"{abs(recovered - 1.0):.2e})")


if __name__ == "__main__":
    main()
