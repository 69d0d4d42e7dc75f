"""Run the seeded experiments and print their verdicts.

- theorem2: at full compression (lambda = 1) every language view is the
  same matrix, so per-language loss variance is exactly zero and all
  pairwise metrics and influence-uniformity scores are 1.
- fig2-correlation: across a grid of compression levels and seeds, mean
  retrieval precision correlates strongly with mean influence uniformity.
- theorem1 (optional): gradient noise flattens the influence
  distribution of a planted outlier — the median max-softmax mass on the
  outlier's influence vector strictly decreases as sigma grows. Pass
  --theorem1 to include it (~1.9 s for 20 seeds: per seed, one batched
  trainer call for the three full runs and one for every leave-one-out
  retrain).

Run:  python3 demos/04_experiments.py [--theorem1]
"""

import argparse

from mlpriv.experiments import run_fig2_correlation, run_theorem1, run_theorem2


def show(result) -> None:
    print(f"  verdict: {'PASS' if result.passed else 'FAIL'}")
    for key, value in result.summary.items():
        print(f"  {key} = {value}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--theorem1", action="store_true",
                        help="also run the planted-outlier experiment")
    args = parser.parse_args()

    print("theorem2 (full compression => fairness and uniform influence):")
    show(run_theorem2())

    print("fig2-correlation (retrieval precision vs influence uniformity):")
    show(run_fig2_correlation())

    if args.theorem1:
        print("theorem1 (noise flattens the planted outlier's influence):")
        show(run_theorem1())
    else:
        print("(skipping theorem1; pass --theorem1 to run it)")


if __name__ == "__main__":
    main()
