"""Is the gap real?  Significance testing of model comparisons.

Trains ST-HSL and a baseline under the same budget, then asks whether
the observed MAE gap survives statistical scrutiny: paired t-test and
Wilcoxon signed-rank on per-day errors, plus bootstrap confidence
intervals — the analysis a reviewer would ask for on top of Table III.

Usage::

    python examples/significance_testing.py
"""

import numpy as np

from repro.analysis import bootstrap_ci, daily_errors, paired_comparison
from repro.api import ExperimentBudget, Forecaster
from repro.data import load_city


def main(rows: int = 6, cols: int = 6, num_days: int = 120,
         window: int = 14, epochs: int = 4, train_limit: int | None = 30) -> None:
    """Compare ST-HSL with STSHN on per-day errors at the given scale."""
    dataset = load_city("nyc", rows=rows, cols=cols, num_days=num_days, seed=0)
    budget = ExperimentBudget(
        window=window, epochs=epochs, train_limit=train_limit, batch_size=4, seed=0
    )

    eval_sthsl = Forecaster("ST-HSL", budget=budget).fit(dataset).evaluate(dataset)
    print(f"ST-HSL  overall MAE={eval_sthsl.overall()['mae']:.4f}")

    eval_base = Forecaster("STSHN", budget=budget).fit(dataset).evaluate(dataset)
    print(f"STSHN   overall MAE={eval_base.overall()['mae']:.4f}")

    # Per-day error series and bootstrap CIs.
    for name, evaluation in (("ST-HSL", eval_sthsl), ("STSHN", eval_base)):
        mean, low, high = bootstrap_ci(daily_errors(evaluation), seed=0)
        print(f"{name:7s} per-day MAE = {mean:.4f}  (95% CI [{low:.4f}, {high:.4f}])")

    # Paired comparison.
    result = paired_comparison(eval_sthsl, eval_base)
    print(
        f"\npaired over {result.num_days} test days: "
        f"Δ(ST-HSL − STSHN) = {result.mean_difference:+.4f}"
    )
    print(f"paired t-test:        t={result.t_statistic:+.3f}  p={result.t_pvalue:.4f}")
    print(f"Wilcoxon signed-rank: W={result.wilcoxon_statistic:.1f}  p={result.wilcoxon_pvalue:.4f}")
    verdict = "significant" if result.significant() else "NOT significant at α=0.05"
    better = "ST-HSL" if result.a_better else "STSHN"
    print(f"=> {better} is better; the gap is {verdict}.")

    # Per-category drill-down.
    print("\nper-category paired t-test p-values:")
    for index, category in enumerate(dataset.categories):
        r = paired_comparison(eval_sthsl, eval_base, category=index)
        print(f"  {category:10s} Δ={r.mean_difference:+.4f}  p={r.t_pvalue:.4f}")


if __name__ == "__main__":
    main()
