"""ST-HSL reproduction: Spatial-Temporal Hypergraph Self-Supervised Learning
for Crime Prediction (Li, Huang, Xia, Xu, Pei — ICDE 2022).

Public entry points:

* :mod:`repro.api` — the unified public surface: model registry,
  ``Forecaster`` estimator, versioned checkpoint artifacts, run specs.
* :mod:`repro.serving` — the forecast service layer: model pool,
  cross-request micro-batching service, resilience layer, network edge.
* :mod:`repro.nn` — numpy autograd / neural-network substrate.
* :mod:`repro.data` — crime-data pipeline (synthetic generators calibrated
  to the paper's NYC and Chicago datasets, grid segmentation,
  tensorisation, splits, density statistics).
* :mod:`repro.core` — the ST-HSL model itself.
* :mod:`repro.baselines` — the fifteen comparison models of Table III.
* :mod:`repro.training` — trainer, metrics and evaluation helpers.
* :mod:`repro.analysis` — ablations, sweeps, interpretation, efficiency.
"""

__version__ = "1.2.0"

__all__ = ["api", "serving", "nn", "data", "core", "baselines", "training", "analysis"]
