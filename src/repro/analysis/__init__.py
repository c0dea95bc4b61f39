"""``repro.analysis`` — ablations, sweeps, interpretation, efficiency."""

from .ablation import MULTIVIEW_VARIANTS, SSL_VARIANTS, run_ablation, variant_config
from .efficiency import EFFICIENCY_MODELS, run_efficiency_study, time_epoch
from .experiment import (
    ExperimentBudget,
    default_config,
    make_sthsl,
    run,
    train_and_evaluate,
)
from .hyperparams import SWEEPS, run_hyperparameter_study, sweep_parameter
from .statistics import ComparisonResult, bootstrap_ci, daily_errors, paired_comparison
from .interpretation import (
    HyperedgeCaseStudy,
    functionality_alignment,
    hyperedge_pattern_similarity,
    top_regions_per_hyperedge,
)
from .visualization import ascii_heatmap, format_density_histogram, format_table

__all__ = [
    "ExperimentBudget",
    "train_and_evaluate",
    "run",
    "make_sthsl",
    "default_config",
    "MULTIVIEW_VARIANTS",
    "SSL_VARIANTS",
    "run_ablation",
    "variant_config",
    "SWEEPS",
    "sweep_parameter",
    "run_hyperparameter_study",
    "HyperedgeCaseStudy",
    "top_regions_per_hyperedge",
    "hyperedge_pattern_similarity",
    "functionality_alignment",
    "EFFICIENCY_MODELS",
    "run_efficiency_study",
    "time_epoch",
    "ascii_heatmap",
    "format_table",
    "format_density_histogram",
    "ComparisonResult",
    "paired_comparison",
    "daily_errors",
    "bootstrap_ci",
]
