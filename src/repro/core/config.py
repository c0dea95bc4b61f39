"""Configuration for the ST-HSL model, including ablation switches.

Defaults follow the paper's hyperparameter settings (§IV-A4): hidden
dimensionality d=16, 128 hyperedges, kernel size 3, two local
convolutional layers per view, four global temporal layers, Adam at
lr=1e-3.  Every ablation row of Table IV / Figure 5 corresponds to one
boolean switch here (see :mod:`repro.analysis.ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["STHSLConfig"]


@dataclass(frozen=True)
class STHSLConfig:
    """Hyperparameters and structural switches of ST-HSL."""

    # Data geometry.
    rows: int
    cols: int
    num_categories: int
    window: int = 30  # T: number of history days fed to the model

    # Capacity (paper §IV-A4 defaults).
    dim: int = 16  # d: embedding dimensionality
    num_hyperedges: int = 128  # H: hypergraph channels
    kernel_size: int = 3  # spatial and temporal conv kernels
    num_spatial_layers: int = 2
    num_temporal_layers: int = 2
    num_global_temporal_layers: int = 4
    dropout: float = 0.1
    leaky_slope: float = 0.2

    # Self-supervision weights (Eq 10) and InfoNCE temperature (§III-F).
    # The paper searches λ1, λ2 in (0, 1); these defaults are the values
    # selected on the reduced-scale validation protocol (DESIGN.md §5).
    lambda_infomax: float = 0.05
    lambda_contrastive: float = 0.01
    weight_decay: float = 1e-5
    temperature: float = 0.5
    # Compute dtype for all model parameters and activations.  "float64"
    # (default) matches the autograd engine's gradcheck-tight precision;
    # "float32" halves memory traffic on the conv/matmul hot paths.
    # Switching dtype changes results at the ~1e-6 level but not training
    # behaviour.
    compute_dtype: str = "float64"
    # Infomax corruption: "shuffle" permutes region indices (paper §III-D1);
    # "noise" perturbs node features instead (extra ablation, DESIGN.md §6).
    corruption: str = "shuffle"
    corruption_noise_scale: float = 1.0

    # Ablation switches — multi-view local encoder (Figure 5).
    use_spatial_conv: bool = True  # "w/o S-Conv" sets False
    use_temporal_conv: bool = True  # "w/o T-Conv" sets False
    cross_category: bool = True  # "w/o C-Conv" sets False (no type mixing)
    use_local: bool = True  # "w/o Local" disables the whole local encoder

    # Ablation switches — dual-stage SSL paradigm (Table IV).
    use_hypergraph: bool = True  # "w/o Hyper"
    use_global_temporal: bool = True  # "w/o GlobalTem"
    use_infomax: bool = True  # "w/o Infomax"
    use_contrastive: bool = True  # "w/o ConL"
    use_global: bool = True  # "w/o Global": prediction from local encoder only
    fusion: bool = False  # "Fusion w/o ConL": fuse views with a layer instead

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.num_hyperedges <= 0:
            raise ValueError("dim and num_hyperedges must be positive")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd so 'same' padding exists")
        if self.window < 2:
            raise ValueError("window must be at least 2 days")
        if not self.use_global and not self.use_local:
            raise ValueError("at least one of local/global branches must be active")
        if self.corruption not in ("shuffle", "noise"):
            raise ValueError(f"corruption must be 'shuffle' or 'noise', got {self.corruption!r}")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                f"compute_dtype must be 'float32' or 'float64', got {self.compute_dtype!r}"
            )

    @property
    def num_regions(self) -> int:
        return self.rows * self.cols

    def with_overrides(self, **kwargs) -> "STHSLConfig":
        """Return a modified copy (convenience for sweeps and ablations)."""
        return replace(self, **kwargs)
