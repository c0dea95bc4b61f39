"""``repro.core`` — the ST-HSL model (the paper's primary contribution)."""

from .config import STHSLConfig
from .embedding import CrimeEmbedding
from .global_temporal import GlobalTemporalEncoder
from .hypergraph import HypergraphEncoder
from .infomax import HypergraphInfomax
from .model import STHSL, STHSLLoss, STHSLViews
from .spatial_conv import SpatialConvEncoder
from .temporal_conv import TemporalConvEncoder

__all__ = [
    "STHSLConfig",
    "STHSL",
    "STHSLViews",
    "STHSLLoss",
    "CrimeEmbedding",
    "SpatialConvEncoder",
    "TemporalConvEncoder",
    "HypergraphEncoder",
    "GlobalTemporalEncoder",
    "HypergraphInfomax",
]
