"""``repro.baselines`` — the fifteen comparison models of Table III.

This package holds the model classes; build them by name through the
:data:`repro.api.REGISTRY` model registry, whose specs also record
whether a model trains (``requires_training``).  Every class subclasses
:class:`~repro.training.interface.ForecastModel` and implements either
a per-window ``forward`` or a vectorised ``forward_batch``.  Names match
the paper's Table III rows (``BASELINE_NAMES`` keeps the row order).
"""

from __future__ import annotations

from .agcrn import AGCRN
from .arima import ARIMA
from .base import GatedTemporalConv, GraphConv, StatisticalBaseline
from .dcrnn import DCRNN
from .deepcrime import DeepCrime
from .dmstgcn import DMSTGCN
from .gman import GMAN
from .gwn import GraphWaveNet
from .historical_average import HistoricalAverage
from .mtgnn import MTGNN
from .st_metanet import STMetaNet
from .st_resnet import STResNet
from .stdn import STDN
from .stgcn import STGCN
from .stshn import STSHN
from .sttrans import STtrans
from .svr import SVR

__all__ = [
    "ARIMA",
    "SVR",
    "HistoricalAverage",
    "STResNet",
    "DCRNN",
    "STGCN",
    "GraphWaveNet",
    "STtrans",
    "DeepCrime",
    "STDN",
    "STMetaNet",
    "GMAN",
    "AGCRN",
    "MTGNN",
    "STSHN",
    "DMSTGCN",
    "StatisticalBaseline",
    "GraphConv",
    "GatedTemporalConv",
    "BASELINE_NAMES",
]

# Table III row order.
BASELINE_NAMES: tuple[str, ...] = (
    "ARIMA",
    "SVM",
    "ST-ResNet",
    "DCRNN",
    "STGCN",
    "GWN",
    "STtrans",
    "DeepCrime",
    "STDN",
    "ST-MetaNet",
    "GMAN",
    "AGCRN",
    "MTGNN",
    "STSHN",
    "DMSTGCN",
)
