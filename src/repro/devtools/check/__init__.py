"""Semantic static analysis: abstract shape/dtype interpretation.

``repro.devtools.check`` verifies every registered model's forward
semantics without running numerics (see :mod:`.abstract` for the
interpreter and :mod:`.interpret` for the driver), and records an
op-level trace of each forward pass, a machine-readable op sequence of
the model.  The results surface as lint findings
via ``repro lint --check shapes`` (:mod:`repro.devtools.lint.passes`).
"""

from .abstract import AbstractArray, AbstractionError, Trace, TraceOp, abstract_input
from .interpret import (
    BATCH_SENTINELS,
    DEFAULT_GEOMETRIES,
    ModelReport,
    Problem,
    check_model,
    check_registry,
)
from .symdim import SymDim, dim_expr

__all__ = [
    "AbstractArray",
    "AbstractionError",
    "BATCH_SENTINELS",
    "DEFAULT_GEOMETRIES",
    "ModelReport",
    "Problem",
    "SymDim",
    "Trace",
    "TraceOp",
    "abstract_input",
    "check_model",
    "check_registry",
    "dim_expr",
]
