"""Semantic lint passes (opt-in via ``repro lint --check <id>``).

Importing this package registers every pass with the engine, mirroring
how ``..rules`` registers the per-file rules.  Current passes:

``shapes``
    Abstract shape/dtype interpretation of every registered model
    (:mod:`repro.devtools.check`) on the 6x6 and 16x16 geometries.
``contracts``
    Cross-surface consistency: error taxonomy ↔ wire codes, RPC
    fixtures ↔ codec, CLI flags ↔ docs, registry names ↔ docs.
"""

from . import contracts, shapes  # noqa: F401 - importing registers the passes

__all__ = ["contracts", "shapes"]
