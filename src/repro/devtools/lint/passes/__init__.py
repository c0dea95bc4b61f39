"""Semantic lint passes (opt-in via ``repro lint --check <id>``).

Importing this package registers every pass with the engine, mirroring
how ``..rules`` registers the per-file rules.  Current passes:

``shapes``
    Runs every registered model's ``forward``/``forward_batch`` on one
    geometry where every dimension differs, in native and float32
    modes, and checks the shape/dtype contract.
``contracts``
    Cross-surface consistency: error taxonomy ↔ wire codes, RPC
    fixtures ↔ codec, CLI flags ↔ docs, registry names ↔ docs.
"""

from . import contracts, shapes  # noqa: F401 - importing registers the passes

__all__ = ["contracts", "shapes"]
