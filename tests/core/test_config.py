"""STHSLConfig validation and ablation-switch tests."""

import pytest

from repro.core import STHSLConfig


def _cfg(**kwargs):
    base = dict(rows=4, cols=4, num_categories=4)
    base.update(kwargs)
    return STHSLConfig(**base)


class TestValidation:
    def test_defaults_match_paper(self):
        cfg = _cfg()
        assert cfg.dim == 16  # §IV-A4: best d
        assert cfg.num_hyperedges == 128  # §IV-A4: H = 128
        assert cfg.kernel_size == 3
        assert cfg.num_spatial_layers == 2
        assert cfg.num_global_temporal_layers == 4

    def test_num_regions(self):
        assert _cfg(rows=3, cols=5).num_regions == 15

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            _cfg(kernel_size=4)

    def test_tiny_window_rejected(self):
        with pytest.raises(ValueError):
            _cfg(window=1)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError):
            _cfg(dim=0)

    def test_no_branches_rejected(self):
        with pytest.raises(ValueError):
            _cfg(use_global=False, use_local=False)
