"""Shared fixtures; the reference implementations are in ``reference.py``."""

from __future__ import annotations

import numpy as np
import pytest

from reference import make_sbm_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_sbm():
    """4 blocks x 60 nodes, r=4: small but structured."""
    return make_sbm_oracle((60,) * 4, 6, 4.0, graph_seed=17, seed_rng=5)

