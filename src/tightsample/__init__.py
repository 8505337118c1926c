"""Tight snowball sampling of unbounded directed networks.

Expand a seed set one node per timestep by weighted maximum-adjacency
priority, keeping the directed boundary around the sample small so that
cohesive communities are covered before the sample spills outward. Includes
the engagement-weight calibration pipeline, a blockmodel test bed, random
baselines, and an evaluation suite.
"""

__version__ = "0.1.0"   # kept equal to pyproject.toml by tests/test_cli.py

from .graph import DiscoveredGraph, IdMap
from .interactions import (
    Calibration,
    Scheme,
    UnitWeights,
    WeightTable,
    calibrate_records,
    load_reference_tables,
)
from .oracle import GraphOracle, UnknownNodeError
from .sampler import STRATEGIES, FrontierExhausted, SampleState, SampleTrace, init, run, step
from .util import ConfigError, DataError

__all__ = [
    "Calibration", "ConfigError", "DataError", "DiscoveredGraph",
    "FrontierExhausted", "GraphOracle", "IdMap", "STRATEGIES",
    "SampleState", "SampleTrace", "Scheme", "UnitWeights", "UnknownNodeError",
    "WeightTable", "calibrate_records", "init", "load_reference_tables", "run", "step",
]
