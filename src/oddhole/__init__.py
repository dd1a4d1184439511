"""Polynomial-time odd-hole detection and perfection testing for simple graphs.

The top-level entry points are :func:`detect` (find an induced odd cycle of
length at least five, with a verified witness) and
:func:`oddhole.pipeline.test_perfect` (a graph is perfect iff neither it nor
its complement has an odd hole).
"""

from .graph import Graph, bfs_distances, is_odd_hole
from .configs import (
    JewelWitness,
    PyramidWitness,
    find_jewel,
    find_pyramid,
    odd_hole_from_jewel,
    odd_hole_from_pyramid,
    verify_jewel,
    verify_pyramid,
)
from .cleaning import classify_candidate, test_clean, test_heavy_cleanable
from .probes import heavy_edges, is_clean, major_vertices, set_gaps, vertex_gaps
from .fast import detect, detect_fast
from .simple import detect_simple, detect_with_simple_pipeline

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "JewelWitness",
    "PyramidWitness",
    "bfs_distances",
    "classify_candidate",
    "detect",
    "detect_fast",
    "detect_simple",
    "detect_with_simple_pipeline",
    "find_jewel",
    "find_pyramid",
    "heavy_edges",
    "is_clean",
    "is_odd_hole",
    "major_vertices",
    "set_gaps",
    "vertex_gaps",
    "odd_hole_from_jewel",
    "odd_hole_from_pyramid",
    "test_clean",
    "test_heavy_cleanable",
    "test_perfect",
    "verify_jewel",
    "verify_pyramid",
]


def test_perfect(g: Graph, algorithm: str = "fast"):
    """Deferred import wrapper; see :mod:`oddhole.pipeline`."""
    from .pipeline import test_perfect as _tp

    return _tp(g, algorithm)


test_perfect.__test__ = False  # type: ignore[attr-defined]
