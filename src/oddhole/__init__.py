"""Polynomial-time odd-hole detection and perfection testing for simple graphs.

The top-level entry points are :func:`detect` (find an induced odd cycle of
length at least five, with a verified witness) and
:func:`oddhole.pipeline.test_perfect` (a graph is perfect iff neither it nor
its complement has an odd hole).
"""

from .graph import (
    Graph,
    bfs_distances,
    distance,
    is_hole,
    is_induced_path,
    is_odd_hole,
    mask_of,
    shortest_path,
    shortest_path_interior_union,
)
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
from .probes import (
    heavy_edges,
    is_clean,
    is_normal_set,
    major_vertices,
    set_gaps,
    vertex_gaps,
)
from .fast import detect, detect_fast
from .simple import detect_simple, detect_with_simple_pipeline
from .oracle import oracle_find_jewel, oracle_find_odd_hole, oracle_find_pyramid

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
    "distance",
    "find_jewel",
    "find_pyramid",
    "heavy_edges",
    "is_clean",
    "is_hole",
    "is_induced_path",
    "is_normal_set",
    "is_odd_hole",
    "major_vertices",
    "mask_of",
    "set_gaps",
    "vertex_gaps",
    "odd_hole_from_jewel",
    "odd_hole_from_pyramid",
    "oracle_find_jewel",
    "oracle_find_odd_hole",
    "oracle_find_pyramid",
    "shortest_path",
    "shortest_path_interior_union",
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
