"""Polynomial-time odd-hole detection and perfection testing for simple graphs.

The top-level entry points are :func:`detect` (find an induced odd cycle of
length at least five, with a verified witness) and :func:`test_perfect` (a
graph is perfect iff neither it nor its complement has an odd hole).  The
stages, witness types, probes and reference detectors live in their own
submodules; see the README's Library section.
"""

from .graph import Graph, is_odd_hole
from .fast import detect

__version__ = "0.1.0"

__all__ = ["Graph", "detect", "is_odd_hole", "test_perfect"]


def test_perfect(g: Graph):
    """Deferred import wrapper; see :mod:`oddhole.pipeline`.

    The import is deferred because ``oddhole.pipeline`` pulls in the
    formats and the result documents, which ``import oddhole`` does not
    otherwise need.
    """
    from .pipeline import test_perfect as _tp

    return _tp(g)


test_perfect.__test__ = False  # type: ignore[attr-defined]
