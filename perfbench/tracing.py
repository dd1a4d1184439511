"""Per-layer tracing of ``detect`` and ``test_perfect``, measured from outside.

:class:`Tracer` re-runs the detector in its own order, timing each call into a
layer's public functions: ``find_jewel`` -> ``find_pyramid`` ->
``test_heavy_cleanable`` -> ``detect_type1`` .. ``detect_type6``, stopping at
the first hit, exactly as ``oddhole.fast.detect`` does.  While installed it
also rebinds ``bfs_distances`` (in ``graph``, ``cleaning`` and ``fast``) and
``test_clean`` (in ``cleaning`` and ``fast``) to counting wrappers.  The
rebinding lives only in the process that installs the tracer and is undone
on exit; the program's sources are not touched.

Times are inclusive: ``fast.type1_ms`` contains the BFS and ``test_clean``
calls that shape 1 makes.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional

import oddhole.cleaning as cleaning_mod
import oddhole.configs as configs_mod
import oddhole.fast as fast_mod
import oddhole.graph as graph_mod
from oddhole import Graph
from oddhole.pipeline import graph_digest

Hole = tuple[int, ...]


def _jewel(g: Graph) -> Optional[Hole]:
    w = configs_mod.find_jewel(g)
    return None if w is None else configs_mod.odd_hole_from_jewel(g, w)


def _pyramid(g: Graph) -> Optional[Hole]:
    w = configs_mod.find_pyramid(g)
    return None if w is None else configs_mod.odd_hole_from_pyramid(g, w)


# (time metric, layer whose ``.hits`` counts the graphs this stage decides, stage)
STAGES = (
    ("configs.jewel_ms", "configs", _jewel),
    ("configs.pyramid_ms", "configs", _pyramid),
    ("cleaning.heavy_ms", "cleaning", cleaning_mod.test_heavy_cleanable),
) + tuple((f"fast.type{i}_ms", "fast", getattr(fast_mod, f"detect_type{i}")) for i in range(1, 7))


class Tracer:
    """Counters and inclusive layer times over every graph it decides."""

    def __init__(self) -> None:
        # Every metric is reported, also when it stays at zero.
        self.ms: Counter[str] = Counter(dict.fromkeys(
            [metric for metric, _, _ in STAGES] + [
                "graph.bfs_ms", "cleaning.test_clean_ms", "pipeline.graph_side_ms",
                "pipeline.complement_ms", "pipeline.complement_side_ms", "pipeline.digest_ms",
            ], 0.0))
        self.counts: Counter[str] = Counter(dict.fromkeys([
            "graph.bfs_calls", "graph.bfs_distinct", "cleaning.test_clean_calls",
            "fast.fallback_calls", "configs.hits", "cleaning.hits", "fast.hits",
        ], 0))
        self._pairs: set[tuple[int, int, int]] = set()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind the BFS and clean-test names to counting wrappers."""
        bfs = graph_mod.bfs_distances
        clean = cleaning_mod.test_clean
        add_pair = self._pairs.add
        ms, counts = self.ms, self.counts
        clock = time.perf_counter
        bfs_calls = 0
        bfs_seconds = 0.0

        # Kept lean: it runs over a million times per dense graph.
        def counted_bfs(g, source, within=None):
            nonlocal bfs_calls, bfs_seconds
            t0 = clock()
            dist = bfs(g, source, within)
            bfs_seconds += clock() - t0
            bfs_calls += 1
            add_pair((id(g), source, g.full_mask if within is None else within))
            return dist

        def clean_from(count_name, ms_name):
            def counted_clean(g, within=None):
                counts[count_name] += 1
                t0 = clock()
                hole = clean(g, within)
                if ms_name:
                    ms[ms_name] += (clock() - t0) * 1000.0
                return hole
            return counted_clean

        saved = [(m, "bfs_distances", bfs) for m in (graph_mod, cleaning_mod, fast_mod)]
        saved += [(cleaning_mod, "test_clean", clean), (fast_mod, "test_clean", clean)]
        for m in (graph_mod, cleaning_mod, fast_mod):
            m.bfs_distances = counted_bfs
        cleaning_mod.test_clean = clean_from("cleaning.test_clean_calls", "cleaning.test_clean_ms")
        fast_mod.test_clean = clean_from("fast.fallback_calls", None)
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)
            counts["graph.bfs_calls"] += bfs_calls
            ms["graph.bfs_ms"] += bfs_seconds * 1000.0

    def _close_graph(self) -> None:
        """Fold the distinct (graph, source, mask) BFS keys of one input into the total."""
        self.counts["graph.bfs_distinct"] += len(self._pairs)
        self._pairs.clear()

    def _decide(self, g: Graph) -> Optional[Hole]:
        if g.n < 5:
            return None
        clock = time.perf_counter
        for metric, layer, stage in STAGES:
            t0 = clock()
            hole = stage(g)
            self.ms[metric] += (clock() - t0) * 1000.0
            if hole is not None:
                self.counts[layer + ".hits"] += 1
                return hole
        return None

    def detect(self, g: Graph) -> Optional[Hole]:
        """``oddhole.detect`` decomposed; the detector time counts as the graph side."""
        t0 = time.perf_counter()
        hole = self._decide(g)
        self.ms["pipeline.graph_side_ms"] += (time.perf_counter() - t0) * 1000.0
        self._close_graph()
        return hole

    def digest(self, g: Graph) -> str:
        t0 = time.perf_counter()
        d = graph_digest(g)
        self.ms["pipeline.digest_ms"] += (time.perf_counter() - t0) * 1000.0
        return d

    def perfect(self, g: Graph) -> tuple[str, Optional[Hole], Optional[str]]:
        """``oddhole.pipeline.test_perfect`` decomposed into its two runs.

        Returns ``(verdict, witness, witness_kind)``.
        """
        clock = time.perf_counter
        t0 = clock()
        hole = self._decide(g)
        self.ms["pipeline.graph_side_ms"] += (clock() - t0) * 1000.0
        outcome: tuple[str, Optional[Hole], Optional[str]] = ("imperfect", hole, "hole")
        if hole is None:
            t0 = clock()
            gc = g.complement()
            t1 = clock()
            antihole = self._decide(gc)
            t2 = clock()
            self.ms["pipeline.complement_ms"] += (t1 - t0) * 1000.0
            self.ms["pipeline.complement_side_ms"] += (t2 - t1) * 1000.0
            outcome = ("imperfect", antihole, "antihole") if antihole else ("perfect", None, None)
        self.digest(g)
        self._close_graph()
        return outcome
