"""Result documents, the perfection test, and benchmark rows.

A graph is perfect exactly when neither it nor its complement contains an
odd hole, so the perfection test is two detector runs; an imperfection
witness is either a hole of the graph or a hole of the complement
(reported as an antihole of the graph).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, asdict
from typing import Callable, Iterator, Optional

from .fast import detect
from .formats import encode_graph6
from .generators import gnp
from .graph import Graph, is_odd_hole
from .oracle import oracle_find_odd_hole
from .simple import detect_with_simple_pipeline

ALGORITHMS: dict[str, Callable[[Graph], Optional[tuple[int, ...]]]] = {
    "fast": detect,
    "simple": detect_with_simple_pipeline,
    "oracle": oracle_find_odd_hole,
}


def graph_digest(g: Graph) -> str:
    return "sha256:" + hashlib.sha256(encode_graph6(g).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResultDocument:
    """Outcome of a detection or perfection run, JSON-serializable.

    ``witness`` is present exactly for the odd-hole-found and imperfect
    verdicts; for imperfect graphs ``witness_kind`` says whether it is a
    hole of the graph or of its complement (an antihole of the graph).
    """

    verdict: str  # odd-hole-found | no-odd-hole | perfect | imperfect
    n: int
    algorithm: str
    millis: float
    digest: str
    witness: Optional[tuple[int, ...]] = None
    witness_kind: Optional[str] = None  # hole | antihole

    def to_json(self) -> str:
        data = asdict(self)
        data["witness"] = list(self.witness) if self.witness is not None else None
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        data = json.loads(text)
        if data.get("witness") is not None:
            data["witness"] = tuple(data["witness"])
        return cls(**data)

    def verify_witness(self, g: Graph) -> bool:
        """Re-check the stored witness against the graph it came from."""
        if self.witness is None:
            return self.verdict in ("no-odd-hole", "perfect")
        if self.witness_kind == "antihole":
            return is_odd_hole(g.complement(), self.witness)
        return is_odd_hole(g, self.witness)


def _detector(algorithm: str) -> Callable[[Graph], Optional[tuple[int, ...]]]:
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None


def run_detection(g: Graph, algorithm: str = "fast") -> ResultDocument:
    fn = _detector(algorithm)
    t0 = time.perf_counter()
    witness = fn(g)
    ms = (time.perf_counter() - t0) * 1000.0
    if witness is None:
        return ResultDocument("no-odd-hole", g.n, algorithm, ms, graph_digest(g))
    return ResultDocument(
        "odd-hole-found", g.n, algorithm, ms, graph_digest(g),
        witness=tuple(witness), witness_kind="hole",
    )


def test_perfect(g: Graph, algorithm: str = "fast") -> ResultDocument:
    """Perfection via the strong characterization: check g and its complement."""
    fn = _detector(algorithm)
    t0 = time.perf_counter()
    hole = fn(g)
    if hole is not None:
        ms = (time.perf_counter() - t0) * 1000.0
        return ResultDocument(
            "imperfect", g.n, algorithm, ms, graph_digest(g),
            witness=tuple(hole), witness_kind="hole",
        )
    antihole = fn(g.complement())
    ms = (time.perf_counter() - t0) * 1000.0
    if antihole is not None:
        return ResultDocument(
            "imperfect", g.n, algorithm, ms, graph_digest(g),
            witness=tuple(antihole), witness_kind="antihole",
        )
    return ResultDocument("perfect", g.n, algorithm, ms, graph_digest(g))


test_perfect.__test__ = False  # a library entry point, not a pytest case  # type: ignore[attr-defined]

BENCH_HEADER = "n,p,algorithm,seed,millis,verdict"


def bench_rows(
    sizes: list[int],
    p: float,
    per_size: int,
    algorithm: str = "fast",
    seed: int = 0,
) -> Iterator[str]:
    """Timed detection runs over seeded random graphs, one CSV row each."""
    yield BENCH_HEADER
    for n in sizes:
        for i in range(per_size):
            g = gnp(n, p, seed + i)
            doc = run_detection(g, algorithm)
            yield f"{n},{p},{algorithm},{seed + i},{doc.millis:.3f},{doc.verdict}"
