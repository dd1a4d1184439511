"""Result documents and the perfection test.

A graph is perfect exactly when neither it nor its complement contains an
odd hole, so the perfection test is two detector runs; an imperfection
witness is either a hole of the graph or a hole of the complement
(reported as an antihole of the graph).  Both runs search the leaves that
stage 0 (``graph.split_leaves``) leaves of the graph: the graph side runs
stages 1-3 on each leaf, and the complement side runs ``detect`` on the
complement of each leaf, as ``g`` has an odd antihole iff some leaf does.
So no complement of the whole graph is built unless the graph is its own
only leaf.  Neither side runs the brute-force oracle or the reference
detectors of ``oddhole.simple``.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import NamedTuple, Optional

from .fast import _cycle_hole, _search_leaves, detect
from .formats import encode_graph6
from .graph import Graph, Mask, _ring, is_odd_antihole, is_odd_hole, split_leaves

# the witness kinds each verdict may carry; None means no witness
WITNESS_KINDS: dict[str, tuple[Optional[str], ...]] = {
    "odd-hole-found": ("hole",),
    "no-odd-hole": (None,),
    "perfect": (None,),
    "imperfect": ("hole", "antihole"),
}


def graph_digest(g: Graph) -> str:
    return "sha256:" + hashlib.sha256(encode_graph6(g).encode()).hexdigest()[:16]


class ResultDocument(NamedTuple):
    """Outcome of a detection or perfection run, JSON-serializable.

    ``witness`` is present exactly for the odd-hole-found and imperfect
    verdicts, and ``witness_kind`` with it (``WITNESS_KINDS``): ``hole``
    for a hole of the graph, ``antihole`` for a hole of its complement (an
    antihole of the graph), which only an imperfect verdict carries.
    """

    verdict: str  # odd-hole-found | no-odd-hole | perfect | imperfect
    n: int
    algorithm: str  # "fast"; older documents may name another detector
    millis: float
    digest: str
    witness: Optional[tuple[int, ...]] = None
    witness_kind: Optional[str] = None  # hole | antihole

    def to_json(self) -> str:
        data = self._asdict()
        data["witness"] = list(self.witness) if self.witness is not None else None
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        """Read a document back; a witness must be a list of vertex ids.

        A document that is not a JSON object, that lacks a field or has one
        the class does not know, or whose verdict or witness kind is not one
        of the documented ones, is refused with ``ValueError``; so is one
        whose ``n`` is not a non-negative JSON integer, whose ``millis`` is
        not a number, or whose ``digest`` or ``algorithm`` is not a string.
        Each id must be a JSON integer: ``0.0``, ``"0"`` and ``true`` are
        refused too (Python reads ``true`` as the int 1).
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a result document must be a JSON object, got {data!r}")
        known = set(cls._fields)
        needed = known - cls._field_defaults.keys()
        if data.keys() - known:
            raise ValueError(f"unknown fields {sorted(data.keys() - known)}")
        if needed - data.keys():
            raise ValueError(f"missing fields {sorted(needed - data.keys())}")
        for name, kind in (("n", int), ("millis", (int, float)), ("digest", str),
                           ("algorithm", str)):
            if not isinstance(data[name], kind) or isinstance(data[name], bool):
                raise ValueError(f"bad {name} {data[name]!r}")
        if data["n"] < 0:
            raise ValueError(f"bad n {data['n']!r}")
        if not isinstance(data["verdict"], str) or data["verdict"] not in WITNESS_KINDS:
            raise ValueError(f"unknown verdict {data['verdict']!r}")
        if data.get("witness_kind") not in ("hole", "antihole", None):
            raise ValueError(f"unknown witness kind {data['witness_kind']!r}")
        witness = data.get("witness")
        if witness is not None:
            if not isinstance(witness, list) or any(type(v) is not int for v in witness):
                raise ValueError(f"witness must be a list of vertex ids, got {witness!r}")
            data["witness"] = tuple(witness)
        return cls(**data)

    def verify_witness(self, g: Graph) -> bool:
        """Re-check the stored witness against the graph it came from.

        A document whose vertex count or digest is not ``g``'s, or whose
        witness or witness kind does not fit its verdict (``WITNESS_KINDS``),
        is refused, whatever its witness.
        """
        if (self.n != g.n or self.digest != graph_digest(g)
                or self.witness_kind not in WITNESS_KINDS.get(self.verdict, ())
                or (self.witness is None) != (self.witness_kind is None)):
            return False
        if self.witness is None:
            return True
        check = is_odd_antihole if self.witness_kind == "antihole" else is_odd_hole
        return check(g, self.witness)


def _document(g: Graph, t0: float, hole: Optional[tuple[int, ...]], kind: str,
              found: str, clean: str) -> ResultDocument:
    """The document of a run that began at ``t0`` and gave ``hole`` of ``kind``.

    ``millis`` stops here, before the digest is taken.
    """
    ms = (time.perf_counter() - t0) * 1000.0
    if hole is None:
        return ResultDocument(clean, g.n, "fast", ms, graph_digest(g))
    return ResultDocument(found, g.n, "fast", ms, graph_digest(g),
                          witness=tuple(hole), witness_kind=kind)


def run_detection(g: Graph) -> ResultDocument:
    t0 = time.perf_counter()
    return _document(g, t0, detect(g), "hole", "odd-hole-found", "no-odd-hole")


def _search_leaf_complements(g: Graph, leaves: list[Mask]) -> Optional[tuple[int, ...]]:
    """The first odd hole ``detect`` finds in the complement of a leaf, in
    ``g``'s ids, as ``fast._search_leaves`` searches the leaves themselves.

    A complement that is an odd cycle gets ``fast._cycle_hole``'s hole with
    no stage 0: it is its own only leaf, so ``detect`` would return the
    same.  ``graph._ring`` tells that from the leaf's own rows, so the
    complement is built only for a leaf whose complement is no such
    cycle."""
    for leaf in leaves:
        sub, back = g.induced(leaf)
        ring = _ring(sub.adj, sub.full_mask)
        hole = _cycle_hole(ring[0]) if ring and ring[1] else detect(sub.complement())
        if hole is not None:
            hole = tuple(back[v] for v in hole)
            if is_odd_antihole(g, hole):
                return hole
    return None


def test_perfect(g: Graph) -> ResultDocument:
    """Perfection via the strong characterization: check g and its complement.

    The graph side is ``detect`` on the leaves of ``graph.split_leaves``.
    The complement side is ``detect`` on the complement of each of the same
    leaves, in split order, and its witness is the first odd hole found
    there, in ``g``'s ids, verified as an antihole of ``g``.  That is exact:
    an odd antihole of length five is a 5-hole, which the graph side finds
    first, and one of length seven or more lies inside one leaf (the proof
    is in ``split_leaves``).  With no leaf, ``g`` is Berge and the answer is
    ``perfect``, with no complement built.  The witness can differ from
    ``detect(g.complement())``'s: for graph6 ``H}NHCpl``, whose only leaf is
    ``{0, 1, 2, 3, 4, 7, 8}``, it is ``(2, 3, 8, 0, 4, 1, 7)``, while the
    whole complement gives ``(1, 7, 5, 3, 8, 0, 4)``.
    """
    t0 = time.perf_counter()
    leaves = split_leaves(g)
    hole, kind = _search_leaves(g, leaves), "hole"
    if hole is None:
        hole, kind = _search_leaf_complements(g, leaves), "antihole"
    return _document(g, t0, hole, kind, "imperfect", "perfect")


test_perfect.__test__ = False  # a library entry point, not a pytest case  # type: ignore[attr-defined]
