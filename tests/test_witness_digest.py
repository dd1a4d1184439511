"""Pin the witnesses of the public stages on a fixed seeded graph set.

Each stage must return the very same answer as before for every graph:
the same vertex tuple, in the same order, or the same witness object.  The
test hashes the repr of those answers and compares the hash to a constant.
A speed-up that changes a tie-break shows here even when every answer still
verifies.  A change that alters witnesses on purpose updates ``DIGEST`` and
records why in CHANGES.md.  ``PERFECT_DIGEST`` pins ``test_perfect``'s
``(verdict, witness, witness_kind)`` on the same graphs the same way.
"""

import hashlib

from oddhole.cleaning import classify_candidate, test_clean, test_heavy_cleanable
from oddhole.configs import find_jewel, find_pyramid
from oddhole.fast import detect
from oddhole.generators import decorated_odd_cycle, gnp
from oddhole.pipeline import test_perfect

STAGES = (detect, classify_candidate, find_jewel, find_pyramid, test_clean, test_heavy_cleanable)

DIGEST = "f7befd9374490fd30255faac08bbebc9bdaf11ea84dd56ab1712b8a2defab2a2"
PERFECT_DIGEST = "d1c36b64e270539219869944a18d0f90a2af8299915d5f0f9ad7924973d3f3c1"


def _graphs():
    base = [gnp(n, p, s) for n in (8, 10, 12) for p in (0.2, 0.35, 0.5) for s in range(15)]
    base += [decorated_odd_cycle(k, e, s) for k in (7, 9, 11) for e in (2, 3) for s in range(10)]
    return [h for g in base for h in (g, g.complement())]


def witness_digest() -> str:
    h = hashlib.sha256()
    for g in _graphs():
        row = " | ".join(repr(stage(g)) for stage in STAGES)
        h.update(f"{g.n} {g.adj} {row}\n".encode())
    return h.hexdigest()


def perfect_digest() -> str:
    h = hashlib.sha256()
    for g in _graphs():
        d = test_perfect(g)
        h.update(f"{g.n} {g.adj} {(d.verdict, d.witness, d.witness_kind)!r}\n".encode())
    return h.hexdigest()


def test_witnesses_match_the_pinned_digest():
    assert witness_digest() == DIGEST


def test_perfection_answers_match_the_pinned_digest():
    assert perfect_digest() == PERFECT_DIGEST
