"""Pin the witnesses of the public stages on a fixed seeded graph set.

Each stage must return the very same answer as before for every graph:
the same vertex tuple, in the same order, or the same witness object.  The
test hashes the repr of those answers and compares the hash to a constant.
A speed-up that changes a tie-break shows here even when every answer still
verifies.  A change that alters witnesses on purpose updates ``DIGEST`` and
records why in CHANGES.md.
"""

import hashlib

from oddhole.cleaning import classify_candidate, test_clean, test_heavy_cleanable
from oddhole.configs import find_jewel, find_pyramid
from oddhole.fast import detect
from oddhole.generators import decorated_odd_cycle, gnp

STAGES = (detect, classify_candidate, find_jewel, find_pyramid, test_clean, test_heavy_cleanable)

DIGEST = "f7befd9374490fd30255faac08bbebc9bdaf11ea84dd56ab1712b8a2defab2a2"


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


def test_witnesses_match_the_pinned_digest():
    assert witness_digest() == DIGEST
