"""Pin the witnesses of the public stages on a fixed seeded graph set.

Each stage must return the very same answer as before for every graph:
the same vertex tuple, in the same order, or the same witness object.  The
test hashes the repr of those answers and compares the hash to a constant.
A speed-up that changes a tie-break shows here even when every answer still
verifies.  A change that alters witnesses on purpose updates ``DIGEST`` and
records why in CHANGES.md.
"""

import hashlib

import oddhole
from oddhole.generators import decorated_odd_cycle, gnp

STAGES = ("detect", "classify_candidate", "find_jewel", "find_pyramid", "test_clean",
          "test_heavy_cleanable")

DIGEST = "3b147bf1b3b9af08765ba4999ad720a3e1e1f69c324127678d9c7699f8a4de02"


def _graphs():
    base = [gnp(n, p, s) for n in (8, 10, 12) for p in (0.2, 0.35, 0.5) for s in range(15)]
    base += [decorated_odd_cycle(k, e, s) for k in (7, 9, 11) for e in (2, 3) for s in range(10)]
    return [h for g in base for h in (g, g.complement())]


def witness_digest() -> str:
    h = hashlib.sha256()
    for g in _graphs():
        row = " | ".join(repr(getattr(oddhole, name)(g)) for name in STAGES)
        h.update(f"{g.n} {g.adj} {row}\n".encode())
    return h.hexdigest()


def test_witnesses_match_the_pinned_digest():
    assert witness_digest() == DIGEST
