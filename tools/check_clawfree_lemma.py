#!/usr/bin/env python3
"""Check the finite cases of the claw-free lemma in ``docs/derived-types.md``.

The lemma: in a claw-free graph, a shortest odd hole ``C`` of length ``k``
has an edge whose two ends see every ``C``-major vertex between them.  Steps
(a)-(c) of its proof show that for ``k >= 7`` every major sees exactly four
consecutive vertices of ``C`` (its run) and that any two runs meet; step (d)
finds a vertex common to all runs when ``k >= 11``.  This script settles
``k = 7`` and ``k = 9``: it lists every minimal family of pairwise meeting
runs that no edge of ``C`` dominates, and checks that every way to give each
run one major, with any edges between the majors, has a claw or an odd hole
shorter than ``C``.  At ``k = 11`` it must find no such family, as step (d)
says.  It also re-checks steps (a)-(c) by brute force at ``k = 7, 9, 11``:
every neighbourhood on ``C`` of one outside vertex, and every pair of
majors with disjoint runs.

Run ``python tools/check_clawfree_lemma.py``.  It prints one line per check
and exits 1 if any fails.  It needs only the standard library and takes
about a second.
"""

from __future__ import annotations

import sys
from itertools import combinations
from typing import Iterable


def bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def run(k: int, start: int) -> int:
    """The mask of the four consecutive vertices ``start .. start + 3`` of C_k."""
    return sum(1 << (start + i) % k for i in range(4))


def with_majors(k: int, nbrs: list[int], links: Iterable[tuple[int, int]] = ()) -> list[int]:
    """Rows of the hole ``0 .. k-1`` plus one vertex per mask of ``nbrs``.

    Vertex ``k + i`` sees the hole vertices of ``nbrs[i]``; ``links`` are
    edges between those vertices, numbered ``0 .. len(nbrs) - 1``.
    """
    rows = [(1 << (v + 1) % k) | (1 << (v - 1) % k) for v in range(k)] + [0] * len(nbrs)
    edges = [(k + i, v) for i, m in enumerate(nbrs) for v in bits(m)]
    edges += [(k + i, k + j) for i, j in links]
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def has_claw(rows: list[int]) -> bool:
    """Some vertex has three pairwise non-adjacent neighbours."""
    return any(
        not (rows[a] >> b & 1 or rows[a] >> c & 1 or rows[b] >> c & 1)
        for row in rows for a, b, c in combinations(bits(row), 3)
    )


def has_odd_hole_below(rows: list[int], k: int) -> bool:
    """Some vertex set of odd size 5 .. k-2 induces a cycle."""
    for size in range(5, k, 2):
        for vs in combinations(range(len(rows)), size):
            mask = sum(1 << v for v in vs)
            if all((rows[v] & mask).bit_count() == 2 for v in vs):
                seen = frontier = 1 << vs[0]  # two-regular: a cycle iff connected
                while frontier:
                    reach = 0
                    for v in bits(frontier):
                        reach |= rows[v]
                    frontier = reach & mask & ~seen
                    seen |= frontier
                if seen == mask:
                    return True
    return False


def is_major(k: int, nbrs: int) -> bool:
    """``nbrs`` fits in no three consecutive vertices of C_k."""
    return all(nbrs & ~(run(k, s) & ~(1 << (s + 3) % k)) for s in range(k))


def check_one_vertex(k: int) -> bool:
    """(a)-(b): a major that is not on a four-run gives a claw or a shorter odd hole."""
    fours = {run(k, s) for s in range(k)}
    bad = []
    for m in range(1, 1 << k):
        if is_major(k, m) and m not in fours:
            rows = with_majors(k, [m])
            if not has_claw(rows) and not has_odd_hole_below(rows, k):
                bad.append(bits(m))
    print(f"k={k}: every major off a four-run gives a claw or a shorter odd hole: "
          f"{'ok' if not bad else 'FAILS for ' + str(bad)}")
    return not bad


def check_disjoint_pair(k: int) -> bool:
    """(c): two majors with disjoint runs give a shorter odd hole, adjacent or not."""
    bad = [(s, t, link) for s in range(k) for t in range(k) if not run(k, s) & run(k, t)
           for link in ([], [(0, 1)])
           if not has_odd_hole_below(with_majors(k, [run(k, s), run(k, t)], link), k)]
    print(f"k={k}: two majors with disjoint runs give a shorter odd hole: "
          f"{'ok' if not bad else 'FAILS for ' + str(bad)}")
    return not bad


def undominated(k: int, starts: tuple[int, ...]) -> bool:
    """No edge ``j, j+1`` of C_k has an end in every run of ``starts``."""
    return all(any(not run(k, s) & ((1 << j) | (1 << (j + 1) % k)) for s in starts)
               for j in range(k))


def minimal_families(k: int) -> list[tuple[int, ...]]:
    """The families of pairwise meeting runs with no dominating edge, minimal by inclusion.

    Taking runs away can only add dominating edges, so a family is minimal
    when each family with one run fewer has one.
    """
    out = []
    for size in range(1, k + 1):
        for starts in combinations(range(k), size):
            if (all(run(k, s) & run(k, t) for s, t in combinations(starts, 2))
                    and undominated(k, starts)
                    and not any(undominated(k, starts[:i] + starts[i + 1:]) for i in range(size))):
                out.append(starts)
    return out


def check_families(k: int, expected: int) -> bool:
    """(d): every realisation of a minimal family has a claw or a shorter odd hole."""
    families = minimal_families(k)
    bad = []
    for starts in families:
        pairs = list(combinations(range(len(starts)), 2))
        for links in range(1 << len(pairs)):
            rows = with_majors(k, [run(k, s) for s in starts],
                               [p for i, p in enumerate(pairs) if links >> i & 1])
            if not has_claw(rows) and not has_odd_hole_below(rows, k):
                bad.append((starts, links))
    ok = not bad and len(families) == expected
    print(f"k={k}: {len(families)} minimal undominated run families (expected {expected}), "
          f"each realisation has a claw or a shorter odd hole: "
          f"{'ok' if ok else 'FAILS for ' + str(bad or families)}")
    return ok


def main() -> int:
    checks = [check_one_vertex(k) for k in (7, 9, 11)]
    checks += [check_disjoint_pair(k) for k in (9, 11)]
    checks += [check_families(7, 7), check_families(9, 3), check_families(11, 0)]
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
