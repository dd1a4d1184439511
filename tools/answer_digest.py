#!/usr/bin/env python3
"""Print one digest of the answers per benchmark workload and seed.

For seeds 1-3 of each workload of ``perfbench/corpora.py`` the corpus is
built and every graph decided: by ``oddhole.detect`` on ``dense-negative``,
``sparse-negative`` and ``stream-batch``, and by
``oddhole.pipeline.test_perfect`` on ``perfect-mixed``, whose answer is the
triple ``(verdict, witness, witness_kind)``.  The sha256 of one line per
graph, its graph6 encoding and the repr of its answer, is printed as
``workload seed digest``.  Two checkouts that print the same lines build
the same corpora and give the same verdicts and the same witnesses, in the
same vertex order, on every benchmark graph.  Standard
library only; run from anywhere::

    python tools/answer_digest.py

``tools/answer_digests.txt`` holds the lines of the committed answers, so
``python tools/answer_digest.py | diff tools/answer_digests.txt -`` fails
on any changed answer; a change meant to change answers updates that file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpora  # noqa: E402
from oddhole import detect  # noqa: E402
from oddhole.pipeline import test_perfect  # noqa: E402

SEEDS = (1, 2, 3)


def answer(workload: str, g) -> tuple:
    if workload == "perfect-mixed":
        d = test_perfect(g)
        return d.verdict, d.witness, d.witness_kind
    return (detect(g),)


def main() -> None:
    for workload in corpora.WORKLOADS:
        for seed in SEEDS:
            h = hashlib.sha256()
            cases = corpora.build(workload, seed)
            for case, line in zip(cases, corpora.graph6_lines(cases)):
                h.update(f"{line} {answer(workload, case.graph)!r}\n".encode())
            print(f"{workload} {seed} {h.hexdigest()}")


if __name__ == "__main__":
    main()
