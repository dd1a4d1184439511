"""Seeded benchmark for ``oddhole``: detect, test_perfect and the CLI stream.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-negative --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

It builds the workload's corpus from the seed (``corpora.py``), measures the
set-up cost in fresh interpreters, runs the workload in a process of its own
(``worker.py``), prints every metric by name and unit, writes a stamped
result file under ``perfbench/results/``, and prints as its last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (``tracing.py``).  See ``perfbench/README.md``.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
SETUP_REPS = 15
# Reference task runs around each set-up run; see setup_seconds.
SETUP_REFS = 5

# Parse every graph6 line from stdin into a Graph, as a library user would
# before deciding anything.
LIBRARY_SETUP = (
    "import sys\n"
    "import oddhole\n"
    "from oddhole.formats import parse_graph6\n"
    "graphs = [parse_graph6(line).graph for line in sys.stdin.read().split()]\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    """The program from this checkout's ``src/``; the CLI with its default
    worker count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ODDHOLE_THREADS", None)
    return env


def timed_run(cmd: list[str], stdin: str) -> float:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          env=child_env(), timeout=60)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"set-up command {cmd[1:3]} exited with {done.returncode}: {done.stderr[-300:]}")
    return wall


def setup_seconds(workload: str, lines: list[str]) -> float:
    """Median cost paid before any graph is decided, in fresh interpreters.

    Library workloads: import ``oddhole`` and parse the corpus.  The stream:
    the CLI answering an empty stdin.  One untimed run first warms the file
    cache, and the bytecode cache where the environment lets Python write one.
    Each run is scaled to the host's speed by the reference task timed
    before and after it (``reference.py``).
    """
    import reference

    if workload == "stream-batch":
        from worker import CLI

        cmd, stdin = CLI, ""
    else:
        cmd, stdin = [sys.executable, "-c", LIBRARY_SETUP], "\n".join(lines) + "\n"
    timed_run(cmd, stdin)
    walls, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(reference.timed(SETUP_REFS))
        walls.append(timed_run(cmd, stdin))
    refs.append(reference.timed(SETUP_REFS))
    return statistics.median(reference.scaled(walls, refs, window=1))


def run_worker(job: dict) -> dict:
    """Start ``worker.py`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload {job['workload']} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        fail(f"workload {job['workload']} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oddhole").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import corpora

    cases = corpora.build(workload, seed)
    lines = corpora.graph6_lines(cases)
    result = run_worker({
        "workload": workload, "seconds": seconds, "trace": trace,
        "cases": [[line, c.verdict, c.witness_kind] for line, c in zip(lines, cases)],
    })
    extra = result["metrics"]
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        extra["setup_s"] = setup_seconds(workload, lines)
    missing = [m["name"] for m in wanted if m["name"] not in extra]
    if missing:
        fail(f"workload {workload} did not measure {missing}")
    metrics = {m["name"]: {"value": extra.pop(m["name"]), "unit": m["unit"]} for m in wanted}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    stamp = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "corpus_graphs": len(lines),
        "corpus_digest": corpora.lines_digest(lines),
    }
    record = {"stamp": stamp, "result": line,
              "failure_rate": result["failed"] / result["attempted"],
              "details": extra, "failures": result["failures"]}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {workload} seed={seed} trace={trace} graphs={len(lines)} "
          f"corpus={stamp['corpus_digest'][:23]} python={stamp['python']} cpus={stamp['cpu_count']}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{workload} {name} = {value} {m['unit']}")
    for name, value in sorted(extra.items()):
        print(f"{workload} {name} = {value}")
    print(f"{workload} failure_rate = {record['failure_rate']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for message in result["failures"]:
        print(f"{workload} FAILED {message}")
    return line


def main() -> None:
    import corpora

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = corpora.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    if len(lines) == 1:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    if not (SRC / "oddhole" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'oddhole'} is missing")
    sys.path.insert(0, str(SRC))
    main()
