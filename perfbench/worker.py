"""One workload, run in a process of its own so that its peak RSS is its own.

``run.py`` starts this script with a JSON job on stdin::

    {"workload": ..., "seconds": ..., "trace": 0 | 1,
     "cases": [[graph6, verdict, witness_kind], ...]}

and reads one JSON object from its last stdout line.  Load is a closed loop:
one caller, the next graph only after the previous answer.

Untraced, the library workloads call ``oddhole.detect`` or
``oddhole.pipeline.test_perfect`` on every graph, in whole passes over the
corpus while the next pass would end within ``seconds``; ``stream-batch``
pipes the corpus as one batch into ``oddhole detect --stdin-stream --json``,
one subprocess at a time, the same way.  A few inputs are decided first,
untimed, as a warm-up.  Every timed call (or batch) is scaled to the host's
speed by the reference task timed beside it (``reference.py``); each graph's
(or output line's) time is its median over the passes, and the percentiles
are taken over those medians.  Traced, each workload makes one untraced pass
and one pass through :class:`tracing.Tracer`, which must give the same
answers.

Every answer passes a correctness gate: the verdict known by construction,
each witness re-checked with ``is_odd_hole`` (on the complement for an
antihole), and for the stream the exit code and each JSON line checked
against its input line.  A failed check counts against the run and its time
stays in the sample.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from typing import Callable, Optional

import reference
from corpora import Case
from oddhole import Graph, detect, is_odd_hole
from oddhole.formats import parse_graph6
from oddhole.pipeline import graph_digest, run_detection, test_perfect

CLI = [sys.executable, "-m", "oddhole.cli", "detect", "--stdin-stream", "--json"]
# The stream's work without the CLI: parse and decide each stdin line.
PLAIN_STREAM = (
    "import sys\n"
    "from oddhole.formats import parse_graph6\n"
    "from oddhole.pipeline import run_detection\n"
    "for line in sys.stdin.read().split():\n"
    "    run_detection(parse_graph6(line).graph)\n"
)
CLI_TIMEOUT_S = 150
# Lines and graphs on which the traced run measures a layer that the
# workload's own entry point never reaches (the CLI, the complement side).
PROBE = 4
# Inputs decided once, untimed, before a timed run starts.
WARMUP = 3
# Reference task runs before each subprocess the worker times (a stream
# batch, a CLI cost run); one sample is their median.
BATCH_REFS = 40


class Gate:
    """Counts attempts and failures; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problem: Optional[str], where: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{where}: {problem}")


def check_detect(case: Case, hole) -> Optional[str]:
    if (hole is not None) != case.has_odd_hole:
        return f"expected odd hole {case.has_odd_hole}, got {hole}"
    if hole is not None and not is_odd_hole(case.graph, hole):
        return f"witness {hole} is not an odd hole"
    return None


def check_perfect(case: Case, verdict: str, witness, kind) -> Optional[str]:
    if (verdict, kind) != (case.verdict, case.witness_kind):
        return f"expected {case.verdict}/{case.witness_kind}, got {verdict}/{kind}"
    if witness is None:
        return None if verdict == "perfect" else "imperfect without a witness"
    host = case.graph.complement() if kind == "antihole" else case.graph
    if not is_odd_hole(host, witness):
        return f"{kind} witness {witness} is not an odd hole"
    return None


def check_stream_line(case: Case, raw: str) -> Optional[str]:
    try:
        doc = json.loads(raw)
        verdict, n, digest, witness = doc["verdict"], doc["n"], doc["digest"], doc["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad JSON line {raw!r}: {exc}"
    if n != case.graph.n or digest != graph_digest(case.graph):
        return f"line answers another graph (n={n}, digest={digest})"
    if verdict not in ("odd-hole-found", "no-odd-hole"):
        return f"unknown verdict {verdict!r}"
    hole = tuple(witness) if witness is not None else None
    if (verdict == "odd-hole-found") != (hole is not None):
        return f"verdict {verdict} with witness {witness}"
    return check_detect(case, hole)


def _whole_passes(seconds: float, one_pass: Callable[[], None]) -> None:
    """Run whole passes while the next one, as long as the last, would end
    within ``seconds``; the first pass always runs."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        took = time.perf_counter() - t0
        if seconds - (time.perf_counter() - start) < took:
            return


def per_input_medians(times: list[list[float]]) -> list[float]:
    """Median over the passes of each input's time, in ms; the percentiles
    across inputs are taken over these medians."""
    return [statistics.median(t) * 1000.0 for t in times]


def latency_summary(ms: list[float]) -> dict:
    if len(ms) < 100:
        raise RuntimeError(f"only {len(ms)} latency samples; p90 needs ten beyond it")
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "latency_samples": len(ms),
    }


def scaled_seconds(calls: list[Callable[[], object]], count: int, window: int) -> tuple[list[float], float]:
    """Run each call once; return each call's time scaled to the nominal
    host, with the reference task timed ``count`` times before each call and
    after the last (``reference.py``), and the raw total."""
    raw, refs = [], []
    for call in calls:
        refs.append(reference.timed(count))
        t0 = time.perf_counter()
        call()
        raw.append(time.perf_counter() - t0)
    refs.append(reference.timed(count))
    return reference.scaled(raw, refs, window), sum(raw)


def run_library(workload: str, cases: list[Case], seconds: float) -> dict:
    gate = Gate()
    decide = test_perfect if workload == "perfect-mixed" else detect
    check = ((lambda case, out: check_perfect(case, out.verdict, out.witness, out.witness_kind))
             if workload == "perfect-mixed" else check_detect)
    passes: list[list[float]] = []  # each pass's scaled time of every graph
    raw_seconds = 0.0
    outs: list = [None] * len(cases)

    def call(i: int) -> None:
        try:
            outs[i] = decide(cases[i].graph)
        except Exception as exc:  # a crash is a failed graph, not a lost one
            outs[i] = exc

    def one_pass() -> None:
        nonlocal raw_seconds
        scaled, raw = scaled_seconds([partial(call, i) for i in range(len(cases))], 1, window=2)
        passes.append(scaled)
        raw_seconds += raw
        for i, (case, out) in enumerate(zip(cases, outs)):
            problem = f"raised {out!r}" if isinstance(out, Exception) else check(case, out)
            gate.record(problem, f"graph {i}")

    # Warm-up: lazy set-up inside the program is paid before timing starts.
    for case in cases[:WARMUP]:
        decide(case.graph)
    _whole_passes(seconds, one_pass)
    medians = per_input_medians([list(t) for t in zip(*passes)])
    summary = latency_summary(medians)
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.messages,
        "metrics": {
            # One pass over the corpus at each graph's median cost.
            "throughput_gps": len(cases) / (sum(medians) / 1000.0),
            # A library call delivers its one result when it returns.
            "time_to_first_result_ms": summary["latency_p50_ms"],
            **summary,
            "passes": len(passes),
            "raw_throughput_gps": gate.attempted / raw_seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def run_cli(lines: list[str]) -> tuple[float, list[tuple[float, str]], int, str]:
    """One ``--stdin-stream --json`` subprocess on ``lines``.

    Returns the wall time, each output line with its arrival time after the
    start, the exit code and stderr.
    """
    data = "".join(line + "\n" for line in lines)
    t0 = time.perf_counter()
    proc = subprocess.Popen(CLI, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        arrivals = [(time.perf_counter() - t0, raw) for raw in proc.stdout]
        rc = proc.wait(timeout=CLI_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    return wall, arrivals, rc, err


def check_batch(cases: list[Case], arrivals, rc: int, err: str, gate: Gate) -> None:
    expected_rc = 1 if any(c.has_odd_hole for c in cases) else 0
    if rc != expected_rc or len(arrivals) != len(cases):
        problem = (f"exit code {rc} (expected {expected_rc}), "
                   f"{len(arrivals)} lines for {len(cases)} inputs; stderr {err[-200:]!r}")
        for i in range(len(cases)):
            gate.record(problem, f"line {i}")
        return
    for i, (case, (_, raw)) in enumerate(zip(cases, arrivals)):
        gate.record(check_stream_line(case, raw), f"line {i}")


def run_stream(lines: list[str], cases: list[Case], seconds: float) -> dict:
    gate = Gate()
    walls: list[float] = []
    firsts: list[float] = []
    arrivals: list[list[float]] = []  # each batch's line arrival times
    refs: list[float] = []  # reference task time before each batch

    run_cli(lines[:WARMUP])  # warm-up: file and bytecode caches

    def one_batch() -> None:
        refs.append(reference.timed(BATCH_REFS))
        wall, lines_out, rc, err = run_cli(lines)
        walls.append(wall)
        # A missing line never arrived: it counts at the batch's end.
        times = [t for t, _ in lines_out[:len(cases)]]
        arrivals.append(times + [wall] * (len(cases) - len(times)))
        firsts.append(times[0] if times else wall)
        check_batch(cases, lines_out, rc, err, gate)

    _whole_passes(seconds, one_batch)
    refs.append(reference.timed(BATCH_REFS))
    # One scale factor per batch, for everything timed in it; the task is
    # timed for a small share of a batch, so the window is wider.
    scale = reference.factors(refs, window=3)
    by_line = [[batch[k] * f for batch, f in zip(arrivals, scale)] for k in range(len(cases))]
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.messages,
        "metrics": {
            "throughput_gps": len(cases) / statistics.median(w * f for w, f in zip(walls, scale)),
            "time_to_first_result_ms": statistics.median(t * f for t, f in zip(firsts, scale)) * 1000.0,
            **latency_summary(per_input_medians(by_line)),
            "batches": len(walls),
            "raw_throughput_gps": len(cases) / statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
    }


def cli_costs_ms(lines: list[str], cases: list[Case], gate: Gate, reps: int = 5) -> tuple[float, float]:
    """The CLI's start-up and its overhead, medians over ``reps``, in ms.

    Start-up is the CLI answering an empty stdin.  Overhead is the stream's
    wall time on ``lines`` minus that of a plain fresh interpreter that
    imports ``oddhole`` and parses and decides the same lines
    (``PLAIN_STREAM``): what the CLI adds on top, such as ``click``, result
    documents and digests.  Each rep times the two back to back, and the
    median is taken over their differences; being a difference of two timed
    runs, it can still come out slightly below zero when the overhead is
    small.
    """
    data = "".join(line + "\n" for line in lines)

    def startup() -> None:
        _, arrivals, rc, err = run_cli([])
        if rc != 0 or arrivals:
            raise RuntimeError(f"empty stream gave exit code {rc}: {err[-200:]!r}")

    def stream() -> None:
        _, arrivals, rc, err = run_cli(lines)
        check_batch(cases, arrivals, rc, err, gate)

    def plain() -> None:
        subprocess.run([sys.executable, "-c", PLAIN_STREAM], input=data, text=True,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)

    times, _ = scaled_seconds([startup, stream, plain] * reps, BATCH_REFS, window=0)
    overheads = [wall - bare for wall, bare in zip(times[1::3], times[2::3])]
    return statistics.median(times[0::3]) * 1000.0, statistics.median(overheads) * 1000.0


def run_traced(workload: str, lines: list[str], cases: list[Case]) -> dict:
    from tracing import Tracer

    gate = Gate()
    tracer = Tracer()
    metrics: dict = {}
    perfect = workload == "perfect-mixed"
    stream = workload == "stream-batch"

    def entry(g: Graph):
        """The workload's own entry point, its answer as the tracer gives it."""
        if perfect:
            d = test_perfect(g)
            return d.verdict, d.witness, d.witness_kind
        if stream:
            return run_detection(g).witness
        return detect(g)

    # Untraced pass through the entry point.
    expected: list = []
    untraced = sum(scaled_seconds([lambda g=c.graph: expected.append(entry(g)) for c in cases], 1, 2)[0])

    t0 = time.perf_counter()
    graphs = [parse_graph6(line).graph for line in lines]
    metrics["formats.parse_ms"] = (time.perf_counter() - t0) * 1000.0

    def traced_call(i: int) -> None:
        case, g, ref = cases[i], graphs[i], expected[i]
        if perfect:
            out = tracer.perfect(g)
            problem = check_perfect(case, *out)
        else:
            out = tracer.detect(g)
            if stream:
                tracer.digest(g)
            problem = check_detect(case, out)
        if problem is None and out != ref:
            problem = f"decomposed answer {out} differs from the entry point's {ref}"
        gate.record(problem, f"graph {i}")

    with tracer.installed():
        traced = sum(scaled_seconds([lambda i=i: traced_call(i) for i in range(len(cases))], 1, 2)[0])

    # Layers the workload's entry point does not reach, measured untraced on
    # the first PROBE inputs so that every layer reports a measured time.
    if not perfect:
        t0 = time.perf_counter()
        complements = [g.complement() for g in graphs[:PROBE]]
        t1 = time.perf_counter()
        for gc in complements:
            detect(gc)
        tracer.ms["pipeline.complement_ms"] += (t1 - t0) * 1000.0
        tracer.ms["pipeline.complement_side_ms"] += (time.perf_counter() - t1) * 1000.0
    if not perfect and not stream:
        for g in graphs:
            tracer.digest(g)
    probe = len(lines) if stream else PROBE
    metrics["cli.startup_ms"], metrics["cli.overhead_ms"] = cli_costs_ms(lines[:probe], cases[:probe], gate)

    counts = tracer.counts
    metrics.update(tracer.ms)
    metrics.update(counts)
    metrics["graph.bfs_reuse"] = counts["graph.bfs_distinct"] / max(1, counts["graph.bfs_calls"])
    metrics["trace.overhead_ratio"] = traced / untraced
    return {"attempted": gate.attempted, "failed": gate.failed,
            "failures": gate.messages, "metrics": metrics}


def main() -> None:
    job = json.load(sys.stdin)
    lines = [line for line, _, _ in job["cases"]]
    cases = [Case(parse_graph6(line).graph, verdict, kind) for line, verdict, kind in job["cases"]]
    if job["trace"]:
        result = run_traced(job["workload"], lines, cases)
    elif job["workload"] == "stream-batch":
        result = run_stream(lines, cases, job["seconds"])
    else:
        result = run_library(job["workload"], cases, job["seconds"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
