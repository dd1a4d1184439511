import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import oddhole
from oddhole.cli import PROBE_MAX_VERTICES, _parser, main
from oddhole.formats import encode_graph6
from oddhole.generators import cycle_graph, petersen_graph
from oddhole.graph import Graph
from oddhole.pipeline import ResultDocument


class Run(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run(args, input=None):
    """``main(args)`` in this process, on ``input`` as stdin (empty if None)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    finally:
        sys.stdin = stdin
    return Run(code, out.getvalue(), err.getvalue())


C7 = encode_graph6(cycle_graph(7))
C6 = encode_graph6(cycle_graph(6))


def test_detect_exit_codes():
    assert run(["detect", "-"], input=C7).exit_code == 1
    assert run(["detect", "-"], input=C6).exit_code == 0
    assert run(["detect", "-"], input="@@@garbage").exit_code == 2


def test_detect_witness_output():
    res = run(["detect", "-", "--witness"], input=C7)
    lines = res.output.strip().splitlines()
    assert lines[0] == "odd-hole-found"
    assert len(lines[1].split()) == 7


def test_detect_json_output():
    res = run(["detect", "-", "--json"], input=C7)
    doc = json.loads(res.output)
    assert doc["verdict"] == "odd-hole-found"
    assert doc["algorithm"] == "fast"
    assert len(doc["witness"]) == 7


def test_detect_json_line_is_pinned():
    # the whole line, byte for byte but the timing: keys sorted, the default
    # separators, the witness as a list
    res = run(["detect", "-", "--json"], input=C7)
    assert res.exit_code == 1
    assert re.sub(r'"millis": [0-9.e+-]+,', '"millis": M,', res.stdout) == (
        '{"algorithm": "fast", "digest": "sha256:17824ffab01ffa97", "millis": M, "n": 7, '
        '"verdict": "odd-hole-found", "witness": [0, 1, 2, 3, 4, 5, 6], "witness_kind": "hole"}\n')


def test_detect_types_flag():
    # the shape-subset knob is gone; it is refused as a usage error
    res = run(["detect", "-", "--types", "1"], input=C6)
    assert res.exit_code == 2


def test_options_are_not_abbreviated():
    for args in (["detect", "-", "--wit"], ["detect", "-", "--js"], ["detect", "--stdin"]):
        res = run(args, input=f"{C7}\n")
        assert res.exit_code == 2 and res.stdout == "", args


def test_detect_trivial_graphs():
    assert run(["detect", "-"], input="?").exit_code == 0  # empty graph
    assert run(["detect", "-"], input="@").exit_code == 0  # single vertex


def test_detect_edgelist_format():
    # the format is read from the input: an "n m" header is an edge list
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    for command, found in (("detect", "odd-hole-found"), ("perfect", "imperfect"),
                           ("probe", '"hole": [')):
        res = run([command, "-"], input=text)
        assert res.exit_code == 1 and found in res.output, command
    # the sniff reads past a leading comment, as the edge-list reader does
    assert run(["detect", "-"], input="# c5\n" + text).exit_code == 1


def test_stream_mode():
    stream = f"{C7}\n{C6}\n"
    res = run(["detect", "--stdin-stream"], input=stream)
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == ["odd-hole-found", "no-odd-hole"]
    res = run(["detect", "--stdin-stream"], input=f"{C6}\n")
    assert res.exit_code == 0
    # a malformed line refuses the whole batch before any result is printed
    res = run(["detect", "--stdin-stream"], input=f"{C7}\n@@@garbage\n")
    assert res.exit_code == 2 and res.stdout == "" and "input error" in res.output


def test_closed_stdout_stays_quiet():
    # the reader takes one line and closes the pipe while the stream has far
    # more than a pipe buffer still to write: exit 1, nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(Path(oddhole.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "oddhole.cli", "detect", "--stdin-stream", "--json"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        proc.stdin.write(f"{C7}\n".encode() * 1000)  # read whole before any output
        proc.stdin.close()
        first = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = proc.stderr.read()
    proc.stderr.close()
    assert ResultDocument.from_json(first).verdict == "odd-hole-found"
    assert rc == 1 and err == b"", err


def test_stream_mode_refuses_other_inputs_and_options(tmp_path):
    c5 = tmp_path / "c5.g6"
    c5.write_text(encode_graph6(cycle_graph(5)) + "\n")
    for args, dropped in (([str(c5)], "FILE"), (["--witness"], "--witness")):
        # refused before stdin is read: the bad line would be an input error
        res = run(["detect", "--stdin-stream", *args], input="@@@garbage\n")
        assert res.exit_code == 2, args
        assert res.output.startswith("bad --stdin-stream") and dropped in res.output, args
    # "-" names stdin itself
    res = run(["detect", "-", "--stdin-stream", "--json"], input=f"{C7}\n")
    assert res.exit_code == 1
    assert ResultDocument.from_json(res.output).verdict == "odd-hole-found"


def test_perfect_command():
    assert run(["perfect", "-"], input=C6).exit_code == 0
    res = run(["perfect", "-"], input=C7)
    assert res.exit_code == 1
    assert "hole:" in res.output
    anti = cycle_graph(7).complement()
    comp = encode_graph6(anti)
    res = run(["perfect", "-"], input=comp)
    assert res.exit_code == 1 and "antihole:" in res.output
    res = run(["perfect", "-", "--json"], input=comp)
    doc = ResultDocument.from_json(res.stdout)
    assert res.exit_code == 1 and doc.witness_kind == "antihole" and doc.verify_witness(anti)


def test_probe_command():
    pet = encode_graph6(petersen_graph())
    res = run(["probe", "-"], input=pet)
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert len(report["hole"]) == 5
    res = run(["probe", "-"], input=C6)
    assert res.exit_code == 0
    assert json.loads(res.output)["hole"] is None


def test_probe_refuses_large_graphs():
    # the bound keeps the exponential search away from large inputs
    at_bound = encode_graph6(Graph(PROBE_MAX_VERTICES))
    assert run(["probe", "-"], input=at_bound).exit_code == 0
    over = encode_graph6(Graph(PROBE_MAX_VERTICES + 1))
    res = run(["probe", "-"], input=over)
    assert res.exit_code == 2
    assert "input error" in res.output
    # probe is the only command that runs the brute-force search
    for args in (["detect", "-"], ["perfect", "-"], ["detect", "--stdin-stream"]):
        assert run(args, input=over).exit_code == 0, args


def test_non_ascii_input_is_an_input_error(tmp_path):
    path = tmp_path / "graph.g6"
    path.write_bytes(b"D\xffw")
    for command in ("detect", "perfect"):
        res = run([command, str(path)])
        assert res.exit_code == 2, command
        assert "input error" in res.output


def test_edgelist_digits_are_ascii_on_stdin():
    # the last endpoint is ARABIC-INDIC DIGIT ZERO; as a file it fails to decode
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n4 \u0660\n"
    res = run(["detect", "-"], input=text)
    assert res.exit_code == 2
    assert "input error" in res.output


def test_overlong_number_is_an_input_error():
    # more digits than int() converts; exit 1 would claim an odd hole
    for text in ("1" * 5000 + " 0\n", "3 1\n0 " + "1" * 5000 + "\n"):
        res = run(["detect", "-"], input=text)
        assert res.exit_code == 2
        assert "number too long" in res.output


def test_gen_command():
    res = run(["gen", "cycle", "7"])
    assert res.exit_code == 0
    assert res.output.strip() == C7
    res = run(["gen", "gnp", "8", "0.3", "seed=1", "count=2"])
    assert len(res.output.strip().splitlines()) == 2
    assert run(["gen", "nonsense"]).exit_code == 2
    res = run(["gen", "decorated", "5", "1"])
    assert res.exit_code == 2 and "spec error" in res.output
    # too few or too many positional parameters
    for spec in (["decorated", "9"], ["gnp", "10"], ["bipartite", "4", "5"],
                 ["gnp", "10", "0.3", "extra"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and "spec error" in res.output, spec
    # one vertex more than graph6 encodes: a spec error, not exit 1 ("found"),
    # refused before any graph is built
    for spec in (["multipartite", "258048"], ["cycle", "258048"],
                 ["bipartite", "200000", "58048", "0.1"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and res.output.startswith("spec error"), spec
    # an output past the 4 MiB bound, refused the same way: one line of 3.3e9
    # bytes (10^10 edges), and 10^9 lines that would all be built first
    for spec in (["multipartite", "100000", "100000"], ["gnp", "5", "0.5", "count=1000000000"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and res.stdout == "", spec
        assert res.stderr.startswith("spec error") and "bytes of graph6" in res.stderr, spec
    # a probability outside [0, 1], or NaN; "--" ends the options, so a
    # negative value is a SPEC word
    for spec in (["gnp", "10", "1.5"], ["gnp", "10", "nan"], ["--", "bipartite", "4", "5", "-0.1"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and res.output.startswith("spec error"), spec
    # a negative vertex count, refused by one check whatever the family
    for spec in (["--", "multipartite", "-1", "3"], ["--", "chordal", "-2"],
                 ["--", "decorated", "9", "-1"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and res.output.startswith("spec error: vertex count -"), spec
    # sizes and count= are ASCII digits, and a negative count is an error, not an empty corpus
    for spec in (["gnp", "5", "0.5", "count=-3"], ["cycle", "５"], ["gnp", "5", "0.5", "count=1_0"]):
        res = run(["gen", *spec])
        assert res.exit_code == 2 and res.output.startswith("spec error"), spec


def test_gen_out_of_memory_is_a_spec_error():
    # 24.5 million edges, under the output bound (4.1 MB of graph6): the rows
    # alone take about 7 MB, so a child capped at 4 MB above what it maps
    # once the CLI is imported runs out of address space building them (the
    # encoder packs the bits in bounded chunks, so the whole run fits in 16)
    pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs /proc/self/statm to read the mapped size")
    code = ("import resource; from oddhole.cli import main; "
            "cap = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize() + (4 << 20); "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); main()")
    env = {**os.environ, "PYTHONPATH": str(Path(oddhole.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code, "gen", "complete", "7000"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 2 and res.stdout == "", res.stderr
    assert res.stderr.startswith("spec error")


def test_gen_detect_pipeline():
    res = run(["gen", "petersen"])
    line = res.output.strip()
    res = run(["detect", "-", "--witness"], input=line)
    assert res.exit_code == 1


def test_retired_command_and_algorithm_are_usage_errors():
    # gen | detect --stdin-stream --json replaces bench, the format is read
    # from the input, and detect is the one detector
    assert run(["bench"]).exit_code == 2
    retired = [["--format", fmt] for fmt in ("auto", "graph6", "edgelist")]
    retired += [["--algorithm", name] for name in ("fast", "oracle", "simple")]
    for args in (["detect", "-"], ["perfect", "-"], ["detect", "--stdin-stream"]):
        for option in retired:
            res = run([*args, *option], input=f"{C7}\n")
            assert res.exit_code == 2 and res.stdout == "", (args, option)
    for fmt in ("auto", "graph6", "edgelist"):
        res = run(["probe", "-", "--format", fmt], input=C7)
        assert res.exit_code == 2 and res.stdout == "", fmt


def _readme_cli_synopsis():
    """The commands of the README's CLI synopsis, each with its options, and
    the choices listed for an option (``--option a|b``)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands, choices = {}, {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("oddhole "):
            options = commands.setdefault(line.split()[1], set())
        for option, listed in re.findall(r"(--[\w-]+)(?: ([\w|]+))?", line):
            options.add(option)
            if "|" in listed:
                choices[option] = listed.split("|")
    return commands, choices


def test_readme_synopsis_is_the_cli():
    commands, choices = {}, {}
    subparsers, = (action for action in _parser()._actions if action.choices)
    for name, command in subparsers.choices.items():
        options = [action for action in command._actions
                   if action.option_strings and action.dest != "help"]
        commands[name] = {opt for action in options for opt in action.option_strings}
        choices.update({opt: list(action.choices) for action in options if action.choices
                        for opt in action.option_strings})
    assert _readme_cli_synopsis() == (commands, choices)
