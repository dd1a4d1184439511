import json

from click.testing import CliRunner

from oddhole.cli import PROBE_MAX_VERTICES, main
from oddhole.formats import encode_graph6
from oddhole.generators import cycle_graph, petersen_graph
from oddhole.graph import Graph


def run(args, input=None, env=None):
    return CliRunner().invoke(main, args, input=input, env=env)


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
    res = run(["detect", "-", "--json", "--algorithm", "oracle"], input=C7)
    doc = json.loads(res.output)
    assert doc["verdict"] == "odd-hole-found"
    assert doc["algorithm"] == "oracle"
    assert len(doc["witness"]) == 7


def test_detect_types_flag():
    # the shape-subset knob is gone; click rejects it as a usage error
    res = run(["detect", "-", "--types", "1"], input=C6)
    assert res.exit_code == 2


def test_detect_trivial_graphs():
    assert run(["detect", "-"], input="?").exit_code == 0  # empty graph
    assert run(["detect", "-"], input="@").exit_code == 0  # single vertex


def test_detect_edgelist_format():
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    assert run(["detect", "-", "--format", "edgelist"], input=text).exit_code == 1
    assert run(["detect", "-"], input=text).exit_code == 1  # auto-sniffed


def test_stream_mode():
    stream = f"{C7}\n{C6}\n"
    res = run(["detect", "--stdin-stream"], input=stream)
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == ["odd-hole-found", "no-odd-hole"]
    res = run(["detect", "--stdin-stream"], input=f"{C6}\n")
    assert res.exit_code == 0


def test_perfect_command():
    assert run(["perfect", "-"], input=C6).exit_code == 0
    res = run(["perfect", "-"], input=C7)
    assert res.exit_code == 1
    assert "hole:" in res.output
    comp = encode_graph6(cycle_graph(7).complement())
    res = run(["perfect", "-"], input=comp)
    assert res.exit_code == 1 and "antihole:" in res.output


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
    res = run(["probe", "-"], input=encode_graph6(Graph(PROBE_MAX_VERTICES + 1)))
    assert res.exit_code == 2
    assert "input error" in res.output


def test_oracle_refuses_large_graphs():
    # the same bound guards every command that can run the brute-force search
    over = encode_graph6(Graph(PROBE_MAX_VERTICES + 1))
    at_bound = encode_graph6(Graph(PROBE_MAX_VERTICES))
    for args in (["detect", "-"], ["perfect", "-"], ["detect", "--stdin-stream"]):
        res = run([*args, "--algorithm", "oracle"], input=over)
        assert res.exit_code == 2 and "input error" in res.output, args
        assert run([*args, "--algorithm", "oracle"], input=at_bound).exit_code == 0, args
    # the stream refuses the batch before it prints a result for any line
    res = run(["detect", "--stdin-stream", "--algorithm", "oracle"], input=f"{C7}\n{over}\n")
    assert res.exit_code == 2 and "odd-hole-found" not in res.output
    # the other algorithms take the same graph
    assert run(["detect", "-"], input=over).exit_code == 0
    res = run(["bench", "--algorithm", "oracle", "--per", "1",
               "--sizes", f"8,{PROBE_MAX_VERTICES + 1}"])
    assert res.exit_code == 2 and "bad --sizes" in res.output
    res = run(["bench", "--algorithm", "oracle", "--per", "1", "--p", "0",
               "--sizes", str(PROBE_MAX_VERTICES)])
    assert res.exit_code == 0


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
    res = run(["detect", "-", "--format", "edgelist"], input=text)
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


def test_gen_detect_pipeline():
    res = run(["gen", "petersen"])
    line = res.output.strip()
    res = run(["detect", "-", "--witness"], input=line)
    assert res.exit_code == 1


def test_bench_command():
    res = run(["bench", "--sizes", "8,9", "--per", "1", "--seed", "3"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,p,algorithm,seed,millis,verdict"
    assert len(lines) == 3
    for args in (["--sizes", "x"], ["--sizes", "-5"], ["--sizes", "8,-1"], ["--sizes", "1.5"],
                 ["--p", "-0.1"], ["--p", "1.5"], ["--p", "nan"]):
        res = run(["bench", "--per", "1", *args])
        assert res.exit_code == 2 and "bad --" in res.output, args
    assert run(["bench", "--sizes", "6", "--per", "1", "--p", "1"]).exit_code == 0
