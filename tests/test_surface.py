"""Pin the public surface of the installed package.

For each module of ``src/oddhole``, the sorted names of its top-level public
``def``s and ``class``es, read from the source, and the public methods of
``Graph``.  Adding, removing or renaming a public name means editing this
test; brute-force references and helpers that only the tests use belong in
``tests/reference.py``.
"""

import ast
from pathlib import Path

import oddhole

SRC = Path(oddhole.__file__).resolve().parent

SURFACE = {
    "__init__": ["test_perfect"],
    "cleaning": ["test_clean", "test_heavy_cleanable"],
    "cli": ["main"],
    "configs": ["JewelWitness", "PyramidWitness", "find_jewel", "find_pyramid",
                "odd_hole_from_jewel", "odd_hole_from_pyramid", "verify_jewel",
                "verify_pyramid"],
    "fast": ["detect", "detect_type1", "detect_type2", "detect_type3", "detect_type4",
             "detect_type5", "detect_type6"],
    "formats": ["GraphDocument", "ParseError", "encode_graph6", "parse_edgelist", "parse_graph",
                "parse_graph6"],
    "generators": ["complete_graph", "complete_multipartite", "cycle_graph",
                   "decorated_odd_cycle", "generate_corpus", "gnp", "path_graph",
                   "petersen_graph", "random_bipartite", "random_chordal"],
    "graph": ["Distances", "Graph", "bfs_distances", "bits", "certifies_berge",
              "geodesic_mask", "induced_four_paths", "induced_three_paths", "is_hole",
              "is_induced_path", "is_odd_antihole", "is_odd_hole", "mask_of", "neighbourhood",
              "split_leaves", "through", "walk_down"],
    "oracle": ["oracle_find_odd_hole", "oracle_odd_holes"],
    "pipeline": ["ResultDocument", "graph_digest", "run_detection", "test_perfect"],
    "probes": ["heavy_edges", "major_vertices", "set_gaps", "vertex_gaps"],
    "simple": ["detect_simple", "detect_with_simple_pipeline"],
}

GRAPH_METHODS = ["complement", "degree", "edge_count", "edges", "from_rows", "has_edge",
                 "induced"]


def _public(body):
    return sorted(node.name for node in body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_"))


def test_each_module_defines_exactly_the_pinned_public_names():
    found = {path.stem: _public(ast.parse(path.read_text(encoding="utf-8")).body)
             for path in sorted(SRC.glob("*.py"))}
    assert found == SURFACE


def test_graph_has_exactly_the_pinned_public_methods():
    tree = ast.parse((SRC / "graph.py").read_text(encoding="utf-8"))
    (graph,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Graph"]
    assert _public(graph.body) == GRAPH_METHODS
