"""Graph fingerprints: the closed transition graph pinned bit for bit.

For every catalog example whose graph builds in a couple of seconds (the
1809-vertex ``bc_x3_plus_x2_minus_1`` included), the fixture
``tests/golden/graph_fingerprints.json`` holds the SHA-256 of the
characteristic-vector keys in id order and of every edge (parent, child,
matrix, multiplicity, offsets). Each graph is built once per session and
shared with the loop-class fixture. Changes to the exact arithmetic or to the
graph closure must leave them unchanged. After a deliberate change of the
graph, regenerate the fixture with

    PYTHONPATH=src python tests/test_graph_fingerprints.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

from conftest import catalog_graph
from finitype.netgraph import build_graph

FIXTURE = pathlib.Path(__file__).parent / "golden" / "graph_fingerprints.json"

FINGERPRINT_NAMES = (
    "golden",
    "golden_square",
    "bc_x3_plus_x_minus_1",
    "bc_x3_plus_x2_minus_1",
    "bc_x3_minus_x2_plus_2x_minus_1",
    "bc_x3_plus_x2_plus_x_minus_1",
    "bc_x4_minus_2x2_minus_x_plus_1",
    "bc_x4_minus_x3_plus_2x_minus_1",
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1",
    "cantor_r3_m3_binomial",
    "cantor_r3_m3_uniform",
    "cantor_r3_m4_binomial",
    "cantor_r3_m4_uniform",
    "cantor_r3_m5_binomial",
    "cantor_r3_m5_uniform",
    "cantor_r3_m6_binomial",
    "cantor_r3_m7_binomial",
    "cantor_r3_m8_binomial",
    "cantor_r3_m9_binomial",
    "cantor_r3_m10_binomial",
)


# the graph of conftest's golden_square_skewed_model, whose weights 2/7, 3/7,
# 2/7 put Fraction entries in the matrices; no catalog document does
SKEWED_FINGERPRINT = (
    "2fa14f812ac11dfcff467f733d8a5677b9451786f4f2b2d488263399a9c07fb1")


def graph_fingerprint(name: str) -> str:
    """SHA-256 of the keys and edges of a catalog example's graph."""
    return fingerprint(catalog_graph(name))


def fingerprint(graph) -> str:
    """SHA-256 of a graph's keys and edges; the text of each matrix tells
    1 from Fraction(1)."""
    h = hashlib.sha256()
    for cv in graph.cvs:
        h.update(repr(cv.key()).encode())
        h.update(b"\n")
    for e in graph.edges:
        h.update(repr((e.parent, e.child, e.matrix, e.multiplicity,
                       tuple(o.coeffs for o in e.offsets))).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", FINGERPRINT_NAMES)
def test_graph_fingerprint_unchanged(name):
    expected = json.loads(FIXTURE.read_text())
    assert graph_fingerprint(name) == expected[name]


def test_skewed_graph_fingerprint_unchanged(golden_square_skewed_model):
    graph = build_graph(golden_square_skewed_model)
    assert (len(graph), len(graph.edges)) == (40, 81)
    assert fingerprint(graph) == SKEWED_FINGERPRINT


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: graph_fingerprint(name) for name in FINGERPRINT_NAMES},
        indent=2) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
