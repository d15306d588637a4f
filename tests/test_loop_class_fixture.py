"""Loop classes pinned: every maximal class of the fast catalog graphs.

The fixture ``tests/golden/loop_classes.json`` holds, per catalog example
whose graph builds in a couple of seconds, one record per maximal loop class
as ``classify_all`` returns it: the members, the essential and simple-loop
flags, and the positivity verdict with its witness, explored states and
exhausted length. Refactors of the SCC pass, the essential-class choice or
the positivity search must leave it unchanged. After a deliberate change,
regenerate the fixture with

    PYTHONPATH=src python tests/test_loop_class_fixture.py
"""

import json
import pathlib
import sys

import pytest

from finitype.loopclasses import classify_all

from conftest import catalog_graph
from test_graph_fingerprints import FINGERPRINT_NAMES

FIXTURE = pathlib.Path(__file__).parent / "golden" / "loop_classes.json"


def loop_class_records(name: str) -> list:
    """One JSON-ready record per maximal class of a catalog example."""
    graph = catalog_graph(name)
    records = []
    for c in classify_all(graph):
        p = c.positivity
        records.append({
            "members": list(c.members),
            "is_essential": c.is_essential,
            "is_simple_loop": c.is_simple_loop,
            "verdict": p.verdict.value,
            "witness": None if p.witness is None else list(p.witness),
            "explored_states": p.explored_states,
            "exhausted_length": p.exhausted_length,
        })
    return records


@pytest.mark.parametrize("name", FINGERPRINT_NAMES)
def test_loop_classes_unchanged(name):
    expected = json.loads(FIXTURE.read_text())
    assert loop_class_records(name) == expected[name]


if __name__ == "__main__":
    # one class per line
    FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(
            "  " + json.dumps(r) for r in loop_class_records(name)) + "\n ]"
        for name in FINGERPRINT_NAMES) + "\n}\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
