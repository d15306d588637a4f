"""Golden reports: ``finitype analyze --json`` output pinned byte for byte.

The fixtures under ``tests/golden`` are the JSON reports of the fast catalog
examples at the CLI defaults (cycle_len 10, bound_len 8, subset "auto").
Refactors of the graph, loop-class and dimension code must leave them
unchanged. After a deliberate change of the report, regenerate them with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib
import sys
import tempfile

import pytest

from finitype.catalog import load_document
from finitype.cli import parse_document, run
from finitype.ifsmodel import validate
from finitype.loopclasses import classify_all
from finitype.netgraph import build_graph

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_NAMES = (
    "golden",
    "golden_square",
    "bc_x3_plus_x_minus_1",
    "bc_x3_minus_x2_plus_2x_minus_1",
    "bc_x3_plus_x2_plus_x_minus_1",
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1",
    "cantor_r3_m3_binomial",
    "cantor_r3_m3_uniform",
    "cantor_r3_m5_uniform",
    "cantor_r3_m7_binomial",
    "cantor_r3_m10_binomial",
)


def report_bytes(name: str, workdir: pathlib.Path) -> bytes:
    """The bytes ``finitype analyze --json`` writes for a catalog example."""
    doc_path = workdir / f"{name}.json"
    doc_path.write_text(json.dumps(load_document(name)))
    out_path = workdir / f"{name}.report.json"
    code = run(["analyze", "--input", str(doc_path), "--json", str(out_path)])
    assert code == 0, name
    return out_path.read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_report_unchanged(name, tmp_path, capsys):
    got = report_bytes(name, tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_positivity_is_the_verdict(name):
    """Every class's JSON ``positivity`` is its ``classify_all`` verdict,
    NOT_POSITIVE included."""
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    graph = build_graph(validate(parse_document(load_document(name))))
    assert [(c["members"], c["positivity"]) for c in doc["classes"]] == [
        (list(lc.members), lc.positivity.verdict.value)
        for lc in classify_all(graph)]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_NAMES:
            (GOLDEN_DIR / f"{name}.json").write_bytes(
                report_bytes(name, pathlib.Path(tmp)))
            print(f"wrote {GOLDEN_DIR / name}.json", file=sys.stderr)
