"""Golden reports: ``finitype analyze --json --text`` output pinned byte for
byte.

The fixtures under ``tests/golden`` are the JSON reports (``<name>.json``)
and the text reports (``<name>.txt``) of every catalog example but the cap
row ``bc_x4_plus_x_minus_1`` (``catalog.SLOW_EXAMPLES``) at the CLI defaults
(cycle_len 10, bound_len 8, subset "auto"), both from one ``run`` call.
Refactors of the graph, loop-class and dimension code must leave them
unchanged. After a deliberate change of the report, regenerate both with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib
import sys
import tempfile

import pytest

from conftest import catalog_graph, report_bytes
from finitype.loopclasses import classify_all

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
    "bc_x4_minus_2x2_minus_x_plus_1",
    "bc_x4_minus_x3_plus_2x_minus_1",
    "bc_x3_plus_x2_minus_1",
    "cantor_r3_m4_binomial",
    "cantor_r3_m4_uniform",
    "cantor_r3_m5_binomial",
    "cantor_r3_m6_binomial",
    "cantor_r3_m8_binomial",
    "cantor_r3_m9_binomial",
)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_report_unchanged(name, cli_reports):
    assert cli_reports(name).json == (GOLDEN_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_text_report_unchanged(name, cli_reports):
    assert cli_reports(name).text == (GOLDEN_DIR / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_enclosures_converge_without_bisection(name, cli_reports):
    """The power iteration alone encloses every catalog spectral radius, so
    the Sturm bisection never moves a golden number."""
    assert cli_reports(name).bisections == 0


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_positivity_is_the_verdict(name):
    """Every class's JSON ``positivity`` is its ``classify_all`` verdict,
    NOT_POSITIVE included."""
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    graph = catalog_graph(name)
    assert [(c["members"], c["positivity"]) for c in doc["classes"]] == [
        (list(lc.members), lc.positivity.verdict.value)
        for lc in classify_all(graph)]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_NAMES:
            report, text = report_bytes(name, pathlib.Path(tmp))
            (GOLDEN_DIR / f"{name}.json").write_bytes(report)
            (GOLDEN_DIR / f"{name}.txt").write_bytes(text)
            print(f"wrote {GOLDEN_DIR / name}.json and .txt", file=sys.stderr)
