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

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from conftest import catalog_graph, record_bisections
from finitype.catalog import load_document
from finitype.cli import run
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


def report_bytes(name: str, workdir: pathlib.Path) -> tuple[bytes, bytes]:
    """The bytes ``finitype analyze --json --text`` writes for a catalog
    example: the JSON file and the text on stdout."""
    doc_path = workdir / f"{name}.json"
    doc_path.write_text(json.dumps(load_document(name)))
    out_path = workdir / f"{name}.report.json"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = run(["analyze", "--input", str(doc_path),
                    "--json", str(out_path), "--text"])
    assert code == 0, name
    return out_path.read_bytes(), text.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Both reports of every golden example, each computed once, and the
    number of spectral brackets bisected on the way."""
    workdir = tmp_path_factory.mktemp("golden")
    cache = {}

    def get(name):
        if name not in cache:
            with pytest.MonkeyPatch.context() as mp:
                calls = record_bisections(mp)
                cache[name] = (*report_bytes(name, workdir), len(calls))
        return cache[name]
    return get


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_report_unchanged(name, reports):
    assert reports(name)[0] == (GOLDEN_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_text_report_unchanged(name, reports):
    assert reports(name)[1] == (GOLDEN_DIR / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_enclosures_converge_without_bisection(name, reports):
    """The power iteration alone encloses every catalog spectral radius, so
    the Sturm bisection never moves a golden number."""
    assert reports(name)[2] == 0


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
