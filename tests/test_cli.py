"""CLI subcommands, document schema, exit codes, round-trips."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finitype

from finitype import cli
from finitype.catalog import example_names, load_document
from finitype.cli import (
    document_from_ifs,
    parse_document,
    report_to_document,
    render_text,
    run,
)
from finitype.dimcalc import assemble_report
from finitype.errors import InputDocumentError
from finitype.ifsmodel import validate
from finitype.loopclasses import Positivity, classify_all, positivity_certificate
from finitype.netgraph import build_graph


@pytest.fixture()
def golden_path(tmp_path):
    p = tmp_path / "golden.json"
    p.write_text(json.dumps(load_document("golden")))
    return str(p)


def test_catalog_files_match_builders():
    """Each shipped JSON file is the document of the family its name names."""
    names = example_names()
    assert len(names) == 21
    for name in names:
        doc = load_document(name)
        if name.startswith("bc_"):
            assert doc["name"] == name.replace("_plus_", "+").replace(
                "_minus_", "-").replace("_", "-"), name
            assert doc["translations"] == [["0"], ["1", "-1"]], name
            assert doc["probabilities"] == "uniform", name
        elif name.startswith("cantor_r3_m"):
            m, kind = name.removeprefix("cantor_r3_m").split("_")
            m = int(m)
            assert doc == {
                "name": f"cantor-r3-m{m}-{kind}",
                "rho": {"minpoly": [-1, 3], "interval": ["1/4", "1/2"]},
                "translations": [[f"{2 * j}/{3 * m}"] for j in range(m + 1)],
                "probabilities": ({"binomial_convolution": m}
                                  if kind == "binomial" else "uniform"),
            }, name
        else:
            assert name in ("golden", "golden_square"), name


def test_parse_document_roundtrip():
    ifs = parse_document(load_document("golden_square"))
    doc2 = document_from_ifs(ifs)
    ifs2 = parse_document(doc2)
    assert ifs2.translations == ifs.translations
    assert ifs2.probabilities == ifs.probabilities


@pytest.mark.parametrize("mutilate,field", [
    (lambda d: d.pop("rho"), "rho"),
    (lambda d: d["rho"].pop("minpoly"), "rho"),
    (lambda d: d["rho"].__setitem__("minpoly", [0.5]), "rho.minpoly"),
    (lambda d: d["rho"].__setitem__("interval", ["1/2"]), "rho.interval"),
    (lambda d: d.__setitem__("translations", []), "translations"),
    (lambda d: d["translations"].__setitem__(1, ["x"]), "translations[1]"),
    (lambda d: d.__setitem__("probabilities", ["1/2"]), "probabilities"),
    (lambda d: d.__setitem__("probabilities", {"binomial_convolution": 7}),
     "probabilities"),
    (lambda d: d.__setitem__("name", 7), "name"),
])
def test_parse_document_field_errors(mutilate, field):
    doc = load_document("golden")
    mutilate(doc)
    with pytest.raises(InputDocumentError) as ei:
        parse_document(doc)
    assert field in str(ei.value)


@pytest.mark.parametrize("mutilate,field", [
    (lambda d: d["rho"].__setitem__("minpoly", [-1, True, True]),
     "rho.minpoly"),
    (lambda d: d["rho"].__setitem__("interval", [False, "7/10"]),
     "rho.interval[0]"),
    (lambda d: d.__setitem__("translations", [[False], ["1", "-1"]]),
     "translations[0][0]"),
    (lambda d: d.__setitem__("probabilities", {"binomial_convolution": True}),
     "probabilities.binomial_convolution"),
    (lambda d: d.__setitem__("probabilities", [True, "1/2"]),
     "probabilities[0]"),
])
def test_json_booleans_are_not_integers(tmp_path, capsys, mutilate, field):
    doc = load_document("golden")
    mutilate(doc)
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert run(["analyze", "--input", str(p)]) == 1
    err = capsys.readouterr().err
    assert "InputDocumentError" in err and field in err


def test_analyze_text(golden_path, capsys):
    code = run(["analyze", "--input", golden_path, "--cycle-len", "4",
                "--bound-len", "10", "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6 reduced characteristic vectors" in out
    assert "essential class is: [3, 5, 6]" in out
    assert "positive type" in out
    assert "No isolated point." in out


def test_analyze_json_roundtrip(golden_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run(["analyze", "--input", golden_path, "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert json.loads(json.dumps(doc)) == doc
    assert doc["cv_count"] == 6
    assert doc["essential_size"] == 3
    assert doc["dim_at_zero"] == pytest.approx(1.440420090, abs=1e-8)
    # document equals a freshly serialized in-memory report field for field
    ifs = parse_document(json.loads(Path(golden_path).read_text()))
    model = validate(ifs)
    graph = build_graph(model)
    report = assemble_report(model, graph, cycle_len=10, bound_len=8,
                             subset="auto")
    doc2 = report_to_document(report, doc["parameters"])
    assert doc2 == doc


def test_analyze_dot(golden_path, tmp_path, capsys):
    dot_path = tmp_path / "g.dot"
    assert run(["analyze", "--input", golden_path, "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    text = dot_path.read_text()
    assert text.count("5 -> 3;") == 2
    assert "lightsteelblue" in text  # essential class is styled


def test_report_files_follow_the_umask(golden_path, tmp_path, capsys):
    json_path, dot_path = tmp_path / "r.json", tmp_path / "g.dot"
    old = os.umask(0o022)
    try:
        assert run(["analyze", "--input", golden_path, "--json",
                    str(json_path), "--dot", str(dot_path)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert oct(json_path.stat().st_mode & 0o777) == oct(0o644)
    assert oct(dot_path.stat().st_mode & 0o777) == oct(0o644)


def test_analyze_oracle_flag(golden_path, capsys):
    assert run(["analyze", "--input", golden_path, "--oracle-level", "2"]) == 0
    err = capsys.readouterr().err
    assert "level 2 matches exactly" in err


def test_exit_code_validation_error(tmp_path, capsys):
    doc = load_document("golden")
    doc["translations"] = [["0"], ["1/2"]]  # last translation is not 1 - rho
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(["analyze", "--input", str(p)]) == 1
    assert "NotRescaled" in capsys.readouterr().err


def test_exit_code_cap_exceeded(golden_path, capsys):
    assert run(["analyze", "--input", golden_path, "--max-cvs", "3"]) == 2
    assert "CapExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("subset", ["0", "-1,2", "2,x"])
def test_bad_subset_rejected_before_graph(golden_path, monkeypatch, capsys,
                                         subset):
    def no_build(*args, **kwargs):
        raise AssertionError("graph built before --subset was checked")

    monkeypatch.setattr(cli, "build_graph", no_build)
    assert run(["analyze", "--input", golden_path, f"--subset={subset}"]) == 1
    err = capsys.readouterr().err
    assert "InputDocumentError" in err and "--subset" in err


@pytest.mark.parametrize("flag,value", [
    ("--bound-len", "0"), ("--bound-len", "-3"), ("--cycle-len", "0"),
    ("--cycle-len", "-1"), ("--max-cvs", "0"), ("--max-cvs", "-5"),
    ("--oracle-level", "-1"),
])
def test_non_positive_sizes_rejected_before_graph(golden_path, monkeypatch,
                                                  capsys, flag, value):
    def no_build(*args, **kwargs):
        raise AssertionError(f"graph built before {flag} was checked")

    monkeypatch.setattr(cli, "build_graph", no_build)
    assert run(["analyze", "--input", golden_path, f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "InputDocumentError" in lines[0] and flag in lines[0]


def test_smallest_sizes_accepted(golden_path, capsys):
    assert run(["analyze", "--input", golden_path, "--bound-len", "1",
                "--cycle-len", "1", "--oracle-level", "0"]) == 0
    assert "6 reduced characteristic vectors" in capsys.readouterr().out


def test_usage_error_exits_1(golden_path, capsys):
    # argparse reads -1,2 as an option; the error is the input-error code,
    # not the 2 that cap and budget overflows use
    with pytest.raises(SystemExit) as ei:
        run(["analyze", "--input", golden_path, "--subset", "-1,2"])
    assert ei.value.code == 1
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["analyze", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("extra,code", [
    (["--subset", "-1,2"], 1),
    (["--max-cvs", "3"], 2),
    (["--cycle-len", "2", "--bound-len", "2"], 0),
])
def test_process_exit_codes(golden_path, extra, code):
    proc = _cli_process("analyze", "--input", golden_path, *extra)
    assert proc.returncode == code, proc.stderr


def _cli_process(*argv):
    """Run ``python -m finitype.cli`` on ``argv`` in a child process."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(finitype.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "finitype.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def _one_error_line(stderr, name):
    lines = stderr.splitlines()
    assert len(lines) == 1 and name in lines[0], stderr
    return lines[0]


@pytest.mark.parametrize("minpoly,interval,translations", [
    # (3x - 1)(x + 1): rho = 1/3, and rho - 1/3 is not the zero vector
    ([-1, 2, 3], ["1/4", "1/2"], [["0"], ["2/3"]]),
    # (x^2 + x - 1)(x^2 + 1): rho is the golden ratio's reciprocal
    ([-1, 1, 0, 1, 1], ["1/2", "7/10"], [["0"], ["1", "-1"]]),
    # (2x - 1)(x^2 + x - 1): the field's bisection lands on its root 1/2
    ([1, -3, 1, 2], ["9/20", "11/20"], [[0], [1, -1]]),
], ids=["rational-factor", "quadratic-factor", "bisected-rational-root"])
def test_reducible_minpoly_exits_1(tmp_path, minpoly, interval, translations):
    p = tmp_path / "reducible.json"
    p.write_text(json.dumps({
        "rho": {"minpoly": minpoly, "interval": interval},
        "translations": translations, "probabilities": "uniform"}))
    proc = _cli_process("analyze", "--input", str(p))
    assert proc.returncode == 1
    _one_error_line(proc.stderr, "NotIrreducible")


@pytest.mark.parametrize("flag", ["--json", "--dot"])
@pytest.mark.parametrize("target", ["missing/out", "directory"])
def test_unwritable_report_path_exits_1(golden_path, tmp_path, flag, target):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    proc = _cli_process("analyze", "--input", golden_path, flag, str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert str(path) in _one_error_line(proc.stderr, "FinitypeError")
    assert not list(tmp_path.rglob(".finitype-*"))


@pytest.mark.parametrize("flag", ["--json", "--dot"])
@pytest.mark.parametrize("target", ["missing/out", "directory"])
def test_unwritable_report_path_fails_before_the_build(
        golden_path, tmp_path, capsys, monkeypatch, flag, target):
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built for an unwritable report")

    monkeypatch.setattr(cli, "build_graph", no_build)
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    assert run(["analyze", "--input", golden_path, flag, str(path)]) == 1
    assert str(path) in _one_error_line(capsys.readouterr().err,
                                        "FinitypeError")
    assert not list(tmp_path.rglob(".finitype-*"))


@pytest.mark.parametrize("command", ["analyze", "rescale"])
def test_non_utf8_input_exits_1(tmp_path, capsys, command):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff\xfe{")
    assert run([command, "--input", str(p)]) == 1
    _one_error_line(capsys.readouterr().err, "InputDocumentError")


@pytest.mark.parametrize("command", ["analyze", "rescale"])
def test_deeply_nested_input_exits_1(tmp_path, command):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    proc = _cli_process(command, "--input", str(p))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nested too deeply" in _one_error_line(proc.stderr,
                                                  "InputDocumentError")


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from finitype import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(finitype.__all__)


def _report(path, *flags):
    """The JSON report of ``analyze`` on ``path`` with ``flags``."""
    out = Path(path).parent / "report.json"
    assert run(["analyze", "--input", str(path), *flags,
                "--json", str(out)]) == 0
    return json.loads(out.read_text())


def test_subset_that_fits_no_class_changes_nothing(golden_path, capsys):
    default = _report(golden_path)
    nine = _report(golden_path, "--subset=9")
    capsys.readouterr()
    # no golden class has nine neighbours, so only the echo differs
    assert nine["parameters"].pop("subset") == [9]
    assert default["parameters"].pop("subset") == "auto"
    assert nine == default


@pytest.mark.parametrize("name", ["golden_square", "bc_x3_plus_x_minus_1"])
def test_explicit_subset_never_widens_a_bound(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(load_document(name)))
    default = _report(path)["classes"]
    added = _report(path, "--subset=3,4")["classes"]
    capsys.readouterr()
    assert [c["members"] for c in added] == [c["members"] for c in default]
    for a, d in zip(added, default):
        assert a["bound_len"] == d["bound_len"]
        if d["dim_outer"] is not None:
            assert d["dim_outer"][0] <= a["dim_outer"][0]
            assert a["dim_outer"][1] <= d["dim_outer"][1]


def _weighted(tmp_path, weights, name="cantor_r3_m3_uniform"):
    """Catalog example ``name`` with probabilities proportional to
    ``weights``, written to a file."""
    doc = load_document(name)
    doc["probabilities"] = [f"{w}/{sum(weights)}" for w in weights]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    return path


def test_extreme_regular_weights_exit_0(tmp_path, capsys):
    # at 1 : 10^40 : 10^40 : 1 some walks' spectral enclosures pass every
    # float; their per-step values still come out, and reach 10^40. The
    # walk of the smallest per-step value is enclosed to the same width as
    # every other, so the inner range reaches the outer upper end
    n = 10 ** 40
    classes = _report(_weighted(tmp_path, [1, n, n, 1]))["classes"]
    ess = next(c for c in classes if c["is_essential"])
    assert ess["spectral_range_inner"][1] == pytest.approx(1e40)
    assert ess["spectral_range_outer"][1] == pytest.approx(1e40)
    assert ess["dim_inner"][1] == ess["dim_outer"][1] == 42.54899524


def test_outer_range_holds_the_class_point_at_extreme_weights(tmp_path,
                                                              capsys):
    # at 1 : 10^40 : 1 the simple loops [19] and [25] have per-step value
    # 10^40 and dimension about 4e-40; rounding puts their computed point
    # near 0 on either side, and their padded outer range must still hold it
    n = 10 ** 40
    path = _weighted(tmp_path, [1, n, 1], name="golden_square")
    classes = _report(path, "--cycle-len=1")["classes"]
    points = [c for c in classes if c["exact_point"] is not None]
    assert {tuple(c["members"]) for c in points} >= {(19,), (25,)}
    for c in points:
        assert c["dim_outer"][0] <= c["exact_point"] <= c["dim_outer"][1]


def test_extreme_point_is_reported_at_its_class_value(tmp_path, capsys):
    # at 1 : 10^40 : 1 the simple loops [19] and [25] have dimension 0,
    # enclosed in [0, 9.7e-13] after the clamp at 0; they carry its midpoint
    # 4.835411448e-13, which a 12-digit rounding would report as 0
    n = 10 ** 40
    path = _weighted(tmp_path, [1, n, 1], name="golden_square")
    doc = _report(path, "--cycle-len=1")
    point = next(p for p in doc["isolated_points"]
                 if p["classes"] == [[19], [25]])
    exact = {c["exact_point"] for c in doc["classes"]
             if c["members"] in ([19], [25])}
    assert exact == {point["value"]} == {4.835411448e-13}
    assert run(["analyze", "--input", str(path), "--cycle-len=1",
                "--text"]) == 0
    assert ("UNDECIDED point: 4.835411448e-13 lies"
            in capsys.readouterr().out)


@pytest.mark.parametrize("weight,field", [
    ("1" + "0" * 4999, "probabilities[0]: expected a rational string, got "
                       "an integer of 5000 digits"),
    ('"1e5000"', "probabilities[0]: exponent 5000 is past"),
    ('"1e10000000"', "probabilities[0]: exponent 10000000 is past"),
], ids=["json-integer", "exponent-5000", "exponent-10000000"])
def test_oversized_number_exits_1_at_once(tmp_path, capsys, weight, field):
    # past Python's 4300-digit limit on int-string conversion: a JSON
    # integer that int() refuses, and exponents whose Fraction cannot be
    # printed or takes seconds to build
    doc = load_document("golden")
    doc["probabilities"] = ["WEIGHT", "1"]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc).replace('"WEIGHT"', weight))
    t0 = time.monotonic()
    assert run(["analyze", "--input", str(path)]) == 1
    assert time.monotonic() - t0 < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err


def test_unprintable_weight_sum_exits_1(tmp_path, capsys):
    # the two weights parse, but their sum has more digits than Python
    # prints, so the message leaves the sum out
    doc = load_document("golden")
    doc["probabilities"] = [f"1/{10 ** 4000 + 1}", f"1/{10 ** 4000 + 3}"]
    path = tmp_path / "unprintable.json"
    path.write_text(json.dumps(doc))
    assert run(["analyze", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "weights do not sum to 1" in err


def test_per_step_values_past_the_float_range_exit_0(tmp_path, capsys):
    # at 1 : 10^400 : 10^400 : 1 the per-step values reach 10^400, which no
    # float holds; the dimensions come from their logs, and the essential
    # class's outer range is finite and holds its inner range
    n = 10 ** 400
    path = _weighted(tmp_path, [1, n, n, 1])
    classes = _report(path, "--cycle-len=2")["classes"]
    ess = next(c for c in classes if c["is_essential"])
    lo, hi = ess["dim_outer"]
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo - 1e-9 <= ess["dim_inner"][0] <= ess["dim_inner"][1] <= hi + 1e-9


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_past_the_float_range_is_strict_json(tmp_path, capsys):
    # at 1 : 10^400 : 10^400 : 1 the essential class's largest per-step
    # values reach 10^400, past every float: the report writes them as
    # null, not as Infinity, and its certified dimension ends stay finite
    n = 10 ** 400
    path = _weighted(tmp_path, [1, n, n, 1])
    out = tmp_path / "report.json"
    assert run(["analyze", "--input", str(path), "--json", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    ess = next(c for c in doc["classes"] if c["is_essential"])
    assert ess["spectral_range_inner"][1] is None
    assert ess["spectral_range_outer"][1] is None
    for c in doc["classes"]:
        for key in ("dim_inner", "dim_outer"):
            assert c[key] is None or all(map(math.isfinite, c[key]))


@pytest.mark.parametrize("weights,flags,lines", [
    ((1, 10 ** 400, 10 ** 400, 1), (), [
        "shows the per-step spectral range includes [1e+200, 1e+400].",
        "confine the per-step spectral range to [1e+200, 1e+400]."]),
    ((10 ** 400, 1, 10 ** 400, 1), ("--allow-irregular", "--cycle-len=2"), [
        "confine the per-step spectral range to [1e-400, 1].",
        "Its per-step spectral value is exactly 1e-400;"]),
], ids=["above", "below"])
def test_text_report_past_the_float_range(tmp_path, capsys, weights, flags,
                                          lines):
    # per-step values of 10^400 and 10^-400 pass every float, where
    # per_step gives inf and 0.0: the text prints them from their logs
    path = _weighted(tmp_path, list(weights))
    assert run(["analyze", "--input", str(path), "--text", *flags]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out
    for line in lines:
        assert line in out


def test_zero_lower_enclosure_exits_0(tmp_path, capsys):
    # at 10^40 : 1 : 10^40 : 1 the walk through both self-loops of vertex 3
    # has spectral radius about 2.6e-40, and the iteration leaves it in the
    # bracket [1e-40, 3.3e-3]; the bracket is bisected to a relative width
    # of 1e-10, so its per-step lower end is positive, and the inner range
    # it sets stays inside the outer one
    n = 10 ** 40
    path = _weighted(tmp_path, [n, 1, n, 1])
    classes = _report(path, "--allow-irregular", "--cycle-len=2")["classes"]
    ess = next(c for c in classes if c["is_essential"])
    assert ess["min_cycle"] == [3, 3]
    for inner, outer in (("spectral_range_inner", "spectral_range_outer"),
                         ("dim_inner", "dim_outer")):
        lo, hi = ess[inner]
        assert ess[outer][0] <= lo <= hi <= ess[outer][1]
        assert lo > 0 and hi < float("inf")


def test_exit_code_missing_file(capsys):
    assert run(["analyze", "--input", "/nonexistent.json"]) == 1
    assert "InputDocumentError" in capsys.readouterr().err


def test_rescale_roundtrip(tmp_path, capsys):
    doc = {
        "rho": {"minpoly": [-1, 3], "interval": ["1/4", "1/2"]},
        "translations": [["1/6"], ["1/3"], ["1/2"]],
        "probabilities": "uniform",
    }
    p = tmp_path / "shift.json"
    p.write_text(json.dumps(doc))
    assert run(["rescale", "--input", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["translations"] == [["0"], ["1/3"], ["2/3"]]
    # a rescaled document validates cleanly
    validate(parse_document(out))


def test_formulas_output(capsys):
    assert run(["formulas", "--R", "3", "--m", "6"]) == 0
    out = capsys.readouterr().out
    assert "1.058745" in out   # predicted minimum
    assert "1.014334" in out   # predicted maximum


@pytest.mark.parametrize("R,m,flag", [(1, 3, "--R"), (3, 1, "--m"),
                                      (3, 0, "--m")])
def test_formulas_out_of_range_exits_1(capsys, R, m, flag):
    assert run(["formulas", "--R", str(R), "--m", str(m)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in _one_error_line(captured.err, "InputDocumentError")


def test_analyze_irregular_flag(tmp_path, capsys):
    doc = {
        "rho": {"minpoly": [-1, 3], "interval": ["1/4", "1/2"]},
        "translations": [["0"], ["1/3"], ["2/3"]],
        "probabilities": ["1/2", "1/4", "1/4"],
    }
    p = tmp_path / "irr.json"
    p.write_text(json.dumps(doc))
    assert run(["analyze", "--input", str(p)]) == 1
    capsys.readouterr()
    code = run(["analyze", "--input", str(p), "--allow-irregular", "--text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "UNSUPPORTED-BY-THEORY" in captured.err + captured.out


def test_every_shipped_example_parses():
    for name in example_names():
        ifs = parse_document(load_document(name))
        validate(ifs)


def test_text_report_mentions_not_certified(golden_square_model):
    # golden_square's essential class needs 68 search states to show its
    # positive product; with 10 the search stops at UNKNOWN, and the report
    # must then not certify the class's interval
    graph = build_graph(golden_square_model)
    classes = classify_all(graph)
    ess = next(lc for lc in classes if lc.is_essential)
    capped = positivity_certificate(graph, ess.members, state_cap=10)
    assert capped.verdict is Positivity.UNKNOWN
    assert capped.explored_states == 10
    classes = [dataclasses.replace(lc, positivity=capped) if lc is ess else lc
               for lc in classes]
    report = assemble_report(golden_square_model, graph, classes=classes,
                             cycle_len=3, bound_len=3)
    doc = report_to_document(report, {})
    entry = next(c for c in doc["classes"] if c["is_essential"])
    assert entry["positivity"] == "UNKNOWN"
    assert entry["certified_interval"] is False
    text = render_text(report)
    assert "Positivity undecided within the search budget." in text
    assert "NOT CERTIFIED" in text


@pytest.mark.parametrize("name,point", [("golden_square", "2.880840181"),
                                        ("cantor_r3_m3_binomial",
                                         "1.892789261")])
def test_class_without_outer_bound_spans_every_dimension(name, point):
    # with no norm-bound unit no class has an outer bound: the bracket is
    # every dimension >= 0, and a simple loop's point, outside every inner
    # range, is undecided, not isolated
    model = validate(parse_document(load_document(name)))
    graph = build_graph(model)
    report = assemble_report(model, graph, path_budget=0)
    assert all(cs.outer is None for cs in report.classes)
    assert report.global_outer == ((0.0, math.inf),)
    doc = report_to_document(report, {})
    assert doc["global_outer"] == [[0.0, None]]
    assert {"value": float(point), "status": "UNDECIDED"} in [
        {k: p[k] for k in ("value", "status")}
        for p in doc["isolated_points"]]
    assert "ISOLATED" not in [p["status"] for p in doc["isolated_points"]]
    text = render_text(report)
    assert "global dimension set bracket (outer): [0, inf]" in text
    assert "distinct points" not in text
    assert "No isolated point." in text
    assert f"UNDECIDED point: {point} " in text


def test_starved_budgets_are_reported(golden_model):
    # no cycle-search step and four norm-bound units: the search truncates
    # and the norm sweep stops at the depth whose products fit, reported as
    # bound_len
    graph = build_graph(golden_model)
    report = assemble_report(golden_model, graph, cycle_budget=0,
                             path_budget=4, bound_len=8)
    starved = [cs for cs in report.classes
               if 0 < cs.bound_len < 8 and cs.cycles_truncated]
    assert starved
    doc = report_to_document(report, {})
    entries = [c for c in doc["classes"]
               if c["members"] == list(starved[0].members)]
    assert entries[0]["bound_len"] == starved[0].bound_len
    assert entries[0]["cycles_truncated"] is True
    text = render_text(report)
    assert "truncated search" in text
    assert f"products of length {starved[0].bound_len} " in text
