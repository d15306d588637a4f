"""Shared model fixtures built from exact data, the catalog's CLI reports,
and a per-test time limit."""

import contextlib
import io
import json
import signal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import pytest

from finitype import cli, dimcalc
from finitype.catalog import load_document
from finitype.cli import parse_document, run
from finitype.dimcalc import _dims, per_step, periodic_dimension
from finitype.exactfield import NumberField
from finitype.ifsmodel import Ifs, uniform_probabilities, validate
from finitype.netgraph import TransitionGraph, build_graph


# Wall-clock seconds a test may run before it fails; the slowest test takes
# about 4 s on a shared 2-core host, so only a test that does not
# terminate gets near it.
TEST_TIME_LIMIT = 300


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fail a test that runs past TEST_TIME_LIMIT seconds instead of hanging
    the suite. It needs SIGALRM, so where that is missing it does nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the per-test limit of "
                    f"{TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def golden_ifs(name="golden"):
    f = NumberField([-1, 1, 1], (Fraction(1, 2), Fraction(7, 10)))
    r = f.rho()
    return Ifs(field=f, translations=(f.zero, f.one - r),
               probabilities=uniform_probabilities(1), name=name)


def golden_square_ifs():
    f = NumberField([-1, 1, 1], (Fraction(1, 2), Fraction(7, 10)))
    r = f.rho()
    half = (f.one - r) * Fraction(1, 2)
    return Ifs(field=f, translations=(f.zero, half, f.one - r),
               probabilities=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
               name="golden-convolution-square")


def golden_square_skewed_ifs():
    """golden_square's translations with weights 2/7, 3/7, 2/7: still regular
    (first and last equal), but the edge matrices get Fraction entries."""
    ifs = golden_square_ifs()
    return Ifs(field=ifs.field, translations=ifs.translations,
               probabilities=(Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)),
               name="golden-square-skewed")


def bernoulli_ifs(minpoly, interval, name=None):
    f = NumberField(minpoly, interval)
    return Ifs(field=f, translations=(f.zero, f.one - f.rho()),
               probabilities=uniform_probabilities(1), name=name)


@pytest.fixture(scope="session")
def golden_model():
    return validate(golden_ifs())


@pytest.fixture(scope="session")
def golden_square_model():
    return validate(golden_square_ifs())


@pytest.fixture(scope="session")
def golden_square_skewed_model():
    return validate(golden_square_skewed_ifs())


def catalog_model(name):
    """The validated model of a shipped catalog document."""
    return validate(parse_document(load_document(name)))


@lru_cache(maxsize=None)
def catalog_graph(name):
    """The transition graph of a shipped catalog document, built once per
    session; callers must not change it."""
    return build_graph(catalog_model(name))


def walk_vertices(graph, path):
    """The closed vertex sequence of a walk given as an edge-index path."""
    edges = [graph.edges[j] for j in path]
    return (edges[0].parent,) + tuple(e.child for e in edges)


def certify_walk(graph, path):
    """``periodic_dimension`` of a walk given as an edge-index path."""
    return periodic_dimension([graph.edges[j] for j in path])


def cycle_dims(model, c):
    """The certified dimension ends (lo, hi) of a ``CycleDim``."""
    return _dims(model, c.sp_lo, c.sp_hi, c.L)


def norm_dims(model, nb):
    """The certified dimension ends (lo, hi) of a ``NormBounds``."""
    return _dims(model, nb.min_norm, nb.max_norm, nb.depth)


def inner_values(model, enum):
    """A cycle search's (least per-step value, greatest per-step value,
    least dimension, greatest dimension), as the report derives them from
    its two extremes."""
    lo, hi = enum.min_cycle, enum.max_cycle
    return (per_step(lo.sp_lo, lo.L), per_step(hi.sp_hi, hi.L),
            cycle_dims(model, hi)[0], cycle_dims(model, lo)[1])


def record_bisections(mp):
    """Hook ``dimcalc.largest_root`` through the MonkeyPatch ``mp``; the
    returned list gets the bracket (lo, hi) of each call."""
    calls = []
    real = dimcalc.largest_root

    def recorded(poly, lo, hi, rel):
        calls.append((lo, hi))
        return real(poly, lo, hi, rel)

    mp.setattr(dimcalc, "largest_root", recorded)
    return calls


def record_reports(mp):
    """Hook ``cli.assemble_report`` through the MonkeyPatch ``mp``; the
    returned list gets the (report, graph) of each call."""
    made = []
    real = cli.assemble_report

    def recorded(model, graph, *args, **kwargs):
        report = real(model, graph, *args, **kwargs)
        made.append((report, graph))
        return report

    mp.setattr(cli, "assemble_report", recorded)
    return made


def report_bytes(name, workdir):
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


class CliRun(NamedTuple):
    json: bytes                       # the JSON report file
    text: bytes                       # the text report on stdout
    bisections: int                   # spectral brackets bisected on the way
    report: dimcalc.DimensionReport   # what cli.assemble_report returned
    graph: TransitionGraph            # the graph it was given


@pytest.fixture(scope="session")
def cli_reports(tmp_path_factory):
    """``finitype analyze --json --text`` of catalog examples by name, each
    run once per session, as a ``CliRun``."""
    workdir = tmp_path_factory.mktemp("golden")
    cache = {}

    def get(name):
        if name not in cache:
            with pytest.MonkeyPatch.context() as mp:
                calls = record_bisections(mp)
                made = record_reports(mp)
                files = report_bytes(name, workdir)
            (report, graph), = made
            cache[name] = CliRun(*files, len(calls), report, graph)
        return cache[name]
    return get


@pytest.fixture(scope="session")
def cantor5_binomial_model():
    # 5-fold convolution of the fair two-map measure at contraction 1/3
    return catalog_model("cantor_r3_m5_binomial")


@pytest.fixture(scope="session")
def cantor5_uniform_model():
    return catalog_model("cantor_r3_m5_uniform")


@pytest.fixture(scope="session")
def cantor3_binomial_model():
    return catalog_model("cantor_r3_m3_binomial")


@pytest.fixture(scope="session")
def plastic_bc_model():
    # rho is the root of x^3 + x - 1 (~.6823); two-map uniform convolution
    return validate(bernoulli_ifs([-1, 1, 0, 1], (Fraction(3, 5), Fraction(7, 10)),
                                  name="bc-x3+x-1"))
