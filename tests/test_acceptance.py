"""Acceptance criteria, one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the slow
census rows carry the ``slow`` marker.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from finitype.catalog import CENSUS, load_document
from finitype.cli import parse_document
from finitype.closedforms import (
    CantorParams,
    bhm_max_formula,
    bhm_min_formula,
)
from finitype.dimcalc import (
    assemble_report,
    dim_at_zero,
    enumerate_cycles,
    norm_bounds,
    per_step,
    periodic_dimension,
)
from finitype.errors import CapExceeded, Mismatch
from finitype.ifsmodel import validate
from finitype.loopclasses import (
    Positivity,
    classify_all,
    essential_class,
    maximal_loop_classes,
    positivity_certificate,
)
from finitype.netgraph import TransitionGraph, build_graph
from finitype.oracle import check_graph_against_oracle

import invariants as inv
from conftest import inner_values, norm_dims
from conftest import catalog_graph


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({description}): FAIL")
        raise
    print(f"\ncriterion {number} ({description}): PASS")


def _model(name):
    return validate(parse_document(load_document(name)))


def _graph(name, cap=10000):
    return build_graph(_model(name), cap_cvs=cap)


# -----------------------------------------------------------------------------

def test_criterion_1_golden():
    with criterion(1, "golden two-map convolution"):
        t0 = time.monotonic()
        model = _model("golden")
        graph = build_graph(model)
        assert len(graph) == 6
        classes = classify_all(graph)
        assert len(classes) == 3
        ess = [c for c in classes if c.is_essential]
        assert len(ess) == 1 and len(ess[0].members) == 3
        assert ess[0].positivity.verdict is Positivity.POSITIVE
        assert abs(dim_at_zero(model) - 1.440420090) <= 1e-8

        enum = enumerate_cycles(graph, ess[0].members, max_len=4)
        _, _, dim_min, dim_max = inner_values(model, enum)
        assert dim_min <= 0.940420091 + 1e-8
        assert dim_max >= 1.440420090 - 1e-8

        nb = norm_bounds(graph, ess[0].members, depth=10)
        dim_lo, dim_hi = norm_dims(model, nb)
        assert dim_lo >= 0.864252053 - 1e-8
        assert dim_hi <= 1.440420091 + 1e-8

        report = assemble_report(model, graph, classes=classes,
                                 cycle_len=4, bound_len=10)
        assert report.isolated_values() == []
        assert time.monotonic() - t0 < 10


def test_criterion_2_two_point_spectrum():
    with criterion(2, "two-point dimension set"):
        t0 = time.monotonic()
        model = _model("cantor_r3_m5_uniform")
        graph = build_graph(model)
        assert len(graph) == 7
        ess = essential_class(graph)
        assert ess.members == (4, 5)
        nb = norm_bounds(graph, ess.members, depth=5)
        assert nb.min_norm == 32 and nb.max_norm == 32  # per-step exactly 2
        report = assemble_report(model, graph, cycle_len=5, bound_len=5)
        outer = report.global_outer
        assert len(outer) == 2
        assert abs(outer[0][0] - 1.0) < 1e-9 and abs(outer[0][1] - 1.0) < 1e-9
        vals = report.isolated_values()
        assert len(vals) == 1 and abs(vals[0] - 1.630929753) <= 1e-8
        assert time.monotonic() - t0 < 5


FAST_CENSUS = ["golden", "bc_x3_minus_x2_plus_2x_minus_1",
               "bc_x3_plus_x2_plus_x_minus_1",
               "bc_x4_plus_x3_plus_x2_plus_x_minus_1"]
SLOW_CENSUS = ["bc_x3_plus_x_minus_1", "bc_x4_minus_2x2_minus_x_plus_1",
               "bc_x4_minus_x3_plus_2x_minus_1", "bc_x3_plus_x2_minus_1"]


def test_criterion_3_census_fast():
    with criterion(3, "census counts, fast rows"):
        for name in FAST_CENSUS:
            graph = catalog_graph(name)
            expected = CENSUS[name]
            assert (len(graph), len(essential_class(graph).members)) == expected, name


@pytest.mark.slow
def test_criterion_3_census_slow():
    with criterion(3, "census counts, slow rows"):
        for name in SLOW_CENSUS:
            graph = catalog_graph(name)
            expected = CENSUS[name]
            assert (len(graph), len(essential_class(graph).members)) == expected, name
            # the essential class is of positive type on every shipped model
            res = positivity_certificate(graph, essential_class(graph).members)
            assert res.verdict is Positivity.POSITIVE, name


@pytest.mark.slow
def test_criterion_3_census_cap():
    with criterion(3, "census cap row"):
        with pytest.raises(CapExceeded):
            _graph("bc_x4_plus_x_minus_1", cap=10000)


@pytest.mark.slow
def test_criterion_4_isolated_point_convolution():
    with criterion(4, "isolated-point two-map convolution"):
        model = _model("bc_x3_plus_x_minus_1")
        graph = build_graph(model)
        ess = essential_class(graph)

        enum = enumerate_cycles(graph, ess.members, max_len=10)
        _, _, dim_min, dim_max = inner_values(model, enum)
        assert dim_min <= 0.970222 + 1e-5
        assert dim_max >= 1.077704 - 1e-5

        hi_part = norm_bounds(graph, ess.members, depth=10)
        lo_part = norm_bounds(graph, ess.members, depth=15,
                              subsets=[(2, 3, 4)])
        assert norm_dims(model, hi_part)[0] >= 0.848301 - 1e-6
        assert norm_dims(model, lo_part)[1] <= 1.532659 + 1e-6

        classes = maximal_loop_classes(graph)
        big = [c for c in classes if len(c.members) == 23]
        two = [c for c in classes if len(c.members) == 2]
        assert len(big) == 1 and len(two) == 1
        big_enum = enumerate_cycles(graph, big[0].members, max_len=10)
        assert abs(inner_values(model, big_enum)[1] - 1.380277569) <= 1e-8
        two_enum = enumerate_cycles(graph, two[0].members, max_len=2)
        assert abs(inner_values(model, two_enum)[1] - 1.380277569) <= 1e-8

        report = assemble_report(model, graph, cycle_len=10, bound_len=15,
                                 subset=(2, 3, 4))
        vals = report.isolated_values()
        assert len(vals) == 1 and abs(vals[0] - 1.813358) <= 1e-5
        assert report.essential.dim_outer[0] >= 0.848301 - 1e-6
        assert report.essential.dim_outer[1] <= 1.532659 + 1e-6


MIN_FORMULA = {3: 0.892790, 4: 0.892790, 5: 1.05875, 6: 1.05875,
               7: 1.18029, 8: 1.18029, 9: 1.27620, 10: 1.27620}
MAX_FORMULA = {3: 1.13355, 4: 1.05875, 5: 1.02757, 6: 1.01434,
               7: 1.01434, 8: 1.01434, 9: 1.02721, 10: 1.03074}
# published pipeline values ("actual" columns); single numbers or ranges
ACTUAL_MIN = {3: (0.892790, 0.892790), 4: (0.892790, 0.892790),
              5: (0.972382, 0.972639), 6: (0.976628, 0.976628),
              7: (0.993576, 0.993848), 8: (0.995246, 0.995246),
              9: (0.998541, 0.998658), 10: (0.999022, 0.999022)}
ACTUAL_MAX = {3: (1.13354, 1.13354), 4: (1.05874, 1.05874),
              5: (1.02757, 1.02757), 6: (1.01434, 1.01434),
              7: (1.00605, 1.00736), 8: (1.00342, 1.00346),
              9: (1.00133, 1.00171), 10: (1.00079, 1.00082)}


def _cantor_outer(m, depth):
    """The certified dimension ends of the essential class's norm bounds."""
    model = _model(f"cantor_r3_m{m}_binomial")
    graph = build_graph(model)
    ess = essential_class(graph)
    return norm_dims(model, norm_bounds(graph, ess.members, depth=depth))


def test_criterion_5_cantor_tables_fast():
    with criterion(5, "closed forms vs pipeline, m <= 6"):
        for m in range(3, 11):
            params = CantorParams.binomial(3, m)
            assert abs(bhm_min_formula(params) - MIN_FORMULA[m]) < 1e-5
            assert abs(bhm_max_formula(params) - MAX_FORMULA[m]) < 1e-5
        for m in (3, 4, 5, 6):
            dim_lo, dim_hi = _cantor_outer(m, depth=5)
            assert dim_lo <= ACTUAL_MIN[m][0] + 1e-5
            assert dim_hi >= ACTUAL_MAX[m][1] - 1e-5
        _, dim_hi5 = _cantor_outer(5, depth=5)
        assert bhm_min_formula(CantorParams.binomial(3, 5)) > dim_hi5


@pytest.mark.slow
def test_criterion_5_cantor_tables_slow():
    with criterion(5, "pipeline containment, m = 7..10"):
        for m in (7, 8, 9, 10):
            dim_lo, dim_hi = _cantor_outer(m, depth=5)
            assert dim_lo <= ACTUAL_MIN[m][0] + 1e-5
            assert dim_hi >= ACTUAL_MAX[m][1] - 1e-5


def test_criterion_6_convolution_square():
    with criterion(6, "two-fold convolution of the golden measure"):
        model = _model("golden_square")
        graph = build_graph(model)
        assert len(graph) == 40
        ess = essential_class(graph)
        assert len(ess.members) == 11

        def cycle(path):
            edges = []
            for a, b in zip(path, path[1:]):
                cands = [e for e in graph.out_edges(a) if e.child == b]
                assert len(cands) == 1
                edges.append(cands[0])
            c = periodic_dimension(edges)
            # the midpoint of the per-step enclosure, as the report shows it
            return (per_step(c.sp_lo, c.L) + per_step(c.sp_hi, c.L)) / 2

        assert abs(cycle((29, 35, 39, 29)) - 2.46916) <= 1e-4
        assert abs(cycle((28, 33, 28)) - 2.48119) <= 1e-4

        assert abs(dim_at_zero(model) - 2.88084) <= 1e-4
        report = assemble_report(model, graph, cycle_len=3, bound_len=10,
                                 subset=(3, 4))
        vals = report.isolated_values()
        assert len(vals) == 1 and abs(vals[0] - 2.88084) <= 1e-4
        # the published depth-10 lower bound for the essential class
        nb = norm_bounds(graph, ess.members, depth=10, subsets=[(3, 4)])
        assert abs(norm_dims(model, nb)[0] - 0.815721) <= 1e-5

        enum = enumerate_cycles(graph, ess.members, max_len=3)
        _, _, dim_min, dim_max = inner_values(model, enum)
        assert dim_min <= 0.992400 + 1e-5
        assert dim_max >= 1.00250 - 1e-5


FAST_ORACLE = ["golden", "bc_x3_minus_x2_plus_2x_minus_1",
               "bc_x3_plus_x2_plus_x_minus_1",
               "bc_x4_plus_x3_plus_x2_plus_x_minus_1", "golden_square",
               "cantor_r3_m3_uniform", "cantor_r3_m4_uniform",
               "cantor_r3_m5_uniform"] + \
              [f"cantor_r3_m{m}_binomial" for m in range(3, 11)]


def test_criterion_7_oracle_equivalence():
    with criterion(7, "brute-force oracle equivalence"):
        t0 = time.monotonic()
        for name in FAST_ORACLE:
            model = _model(name)
            graph = build_graph(model)
            top = 6 if model.m == 1 else 3
            for n in range(1, top + 1):
                check_graph_against_oracle(model, graph, n)
        # fault injection: corrupting one entry must be caught
        import dataclasses
        model = _model("golden")
        graph = build_graph(model)
        edges = list(graph.edges)
        k = next(i for i, e in enumerate(edges) if e.matrix == ((1, 1),))
        edges[k] = dataclasses.replace(edges[k], matrix=((1, 2),))
        with pytest.raises(Mismatch):
            check_graph_against_oracle(model, TransitionGraph(
                model, graph.cvs, edges), 3)
        assert time.monotonic() - t0 < 60


def test_criterion_8_property_volume():
    with criterion(8, "randomized invariant volume"):
        names = ["golden", "golden_square", "cantor_r3_m3_binomial",
                 "cantor_r3_m5_binomial", "cantor_r3_m5_uniform",
                 "bc_x3_plus_x_minus_1"]
        total = 0
        for i, name in enumerate(names):
            model = _model(name)
            graph = build_graph(model)
            rng = np.random.default_rng(7000 + i)
            total += inv.check_norm_monotone(graph, rng, 45)
            total += inv.check_sandwich(graph, rng, 30)
            total += inv.check_gelfand(graph, rng)
            total += inv.check_rotation_invariance(graph, rng, 12)
            total += inv.check_matrix_structure(graph)
            total += inv.check_level_weights(model, 4 if model.m == 1 else 2)
            total += inv.check_report_invariants(model, graph)
        assert total >= 1000, f"only {total} randomized cases"
        print(f"\n  [{total} randomized cases verified]", end="")
