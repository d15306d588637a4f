"""Randomized invariant suites over the shipped graphs.

The same checkers back the acceptance criterion on property coverage; here
they run per graph so failures localize.
"""

import numpy as np
import pytest

from finitype.netgraph import build_graph

import invariants as inv
from conftest import bernoulli_ifs, catalog_graph, catalog_model, \
    golden_ifs, golden_square_ifs

from fractions import Fraction

from finitype.ifsmodel import validate


def _models():
    return [
        validate(golden_ifs()),
        validate(golden_square_ifs()),
        catalog_model("cantor_r3_m3_binomial"),
        catalog_model("cantor_r3_m5_binomial"),
        catalog_model("cantor_r3_m5_uniform"),
        validate(bernoulli_ifs([-1, 1, 0, 1],
                               (Fraction(3, 5), Fraction(7, 10)))),
    ]


@pytest.fixture(scope="module")
def graphs():
    return [(m, build_graph(m)) for m in _models()]


def _rng(tag):
    return np.random.default_rng(abs(hash(tag)) % (2 ** 32))


def test_norm_monotone_laws(graphs):
    total = 0
    for i, (model, g) in enumerate(graphs):
        total += inv.check_norm_monotone(g, np.random.default_rng(100 + i), 40)
    assert total >= 480


def test_positive_sandwich(graphs):
    total = 0
    for i, (model, g) in enumerate(graphs):
        total += inv.check_sandwich(g, np.random.default_rng(200 + i), 30)
    assert total >= 150


def test_gelfand_power_bounds(graphs):
    total = 0
    for i, (model, g) in enumerate(graphs):
        total += inv.check_gelfand(g, np.random.default_rng(300 + i))
    assert total >= 100


def test_cycle_rotation_spectral_invariance(graphs):
    total = 0
    for i, (model, g) in enumerate(graphs):
        total += inv.check_rotation_invariance(
            g, np.random.default_rng(400 + i), 12)
    assert total >= 30


def test_matrix_structure_everywhere(graphs):
    total = 0
    for model, g in graphs:
        total += inv.check_matrix_structure(g)
    assert total >= 300


def test_level_weights_positive(graphs):
    total = 0
    for model, g in graphs:
        n = 4 if model.m == 1 else 2
        total += inv.check_level_weights(model, n)
    assert total >= 50


def test_report_invariants(graphs):
    total = 0
    for model, g in graphs:
        total += inv.check_report_invariants(model, g)
    assert total >= 15


def test_essential_class_always_positive():
    from finitype.catalog import SLOW_EXAMPLES, example_names
    from finitype.loopclasses import Positivity, essential_class, \
        positivity_certificate

    for name in example_names():
        if name in SLOW_EXAMPLES:
            continue
        g = catalog_graph(name)
        res = positivity_certificate(g, essential_class(g).members)
        assert res.verdict is Positivity.POSITIVE, name
