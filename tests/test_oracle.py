"""Brute-force enumeration vs graph expansion, plus fault injection."""

import dataclasses
from fractions import Fraction

import pytest

from finitype.errors import BudgetExceeded, Mismatch
from finitype.netgraph import TransitionGraph, build_graph
from finitype.oracle import brute_level, check_graph_against_oracle


def test_golden_level_one(golden_model):
    snap = brute_level(golden_model, 1)
    # endpoints {0, 1-rho, rho, 1}
    decs = [p.to_decimal(6) for p in snap.points]
    assert decs == ["0.000000", "0.381966", "0.618034", "1.000000"]
    assert len(snap.intervals) == 3


def test_golden_level_two_middle_interval(golden_model):
    snap = brute_level(golden_model, 2)
    rho = golden_model.rho()
    target = None
    for iv in snap.intervals:
        if iv.left == 2 * rho - 1 and iv.right == 1 - rho:
            target = iv
    assert target is not None
    assert [n.to_decimal(6) for n in target.neighbours] == \
        ["0.000000", "0.618034"]
    assert target.weights == (Fraction(1), Fraction(1))


def test_sixmap_level_one_points(cantor5_uniform_model):
    snap = brute_level(cantor5_uniform_model, 1)
    fifteenths = sorted({p.as_fraction() * 15 for p in snap.points})
    assert fifteenths == [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15]


def test_weights_at_least_one(golden_model, cantor3_binomial_model):
    for model, n in ((golden_model, 4), (cantor3_binomial_model, 3)):
        snap = brute_level(model, n)
        for iv in snap.intervals:
            assert sum(iv.weights) >= 1
            assert all(w > 0 for w in iv.weights)
            # neighbour offsets fit inside the unit window
            assert iv.neighbours[0].sign() >= 0
            assert (iv.neighbours[-1] + iv.norm_length - 1).sign() <= 0


def test_budget_exceeded(cantor5_uniform_model):
    with pytest.raises(BudgetExceeded):
        brute_level(cantor5_uniform_model, 9, budget=10 ** 5)


def test_graph_matches_oracle_golden(golden_model):
    g = build_graph(golden_model)
    for n in range(0, 7):
        count = check_graph_against_oracle(golden_model, g, n)
        assert count == len(brute_level(golden_model, n).intervals)


def test_graph_matches_oracle_sixmap(cantor5_uniform_model):
    g = build_graph(cantor5_uniform_model)
    for n in (1, 2, 3):
        check_graph_against_oracle(cantor5_uniform_model, g, n)


def test_graph_matches_oracle_binomial(cantor5_binomial_model):
    g = build_graph(cantor5_binomial_model)
    check_graph_against_oracle(cantor5_binomial_model, g, 3)


def test_graph_matches_oracle_golden_square(golden_square_model):
    g = build_graph(golden_square_model)
    check_graph_against_oracle(golden_square_model, g, 3)


def test_graph_matches_oracle_fractional_weights(golden_square_skewed_model):
    # the only graph here whose edge matrices have non-integer entries
    model = golden_square_skewed_model
    g = build_graph(model)
    assert len(g) == 40
    assert any(type(x) is Fraction for e in g.edges for row in e.matrix
               for x in row)
    for n in range(1, 5):
        check_graph_against_oracle(model, g, n)


def test_fault_injection_detected(golden_model):
    g = build_graph(golden_model)
    # corrupt one entry of one primitive matrix
    bad_edges = list(g.edges)
    victim = next(i for i, e in enumerate(bad_edges) if e.matrix == ((1, 1),))
    e = bad_edges[victim]
    corrupted = dataclasses.replace(e, matrix=((1, 2),))
    bad_edges[victim] = corrupted
    bad = TransitionGraph(golden_model, g.cvs, bad_edges)
    with pytest.raises(Mismatch):
        check_graph_against_oracle(golden_model, bad, 3)
