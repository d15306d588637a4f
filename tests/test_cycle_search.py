"""Cycle search: necklace generation, prefix pruning and the screen against
the exhaustive search it replaced.

``_reference_walks`` is the exhaustive algorithm, kept here only as a
reference: it walks every closed edge path, drops rotations through a set of
canonical keys, and certifies every cycle it keeps through
``periodic_dimension``. ``_reference_extremes`` picks the extremes as the
search does: over the certified walks, the smallest ``_flog(sp_lo) / L`` and
the largest ``_flog(sp_hi) / L``, the first generated on ties.
"""

import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from finitype import dimcalc
from finitype.dimcalc import CycleEnumeration, enumerate_cycles
from finitype.errors import ZeroRow
from finitype.exactfield import compile_matrix, vec_mat
from finitype.loopclasses import classify_all, essential_class
from finitype.netgraph import build_graph

from conftest import (
    catalog_model,
    certify_walk,
    cycle_dims,
    inner_values,
)


def _logs(c):
    """The per-step logs of a ``CycleDim``'s enclosure, which rank walks."""
    return dimcalc._flog(c.sp_lo) / c.L, dimcalc._flog(c.sp_hi) / c.L


def _canonical_rotation(edge_path, graph, start):
    anchors = [0]
    for i, eidx in enumerate(edge_path[:-1]):
        if graph.edges[eidx].child == start:
            anchors.append(i + 1)
    return min(edge_path[a:] + edge_path[:a] for a in anchors)


def _necklace_key(graph, edge_path):
    """A closed edge path up to rotation among its returns to its start."""
    start = graph.edges[edge_path[0]].parent
    return _canonical_rotation(edge_path, graph, start)


def _reference_walks(graph, members, max_len):
    """Every closed walk, one per necklace, and its certified ``CycleDim``."""
    ms = sorted(set(members))
    out_internal = graph.internal_out(ms)
    seen_keys = set()
    found = []
    for s in ms:
        stack = [(s, ())]
        while stack:
            v, epath = stack.pop()
            for eidx, e in out_internal[v]:
                if e.child < s:
                    continue
                new_path = epath + (eidx,)
                if e.child == s:
                    key = _canonical_rotation(new_path, graph, s)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        found.append(new_path)
                if len(new_path) < max_len:
                    stack.append((e.child, new_path))
    dims = [certify_walk(graph, path) for path in found]
    # every enclosure converges, so the screen margin holds each certified
    # walk's per-step logs
    margin = dimcalc._SCREEN_MARGIN
    assert all(hi - lo <= margin for lo, hi in map(_logs, dims))
    return found, dims


def _reference_enumerate(graph, members, max_len):
    return _reference_extremes(*_reference_walks(graph, members, max_len))


def _reference_extremes(found, dims):
    if not dims:
        return CycleEnumeration(tuple(found), False, None, None)
    return CycleEnumeration(
        cycles=tuple(found), truncated=False,
        min_cycle=min(dims, key=lambda c: _logs(c)[0]),
        max_cycle=max(dims, key=lambda c: _logs(c)[1]))


@pytest.fixture(scope="module")
def cantor3_uniform_model():
    return catalog_model("cantor_r3_m3_uniform")


@pytest.fixture(scope="module")
def cantor4_binomial_model():
    # its essential walks [3, 3] and [3, 3, 3, 3] tie exactly (per-step
    # value 6), but log(216) / 3 rounds one ulp above log 6, so their
    # padded dim_lo differ in the last place
    return catalog_model("cantor_r3_m4_binomial")


MODELS = ("golden_model", "golden_square_model", "cantor3_binomial_model",
          "cantor3_uniform_model", "cantor4_binomial_model",
          "cantor5_binomial_model", "cantor5_uniform_model")


@pytest.fixture(scope="module", params=MODELS)
def graph(request):
    return build_graph(request.getfixturevalue(request.param))


def _assert_matches_reference(graph, members, max_len):
    """The search screens some of the closed walks and prunes the rest: each
    pruned walk's certified per-step logs lie strictly inside the extremes'
    by more than the margin, and the extremes are the exhaustive search's."""
    margin = dimcalc._SCREEN_MARGIN
    got = enumerate_cycles(graph, members, max_len)
    found, dims = _reference_walks(graph, members, max_len)
    ref = _reference_extremes(found, dims)
    screened = Counter(_necklace_key(graph, p) for p in got.cycles)
    assert not screened - Counter(_necklace_key(graph, p) for p in found)
    assert got.truncated == ref.truncated
    assert (got.min_cycle is None) == (ref.min_cycle is None)
    if got.min_cycle is None:
        return
    assert inner_values(graph.model, got) == inner_values(graph.model, ref)
    for field in ("min_cycle", "max_cycle"):
        g, r = getattr(got, field), getattr(ref, field)
        assert (g.vertices, g.sp_lo, g.sp_hi) == \
            (r.vertices, r.sp_lo, r.sp_hi), field
    least, greatest = _logs(got.min_cycle)[0], _logs(got.max_cycle)[1]
    for path, c in zip(found, dims):
        if _necklace_key(graph, path) not in screened:
            lo, hi = _logs(c)
            assert least + margin < lo and hi < greatest - margin, path


@pytest.mark.parametrize("max_len", range(1, 7))
def test_matches_exhaustive_search(graph, max_len):
    for lc in classify_all(graph):
        _assert_matches_reference(graph, lc.members, max_len)


def test_pruning_bounds_the_longest_completion(golden_model):
    # the walk of least per-step value has five steps: the third loop, the
    # first, then the second three times; a bound on a prefix taken at its
    # shortest completion, one step, in place of its longest would prune it
    graph = _one_vertex_graph(golden_model, (
        ((13, 13), (1, 0)), ((2, 0), (1, 1)), ((0, 3), (1, 8)),
        ((5, 8), (1, 5))))
    _assert_matches_reference(graph, (1,), max_len=5)


def test_column_sums_lie_between_powers_of_the_one_step_sums(graph):
    # the bound that prunes prefixes: every L-step walk in a class has its
    # column sums in [m1^L, N1^L], m1 and N1 the least and the greatest
    # column sum of the class's edge matrices; checked exactly on every walk
    # of length <= 6
    for lc in classify_all(graph):
        ms = sorted(set(lc.members))
        out_internal = graph.internal_out(ms)
        edges = [e for v in ms for _, e in out_internal[v]]
        if not edges:
            continue
        one_step = [sum(col) for e in edges for col in zip(*e.matrix)]
        m1, n1 = min(one_step), max(one_step)
        stack = [(e.child, [sum(col) for col in zip(*e.matrix)], 1)
                 for e in edges]
        while stack:
            v, sums, L = stack.pop()
            assert m1 ** L <= min(sums) and max(sums) <= n1 ** L
            if L < 6:
                stack.extend((e.child, vec_mat(sums, e.sparse), L + 1)
                             for _, e in out_internal[v])


@pytest.fixture()
def certified(monkeypatch):
    """The ``(edges, CycleDim)`` of every walk the search certifies."""
    calls = []
    real = dimcalc.periodic_dimension

    def recorded(edges):
        calls.append((list(edges), real(edges)))
        return calls[-1][1]

    monkeypatch.setattr(dimcalc, "periodic_dimension", recorded)
    return calls


def test_ties_are_all_certified(cantor5_uniform_model, certified):
    # every cycle of this class has the same per-step value, so each one
    # could be the extreme and none may be skipped
    graph = build_graph(cantor5_uniform_model)
    enum = enumerate_cycles(graph, essential_class(graph).members, max_len=6)
    assert len(certified) == len(enum.cycles) == 118


def test_len_certifies_nothing_and_iteration_certifies_once(
        cantor5_binomial_model, certified):
    # the search certifies some of the screened walks only; the rest stay
    # edge paths, and the 3 of the 231 closed walks that pruned prefixes lead
    # to are not screened
    graph = build_graph(cantor5_binomial_model)
    enum = enumerate_cycles(graph, essential_class(graph).members, max_len=6)
    eager = len(certified)
    assert 0 < eager < len(enum.cycles)
    assert len(enum.cycles) == 228
    assert len(certified) == eager


def _one_vertex_graph(model, matrices):
    """A single vertex with one self-loop per matrix."""
    loops = [SimpleNamespace(parent=1, child=1, matrix=m,
                             sparse=compile_matrix(m)) for m in matrices]
    return SimpleNamespace(model=model, edges=loops,
                           internal_out=lambda ms: {1: list(enumerate(loops))})


@pytest.mark.parametrize("first,other", [
    (3, 7), (3, 1),
    (Fraction(3 * 10 ** 12 - 9, 10 ** 12), 7),
    (Fraction(3 * 10 ** 12 + 9, 10 ** 12), 1),
])
def test_near_ties_are_certified(golden_model, first, other):
    # the second loop has spectral radius 3 and screen [3, 3], but its
    # enclosure is about 1e-11 wide where the 1x1 loops' are exact: beside a
    # larger third loop it sets the minimum, beside a smaller one the
    # maximum, even when the first loop's value sits a few 1e-12 closer to
    # the extreme than the second loop's screen
    graph = _one_vertex_graph(golden_model, (
        ((first,),), ((1, 2), (1, 2)), ((other,),)))
    got = enumerate_cycles(graph, (1,), max_len=1)
    ref = _reference_enumerate(graph, (1,), max_len=1)
    assert (inner_values(golden_model, got)[:2]
            == inner_values(golden_model, ref)[:2])


def test_zero_row_product_is_certified(golden_model):
    # the middle loop's sums alone would place it strictly between the other
    # two, where the search would leave it uncertified; its zero row is
    # rejected before the search instead
    graph = _one_vertex_graph(golden_model, (((1, 1), (1, 1)),
                                             ((0, 0), (3, 3)),
                                             ((5, 5), (5, 5))))
    with pytest.raises(ZeroRow):
        enumerate_cycles(graph, (1,), max_len=1)


def test_overflowing_product_is_certified(golden_model, certified):
    # the walk (big, big) has product 10^400, which no float can hold: its
    # screen overflows, so it must reach the certified enclosure, and its
    # per-step value 10^200 must come out of it without overflowing; the
    # walk (tiny, tiny) has product 10^-400, whose float is 0, and its
    # per-step value 10^-200 must come out too, not a complex root. Both
    # are 1x1, so their column sum is their exact spectral radius
    big, tiny = ((10 ** 200,),), ((Fraction(1, 10 ** 200),),)
    graph = _one_vertex_graph(golden_model, (((2,),), big, tiny))
    enum = enumerate_cycles(graph, (1,), max_len=2)
    logs = {tuple(e.matrix for e in edges): _logs(c)
            for edges, c in certified}
    assert logs[big, big] == (math.log(10 ** 400) / 2,) * 2
    assert logs[tiny, tiny] == (-math.log(10 ** 400) / 2,) * 2
    per_step_min, per_step_max, _, _ = inner_values(golden_model, enum)
    assert per_step_max == pytest.approx(1e200)
    assert per_step_min == pytest.approx(1e-200)
    # a per-step value of 10^-400 lies below every float, but its log does
    # not: it is enclosed exactly, so its dimensions are finite and it sets
    # the extremes; only its display value underflows to 0
    graph = _one_vertex_graph(golden_model, (((Fraction(1, 10 ** 400),),),))
    cd = dimcalc.periodic_dimension(graph.edges)
    log_lo, log_hi = _logs(cd)
    assert log_lo == log_hi == pytest.approx(-400 * math.log(10))
    dim_lo, dim_hi = cycle_dims(golden_model, cd)
    assert dim_lo < dim_hi
    assert dim_lo == pytest.approx(1915.43, abs=0.01)
    assert dim_hi == pytest.approx(1915.43, abs=0.01)
    enum = enumerate_cycles(graph, (1,), max_len=1)
    per_step_min, _, _, dim_max = inner_values(golden_model, enum)
    assert (per_step_min, dim_max) == (0.0, dim_hi)


def test_zero_row_loop_is_certified_in_longer_walks(golden_model):
    # the second loop has a zero row and spectral radius 5, strictly between
    # the first loop's 4 and the mixed walk's sqrt(30); its column sums alone
    # would leave it and its square uncertified, so only the class's static
    # zero-row check, before the search, rejects them
    graph = _one_vertex_graph(golden_model, (((1, 3), (1, 3)),
                                             ((0, 0), (5, 5))))
    with pytest.raises(ZeroRow):
        enumerate_cycles(graph, (1,), max_len=2)


def test_search_multiplies_only_certified_walks(cantor5_binomial_model,
                                                monkeypatch):
    # the search carries column sums; exact products are built only for the
    # walks it certifies, where one product per prefix would outnumber them
    graph = build_graph(cantor5_binomial_model)
    calls = []
    real = dimcalc.mat_mul

    def counted(A, B):
        calls.append(None)
        return real(A, B)

    monkeypatch.setattr(dimcalc, "mat_mul", counted)
    enum = enumerate_cycles(graph, essential_class(graph).members, max_len=6)
    assert len(calls) < len(enum.cycles) == 228


def test_certified_values_lie_inside_the_column_screen(graph, monkeypatch):
    # each walk's screen is the log of the column-sum enclosure of its
    # per-step value, and the certified log enclosure must agree with it up
    # to the margin, in log units
    screens = []
    real = dimcalc._screen

    def recorded(L, cols):
        screens.append(real(L, cols))
        return screens[-1]

    monkeypatch.setattr(dimcalc, "_screen", recorded)
    margin = dimcalc._SCREEN_MARGIN
    for lc in classify_all(graph):
        screens.clear()
        enum = enumerate_cycles(graph, lc.members, max_len=6)
        assert len(screens) == len(enum.cycles)
        for (lo, hi), path in zip(screens, enum.cycles):
            log_lo, log_hi = _logs(certify_walk(graph, path))
            assert lo - margin <= log_lo <= log_hi <= hi + margin
