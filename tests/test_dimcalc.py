"""Spectral radii, cycle dimensions, pseudo-norm bounds: frozen exact values."""

import itertools
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    catalog_graph,
    catalog_model,
    certify_walk,
    cycle_dims,
    golden_square_ifs,
    inner_values,
    norm_dims,
    record_bisections,
    walk_vertices,
)
from finitype import dimcalc
from finitype.catalog import SLOW_EXAMPLES, example_names, load_document
from finitype.cli import parse_document
from finitype.dimcalc import (
    ISOLATED,
    ClassDimSet,
    IsolatedPoint,
    NormBounds,
    _auto_subsets,
    _norm_pass,
    _quotient_extremes,
    _walk_count,
    analyze_class,
    assemble_report,
    dim_at_zero,
    enumerate_cycles,
    norm_bounds,
    per_step,
    periodic_dimension,
    product_along,
    spectral_radius,
)
from finitype.errors import (
    EdgesNotAdmissible,
    NotACycle,
    SubsetInvalidForClass,
    ZeroRow,
)
from finitype.exactfield import char_poly, compile_matrix, mat_mul, vec_mat
from finitype.ifsmodel import Ifs, validate
from finitype.loopclasses import essential_class
from finitype.netgraph import build_graph
from invariants import NormKind, pseudo_norm


@pytest.fixture(scope="module")
def golden_graph(golden_model):
    return build_graph(golden_model)


@pytest.fixture(scope="module")
def cantor5_graph(cantor5_binomial_model):
    return build_graph(cantor5_binomial_model)


@pytest.fixture(scope="module")
def sixmap_graph(cantor5_uniform_model):
    return build_graph(cantor5_uniform_model)


@pytest.fixture(scope="module")
def plastic_graph(plastic_bc_model):
    return build_graph(plastic_bc_model)


@pytest.fixture(scope="module")
def skewed_graph(golden_square_skewed_model):
    return build_graph(golden_square_skewed_model)


@pytest.fixture(scope="module")
def cubic_pisot_graph():
    # rho is the root of x^3 - x^2 + 2x - 1; the essential members have one
    # to four neighbours
    doc = load_document("bc_x3_minus_x2_plus_2x_minus_1")
    return build_graph(validate(parse_document(doc)))


def _numpy_sp(matrix):
    a = np.array([[float(x) for x in row] for row in matrix])
    return max(abs(np.linalg.eigvals(a)))


# ------------------------------------------------------------ spectral radius

def test_spectral_radius_all_ones():
    lo, hi = spectral_radius(((1, 1), (1, 1)))
    assert lo <= 2 <= hi and hi - lo < 1e-9


def test_spectral_radius_triangular():
    lo, hi = spectral_radius(((1, 0), (1, 1)))
    assert lo <= 1 <= hi and hi - lo < 1e-9


def test_spectral_radius_worked_three_by_three():
    # characteristic polynomial (1-x)((1-x)^2 - 1): roots 0, 1, 2
    m = ((1, 0, 0), (1, 1, 1), (0, 1, 1))
    lo, hi = spectral_radius(m)
    assert lo <= 2 <= hi and hi - lo < 1e-9
    assert abs(_numpy_sp(m) - 2) < 1e-12


def test_spectral_radius_periodic_matrix():
    # antidiagonal: eigenvalues +-sqrt(2); plain power quotients oscillate
    lo, hi = spectral_radius(((0, 2), (1, 0)))
    s = 2 ** 0.5
    assert lo <= s <= hi and hi - lo < 1e-9


def test_spectral_radius_reducible():
    # block upper-triangular: radius comes from an inaccessible block
    m = ((3, 1), (0, 2))
    lo, hi = spectral_radius(m)
    assert lo <= 3 <= hi and hi - lo < 1e-9


def test_spectral_radius_transient_vertex_adds_nothing():
    # vertex 1 has no self-loop: its one-vertex block's value is 0, so the
    # radius is block {2}'s, exactly
    assert spectral_radius(((0, 1), (0, 2))) == (2, 2)


def test_spectral_radius_matches_numpy_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.integers(0, 4, size=(n, n))
        for i in range(n):
            if not m[i].any():
                m[i][int(rng.integers(0, n))] = 1
        mt = tuple(tuple(int(x) for x in row) for row in m)
        lo, hi = spectral_radius(mt)
        ref = _numpy_sp(mt)
        assert lo - 1e-8 <= ref <= hi + 1e-8
        assert hi - lo <= 1e-9 * max(hi, 1.0)


def test_spectral_radius_zero_row():
    with pytest.raises(ZeroRow):
        spectral_radius(((0, 0), (1, 1)))


def test_spectral_radius_bisects_a_slowly_mixing_block(monkeypatch):
    # the eigenvalues (1999 +- sqrt 5) / 2 lie so close that 300 rounds on
    # the shifted block leave a relative width near 5e-4; the bracket is
    # bisected to the larger root of x^2 - 1999 x + 998999
    calls = record_bisections(monkeypatch)
    lo, hi = spectral_radius(((1000, 1), (1, 999)))
    assert calls
    # lo <= (1999 + sqrt 5) / 2 <= hi, exactly: both 2x - 1999 are positive
    assert (2 * lo - 1999) ** 2 <= 5 <= (2 * hi - 1999) ** 2
    assert hi - lo <= Fraction(1, 10 ** 10) * hi


def test_spectral_radius_bisects_to_the_perron_root(monkeypatch):
    # 10^6 I plus a small irreducible block with a spread diagonal: its
    # eigenvalues sit within a few units of each other against 10^6, so the
    # iteration stalls, mostly with several real eigenvalues in its
    # bracket, of which only the largest is sp
    calls = record_bisections(monkeypatch)
    rng = np.random.default_rng(23)
    crowded = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = (rng.integers(0, 2, size=(n, n))
             + np.diag(rng.integers(0, 10, size=n)))
        for i in range(n):
            m[i][(i + 1) % n] |= 1  # a cycle through every index
        block = tuple(tuple(int(x) + 10 ** 6 * (i == j)
                            for j, x in enumerate(row))
                      for i, row in enumerate(m))
        del calls[:]
        lo, hi = spectral_radius(block)
        ref = _numpy_sp(block)
        assert lo - 1e-6 <= ref <= hi + 1e-6
        assert hi - lo <= dimcalc._REL_TOL * hi
        eigs = np.linalg.eigvals(np.array(block, dtype=float))
        crowded += any(sum(abs(e.imag) < 1e-6 and a <= e.real <= b
                           for e in eigs) > 1 for a, b in calls)
    assert crowded > 10


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.integers(0, 5, size=(n, n))
        block = tuple(tuple(Fraction(int(x), 3) for x in row) for row in m)
        ref = np.poly(np.array(block, dtype=float))[::-1]
        assert np.allclose([float(c) for c in char_poly(block)], ref)


def _det_at(block, x):
    """det(x I - block) by exact Gaussian elimination."""
    n = len(block)
    a = [[Fraction(x if i == j else 0) - block[i][j] for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [y - f * z for y, z in zip(a[i], a[k])]
    return det


def test_char_poly_of_an_integer_block_is_all_int():
    # the coefficients are the characteristic polynomial's, checked at n + 1
    # points against an elimination determinant, and every one is an int
    assert char_poly(((1, 1), (1, 0))) == [-1, -1, 1]
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 7)
        block = tuple(tuple(rng.randint(0, 9) for _ in range(n))
                      for _ in range(n))
        coeffs = char_poly(block)
        assert all(type(c) is int for c in coeffs)
        for x in range(n + 1):
            assert sum(c * x ** k for k, c in enumerate(coeffs)) == \
                _det_at(block, x)


def test_spectral_radius_fractional_entries():
    m = ((Fraction(1, 2), Fraction(3, 2)), (1, 1))
    lo, hi = spectral_radius(m)
    assert abs((lo + hi) / 2 - _numpy_sp(m)) < 1e-9


# ------------------------------------------------------- periodic dimensions

def _edges_between(graph, path):
    """All edge choices along a vertex path, as one list per step."""
    out = []
    for a, b in zip(path, path[1:]):
        out.append([e for e in graph.out_edges(a) if e.child == b])
    return out


def _first_cycle(graph, path):
    return [choices[0] for choices in _edges_between(graph, path)]


def test_golden_dim_at_zero(golden_model, golden_graph):
    assert abs(dim_at_zero(golden_model) - 1.4404200904) < 1e-9
    cd = periodic_dimension(_first_cycle(golden_graph, (2, 2)))
    assert abs(sum(cycle_dims(golden_model, cd)) / 2 - 1.440420090) < 1e-8
    assert len(cd.vertices) - 1 == 1


def _weighted_golden_square():
    ifs = golden_square_ifs()
    n = 10 ** 40
    return validate(Ifs(field=ifs.field, translations=ifs.translations,
                        probabilities=(Fraction(1, n + 2), Fraction(n, n + 2),
                                       Fraction(1, n + 2))))


def _dec(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


def test_dims_pad_encloses_the_true_dimension(golden_model,
                                              golden_square_model):
    # (log p_0 + log(x) / L) / log rho in 90-digit decimals, at both ends of
    # a 2^-256 enclosure of rho, for exact x from about 10^-1000 to 10^1000
    # whose numerator and denominator have up to 1000 digits each
    models = [golden_model, golden_square_model, _weighted_golden_square(),
              catalog_model("cantor_r3_m3_uniform"),
              catalog_model("cantor_r3_m10_binomial")]
    rng = random.Random(1)
    with localcontext() as ctx:
        ctx.prec = 90
        for model in models:
            field = model.field
            while (field.enclosure()[1] - field.enclosure()[0]
                   > Fraction(1, 2 ** 256)):
                field.refine(64)
            log_rhos = [_dec(r).ln() for r in field.enclosure()]
            log_p0 = _dec(model.probabilities[0]).ln()
            for _ in range(600):
                e = rng.randint(-1000, 1000)
                k = rng.randint(max(0, -e), min(1000, 1000 - e))
                den = rng.randrange(10 ** k, 10 ** (k + 1))
                num = rng.randrange(10 ** (k + e), 10 ** (k + e + 1))
                x, L = Fraction(num, den), rng.randint(1, 12)
                lo, hi = dimcalc._dims(model, x, x, L)
                for lr in log_rhos:
                    # past x = p_0 ** -L the formula goes below 0, and
                    # _dims clamps both ends at 0
                    d = max((log_p0 + _dec(x).ln() / L) / lr, 0)
                    assert Decimal(lo) <= d <= Decimal(hi), (x, L)


def test_dimension_ends_are_never_negative():
    # at depth 1 golden_square's largest per-step value is 4 = 1 / p_0, whose
    # dimension is exactly 0; the outward pad alone would put that end below
    graph = catalog_graph("golden_square")
    report = assemble_report(graph.model, graph, bound_len=1)
    assert max(cs.outer.max_norm for cs in report.classes) == 4
    assert 1 / graph.model.probabilities[0] == 4
    ends = [x for cs in report.classes for x in cs.dim_outer]
    ends += [x for span in report.global_outer for x in span]
    assert min(ends) == 0.0


def test_golden_essential_unit_cycle(golden_model, golden_graph):
    # 3 -> 5 -> 3 with the lower-triangular return edge: radius one,
    # dimension equal to the endpoint dimension
    e35 = _edges_between(golden_graph, (3, 5))[0][0]
    e53 = [e for e in golden_graph.out_edges(5) if e.child == 3]
    cd = periodic_dimension([e35, e53[0]])
    assert abs(sum(cycle_dims(golden_model, cd)) / 2 - 1.440420090) < 1e-8
    assert per_step(cd.sp_hi, cd.L) < 1 + 1e-9


def test_golden_min_dimension_cycle(golden_model, golden_graph):
    # 3 -> 5 -> 3 -> 5 -> 3 mixing both return edges: radius phi^2
    e35 = _edges_between(golden_graph, (3, 5))[0][0]
    a, b = [e for e in golden_graph.out_edges(5) if e.child == 3]
    cd = periodic_dimension([e35, a, e35, b])
    assert abs(sum(cycle_dims(golden_model, cd)) / 2 - 0.9404200909) < 1e-8
    assert abs((per_step(cd.sp_lo, cd.L) + per_step(cd.sp_hi, cd.L)) / 2
               - 1.272019649) < 1e-8


def test_periodic_dimension_rejects_open_path(golden_model, golden_graph):
    e35 = _edges_between(golden_graph, (3, 5))[0][0]
    with pytest.raises(NotACycle):
        periodic_dimension([e35])


def test_periodic_dimension_rejects_disconnected_edges(golden_model,
                                                       golden_graph):
    e12 = _edges_between(golden_graph, (1, 2))[0][0]
    e43 = _edges_between(golden_graph, (4, 3))[0][0]
    with pytest.raises(EdgesNotAdmissible):
        product_along([e12, e43])


def _loops(matrices):
    """One self-loop of vertex 1 per matrix, as a built graph's edges."""
    return [SimpleNamespace(parent=1, child=1, matrix=m,
                            sparse=compile_matrix(m)) for m in matrices]


@pytest.fixture()
def spectral_calls(monkeypatch):
    calls = []
    real = dimcalc.spectral_radius

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(dimcalc, "spectral_radius", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_equal_column_sums_certify_without_spectral_radius(
        golden_model, spectral_calls, seed):
    # positive integer matrices whose columns all sum to one c: every walk's
    # product has equal column sums, its spectral radius, so the walk is
    # certified from them alone and gets spectral_radius's own enclosure
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def equal_sums():
        c = rng.randint(n, 9)
        cols = []
        for _ in range(n):
            cuts = sorted(rng.sample(range(1, c), n - 1))
            cols.append([b - a for a, b in zip([0] + cuts, cuts + [c])])
        return tuple(zip(*cols))

    loops = _loops([equal_sums() for _ in range(3)])
    for _ in range(8):
        edges = [rng.choice(loops) for _ in range(rng.randint(1, 4))]
        got = periodic_dimension(edges)
        assert not spectral_calls
        lo, hi = spectral_radius(product_along(edges))
        assert lo == hi
        assert got == dimcalc.CycleDim(tuple(edges), lo, hi)
        spectral_calls.clear()


@pytest.mark.parametrize("seed", range(6))
def test_unequal_column_sums_take_spectral_radius(golden_model,
                                                  spectral_calls, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    loops = _loops([tuple(tuple(rng.randint(1, 5) for _ in range(n))
                          for _ in range(n)) for _ in range(3)])
    checked = 0
    for _ in range(8):
        edges = [rng.choice(loops) for _ in range(rng.randint(1, 4))]
        product = product_along(edges)
        sums = [sum(col) for col in zip(*product)]
        if min(sums) == max(sums):
            continue
        got = periodic_dimension(edges)
        assert spectral_calls == [product]
        spectral_calls.clear()
        assert got == dimcalc.CycleDim(tuple(edges), *spectral_radius(product))
        checked += 1
    assert checked


# ----------------------------------------------------------- cycle search

def test_golden_cycle_enumeration(golden_model, golden_graph):
    ess = essential_class(golden_graph)
    enum = enumerate_cycles(golden_graph, ess.members, max_len=4)
    assert not enum.truncated
    per_step_min, per_step_max, dim_min, dim_max = inner_values(golden_model,
                                                                enum)
    assert abs(per_step_min - 1.0) < 1e-9
    assert abs(per_step_max - 1.272019649) < 1e-8
    assert abs(dim_min - 0.9404200909) < 1e-8
    assert abs(dim_max - 1.440420090) < 1e-8


def test_cantor5_cycle_enumeration(cantor5_binomial_model, cantor5_graph):
    ess = essential_class(cantor5_graph)
    assert ess.members == (4, 5)
    enum = enumerate_cycles(cantor5_graph, ess.members, max_len=3)
    per_step_min, per_step_max, _, _ = inner_values(cantor5_binomial_model,
                                                    enum)
    assert abs(per_step_min - 10.34846923) < 1e-7
    assert abs(per_step_max - 10.99217650) < 1e-7
    # extremes arise from two-step self-loop walks mixing the parallel edges
    assert enum.min_cycle.vertices == (5, 5, 5)
    assert enum.max_cycle.vertices == (4, 4, 4)


def test_cycle_rotation_dedup(golden_graph):
    ess = essential_class(golden_graph)
    enum = enumerate_cycles(golden_graph, ess.members, max_len=3)
    keys = sorted(walk_vertices(golden_graph, p) for p in enum.cycles)
    # the two (3,5,3) walks differ in which parallel return edge they take;
    # rotations such as (5,6,3,5) never appear as separate cycles
    assert keys == [(3, 5, 3), (3, 5, 3), (3, 5, 6, 3)]
    assert {v[0] for v in keys} == {3}


def test_self_loop_cycle(sixmap_graph):
    enum = enumerate_cycles(sixmap_graph, (2,), max_len=5)
    assert all(abs(per_step(c.sp_lo, c.L) - 1) < 1e-9
               for c in (certify_walk(sixmap_graph, p) for p in enum.cycles))


def test_simple_loop_search_stops_at_loop_length(golden_model, golden_graph):
    # a one-vertex loop takes one search step; its powers are not searched
    report = assemble_report(golden_model, golden_graph, cycle_budget=1)
    loops = [cs for cs in report.classes if cs.loop_class.is_simple_loop]
    assert [cs.members for cs in loops] == [(2,), (4,)]
    assert not any(cs.cycles_truncated for cs in loops)


# ------------------------------------------------------------- pseudo-norms

def test_pseudo_norm_examples():
    m = ((1, 0), (1, 1))
    assert pseudo_norm(m, NormKind.MIN_ROW) == 1
    assert pseudo_norm(m, NormKind.MAX_ROW) == 2
    assert pseudo_norm(m, NormKind.MIN_COL) == 1
    assert pseudo_norm(m, NormKind.MAX_COL) == 2
    assert pseudo_norm(m, NormKind.SUBSET_MIN, subset=(1, 2)) == 1
    assert pseudo_norm(m, NormKind.TOTAL) == 3
    ident = ((1, 0), (0, 1))
    assert pseudo_norm(ident, NormKind.MIN_ROW) == 1
    assert pseudo_norm(ident, NormKind.MAX_ROW) == 1
    assert pseudo_norm(ident, NormKind.SUBSET_MIN, subset=(1, 2)) == 1
    all2 = ((1, 1), (1, 1))
    assert pseudo_norm(all2, NormKind.MIN_ROW) == 2
    assert pseudo_norm(all2, NormKind.MAX_ROW) == 2


def test_pseudo_norm_subset_validation():
    with pytest.raises(SubsetInvalidForClass):
        pseudo_norm(((1, 0), (1, 1)), NormKind.SUBSET_MIN, subset=(3,))


def test_pseudo_norm_supermultiplicative_on_squares():
    m = ((1, 0), (1, 1))
    sq = mat_mul(m, compile_matrix(m))
    for kind in (NormKind.MIN_ROW, NormKind.MIN_COL):
        assert pseudo_norm(sq, kind) >= pseudo_norm(m, kind) ** 2
    assert pseudo_norm(sq, NormKind.MAX_COL) <= pseudo_norm(m, NormKind.MAX_COL) ** 2


# ------------------------------------------------------------- norm bounds

def test_cantor5_norm_bounds_depth5(cantor5_binomial_model, cantor5_graph):
    ess = essential_class(cantor5_graph)
    nb = norm_bounds(cantor5_graph, ess.members, depth=5)
    dim_lo, dim_hi = norm_dims(cantor5_binomial_model, nb)
    assert abs(per_step(nb.min_norm, 5) - 10.29826851) < 1e-7
    assert abs(per_step(nb.max_norm, 5) - 10.99526948) < 1e-7
    assert abs(dim_lo - 0.972381959) < 1e-8
    assert abs(dim_hi - 1.031992942) < 1e-8


def test_golden_norm_bounds_depth10(golden_model, golden_graph):
    ess = essential_class(golden_graph)
    nb = norm_bounds(golden_graph, ess.members, depth=10)
    dim_lo, dim_hi = norm_dims(golden_model, nb)
    assert abs(per_step(nb.min_norm, 10) - 1.0) < 1e-12
    assert abs(per_step(nb.max_norm, 10) - 1.319507911) < 1e-8
    assert abs(dim_lo - 0.8642520535) < 1e-8
    assert abs(dim_hi - 1.440420090) < 1e-8


def test_sixmap_norm_bounds_exact_two(sixmap_graph):
    ess = essential_class(sixmap_graph)
    nb = norm_bounds(sixmap_graph, ess.members, depth=5)
    assert nb.min_norm == 32 and nb.max_norm == 32  # exactly 2 per step
    assert (abs(per_step(nb.min_norm, 5) - 2) < 1e-12
            and abs(per_step(nb.max_norm, 5) - 2) < 1e-12)


def test_single_edge_class_degenerate_outer(golden_model, golden_graph):
    nb = norm_bounds(golden_graph, (2,), depth=6)
    assert nb.min_norm == 1 and nb.max_norm == 1
    dim_lo, dim_hi = norm_dims(golden_model, nb)
    assert abs(dim_lo - dim_at_zero(golden_model)) < 1e-9
    assert abs(dim_hi - dim_at_zero(golden_model)) < 1e-9


@pytest.mark.parametrize("depth", [1, 3])
def test_norm_bounds_reject_a_member_without_internal_out_edge(golden_graph,
                                                                depth):
    # 1 -> 3 is the only edge inside (1, 3), so the set holds no closed
    # walk for the two bounds to enclose
    assert [len(golden_graph.internal_out((1, 3))[v]) for v in (1, 3)] == [1, 0]
    with pytest.raises(ValueError, match="no internal out-edge"):
        norm_bounds(golden_graph, (1, 3), depth)


def test_norm_bounds_monotone_width(golden_model, golden_graph):
    ess = essential_class(golden_graph)
    widths = []
    for depth in (2, 4, 8):
        nb = norm_bounds(golden_graph, ess.members, depth=depth)
        dim_lo, dim_hi = norm_dims(golden_model, nb)
        widths.append(dim_hi - dim_lo)
    assert widths[0] >= widths[1] - 1e-12 >= widths[2] - 1e-12


def test_norm_bounds_subset_validation(golden_graph):
    ess = essential_class(golden_graph)
    with pytest.raises(SubsetInvalidForClass):
        norm_bounds(golden_graph, ess.members, depth=3, subsets=[(2,)])
        # vertex 6 has a single neighbour, so index 2 is invalid


@pytest.mark.parametrize("call", [
    lambda g: norm_bounds(g, essential_class(g).members, 3, subsets=[()]),
    lambda g: assemble_report(g.model, g, cycle_len=2, bound_len=2,
                              subset=()),
], ids=["norm_bounds", "assemble_report"])
def test_empty_subset_is_invalid(golden_graph, call):
    with pytest.raises(SubsetInvalidForClass):
        call(golden_graph)


def _sides(graph, members, subsets=()):
    """Both sides' reversed adjacency and the functional families, built as
    ``norm_bounds`` builds them: ``col_into[w]`` holds ``(v, M)`` for each
    internal edge ``v -> w``, ``row_into[v]`` holds ``(w, M^T)`` with each
    distinct ``M`` transposed once (``transposed``, keyed by ``id(M)``), and
    the families are the max and min sums, then a restricted min per
    subset."""
    ms = sorted(members)
    sizes = {v: len(graph.cv(v).neighbours) for v in ms}
    internal = graph.internal_out(ms)
    col_into = {v: [] for v in ms}
    for v in ms:
        for _, e in internal[v]:
            col_into[e.child].append((v, e.sparse))
    transposed, row_into = {}, {v: [] for v in ms}
    for w, sources in col_into.items():
        for v, matrix in sources:
            if id(matrix) not in transposed:
                transposed[id(matrix)] = matrix.transposed()
            row_into[v].append((w, transposed[id(matrix)]))
    ones = {v: [(1,) * n] for v, n in sizes.items()}
    families = [(True, max, ones), (False, min, ones)] + [
        (False, lambda vec, idx=idx: min(vec[k - 1] for k in idx),
         {v: [tuple(int(j in idx) for j in range(1, n + 1))]
          for v, n in sizes.items()})
        for idx in subsets]
    return col_into, transposed, row_into, families


@pytest.fixture()
def with_functionals():
    """``norm_bounds`` returning also each functional's extreme, from a
    ``_norm_pass`` over every family on each side: column sums, then row
    sums. The bounds must combine them: the largest lower value and the
    smaller max, whichever row families ``norm_bounds`` itself sweeps."""
    def run(graph, members, depth, subsets=()):
        col_into, _, row_into, families = _sides(graph, members, subsets)
        (max_col, min_col, *sub_col), col_depth, _ = _norm_pass(
            col_into, families, depth, 10 ** 9)
        (max_row, min_row, *sub_row), row_depth, _ = _norm_pass(
            row_into, families, depth, 10 ** 9)
        assert col_depth == row_depth == depth
        nb = norm_bounds(graph, members, depth, subsets=subsets)
        lows = [min_col, min_row, *sub_col, *sub_row]
        assert nb.min_norm == max(x for x in lows if x is not None)
        assert nb.max_norm == min(max_col, max_row)
        return nb, {"min_col": min_col, "max_col": max_col,
                    "min_row": min_row, "max_row": max_row,
                    "sub_col": dict(zip(subsets, sub_col)),
                    "sub_row": dict(zip(subsets, sub_row))}
    return run


def test_norm_bounds_flavors_recorded(plastic_graph, with_functionals):
    # the two flavors genuinely differ here; the combined bound keeps the
    # tighter row-sum value while the passes return both
    g = plastic_graph
    ess = essential_class(g)
    nb, functionals = with_functionals(g, ess.members, depth=10)
    assert functionals["max_row"] == 40
    assert functionals["max_col"] == 81
    assert nb.max_norm == 40
    assert abs(per_step(nb.max_norm, 10) - 1.446125550) < 1e-8
    nb15, functionals = with_functionals(g, ess.members, depth=15,
                                         subsets=[(2, 3, 4)])
    assert functionals["sub_row"][(2, 3, 4)] == 5
    assert abs(per_step(nb15.min_norm, 15) - 1.113263577) < 1e-8
    assert abs(norm_dims(g.model, nb15)[1] - 1.532658865) < 1e-8
    assert abs(norm_dims(g.model, nb)[0] - 0.8483019061) < 1e-8


def _internal_paths(graph, members, depth):
    """Every walk of ``depth`` edges that stays inside ``members``."""
    ms = set(members)
    paths = [[e] for v in sorted(ms) for e in graph.out_edges(v)
             if e.child in ms]
    for _ in range(depth - 1):
        paths = [p + [e] for p in paths for e in graph.out_edges(p[-1].child)
                 if e.child in ms]
    return paths


def _brute_norm_functionals(graph, members, depth, subsets):
    products = [product_along(p) for p in _internal_paths(graph, members,
                                                          depth)]
    transposed = [tuple(zip(*P)) for P in products]

    def least(kind, mats, subset=None):
        return min(pseudo_norm(P, kind, subset) for P in mats)

    functionals = {
        "min_col": least(NormKind.MIN_COL, products),
        "max_col": max(pseudo_norm(P, NormKind.MAX_COL) for P in products),
        "min_row": least(NormKind.MIN_ROW, products),
        "max_row": max(pseudo_norm(P, NormKind.MAX_ROW) for P in products),
        "sub_col": {idx: least(NormKind.SUBSET_MIN, products, idx)
                    for idx in subsets},
        "sub_row": {idx: least(NormKind.SUBSET_MIN, transposed, idx)
                    for idx in subsets},
    }
    return functionals, len(products)


@pytest.mark.parametrize("depth", range(1, 7))
def test_golden_norm_bounds_match_brute_force(golden_graph, with_functionals,
                                              depth):
    ess = essential_class(golden_graph)
    nb, functionals = with_functionals(golden_graph, ess.members, depth)
    ref, count = _brute_norm_functionals(golden_graph, ess.members, depth, [])
    assert functionals == ref
    assert nb.path_count == count
    assert nb.min_norm == max(ref["min_col"], ref["min_row"])
    assert nb.max_norm == min(ref["max_col"], ref["max_row"])


@pytest.mark.parametrize("depth", range(1, 4))
def test_cantor5_subset_norm_bounds_match_brute_force(cantor5_graph,
                                                      with_functionals, depth):
    ess = essential_class(cantor5_graph)
    subsets = [(1,), (1, 2)]
    nb, functionals = with_functionals(cantor5_graph, ess.members, depth,
                                       subsets)
    ref, count = _brute_norm_functionals(cantor5_graph, ess.members, depth,
                                         subsets)
    assert functionals == ref
    assert nb.path_count == count
    lows = [ref["min_col"], ref["min_row"], *ref["sub_col"].values(),
            *ref["sub_row"].values()]
    assert nb.min_norm == max(lows)
    assert nb.max_norm == min(ref["max_col"], ref["max_row"])


@pytest.mark.parametrize("min_neigh,count",
                         [(1, 0), (2, 0), (3, 1), (5, 3), (20, 18)])
def test_auto_subsets_are_the_width_3_windows(min_neigh, count):
    windows = _auto_subsets(min_neigh)
    assert len(windows) == count
    assert windows == [(s, s + 1, s + 2) for s in range(1, count + 1)]


def _min_neigh(graph, members):
    return min(len(graph.cv(v).neighbours) for v in members)


@pytest.mark.parametrize("depth", range(1, 5))
def test_pisot_auto_subset_norm_bounds_match_brute_force(with_functionals,
                                                         depth):
    # golden_square's essential members have 7 or 8 neighbours: five windows
    g = catalog_graph("golden_square")
    ess = essential_class(g)
    subsets = _auto_subsets(_min_neigh(g, ess.members))
    assert len(subsets) == 5
    nb, functionals = with_functionals(g, ess.members, depth, subsets)
    ref, count = _brute_norm_functionals(g, ess.members, depth, subsets)
    assert functionals == ref
    assert nb.path_count == count
    lows = [ref["min_col"], ref["min_row"], *ref["sub_col"].values(),
            *ref["sub_row"].values()]
    assert nb.min_norm == max(lows)
    assert nb.max_norm == min(ref["max_col"], ref["max_row"])


def test_explicit_subset_runs_beside_the_windows(monkeypatch):
    g = catalog_graph("golden_square")
    ess = essential_class(g)
    seen = []

    def spy(*args, **kwargs):
        seen.append(list(kwargs["subsets"]))
        return norm_bounds(*args, **kwargs)

    monkeypatch.setattr(dimcalc, "norm_bounds", spy)
    analyze_class(g, ess, cycle_len=1, bound_len=3, subset=(3, 4),
                  cycle_budget=1000, path_budget=20_000_000)
    assert seen == [_auto_subsets(_min_neigh(g, ess.members)) + [(3, 4)]]


@pytest.mark.parametrize("depth", range(1, 4))
def test_fractional_weight_norm_bounds_match_brute_force(skewed_graph,
                                                          with_functionals,
                                                          depth):
    g = skewed_graph
    ess = essential_class(g)
    assert len(ess.members) == 11
    nb, functionals = with_functionals(g, ess.members, depth)
    ref, count = _brute_norm_functionals(g, ess.members, depth, [])
    assert functionals == ref
    assert nb.path_count == count


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(
    st.one_of(st.integers(1, 4), st.integers(1, 2 ** 520),
              st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6)),
    st.one_of(st.integers(1, 4), st.integers(1, 2 ** 520))),
    min_size=1, max_size=30))
def test_quotient_extremes_match_fraction_min_max(pairs):
    # the integer cross-multiplication picks pairs whose quotients are the
    # extremes of building every quotient w_i / v_i as a Fraction; small
    # ranges force ties
    w, v = zip(*pairs)
    quotients = [Fraction(x, y) for x, y in pairs]
    lo_w, lo_v, hi_w, hi_v = _quotient_extremes(w, v)
    assert (lo_w, lo_v) in pairs and (hi_w, hi_v) in pairs
    assert Fraction(lo_w, lo_v) == min(quotients)
    assert Fraction(hi_w, hi_v) == max(quotients)


# ------------------------------------------------- frontier pass and budget

def _times(vec, matrix):
    return tuple(sum(x * row[k] for x, row in zip(vec, matrix))
                 for k in range(len(matrix[0])))


def _brute_norm_pass(steps, starts, depth, subsets):
    """``_norm_pass`` by walking every path, and the number of walk prefixes
    (every walk of 1 to ``depth`` steps) that the walk takes."""
    paths, lo, hi, sub = 0, None, None, [None] * len(subsets)
    prefixes = 0
    for s, init in starts:
        layer = [(s, init)]
        for _ in range(depth):
            layer = [(w, tuple(_times(vec, matrix) for vec in vecs))
                     for v, vecs in layer for w, matrix in steps[v]]
            prefixes += len(layer)
        for _, (full, *restricted) in layer:
            paths += 1
            hi = max(full) if hi is None else max(hi, max(full))
            lo = min(full) if lo is None else min(lo, min(full))
            for i, (idx, vec) in enumerate(zip(subsets, restricted)):
                val = min(vec[k - 1] for k in idx)
                sub[i] = val if sub[i] is None else min(sub[i], val)
    return (paths, lo, hi, sub), prefixes


@st.composite
def _step_graphs(draw):
    """Small multigraphs with rectangular nonnegative integer matrices: zero
    rows and columns, parallel edges and tied vectors all come up."""
    n = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))

    def matrix(rows, cols):
        entries = st.lists(st.integers(0, 2), min_size=cols, max_size=cols)
        return tuple(tuple(r) for r in draw(
            st.lists(entries, min_size=rows, max_size=rows)))

    steps = {v: [] for v in range(n)}
    for _ in range(draw(st.integers(0, 7))):
        v, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m = matrix(dims[v], dims[w])
        steps[v].append((w, m))
        if draw(st.booleans()):
            steps[v].append((w, m if draw(st.booleans())
                             else matrix(dims[v], dims[w])))
    width = min(dims)
    subsets = draw(st.lists(
        st.lists(st.integers(1, width), min_size=1, max_size=width,
                 unique=True).map(lambda c: tuple(sorted(c))),
        max_size=3))
    starts = [(v, (tuple([1] * dims[v]),) + tuple(
        tuple(1 if j + 1 in idx else 0 for j in range(dims[v]))
        for idx in subsets)) for v in range(n)]
    return steps, starts, subsets, draw(st.integers(1, 4))


def _into_families(steps, starts, subsets):
    """The adjacency ``steps`` reversed into ``into`` with each distinct
    matrix object compiled once, as a built graph's edges share one compiled
    form per distinct matrix, and one ``(upper, value, starts)`` family per
    indicator of ``starts`` (max and min of the full one, then a restricted
    min per subset)."""
    compiled = {}
    into = {v: [] for v in steps}
    for v, outs in steps.items():
        for w, matrix in outs:
            if id(matrix) not in compiled:
                compiled[id(matrix)] = compile_matrix(matrix)
            into[w].append((v, compiled[id(matrix)]))

    def family(i):
        init = {}
        for s, vecs in starts:
            init.setdefault(s, []).append(vecs[i])
        return init

    families = [(True, max, family(0)), (False, min, family(0))] + [
        (False, lambda vec, idx=idx: min(vec[k - 1] for k in idx),
         family(1 + i)) for i, idx in enumerate(subsets)]
    return into, families


def _pass(steps, starts, depth, subsets, cap=10 ** 9):
    """``_norm_pass`` and ``_walk_count`` on ``steps`` and ``starts``: in
    the shape ``_brute_norm_pass`` returns, at the depth reached, then that
    depth and the units charged."""
    into, families = _into_families(steps, starts, subsets)
    (hi, lo, *sub), reached, charged = _norm_pass(into, families, depth, cap)
    return (_walk_count(into, reached), lo, hi, sub), reached, charged


def _check_families_as_alone(steps, starts, subsets, depth):
    """One ``_norm_pass`` over every family gives each family the extreme
    a pass over it alone gives, and charges the largest of their charges. A
    cap one below that stops it at the depth d below ``depth`` whose layers
    fit, with what a pass to d charges and the extremes of walking every
    path of d steps."""
    into, families = _into_families(steps, starts, subsets)
    alone, charges = [], []
    for family in families:
        best, reached, charge = _norm_pass(into, [family], depth, 10 ** 9)
        assert reached == depth
        alone += best
        charges.append(charge)
    cap = max(charges)
    assert _norm_pass(into, families, depth, cap) == (alone, depth, cap)
    if cap:
        got, reached, charged = _pass(steps, starts, depth, subsets, cap - 1)
        assert reached < depth
        assert charged == _pass(steps, starts, reached, subsets)[2] < cap
        assert got == _brute_norm_pass(steps, starts, reached, subsets)[0]


@settings(max_examples=150, deadline=None)
@given(case=_step_graphs())
def test_norm_pass_matches_brute_force(case):
    steps, starts, subsets, depth = case
    ref, prefixes = _brute_norm_pass(steps, starts, depth, subsets)
    got, reached, charge = _pass(steps, starts, depth, subsets)
    assert (got, reached) == (ref, depth)
    assert charge <= prefixes
    assert _pass(steps, starts, depth, subsets, charge) == (ref, depth, charge)
    _check_families_as_alone(steps, starts, subsets, depth)


@pytest.fixture()
def vec_mat_calls(monkeypatch):
    """A list whose first entry counts the products ``dimcalc`` takes."""
    calls = [0]

    def counting(v, matrix):
        calls[0] += 1
        return vec_mat(v, matrix)

    monkeypatch.setattr(dimcalc, "vec_mat", counting)
    return calls


def test_norm_pass_window_family_shares_products(vec_mat_calls):
    # On the row side an edge's matrix enters transposed. A's nonzero
    # columns lie in the window (1, 2), so the window's indicator and the
    # all-ones vector have the same product by A^T: after a step through A
    # the window family and the ones families carry equal vectors, and
    # from then on take their products once between them.
    a = ((1, 2, 0), (0, 1, 0), (2, 0, 0))
    b = ((1, 0, 1), (0, 2, 0), (1, 0, 1))
    at, bt = (tuple(zip(*m)) for m in (a, b))
    # the row side: each edge reversed, its matrix transposed
    steps = {0: [(0, at), (0, bt), (1, at)], 1: [(0, bt), (1, at)]}
    starts = [(v, ((1, 1, 1), (1, 1, 0))) for v in steps]
    row_into, families = _into_families(steps, starts, [(1, 2)])
    assert vec_mat((1, 1, 0), compile_matrix(at)) == \
        vec_mat((1, 1, 1), compile_matrix(at))
    for depth in (1, 2, 5):
        _check_families_as_alone(steps, starts, [(1, 2)], depth)

    def products(fams):
        vec_mat_calls[0] = 0
        _norm_pass(row_into, fams, 3, 10 ** 9)
        return vec_mat_calls[0]

    # the min family and the window family start apart
    lo, window = families[1:]
    assert products([lo, window]) < products([lo]) + products([window])


def _cantor10_class():
    """The Cantor m = 10 essential class (one vertex, three loops) and its
    width-3 windows."""
    graph = catalog_graph("cantor_r3_m10_binomial")
    members = essential_class(graph).members
    return graph, members, _auto_subsets(min(len(graph.cv(v).neighbours)
                                             for v in members))


def test_norm_bounds_shares_products_across_families(vec_mat_calls):
    # the row side of the Cantor m = 10 essential class at depth 8 with its
    # width-3 windows, where no family prunes: 49,200 products when each
    # family takes its own, 19,728 when each edge multiplies each distinct
    # vector of a layer once; every family charges 9,840 units
    _, _, row_into, families = _sides(*_cantor10_class())

    def products(fams):
        vec_mat_calls[0] = 0
        charge = _norm_pass(row_into, fams, 8, 10 ** 9)[2]
        return vec_mat_calls[0], charge

    assert len(families) == 5
    assert [products([f]) for f in families] == [(9_840, 9_840)] * 5
    assert products(families) == (19_728, 9_840)


def test_norm_bounds_sweeps_no_row_family_on_cantor10(vec_mat_calls):
    # every row family's probe is beaten by the column side, so norm_bounds
    # takes the column pass's 447 products and charge, and one 8-step probe
    # per family (5 families, 3 edges a step): 447 + 120 = 567 products,
    # not the 20,175 of sweeping both sides
    graph, members, subsets = _cantor10_class()
    col_into, _, _, families = _sides(graph, members, subsets)
    charge = _norm_pass(col_into, families, 8, 10 ** 9)[2]
    assert (vec_mat_calls[0], charge) == (447, 153)
    vec_mat_calls[0] = 0
    nb = norm_bounds(graph, members, 8, subsets=subsets)
    assert vec_mat_calls[0] == 447 + 5 * 8 * 3 == 567
    assert nb.charged == 153


def test_norm_bounds_shares_products_across_equal_matrices(vec_mat_calls):
    # the 535-member essential class of the 538-vertex graph at depth 8:
    # its 1,141 internal edges carry 198 distinct matrices. 48,069 products
    # when each edge takes its own, 20,670 when each distinct matrix
    # multiplies each distinct vector of a layer once, and 19,569 when a
    # family whose frontier stops changing takes no more. Both row families
    # pass their probes and are swept, so the charge stays 34,530 and the
    # two 8-step probes add 44 products: 19,613
    graph = catalog_graph("bc_x4_minus_2x2_minus_x_plus_1")
    members = essential_class(graph).members
    internal = graph.internal_out(members)
    edges = [e for out in internal.values() for _, e in out]
    assert (len(edges), len({id(e.matrix) for e in edges})) == (1141, 198)
    nb = norm_bounds(graph, members, 8)
    assert vec_mat_calls[0] == 19_613
    assert nb.charged == 34_530


def test_norm_pass_frontier_by_hand():
    # one vertex with three self-loops: A and B scale one coordinate each,
    # C is the identity. After one step the max family keeps (2,1) and
    # (1,2), which dominate (1,1) from above; the min family keeps only
    # (1,1), which dominates both from below. After two steps the max family
    # keeps (4,1), (1,4) and (2,2): (2,1) and (1,2) are dominated, and the
    # (2,2) reached twice collapses. Max family 3 + 2*3 + 3*3 = 18 units, min
    # family 3 + 3 + 3 = 9; the pass charges the larger. Walking every path
    # takes 3 + 9 + 27 = 39 steps.
    a, b, c = ((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 1))
    steps = {0: [(0, a), (0, b), (0, c)]}
    starts = [(0, ((1, 1),))]
    assert _pass(steps, starts, 3, []) == ((27, 1, 8, []), 3, 18)
    assert _brute_norm_pass(steps, starts, 3, [])[1] == 39


def _rank_one(p):
    """The matrix whose every column is ``p``: u times it is (u . p) 1."""
    return tuple((x,) * len(p) for x in p)


def _hand_graph(edges, model=None):
    """A graph of the edges ``(parent, child, matrix)``, parallel ones
    allowed, with what ``norm_bounds`` and the brute-force references read
    of a built graph; a vertex has as many neighbours as its matrices'
    rows."""
    edges = [SimpleNamespace(parent=v, child=w, matrix=m,
                             sparse=compile_matrix(m)) for v, w, m in edges]
    sizes = {e.parent: len(e.matrix) for e in edges}
    return SimpleNamespace(
        model=model, edges=edges,
        cv=lambda v: SimpleNamespace(neighbours=(0,) * sizes[v]),
        out_edges=lambda v: [e for e in edges if e.parent == v],
        internal_out=lambda ms: {v: [(i, e) for i, e in enumerate(edges)
                                     if e.parent == v and e.child in ms]
                                 for v in ms})


def _unit_column_graph(model):
    """Two vertices of three neighbours each, and four edges whose matrices
    have unit column sums: 1 -> 1 and 2 -> 1 rank one, 1 -> 2 a cyclic
    shift and 2 -> 2 a mixing matrix."""
    h, q, t = Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)
    graph = _hand_graph([(1, 1, _rank_one((h, q, q))),
                         (1, 2, ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
                         (2, 1, _rank_one((q, q, h))),
                         (2, 2, ((h, 0, t), (h, h, t), (0, h, t)))], model)
    for e in graph.edges:
        assert all(sum(col) == 1 for col in zip(*e.matrix))
    return graph


def test_settled_families_match_brute_force(golden_model, with_functionals):
    # every column-sum family settles (max and min at once, the window
    # after two layers) while no row-sum family does
    graph = _unit_column_graph(golden_model)
    for depth in range(1, 7):
        nb, functionals = with_functionals(graph, (1, 2), depth, [(1, 2)])
        ref, count = _brute_norm_functionals(graph, (1, 2), depth, [(1, 2)])
        assert functionals == ref
        assert nb.path_count == count
    assert (ref["max_col"], ref["min_col"], ref["sub_col"]) == \
        (1, 1, {(1, 2): Fraction(1, 2)})


def test_settled_family_takes_no_more_products(golden_model, vec_mat_calls):
    # a family whose frontier a layer leaves unchanged takes no product
    # after that layer, and is still charged one unit per (vector, edge)
    graph = _unit_column_graph(golden_model)
    steps = {v: [(e.child, e.matrix) for e in graph.out_edges(v)]
             for v in (1, 2)}
    starts = [(v, ((1, 1, 1), (1, 1, 0))) for v in (1, 2)]
    into, (top, low, window) = _into_families(steps, starts, [(1, 2)])

    def run(family, depth):
        vec_mat_calls[0] = 0
        (best,), reached, charge = _norm_pass(into, [family], depth, 10 ** 9)
        assert reached == depth
        return vec_mat_calls[0], charge, best

    # the ones vector is fixed by every matrix, so max and min settle at the
    # first layer; the window's frontier changes twice, then settles
    for depth in range(1, 7):
        assert run(top, depth) == (4, 4 * depth, 1)
        assert run(low, depth) == (4, 4 * depth, 1)
    assert [run(window, depth) for depth in range(1, 7)] == [
        (4, 4, 0), (10, 10, Fraction(1, 2)), (14, 14, Fraction(1, 2)),
        (14, 18, Fraction(1, 2)), (14, 22, Fraction(1, 2)),
        (14, 26, Fraction(1, 2))]


@pytest.mark.parametrize("depth", range(1, 6))
def test_norm_pass_settles_no_frontier_that_changed(depth):
    # one vector at one vertex at every layer, but a new one each time:
    # only an unchanged frontier settles
    steps = {0: [(0, ((2, 0), (0, 1)))]}
    starts = [(0, ((1, 1),))]
    ref = _brute_norm_pass(steps, starts, depth, [])[0]
    assert _pass(steps, starts, depth, [])[:2] == (ref, depth)
    assert ref == (1, 1, 2 ** depth, [])


# --------------------------------------------------------- row-side gate

def test_norm_bounds_takes_a_row_max_one_unit_below_the_column_max(
        with_functionals):
    # one vertex, two loops, depth 2: the largest row sum, 5, is one below
    # the largest column sum, 6, and the greedy probe reaches it, so the
    # max row family must be swept and set max_norm
    graph = _hand_graph([(1, 1, ((1, 2), (0, 1))), (1, 1, ((1, 2), (1, 0)))])
    col_into, transposed, _, families = _sides(graph, (1,))
    assert dimcalc._probe(col_into, transposed, families[0], 1, 2) == 5
    nb, functionals = with_functionals(graph, (1,), 2)
    assert (functionals["max_col"], functionals["max_row"]) == (6, 5)
    assert nb.max_norm == 5


def test_norm_bounds_takes_a_row_window_one_unit_above_the_column_side(
        with_functionals):
    # one vertex, two loops, depth 2, window (1, 2): the row window reaches
    # 5, one above every column lower value (min 4, window 3), and the
    # greedy probe finds it, so the window's row family must be swept and
    # set min_norm; the row min (4) and the row max (30 against 25) cannot
    # move a bound
    graph = _hand_graph([(1, 1, ((2, 1, 1), (2, 2, 2), (1, 2, 2))),
                         (1, 1, ((1, 2, 1), (0, 2, 1), (1, 0, 0)))])
    col_into, transposed, _, families = _sides(graph, (1,), [(1, 2)])
    assert dimcalc._probe(col_into, transposed, families[2], 1, 2) == 5
    nb, functionals = with_functionals(graph, (1,), 2, [(1, 2)])
    assert functionals == {"max_col": 25, "min_col": 4, "sub_col": {(1, 2): 3},
                           "max_row": 30, "min_row": 4, "sub_row": {(1, 2): 5}}
    assert (nb.min_norm, nb.max_norm) == (5, 25)


def _row_values_from(graph, members, start, depth, subsets):
    """Each family's value (max row sum, min row sum, then each subset's
    restricted min of the transpose) of the product along every
    ``depth``-step walk that ends at ``start``: the row side's walks from
    ``start``, reversed."""
    values = [set() for _ in range(2 + len(subsets))]
    for path in _internal_paths(graph, members, depth):
        if path[-1].child == start:
            P = product_along(path)
            values[0].add(pseudo_norm(P, NormKind.MAX_ROW))
            values[1].add(pseudo_norm(P, NormKind.MIN_ROW))
            for vals, idx in zip(values[2:], subsets):
                vals.add(pseudo_norm(tuple(zip(*P)), NormKind.SUBSET_MIN,
                                     idx))
    return values


@pytest.mark.parametrize("depth", range(1, 7))
def test_probe_values_are_attained(golden_graph, cubic_pisot_graph,
                                   cantor5_graph, depth):
    # a probe's value is a real walk's, so it bounds its family's extreme
    for graph, subsets in ((golden_graph, []), (cubic_pisot_graph, [(1,)]),
                           (cantor5_graph, [(1,), (1, 2)])):
        members = essential_class(graph).members
        start = min(members)
        col_into, transposed, _, families = _sides(graph, members, subsets)
        values = _row_values_from(graph, members, start, depth, subsets)
        for family, vals in zip(families, values):
            assert dimcalc._probe(col_into, transposed, family, start,
                                  depth) in vals


@pytest.mark.parametrize("depth", range(2, 5))
def test_unfinished_probe_sweeps_every_row_family(monkeypatch,
                                                  with_functionals, depth):
    # the row side's walk from 1 steps to 2 (the edge 2 -> 1), and no edge
    # enters 2: every probe stops there, so every row family is swept
    graph = _hand_graph([(2, 1, ((1, 0), (1, 1))),
                         (1, 3, ((2, 1), (0, 1))),
                         (3, 3, ((1, 1), (0, 2)))])
    members, subsets = (1, 2, 3), [(1,), (2,)]
    col_into, transposed, _, families = _sides(graph, members, subsets)
    for family in families:
        assert dimcalc._probe(col_into, transposed, family, 1, depth) is None
    swept = []
    real = dimcalc._norm_pass

    def spy(into, families, *args):
        swept.append(len(families))
        return real(into, families, *args)

    monkeypatch.setattr(dimcalc, "_norm_pass", spy)
    nb, functionals = with_functionals(graph, members, depth, subsets)
    assert swept == [4, 4]  # norm_bounds' column pass, then its row pass
    ref, count = _brute_norm_functionals(graph, members, depth, subsets)
    assert functionals == ref
    assert nb.path_count == count


def _prune_in_full(candidates, upper):
    """``_prune`` without its one- and two-candidate shortcuts."""
    holds = operator.ge if upper else operator.le
    kept = []
    for u in sorted(dict.fromkeys(candidates), key=sum, reverse=upper):
        if not any(all(map(holds, w, u))
                   for w in kept[:dimcalc._DOMINANCE_WINDOW]):
            kept.append(u)
    return kept


_entries = st.one_of(st.integers(0, 3),
                     st.sampled_from([Fraction(1), Fraction(3, 2)]))


@settings(max_examples=400, deadline=None)
@given(width=st.integers(1, 3), upper=st.booleans(), data=st.data())
def test_prune_shortcuts_match_the_full_prune(width, upper, data):
    # small entries make duplicates, equal sums and dominance common; 1 and
    # Fraction(1) are equal keys of different types, and the first one seen
    # must be the one kept
    vectors = st.lists(_entries, min_size=width, max_size=width).map(tuple)
    candidates = data.draw(st.lists(vectors, min_size=1, max_size=4))
    got = dimcalc._prune(candidates, upper)
    want = _prune_in_full(candidates, upper)
    assert got == want
    assert [list(map(type, u)) for u in got] == \
        [list(map(type, u)) for u in want]


def _stops_short(graph, members, depth, subsets, cap):
    """Whether ``norm_bounds`` under ``cap`` stops short of ``depth``: no
    depth fits (None), the depth reached is below ``depth``, or the row side
    stopped short, its values were dropped and only ``charged`` differs
    from an unlimited budget's bounds."""
    nb = norm_bounds(graph, members, depth, subsets=subsets, path_budget=cap)
    return nb is None or nb.depth < depth or \
        nb != norm_bounds(graph, members, depth, subsets=subsets)


def _charge(graph, members, depth, subsets=()):
    """The smallest ``path_budget`` under which ``norm_bounds`` reaches
    ``depth`` on both sides."""
    hi = 1
    while _stops_short(graph, members, depth, subsets, hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _stops_short(graph, members, depth, subsets, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _walk_prefixes(graph, members, depth):
    """What walking every path charges: each walk of 1 to ``depth`` steps,
    once forward and once backward."""
    return 2 * sum(len(_internal_paths(graph, members, d))
                   for d in range(1, depth + 1))


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_norm_budget_charge_at_most_walk_prefixes(golden_graph,
                                                  cubic_pisot_graph, depth):
    for graph, subsets in ((golden_graph, ()), (cubic_pisot_graph, [(1,)])):
        members = essential_class(graph).members
        charge = _charge(graph, members, depth, subsets)
        assert charge <= _walk_prefixes(graph, members, depth)
        assert _stops_short(graph, members, depth, subsets, charge - 1)
        assert not _stops_short(graph, members, depth, subsets, charge)


@pytest.mark.parametrize("depth", [1, 4, 7])
def test_norm_budget_charge_on_simple_loop(plastic_graph, depth):
    # each side's pass charges every walk prefix, len(members) * depth
    # units; every row probe is beaten by the column side, so norm_bounds
    # charges the column side alone, half of walking every path both ways
    members = (22, 30)  # a simple loop through two vertices
    col_into, _, row_into, families = _sides(plastic_graph, members, [(1,)])
    for into in (col_into, row_into):
        assert _norm_pass(into, families, depth, 10 ** 9)[1:] == \
            (depth, len(members) * depth)
    charge = _charge(plastic_graph, members, depth, [(1,)])
    assert 2 * charge == _walk_prefixes(plastic_graph, members, depth)
    assert charge == len(members) * depth
    assert _stops_short(plastic_graph, members, depth, [(1,)], charge - 1)


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_norm_bounds_report_units_charged(golden_graph, cubic_pisot_graph,
                                          plastic_graph, depth):
    # charged is the smallest budget under which both sides reach the
    # depth, found here by bisection
    for graph, members, subsets in (
            (golden_graph, essential_class(golden_graph).members, ()),
            (cubic_pisot_graph, essential_class(cubic_pisot_graph).members,
             [(1,)]),
            (plastic_graph, (22, 30), [(1,)])):
        nb = norm_bounds(graph, members, depth, subsets=subsets)
        assert nb.charged == _charge(graph, members, depth, subsets)
        assert _stops_short(graph, members, depth, subsets, nb.charged - 1)
        assert norm_bounds(graph, members, depth, subsets=subsets,
                           path_budget=nb.charged) == nb


def test_norm_bounds_stop_at_the_depth_that_fits():
    # one vertex, two loops, depth 3. The column side charges 2, 6 and 10
    # units by the end of each layer; the row side charges 12 in all and
    # tightens both bounds (max 22 against 28, min 8 against 4)
    graph = _hand_graph([(1, 1, ((0, 2), (1, 2))), (1, 1, ((2, 1), (0, 2)))])
    col_into, _, row_into, families = _sides(graph, (1,))
    assert _norm_pass(col_into, families, 3, 10 ** 9) == ([28, 4], 3, 10)
    assert _norm_pass(row_into, families, 3, 10 ** 9) == ([22, 8], 3, 12)
    assert norm_bounds(graph, (1,), 3) == NormBounds(3, 8, 22, 8, 22)
    # from 10 to 21 units the column side reaches depth 3 and the row side
    # stops short: its values, of a shallower depth, are dropped, and the
    # column side's bounds stand at depth 3
    for cap in range(10, 22):
        _, row_depth, row_charge = _norm_pass(row_into, families, 3,
                                              cap - 10)
        assert row_depth < 3
        assert norm_bounds(graph, (1,), 3, path_budget=cap) == \
            NormBounds(3, 4, 28, 8, 10 + row_charge)
    # below 10 the column side stops at the depth that fits, and below 2
    # not even one step fits
    for cap, depth in ((9, 2), (6, 2), (5, 1), (2, 1)):
        nb = norm_bounds(graph, (1,), 3, path_budget=cap)
        assert nb == norm_bounds(graph, (1,), depth, path_budget=cap)
        assert nb.depth == depth
    assert norm_bounds(graph, (1,), 3, path_budget=1) is None


# ---------------------------------------------------------------- reports

def test_golden_report(golden_model, golden_graph):
    rep = assemble_report(golden_model, golden_graph, cycle_len=4, bound_len=10)
    assert rep.cv_count == 6
    assert rep.essential_size == 3
    assert abs(rep.dim_zero - 1.440420090) < 1e-8
    ess = rep.essential
    assert ess.loop_class.positive
    assert ess.dim_inner[0] <= 0.940420091 and ess.dim_inner[1] >= 1.440420089
    assert ess.dim_outer[0] >= 0.864252053 - 1e-8
    assert ess.dim_outer[1] <= 1.440420091
    # endpoint dimension touches the essential interval: nothing isolated
    assert rep.isolated_values() == []
    assert len(rep.global_outer) == 1


def test_sixmap_report_two_points(cantor5_uniform_model, sixmap_graph):
    rep = assemble_report(cantor5_uniform_model, sixmap_graph,
                          cycle_len=5, bound_len=5)
    ess = rep.essential
    assert ess.members == (4, 5)
    assert abs(ess.dim_inner[0] - 1.0) < 1e-9
    assert abs(ess.dim_inner[1] - 1.0) < 1e-9
    vals = rep.isolated_values()
    assert len(vals) == 1
    assert abs(vals[0] - 1.630929753) < 1e-8
    assert abs(rep.dim_zero - 1.630929753) < 1e-8


def test_points_within_point_tol_are_one_point(golden_model, golden_graph,
                                               monkeypatch):
    # two simple-loop points 2e-13 apart, whose 12-digit roundings differ,
    # are one point, reported at the first class's value
    points = {(1,): 0.1234567890124, (2,): 0.1234567890126}

    def point_class(graph, lc, *args):
        return ClassDimSet(
            loop_class=lc, min_cycle=None, max_cycle=None, outer=None,
            point=None, dim_inner=None, dim_outer=None,
            exact_point=points[lc.members], cycle_len=1)

    monkeypatch.setattr(dimcalc, "analyze_class", point_class)
    rep = assemble_report(golden_model, golden_graph, classes=[
        SimpleNamespace(members=m) for m in points])
    assert rep.isolated == (
        IsolatedPoint(0.1234567890124, ISOLATED, ((1,), (2,))),)


def test_inner_within_outer(golden_model, golden_graph, cantor5_binomial_model,
                            cantor5_graph):
    for model, graph in ((golden_model, golden_graph),
                         (cantor5_binomial_model, cantor5_graph)):
        rep = assemble_report(model, graph, cycle_len=4, bound_len=4)
        for cs in rep.classes:
            if cs.dim_inner and cs.dim_outer:
                assert cs.dim_inner[0] >= cs.dim_outer[0] - 1e-9
                assert cs.dim_inner[1] <= cs.dim_outer[1] + 1e-9
            assert (cs.dim_outer is None
                    or cs.dim_outer[1] <= rep.dim_zero + 1e-9)


@pytest.fixture(scope="module")
def catalog_reports(cli_reports):
    """The default report of every catalog document outside SLOW_EXAMPLES,
    with its graph, by name: those ``finitype analyze`` made and was given."""
    return {name: (r.report, r.graph)
            for name in example_names() if name not in SLOW_EXAMPLES
            for r in [cli_reports(name)]}


def test_inner_extremes_and_points_lie_in_the_outer_bounds_exactly(
        catalog_reports):
    # per step, each extreme walk's and each simple loop's enclosure
    # [sp_lo, sp_hi] ** (1 / L) meets the outer range
    # [min_norm, max_norm] ** (1 / d): compared as exact powers, no tolerance
    pairs = 0
    for name, (report, _) in catalog_reports.items():
        for cs in report.classes:
            nb, d = cs.outer, cs.outer.depth
            for lo, hi in ((cs.min_cycle, cs.max_cycle), (cs.point, cs.point)):
                if lo is None:
                    continue
                assert lo.sp_hi ** d >= nb.min_norm ** lo.L, (name, cs.members)
                assert hi.sp_lo ** d <= nb.max_norm ** hi.L, (name, cs.members)
                pairs += 1
    assert pairs == 67 + 46  # every class's extremes, every loop's point


def test_reported_extremes_rebuild_from_their_edge_paths(catalog_reports):
    for name, (report, _) in catalog_reports.items():
        for cs in report.classes:
            if cs.min_cycle is None:
                continue
            lo = periodic_dimension(cs.min_cycle.edges)
            hi = periodic_dimension(cs.max_cycle.edges)
            assert (lo, hi) == (cs.min_cycle, cs.max_cycle), name
            assert (dimcalc._dims(report.model, hi.sp_lo, hi.sp_hi, hi.L)[0],
                    dimcalc._dims(report.model, lo.sp_lo, lo.sp_hi, lo.L)[1]
                    ) == cs.dim_inner, name
    # cantor_r3_m4_binomial's maximum runs through the vertices (3, 3, 3, 3),
    # as do all 27 walks over vertex 3's three self-loops, whose dimensions
    # run from its reported lower end 0.8928 to 1.0587: only its edge path
    # names the walk of that end
    report, graph = catalog_reports["cantor_r3_m4_binomial"]
    top = report.essential.max_cycle
    assert top.vertices == (3, 3, 3, 3)
    loops = [e for e in graph.out_edges(3) if e.child == 3]
    lows = {cycle_dims(report.model, periodic_dimension(walk))[0]
            for walk in itertools.product(loops, repeat=3)}
    assert len(loops) == 3
    assert min(lows) == report.essential.dim_inner[0] < 0.893
    assert max(lows) > 1.058
