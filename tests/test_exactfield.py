"""Exact field arithmetic: construction, ordering, rendering, algebra laws."""

import ast
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bernoulli_ifs, catalog_model
from finitype.errors import (
    MultipleRootsInInterval,
    NoRootInInterval,
    NotIrreducible,
    NotSquareFree,
    RootNotInUnitInterval,
)
from finitype import exactfield, netgraph
from finitype.exactfield import (
    EQ, GT, LT,
    NumberField, _poly_deriv, _poly_divmod, _poly_trim, _sturm_chain,
    compare, compile_matrix, count_roots, mat_mul, to_decimal, vec_mat,
)
from finitype.ifsmodel import validate


def golden_field():
    return NumberField([-1, 1, 1], (Fraction(1, 2), Fraction(7, 10)))


def third_field():
    return NumberField([-1, 3], (Fraction(1, 4), Fraction(1, 2)))


# ---------------------------------------------------------------- construction

def test_make_field_golden():
    f = golden_field()
    assert f.degree == 2
    lo, hi = f.enclosure()
    assert lo < hi
    # rho = (sqrt(5)-1)/2
    assert abs(float(f.rho()) - 0.6180339887) < 1e-9


def test_make_field_rational_root():
    f = third_field()
    assert f.degree == 1
    assert f.rho().as_fraction() == Fraction(1, 3)


def test_make_field_no_root():
    with pytest.raises(NoRootInInterval):
        NumberField([-1, 2], (Fraction(3, 4), Fraction(1)))


def test_make_field_multiple_roots():
    # x^2 - x + 2/9 has roots 1/3 and 2/3; scale to integers: 9x^2-9x+2
    with pytest.raises(MultipleRootsInInterval):
        NumberField([2, -9, 9], (Fraction(1, 10), Fraction(9, 10)))


def test_make_field_not_square_free():
    with pytest.raises(NotSquareFree):
        NumberField([1, -6, 9], (Fraction(1, 4), Fraction(1, 2)))  # (3x-1)^2
    with pytest.raises(NotSquareFree):  # (x^2+x-1)^2: a quadratic gcd
        NumberField([1, -2, -1, 2, 1], (Fraction(1, 2), Fraction(7, 10)))


def test_reducible_minpoly_sign_raises():
    # (3x - 1)(x + 1) isolating rho = 1/3: rho - 1/3 is a nonzero vector
    # that vanishes at rho, so no enclosure can decide its sign
    f = NumberField([-1, 2, 3], (Fraction(1, 4), Fraction(1, 2)))
    ghost = f.rho() - Fraction(1, 3)
    with pytest.raises(NotIrreducible):
        ghost.sign()
    with pytest.raises(NotIrreducible):
        ghost.inverse()
    # a value that is nonzero at rho still gets its exact sign
    assert (f.rho() - Fraction(1, 4)).sign() == GT
    assert (f.rho() - Fraction(1, 3) + Fraction(1, 10 ** 30)).sign() == GT


def test_bisection_onto_a_rational_root_raises():
    # (2x - 1)(x^2 + x - 1) isolating rho = 1/2: the field's first bisection
    # of (9/20, 11/20) lands on 1/2 itself, a rational root of a cubic
    with pytest.raises(NotIrreducible, match="root 1/2"):
        NumberField([1, -3, 1, 2], (Fraction(9, 20), Fraction(11, 20)))
    # a degree-1 field keeps its exact root
    f = NumberField([-1, 2], (Fraction(9, 20), Fraction(11, 20)))
    assert f.enclosure() == (Fraction(1, 2),) * 2
    assert f.rho() == Fraction(1, 2)
    # (3x - 1)(x^2 + x - 1): bisection never meets 1/3, and the gcd test of
    # an undecided sign finds it
    f = NumberField([1, -4, 2, 3], (Fraction(3, 10), Fraction(7, 20)))
    with pytest.raises(NotIrreducible):
        (f.rho() - Fraction(1, 3)).sign()


def test_make_field_interval_outside_unit():
    with pytest.raises(RootNotInUnitInterval):
        NumberField([-3, 2], (Fraction(5, 4), Fraction(2)))


def test_make_field_endpoint_root_rejected():
    with pytest.raises(MultipleRootsInInterval):
        NumberField([-1, 2], (Fraction(1, 2), Fraction(3, 4)))


# --------------------------------------------------------------- Sturm chains

def _fraction_sturm_chain(poly):
    """The Sturm chain on Fraction remainders, each member scaled to coprime
    integers: the reference for the integer pseudo-remainder chain."""
    chain, r = [], _poly_trim(poly)
    while r:
        d = math.lcm(*(Fraction(x).denominator for x in r))
        ints = [int(x * d) for x in r]
        g = math.gcd(*ints)
        chain.append([x // g for x in ints])
        r = (_poly_deriv(chain[0]) if len(chain) == 1
             else [-x for x in _poly_divmod(chain[-2], chain[-1])[1]])
    return chain


_coefficients = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 4))


@settings(max_examples=200, deadline=None)
@given(poly=st.lists(_coefficients, min_size=2, max_size=9).filter(
           lambda c: c[-1] != 0),
       roots=st.lists(st.integers(-5, 5), max_size=3),
       points=st.lists(st.fractions(min_value=-60, max_value=60,
                                    max_denominator=50),
                       min_size=2, max_size=6))
def test_sturm_chain_matches_the_fraction_chain(poly, roots, points):
    # repeated roots come up through the (x - r) factors, so some chains
    # end in a nonconstant gcd
    for r in roots:
        poly = [0] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    chain, ref = _sturm_chain(poly), _fraction_sturm_chain(poly)
    assert all(type(x) is int for member in chain for x in member)
    assert chain == ref
    points.sort()
    for lo, hi in zip(points, points[1:]):
        assert count_roots(chain, lo, hi) == count_roots(ref, lo, hi)


def test_sturm_chain_of_an_integer_polynomial_is_all_int():
    # (x - 1)^2 (x + 2) (2x - 3): a repeated root, so the chain ends in a
    # constant multiple of x - 1; its roots -2, 1 and 3/2 count in order
    chain = _sturm_chain([-6, 13, -6, -3, 2, 0])
    assert all(type(x) is int for member in chain for x in member)
    assert chain[-1] == [-1, 1]
    assert count_roots(chain, Fraction(-3), Fraction(0)) == 1
    assert count_roots(chain, Fraction(0), Fraction(5, 4)) == 1
    assert count_roots(chain, Fraction(-3), Fraction(2)) == 3


# ------------------------------------------------------------------- ordering

def test_compare_minimal_polynomial_identity():
    f = golden_field()
    r = f.rho()
    assert compare(r * r, f.one - r) == EQ


def test_compare_decimal_derived():
    # 2*rho - 1 ~ .236 < 1 - rho ~ .382 for golden rho
    f = golden_field()
    r = f.rho()
    assert compare(2 * r - 1, 1 - r) == LT
    assert compare(1 - r, 2 * r - 1) == GT


def test_compare_reflexive():
    f = golden_field()
    x = f.element([Fraction(3, 7), Fraction(-2, 5)])
    assert compare(x, x) == EQ


# ---------------------------------------------- ordering on a closure's table

def _golden_table():
    """The value table of a golden-ratio closure, and its field."""
    model = validate(bernoulli_ifs([-1, 1, 1], (Fraction(1, 2), Fraction(7, 10))))
    return netgraph.ValueTable(model), model.field


def _sorted_by_table(table, elements):
    """``netgraph.sort_unique`` on the ids of ``elements``, as elements."""
    ids = table.ids
    return [table.values[i] for i in netgraph.sort_unique(
        [ids[e.coeffs] for e in elements], table)]


def test_sort_unique_dedupes_exactly():
    table, f = _golden_table()
    r = f.rho()
    out = _sorted_by_table(table, [r * r, 1 - r, f.zero, r])  # r*r == 1-r
    assert out == [f.zero, r * r, r]
    assert table.order == [table.ids[x.coeffs] for x in out]


def _float_defeating_pair(kind):
    """Two elements, larger first, whose floats cannot order them."""
    f = golden_field()
    r = f.rho()
    if kind == "tie":      # differ far below a double's resolution
        return [r + Fraction(1, 2 ** 70), r]
    big = 17 * 10 ** 307
    if kind == "inf":      # both Horner values overflow to +inf
        return [f.element([big + 1, big]), f.element([big, big])]
    return [f.element([10 ** 400, 1]), f.element([10 ** 400])]  # no float


_SORT_MODELS = {
    "golden": validate(bernoulli_ifs([-1, 1, 1],
                                     (Fraction(1, 2), Fraction(7, 10)))),
    "cubic": validate(bernoulli_ifs([-1, 0, 1, 1],
                                    (Fraction(7, 10), Fraction(4, 5)))),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_SORT_MODELS)))
def test_sort_unique_matches_exact_sort(data, name):
    model = _SORT_MODELS[name]
    f = model.field
    coeffs = st.lists(st.integers(-6, 6), min_size=f.degree,
                      max_size=f.degree)
    elems = [f.element(c) for c in data.draw(st.lists(coeffs, max_size=12))]
    # a twin just above each value, listed first, ties it in floats; the
    # second sort places the twins among the values the first one placed
    twins = [e + Fraction(1, 2 ** 70) for e in elems]
    table = netgraph.ValueTable(model)
    for values in (elems, twins + elems):
        assert _sorted_by_table(table, values) == \
            sorted(set(values), key=cmp_to_key(compare))


def test_sort_unique_orders_a_tiny_value_with_huge_coefficients():
    # rho^3001 = -F_3000 + F_3001 rho for golden rho: 627-digit coefficients
    # with no float, and a value near 10^-627 whose enclosure overlaps 0's
    # until the field refines rho far enough
    table, f = _golden_table()
    a, b = 0, 1
    for _ in range(3000):
        a, b = b, a + b
    tiny = (-a, b)
    power = f.one
    for _ in range(3001):
        power = power * f.rho()
    assert power.coeffs == tiny
    ids = [table.ids[tiny], table.zero]
    assert netgraph.sort_unique(ids, table) == ids[::-1]


# ------------------------------------------------------------------ rendering

def test_to_decimal_golden_rho():
    f = golden_field()
    assert to_decimal(f.rho(), 6) == "0.618034"


def test_to_decimal_rational():
    f = third_field()
    assert to_decimal(f.rational(Fraction(2, 3)), 6) == "0.666667"


def test_to_decimal_plastic_like_root():
    f = NumberField([-1, 0, 1, 1], (Fraction(7, 10), Fraction(4, 5)))
    assert to_decimal(f.rho(), 6) == "0.754878"


def test_to_decimal_negative_and_ties():
    f = third_field()
    assert to_decimal(f.rational(Fraction(-1, 8)), 2) == "-0.13"  # half away from zero
    assert to_decimal(f.rational(Fraction(1, 8)), 2) == "0.13"
    assert to_decimal(f.rational(0), 3) == "0.000"
    assert to_decimal(f.rational(Fraction(5, 4)), 1) == "1.3"


def test_to_decimal_consistent_with_compare():
    f = golden_field()
    a = f.rho() * Fraction(7, 9) - Fraction(1, 3)
    b = f.rho() * f.rho() * Fraction(5, 4)
    for digits in (3, 8, 14):
        da, db = Fraction(to_decimal(a, digits)), Fraction(to_decimal(b, digits))
        if da < db:
            assert compare(a, b) == LT
        elif da > db:
            assert compare(a, b) == GT


# ----------------------------------------------------------------- arithmetic

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12)


def elems(field):
    return st.builds(
        lambda cs: field.element(cs),
        st.lists(small_rationals, min_size=field.degree, max_size=field.degree))


def _check_ring_axioms(f, data):
    a = data.draw(elems(f))
    b = data.draw(elems(f))
    c = data.draw(elems(f))
    assert compare((a + b) + c, a + (b + c)) == EQ
    assert compare(a * (b + c), a * b + a * c) == EQ
    assert compare(a * b, b * a) == EQ
    assert compare((a * b) * c, a * (b * c)) == EQ
    if not b.is_zero():
        assert compare((a / b) * b, a) == EQ


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms_golden(data):
    f = golden_field.cached if hasattr(golden_field, "cached") else golden_field()
    golden_field.cached = f
    _check_ring_axioms(f, data)


@lru_cache(maxsize=None)
def _catalog_field(name):
    return catalog_model(name).field


# fields of degree 3 and 4, where an inverse takes several remainder steps
@pytest.mark.parametrize("name,degree", [
    ("bc_x3_minus_x2_plus_2x_minus_1", 3),
    ("bc_x4_plus_x3_plus_x2_plus_x_minus_1", 4)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms_catalog_fields(name, degree, data):
    f = _catalog_field(name)
    assert f.degree == degree
    _check_ring_axioms(f, data)


@lru_cache(maxsize=None)
def _product_field(name):
    if name == "golden":
        return golden_field()
    if name == "half_sqrt2":     # 2x^2 - 1 is not monic; rho = 1/sqrt(2)
        return NumberField([-1, 0, 2], (Fraction(7, 10), Fraction(3, 4)))
    return _catalog_field(name)


# The ring axioms hold modulo any polynomial, so only evaluation at rho shows
# a product reduced modulo the wrong one.
@pytest.mark.parametrize("name", [
    "golden", "half_sqrt2", "bc_x3_minus_x2_plus_2x_minus_1",
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_match_evaluation_at_rho(name, data):
    f = _product_field(name)
    a, b = data.draw(elems(f)), data.draw(elems(f))
    assert float(a * b) == pytest.approx(float(a) * float(b), rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(x=small_rationals, y=small_rationals)
def test_degree_one_matches_fractions(x, y):
    f = third_field.cached if hasattr(third_field, "cached") else third_field()
    third_field.cached = f
    a, b = f.rational(x), f.rational(y)
    assert (a + b).as_fraction() == x + y
    assert (a * b).as_fraction() == x * y
    assert (a - b).as_fraction() == x - y
    cmp = compare(a, b)
    assert cmp == (0 if x == y else (1 if x > y else -1))


_HASH_FIELDS = (golden_field(), third_field())


@settings(max_examples=100, deadline=None)
@given(q=st.one_of(st.integers(-10 ** 30, 10 ** 30), st.integers().map(Fraction),
                   st.fractions()))
def test_rational_elements_hash_as_their_fraction(q):
    for f in _HASH_FIELDS:
        a = f.rational(q)
        assert a == q and q == a
        assert hash(a) == hash(q) == hash(Fraction(q))
        assert len({a, q}) == 1
    golden = _HASH_FIELDS[0]
    assert golden.rational(q) + golden.rho() != q


def test_inverse_of_rho():
    f = golden_field()
    r = f.rho()
    assert compare(r * f.inv_rho(), f.one) == EQ
    # golden: 1/rho = 1 + rho
    assert f.inv_rho() == f.one + r


def test_mixed_field_arithmetic_rejected():
    f1, f2 = golden_field(), third_field()
    with pytest.raises(ValueError):
        f1.rho() + f2.rho()


def test_canonical_zero_iff_all_zero_coeffs():
    f = golden_field()
    r = f.rho()
    z = r * r + r - 1  # minimal polynomial evaluated at rho
    assert z.is_zero()
    assert z.coeffs == (0, 0)


# ------------------------------------------------------- the product kernel

def _dense_times(v, M):
    """Row vector ``v`` times the dense matrix ``M``, from the definition:
    the nonzero terms added row by row, left to right."""
    acc = [0] * len(M[0])
    for x, row in zip(v, M):
        for k, a in enumerate(row):
            if x and a:
                acc[k] += x * a
    return acc


# zero-heavy, with Fraction entries like those of golden_square_skewed
_ENTRIES = st.sampled_from([0, 0, 0, 1, 1, 2, 5,
                            Fraction(3, 2), Fraction(2, 7)])
_COORDS = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 70),
                    st.sampled_from([Fraction(0), Fraction(1, 3),
                                     Fraction(7, 2)]))


def _matrices(rows, cols):
    row = st.lists(_ENTRIES, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@st.composite
def _products(draw):
    """Vectors of lengths J and K, and two chained rectangular matrices
    (J x K, K x L)."""
    J, K, L = (draw(st.integers(1, 5)) for _ in range(3))
    v = draw(st.lists(_COORDS, min_size=J, max_size=J))
    u = draw(st.lists(_COORDS, min_size=K, max_size=K))
    return v, u, draw(_matrices(J, K)), draw(_matrices(K, L))


def _typed(values):
    return [(type(x), x) for x in values]


@settings(max_examples=300, deadline=None)
@given(case=_products())
def test_compiled_kernel_matches_dense_reference(case):
    v, u, A, B = case
    SA = compile_matrix(A)
    assert SA.ncols == len(A[0]) and len(SA.rows) == len(A)
    # same values and the same int/Fraction types as the dense product
    assert _typed(vec_mat(v, SA)) == _typed(_dense_times(v, A))
    AT = tuple(zip(*A))
    assert SA.transposed() == compile_matrix(AT)
    assert _typed(vec_mat(u, SA.transposed())) == _typed(_dense_times(u, AT))
    AB = mat_mul(A, compile_matrix(B))
    assert type(AB) is tuple and all(type(row) is tuple for row in AB)
    assert [_typed(row) for row in AB] == \
        [_typed(_dense_times(row, B)) for row in A]


# ------------------------------------------------------------------ layering

def test_exactfield_imports_only_errors_from_the_package():
    # the algebra layer sits below graphs and dimensions
    tree = ast.parse(Path(exactfield.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["finitype" * bool(node.level),
                                          node.module]))
            names = ([f"{base}.{a.name}" for a in node.names]
                     if base == "finitype" else [base])
        else:
            continue
        modules |= {n for n in names if n.split(".")[0] == "finitype"}
    assert modules == {"finitype.errors"}
