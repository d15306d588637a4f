"""Independent brute-force check of the graph pipeline on small instances.

The brute-force side, ``brute_level``, is computed straight from the
definitions by enumerating all words of a given length in exact field
arithmetic: level endpoints, net intervals, neighbour sets, and the
normalized weight vectors. None of it touches the graph code, so exact
agreement between the two is meaningful. Points and neighbour offsets are
ordered by a comparison sort on exact sign tests (``compare``), not by the
graph closure's value table and its ``sort_unique``. The graph side,
``expand_graph``, multiplies by each edge's compiled matrix with
``exactfield.vec_mat``, the product kernel the graph closure and the
dimension code use too (see ``exactfield``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import BudgetExceeded, Mismatch
from .exactfield import FieldElement, compare, vec_mat
from .ifsmodel import Model
from .netgraph import TransitionGraph


@dataclass(frozen=True)
class NetIntervalData:
    left: FieldElement
    right: FieldElement
    norm_length: FieldElement           # (right - left) / rho^n
    neighbours: tuple[FieldElement, ...]
    weights: tuple[Fraction, ...]       # normalized: p_0^-n sum of word weights


@dataclass(frozen=True)
class LevelSnapshot:
    n: int
    points: tuple[FieldElement, ...]
    intervals: tuple[NetIntervalData, ...]


def brute_level(model: Model, n: int, budget: int = 10 ** 6) -> LevelSnapshot:
    """Level-n net intervals and weight vectors from all (m+1)^n words."""
    mplus1 = len(model.translations)
    if mplus1 ** n > budget:
        raise BudgetExceeded(
            f"{mplus1}^{n} words exceed the enumeration budget {budget}")
    f = model.field
    rho = model.rho()
    d = model.translations
    p = model.probabilities

    rho_pows = [f.one]
    for _ in range(max(n - 1, 0)):
        rho_pows.append(rho_pows[-1] * rho)
    rho_n = rho_pows[-1] * rho if n >= 1 else f.one

    # S_sigma(0) = sum rho^(i-1) d_sigma_i -> summed weight of its words
    starts: dict = {}
    for word in itertools.product(range(mplus1), repeat=n):
        x = f.zero
        w = Fraction(1)
        for i, letter in enumerate(word):
            x = x + rho_pows[i] * d[letter]
            w *= p[letter]
        starts[x] = starts.get(x, 0) + w

    order = cmp_to_key(compare)
    points = sorted({*starts, *(x + rho_n for x in starts)}, key=order)

    inv_rho_n = rho_n.inverse()
    p0n = p[0] ** n
    intervals = []
    for a, b in zip(points, points[1:]):
        norm_len = (b - a) * inv_rho_n
        cover = {}      # offset -> weight; distinct starts, distinct offsets
        for x, w in starts.items():
            if (a - x).sign() < 0:          # need S(0) <= a
                continue
            if (x + rho_n - b).sign() < 0:  # need b <= S(0) + rho^n
                continue
            cover[(a - x) * inv_rho_n] = w
        if not cover:
            raise Mismatch(path=(n, str(a)), expected="covered interval",
                           actual="no covering word")
        neigh = tuple(sorted(cover, key=order))
        intervals.append(NetIntervalData(
            left=a, right=b, norm_length=norm_len, neighbours=neigh,
            weights=tuple(cover[v] / p0n for v in neigh)))
    return LevelSnapshot(n=n, points=tuple(points), intervals=tuple(intervals))


def expand_graph(model: Model, graph: TransitionGraph, n: int):
    """All level-n net intervals predicted by the graph, one per walk instance.

    Yields (vertex id, absolute left endpoint, weight vector) triples by
    expanding every edge multiplicity with its own geometric offset and
    multiplying the matrices along the way.
    """
    f = model.field
    rho = model.rho()
    level = [(graph.root, f.zero, (Fraction(1),))]
    scale = f.one
    for _ in range(n):
        nxt = []
        for vid, left, q in level:
            for e in graph.out_edges(vid):
                nq = vec_mat(q, e.sparse)
                for off in e.offsets:
                    nxt.append((e.child, left + scale * off, nq))
        level = nxt
        scale = scale * rho
    return level


def check_graph_against_oracle(model: Model, graph: TransitionGraph, n: int,
                               budget: int = 10 ** 6) -> int:
    """Exact-equality check of graph expansion against brute enumeration.

    Returns the number of level-n net intervals compared; raises Mismatch on
    the first disagreement in geometry, vector data, or weights.
    """
    snap = brute_level(model, n, budget=budget)
    expanded = expand_graph(model, graph, n)
    if len(expanded) != len(snap.intervals):
        raise Mismatch(path=("level", n),
                       expected=f"{len(snap.intervals)} net intervals",
                       actual=f"{len(expanded)} expanded walks")
    by_left = {iv.left.coeffs: iv for iv in snap.intervals}
    for vid, left, q in expanded:
        iv = by_left.get(left.coeffs)
        if iv is None:
            raise Mismatch(path=("vertex", vid),
                           expected="net interval at brute left endpoint",
                           actual=f"unmatched endpoint {left}")
        cv = graph.cv(vid)
        if cv.length.coeffs != iv.norm_length.coeffs:
            raise Mismatch(path=("vertex", vid, "length"),
                           expected=iv.norm_length, actual=cv.length)
        if tuple(x.coeffs for x in cv.neighbours) != \
                tuple(x.coeffs for x in iv.neighbours):
            raise Mismatch(path=("vertex", vid, "neighbours"),
                           expected=iv.neighbours, actual=cv.neighbours)
        if tuple(Fraction(x) for x in q) != iv.weights:
            raise Mismatch(path=("vertex", vid, "weights"),
                           expected=iv.weights, actual=q)
    return len(expanded)
