"""Reduced transition graph: characteristic vectors and primitive matrices.

Working one vertex at a time in parent-normalized coordinates (origin at the
parent interval's left endpoint, one unit per current-level contraction), the
subdivision points contributed by the covering maps split the parent into its
children; each child gets a normalized length, a sorted neighbour set, and a
rational matrix whose nonzero entries are weights divided by the smallest
weight. Closure from the unit root interval yields the finite vertex set for
a finite-type system; ids are assigned in breadth-first discovery order, so
rebuilds are bit-identical.

A vertex's cover tests go by ranks in one exact sort of 0, its length,
and both ends of each image [x, x + rho], x = d_l - c for neighbour c and
map l: the image covers child [t, u] iff rank(x) <= rank(t) and rank(x +
rho) >= rank(u).

Finite type means few distinct values: the same offsets and lengths recur
at vertex after vertex. So a closure works on its own ``ValueTable``: each
distinct value gets a small int id, one canonical ``FieldElement`` and one
rational enclosure, and the steps x = d_l - c, x + rho and (a - b) / rho
(``vec_mat`` with the table's 1/rho matrix) and the exact sign of each
difference are memoised by operand ids. The table also holds its ids in one
ascending order: ``sort_unique`` places each new id by bisection on the
exact signs and then sorts a vertex's ids by their place alone. Two
enclosures that do not overlap decide a sign; only where they overlap does
the field's ``sign_of`` decide it. Each distinct value is thus built,
divided by rho and ordered once per closure, and equal values in the graph
share one element. Vertices are keyed by length id and neighbour ids. The
table is dropped with the closure, so every closure starts from the field
alone.

Finite type also means few distinct matrices. The table interns each
matrix row, and each matrix by the tuple of its rows' ids, so equal rows and
equal matrices in the graph are one object each. Every entry is int 0 or one
of the table's canonical weights, so equal rows have equal entry types.

A matrix is compiled for ``exactfield``'s product kernel (see there) the
first time ``TransitionEdge.sparse`` is read on one of its edges, once per
distinct matrix of the graph, so a graph that is only built and classified
holds no compiled form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import CapExceeded, InternalInconsistency
from .ifsmodel import Model
from .exactfield import (FieldElement, SparseMatrix, canonical,
                         compile_matrix, minus, plus, vec_mat)


@dataclass(frozen=True)
class CharacteristicVector:
    """Normalized length and strictly increasing neighbour offsets."""

    length: FieldElement
    neighbours: tuple[FieldElement, ...]

    def key(self):
        """The length's and neighbours' coefficient tuples. The closure keys
        vertices by ``ValueTable.key``; this one is read by the benchmark's
        graph fingerprint and by the tests' fingerprints and references."""
        return (self.length.coeffs, tuple(n.coeffs for n in self.neighbours))

    def describe(self, digits=6, shown=None):
        """The vector in decimals. ``shown``, a dict from coefficient tuples
        to text that calls may share, renders each distinct value once."""
        shown = {} if shown is None else shown

        def text(x):
            t = shown.get(x.coeffs)
            if t is None:
                t = shown[x.coeffs] = x.to_decimal(digits)
            return t

        ns = ", ".join(map(text, self.neighbours))
        return f"({text(self.length)}, ({ns}))"


@dataclass(frozen=True)
class TransitionEdge:
    """Parent-to-child step; parallel identical steps are merged.

    ``offsets`` holds the parent-normalized left endpoint of each merged
    instance, left to right, so the level geometry stays reconstructible.
    ``compiled`` maps ``id(matrix)`` to its ``SparseMatrix``. The edges of
    one built graph share one such dict; they are made together and each
    holds its matrix, so an id there never stands for another edge's matrix.
    """

    parent: int
    child: int
    matrix: tuple[tuple[Fraction | int, ...], ...]
    multiplicity: int
    offsets: tuple[FieldElement, ...]
    compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def sparse(self) -> SparseMatrix:
        """``matrix`` compiled for ``vec_mat`` on first read, once per
        distinct matrix of the graph: edges with equal matrices share it."""
        S = self.compiled.get(id(self.matrix))
        if S is None:
            S = self.compiled[id(self.matrix)] = compile_matrix(self.matrix)
        return S


class TransitionGraph:
    """Closed reduced transition graph; vertex ids are 1-based discovery order."""

    def __init__(self, model: Model, cvs, edges):
        self.model = model
        self.cvs = list(cvs)            # cvs[i] has id i+1
        self.edges = list(edges)
        self._out = [[] for _ in range(len(self.cvs) + 1)]
        for idx, e in enumerate(self.edges):
            self._out[e.parent].append(idx)

    @property
    def root(self) -> int:
        return 1

    def cv(self, vid: int) -> CharacteristicVector:
        return self.cvs[vid - 1]

    def __len__(self):
        return len(self.cvs)

    def out_edges(self, vid: int):
        return [self.edges[i] for i in self._out[vid]]

    def children_of(self, vid: int):
        return [e.child for e in self.out_edges(vid)]

    def internal_out(self, members):
        """Each member's out-edges that stay among ``members``, as
        ``(edge index, edge)`` pairs in edge-index order."""
        ms = set(members)
        return {v: [(i, self.edges[i]) for i in self._out[v]
                    if self.edges[i].child in ms] for v in members}


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class ValueTable:
    """The field values of one graph closure, each under a small int id.

    ``values[i]`` is value i's canonical element. ``ids`` maps coefficient
    tuples, raw (2 or Fraction(2)) or canonical, to ids, adding new values.
    The memos map operand ids to results: ``sub[a, b]`` is the id of a - b,
    ``shift[a]`` that of a + rho, ``div[a, b]`` that of (a - b) / rho and
    ``signs[a, b]`` the exact sign of a - b. ``order`` lists the ids placed
    so far, ascending, and ``rank`` maps each to its index there (see
    ``sort_unique``). ``inv_rho`` is division by rho as a k x k matrix
    compiled for ``vec_mat``: row i holds the coefficients of rho^i / rho.
    It takes raw coefficients and leaves integral Fractions uncollapsed;
    ``ids`` canonicalizes each distinct value once.

    ``row_ids`` interns matrix rows, tuples of int 0 and ``weights``, as
    ids into ``rows``; ``matrices`` maps a tuple of row ids to the one
    matrix of those rows (see ``matrix``)."""

    def __init__(self, model: Model):
        f = model.field
        rho, r_inv = f.rho().coeffs, f.inv_rho()
        inv_rho = self.inv_rho = compile_matrix([
            (f.element([0] * i + [1]) * r_inv).coeffs
            for i in range(f.degree)])
        self.weights = tuple(int(w) if w.denominator == 1 else w
                             for w in model.normalized)
        v = self.values = []
        enclosures = []     # value i's rational enclosure, taken once

        def new(element):
            v.append(element)
            enclosures.append(f.interval_eval(element.coeffs))
            return len(v) - 1

        def operands(k):
            return v[k[0]].coeffs, v[k[1]].coeffs

        def sign(k):
            (alo, ahi), (blo, bhi) = enclosures[k[0]], enclosures[k[1]]
            if ahi < blo:
                return -1
            if alo > bhi:
                return 1
            return f.sign_of(minus(*operands(k)))

        ids = self.ids = _Memo(lambda c: new(FieldElement(f, canonical(c))))
        self.sub = _Memo(lambda k: ids[minus(*operands(k))])
        self.shift = _Memo(lambda a: ids[plus(v[a].coeffs, rho)])
        self.div = _Memo(
            lambda k: ids[tuple(vec_mat(minus(*operands(k)), inv_rho))])
        self.signs = _Memo(sign)
        self.order = []
        self.rank = {}
        # the field's own 0 and 1, so the root's values are shared too
        self.zero = ids[f.zero.coeffs] = new(f.zero)
        self.one = ids[f.one.coeffs] = new(f.one)
        self.translations = [ids[d.coeffs] for d in model.translations]
        rows = self.rows = []

        def new_row(r):
            rows.append(r)
            return len(rows) - 1

        self.row_ids = _Memo(new_row)
        self.matrices = _Memo(lambda k: tuple([rows[i] for i in k]))

    def matrix(self, rows):
        """The interned matrix with these rows (lists or tuples), keyed by
        the ids of its interned rows rather than by its entries."""
        row_ids = self.row_ids
        return self.matrices[tuple([row_ids[tuple(r)] for r in rows])]

    def key(self, cv: CharacteristicVector):
        """A vector's length id and neighbour ids."""
        ids = self.ids
        return ids[cv.length.coeffs], tuple([ids[n.coeffs]
                                             for n in cv.neighbours])


def sort_unique(values, table: ValueTable):
    """The distinct ids among ``values``, ascending by their values in
    ``table``.

    An id not yet in ``table.order`` is placed there once, by bisection on
    the table's exact signs, and ``table.rank`` is renumbered; the ids are
    then sorted by rank alone. Distinct ids are distinct values, so the
    order is strict and exact.
    """
    vals = set(values)
    new = vals.difference(table.rank)
    if new:
        order, signs = table.order, table.signs
        for x in new:
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                if signs[x, order[mid]] < 0:
                    hi = mid
                else:
                    lo = mid + 1
            order.insert(lo, x)
        table.rank = {x: r for r, x in enumerate(order)}
    return sorted(vals, key=table.rank.__getitem__)


def children(parent: CharacteristicVector, model: Model,
             table: ValueTable | None = None):
    """Children of a vertex, left to right: (vector, matrix, offset) triples.

    The matrix has one row per parent neighbour and one column per child
    neighbour; the entry is the normalized weight of the unique map taking
    the row's covering interval onto the column's, else zero.

    Map l's image from row neighbour c is [x, x + rho], x = d_l - c. It covers
    child [t, u] iff rank(x) <= rank(t) and rank(x + rho) >= rank(u) in one
    exact sort (see the module docstring), giving (t - x) / rho.
    The arithmetic runs on ``table``, the closure's values, which also
    interns each matrix; without one the step makes its own.
    """
    T = ValueTable(model) if table is None else table
    L = len(T.translations)
    ell, ns = T.key(parent)
    # x = d_l - c for row j (neighbour c) and map l, at index j * L + l
    xs = [T.sub[dl, c] for c in ns for dl in T.translations]
    ends = [T.shift[x] for x in xs]
    pool = sort_unique([T.zero, ell] + xs + ends, T)
    rank = {v: r for r, v in enumerate(pool)}
    first = rank[T.zero]
    cuts = pool[first:rank[ell] + 1]
    spans = [(rank[x], rank[e]) for x, e in zip(xs, ends)]
    values, weights = T.values, T.weights

    out = []
    for i, (t, u) in enumerate(zip(cuts, cuts[1:]), start=first):
        # the (row, map) pairs covering the child [t, u], grouped by rank(x)
        covering: dict = {}
        for n, (rx, rend) in enumerate(spans):
            if rx <= i < rend:
                covering.setdefault(rx, []).append(divmod(n, L))
        if not covering:
            raise InternalInconsistency(
                "child interval covered by no map; invalid model or bug")
        order = sorted(covering, reverse=True)
        rows = [[0] * len(order) for _ in ns]
        for k, rx in enumerate(order):
            for j, l in covering[rx]:
                rows[j][k] = weights[l]
        if not all(map(any, rows)):
            raise InternalInconsistency(
                "transition matrix has an all-zero row; invalid model or bug")
        matrix = T.matrix(rows)
        length = T.div[u, t]
        neighbours = [T.div[t, pool[rx]] for rx in order]
        _check_cv(length, neighbours, T)
        cv = CharacteristicVector(
            length=values[length],
            neighbours=tuple([values[n] for n in neighbours]))
        out.append((cv, matrix, values[t]))
    return out


def _check_cv(ell, ns, T: ValueTable):
    """Sign tests that every child must pass, on its length id ``ell`` and
    neighbour ids ``ns`` in ``T``."""
    if not ns:
        raise InternalInconsistency("empty neighbour set")
    sign = T.signs
    if sign[ell, T.zero] <= 0 or sign[ell, T.one] > 0:
        raise InternalInconsistency("normalized length outside (0, 1]")
    if sign[ns[0], T.zero] < 0:
        raise InternalInconsistency("negative neighbour offset")
    if sign[ns[-1], T.sub[T.one, ell]] > 0:
        raise InternalInconsistency("neighbour offset exceeds 1 - length")


def build_graph(model: Model, cap_cvs: int = 10000) -> TransitionGraph:
    """Breadth-first closure from the unit interval's vector (1, (0)).

    One ``ValueTable`` serves the whole closure and is dropped with it:
    equal values in the graph share one element, equal matrices one tuple
    and one compiled form, and the next call starts from the field alone.

    Every 1,000 new vertices it logs, at DEBUG on this module's logger, the
    vertices found, the vertices still queued and the edges so far."""
    if cap_cvs < 1:
        raise ValueError("cap_cvs must be >= 1")
    f = model.field
    table = ValueTable(model)
    root = CharacteristicVector(length=f.one, neighbours=(f.zero,))
    ids = {table.key(root): 1}
    cvs = [root]
    edges = []
    compiled: dict = {}     # the edges' shared ``TransitionEdge.compiled``
    queue = deque([1])
    while queue:
        vid = queue.popleft()
        raw = children(cvs[vid - 1], model, table)
        merged: dict = {}   # (child, id(matrix)) -> (child, matrix, offsets)
        for cv, matrix, t in raw:
            ck = table.key(cv)
            child_id = ids.get(ck)
            if child_id is None:
                if len(cvs) >= cap_cvs:
                    raise CapExceeded(cap_cvs)
                cvs.append(cv)
                child_id = len(cvs)
                ids[ck] = child_id
                queue.append(child_id)
                if child_id % 1000 == 0:
                    # imported here: at start-up ``logging`` would cost
                    # about 13 ms and 0.3 MB, and small closures never log
                    import logging
                    logging.getLogger(__name__).debug(
                        "graph closure: %d vertices, %d queued, %d edges",
                        child_id, len(queue), len(edges))
            merged.setdefault((child_id, id(matrix)),
                              (child_id, matrix, []))[2].append(t)
        for child_id, matrix, offs in merged.values():
            edges.append(TransitionEdge(
                parent=vid, child=child_id, matrix=matrix,
                multiplicity=len(offs), offsets=tuple(offs),
                compiled=compiled))
    return TransitionGraph(model, cvs, edges)


def export_dot(graph: TransitionGraph, classes=None) -> str:
    """Graphviz DOT rendering; parallel edges repeat per multiplicity.

    ``classes`` may carry the loop-class decomposition, in which case the
    essential vertices are filled and other loop-class vertices outlined.
    """
    essential = set()
    looped = set()
    if classes:
        for c in classes:
            members = set(c.members)
            if c.is_essential:
                essential |= members
            else:
                looped |= members
    lines = ["digraph transition {", "  rankdir=LR;",
             "  node [shape=circle, fontsize=11];"]
    shown: dict = {}
    for i, cv in enumerate(graph.cvs, start=1):
        style = ""
        if i in essential:
            style = ', style=filled, fillcolor="lightsteelblue"'
        elif i in looped:
            style = ', style=filled, fillcolor="lightgoldenrod"'
        tip = cv.describe(shown=shown)
        lines.append(f'  {i} [label="{i}", tooltip="{tip}"{style}];')
    for e in graph.edges:
        for _ in range(e.multiplicity):
            lines.append(f"  {e.parent} -> {e.child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
