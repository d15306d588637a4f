"""Reduced transition graph: characteristic vectors and primitive matrices.

Working one vertex at a time in parent-normalized coordinates (origin at the
parent interval's left endpoint, one unit per current-level contraction), the
subdivision points contributed by the covering maps split the parent into its
children; each child gets a normalized length, a sorted neighbour set, and a
rational matrix whose nonzero entries are weights divided by the smallest
weight. Closure from the unit root interval yields the finite vertex set for
a finite-type system; ids are assigned in breadth-first discovery order, so
rebuilds are bit-identical.

A vertex's cover tests go by ranks in one certified sort of 0, its length,
and both ends of each image [x, x + rho], x = d_l - c for neighbour c and
map l: the image covers child [t, u] iff rank(x) <= rank(t) and rank(x +
rho) >= rank(u). That is exact: ``sort_unique`` certifies each adjacent pair.

The step runs on coefficient tuples with ``exactfield``'s kernel: x, x + rho
and the differences u - t and t - x are raw tuple arithmetic, and division
by rho is ``vec_mat`` with the fixed 1/rho matrix of ``Model.step_constants``.
Elements are built, canonical, only for what the graph stores: each child's
length and neighbours, and each edge's offsets.

Products are taken on compiled matrices. ``compile_matrix`` turns a dense
row-tuple matrix into a ``SparseMatrix``: its column count and, per row, the
``(column, entry)`` pairs of the nonzero entries, columns ascending.
``vec_mat``, the one product kernel, multiplies a row vector by one. Each
edge compiles its matrix the first time ``TransitionEdge.sparse`` is read,
so a graph that is only built and classified holds no compiled form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import CapExceeded, InternalInconsistency
from .ifsmodel import Model
from .exactfield import FieldElement, canonical, minus, plus, sort_unique


@dataclass(frozen=True)
class CharacteristicVector:
    """Normalized length and strictly increasing neighbour offsets."""

    length: FieldElement
    neighbours: tuple[FieldElement, ...]

    def key(self):
        return (self.length.coeffs, tuple(n.coeffs for n in self.neighbours))

    def describe(self, digits=6):
        ns = ", ".join(n.to_decimal(digits) for n in self.neighbours)
        return f"({self.length.to_decimal(digits)}, ({ns}))"


@dataclass(frozen=True)
class TransitionEdge:
    """Parent-to-child step; parallel identical steps are merged.

    ``offsets`` holds the parent-normalized left endpoint of each merged
    instance, left to right, so the level geometry stays reconstructible.
    """

    parent: int
    child: int
    matrix: tuple[tuple[Fraction | int, ...], ...]
    multiplicity: int
    offsets: tuple[FieldElement, ...]

    @cached_property
    def sparse(self) -> SparseMatrix:
        """``matrix`` compiled for ``vec_mat``, once per edge."""
        return compile_matrix(self.matrix)


class SparseMatrix(NamedTuple):
    """A matrix compiled for ``vec_mat``: the column count, and per row the
    ``(column, entry)`` pairs of its nonzero entries, columns ascending."""

    ncols: int
    rows: tuple[tuple[tuple[int, Fraction | int], ...], ...]

    def transposed(self) -> SparseMatrix:
        """The compiled transpose, built from the nonzero pairs alone."""
        cols = [[] for _ in range(self.ncols)]
        for j, row in enumerate(self.rows):
            for k, x in row:
                cols[k].append((j, x))
        return SparseMatrix(len(self.rows), tuple(map(tuple, cols)))


def compile_matrix(M) -> SparseMatrix:
    """The ``SparseMatrix`` of a dense row-tuple matrix."""
    return SparseMatrix(len(M[0]), tuple(
        tuple((k, x) for k, x in enumerate(row) if x) for row in M))


def vec_mat(v, S: SparseMatrix):
    """Row vector times a compiled matrix, exactly; the one product kernel.
    Terms are added in the order of a dense row-by-row product."""
    ncols, rows = S
    acc = [0] * ncols
    for x, row in zip(v, rows):
        if x:
            for k, a in row:
                acc[k] += x * a
    return acc


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


def children(parent: CharacteristicVector, model: Model):
    """Children of a vertex, left to right: (vector, matrix, offset) triples.

    The matrix has one row per parent neighbour and one column per child
    neighbour; the entry is the normalized weight of the unique map taking
    the row's covering interval onto the column's, else zero.

    Map l's image from row neighbour c is [x, x + rho], x = d_l - c. It covers
    child [t, u] iff rank(x) <= rank(t) and rank(x + rho) >= rank(u) in one
    certified sort (exact; see the module docstring), giving (t - x) / rho.
    """
    f = model.field
    rho, inv_rho, weights = model.step_constants
    L = len(model.translations)
    ell = parent.length.coeffs
    # x = d_l - c for row j (neighbour c) and map l, at index j * L + l
    xs = [minus(dl.coeffs, c.coeffs)
          for c in parent.neighbours for dl in model.translations]
    ends = [plus(x, rho) for x in xs]
    zero = f.zero.coeffs
    pool = sort_unique([zero, ell] + xs + ends, f)
    rank = {c: r for r, c in enumerate(pool)}
    first = rank[zero]
    cuts = pool[first:rank[ell] + 1]
    spans = [(rank[x], rank[e]) for x, e in zip(xs, ends)]

    def stored(coeffs):
        return FieldElement(f, canonical(coeffs))

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
        rows = [[0] * len(order) for _ in parent.neighbours]
        for k, rx in enumerate(order):
            for j, l in covering[rx]:
                rows[j][k] = weights[l]
        matrix = tuple(tuple(r) for r in rows)
        for r in matrix:
            if not any(r):
                raise InternalInconsistency(
                    "transition matrix has an all-zero row; invalid model or bug")
        cv = CharacteristicVector(
            length=stored(vec_mat(minus(u, t), inv_rho)),
            neighbours=tuple(stored(vec_mat(minus(t, pool[rx]), inv_rho))
                             for rx in order))
        _check_cv(cv, f)
        # the first cut is 0: its offset shares the field's zero element
        out.append((cv, matrix, stored(t) if i > first else f.zero))
    return out


def _check_cv(cv: CharacteristicVector, f):
    """Sign tests on coefficient tuples that every child must pass."""
    if not cv.neighbours:
        raise InternalInconsistency("empty neighbour set")
    one = f.one.coeffs
    ell = cv.length.coeffs
    if f.sign_of(ell) <= 0 or f.sign_of(minus(ell, one)) > 0:
        raise InternalInconsistency("normalized length outside (0, 1]")
    if f.sign_of(cv.neighbours[0].coeffs) < 0:
        raise InternalInconsistency("negative neighbour offset")
    if f.sign_of(minus(plus(cv.neighbours[-1].coeffs, ell), one)) > 0:
        raise InternalInconsistency("neighbour offset exceeds 1 - length")


def build_graph(model: Model, cap_cvs: int = 10000) -> TransitionGraph:
    """Breadth-first closure from the unit interval's vector (1, (0)).

    Every 1,000 new vertices it logs, at DEBUG on this module's logger, the
    vertices found, the vertices still queued and the edges so far."""
    if cap_cvs < 1:
        raise ValueError("cap_cvs must be >= 1")
    f = model.field
    root = CharacteristicVector(length=f.one, neighbours=(f.zero,))
    ids = {root.key(): 1}
    cvs = [root]
    edges = []
    queue = deque([1])
    while queue:
        vid = queue.popleft()
        raw = children(cvs[vid - 1], model)
        merged: dict = {}
        for cv, matrix, t in raw:
            ck = cv.key()
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
            merged.setdefault((child_id, matrix), []).append(t)
        for (child_id, matrix), offs in merged.items():
            edges.append(TransitionEdge(
                parent=vid, child=child_id, matrix=matrix,
                multiplicity=len(offs), offsets=tuple(offs)))
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
    for i, cv in enumerate(graph.cvs, start=1):
        style = ""
        if i in essential:
            style = ', style=filled, fillcolor="lightsteelblue"'
        elif i in looped:
            style = ', style=filled, fillcolor="lightgoldenrod"'
        lines.append(f'  {i} [label="{i}", tooltip="{cv.describe()}"{style}];')
    for e in graph.edges:
        for _ in range(e.multiplicity):
            lines.append(f"  {e.parent} -> {e.child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
