"""Randomized structural invariants shared by the property and acceptance suites,
and the brute-force pseudo-norms that ``norm_bounds`` is checked against.

Each checker returns the number of individual cases it verified, so callers
can tally coverage. All randomness is seeded by the caller.
"""

import math
from enum import Enum
from fractions import Fraction

from conftest import walk_vertices
from finitype.dimcalc import (
    assemble_report,
    dim_at_zero,
    enumerate_cycles,
    product_along,
    spectral_radius,
)
from finitype.errors import SubsetInvalidForClass
from finitype.exactfield import compile_matrix, mat_mul
from finitype.loopclasses import essential_class, positivity_certificate
from finitype.oracle import brute_level


# The row, column and window functionals of one product matrix, computed
# directly: the reference for the frontier sweep of ``dimcalc.norm_bounds``.
class NormKind(Enum):
    MIN_ROW = "MIN_ROW"
    MAX_ROW = "MAX_ROW"
    MIN_COL = "MIN_COL"
    MAX_COL = "MAX_COL"
    SUBSET_MIN = "SUBSET_MIN"
    TOTAL = "TOTAL"


def pseudo_norm(matrix, kind: NormKind, subset=None):
    """Row/column sum functionals used for product bounds; subset indices are
    1-based positions into both the row and column index sets."""
    if kind is NormKind.MIN_ROW:
        return min(sum(row) for row in matrix)
    if kind is NormKind.MAX_ROW:
        return max(sum(row) for row in matrix)
    if kind is NormKind.MIN_COL:
        return min(sum(row[k] for row in matrix) for k in range(len(matrix[0])))
    if kind is NormKind.MAX_COL:
        return max(sum(row[k] for row in matrix) for k in range(len(matrix[0])))
    if kind is NormKind.TOTAL:
        return sum(sum(row) for row in matrix)
    if kind is NormKind.SUBSET_MIN:
        if not subset:
            raise SubsetInvalidForClass("subset required for SUBSET_MIN")
        J, K = len(matrix), len(matrix[0])
        idx = sorted(set(subset))
        if idx[0] < 1 or idx[-1] > min(J, K):
            raise SubsetInvalidForClass(
                f"subset {tuple(subset)} out of range for a {J}x{K} matrix")
        return min(sum(matrix[j - 1][k - 1] for j in idx) for k in idx)
    raise ValueError(kind)


def random_path(graph, rng, length, start=None):
    """A uniformly random admissible edge path of the given length."""
    v = start if start is not None else int(rng.choice(range(1, len(graph) + 1)))
    edges = []
    for _ in range(length):
        outs = graph.out_edges(v)
        e = outs[int(rng.integers(0, len(outs)))]
        edges.append(e)
        v = e.child
    return edges


def check_norm_monotone(graph, rng, n_cases):
    """Total-sum norm never shrinks under one-sided extension of a product."""
    count = 0
    for _ in range(n_cases):
        la = int(rng.integers(1, 5))
        lb = int(rng.integers(1, 5))
        pa = random_path(graph, rng, la)
        pb = random_path(graph, rng, lb, start=pa[-1].child)
        A = product_along(pa)
        B = product_along(pb)
        AB = mat_mul(A, compile_matrix(B))
        assert pseudo_norm(B, NormKind.TOTAL) <= pseudo_norm(AB, NormKind.TOTAL)
        assert pseudo_norm(A, NormKind.TOTAL) <= pseudo_norm(AB, NormKind.TOTAL)
        count += 2
    return count


def check_sandwich(graph, rng, n_cases):
    """Total norm of A * (positive B) * C dominates the product of norms."""
    ess = essential_class(graph)
    pos = positivity_certificate(graph, ess.members)
    if not pos:
        return 0
    wit = pos.witness
    b_edges = []
    v = wit[0]
    for w in wit[1:]:
        b_edges.append([e for e in graph.out_edges(v) if e.child == w][0])
        v = w
    B = product_along(b_edges)
    assert all(all(x > 0 for x in row) for row in B)
    count = 0
    for _ in range(n_cases):
        # A must end where B starts: random walks rarely do, so walk backwards
        A_edges = _random_path_into(graph, rng, int(rng.integers(1, 5)), wit[0])
        C_edges = random_path(graph, rng, int(rng.integers(1, 5)),
                              start=wit[-1])
        A = product_along(A_edges)
        C = product_along(C_edges)
        ABC = mat_mul(mat_mul(A, compile_matrix(B)), compile_matrix(C))
        assert pseudo_norm(ABC, NormKind.TOTAL) >= \
            pseudo_norm(A, NormKind.TOTAL) * pseudo_norm(C, NormKind.TOTAL)
        count += 1
    return count


def _random_path_into(graph, rng, length, target):
    incoming = {}
    for e in graph.edges:
        incoming.setdefault(e.child, []).append(e)
    edges = []
    v = target
    for _ in range(length):
        ins = incoming.get(v)
        if not ins:
            break
        e = ins[int(rng.integers(0, len(ins)))]
        edges.append(e)
        v = e.parent
    edges.reverse()
    return edges or incoming[target][:1]


def check_gelfand(graph, rng, max_cycles=10):
    """sp(B^n) <= total norm of B^n for powers up to six."""
    ess = essential_class(graph)
    enum = enumerate_cycles(graph, ess.members, max_len=3)
    count = 0
    for cd_index, path in enumerate(enum.cycles):
        if cd_index >= max_cycles:
            break
        edges = _cycle_edges(graph, walk_vertices(graph, path), rng)
        B = product_along(edges)
        P = B
        B_sparse = compile_matrix(B)
        for _ in range(6):
            lo, hi = spectral_radius(P)
            assert lo <= float(pseudo_norm(P, NormKind.TOTAL)) * (1 + 1e-9)
            P = mat_mul(P, B_sparse)
            count += 1
    return count


def _cycle_edges(graph, vertices, rng):
    edges = []
    for a, b in zip(vertices, vertices[1:]):
        cands = [e for e in graph.out_edges(a) if e.child == b]
        edges.append(cands[int(rng.integers(0, len(cands)))])
    return edges


def check_rotation_invariance(graph, rng, n_cases):
    """Spectral radius of a cycle product is invariant under rotation."""
    ess = essential_class(graph)
    enum = enumerate_cycles(graph, ess.members, max_len=4)
    count = 0
    cycles = list(enum.cycles)
    for i in range(min(n_cases, len(cycles))):
        edges = _cycle_edges(graph, walk_vertices(graph, cycles[i]), rng)
        base_lo, base_hi = spectral_radius(product_along(edges))
        for shift in range(1, len(edges)):
            rot = edges[shift:] + edges[:shift]
            lo, hi = spectral_radius(product_along(rot))
            mid, ref = (lo + hi) / 2, (base_lo + base_hi) / 2
            assert abs(mid - ref) <= 1e-9 * max(1.0, ref)
            count += 1
    return count


def check_matrix_structure(graph):
    """Every primitive matrix: nonzero rows and columns, entries >= 1."""
    count = 0
    for e in graph.edges:
        for row in e.matrix:
            assert any(row)
            assert all(Fraction(x) >= 1 for x in row if x)
        for k in range(len(e.matrix[0])):
            assert any(row[k] for row in e.matrix)
        count += 1
    return count


def check_level_weights(model, n):
    """Brute-force level data: positive normalized weights summing to >= 1."""
    snap = brute_level(model, n)
    count = 0
    for iv in snap.intervals:
        assert sum(iv.weights) >= 1
        assert all(w > 0 for w in iv.weights)
        assert iv.neighbours[0].sign() >= 0
        assert (iv.neighbours[-1] + iv.norm_length - 1).sign() <= 0
        count += 1
    return count


def check_report_invariants(model, graph, cycle_len=4, bound_len=4):
    """Inner within outer for every class; endpoint dimension dominates."""
    rep = assemble_report(model, graph, cycle_len=cycle_len,
                          bound_len=bound_len)
    dz = dim_at_zero(model)
    count = 0
    for cs in rep.classes:
        if cs.dim_inner and cs.dim_outer:
            assert cs.dim_inner[0] >= cs.dim_outer[0] - 1e-9
            assert cs.dim_inner[1] <= cs.dim_outer[1] + 1e-9
        if cs.dim_outer:
            assert cs.dim_outer[1] <= dz + 1e-9
        if cs.exact_point is not None:
            assert cs.exact_point <= dz + 1e-9
        count += 1
    assert abs(rep.dim_zero - dz) < 1e-12
    return count
