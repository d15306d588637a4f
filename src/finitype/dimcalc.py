"""Local-dimension machinery: certified spectral radii, cycle enumeration,
pseudo-norm bounds over admissible products, and report assembly.

Conventions. Matrices are the normalized ones from the graph (nonzero entries
are weights over the smallest weight, hence >= 1). The canonical per-class
quantity is the per-step spectral value sp(T)^(1/L) of a closed L-step walk;
a per-step value s translates into the local dimension
(log p_0 + log s) / log rho. Since log rho < 0, larger spectral values mean
smaller dimensions.

Spectral radii come with certified rational enclosures of relative width at
most ``_REL_TOL``: Collatz-Wielandt quotients of an exact integer iteration
on each irreducible diagonal block, with a unit shift to kill periodicity,
and where the iteration stalls, Sturm bisection of its bracket to the
largest real root of the block's characteristic polynomial. Norm products
are evaluated exactly. The records keep each certified value once, exactly:
a walk's edge path with its enclosure of sp(P), a norm depth with its two
extreme functionals. Floats are made at the edge only: ``_dims`` turns an
exact L-step value into dimension ends padded outward for rounding, and
``per_step`` into a per-step value for display. Float logs (``_flog``) rank
the certified walks, and the logs of each walk's smallest and largest column
sum screen which cycles the search certifies; neither becomes a reported
value. With the class's least and greatest one-step column sums, the same
screen bounds every completion of a prefix, and the search expands no
prefix whose completions all fall strictly inside the certified range at
both ends. The search returns the walks it screened as plain edge paths
and certifies no others.

Norm bounds never walk every admissible path. Each row- or column-sum
functional is monotone in the row vector carried along a walk, and every
matrix is nonnegative, so one sweep per side over layers and vertices keeps,
for every functional at once, only a frontier of carried vectors at each
vertex: a vector dominated by a kept one (from above for the max functional,
from below for the min ones) cannot set the extreme and is dropped. Within a
layer each distinct matrix multiplies each distinct carried vector once,
whichever functionals carry it and whichever of the matrix's edges it
crosses. This is the per-vertex multinorm view of a joint
spectral radius under constrained switching (Philippe, Essick, Dullerud and
Jungers 2016). The column-sum side runs first; the row-sum side then sweeps
only the functionals that could tighten its bounds, by the branch-and-bound
rule of the cycle search. One greedy walk per functional, from the class's
smallest member, attains a row-sum value; a max functional whose walk
already reaches the column-sum upper bound, or a min functional whose walk
already falls to the best column-sum lower bound, has an extreme that
cannot tighten either bound, and is not swept. The bounds equal those of
full enumeration. A side stops before a layer that would take its charge past
the work budget, and reads its extremes at the depth reached.
Isolation is decided on certified values with one tolerance, POINT_TOL.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EdgesNotAdmissible,
    NotACycle,
    SubsetInvalidForClass,
    ZeroRow,
)
from .exactfield import (char_poly, compile_matrix, largest_root, mat_mul,
                         vec_mat)
from .ifsmodel import Model
from .loopclasses import LoopClass, classify_all, strongly_connected_components
from .netgraph import TransitionGraph

_REL_TOL = Fraction(1, 10 ** 10)   # relative width of a converged enclosure


# ----------------------------------------------------------------------------
# small exact matrix helpers
# ----------------------------------------------------------------------------

def _check_admissible(edges):
    for e, f in zip(edges, edges[1:]):
        if e.child != f.parent:
            raise EdgesNotAdmissible(
                f"edge into {e.child} followed by edge out of {f.parent}")


def product_along(edges):
    """Matrix product along consecutive edges; validates adjacency."""
    if not edges:
        raise NotACycle("empty edge path")
    _check_admissible(edges)
    P = edges[0].matrix
    for e in edges[1:]:
        P = mat_mul(P, e.sparse)
    return P


def _flog(x) -> float:
    """log of an int or Fraction x >= 0, from the logs of its numerator and
    denominator, so it never overflows; -inf for 0."""
    return math.log(x.numerator) - math.log(x.denominator) if x else -math.inf


def per_step(x, L: int) -> float:
    """x ** (1 / L) of an exact L-step value x >= 0, for display only: from
    log x, so inf past the float range and 0.0 below it."""
    try:
        return math.exp(_flog(x) / L)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------------
# certified spectral radius
# ----------------------------------------------------------------------------

def _quotient_extremes(w, v):
    """The min and max of the quotients w_i / v_i, for positive integers
    v_i, as pairs ``(lo_w, lo_v, hi_w, hi_v)`` of the min's and the max's
    w_i and v_i, compared by cross-multiplication; no Fraction is built."""
    lo_w = hi_w = w[0]
    lo_v = hi_v = v[0]
    for x, y in zip(w, v):
        if x * lo_v < lo_w * y:
            lo_w, lo_v = x, y
        elif x * hi_v > hi_w * y:
            hi_w, hi_v = x, y
    return lo_w, lo_v, hi_w, hi_v


def _block_spectral_bounds(block):
    """Certified enclosure of sp(block) for an irreducible nonnegative block,
    of relative width at most ``_REL_TOL``. A Collatz-Wielandt iteration runs
    in integers on d (block + I), d the lcm of the entries' denominators: the
    unit shift removes periodicity, sp(block + I) = sp(block) + 1. Where it
    stalls, with eigenvalues close to the Perron root, its bracket is
    bisected to the largest real root of det(xI - block), the Perron root."""
    if len(block) == 1:
        return (Fraction(block[0][0]),) * 2
    d = math.lcm(*(x.denominator for row in block for x in row))
    A = compile_matrix([[int(x * d) + (d if i == j else 0)
                         for j, x in enumerate(row)]
                        for i, row in enumerate(block)])
    num, den = _REL_TOL.numerator, _REL_TOL.denominator
    v = [1] * len(block)
    for _ in range(300):
        w = vec_mat(v, A)
        lo_w, lo_v, hi_w, hi_v = _quotient_extremes(w, v)
        # hi - lo <= _REL_TOL / 4 * hi, in integers
        if 4 * den * (hi_w * lo_v - lo_w * hi_v) <= num * hi_w * lo_v:
            break
        shift = max(w).bit_length() - 256  # past 512 bits, back to 256
        v = [max(1, x >> shift) for x in w] if shift > 256 else w
    lo = Fraction(lo_w, lo_v) / d - 1
    hi = Fraction(hi_w, hi_v) / d - 1
    if hi - lo > _REL_TOL * hi:
        lo, hi = largest_root(char_poly(block), lo, hi, _REL_TOL)
    return lo, hi


def spectral_radius(matrix):
    """Certified Fraction bounds (lo, hi) on the largest eigenvalue modulus.

    The matrix must be square and nonnegative with no all-zero row. Reducible
    matrices are split into the strongly connected blocks of their support;
    the spectral radius is the largest block value.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if not any(row):
            raise ZeroRow("matrix has an all-zero row")
        if any(v < 0 for v in row):
            raise ValueError("matrix has a negative entry")

    def outs(v):
        return [w + 1 for w in range(n) if matrix[v - 1][w]]

    comps = strongly_connected_components(n, outs)
    best_lo = best_hi = Fraction(0)
    for comp in comps:
        idx = [v - 1 for v in comp]
        block = tuple(tuple(matrix[i][j] for j in idx) for i in idx)
        lo, hi = _block_spectral_bounds(block)
        best_lo, best_hi = max(best_lo, lo), max(best_hi, hi)
    return best_lo, best_hi


# ----------------------------------------------------------------------------
# dimensions of periodic points
# ----------------------------------------------------------------------------

def dim_at_zero(model: Model) -> float:
    """log p_0 / log rho: the dimension at the support's left endpoint,
    always the largest attainable value (as an upper end)."""
    return _dims(model, 1, 1, 1)[1]


def _dims(model: Model, lo, hi, L: int):
    """(dim_lo, dim_hi): (log p_0 + log(x) / L) / log rho at x = hi and at
    x = lo, for exact L-step values 0 <= lo <= hi; 0 gives infinity. Each
    end d is padded outward by 8 u (M + |d| (1 + |log rho|)) / |log rho|,
    u = 2 ** -53. M sums b log 2 over the b-bit numerators and denominators
    of p_0 and of x (x's over L), and ``math.log`` of a b-bit int errs by
    under 4.01 u b log 2, so the numerator errs by under 7.01 u M (four logs
    and four roundings); ``model.log_rho`` errs by at most
    u (1 + 2 |log rho|). The rest covers the division and the pad's own.
    Local dimensions are >= 0, so both padded ends are clamped at 0.0."""
    lr, p0 = model.log_rho, model.probabilities[0]

    def bits(q):
        return q.numerator.bit_length() + q.denominator.bit_length()

    def end(x, side):
        if not x:
            return math.inf
        d = (_flog(p0) + _flog(x) / L) / lr
        size = (bits(p0) + bits(x) / L) * math.log(2)
        return d + side * 8 * 2.0 ** -53 * (size + abs(d) * (1 - lr)) / -lr

    return max(end(hi, -1), 0.0), max(end(lo, 1), 0.0)


@dataclass(frozen=True)
class CycleDim:
    edges: tuple                  # the closed walk's edges, in order
    sp_lo: Fraction | int         # certified enclosure of sp(P), P the
    sp_hi: Fraction | int         # product along the edges

    @property
    def L(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> tuple[int, ...]:  # closed: first == last
        return (self.edges[0].parent,) + tuple(e.child for e in self.edges)


def periodic_dimension(cycle_edges) -> CycleDim:
    """The periodic point tracing the given closed edge path, with a
    certified spectral enclosure of its product P; its dimension ends are
    ``_dims(model, sp_lo, sp_hi, L)``. The column sums 1^T P come first, as
    in the cycle search: the dense first matrix's, then one ``vec_mat`` per
    step. Where they all equal one c, 1 is a
    positive left eigenvector of P, so sp(P) = c exactly (Collatz-Wielandt
    with x = 1) and neither the product nor ``spectral_radius`` is taken;
    otherwise the enclosure is ``spectral_radius`` of the product."""
    edges = list(cycle_edges)
    if not edges or edges[0].parent != edges[-1].child:
        raise NotACycle("edge path does not close up")
    _check_admissible(edges)
    sums = [sum(col) for col in zip(*edges[0].matrix)]
    for e in edges[1:]:
        sums = vec_mat(sums, e.sparse)
    if min(sums) == max(sums):
        sp_lo = sp_hi = sums[0]
    else:
        sp_lo, sp_hi = spectral_radius(product_along(edges))
    return CycleDim(tuple(edges), sp_lo, sp_hi)


# ----------------------------------------------------------------------------
# cycle enumeration inside a loop class
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[tuple[int, ...], ...]   # screened walks' edge paths,
                                          # generation order
    truncated: bool
    min_cycle: CycleDim | None            # least and greatest per-step
    max_cycle: CycleDim | None            # value; None when none certified


# Margin of the cycle screen in log units: above the enclosures' 1e-10 width
# plus the logs' rounding, below 1e-10 under 10^5 bits per step of the values
_SCREEN_MARGIN = 1e-9


def _screen(L, cols):
    """Collatz-Wielandt enclosure of log sp(P) / L with x = 1, from the
    column sums ``cols`` of P: the smallest and the largest sum's log / L."""
    return _flog(min(cols)) / L, _flog(max(cols)) / L


def _steps_home(s, into):
    """Fewest steps from each vertex back to ``s`` through vertices > s,
    keyed by vertex; ``into[v]`` holds the vertices with an edge into v."""
    home = {s: 0}
    frontier = [s]
    while frontier:
        ahead = []
        for w in frontier:
            for u in into[w]:
                if u > s and u not in home:
                    home[u] = home[w] + 1
                    ahead.append(u)
        frontier = ahead
    return home


def enumerate_cycles(graph: TransitionGraph, members, max_len: int,
                     budget: int = 2_000_000) -> CycleEnumeration:
    """The closed edge walks of length <= max_len inside the class that could
    set an extreme of its per-step spectral values, counting parallel edges
    as distinct steps, one per class of cyclic rotations, and the certified
    walks of least and of greatest value among them.

    The search from each member ``s`` walks through members ``>= s`` only,
    so ``s`` is the smallest vertex of every walk it finds, and it generates
    each walk as a necklace: the lexicographically smallest, by edge index,
    of its rotations that start at a return to ``s``. A prefix is dropped as
    soon as, for some earlier return to ``s`` at position ``a``, the slice
    ``path[a:]`` is less than ``path[:len(path) - a]``: every completion
    then has a smaller rotation starting at ``a``. A walk that closes at
    ``s`` is kept when no anchored rotation is smaller. Every necklace
    survives, because each prefix of a smallest rotation passes the test.
    A step is also dropped when the walk cannot get back to ``s`` within
    ``max_len`` steps (fewest steps home by a breadth-first search per
    ``s``). ``budget`` caps the number of surviving prefixes expanded; past
    it the search stops with ``truncated`` set.

    The search carries the column sums 1^T P of each prefix's product P,
    one ``vec_mat`` per step, and no product. For a nonnegative P they bound
    its spectral radius between the smallest and the largest column sum
    (Collatz-Wielandt with x = 1); the per-step logs of that enclosure are
    the walk's screen. The minimum is found by branch and bound (Gripenberg
    1996): walks are certified in increasing order of their lower screen,
    starting from the smallest upper screen as the best per-step log, until
    a lower screen exceeds the best log so far (``_flog(sp_lo) / L`` once
    certified) plus ``_SCREEN_MARGIN``; the maximum mirrors this. So every
    walk left out is strictly beaten by a certified one, and every walk tied
    with an extreme is certified. Every enclosure is within ``_REL_TOL``, so
    each certified walk's per-step logs lie within the margin of each other.
    The extremes are the certified walks of least ``_flog(sp_lo) / L`` and
    of greatest ``_flog(sp_hi) / L``; of walks with equal float logs, the
    first generated wins.

    The same rule prunes prefixes. Let m1 and N1 be the least and the
    greatest column sum of the class's edge matrices. For nonnegative P and
    Q, mincol(PQ) >= mincol(P) mincol(Q) and maxcol(PQ) <= maxcol(P)
    maxcol(Q), so a walk that extends an l-step prefix with column sums c by
    k steps has a lower screen >= (log min c + k log m1) / (l + k) and an
    upper screen <= (log max c + k log N1) / (l + k). Since log min c / l >=
    log m1 and log max c / l <= log N1, both are weighted averages that
    loosen as k grows, so one check per end at k = r = max_len - l covers
    every completion. ``low`` and ``high`` are the least upper and the
    greatest lower screen of the walks found so far; a prefix is not
    expanded when its lower bound at k = r exceeds low + 2 margin and its
    upper bound is below high - 2 margin, and a closed walk is recorded
    before its prefix is tested. Each float, a bound or a screen, is within
    half the margin of its exact value (the margin's premise), and a
    completion's exact screen is at least the prefix's exact bound, so a
    dropped walk's lower screen exceeds low + margin and its upper screen
    is below high - margin. ``low`` only falls, during the search and in
    the minimum's loop, so that loop stops before any dropped walk, and no
    dropped walk has the smallest upper screen it starts from; the maximum's
    loop mirrors this. The loops therefore certify the same walks as with no
    pruning, in the same order, and return the same extremes. A column sum
    of 0 has log -inf, which only loosens a lower bound; r >= 1 and N1 > 0,
    so no bound is NaN.

    ``cycles`` holds the walks the search screened, every closed walk that
    no pruned prefix leads to, as edge-index paths in generation order; the
    walks left out of the certification cost no product and no enclosure.
    Certifying a walk (``periodic_dimension``) costs one ``vec_mat`` per
    step when its column sums are all equal, their common value being its
    exact spectral radius, and otherwise its exact product and
    ``spectral_radius``.

    Precondition: no edge matrix of the class has an all-zero row, as in
    every built graph (``netgraph.children`` rejects one), so no product
    has one either; otherwise ZeroRow is raised before the search.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ms = sorted(set(members))
    out_internal = graph.internal_out(ms)
    matrices = {id(e.matrix): e.matrix for v in ms
                for _, e in out_internal[v]}.values()
    if any(not any(row) for m in matrices for row in m):
        raise ZeroRow("an edge matrix of the class has an all-zero row")

    found = []    # edge paths
    screens = []  # beside found: the walk's screen
    steps = 0
    truncated = False
    # the least upper and the greatest lower screen of the walks found so
    # far, and the cuts past which a prefix's completions are all beaten
    low, high = math.inf, -math.inf
    low_cut, high_cut = low, high
    # logs of the least and the greatest one-step column sum in the class
    col_sums = [sum(col) for m in matrices for col in zip(*m)]
    log_m1 = _flog(min(col_sums, default=1))
    log_n1 = _flog(max(col_sums, default=1))

    into = {v: set() for v in ms}
    for v in ms:
        for _, e in out_internal[v]:
            into[e.child].add(v)

    for s in ms:
        home = _steps_home(s, into)
        # (vertex, edge path, returns to s still tied with the path's start,
        # column sums of the path's product, from ones); a return at position
        # a is tied while path[a:] equals path[:len(path) - a]
        ones = [1] * max((len(e.sparse.rows) for _, e in out_internal[s]),
                         default=0)
        stack = [(s, (), (), ones)]
        while stack and not truncated:
            v, path, tied, sums = stack.pop()
            n = len(path)
            for eidx, e in out_internal[v]:
                if n + 1 + home.get(e.child, max_len) > max_len:
                    continue  # cannot close at s within max_len steps
                if any(eidx < path[n - a] for a in tied):
                    continue  # the rotation from return a would be smaller
                steps += 1
                if steps > budget:
                    truncated = True
                    break
                still = [a for a in tied if eidx == path[n - a]]
                new_sums = vec_mat(sums, e.sparse)
                new_path = path + (eidx,)
                if e.child == s:
                    if all(new_path <= new_path[a:] + new_path[:a]
                           for a in still):
                        found.append(new_path)
                        lo, hi = _screen(n + 1, new_sums)
                        screens.append((lo, hi))
                        if hi < low:
                            low, low_cut = hi, hi + 2 * _SCREEN_MARGIN
                        if lo > high:
                            high, high_cut = lo, lo - 2 * _SCREEN_MARGIN
                    still.append(n + 1)
                r = max_len - n - 1  # steps left to the longest completion
                if r and ((_flog(min(new_sums)) + r * log_m1) / max_len
                          <= low_cut
                          or (_flog(max(new_sums)) + r * log_n1) / max_len
                          >= high_cut):
                    stack.append((e.child, new_path, tuple(still), new_sums))
        if truncated:
            break

    dims = {}  # the certified walks, by index into found

    def certify(i):
        if i not in dims:
            dims[i] = periodic_dimension([graph.edges[j] for j in found[i]])
        return dims[i]

    # most promising first; stop at the first screen that cannot come
    # within the margin of the best value so far (screened or certified)
    for i in sorted(range(len(found)), key=lambda i: screens[i][0]):
        if screens[i][0] > low + _SCREEN_MARGIN:
            break
        c = certify(i)
        low = min(low, _flog(c.sp_lo) / c.L)
    for i in sorted(range(len(found)), key=lambda i: screens[i][1],
                    reverse=True):
        if screens[i][1] + _SCREEN_MARGIN < high:
            break
        c = certify(i)
        high = max(high, _flog(c.sp_hi) / c.L)
    if not dims:
        return CycleEnumeration(tuple(found), truncated, None, None)
    certified = [c for _, c in sorted(dims.items())]
    return CycleEnumeration(
        tuple(found), truncated,
        min(certified, key=lambda c: _flog(c.sp_lo) / c.L),
        max(certified, key=lambda c: _flog(c.sp_hi) / c.L))


# ----------------------------------------------------------------------------
# pseudo-norms and certified outer bounds
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class NormBounds:
    depth: int
    min_norm: Fraction | int          # best lower functional over all products
    max_norm: Fraction | int          # best upper functional over all products
    path_count: int
    charged: int                      # units charged against path_budget by
                                      # each side to where it stopped; row
                                      # families left out are not charged


# How many of the vectors already kept at a vertex each candidate is checked
# against for dominance, in order of their sums. A full Pareto filter is
# quadratic in the frontier, and the frontiers of most Cantor classes are
# wide sets of incomparable vectors; the first few kept vectors catch nearly
# every dominated one.
_DOMINANCE_WINDOW = 4


def _prune(candidates, upper):
    """The candidates no earlier-kept vector dominates: from above (every
    entry >=) when ``upper``, else from below (every entry <=). Exact
    duplicates collapse. Candidates are taken in order of their sums, the
    largest first when ``upper``, so a dominating vector comes before the
    vectors it dominates, and each is checked against the first
    ``_DOMINANCE_WINDOW`` kept vectors only. One or two candidates, most
    of the calls, skip the dedupe and the sort with the same result; a list
    of one comes back as it is."""
    if len(candidates) == 1:
        return candidates
    holds = operator.ge if upper else operator.le
    if len(candidates) == 2:
        a, b = candidates
        if a == b:
            return [a]
        if sum(b) > sum(a) if upper else sum(b) < sum(a):
            a, b = b, a
        return [a] if all(map(holds, a, b)) else [a, b]
    kept = []
    for u in sorted(dict.fromkeys(candidates), key=sum, reverse=upper):
        if not any(all(map(holds, w, u))
                   for w in kept[:_DOMINANCE_WINDOW]):
            kept.append(u)
    return kept


def _walk_count(into, depth):
    """Number of ``depth``-step walks from every vertex, counted on the
    reversed adjacency ``into``."""
    count = dict.fromkeys(into, 1)
    for _ in range(depth):
        count = {w: sum(count[v] for v, _ in sources)
                 for w, sources in into.items()}
    return sum(count.values())


def _norm_pass(into, families, depth, cap):
    """``(bests, reached, charged)``: the extremes of each functional family
    over the products along every ``reached``-step walk on one side, all
    families in one layered sweep of ``depth`` layers or up to the first
    that would take the units charged past ``cap``.

    ``into[w]`` lists ``(v, matrix)`` for each edge ``v -> w`` of the side,
    with every vertex a key and every matrix compiled. A family
    ``(upper, value, starts)`` carries the row vectors ``starts[v]`` along
    the walks from ``v``, multiplying by each matrix in turn, and takes the
    maximum of ``value`` over the last vectors when ``upper``, else the
    minimum (None where no walk exists). Layer by layer, the vectors carried
    into each vertex become its frontier. On an inner layer ``_prune`` drops
    the dominated ones: ``value`` is nondecreasing in every entry and every
    matrix is nonnegative, so a dominated vector leads only to values its
    dominator matches or beats. The last layer is only read, so each vertex
    keeps just its first vector of extreme ``value``. Within a layer each
    distinct matrix (one object, as a built graph's equal matrices are)
    multiplies each distinct vector once, for every family and every edge
    of that matrix that carries it.
    A layer that leaves a family's frontier unchanged (the same vectors in
    the same order at every vertex) settles it: every later layer would
    repeat it, so the family takes no more products or prunes. After the
    sweep, whether it ran every layer or stopped at ``cap``, each family's
    extreme is read from the frontier it holds, settled or not: each vector
    dropped on the way leaves a kept one whose value matches or beats its
    own, so this is the extreme of enumerating every walk. A family is
    charged one unit per (frontier vector, out-edge) pair before each
    layer's products, and the pass charges its largest family total. A
    family's frontier holds at most one vector per walk, so this never
    exceeds the number of walk prefixes, and on a simple loop equals it.
    """
    outdeg = Counter(v for sources in into.values() for v, _ in sources)
    frontiers = [{v: _prune(vecs, upper) for v, vecs in starts.items()}
                 for upper, _, starts in families]
    charges = [0] * len(families)
    settled = [False] * len(families)
    reached = 0
    for step in range(depth):
        totals = [charge + sum(len(vecs) * outdeg[v]
                               for v, vecs in frontier.items())
                  for charge, frontier in zip(charges, frontiers)]
        if max(totals) > cap:
            break
        charges, reached = totals, step + 1
        last = step == depth - 1
        live = [i for i, done in enumerate(settled) if not done]
        layers = [frontier if done else {}
                  for frontier, done in zip(frontiers, settled)]
        memos = {}  # id(matrix) -> {vector: vector times matrix}
        for w, sources in into.items():
            cands = [[] for _ in live]
            for v, matrix in sources:
                products = memos.get(id(matrix))
                if products is None:
                    products = memos[id(matrix)] = {}
                for i, cand in zip(live, cands):
                    for u in frontiers[i].get(v, ()):
                        p = products.get(u)
                        if p is None:
                            p = products[u] = tuple(vec_mat(u, matrix))
                        cand.append(p)
            for i, cand in zip(live, cands):
                if cand:
                    upper, value, _ = families[i]
                    layers[i][w] = ([(max if upper else min)(cand, key=value)]
                                    if last else _prune(cand, upper))
        for i in live:
            settled[i] = layers[i] == frontiers[i]
        frontiers = layers
    bests = [(max if upper else min)(
        (value(u) for vecs in frontier.values() for u in vecs), default=None)
        for (upper, value, _), frontier in zip(families, frontiers)]
    return bests, reached, max(charges)


def _probe(col_into, transposed, family, start, depth):
    """The value of one ``depth``-step walk on the row side from ``start``,
    taken greedily: each step takes the out-edge whose product of the carried
    vector has the family's extreme value (the first such edge). The row
    side's edges out of ``w`` are the column side's edges into it,
    ``col_into[w]``, each crossed by ``transposed[id(M)]``. None when the
    walk reaches a vertex with no such edge."""
    upper, value, starts = family
    pick = max if upper else min
    w, u = start, starts[start][0]
    for _ in range(depth):
        if not col_into[w]:
            return None
        w, u = pick(((v, vec_mat(u, transposed[id(matrix)]))
                     for v, matrix in col_into[w]),
                    key=lambda step: value(step[1]))
    return value(u)


def norm_bounds(graph: TransitionGraph, members, depth: int, subsets=(),
                path_budget: int = 20_000_000) -> NormBounds | None:
    """Confine the class's per-step spectral range with exact pseudo-norms of
    every admissible product of ``depth`` primitive matrices, or of fewer
    where ``path_budget`` stops the sweep; None when not even one step fits.
    Every member needs an internal out-edge, as in a loop class.

    Because row-sum and column-sum functionals are sound simultaneously
    (min flavors are supermultiplicative lower tools, max flavors
    submultiplicative upper tools), both are evaluated and the tighter side
    kept: the lower bound is the largest of min-column, min-row, and the
    subset-restricted variants; the upper bound is the smaller of max-column
    and max-row. ``subsets`` lists the index tuples to try in the same
    sweep, each of 1-based indices valid for every member.

    Each side has one reversed adjacency of compiled matrices:
    ``col_into[w]`` holds ``(v, M)`` for every internal edge ``v -> w`` and
    gives the column sums of the products; ``row_into[v]`` holds
    ``(w, M^T)``, transposed once per distinct compiled ``M``, and gives the
    column sums of the transposed products, which are the row sums. Each
    side is one ``_norm_pass`` sweep of ``(upper, value, starts)``
    families: the max column sum, the min column sum, then one restricted
    min per subset, sharing each (edge, vector) product within a layer.
    Each family's extreme, and ``path_count`` from ``_walk_count`` on
    ``col_into``, are those of enumerating every walk.

    The row side sweeps only the families that could tighten the column
    side's bounds (branch and bound, as in the cycle search). One greedy
    ``_probe`` walk per family, from the smallest member, gives a value that
    a real row-side walk attains, so the family's extreme is at least it for
    the max family and at most it for a min family. A max family whose probe
    is at least the column max cannot lower ``max_norm``; a min family whose
    probe is at most the largest column lower value cannot raise
    ``min_norm``: both are left out of the row sweep, which is not run when
    no family is left. A probe that cannot finish its walk leaves its family
    in. So the bounds are those of sweeping every family.
    ``path_budget`` caps the units charged by the column-sum side and then
    the row-sum side, whose total is ``charged``. The column side's depth
    reached is the bounds' ``depth``, at which the probes and the row side
    run; a row side stopped short of it is dropped, its values being of
    another depth, and the column side's bounds stand on their own.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ms = sorted(set(members))
    sizes = {v: len(graph.cv(v).neighbours) for v in ms}
    min_neigh = min(sizes.values())
    checked: list[tuple[int, ...]] = []
    for s in subsets:
        idx = tuple(sorted(set(int(c) for c in s)))
        if not idx or idx[0] < 1 or idx[-1] > min_neigh:
            raise SubsetInvalidForClass(
                f"subset {idx} invalid: some member has only "
                f"{min_neigh} neighbours")
        if idx not in checked:
            checked.append(idx)

    internal = graph.internal_out(ms)
    if not all(internal.values()):
        raise ValueError("a member has no internal out-edge")
    col_into = {v: [] for v in ms}
    for v in ms:
        for _, e in internal[v]:
            col_into[e.child].append((v, e.sparse))
    row_into = {v: [] for v in ms}
    transposed = {}  # id(M) -> M^T, one per distinct compiled matrix
    for w, sources in col_into.items():
        for v, matrix in sources:
            if id(matrix) not in transposed:
                transposed[id(matrix)] = matrix.transposed()
            row_into[v].append((w, transposed[id(matrix)]))

    ones = {v: [(1,) * n] for v, n in sizes.items()}
    families = [(True, max, ones), (False, min, ones)] + [
        (False, lambda vec, idx0=tuple(k - 1 for k in idx):
         min(map(vec.__getitem__, idx0)),
         {v: [tuple(int(j in idx) for j in range(1, n + 1))]
          for v, n in sizes.items()})
        for idx in checked]
    (max_col, min_col, *sub_col), depth, charged = _norm_pass(
        col_into, families, depth, path_budget)
    if not depth:
        return None
    lo_col = max(x for x in [min_col] + sub_col if x is not None)

    def beaten(family):
        x = _probe(col_into, transposed, family, ms[0], depth)
        return x is not None and (x >= max_col if family[0] else x <= lo_col)

    swept = [family for family in families if not beaten(family)]
    lows, highs = [lo_col], [max_col]
    if swept:
        bests, reached, units = _norm_pass(row_into, swept, depth,
                                           path_budget - charged)
        charged += units
        if reached == depth:  # else its values are at another depth
            for (upper, _, _), x in zip(swept, bests):
                (highs if upper else lows).append(x)
    return NormBounds(depth=depth, min_norm=max(lows), max_norm=min(highs),
                      path_count=_walk_count(col_into, depth),
                      charged=charged)


# ----------------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassDimSet:
    loop_class: LoopClass
    min_cycle: CycleDim | None            # the cycle search's extremes
    max_cycle: CycleDim | None
    outer: NormBounds | None              # None when no depth fits
    point: CycleDim | None                # a simple loop's own cycle
    dim_inner: tuple[float, float] | None  # certified ends, from _dims
    dim_outer: tuple[float, float] | None
    exact_point: float | None             # the midpoint of point's ends
    cycle_len: int
    cycles_truncated: bool = False

    @property
    def members(self):
        return self.loop_class.members

    @property
    def bound_len(self) -> int:
        return self.outer.depth if self.outer else 0


ISOLATED = "ISOLATED"
UNDECIDED = "UNDECIDED"
NOT_ISOLATED = "NOT_ISOLATED"

# Dimension values closer than this are one point: a point value within it of
# an interval touches that interval, intervals this close merge, and an outer
# bracket no wider prints as a point.
POINT_TOL = 1e-9


@dataclass(frozen=True)
class IsolatedPoint:
    value: float
    status: str
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DimensionReport:
    model: Model
    cv_count: int
    classes: tuple[ClassDimSet, ...]
    dim_zero: float
    isolated: tuple[IsolatedPoint, ...]
    global_inner: tuple[tuple[float, float], ...]
    global_outer: tuple[tuple[float, float], ...]

    @property
    def essential(self) -> ClassDimSet:
        for c in self.classes:
            if c.loop_class.is_essential:
                return c
        raise LookupError("no essential class in report")

    @property
    def essential_size(self) -> int:
        return len(self.essential.members)

    def isolated_values(self, status=ISOLATED):
        return [p.value for p in self.isolated if p.status == status]


def _merge_intervals(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + POINT_TOL:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _simple_loop_cycle(graph: TransitionGraph, members):
    """The unique internal cycle of a simple-loop class, as an edge list."""
    internal = graph.internal_out(members)
    edges = [internal[min(members)][0][1]]
    while edges[-1].child != edges[0].parent:
        edges.append(internal[edges[-1].child][0][1])
    return edges


def _auto_subsets(min_neigh):
    """Every contiguous width-3 window of 1-based indices, for a class whose
    members have at least ``min_neigh`` neighbours. On the catalog no other
    family sets a lower bound: not width-2 windows, and not the full index
    set, which is the plain min family run again where every member has
    ``min_neigh`` neighbours."""
    return [(s, s + 1, s + 2) for s in range(1, min_neigh - 1)]


def analyze_class(graph: TransitionGraph, lc: LoopClass, cycle_len: int,
                  bound_len: int, subset, cycle_budget: int,
                  path_budget: int) -> ClassDimSet:
    """Inner and outer dimension ranges of one loop class. The lower norm
    tries every width-3 window and, unless ``subset`` is ``"auto"``, that
    index tuple when no index exceeds a member's neighbour count. The outer
    range is of ``bound_len`` steps, or as many as ``path_budget`` allows."""
    members = lc.members
    min_neigh = min(len(graph.cv(v).neighbours) for v in members)
    subsets = _auto_subsets(min_neigh)
    if subset != "auto" and max(subset, default=0) <= min_neigh:
        subsets.append(tuple(subset))

    nb = norm_bounds(graph, members, bound_len, subsets=subsets,
                     path_budget=path_budget)
    # a simple loop's longer walks are powers of its loop, which tie with it
    search_len = (min(cycle_len, len(members)) if lc.is_simple_loop
                  else cycle_len)
    enum = enumerate_cycles(graph, members, search_len, budget=cycle_budget)
    lo, hi = enum.min_cycle, enum.max_cycle
    point = (periodic_dimension(_simple_loop_cycle(graph, members))
             if lc.is_simple_loop else None)

    def dims(c):
        return _dims(graph.model, c.sp_lo, c.sp_hi, c.L)

    return ClassDimSet(  # dimension falls as the per-step value rises
        loop_class=lc, min_cycle=lo, max_cycle=hi, outer=nb, point=point,
        dim_inner=(dims(hi)[0], dims(lo)[1]) if lo else None,
        dim_outer=_dims(graph.model, nb.min_norm, nb.max_norm, nb.depth)
        if nb else None,
        exact_point=sum(dims(point)) / 2 if point else None,
        cycle_len=cycle_len, cycles_truncated=enum.truncated)


def assemble_report(model: Model, graph: TransitionGraph, classes=None,
                    cycle_len: int = 10, bound_len: int = 8, subset="auto",
                    cycle_budget: int = 2_000_000,
                    path_budget: int = 20_000_000) -> DimensionReport:
    """Full per-class and global dimension analysis of a closed graph.
    ``subset`` is ``"auto"`` or an index tuple, as in ``analyze_class``."""
    if classes is None:
        classes = classify_all(graph)
    dz = dim_at_zero(model)
    sets = [analyze_class(graph, lc, cycle_len, bound_len, subset,
                          cycle_budget, path_budget) for lc in classes]

    tol = POINT_TOL
    # One (inner, outer) span per class; a point class's span is its point.
    # A class with no outer bound spans every dimension, which are >= 0.
    spans = [((p, p), (p, p)) if (p := cs.exact_point) is not None
             else (cs.dim_inner, cs.dim_outer or (0.0, math.inf))
             for cs in sets]
    # Exact points (simple-loop classes) join, in class order, the first
    # group whose point is within tol. A point class spans only its point,
    # so it holds another only within tol, where both are one point: only
    # classes without a point can block one. A point is isolated when it
    # avoids their outer ranges, undecided when it avoids only the inner.
    groups = {}  # first point of each group -> its classes
    for cs in sets:
        if (p := cs.exact_point) is not None:
            first = next((q for q in groups if abs(q - p) <= tol), p)
            groups.setdefault(first, []).append(cs)
    blockers = [sp for cs, sp in zip(sets, spans) if cs.exact_point is None]

    def blocked(val, side):  # side 0: inner ranges, 1: outer ranges
        return any(iv and iv[0] - tol <= val <= iv[1] + tol
                   for iv in (sp[side] for sp in blockers))

    iso = [IsolatedPoint(value=val, status=NOT_ISOLATED if blocked(val, 0)
                         else UNDECIDED if blocked(val, 1) else ISOLATED,
                         classes=tuple(c.members for c in carriers))
           for val, carriers in sorted(groups.items())]

    return DimensionReport(
        model=model, cv_count=len(graph), classes=tuple(sets), dim_zero=dz,
        isolated=tuple(iso),
        global_inner=_merge_intervals(i for i, _ in spans if i),
        global_outer=_merge_intervals(o for _, o in spans if o))
