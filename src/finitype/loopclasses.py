"""Loop-class decomposition of the reduced transition graph.

Maximal loop classes are the strongly connected components that carry at
least one internal edge (self-loops count). Exactly one of them is closed
under taking children; that one is the essential class, and the theory for
regular-weight interval-supported systems guarantees it exists and is unique.

Positivity of a class is decided by a breadth-first closure over boolean
(zero/nonzero) matrix patterns of admissible products inside the class. The
pattern space is finite, so exhaustion without finding an all-nonzero
product is a proof of NOT_POSITIVE; a state cap turns the answer into
UNKNOWN instead of lying. Each distinct matrix of the class memoizes its
row images, and each distinct row's bit mask is taken once: on the
1809-vertex graph, 184,229 row products compute only 16,573 images.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EssentialClassNotUnique
from .netgraph import TransitionGraph


class Positivity(Enum):
    POSITIVE = "POSITIVE"
    NOT_POSITIVE = "NOT_POSITIVE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class PositivityResult:
    verdict: Positivity
    witness: tuple[int, ...] | None = None   # vertex path whose product is positive
    explored_states: int = 0
    exhausted_length: int | None = None      # longest layer reached on NOT_POSITIVE


@dataclass(frozen=True)
class LoopClass:
    members: tuple[int, ...]                 # ascending vertex ids
    is_essential: bool = False
    is_simple_loop: bool = False
    positivity: PositivityResult | None = None

    @property
    def positive(self) -> bool:
        return (self.positivity is not None
                and self.positivity.verdict is Positivity.POSITIVE)

    def label(self) -> str:
        return "[" + ", ".join(str(v) for v in self.members) + "]"


def strongly_connected_components(n: int, out_neighbours) -> list[list[int]]:
    """Iterative Tarjan over vertices 1..n; components in a deterministic order."""
    index = [0] * (n + 1)
    low = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for start in range(1, n + 1):
        if index[start]:
            continue
        work = [(start, iter(out_neighbours(start)))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out_neighbours(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def maximal_loop_classes(graph: TransitionGraph) -> list[LoopClass]:
    """SCCs with at least one internal edge, ordered by smallest member id."""
    comps = strongly_connected_components(len(graph), graph.children_of)
    classes = []
    for comp in comps:
        members = set(comp)
        internal = any(e.child in members
                       for v in comp for e in graph.out_edges(v))
        if internal:
            classes.append(LoopClass(members=tuple(comp)))
    classes.sort(key=lambda c: c.members[0])
    return classes


def _child_closed(graph, classes) -> LoopClass:
    """The one class among ``classes`` closed under taking children."""
    candidates = []
    for c in classes:
        members = set(c.members)
        if all(e.child in members for v in c.members for e in graph.out_edges(v)):
            candidates.append(c)
    if len(candidates) != 1:
        raise EssentialClassNotUnique(
            f"{len(candidates)} child-closed loop classes found; the reduced "
            f"graph is malformed")
    return candidates[0]


def essential_class(graph: TransitionGraph) -> LoopClass:
    """The unique maximal class closed under taking children."""
    c = _child_closed(graph, maximal_loop_classes(graph))
    return LoopClass(members=c.members, is_essential=True)


def positivity_certificate(graph: TransitionGraph, members,
                           state_cap: int = 500_000) -> PositivityResult:
    """Search the class for an admissible product with no zero entry.

    Breadth-first over (end, boolean pattern) states of products starting at
    the smallest member, one layer per product length, memoized, so the first
    hit is a minimal-length witness from that start. One start suffices for
    the class verdict: primitive matrices have no zero row or column, so a
    positive product anywhere extends to a positive product from any start.
    The pattern space is finite, so exhaustion proves NOT_POSITIVE; UNKNOWN
    only arises past ``state_cap``.
    """
    out_internal = graph.internal_out(members)
    start = min(members)

    # one pattern per distinct matrix and one mask per distinct row: a
    # built graph's equal matrices and rows are one object each
    masks: dict = {}
    patterns: dict = {}
    for out in out_internal.values():
        for _, e in out:
            if id(e.matrix) not in patterns:
                patterns[id(e.matrix)] = _EdgePattern(e.matrix, masks)

    parent = {}   # every state reached: (previous state, edge taken)
    layer = []
    for _, e in out_internal[start]:
        p = patterns[id(e.matrix)]
        state = (e.child, p.rows)
        if all(r == p.full for r in p.rows):
            return PositivityResult(Positivity.POSITIVE,
                                    witness=(e.parent, e.child),
                                    explored_states=1)
        if state not in parent:
            parent[state] = (None, e)
            layer.append(state)

    length = 1
    while layer:
        nxt = []
        for state in layer:
            mid, rows = state
            for _, e in out_internal[mid]:
                p = patterns[id(e.matrix)]
                new_rows = tuple(map(p.__getitem__, rows))
                new_state = (e.child, new_rows)
                if new_state in parent:
                    continue
                if len(parent) >= state_cap:
                    return PositivityResult(Positivity.UNKNOWN,
                                            explored_states=len(parent))
                parent[new_state] = (state, e)
                if all(r == p.full for r in new_rows):
                    return PositivityResult(
                        Positivity.POSITIVE,
                        witness=_witness(parent, new_state),
                        explored_states=len(parent))
                nxt.append(new_state)
        layer = nxt
        length += 1
    return PositivityResult(Positivity.NOT_POSITIVE,
                            explored_states=len(parent),
                            exhausted_length=length - 1)


class _EdgePattern(dict):
    """A matrix's pattern: ``rows`` are its row bit masks, ``full`` a row
    with no zero. As a dict, the row-image memo: a product row's bit
    pattern -> that row times the matrix, filled by ``_or_rows`` on a miss.
    ``masks`` maps ``id(row)`` to that row's mask, for patterns to share."""

    def __init__(self, matrix, masks):
        for row in matrix:
            if id(row) not in masks:
                masks[id(row)] = sum(1 << k for k, x in enumerate(row) if x)
        self.rows = tuple([masks[id(row)] for row in matrix])
        self.full = (1 << len(matrix[0])) - 1

    def __missing__(self, row_bits):
        image = self[row_bits] = _or_rows(row_bits, self.rows)
        return image


def _or_rows(row_bits, next_masks):
    acc = 0
    bits = row_bits
    while bits:
        j = (bits & -bits).bit_length() - 1
        acc |= next_masks[j]
        bits &= bits - 1
    return acc


def _witness(parent, state):
    edges = []
    while state is not None:
        state, edge = parent[state]
        edges.append(edge)
    edges.reverse()
    return tuple([edges[0].parent] + [e.child for e in edges])


def _simple_loop(graph, members) -> bool:
    """One directed cycle through the members; any parallel edge disqualifies."""
    # strong connectivity is given (members form an SCC); out-degree one
    # everywhere then forces a single cycle through all members
    return all(len(out) == 1 and out[0][1].multiplicity == 1
               for out in graph.internal_out(members).values())


def classify_all(graph: TransitionGraph) -> list[LoopClass]:
    """Maximal classes with essential, simple-loop and positivity flags set."""
    classes = maximal_loop_classes(graph)
    essential = _child_closed(graph, classes)
    return [LoopClass(members=c.members, is_essential=c is essential,
                      is_simple_loop=_simple_loop(graph, c.members),
                      positivity=positivity_certificate(graph, c.members))
            for c in classes]
