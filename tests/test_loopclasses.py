"""Loop-class decomposition, essential class, positivity search."""

import pytest

from finitype import loopclasses
from finitype.errors import EssentialClassNotUnique
from finitype.loopclasses import (
    Positivity,
    PositivityResult,
    classify_all,
    essential_class,
    maximal_loop_classes,
    positivity_certificate,
    strongly_connected_components,
)
from finitype.netgraph import build_graph

from conftest import catalog_graph
from test_graph_fingerprints import FINGERPRINT_NAMES


@pytest.fixture(scope="module")
def golden_graph(golden_model):
    return build_graph(golden_model)


@pytest.fixture(scope="module")
def sixmap_graph(cantor5_uniform_model):
    return build_graph(cantor5_uniform_model)


def test_scc_basic():
    adj = {1: [2], 2: [3], 3: [1, 4], 4: [4]}
    comps = strongly_connected_components(4, lambda v: adj.get(v, []))
    assert sorted(map(tuple, comps)) == [(1, 2, 3), (4,)]


def test_golden_maximal_classes(golden_graph):
    classes = maximal_loop_classes(golden_graph)
    assert [c.members for c in classes] == [(2,), (3, 5, 6), (4,)]


def test_golden_essential(golden_graph):
    ess = essential_class(golden_graph)
    assert ess.members == (3, 5, 6)
    assert ess.is_essential


def test_sixmap_classes(sixmap_graph):
    classes = maximal_loop_classes(sixmap_graph)
    assert [c.members for c in classes] == [(2,), (4, 5), (7,)]
    assert essential_class(sixmap_graph).members == (4, 5)


def test_golden_positivity(golden_graph):
    ess = essential_class(golden_graph)
    res = positivity_certificate(golden_graph, ess.members)
    assert res.verdict is Positivity.POSITIVE
    assert res.witness is not None
    # the witness is genuinely a positive product: verify by multiplying
    from finitype.dimcalc import product_along
    edges = []
    g = golden_graph
    path = res.witness
    for a, b in zip(path, path[1:]):
        cands = [e for e in g.out_edges(a) if e.child == b]
        edges.append(cands[0])
    prod = product_along(edges)
    assert all(all(v > 0 for v in row) for row in prod)


def test_golden_nonmaximal_subclass_not_positive(golden_graph):
    # The sub-loop through one of the two parallel return edges 5 -> 3 (the
    # one the non-reduced graph distinguishes) is not of positive type: 3 -> 5
    # is the identity and that return edge lower triangular, and lower
    # triangular matrices are closed under products, so every product along
    # it is [[1, 0], [n, 1]]. Mixing the two return edges fills the corner.
    from finitype.dimcalc import product_along
    g = golden_graph
    e35 = [e for e in g.out_edges(3) if e.child == 5][0]
    lower, upper = [e for e in g.out_edges(5) if e.child == 3]
    assert e35.matrix == ((1, 0), (0, 1))
    assert lower.matrix == ((1, 0), (1, 1))
    assert upper.matrix == ((1, 1), (0, 1))
    for n in range(1, 6):
        assert product_along([e35, lower] * n) == ((1, 0), (n, 1))
    mixed = product_along([e35, lower, e35, upper])
    assert all(x > 0 for row in mixed for x in row)
    res = positivity_certificate(g, (3, 5))
    assert res.verdict is Positivity.POSITIVE


def test_trivial_selfloop_positive(golden_graph):
    res = positivity_certificate(golden_graph, (2,))
    assert res.verdict is Positivity.POSITIVE
    assert res.witness == (2, 2)


def test_member_without_internal_edge_is_not_positive(golden_graph):
    # vertex 1 has no edge back to itself: the first layer is empty, so the
    # search exhausts at length 0 having explored no state
    assert positivity_certificate(golden_graph, (1,)) == PositivityResult(
        Positivity.NOT_POSITIVE, explored_states=0, exhausted_length=0)


def test_classify_all_golden(golden_graph):
    classes = classify_all(golden_graph)
    by_members = {c.members: c for c in classes}
    assert by_members[(2,)].is_simple_loop
    assert by_members[(4,)].is_simple_loop
    assert by_members[(2,)].positive
    ess = by_members[(3, 5, 6)]
    assert ess.is_essential and ess.positive and not ess.is_simple_loop


def test_classify_all_sixmap(sixmap_graph):
    classes = classify_all(sixmap_graph)
    by_members = {c.members: c for c in classes}
    assert set(by_members) == {(2,), (4, 5), (7,)}
    assert by_members[(4, 5)].is_essential
    assert by_members[(4, 5)].positive
    assert by_members[(2,)].is_simple_loop and by_members[(7,)].is_simple_loop


def test_classify_all_runs_one_scc_pass(golden_graph, sixmap_graph,
                                        monkeypatch):
    calls = []
    real = loopclasses.strongly_connected_components

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(loopclasses, "strongly_connected_components", counted)
    for g in (golden_graph, sixmap_graph):
        classify_all(g)
    assert calls == [len(golden_graph), len(sixmap_graph)]


def test_essential_is_terminal_scc(golden_graph, sixmap_graph):
    # condensation: the essential class is the unique SCC without exits
    for g in (golden_graph, sixmap_graph):
        ess = set(essential_class(g).members)
        comps = strongly_connected_components(len(g), g.children_of)
        terminal = []
        for comp in comps:
            ms = set(comp)
            if all(e.child in ms for v in comp for e in g.out_edges(v)):
                terminal.append(ms)
        assert terminal == [ess]


def test_every_vertex_in_at_most_one_class(golden_graph):
    classes = maximal_loop_classes(golden_graph)
    seen = set()
    for c in classes:
        assert not (seen & set(c.members))
        seen |= set(c.members)


def test_essential_not_unique_error():
    class FakeGraph:
        def __init__(self):
            self.edges = []

        def __len__(self):
            return 2

        def children_of(self, v):
            return [v]  # two disjoint self-loops, both child-closed

        def out_edges(self, v):
            class E:
                def __init__(self, p, c):
                    self.parent, self.child = p, c
                    self.multiplicity = 1
            return [E(v, v)]

    with pytest.raises(EssentialClassNotUnique):
        essential_class(FakeGraph())


# ----------------------------------------- positivity against the plain BFS

def _reference_positivity(graph, members, state_cap=500_000):
    """``positivity_certificate`` without the row-image memo: every product
    row is recomputed from the edge's row masks."""
    out_internal = {v: [e for _, e in out]
                    for v, out in graph.internal_out(members).items()}
    if not any(out_internal.values()):
        return PositivityResult(Positivity.NOT_POSITIVE, exhausted_length=0)

    def masks(matrix):
        return tuple(sum(1 << k for k, x in enumerate(row) if x)
                     for row in matrix), len(matrix[0])

    def full(rows, K):
        return all(r == (1 << K) - 1 for r in rows)

    def image(bits, next_masks):
        return _or_all(next_masks[j] for j in range(len(next_masks))
                       if bits >> j & 1)

    parent = {}
    layer = []
    for e in out_internal[min(members)]:
        rows, K = masks(e.matrix)
        if full(rows, K):
            return PositivityResult(Positivity.POSITIVE,
                                    witness=(e.parent, e.child),
                                    explored_states=1)
        state = (e.child, rows)
        if state not in parent:
            parent[state] = (None, e)
            layer.append(state)
    length = 1
    while layer:
        nxt = []
        for state in layer:
            mid, rows = state
            for e in out_internal[mid]:
                emasks, K = masks(e.matrix)
                new_state = (e.child, tuple(image(r, emasks) for r in rows))
                if new_state in parent:
                    continue
                if len(parent) >= state_cap:
                    return PositivityResult(Positivity.UNKNOWN,
                                            explored_states=len(parent))
                parent[new_state] = (state, e)
                if full(new_state[1], K):
                    path, cur = [], new_state
                    while cur is not None:
                        cur, edge = parent[cur]
                        path.append(edge)
                    path.reverse()
                    return PositivityResult(
                        Positivity.POSITIVE,
                        witness=tuple([path[0].parent]
                                      + [e.child for e in path]),
                        explored_states=len(parent))
                nxt.append(new_state)
        layer = nxt
        length += 1
    return PositivityResult(Positivity.NOT_POSITIVE,
                            explored_states=len(parent),
                            exhausted_length=length - 1)


def _or_all(values):
    acc = 0
    for v in values:
        acc |= v
    return acc


@pytest.mark.parametrize("name", [n for n in FINGERPRINT_NAMES
                                  if n != "bc_x3_plus_x2_minus_1"])
def test_positivity_matches_reference(name):
    g = catalog_graph(name)
    for c in maximal_loop_classes(g):
        # the default budget, and caps that stop most searches short (UNKNOWN
        # must come at the same state count as in the reference)
        for kw in ({}, {"state_cap": 1}, {"state_cap": 3}, {"state_cap": 10}):
            assert positivity_certificate(g, c.members, **kw) == \
                _reference_positivity(g, c.members, **kw), (name, c.members, kw)
