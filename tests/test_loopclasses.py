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
    # Restricted to one of the two parallel return edges (the sub-loop the
    # non-reduced graph distinguishes), every product stays lower triangular:
    # [[1,0],[n,1]]. With both parallel edges allowed the verdict flips,
    # since mixing orientations fills the corner.
    g = golden_graph
    e35 = [e for e in g.out_edges(3) if e.child == 5][0]
    lower, upper = [e for e in g.out_edges(5) if e.child == 3]
    res = positivity_certificate(g, (3, 5), edges=[e35, lower])
    assert res.verdict is Positivity.NOT_POSITIVE
    assert res.exhausted_length is not None
    res2 = positivity_certificate(g, (3, 5))
    assert res2.verdict is Positivity.POSITIVE


@pytest.mark.parametrize("ends", [[(3, 5), (5, 6)], [(3, 5), (6, 3)]])
def test_restricted_positivity_rejects_edges_leaving_class(golden_graph, ends):
    # 5 -> 6 leaves the class (3, 5) through its child, 6 -> 3 through its
    # parent; neither may end up in a witness
    g = golden_graph
    edges = [next(e for e in g.out_edges(a) if e.child == b) for a, b in ends]
    with pytest.raises(ValueError):
        positivity_certificate(g, (3, 5), edges=edges)


def test_trivial_selfloop_positive(golden_graph):
    res = positivity_certificate(golden_graph, (2,))
    assert res.verdict is Positivity.POSITIVE
    assert res.witness == (2, 2)


def test_not_positive_stable_under_longer_search(golden_graph):
    g = golden_graph
    e35 = [e for e in g.out_edges(3) if e.child == 5][0]
    lower = [e for e in g.out_edges(5) if e.child == 3][0]
    sub = [e35, lower]
    shallow = positivity_certificate(g, (3, 5), edges=sub, max_len=4)
    deep = positivity_certificate(g, (3, 5), edges=sub, max_len=None)
    # a shallow search can only abstain, never contradict the complete one
    assert shallow.verdict in (Positivity.NOT_POSITIVE, Positivity.UNKNOWN)
    assert deep.verdict is Positivity.NOT_POSITIVE


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

def _reference_positivity(graph, members, max_len=None, state_cap=500_000,
                          edges=None):
    """``positivity_certificate`` without the row-image memo: every product
    row is recomputed from the edge's row masks."""
    members = tuple(sorted(members))
    restricted = edges is not None
    if restricted:
        out_internal = {v: [] for v in members}
        for e in edges:
            out_internal[e.parent].append(e)
    else:
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
    for s in (members if restricted else (members[0],)):
        for e in out_internal[s]:
            rows, K = masks(e.matrix)
            if full(rows, K):
                return PositivityResult(Positivity.POSITIVE,
                                        witness=(e.parent, e.child),
                                        explored_states=1)
            state = (e.parent, e.child, rows)
            if state not in parent:
                parent[state] = (None, e)
                layer.append(state)
    length = 1
    while layer:
        if max_len is not None and length >= max_len:
            return PositivityResult(Positivity.UNKNOWN,
                                    explored_states=len(parent))
        nxt = []
        for state in layer:
            s, mid, rows = state
            for e in out_internal[mid]:
                emasks, K = masks(e.matrix)
                new_state = (s, e.child,
                             tuple(image(r, emasks) for r in rows))
                if new_state in parent:
                    continue
                if len(parent) >= state_cap:
                    return PositivityResult(Positivity.UNKNOWN,
                                            explored_states=len(parent))
                parent[new_state] = (state, e)
                if full(new_state[2], K):
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
        internal = [e for out in g.internal_out(c.members).values()
                    for _, e in out]
        # the whole class, a shallow search, every internal edge from every
        # start, and only each member's first internal out-edge
        runs = [{}, {"max_len": 3}, {"edges": internal},
                {"edges": [out[0][1] for out in
                           g.internal_out(c.members).values() if out]}]
        for kw in runs:
            assert positivity_certificate(g, c.members, **kw) == \
                _reference_positivity(g, c.members, **kw), (name, c.members, kw)
