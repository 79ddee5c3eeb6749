"""Graph container: closure, strings, components, isomorphism search."""

import pytest

from krcrystals import crystal_core
from krcrystals.cartan import Shape, weyl_dimension
from krcrystals.crystal_core import CrystalGraph, generate_closure, greedy_raise
from krcrystals.tableaux import SignatureTable, tableau_weight

from oracles import (
    first_color_raise,
    isomorphism,
    letter_e,
    letter_f,
    letter_weight,
    vertex_index,
)


def letter_neighbours(ctype, n, colors):
    def neighbours(x):
        return [(i, letter_f(ctype, n, i, x), letter_e(ctype, n, i, x)) for i in colors]

    return neighbours


def letter_graph(ctype, n, colors):
    neighbours = letter_neighbours(ctype, n, colors)
    return generate_closure([1], colors, neighbours, lambda x: letter_weight(x, n))


def tableau_graph(ctype, n, colors, shapes):
    seeds = [
        (tuple(tuple(range(1, h + 1)) for h in sh.columns()), (1,) * n if sh.spin else None)
        for sh in shapes
    ]
    return generate_closure(
        seeds,
        colors,
        SignatureTable(ctype, n, colors).neighbours,
        lambda el: tableau_weight(n, *el),
    )


def test_closure_of_letter_chain():
    g = letter_graph("C", 2, (1, 2))
    assert len(g) == 4
    at = vertex_index(g)
    one = at[1]
    assert g.phi(1, one) == 1 and g.eps(1, one) == 0
    assert g.weights[one] == (2, 0)
    barone = at[-1]
    assert g.eps(1, barone) == 1 and g.phi(1, barone) == 0
    # string walk: 1 ->1 2 ->2 bar2 ->1 bar1
    x = one
    for i in (1, 2, 1):
        x = g.f[i].get(x)
    assert g.elements[x] == -1
    assert g.f[1].get(x) is None


def test_closure_bound_and_conflicts(monkeypatch):
    neighbours = letter_neighbours("C", 3, (1, 2, 3))
    monkeypatch.setattr(crystal_core, "VERTEX_BOUND", 3)
    with pytest.raises(RuntimeError, match="exceeded 3 vertices"):
        generate_closure([1], (1, 2, 3), neighbours, lambda x: (0,))

    def two_sources(x):
        # two different starts claim the same f_1 target
        return [(1, "c" if x in ("a", "b") else None, None)]

    with pytest.raises(RuntimeError, match="not injective"):
        generate_closure(["a", "b"], (1,), two_sources, lambda x: (0,))

    def two_targets(x):
        # f_1 at a gives b, but e_1 at c claims f_1 a = c
        return [(1, "b" if x == "a" else None, "a" if x == "c" else None)]

    with pytest.raises(RuntimeError, match="conflicting f_1 arrow at 'a'"):
        generate_closure(["a", "c"], (1,), two_targets, lambda x: (0,))

    def late_f(x):
        # e_1 at b claims f_1 a = b before f_1 at a, reached later, says c
        return [(1, "c" if x == "a" else None, "a" if x == "b" else None)]

    with pytest.raises(RuntimeError, match="conflicting f_1 arrow at 'a'"):
        generate_closure(["b", "a"], (1,), late_f, lambda x: (0,))


def test_components_and_decomposition():
    shapes = [Shape((2,)), Shape((1, 1))]
    g = tableau_graph("C", 2, (1, 2), shapes)
    comps = g.components(g.colors)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)  # by least vertex
    assert sorted(len(c) for c in comps) == sorted(
        weyl_dimension("C", 2, sh.weight(2)) for sh in shapes
    )
    assert g.decomposition(g.colors) == sorted(sh.weight(2) for sh in shapes)
    assert len(g.highest_vertices(g.colors)) == 2


def descend(g, path, top):
    """f_i^k along the reversed (color, length) segments from top."""
    y = top
    for i, k in reversed(path):
        for _ in range(k):
            y = g.f[i][y]
    return y


def test_raise_path_returns_to_highest():
    g = tableau_graph("B", 2, (1, 2), [Shape((1, 1))])
    hi = g.highest_vertices(g.colors)[0]
    x, steps = hi, 0
    for i in (2, 2, 1, 1):
        y = g.f[i].get(x)
        if y is not None:
            x, steps = y, steps + 1
    assert steps == 4
    path, top = g.raise_path(x, (1, 2))
    assert top == hi
    assert sum(k for _, k in path) == 4
    assert descend(g, path, top) == x


@pytest.mark.parametrize(
    "ctype,n,rank,shapes",
    [
        ("A", 4, 3, [Shape((2, 1)), Shape((1, 1))]),
        ("B", 3, 3, [Shape((2, 1))]),
        ("C", 3, 3, [Shape((2, 1))]),
        ("D", 4, 4, [Shape((1, 1)), Shape((2,))]),
    ],
)
def test_sweep_raise_agrees_with_first_color_rule(ctype, n, rank, shapes):
    # raising whole strings, on the graph's arrows or by one signature pass
    # per segment, reaches the same highest vertex as restarting from the
    # first color after each single step; every segment is a whole string,
    # and f^k undoes the path
    g = tableau_graph(ctype, n, tuple(range(1, rank + 1)), shapes)
    string, at = SignatureTable(ctype, n, g.colors).string, vertex_index(g)

    def jump(i, x):
        top, k = string(g.elements[x], i, "e")
        return (at[top], k) if k else None

    for colors in (tuple(range(1, rank + 1)), tuple(range(2, rank + 1))):
        for x in range(len(g)):
            path, top = g.raise_path(x, colors)
            assert greedy_raise(x, colors, jump) == (path, top)
            assert top == first_color_raise(x, colors, lambda i, y: g.e[i].get(y))[1]
            assert all(g.e[i].get(top) is None for i in colors)
            assert all(k > 0 for _, k in path)
            y = top
            for i, k in reversed(path):
                assert g.eps(i, y) == 0 and g.phi(i, y) >= k
                y = descend(g, [(i, k)], y)
            assert y == x


def test_graph_keeps_the_objects_it_is_given():
    # no copy and no element index: the graph owns its builder's lists and dicts
    elements, weights, f1, f0 = ["a", "b", "c"], [(2,), (0,), (-2,)], {0: 1, 1: 2}, {2: 0}
    g = CrystalGraph(elements, (1,), {1: f1}, weights)
    assert g.elements is elements and g.weights is weights and g.f[1] is f1
    g.add_color(0, f0)
    assert g.f[0] is f0 and g.colors == (0, 1)
    assert not hasattr(g, "index")


def test_decomposition_rejects_multiple_tops():
    # two disjoint copies of the same chain share one component's worth of
    # weights; a fake graph with two tops in one component must raise
    g = CrystalGraph(["a", "b", "c"], (1,), {1: {0: 2}}, [(0,), (0,), (0,)])
    # component {a, c} has one top (a); component {b} is fine
    assert g.decomposition(g.colors) == [(0,), (0,)]
    bad = CrystalGraph(["a", "b"], (1,), {1: {}}, [(0,), (0,)])
    assert bad.decomposition(bad.colors) == [(0,), (0,)]  # two singleton components
    joined = CrystalGraph(
        ["a", "b", "c"], (1, 2), {1: {0: 1}, 2: {2: 1}}, [(0,)] * 3
    )
    with pytest.raises(ValueError, match="component has 2 highest vertices, expected 1"):
        joined.decomposition(joined.colors)


def test_cyclic_string_raises_instead_of_hanging(time_limit):
    # a color is refused where the graph is made, at the least vertex on a
    # cycle; a refused added color leaves the graph as it was
    weights = [(0,)] * 4
    with pytest.raises(RuntimeError, match="^f_1 string does not end at vertex 1$"):
        CrystalGraph("abcd", (1,), {1: {0: 3, 2: 1, 1: 2}}, weights)
    with pytest.raises(RuntimeError, match="^f_1 arrows are not injective$"):
        CrystalGraph("abcd", (1,), {1: {0: 3, 2: 1, 1: 3}}, weights)
    chain = CrystalGraph("abcd", (1,), {1: {0: 1, 1: 2}}, weights)
    assert chain.phi(1, 0) == 2 and chain.eps(1, 2) == 2  # longest string is fine
    for arrows, message in (({3: 2, 2: 3}, "string does not end at vertex 2"),
                            ({0: 2, 1: 2}, "arrows are not injective")):
        with pytest.raises(RuntimeError, match=f"^f_0 {message}$"):
            chain.add_color(0, arrows)
        assert chain.colors == (1,) and set(chain.f) == set(chain.e) == {1}
    chain.add_color(0, {2: 3})
    assert chain.colors == (0, 1) and chain.strings(0) == ([0, 0, 0, 1], [0, 0, 1, 0])


def test_isomorphism_identity_and_relabel():
    g = letter_graph("C", 2, (1, 2))
    h = letter_graph("C", 2, (1, 2))
    mapping = isomorphism(g, h)
    assert mapping is not None
    assert all(h.elements[mapping[x]] == g.elements[x] for x in mapping)
    # color swap breaks the chain pattern 1,2,1
    assert isomorphism(g, h, color_map={1: 2, 2: 1}) is None


def test_isomorphism_detects_mismatch():
    g = letter_graph("C", 2, (1, 2))
    h = letter_graph("B", 2, (1, 2))
    assert isomorphism(g, h) is None


def test_isomorphism_nontrivial_relabel():
    # the type D letter fork is symmetric under swapping its last two colors
    g = generate_closure([1], (1, 2, 3), letter_neighbours("D", 3, (1, 2, 3)), lambda x: (0,))
    swap = {1: 1, 2: 3, 3: 2}
    mapping = isomorphism(g, g, color_map=swap)
    assert mapping is not None
    # the swap exchanges the two middle letters 3 and bar 3
    at = vertex_index(g)
    three, barthree = at[3], at[-3]
    assert mapping[three] == barthree and mapping[barthree] == three
    assert mapping[at[1]] == at[1]


def test_isomorphisms_yields_every_automorphism():
    # two 1-chains crosslinked by 2-arrows; swapping the chains is the
    # only nontrivial color-preserving symmetry
    g = CrystalGraph(
        ["s1", "s2", "t1", "t2"],
        (1, 2),
        {1: {0: 2, 1: 3}, 2: {0: 3, 1: 2}},
        [(0,)] * 4,
    )
    maps = list(g.isomorphisms(g, {1: 1, 2: 2}, g.colors))
    assert len(maps) == 2
    assert {tuple(sorted(m.items())) for m in maps} == {
        ((0, 0), (1, 1), (2, 2), (3, 3)),
        ((0, 1), (1, 0), (2, 3), (3, 2)),
    }


def test_isomorphisms_twisted_color_map():
    # diamond: wings hang off the top by different colors, so the wing
    # swap exists only under the color swap
    g = CrystalGraph(
        ["top", "a", "b", "bot"],
        (1, 2),
        {1: {0: 1, 2: 3}, 2: {0: 2, 1: 3}},
        [(0,)] * 4,
    )
    assert list(g.isomorphisms(g, {1: 1, 2: 2}, g.colors)) == [{0: 0, 1: 1, 2: 2, 3: 3}]
    twisted = list(g.isomorphisms(g, {1: 2, 2: 1}, g.colors))
    assert twisted == [{0: 0, 1: 2, 2: 1, 3: 3}]


def _two_color_graph(size, f1, f2):
    return CrystalGraph(range(size), (1, 2), {1: f1, 2: f2}, [(0,)] * size)


@pytest.mark.parametrize(
    "mine,theirs,found",
    [
        # the anchor's f_1 image has an f_2 arrow on one side only
        ((3, {2: 0}, {0: 1}), (3, {2: 0}, {1: 0}), []),
        # f_1 and f_2 of the anchor meet in the other graph, not in this one
        ((3, {0: 2}, {0: 1}), (3, {2: 1}, {2: 1}), []),
        # f_1 and f_2 of the anchor meet in this graph, not in the other one
        ((3, {0: 1, 1: 2}, {0: 1}), (3, {1: 2, 2: 0}, {1: 0}), []),
        # the first anchor image clashes as in the first case, the second one maps
        ((4, {1: 0, 3: 2}, {0: 2}), (4, {1: 0, 3: 2}, {2: 0}), [{0: 2, 1: 3, 2: 0, 3: 1}]),
        # two components: the anchor's leaves the other one unmapped
        ((4, {0: 1, 2: 3}, {}), (4, {0: 1, 2: 3}, {}), []),
    ],
)
def test_isomorphism_search_refuses_a_clashing_anchor_image(mine, theirs, found):
    # every anchor image with the anchor's string vectors is tried; one whose
    # forced map clashes (an arrow on one side only, two vertices sent to one,
    # one vertex sent to two) or misses a vertex yields nothing
    g, h = _two_color_graph(*mine), _two_color_graph(*theirs)
    assert list(g.isomorphisms(h, {1: 1, 2: 2}, g.colors)) == found
