"""Builder routes: desk-sized oracles for every family."""

import ast
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krcrystals import kr_builders
from krcrystals import pm_diagrams as pm
from krcrystals import tableaux
from krcrystals.cartan import FAMILIES, AffineSpec, Shape, kr_decomposition, kr_dimension
from krcrystals.cli import graph_document, main, to_dot
from krcrystals.crystal_core import VERTEX_BOUND, CrystalGraph, generate_closure
from krcrystals.kr_builders import (
    SignTriple,
    build_kr,
    classical_model,
    route,
    sigma_spin_D,
    triple_rules,
    _build_virtual,
    _locate_tops,
)
from krcrystals.verify import _CHECKS, SUITES, default_grid, search_sigma

from oracles import (
    element_local_fold,
    enumerate_tableaux,
    isomorphism,
    perfect_level,
    phi_direct,
    promotion,
    tableau_ok,
    tableau_phi,
    tableau_phi_table,
    vertex_index,
    weyl_sum,
)

ROOT = Path(__file__).resolve().parent.parent


# -- promotion route (type A) --------------------------------------------------

def test_promotion_single_box():
    assert promotion(((1,),), 3) == ((2,),)
    assert promotion(((3,),), 3) == ((1,),)
    assert promotion(((2,),), 3) == ((3,),)


def test_promotion_rejects_ragged_shape():
    with pytest.raises(ValueError):
        promotion(((1, 2), (1,)), 3)


@pytest.mark.parametrize("cols", [((1, 1),), ((2,), (1,))], ids=["column", "row"])
def test_promotion_check_catches_a_non_semistandard_output(cols):
    # a repeated letter down a column and a descent along a row both survive
    # the jeu de taquin, and the check on the output names the input
    with pytest.raises(RuntimeError) as err:
        promotion(cols, 3)
    assert str(err.value) == f"promotion broke semistandardness on {cols}"


def test_promotion_output_satisfies_the_kn_rules():
    # every rectangle over 1..n, n <= 4 and r*s <= 6, against the type A rules
    checked = 0
    for n in range(2, 5):
        for r in range(1, n + 1):
            for s in range(1, 6 // r + 1):
                for cols, _ in enumerate_tableaux("A", n, Shape((s,) * r)):
                    assert tableau_ok("A", n, promotion(cols, n)), (n, cols)
                    checked += 1
    assert checked == 434


def test_promotion_cycles_with_order_n():
    for r, s in [(1, 1), (2, 2), (1, 3)]:
        for cols, _ in enumerate_tableaux("A", 3, Shape((s,) * r)):
            out = cols
            for _ in range(3):
                out = promotion(out, 3)
            assert out == cols


@given(st.integers(0, 19))
def test_promotion_rotates_content(k):
    elems = list(enumerate_tableaux("A", 3, Shape((2, 2))))
    cols, _ = elems[k % len(elems)]
    before = tableaux.tableau_weight(3, cols, None)
    after = tableaux.tableau_weight(3, promotion(cols, 3), None)
    assert after == (before[-1],) + before[:-1]


# every A1 spec with n <= 6 and s <= 3, and two past them: at n = 2 no color
# carries pr along, and A1 7,3,3 (4,116 vertices) carries it along five
ZERO_EDGE_SPECS = [
    *((n, r, s) for n in range(2, 7) for r in range(1, n) for s in range(1, 4)),
    (2, 1, 5), (7, 3, 3),
]


def test_promotion_zero_edges_conjugate_one_edges():
    g = build_kr(AffineSpec("A1", 3, 1, 1)).graph
    at = vertex_index(g)
    assert g.e[0].get(at[(((1,),), None)]) == at[(((3,),), None)]
    # f_0 = pr^{-1} f_1 pr, with pr the jeu de taquin, which the build never runs
    for n, r, s in ZERO_EDGE_SPECS:
        g = build_kr(AffineSpec("A1", n, r, s)).graph
        at = vertex_index(g)
        pr = {cols: promotion(cols, n) for cols, _ in g.elements}
        back = {y: x for x, y in pr.items()}
        assert set(back) == set(pr), (n, r, s)
        f0 = {}
        for x, (cols, _) in enumerate(g.elements):
            moved = tableaux.tableau_apply("A", n, (pr[cols], None), 1, "f")
            if moved is not None:
                f0[x] = at[(back[moved[0]], None)]
        assert g.f[0] == f0, (n, r, s)
    # the automorphism the sigma search finds is pr
    for n, r, s in [(3, 1, 1), (3, 2, 2), (4, 2, 1)]:
        b = build_kr(AffineSpec("A1", n, r, s))
        g = b.graph
        tau = search_sigma(g, b.spec)
        at = vertex_index(g)
        images = (at[(promotion(cols, n), None)] for cols, _ in g.elements)
        assert tau == dict(enumerate(images))


# -- tail-involution route (B1 r<n, A2odd, D1 r<=n-2) ---------------------------

def test_sigma_is_involution_and_commutes():
    # the sigma the dba route conjugates f_1 by
    b, sigma = kr_builders._build_from_tops(AffineSpec("A2odd", 3, 1, 2))
    g = b.graph
    assert b.partner is None
    for x in range(len(g)):
        assert sigma[sigma[x]] == x
        for i in range(2, 4):
            y = g.f[i].get(x)
            if y is None:
                continue
            assert sigma[y] == g.f[i][sigma[x]]


def test_sigma_on_highest_is_diagram_involution():
    spec = AffineSpec("A2odd", 3, 1, 2)
    b = build_kr(spec)
    table = tableau_phi_table("C", 3, kr_decomposition(spec))
    g = b.graph
    sigma = search_sigma(g, spec)
    for x in g.highest_vertices((2, 3)):
        P = pm.phi_inverse(table, g.elements[x])
        direct = tableau_phi(pm.involution_S(P, spec.r, spec.s))
        assert g.elements[sigma[x]] == direct


def test_dba_zero_edges_conjugate_one_edges():
    b = build_kr(AffineSpec("B1", 2, 1, 2))
    g = b.graph
    sigma = search_sigma(g, b.spec)
    for x in range(len(g)):
        for arrows in (g.f, g.e):
            y = arrows[1].get(sigma[x])
            assert arrows[0].get(x) == (None if y is None else sigma[y])


def test_route_sigma_is_the_searched_automorphism(monkeypatch):
    # the sigma the dba and spin routes conjugate f_1 by, on every grid spec
    # of those routes and four past the grid, is the automorphism the sigma
    # search finds on the finished graph
    made, real = [], kr_builders._attach_from_tops

    def recorded(cls, *args):
        made.append((cls, real(cls, *args)))
        return made[-1][1]

    monkeypatch.setattr(kr_builders, "_attach_from_tops", recorded)
    past = [("B1", 5, 3, 2), ("D1", 6, 3, 2), ("A2odd", 4, 3, 2), ("D1", 5, 4, 4)]
    kinds = []
    for spec in [*default_grid(), *(AffineSpec(*args) for args in past)]:
        made.clear()  # the virtual route's host also attaches its f_0 there
        b = build_kr(spec)
        if b.kind not in ("dba", "spin"):
            continue
        [(built, sigma)] = made
        assert built is b.graph
        assert search_sigma(b.graph, spec) == sigma
        kinds.append(b.kind)
    assert (kinds.count("dba"), kinds.count("spin")) == (23, 5)


def test_non_injective_zero_arrows_fail_the_build(monkeypatch, capsys):
    # a route whose f_0 sends the two least sources to one target is refused
    # where its graph is made: kr build exits 1 and writes no document (a
    # cyclic f_0 is test_verify's test_cyclic_zero_string_fails_the_build)
    add_color = CrystalGraph.add_color

    def merged(graph, i, f0):
        a, b = sorted(f0)[:2]
        return add_color(graph, i, {**f0, b: f0[a]})

    monkeypatch.setattr(CrystalGraph, "add_color", merged)
    assert main(["build", "--family", "A2odd", "--n", "2", "--r", "1", "--s", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "kr: f_0 arrows are not injective\n")


# -- fixed-point route (C1 r<n) --------------------------------------------------

def test_virtual_c_sizes_and_decomposition():
    b = build_kr(AffineSpec("C1", 2, 1, 1))
    assert b.kind == "virtual"
    assert len(b.graph.elements) == 4
    assert b.graph.decomposition((1, 2)) == [(2, 0)]
    b = build_kr(AffineSpec("C1", 2, 1, 2))
    assert len(b.graph.elements) == 11
    assert b.graph.decomposition((1, 2)) == [(0, 0), (4, 0)]


def test_virtual_c_rejects_top_node():
    assert build_kr(AffineSpec("C1", 2, 2, 1)).kind == "triples"


def test_virtual_host_over_bound_is_refused_before_work(time_limit):
    # the spec itself (143,143 vertices) is under the bound; its host is not
    assert kr_dimension(AffineSpec("C1", 6, 5, 2)) < VERTEX_BOUND
    assert weyl_sum(AffineSpec("A2odd", 7, 5, 2)) == 1002001
    message = "A2odd n=7 r=5 s=2 would have 1002001 vertices, over the bound 1000000"
    with pytest.raises(RuntimeError) as caught:
        build_kr(AffineSpec("C1", 6, 5, 2))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "spec",
    [spec for spec in default_grid() if spec.family == "C1" and spec.r < spec.n]
    + [AffineSpec("C1", n, r, s) for n, r, s in
       [(4, 3, 2), (4, 2, 3), (4, 1, 3), (5, 2, 2), (3, 1, 4), (5, 4, 1), (3, 2, 3)]],
    ids=str,
)
def test_element_local_fold_matches_the_virtual_route(spec):
    # the stepped host with unit multipliers, closed element by element from
    # its C_n tops, is the crystal the virtual route reads off its closed host:
    # the same weights and arrows on the same elements, in another order
    def labelled(g):
        arrows = {(i, g.elements[x], g.elements[y]) for i in g.colors for x, y in g.f[i].items()}
        return dict(zip(g.elements, g.weights)), arrows

    assert labelled(element_local_fold(spec)) == labelled(build_kr(spec).graph)


def test_virtual_c_zero_side_matches_classical_sizes():
    b = build_kr(AffineSpec("C1", 2, 1, 2))
    classical = sorted(len(c) for c in b.graph.components((1, 2)))
    zero_side = sorted(len(c) for c in b.graph.components((0, 1)))
    assert classical == zero_side == [1, 10]


# -- doubling embeddings (B1 r=n, A2even, D2 r<n) --------------------------------

STEPPED_SIZES = [
    ("A2even", 2, 1, 1, 5),
    ("A2even", 2, 2, 1, 10),
    ("A2even", 2, 1, 2, 15),
    ("A2even", 2, 2, 2, 50),
    ("D2", 2, 1, 1, 6),
    ("D2", 2, 1, 2, 20),
    ("B1", 2, 2, 1, 4),
    ("B1", 2, 2, 2, 11),
    ("B1", 3, 3, 1, 8),
    ("B1", 3, 3, 2, 42),
]


@pytest.mark.parametrize("fam,n,r,s,size", STEPPED_SIZES)
def test_stepped_sizes(fam, n, r, s, size):
    spec = AffineSpec(fam, n, r, s)
    b = build_kr(spec)
    assert len(b.graph.elements) == size == kr_dimension(spec)
    assert b.kind == "stepped"


STEPPED_MULTIPLIERS = {"B1": (2, 2, 1), "A2even": (1, 2, 2), "D2": (1, 2, 1)}


@pytest.mark.parametrize(
    "fam,r,s,rank,host_s,virtual",
    [
        ("B1", 2, 2, 2, 2, False),
        ("A2even", 1, 2, 3, 4, True),
        ("D2", 1, 2, 3, 4, True),
        ("C1", 1, 2, 3, 2, True),
    ],
)
def test_stepped_host_reads_its_host_off_the_spec(fam, r, s, rank, host_s, virtual):
    # B1 at r = n is its own A2odd B^{n,s}; A2even and D2 sit in the fixed
    # locus of A2odd B^{r,2s} and C1 in that of B^{r,s}, both of rank n+1,
    # C1 with every multiplier 1
    host = kr_builders.SteppedHost(AffineSpec(fam, 2, r, s))
    assert (host.rank, host.s, host.virtual) == (rank, host_s, virtual)
    assert host.m == STEPPED_MULTIPLIERS.get(fam, (1, 1, 1))


def _tail_involution(graph):
    """sigma on a closed A2odd crystal: the isomorphism onto itself that
    exchanges colors 0 and 1, found by the oracle search."""
    swap = {i: i for i in graph.colors} | {0: 1, 1: 0}
    sigma = isomorphism(graph, graph, swap)
    assert all(sigma[sigma[x]] == x for x in sigma)
    return sigma


@pytest.mark.parametrize(
    "fam,n,r,s,host_size",
    [
        ("B1", 2, 2, 1, 6),
        ("B1", 2, 2, 2, 20),
        ("A2even", 2, 1, 1, 11),
        ("A2even", 2, 2, 1, 25),
        ("D2", 2, 1, 1, 11),
    ],
)
def test_stepped_route_matches_materialized_host(fam, n, r, s, host_size):
    # The host closed in full against the element-local operators of the
    # stepped route: B1 sits in A2odd B^{n,s}, A2even and D2 in the fixed
    # locus of A2odd B^{r,2s} of rank n+1.  Phi in the host's C_n view is Phi
    # walked on the closed host's own arrows from its classical tops.  A
    # host step at every image element, color and op is the closed host's
    # arrow, a vanished one included, and every sigma the stepped host
    # tabled, at a top or by a raise and descent, is the involution
    # realizing 0 <-> 1 on the closed A2odd crystal.
    b = build_kr(AffineSpec(fam, n, r, s))
    m = STEPPED_MULTIPLIERS[fam]
    assert b.ambient is None and b.stepped.m == m
    if fam == "B1":
        host = build_kr(AffineSpec("A2odd", n, n, s))
    else:
        host = _build_virtual(AffineSpec("C1", n, r, 2 * s))
    hg = host.graph
    assert len(hg) == host_size
    closed = host if fam == "B1" else host.ambient.build
    cg = closed.graph
    sigma = _tail_involution(cg)
    at, closed_at = vertex_index(hg), vertex_index(cg)
    for elem in b.graph.elements:
        for i in hg.colors:
            for op, arrows in (("f", hg.f), ("e", hg.e)):
                w = arrows[i].get(at[elem])
                assert b.stepped.host_apply(elem, i, op) == (None if w is None else hg.elements[w])
    for x, y in b.stepped._sigma.items():
        assert cg.elements[sigma[closed_at[x]]] == y
    for x, elem in enumerate(b.graph.elements):
        v = at[elem]
        assert all(w % 2 == 0 for w in hg.weights[v])
        assert b.graph.weights[x] == tuple(w // 2 for w in hg.weights[v])
        for i in b.graph.colors:
            y = v
            for _ in range(m[i]):
                y = None if y is None else hg.f[i].get(y)
            edge = b.graph.f[i].get(x)
            assert (None if edge is None else at[b.graph.elements[edge]]) == y
    tops = _locate_tops(host, b.stepped.model_shapes)
    walked = 0
    for sh in b.stepped.model_shapes:
        for P in pm.enumerate_pm("C", n, sh):
            v = pm.phi(P, lambda x, i: hg.f[i].get(x), tops[P.outer()])
            assert b.stepped.host_phi(P) == hg.elements[v]
            walked += 1
    assert walked == len(hg.highest_vertices(range(2, n + 1)))


@pytest.mark.parametrize(
    "fam,n,r,s", [("B1", 2, 2, 2), ("A2even", 2, 2, 1), ("D2", 3, 2, 1)]
)
def test_stepped_sigma_on_tops_is_the_involuted_diagram_walk(fam, n, r, s):
    # sigma at every {2..N}-top of the host against phi of the involuted
    # diagram, walked here instead of read off the table
    host = build_kr(AffineSpec(fam, n, r, s)).stepped
    table = tableau_phi_table("C", host.rank, host.shapes)
    for top in table:
        P = pm.phi_inverse(table, top)
        assert host.sigma(top) == tableau_phi(pm.involution_S(P, host.r, host.s))


def test_b1_seed_off_the_host_exits_one(monkeypatch, capsys):
    # a doubled seed whose shape is no host shape: three boxes in a row
    monkeypatch.setattr(kr_builders.pm, "double_pm", lambda P: pm.make_pm("C", P.n, [(1, ".")] * 3))
    assert main(["build", "--family", "B1", "--n", "2", "--r", "2", "--s", "1"]) == 1
    assert capsys.readouterr().err == "kr: doubled seed is not an element of the host\n"


@pytest.mark.parametrize(
    "fam,n,r,s", [("A2even", 2, 1, 1), ("A2even", 3, 2, 1), ("D2", 3, 1, 2), ("D2", 4, 3, 1)]
)
def test_rectangle_seeds_at_its_top_in_the_same_crystal(fam, n, r, s):
    # the bare doubled rectangle seeds at the host's C_n top of its shape,
    # not at its Phi walk; both lie in the built crystal
    b = build_kr(AffineSpec(fam, n, r, s))
    P = pm.make_pm("C", n, [(r, ".")] * (2 * s))
    seed, walked = b.stepped.seed(P), b.stepped.host_phi(P)
    assert seed != walked
    at = vertex_index(b.graph)
    assert seed in at and walked in at
    if (fam, n, r, s) == ("A2even", 2, 1, 1):
        texts = {}
        got = tableaux.format_element(seed, texts), tableaux.format_element(walked, texts)
        assert got == ("2|2", "3|3")


@pytest.mark.parametrize(
    "spec,size,budget,fetched,suites",
    [(("A2even", 3, 3, 2), 490, 7_495, 4_113, 4_766), (("D2", 3, 2, 2), 329, 4_665, 2_387, 2_942)],
)
def test_stepped_build_pass_budget(monkeypatch, spec, size, budget, fetched, suites):
    # every signature pass of a stepped build, a single step or a
    # whole-string jump, is one SignatureTable.string call: the host's steps,
    # its diagram walks and sigma's raises and descents go through the
    # build's signature table, none through tableau_apply and the table it
    # makes per call.  The count is deterministic.  Each stepped power is one
    # pass, sigma f_1^{m_0} sigma at color 0, and no host arrow is kept.  The
    # diagram walk takes each (element, color) step once across diagrams,
    # sigma is reflected once per pair and kept at every segment end of its
    # raise, and color 0 takes one order, f_1 f_0.  The suites keep no host
    # arrow either: similarity walks every host string in fresh single steps
    # and its diagram walk takes each step once, so its count is pinned.
    # The build reads an element's factor rows afresh only when the table's
    # last fetch was of another element: a vertex's classical powers share one
    # fetch, and so do a raise's probes of one element.  sigma hands a fixed
    # element back as itself, so its rows stay kept across color 0
    calls, fetches, kept = [], [], {}
    rows = tableaux.SignatureTable._rows

    def fetching(table, elem):
        out = rows(table, elem)
        if out is not kept.get(table):  # not the rows the table returned last
            fetches.append(elem)
            kept[table] = out
        return out

    def counted(step):
        def wrapper(*args):
            calls.append(step.__name__)
            return step(*args)

        return wrapper

    monkeypatch.setattr(tableaux, "tableau_apply", counted(tableaux.tableau_apply))
    monkeypatch.setattr(tableaux.SignatureTable, "string", counted(tableaux.SignatureTable.string))
    monkeypatch.setattr(tableaux.SignatureTable, "_rows", fetching)
    build = build_kr(AffineSpec(*spec))
    assert len(build.graph) == size
    assert calls.count("tableau_apply") == 0
    assert len(calls) <= budget
    assert len(fetches) <= fetched
    del calls[:]
    assert all(_CHECKS[name](build).passed for name in SUITES)
    assert calls.count("tableau_apply") == 0
    assert len(calls) == suites


@pytest.mark.parametrize("fam,n,r,s", [("A2even", 2, 1, 1), ("A2even", 2, 2, 1), ("D2", 2, 1, 1)])
def test_sigma_keeps_its_raise_path(monkeypatch, fam, n, r, s):
    # sigma on an element two or more e-string segments below its
    # {2..N}-top, in a fresh host that knows sigma at the tops alone: the
    # descent keeps every segment end of the raise, each at the closed
    # A2odd host's involution realizing 0 <-> 1, and asking again takes no
    # pass.  (B1 at n = 2 raises by color 2 alone, one segment.)
    host = kr_builders.SteppedHost(AffineSpec(fam, n, r, s))
    closed = _build_virtual(AffineSpec("C1", n, r, 2 * s)).ambient.build
    cg = closed.graph
    sigma = _tail_involution(cg)
    jcolors = range(2, host.rank + 1)
    x, path = next((x, p) for x in range(len(cg)) if len((p := cg.raise_path(x, jcolors)[0])) > 1)
    ends = [x]
    for i, k in path:
        y = ends[-1]
        for _ in range(k):
            y = cg.e[i][y]
        ends.append(y)
    assert [cg.elements[y] in host._sigma for y in ends] == [False] * len(path) + [True]
    host.sigma(cg.elements[x])
    passes = []
    monkeypatch.setattr(tableaux.SignatureTable, "string", lambda *args: passes.append(args))
    for y in ends:
        assert cg.elements[y] in host._sigma
        assert host.sigma(cg.elements[y]) == cg.elements[sigma[y]]
    assert passes == []


def test_non_involution_fails_host_construction(monkeypatch, capsys):
    # every diagram goes where the first one asked about in its context goes
    involution, first = pm.involution_S, {}

    def constant(P, r, s):
        return involution(first.setdefault((P.n, r, s), P), r, s)

    monkeypatch.setattr(pm, "involution_S", constant)
    for spec in (AffineSpec("A2even", 2, 2, 1), AffineSpec("A2odd", 2, 1, 1)):
        with pytest.raises(RuntimeError, match="not an involution on the"):
            build_kr(spec)
    args = ["check", "--family", "A2even", "--n", "2", "--r", "2", "--s", "1"]
    assert main(args + ["--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert [(rep["suite"], rep["passed"]) for rep in reports] == [("build", False)]
    assert "not an involution on the" in reports[0]["detail"]


def test_involution_off_the_table_fails_host_construction(monkeypatch):
    # five bare boxes in a row: a valid diagram of no shape in either table;
    # the stepped host and the dba route name the mirror alike
    row = pm.make_pm("C", 2, ((1, "."),) * 5)
    monkeypatch.setattr(pm, "involution_S", lambda P, r, s: row)
    for spec in (AffineSpec("A2even", 2, 2, 1), AffineSpec("A2odd", 2, 1, 1)):
        with pytest.raises(RuntimeError) as caught:
            build_kr(spec)
        assert str(caught.value) == "involution_S sends a diagram off the diagram table"


def _sigma_tops_without_pairs(on_tops):
    # sigma at the tops with every swapped pair forgotten: raises end off the memo
    def mutated(*args):
        return {x: y for x, y in on_tops(*args).items() if x == y}

    return mutated


def _sigma_tops_onto_empty(on_tops):
    # every swapped top sent to the empty tableau, a {2..N}-component of one
    # element and of weight 0, which no swapped top has
    def mutated(*args):
        empty = ((), None)
        return {x: y if x in (y, empty) else empty for x, y in on_tops(*args).items()}

    return mutated


def _crossed_pairs(on_tops, k, keep_weight):
    # two sigma-pairs {a, a'}, {b, b'} of tops remapped to a <-> b' and
    # b <-> a': still an involution onto the tops.  The k-th such pair of
    # pairs in table order with wt a = wt b (so sigma keeps every top's
    # {2..N}-weight), or, without keep_weight, with different {2..N}-weights
    def mutated(table, mirror):
        out = on_tops(table, mirror)

        def wt(x):  # doubled weight, in the rank of the tops' diagrams
            return tableaux.tableau_weight(table[x].n, *x)

        moved = [(x, y) for x, y in out.items() if x != y]
        crossed = [
            (a, a2, b, b2)
            for j, (a, a2) in enumerate(moved)
            for b, b2 in moved[j + 1:]
            if b not in (a, a2)
            and (wt(a) == wt(b) if keep_weight else wt(a)[1:] != wt(b)[1:])
        ]
        a, a2, b, b2 = crossed[k]
        return out | {a: b2, b2: a, b: a2, a2: b}

    return mutated


def _long_descents_dying(string):
    # f_i^k with k > 1 vanishes: a whole-string jump of the signature rule
    # broken on the sigma descent, the one caller that asks for one
    def mutated(table, elem, i, op, k=None):
        if op == "f" and k is not None and k > 1:
            return None, 0
        return string(table, elem, i, op, k)

    return mutated


@pytest.mark.parametrize(
    "target,name,mutation,spec,message",
    [
        (kr_builders, "_sigma_on_tops", _sigma_tops_without_pairs, ("A2even", 2, 2, 1),
         "sigma's raise ended off the diagram table"),
        (kr_builders, "_sigma_on_tops", _sigma_tops_onto_empty, ("A2even", 2, 2, 1),
         "sigma changes the {2..N}-weight of a top"),
        (kr_builders, "_sigma_on_tops", lambda f: _crossed_pairs(f, 0, False),
         ("A2even", 2, 2, 1), "sigma changes the {2..N}-weight of a top"),
        # the 0th weight-keeping swap leaves the graph unchanged; this one does not
        (kr_builders, "_sigma_on_tops", lambda f: _crossed_pairs(f, 1, True),
         ("A2even", 3, 3, 2), "host 0- and 1-operators failed to commute"),
        (tableaux.SignatureTable, "string", _long_descents_dying, ("A2even", 2, 2, 1),
         "sigma died descending an f_2 arrow"),
    ],
)
def test_broken_stepped_sigma_fails_the_build(
    monkeypatch, capsys, target, name, mutation, spec, message
):
    # each check of the element-local sigma, reached by a mutation of its
    # tops, its memo or its descent, stops the build and exits 1 from the CLI
    monkeypatch.setattr(target, name, mutation(getattr(target, name)))
    with pytest.raises(RuntimeError) as caught:
        build_kr(AffineSpec(*spec))
    assert str(caught.value) == message
    fam, n, r, s = spec
    assert main(["build", "--family", fam, "--n", str(n), "--r", str(r), "--s", str(s)]) == 1
    assert capsys.readouterr().err == f"kr: {message}\n"


@pytest.mark.parametrize(
    "fam,n,r,s", [("A2odd", 3, 1, 2), ("C1", 2, 2, 2), ("D1", 4, 4, 2)]
)
def test_broken_branching_table_fails_every_closed_route_alike(monkeypatch, capsys, fam, n, r, s):
    # one diagram dropped from every enumeration: the dba, triples and spin
    # routes walk Phi on their closed crystal and refuse the short table
    full = pm.enumerate_pm
    monkeypatch.setattr(pm, "enumerate_pm", lambda ctype, n, outer: full(ctype, n, outer)[:-1])
    args = ["build", "--family", fam, "--n", str(n), "--r", str(r), "--s", str(s)]
    assert main(args) == 1
    assert capsys.readouterr().err == "kr: branching table does not match the {2..n}-tops\n"


def test_branching_tables_match_the_direct_filling(monkeypatch):
    # the vertex each build's graph-walked table gives a diagram is the
    # vertex of the diagram's direct column filling, on every default-grid
    # dba and triples spec
    tables = []

    def recorded(*args):
        tables.append(branching(*args))
        return tables[-1]

    branching = kr_builders._branching
    monkeypatch.setattr(kr_builders, "_branching", recorded)
    checked = set()
    for spec in default_grid():
        tables.clear()
        b = build_kr(spec)
        if b.kind not in ("dba", "triples"):
            continue
        (table,) = tables
        assert len(table) == len(b.graph.highest_vertices(range(2, spec.n + 1)))
        at = vertex_index(b.graph)
        for x, P in table.items():
            assert at[phi_direct(P)] == x, (spec, P)
        checked.add(b.kind)
    assert checked == {"dba", "triples"}


def test_classical_model_of_stepped_build():
    spec = AffineSpec("D2", 2, 1, 1)
    b = build_kr(spec)
    model = classical_model(b)
    assert len(model) == 6
    for x, tab in model.items():
        assert tableau_ok("B", 2, tab[0], tab[1])
        assert tuple(b.graph.weights[x]) == tableaux.tableau_weight(2, tab[0], tab[1])


# -- sign-triple route (C1 r=n, D2 r=n) ------------------------------------------

def test_triple_rules_c():
    s = 4
    assert triple_rules("C1", s, SignTriple(1, 0, 3), "e") == SignTriple(0, 1, 3)
    assert triple_rules("C1", s, SignTriple(0, 2, 2), "e") is None
    assert triple_rules("C1", s, SignTriple(0, 2, 2), "f") == SignTriple(1, 1, 2)
    assert triple_rules("C1", s, SignTriple(4, 0, 0), "f") is None
    with pytest.raises(ValueError):
        triple_rules("C1", s, SignTriple(1, 1, 1), "e")


def test_triple_rules_d():
    assert triple_rules("D2", 2, SignTriple(0, 0, 0, gamma=1), "f") == SignTriple(
        2, 0, 0
    )
    assert triple_rules("D2", 2, SignTriple(0, 2, 0), "f") == SignTriple(0, 0, 0, gamma=1)
    assert triple_rules("D2", 2, SignTriple(0, 1, 1), "f") == SignTriple(1, 0, 1)
    assert triple_rules("D2", 2, SignTriple(2, 0, 0), "f") is None
    # with s odd a produced 0-column recanonicalizes into a signed column
    assert triple_rules("D2", 3, SignTriple(2, 1, 0), "e") == SignTriple(1, 2, 0)
    assert triple_rules("D2", 3, SignTriple(1, 0, 2), "e") == SignTriple(0, 1, 2)
    with pytest.raises(ValueError):
        triple_rules("D2", 2, SignTriple(1, 0, 0), "e")


@pytest.mark.parametrize(
    "n,message",
    [(2, "tau is not invertible at vertex 0"), (3, "transport died on an f_2 arrow")],
)
def test_broken_triple_rule_fails_the_transport(monkeypatch, capsys, n, message):
    # f_0 sends every {2..n}-top to the all-+ top: at n = 2 the transport
    # goes through and f_0 is not the inverse of e_0; at n = 3 an f_2 arrow
    # out of some other top has no match at the all-+ top
    rules = kr_builders.triple_rules

    def all_plus(family, s, t, direction):
        return SignTriple(s, 0, 0) if direction == "f" else rules(family, s, t, direction)

    monkeypatch.setattr(kr_builders, "triple_rules", all_plus)
    args = ["build", "--family", "C1", "--n", str(n), "--r", str(n), "--s", "2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kr: {message}\n"


def test_triple_off_the_diagram_table_exits_one(monkeypatch, capsys):
    # f_0 sends every {2..n}-top to a triple one column too wide, which no
    # diagram of the branching table carries
    rules = kr_builders.triple_rules

    def too_wide(family, s, t, direction):
        return SignTriple(s + 1, 0, 0) if direction == "f" else rules(family, s, t, direction)

    monkeypatch.setattr(kr_builders, "triple_rules", too_wide)
    assert main(["build", "--family", "C1", "--n", "2", "--r", "2", "--s", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "kr: triple SignTriple(l1=3, l2=0, l3=0, gamma=0) is off the diagram table\n"
    )


FULL_HEIGHT_SPECS = [
    *((fam, n, n, s) for fam in ("C1", "D2") for n in (2, 3, 4) for s in (1, 2, 3, 4)),
    *(("D1", n, r, s) for n in (4, 5) for r in (n - 1, n) for s in (1, 2, 3, 4)),
]


@pytest.mark.parametrize("fam,n,r,s", FULL_HEIGHT_SPECS)
def test_sign_triple_keys_every_full_height_table(fam, n, r, s):
    # the triples and spin routes key their {2..n}-tops by sign triple: on
    # these tables every column is full height, and no two diagrams share one
    b = build_kr(AffineSpec(fam, n, r, s))
    shapes = kr_decomposition(b.spec)
    table = kr_builders._branching(b.graph, b.spec.classical_type, n, _locate_tops(b, shapes))
    assert all(h == n for P in table.values() for h, _ in P.cols)
    assert len({kr_builders._triple_of(P) for P in table.values()}) == len(table) > 1


@pytest.mark.parametrize(
    "fam,n,r,s,message",
    [
        ("C1", 2, 2, 1, "two {2..n}-tops share a sign triple"),
        ("D1", 4, 4, 2, "sigma is not an involution on the {2..n}-tops"),
    ],
)
def test_one_sign_triple_for_every_top_exits_one(monkeypatch, capsys, fam, n, r, s, message):
    # a key that tells no two tops apart: the triples route refuses the
    # table, and on the spin route sigma sends every top to the last one
    monkeypatch.setattr(kr_builders, "_triple_of", lambda P: SignTriple(0, 0, 0))
    assert main(["build", "--family", fam, "--n", str(n), "--r", str(r), "--s", str(s)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kr: {message}\n"


def test_exceptional_cd_sizes():
    assert len(build_kr(AffineSpec("C1", 2, 2, 1)).graph.elements) == 5
    assert len(build_kr(AffineSpec("C1", 2, 2, 2)).graph.elements) == 14
    assert len(build_kr(AffineSpec("D2", 2, 2, 1)).graph.elements) == 4
    assert len(build_kr(AffineSpec("D2", 2, 2, 3)).graph.elements) == 20


def test_triples_match_fixed_point_route_at_odd_s():
    # two independent constructions of the same crystal must be isomorphic
    for n in (2, 3):
        tri = build_kr(AffineSpec("C1", n, n, 1))
        aux = _build_virtual(AffineSpec("C1", n, n, 1))
        assert isomorphism(tri.graph, aux.graph) is not None


def test_fixed_point_object_exceeds_kr_crystal_at_even_s():
    aux = _build_virtual(AffineSpec("C1", 2, 2, 2))
    assert len(aux.graph.elements) == 25
    assert aux.graph.decomposition((1, 2)) == [(0, 0), (4, 0), (4, 4)]


# -- spin route (D1 r in {n-1, n}) ------------------------------------------------

def test_sigma_spin_triple_rule_swaps_the_sign_counts():
    # the rule reads a spin diagram's sign triple: flipping every sign swaps
    # l1 and l2 and keeps l3 and gamma.  The color is not in the key, since a
    # spin table holds the diagrams of one shape
    triple_of = kr_builders._triple_of
    P = pm.make_pm("D", 4, ((4, "+-"), (4, "+-")), color=1)
    assert sigma_spin_D(triple_of(P)) == triple_of(P) == SignTriple(0, 0, 4)
    P = pm.make_pm("D", 4, ((4, "+"),), spin="+", color=2)
    Q = pm.make_pm("D", 4, ((4, "-"),), spin="-", color=2)
    assert sigma_spin_D(triple_of(P)) == triple_of(Q) == SignTriple(0, 3, 0)
    t = SignTriple(1, 2, 2, gamma=1)
    assert sigma_spin_D(t) == SignTriple(2, 1, 2, gamma=1) and sigma_spin_D(sigma_spin_D(t)) == t


@pytest.mark.parametrize("n,r,s", [(4, 4, 1), (4, 3, 2), (5, 5, 2), (5, 4, 3), (6, 6, 2)])
def test_spin_tau_is_an_involution_carrying_f_i_to_the_swapped_color(n, r, s):
    # tau, as the sigma search finds it, is sigma composed with the n-1 <-> n
    # flip: it stays in the one crystal and exchanges colors 0, 1 and n-1, n
    b = build_kr(AffineSpec("D1", n, r, s))
    g = b.graph
    tau = search_sigma(g, b.spec)
    assert b.kind == "spin" and b.partner is None
    swap = {0: 1, 1: 0, n - 1: n, n: n - 1}
    for x in range(len(g)):
        assert tau[tau[x]] == x
        for i in g.colors:
            y = g.f[i].get(x)
            assert g.f[swap.get(i, i)].get(tau[x]) == (None if y is None else tau[y])


def test_spin_zero_edges_conjugate_one_edges():
    b = build_kr(AffineSpec("D1", 4, 4, 1))
    g = b.graph
    tau = search_sigma(g, b.spec)
    for x in range(len(g)):
        y = g.f[1].get(tau[x])
        assert g.f[0].get(x) == (None if y is None else tau[y])
    # at s = 1, f_0 adds e_1 + e_2: it turns the first two signs from - to +
    at = vertex_index(g)
    for x, (vec,) in enumerate(g.elements):
        flipped = (1, 1) + vec[2:] if vec[:2] == (-1, -1) else None
        assert g.f[0].get(x) == (None if flipped is None else at[(flipped,)])


def test_spin_sizes_and_decompositions():
    for r, top in ((4, (1, 1, 1, 1)), (3, (1, 1, 1, -1))):
        b = build_kr(AffineSpec("D1", 4, r, 1))
        assert len(b.graph) == 8 and b.spec.r == r and b.partner is None
        assert b.graph.decomposition((1, 2, 3, 4)) == [top]
    b = build_kr(AffineSpec("D1", 4, 3, 2))
    assert b.kind == "spin" and b.partner is None
    assert len(b.graph) == 35 == kr_dimension(b.spec)
    assert b.graph.decomposition((1, 2, 3, 4)) == [(2, 2, 2, -2)]
    twin = build_kr(AffineSpec("D1", 4, 3, 2))
    assert twin is not b
    assert graph_document(twin) == graph_document(b)
    assert to_dot(twin) == to_dot(b)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_spin_crystals_are_isomorphic_under_the_tail_flip(n, s):
    # the two spin nodes' crystals, each from its own closure and its own
    # tau, are one affine crystal up to the n-1 <-> n flip, and only up to it
    top, other = build_kr(AffineSpec("D1", n, n, s)), build_kr(AffineSpec("D1", n, n - 1, s))
    colors = top.graph.colors
    flip = {i: i for i in colors} | {n - 1: n, n: n - 1}
    assert len(list(top.graph.isomorphisms(other.graph, color_map=flip, colors=colors))) == 1
    assert isomorphism(top.graph, other.graph, colors=colors) is None


def _transport_without_swap(attach_from_tops):
    def mutated(cls, forward, backward, shift, conjugate):
        return attach_from_tops(cls, forward, backward, {i: i for i in shift}, conjugate)

    return mutated


def _mirror_one_column_wider(mirror):
    # signs flipped, plus one -over-+ column that no diagram of the shape has
    def sigma_spin_D(t):
        return mirror(t)._replace(l3=t.l3 + 2)

    return sigma_spin_D


@pytest.mark.parametrize(
    "name,mutation,message",
    [
        ("_attach_from_tops", _transport_without_swap, "transport died on an f_3 arrow"),
        ("sigma_spin_D", _mirror_one_column_wider,
         "sigma_spin_D sends a diagram off the diagram table"),
    ],
)
def test_broken_spin_tau_exits_one(monkeypatch, capsys, name, mutation, message):
    monkeypatch.setattr(kr_builders, name, mutation(getattr(kr_builders, name)))
    assert main(["build", "--family", "D1", "--n", "4", "--r", "4", "--s", "2"]) == 1
    assert capsys.readouterr().err == f"kr: {message}\n"


def _closure_sizes(monkeypatch):
    """The list the size of each crystal the builders close from now on is appended to."""
    closed = []

    def counting_closure(*args, **kwargs):
        graph = generate_closure(*args, **kwargs)
        closed.append(len(graph))
        return graph

    for module in (kr_builders, tableaux):
        monkeypatch.setattr(module, "generate_closure", counting_closure)
    return closed


@pytest.mark.parametrize("n,r,s", [(4, 4, 2), (4, 3, 2), (5, 4, 3)])
def test_spin_build_closes_one_crystal(monkeypatch, n, r, s):
    closed = _closure_sizes(monkeypatch)
    spec = AffineSpec("D1", n, r, s)
    build_kr(spec)
    assert closed == [kr_dimension(spec)]


@pytest.mark.parametrize(
    "spec",
    [spec for spec in default_grid() if spec.family == "C1" and spec.r < spec.n]
    + [AffineSpec("C1", 4, 3, 2)],
    ids=str,
)
def test_virtual_build_closes_one_crystal(monkeypatch, spec):
    # the A2odd host is closed once, as a classical crystal, and the fixed
    # points' arrows are read off it
    closed = _closure_sizes(monkeypatch)
    build_kr(spec)
    assert closed == [kr_dimension(AffineSpec("A2odd", spec.n + 1, spec.r, spec.s))]


# -- classical closures: f alone from the highest elements ------------------------

def test_grid_closures_are_unchanged_by_the_e_side(monkeypatch):
    # every default-grid spec off the stepped route, 44 closures: 6 promotion,
    # 20 dba, 8 triples, 4 D1 spin tensors, and the A2odd hosts of 6 virtual
    # specs.  Each is closed again with e_i in the e slot, so the closure's
    # conflict check tests "e_i undoes f_i" at every vertex, and must give the
    # same elements in the same order and the same f arrows
    closures = []

    def recording_closure(seeds, colors, neighbours, weight_fn):
        graph = generate_closure(seeds, colors, neighbours, weight_fn)
        closures.append((seeds, colors, neighbours.__self__, weight_fn, graph))
        return graph

    for module in (kr_builders, tableaux):
        monkeypatch.setattr(module, "generate_closure", recording_closure)
    kinds = Counter()
    for spec in default_grid():
        if (kind := route(spec)) != "stepped":
            build_kr(spec)
            kinds[kind] += 1
    assert kinds == {"promotion": 6, "dba": 20, "triples": 8, "spin": 4, "virtual": 6}
    assert len(closures) == 44
    for seeds, colors, table, weight_fn, lean in closures:

        def both(elem):
            return [(i, down, table.apply(elem, i, "e")) for i, down, _ in table.neighbours(elem)]

        full = generate_closure(seeds, colors, both, weight_fn)
        assert full.elements == lean.elements
        assert all(full.f[i] == lean.f[i] for i in colors)


@pytest.mark.parametrize(
    "spec",
    [AffineSpec("A1", 3, 1, 2), AffineSpec("A2odd", 3, 2, 2), AffineSpec("C1", 2, 2, 2),
     AffineSpec("D1", 4, 4, 2), AffineSpec("C1", 3, 1, 2)],
    ids=str,
)
def test_closed_build_puts_one_element_per_classical_f_arrow(monkeypatch, spec):
    # an element is made only for an f arrow: an e side would put another per e arrow
    puts = []
    for cls in (tableaux.SignatureTable, tableaux.SpinTensorTable):

        def counted(elem, moves, put=cls._put):
            puts.append(elem)
            return put(elem, moves)

        monkeypatch.setattr(cls, "_put", staticmethod(counted))
    build = build_kr(spec)
    closed = build.ambient.build if build.ambient else build  # the virtual route's A2odd host
    arrows = sum(len(closed.graph.f[i]) for i in closed.spec.classical_colors)
    assert len(puts) == arrows


# -- builder invariants under fault injection -----------------------------------

def _fixed_point_moved(pick):
    # the host's sigma moves pick(the vertices it fixes): the least one
    # (C1 3,1,1: the 2 that e_2 reaches from the fixed 3) or the greatest
    # (C1 3,1,1: the -2 that e_1 e_0 reaches from the fixed 2)
    def mutation(build_from_tops):
        def mutated(spec):
            build, sigma = build_from_tops(spec)
            return build, {**sigma, pick(x for x, y in sigma.items() if x == y): None}

        return mutated

    return mutation


def _copy_for_fixed(sigma):
    # sigma returns an equal copy, so no element passes the identity test of being fixed
    return lambda host, elem: tuple(list(sigma(host, elem)))


def _bare_host_f0(host_apply):
    # color 0 is the host's f_0 alone, unchecked, which leaves the fixed locus
    def mutated(host, elem, i, op, k=1):
        return host._tail_apply(elem, 0, op, k) if i == 0 else host_apply(host, elem, i, op, k)

    return mutated


def _least_moved_vertex_fixed(transport):
    # the transported sigma keeps its least moved vertex, whose partner still moves to it
    def mutated(*args):
        out = transport(*args)
        x = min(x for x, y in out.items() if x != y)
        out[x] = x
        return out

    return mutated


def _every_top_to_one(top_of_weight):
    # promotion sends every {1..n-2}-top to the first {2..n-1}-top, whatever its weight
    return lambda tops, weight_of, wt: tops[0]


def _odd_host_weights(host_weight):
    return lambda host, elem: tuple(c + 1 for c in host_weight(host, elem))


def _zero_host_weights(host_weight):
    return lambda host, elem: (0,) * len(host_weight(host, elem))


def _last_shape_unlocated(locate_tops):
    return lambda build, shapes: dict(list(locate_tops(build, shapes).items())[:-1])


def _last_shape_dropped(kr_decomposition):
    # the closed routes close, and key their tops by, every shape but the last
    return lambda spec: kr_decomposition(spec)[:-1]


def _two_step_e1(tail_apply):
    # A2odd e_1 takes two steps where its string allows, so it is not the
    # inverse of f_1.  The host color 0 is f_1 f_0, and its e applies e_0 =
    # sigma e_1 sigma, then e_1, both e_1 steps through this rule, so e_0 of
    # the build disagrees with f_0 and the closure's conflict check stops it
    def mutated(host, elem, i, op, k):
        y = tail_apply(host, elem, i, op, k)
        if i == 1 and op == "e" and y is not None:
            return tail_apply(host, y, 1, "e", 1) or y
        return y

    return mutated


@pytest.mark.parametrize(
    "target,name,mutation,command,spec,message",
    [
        (kr_builders, "_build_from_tops", _fixed_point_moved(max), "build", ("C1", 3, 1, 1),
         "host 0- and 1-operators failed to commute"),
        (kr_builders.SteppedHost, "sigma", _copy_for_fixed, "build", ("A2even", 2, 1, 1),
         "host 0- and 1-operators failed to commute"),
        (kr_builders, "_build_from_tops", _fixed_point_moved(min), "build", ("C1", 3, 1, 1),
         "virtual closure left the fixed-point set"),
        (kr_builders.SteppedHost, "host_apply", _bare_host_f0, "build", ("A2even", 2, 1, 1),
         "build has 11 vertices, kr_dimension gives 5"),
        (kr_builders, "kr_decomposition", _last_shape_dropped, "build", ("A1", 2, 1, 2),
         "build has 0 vertices, kr_dimension gives 3"),
        (kr_builders, "_transport", _least_moved_vertex_fixed, "build", ("A2odd", 2, 1, 1),
         "tau is not invertible at vertex 3"),
        (kr_builders, "_transport", _least_moved_vertex_fixed, "build", ("D1", 4, 4, 1),
         "tau is not invertible at vertex 3"),
        (kr_builders, "_top_of_weight", _every_top_to_one, "build", ("A1", 2, 1, 2),
         "tau is not invertible at vertex 0"),
        (kr_builders, "_top_of_weight", _every_top_to_one, "build", ("A1", 3, 1, 1),
         "transport died on an f_1 arrow"),
        (kr_builders.SteppedHost, "host_weight", _odd_host_weights, "build", ("B1", 2, 2, 1),
         "host weight of an image vertex is not even"),
        (kr_builders.SteppedHost, "host_weight", _zero_host_weights, "build", ("A2even", 2, 1, 1),
         "classical top of weight (0, 0) is not unique"),
        (kr_builders, "_locate_tops", _last_shape_unlocated, "check", ("A2even", 2, 1, 1),
         "jlowest    A2even n=2 r=1 s=1  FAIL  [error: transport did not reach every vertex]"),
        (kr_builders.SteppedHost, "_tail_apply", _two_step_e1, "build", ("A2even", 2, 1, 1),
         "conflicting f_0 arrow at (((-2,), (-2,)), None)"),
    ],
)
def test_each_builder_check_fails_the_run(
    monkeypatch, capsys, target, name, mutation, command, spec, message
):
    # a broken invariant stops kr build with exit 1 and its message, or fails
    # the kr check report that reaches it
    monkeypatch.setattr(target, name, mutation(getattr(target, name)))
    fam, n, r, s = spec
    args = [command, "--family", fam, "--n", str(n), "--r", str(r), "--s", str(s)]
    if command == "check":
        assert main(args + ["--suite", "jlowest"]) == 1
        assert capsys.readouterr().out == message + "\n"
    else:
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"kr: {message}\n")


# -- route ---------------------------------------------------------------------

def _literal(path, name):
    """A module-level literal of a file outside the package, read without running it."""
    for node in ast.parse(path.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_route_is_total_and_names_only_the_ledger_kinds():
    # every family, n <= 6 and every valid r (s plays no part): each spec
    # gets one of the six kinds perfbench's build ledger keys on, each kind
    # as often as the choice per family and node gives
    kinds = _literal(ROOT / "perfbench" / "worker.py", "ROUTE_KINDS")
    counts = Counter()
    for family in FAMILIES:
        for n in range(4 if family == "D1" else 2, 7):
            for r in range(1, n if family == "A1" else n + 1):
                counts[route(AffineSpec(family, n, r, 1))] += 1
    assert sorted(counts) == sorted(kinds)
    assert counts == {
        "promotion": 15, "dba": 44, "virtual": 15, "stepped": 40, "triples": 10, "spin": 6
    }
    spot = [
        (("A1", 3, 1, 1), "promotion"), (("B1", 2, 1, 1), "dba"), (("A2odd", 2, 2, 1), "dba"),
        (("D1", 4, 2, 1), "dba"), (("C1", 3, 1, 1), "virtual"), (("C1", 2, 2, 1), "triples"),
        (("D2", 2, 2, 1), "triples"), (("B1", 2, 2, 1), "stepped"), (("D1", 4, 3, 1), "spin"),
        (("D1", 4, 4, 1), "spin"), (("A2even", 3, 3, 1), "stepped"), (("D2", 3, 2, 1), "stepped"),
    ]
    assert [route(AffineSpec(*args)) for args, _ in spot] == [kind for _, kind in spot]


def test_build_kind_is_the_route_on_the_grid_and_past_it():
    # the grid, and per route the smallest spec past it that same_output.py
    # compares; the virtual build carries its closed host, the stepped one
    # its SteppedHost, and no other build either
    grid = default_grid()
    extra = _literal(ROOT / "scripts" / "same_output.py", "EXTRA_SPECS")
    extra = [AffineSpec(*args) for args in extra]
    past = sorted((spec for spec in extra if spec not in grid), key=kr_dimension, reverse=True)
    smallest = {route(spec): spec for spec in past}
    assert sorted(smallest) == sorted(_literal(ROOT / "perfbench" / "worker.py", "ROUTE_KINDS"))
    for spec in [*grid, *smallest.values()]:
        b = build_kr(spec)
        kind = route(spec)
        assert b.kind == kind, spec
        hosts = (b.ambient is not None, b.stepped is not None)
        assert hosts == (kind == "virtual", kind == "stepped"), spec
        assert len(b.graph) == kr_dimension(spec)


def test_stepped_build_closes_no_host(monkeypatch):
    closed = []

    def counting_closure(*args, **kwargs):
        graph = generate_closure(*args, **kwargs)
        closed.append(len(graph))
        return graph

    monkeypatch.setattr(kr_builders, "generate_closure", counting_closure)
    spec = AffineSpec("A2even", 3, 2, 2)
    build_kr(spec)
    assert closed == [196] == [kr_dimension(spec)]


def test_build_kr_builds_afresh():
    spec = AffineSpec("C1", 2, 1, 1)
    first, second = build_kr(spec), build_kr(AffineSpec("C1", 2, 1, 1))
    assert first is not second
    assert graph_document(first) == graph_document(second)
    assert to_dot(first) == to_dot(second)


@pytest.mark.parametrize(
    "fam,n,r,s",
    [
        ("A1", 2, 1, 2),
        ("B1", 3, 2, 1),
        ("C1", 3, 2, 1),
        ("D1", 4, 1, 2),
        ("A2even", 3, 1, 1),
        ("A2odd", 3, 3, 1),
        ("D2", 3, 1, 1),
        ("D2", 3, 3, 1),
    ],
)
def test_sizes_match_dimension_formula(fam, n, r, s):
    spec = AffineSpec(fam, n, r, s)
    assert len(build_kr(spec).graph.elements) == kr_dimension(spec)


# -- perfectness ----------------------------------------------------------------

def test_perfect_exactly_when_c_r_divides_s():
    # Fourier-Okado-Schilling (arXiv 0811.1604): B^{r,s} is perfect exactly
    # when c_r divides s, of level s / c_r, where c_r = 2 for B1 at r = n and
    # C1 below the top node and 1 otherwise; the grid and ten specs past it,
    # two of them not perfect
    past = [
        ("A1", 3, 1, 3), ("A1", 4, 2, 2), ("B1", 3, 3, 3), ("B1", 3, 3, 4), ("C1", 3, 1, 3),
        ("C1", 3, 2, 4), ("D1", 5, 2, 2), ("A2even", 2, 2, 3), ("A2odd", 3, 2, 3), ("D2", 3, 3, 3),
    ]
    levels = Counter()
    for spec in [*default_grid(), *(AffineSpec(*args) for args in past)]:
        fam, n, r, s = spec
        c = 2 if (fam == "B1" and r == n) or (fam == "C1" and r < n) else 1
        level = perfect_level(build_kr(spec))
        assert level == (s // c if s % c == 0 else None), spec
        levels[level] += 1
    assert levels == {1: 32, 2: 31, 3: 4, None: 7}


def _weight_keeping_swaps(spec, on_tops):
    # each swap of two moved sigma-pairs {a, a'}, {b, b'} of the dba route's
    # {2..n}-tops with wt a = wt b and wt a' = wt b': sigma(a) = b' and
    # sigma(b) = a', as entries to lay over sigma
    cls = tableaux.classical_crystal(
        spec.classical_type, spec.n, kr_decomposition(spec), spec.classical_colors
    )
    table = kr_builders._summand_table(spec, cls)
    sigma = on_tops(table, lambda P: pm.involution_S(P, spec.r, spec.s))
    pairs = sorted({tuple(sorted(pair)) for pair in sigma.items() if pair[0] != pair[1]})
    wt = cls.weights
    return [
        {a: b2, b2: a, b: a2, a2: b}
        for (a, a2), pair in itertools.combinations(pairs, 2)
        for b, b2 in (pair, pair[::-1])
        if wt[a] == wt[b] and wt[a2] == wt[b2]
    ]


def test_dba_sigma_swaps_that_the_suites_and_perfectness_miss(monkeypatch):
    # the blind spot written down: every weight-keeping swap of two sigma-pairs
    # on the 20 dba grid specs and four past the grid builds and moves f_0.
    # One fails a suite; of the other 13, perfect_level rejects 10, and two
    # A2odd 3,3,2 swaps and one D1 4,2,3 swap pass both
    past = [("B1", 3, 1, 3), ("A2odd", 3, 1, 3), ("D1", 5, 2, 2), ("D1", 4, 2, 3)]
    specs = [sp for sp in default_grid() if route(sp) == "dba"]
    assert len(specs) == 20
    on_tops = kr_builders._sigma_on_tops
    swap = {}
    monkeypatch.setattr(kr_builders, "_sigma_on_tops", lambda *args: on_tops(*args) | swap)
    failed, rejected, survived = {}, [], []
    for spec in [*specs, *(AffineSpec(*args) for args in past)]:
        f0 = build_kr(spec).graph.f[0]
        for k, entries in enumerate(_weight_keeping_swaps(spec, on_tops)):
            swap.update(entries)
            build = build_kr(spec)
            swap.clear()
            assert build.graph.f[0] != f0, (spec, k)
            key = (*spec, k)
            reports = [_CHECKS[name](build) for name in SUITES]
            if not all(rep.passed for rep in reports):
                failed[key] = [(rep.suite, rep.detail) for rep in reports if not rep.passed]
            else:
                (rejected if perfect_level(build) is None else survived).append(key)
    assert failed == {
        ("A2odd", 2, 2, 2, 0): [("sigma", "no automorphism of order 2 realizing 0 <-> 1")],
    }
    assert rejected == [
        ("B1", 3, 2, 2, 0), ("D1", 4, 2, 2, 0), ("A2odd", 3, 2, 2, 0), ("D1", 5, 2, 2, 0),
        *(("D1", 4, 2, 3, k) for k in (0, 1, 2, 3, 5, 6)),
    ]
    assert survived == [("A2odd", 3, 3, 2, 0), ("A2odd", 3, 3, 2, 1), ("D1", 4, 2, 3, 4)]
