"""Checks for the verification suites, anchored on hand-derived zero strings."""

import json

import pytest

from krcrystals import kr_builders, verify
from krcrystals import pm_diagrams as pm
from krcrystals.cartan import AffineSpec, Shape, affine_pairing, kr_decomposition
from krcrystals.crystal_core import CrystalGraph
from krcrystals.cli import main
from krcrystals.kr_builders import (
    AmbientLink,
    KRBuild,
    SteppedHost,
    _triple_of,
    build_kr,
)
from krcrystals.verify import (
    SUITES,
    CheckReport,
    _CHECKS,
    _phi0_rule,
    check_decompositions,
    check_jlowest,
    check_phi0,
    check_regularity,
    check_sigma,
    check_similarity,
    default_grid,
    run_suite,
)

from oracles import (
    classical_model,
    components_bfs,
    locate_tops,
    regularity_vertex_major,
    vertex_index,
    with_dropped_edge,
)


def _vertex(build, wt, isolated=False):
    """The unique vertex of this weight; ties broken by classical isolation."""
    g = build.graph
    hits = [x for x in range(len(g)) if g.weights[x] == wt]
    if len(hits) > 1:
        singles = {c[0] for c in g.components(build.spec.classical_colors) if len(c) == 1}
        hits = [x for x in hits if (x in singles) == isolated]
    assert len(hits) == 1
    return hits[0]


# Hand-derived zero arrows on B^{1,1}, as weight pairs.  "iso" marks the
# endpoint that forms a classical singleton when two weights coincide.
ZERO_ARROWS = {
    ("A1", 3): [((0, 0, 2), (2, 0, 0))],
    ("B1", 2): [((-2, 0), (0, 2)), ((0, -2), (2, 0))],
    ("C1", 2): [((-2, 0), (2, 0))],
    ("D1", 4): [((-2, 0, 0, 0), (0, 2, 0, 0)), ((0, -2, 0, 0), (2, 0, 0, 0))],
    ("A2odd", 2): [((-2, 0), (0, 2)), ((0, -2), (2, 0))],
    ("A2even", 2): [((-2, 0), ("iso", (0, 0))), (("iso", (0, 0)), (2, 0))],
    ("D2", 2): [((-2, 0), ("iso", (0, 0))), (("iso", (0, 0)), (2, 0))],
}


@pytest.mark.parametrize("family,n", sorted(ZERO_ARROWS))
def test_zero_arrows_on_single_boxes_match_hand_tables(family, n):
    build = build_kr(AffineSpec(family, n, 1, 1))
    g = build.graph

    def resolve(entry):
        if entry[0] == "iso":
            return _vertex(build, entry[1], isolated=True)
        return _vertex(build, entry)

    want = {(resolve(a), resolve(b)) for a, b in ZERO_ARROWS[(family, n)]}
    assert set(g.f[0].items()) == want


@pytest.mark.parametrize("family,n", sorted(ZERO_ARROWS))
def test_zero_string_pairing_matches_projected_root(family, n):
    for s in (1, 2):
        build = build_kr(AffineSpec(family, n, 1, s))
        g = build.graph
        for x in range(len(g)):
            want = affine_pairing(family, n, g.weights[x], 0)
            assert g.phi(0, x) - g.eps(0, x) == want


def test_pair_deletion_rule_on_all_minus_diagram():
    P = pm.PmDiagram("C", 2, ((1, "-"), (1, "-")))
    assert _phi0_rule(P, 1, 2, 2) == 2
    build = build_kr(AffineSpec("C1", 2, 1, 2))
    g = build.graph
    assert g.phi(0, _vertex(build, (-4, 0))) == 2


def test_pair_deletion_rule_vacuous_cases():
    assert _phi0_rule(pm.PmDiagram("C", 2, ((1, "."), (1, "."))), 1, 2, 2) == 0
    assert _phi0_rule(pm.PmDiagram("C", 2, ()), 1, 2, 2) == 1
    build = build_kr(AffineSpec("C1", 2, 1, 2))
    g = build.graph
    assert g.phi(0, _vertex(build, (4, 0))) == 0
    assert g.phi(0, _vertex(build, (0, 0), isolated=True)) == 1


def test_pair_deletion_rule_rejects_mixed_and_neutral_signs():
    assert _phi0_rule(pm.PmDiagram("C", 2, ((1, "+"), (1, "-"))), 1, 2, 2) is None
    assert _phi0_rule(pm.PmDiagram("B", 2, ((2, "0"),)), 2, 1, 1) is None


def test_sign_column_counts_give_zero_string_ends():
    build = build_kr(AffineSpec("C1", 2, 2, 1))
    g = build.graph
    top = _vertex(build, (2, 2))
    assert (g.eps(0, top), g.phi(0, top)) == (1, 0)
    bottom = _vertex(build, (-2, -2))
    assert (g.eps(0, bottom), g.phi(0, bottom)) == (0, 1)


def test_spin_triple_zero_arrows():
    build = build_kr(AffineSpec("D2", 2, 2, 1))
    g = build.graph
    by_render = {build.render(el, {}): k for k, el in enumerate(g.elements)}
    got = {
        (build.render(g.elements[x], {}), build.render(g.elements[y], {}))
        for x, y in g.f[0].items()
    }
    assert got == {("s:-+", "s:++"), ("s:--", "s:+-")}
    assert g.eps(0, by_render["s:++"]) == 1


SAMPLE_SPECS = (
    AffineSpec("A1", 3, 2, 2),
    AffineSpec("B1", 2, 1, 2),
    AffineSpec("B1", 2, 2, 2),
    AffineSpec("C1", 2, 1, 2),
    AffineSpec("C1", 2, 2, 2),
    AffineSpec("D1", 4, 3, 1),
    AffineSpec("A2even", 2, 2, 2),
    AffineSpec("A2odd", 2, 2, 1),
    AffineSpec("D2", 2, 2, 2),
    AffineSpec("D2", 3, 2, 1),
)


def test_all_suites_pass_on_sample_specs():
    reports = run_suite(SAMPLE_SPECS)
    assert len(reports) == len(SAMPLE_SPECS) * len(SUITES)
    bad = [r.line() for r in reports if not r.passed]
    assert not bad


def test_empty_grid_yields_empty_report():
    assert run_suite(()) == []
    single = run_suite((SAMPLE_SPECS[0],))
    assert [r.suite for r in single] == list(SUITES)


def test_reports_are_deterministic_and_untimed():
    lines1 = [r.line() for r in run_suite(SAMPLE_SPECS[:3])]
    lines2 = [r.line() for r in run_suite(SAMPLE_SPECS[:3])]
    assert lines1 == lines2
    spec = SAMPLE_SPECS[0]
    a = CheckReport("decomp", spec, True, "ok", None, seconds=0.1)
    b = CheckReport("decomp", spec, True, "ok", None, seconds=9.9)
    assert a.line() == b.line()
    assert a.to_dict() == b.to_dict()
    assert "seconds" not in a.to_dict()


def test_failing_report_carries_witness():
    build = build_kr(AffineSpec("C1", 2, 1, 1))
    report = check_regularity(with_dropped_edge(build, 1))
    assert not report.passed
    assert report.witness is not None and "element" in report.witness


def _with_closed_string(f):
    """A copy of the arrows f with the string down from its least head closed into a
    cycle, and the least vertex on that cycle."""
    string = [min(f.keys() - set(f.values()))]
    while string[-1] in f:
        string.append(f[string[-1]])
    return {**f, string[-1]: string[0]}, min(string)


def test_cyclic_zero_string_fails_the_build(monkeypatch, capsys, time_limit):
    # a cyclic 0-string is refused where the graph is made: from a build's
    # own arrows, and from a route that closes one, as one failing build report
    g = build_kr(AffineSpec("B1", 2, 2, 2)).graph
    f0, least = _with_closed_string(g.f[0])
    with pytest.raises(RuntimeError, match=f"^f_0 string does not end at vertex {least}$"):
        CrystalGraph(g.elements, g.colors, {**g.f, 0: f0}, g.weights)
    add_color, cycles = CrystalGraph.add_color, []

    def closing(graph, i, f0):
        f0, least = _with_closed_string(f0)
        cycles.append(least)
        return add_color(graph, i, f0)

    monkeypatch.setattr(CrystalGraph, "add_color", closing)
    spec = ["--family", "A2odd", "--n", "2", "--r", "1", "--s", "2"]
    assert main(["build", *spec]) == 1
    message = f"f_0 string does not end at vertex {cycles[-1]}"
    assert capsys.readouterr().err == f"kr: {message}\n"
    assert main(["check", *spec, "--format", "json"]) == 1
    reports = [(r["suite"], r["passed"], r["detail"]) for r in json.loads(capsys.readouterr().out)]
    assert reports == [("build", False, f"error: {message}")]


def _replaced(build, **fields):
    """A copy of the build with the given constructor fields set."""
    kept = {key: getattr(build, key) for key in ("spec", "graph", "ambient", "stepped")}
    return KRBuild(**(kept | fields))


def _with_weights(build, moved):
    """The build with each vertex of moved given its weight there."""
    g = build.graph
    weights = [moved.get(x, wt) for x, wt in enumerate(g.weights)]
    edges = {i: dict(g.f[i]) for i in g.colors}
    return _replaced(build, graph=CrystalGraph(g.elements, g.colors, edges, weights))


def _with_shifted_weight(build, x, shift):
    """The build with vertex x's weight moved by shift."""
    return _with_weights(build, {x: tuple(a + b for a, b in zip(build.graph.weights[x], shift))})


def _regularity_outcome(build):
    report = check_regularity(build)
    return report.passed, report.detail, report.witness


@pytest.mark.parametrize("spec", default_grid(), ids=str)
def test_regularity_agrees_with_the_vertex_major_scan_on_the_grid(spec):
    build = build_kr(spec)
    assert _regularity_outcome(build) == regularity_vertex_major(build)


REGULARITY_FAULT_SPECS = (
    AffineSpec("A1", 3, 1, 2),
    AffineSpec("B1", 3, 2, 1),
    AffineSpec("C1", 2, 2, 2),
    AffineSpec("A2even", 2, 1, 2),
)


@pytest.mark.parametrize("spec", REGULARITY_FAULT_SPECS, ids=str)
def test_regularity_agrees_with_the_vertex_major_scan_on_faults(spec, time_limit):
    build = build_kr(spec)
    broken = [with_dropped_edge(build, i, 3) for i in build.graph.colors]
    # a shift at the middle fails a weight step into it; at the top, a
    # pairing or its own step
    middle = len(build.graph) // 2
    dim = len(build.graph.weights[0])
    broken.append(_with_shifted_weight(build, middle, (2,) + (0,) * (dim - 1)))
    broken.append(_with_shifted_weight(build, 0, (0,) * (dim - 1) + (1,)))
    for mutated in broken:
        outcome = _regularity_outcome(mutated)
        assert not outcome[0]
        assert outcome == regularity_vertex_major(mutated)
        assert mutated.graph.components(mutated.graph.colors) == components_bfs(mutated.graph)
        for colors in ((0,), build.spec.classical_colors):
            assert mutated.graph.components(colors) == components_bfs(mutated.graph, colors)


@pytest.mark.parametrize("fam,n,r,s", [("A1", 2, 1, 20), ("C1", 2, 2, 6)])
def test_regularity_reads_each_string_once(fam, n, r, s):
    # every arrow lookup the suite makes: the graph read its strings where it
    # was made, and e_i is f_i's inverse by construction, so the scan takes
    # one f_i lookup per vertex and color, and no e_i lookup
    lookups = []

    class Counted(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    build = build_kr(AffineSpec(fam, n, r, s))
    g = build.graph
    g.f = {i: Counted(arrows) for i, arrows in g.f.items()}
    g.e = {i: Counted(arrows) for i, arrows in g.e.items()}
    assert check_regularity(build).passed
    assert len(lookups) == len(g) * len(g.colors)


def _first_red(check, build, colors):
    for color in colors:
        for k in range(len(build.graph.f[color])):
            if not check(with_dropped_edge(build, color, k)).passed:
                return color, k
    return None


@pytest.mark.parametrize(
    "suite,spec,colors",
    [
        ("regularity", AffineSpec("C1", 2, 1, 1), (1,)),
        ("regularity", AffineSpec("A2even", 2, 1, 1), (0,)),
        ("decomp", AffineSpec("B1", 2, 1, 1), (2,)),
        ("decomp", AffineSpec("A2odd", 2, 1, 1), (0,)),
        ("sigma", AffineSpec("A1", 3, 1, 1), (1,)),
        ("sigma", AffineSpec("A2odd", 2, 1, 1), (0,)),
        ("sigma", AffineSpec("C1", 2, 1, 1), (1,)),
        ("phi0", AffineSpec("C1", 2, 1, 2), (0,)),
        ("similarity", AffineSpec("A2even", 2, 1, 1), (1,)),
        ("jlowest", AffineSpec("B1", 2, 1, 2), (1,)),
        ("similarity", AffineSpec("C1", 2, 1, 2), (0,)),
        ("sigma", AffineSpec("D1", 4, 4, 1), (0,)),
        ("sigma", AffineSpec("A1", 3, 1, 1), (0,)),
        ("sigma", AffineSpec("C1", 2, 2, 2), (0,)),
    ],
)
def test_each_suite_flags_a_dropped_edge(suite, spec, colors):
    build = build_kr(spec)
    assert _CHECKS[suite](build).passed
    assert _first_red(_CHECKS[suite], build, colors) is not None


def test_dropped_edge_rebuild_is_consistent():
    build = build_kr(AffineSpec("B1", 2, 1, 1))
    mutated = with_dropped_edge(build, 0, 0)
    assert len(mutated.graph) == len(build.graph)
    assert len(mutated.graph.f[0]) == len(build.graph.f[0]) - 1
    assert mutated.graph.elements == build.graph.elements


def test_default_grid_covers_every_family_and_rank():
    grid = default_grid()
    families = {spec.family for spec in grid}
    assert families == {"A1", "B1", "C1", "D1", "A2even", "A2odd", "D2"}
    assert all(spec.n == 4 for spec in grid if spec.family == "D1")
    a1 = [spec for spec in grid if spec.family == "A1" and spec.n == 3]
    assert {spec.r for spec in a1} == {1, 2}
    c1 = [spec for spec in grid if spec.family == "C1" and spec.n == 3]
    assert {spec.r for spec in c1} == {1, 2, 3}


def test_suites_cover_their_scopes():
    checked = check_phi0(build_kr(AffineSpec("D2", 3, 1, 2)))
    assert checked.passed and checked.detail.endswith("diagram checks")
    vacuous = check_phi0(build_kr(AffineSpec("B1", 2, 1, 1)))
    assert vacuous.passed and "not applicable" in vacuous.detail
    spin = check_sigma(build_kr(AffineSpec("D1", 4, 4, 1)))
    assert spin.passed
    lowest = check_jlowest(build_kr(AffineSpec("C1", 3, 2, 2)))
    assert lowest.passed and lowest.detail.endswith("lowest elements")


def _similarity_with_host_steps(monkeypatch, build, steps):
    """check_similarity with some host steps replaced: steps maps (elem, i, op) to an answer."""
    real = build.stepped.host_apply
    monkeypatch.setattr(
        build.stepped, "host_apply", lambda *key: steps[key] if key in steps else real(*key)
    )
    return check_similarity(build)


def _first_vertex(build, i, phi):
    """The first vertex whose phi_i is phi, and its element."""
    g = build.graph
    x = next(x for x in range(len(g)) if g.phi(i, x) == phi)
    return x, g.elements[x]


def test_similarity_flags_a_host_string_cut_between_powers(monkeypatch):
    # color 1 steps by f_1^2 in the host: a host 1-string cut after its
    # first step has odd length
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    assert build.stepped.m[1] == 2 and check_similarity(build).passed
    _, v = _first_vertex(build, 1, 1)
    middle = build.stepped.host_apply(v, 1, "f")
    report = _similarity_with_host_steps(monkeypatch, build, {(middle, 1, "f"): None})
    assert not report.passed
    assert report.detail == "host string not divisible by the multiplier"


def test_similarity_flags_a_host_string_shorter_than_the_image_string(monkeypatch):
    # color 0 steps singly: a vanished host f_0 leaves the graph's 0-string longer
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    assert build.stepped.m[0] == 1
    _, v = _first_vertex(build, 0, 1)
    report = _similarity_with_host_steps(monkeypatch, build, {(v, 0, "f"): None})
    assert not report.passed
    assert report.detail == "image string is not the scaled host string"


def test_similarity_flags_a_host_edge_to_another_vertex(monkeypatch):
    # a host f_0 that lands on another end of a 0-string keeps every string
    # length and moves one edge
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    g = build.graph
    x, v = _first_vertex(build, 0, 1)
    ends = [w for y, w in enumerate(g.elements) if g.phi(0, y) == 0 and y != g.f[0][x]]
    report = _similarity_with_host_steps(monkeypatch, build, {(v, 0, "f"): ends[0]})
    assert not report.passed
    assert report.detail == "edge is not the powered host edge"


def test_similarity_stops_on_a_host_string_that_cycles(monkeypatch):
    # a host f_0 that returns its own input makes an endless host string:
    # the walk stops one step past the scaled length and fails there
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    _, v = _first_vertex(build, 0, 1)
    report = _similarity_with_host_steps(monkeypatch, build, {(v, 0, "f"): v})
    assert (report.passed, report.detail) == (False, "image string is not the scaled host string")


@pytest.mark.parametrize("spec", [("A2even", 2, 2, 1), ("D2", 3, 2, 1), ("B1", 3, 3, 2)])
def test_similarity_recomputes_the_host(monkeypatch, spec):
    # the build takes each f_1^2 in one signature pass, and similarity walks
    # the host in single steps taken afresh, so a single f_1 step that
    # vanishes after the build, at the last vertex with an f_1 arrow, fails
    # the check: nothing the build computed answers for the host
    build = build_kr(AffineSpec(*spec))
    host, g = build.stepped, build.graph
    assert host.m[1] == 2 and check_similarity(build).passed
    v, color = g.elements[max(g.f[1])], 2 if host.virtual else 1  # host color 1 in A2odd
    string = host._table.string

    def cut(elem, i, op, k=None):
        return (None, 0) if (elem, i, op, k) == (v, color, "f", 1) else string(elem, i, op, k)

    monkeypatch.setattr(host._table, "string", cut)
    report = check_similarity(build)
    assert (report.passed, report.detail) == (False, "image string is not the scaled host string")


def test_similarity_flags_two_diagrams_walking_to_one_top(monkeypatch):
    # after the build, every diagram's branching walk is empty, so each
    # diagram of a shape lands on the shape's top: Phi is not injective on
    # the first shape with two diagrams
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    shapes = build.stepped.model_shapes
    first, second = next(Ps for sh in shapes if len(Ps := pm.enumerate_pm("C", 2, sh)) > 1)[:2]
    monkeypatch.setattr(pm, "f_string", lambda P: ())
    report = check_similarity(build)
    assert not report.passed
    assert report.detail == f"error: phi sends {first} and {second} to one element"


# -- each failure branch of the suites, under fault injection ----------------------

def _arrow_out_of(build, i, x):
    """The position of x's f_i arrow among the build's sorted f_i arrows."""
    return sorted(build.graph.f[i]).index(x)


def _with_crossed_heads(build, i):
    """The build with the f_i arrows out of its first two i-string heads of one
    length crossed: every string keeps its length, and two edges move."""
    g = build.graph
    eps, phi = g.strings(i)
    heads = {}
    for x in range(len(g)):
        if not eps[x] and phi[x]:
            if phi[x] in heads:
                break
            heads[phi[x]] = x
    a, f = heads[phi[x]], dict(g.f[i])
    f[a], f[x] = f[x], f[a]
    edges = {j: dict(g.f[j]) for j in g.colors} | {i: f}
    return _replaced(build, graph=CrystalGraph(g.elements, g.colors, edges, g.weights))


def test_decomp_flags_a_graph_of_the_wrong_size():
    build = build_kr(AffineSpec("B1", 2, 1, 1))
    wider = _replaced(build, graph=build_kr(AffineSpec("B1", 2, 1, 2)).graph)
    report = check_decompositions(wider)
    assert (report.passed, report.detail) == (False, f"size {len(wider.graph)} != 5")


@pytest.mark.parametrize(
    "spec,detail",
    [
        (AffineSpec("A1", 3, 1, 1), "no automorphism of order 3 realizing i -> i+1 mod n"),
        (AffineSpec("A2odd", 2, 1, 1), "no automorphism of order 2 realizing 0 <-> 1"),
        (AffineSpec("D1", 4, 4, 1), "no automorphism of order 2 realizing 0 <-> 1, n-1 <-> n"),
        (AffineSpec("B1", 2, 2, 1), "no automorphism of order 2 realizing 0 <-> 1"),
        (AffineSpec("C1", 2, 2, 2), "no automorphism of order 2 realizing i -> n-i"),
    ],
)
def test_sigma_flags_a_graph_without_the_automorphism(spec, detail):
    # one color map per spec: rotation, 0 <-> 1 on the dba, spin and stepped
    # routes, i -> n-i.  Each pairs color 0 with another color, whose arrows
    # outnumber f_0's once one f_0 arrow is dropped
    build = build_kr(spec)
    assert check_sigma(build).passed
    report = check_sigma(with_dropped_edge(build, 0))
    assert (report.passed, report.detail, report.witness) == (False, detail, None)


def test_sigma_skips_an_automorphism_of_the_wrong_order(monkeypatch):
    # rotated vertex ids have order 4 on the four vertices: the search goes
    # past them to the involution, and fails when nothing follows them
    build = build_kr(AffineSpec("A2odd", 2, 1, 1))
    size = len(build.graph)
    assert size == 4
    rotated = {v: (v + 1) % size for v in range(size)}
    involution = verify.search_sigma(build.graph, build.spec)
    for found, passed, detail in [
        ([rotated, involution], True, "involution conjugating f_0 to f_1"),
        ([rotated], False, "no automorphism of order 2 realizing 0 <-> 1"),
    ]:
        search = lambda *args, found=found, **kwargs: iter(found)  # noqa: E731
        monkeypatch.setattr(build.graph, "isomorphisms", search)
        report = check_sigma(build)
        assert (report.passed, report.detail) == (passed, detail)


def test_phi0_flags_a_sign_column_count_off_the_zero_string(monkeypatch):
    # the triples route reads eps_0 off the sign columns: one + more in the
    # count misses it at the first {2..n}-top
    build = build_kr(AffineSpec("C1", 2, 2, 1))
    real = verify._sign_column_count

    def one_plus_more(family, P):
        return real(family, P) + 1

    monkeypatch.setattr(verify, "_sign_column_count", one_plus_more)
    report = check_phi0(build)
    assert (report.passed, report.detail) == (False, "eps_0 misses the sign-column count")
    assert report.witness["color"] == 0


def test_sign_column_count_is_the_triple_reading_of_the_builder():
    # phi0 counts eps_0 off the columns itself; the triples route keys f_0 by
    # the sign triple, whose l1 + gamma is the same count at every {2..n}-top
    checked = 0
    for spec in default_grid((2, 3, 4), (1, 2, 3)):
        if kr_builders.route(spec) != "triples":
            continue
        build = build_kr(spec)
        tops = locate_tops(build.graph, spec.n, kr_decomposition(spec))
        for P in pm.branching_table(build.graph, spec.classical_type, spec.n, tops).values():
            t = _triple_of(P)
            assert verify._sign_column_count(spec.family, P) == t.l1 + t.gamma, (spec, P)
            checked += 1
    assert checked == 93


def test_phi0_flags_a_vanished_zero_string_on_a_mixed_diagram():
    # the top of the mixed-sign diagram +|- has phi_0 = 1, and its short
    # column has no plus, so f_0 must act there: without that 0-arrow it does not
    build = build_kr(AffineSpec("D2", 3, 2, 2))
    g = build.graph
    table = pm.branching_table(g, "B", 3, locate_tops(g, 3, kr_decomposition(build.spec)))
    x = next(x for x, P in table.items() if P.cols == ((2, "+"), (1, "-")))
    assert check_phi0(build).passed and g.phi(0, x) == 1
    report = check_phi0(with_dropped_edge(build, 0, _arrow_out_of(build, 0, x)))
    assert (report.passed, report.detail) == (False, "phi_0 vanished without a short plus")
    assert report.witness == {"element": build.render(g.elements[x], {}), "color": 0}


def test_similarity_flags_image_tops_off_the_doubled_diagrams(monkeypatch):
    # a doubling rule that calls every diagram doubled: the first diagram top
    # outside the image is the witness
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    monkeypatch.setattr(pm, "is_doubled", lambda P, target: True)
    report = check_similarity(build)
    assert (report.passed, report.detail) == (False, "image tops are not the doubled diagrams")
    assert report.witness["in_image"] == "False"


def _fixed_point_build_and_host_without_first_arrow(build, _monkeypatch):
    """The fixed-point build with its first 1-arrow deleted, and the f_2 arrow under
    it deleted from its closed host: the graph still sits on that host, shifted."""
    g, host = build.graph, build.ambient.build
    v = vertex_index(host.graph)[g.elements[min(g.f[1])]]
    return _replaced(
        with_dropped_edge(build, 1, 0),
        ambient=AmbientLink(with_dropped_edge(host, 2, _arrow_out_of(host, 2, v))),
    )


def _with_a_host_top_off_the_graph(build, monkeypatch):
    """The build, checked on hosts whose top of the empty shape is the first {2..N}-top of
    the closed host that the graph lacks: their table holds one top off the image."""
    image, hg = set(build.graph.elements), build.ambient.build.graph
    tops = (hg.elements[x] for x in hg.highest_vertices(range(2, len(hg.colors))))
    lacking = next(top for top in tops if top not in image)
    real = SteppedHost.host_top

    def host_top(host, outer):
        return lacking if outer == Shape() else real(host, outer)

    monkeypatch.setattr(SteppedHost, "host_top", host_top)
    return build


@pytest.mark.parametrize(
    "mutation,detail",
    [
        (_fixed_point_build_and_host_without_first_arrow,
         "image string is not the scaled host string"),
        (lambda build, _: _with_crossed_heads(build, 0), "edge is not the powered host edge"),
        (lambda build, _: with_dropped_edge(build, 1),
         "image string is not the scaled host string"),
        (lambda build, _: _with_crossed_heads(build, 1), "edge is not the powered host edge"),
        (_with_a_host_top_off_the_graph, "image tops are not the doubled diagrams"),
    ],
    ids=["graph-and-host-arrow", "crossed-0-heads", "dropped-1-arrow", "crossed-1-heads",
         "missing-top"],
)
def test_similarity_flags_a_fixed_point_build_off_its_host(mutation, detail, monkeypatch):
    # the host is a fresh element-local one with every m_i = 1, never the
    # closed host the build read its arrows from
    build = build_kr(AffineSpec("C1", 2, 1, 2))
    report = check_similarity(build)
    assert build.kind == "virtual" and (report.passed, report.detail) == (True, "11 fixed points")
    report = check_similarity(mutation(build, monkeypatch))
    assert (report.passed, report.detail) == (False, detail)
    if "image tops" in detail:  # the lacking top is the witness
        assert report.witness["in_image"] == "False"


JLOWEST_FAULTS = [
    # a barred letter above an unbarred one, a zero letter in type C, a
    # barred letter as high as the run start, a taller column right of a
    # shorter one, and no columns at all where the branch top has a shape
    (((-1, 1),), "letters out of band order"),
    (((0,),), "zero letters outside type B"),
    (((3, -3),), "barred letter at or above the run start"),
    (((3,), (2, 3)), "inner heights are not a partition"),
    ((), "branch top misses the inner shape"),
]


def _lowest_tableaux_with_columns(cols):
    """_lowest_tableaux with the columns of every tableau replaced by cols, spin columns kept."""
    real = verify._lowest_tableaux
    return lambda spec, graph: ((x, (cols, spin)) for x, (_, spin) in real(spec, graph))


@pytest.mark.parametrize("cols,detail", JLOWEST_FAULTS, ids=[d for _, d in JLOWEST_FAULTS])
def test_jlowest_flags_each_column_pattern_fault(monkeypatch, cols, detail):
    build = build_kr(AffineSpec("A2odd", 3, 1, 1))
    assert check_jlowest(build).passed
    monkeypatch.setattr(verify, "_lowest_tableaux", _lowest_tableaux_with_columns(cols))
    report = check_jlowest(build)
    assert (report.passed, report.detail) == (False, detail)


def test_jlowest_flags_a_descent_step_that_vanishes():
    # the two classical tops of C1 2,1,2 trade weights: the B(2 omega_1) top
    # is read as B(0), whose highest tableau has no f_1 step to descend
    build = build_kr(AffineSpec("C1", 2, 1, 2))
    g = build.graph
    assert g.highest_vertices((1, 2)) == [0, 6] and (g.weights[0], g.weights[6]) == ((4, 0), (0, 0))
    report = check_jlowest(_with_weights(build, {0: (0, 0), 6: (4, 0)}))
    assert (report.passed, report.detail) == (False, "error: descent died on an f_1 string")


def test_jlowest_flags_a_classical_top_off_the_decomposition():
    # the B(0) top of A2even 2,1,1 moved to a weight no summand has
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    assert build.graph.weights[0] == (0, 0) and check_jlowest(build).passed
    report = check_jlowest(_with_shifted_weight(build, 0, (4, 4)))
    assert (report.passed, report.detail) == (
        False, "error: classical top of weight (4, 4) is off the decomposition"
    )


def test_phi0_flags_two_classical_tops_of_one_weight():
    # the B(0) top of A2even 2,1,1 moved onto the weight of the B(omega_1)
    # top: phi0 cannot tell which top heads which summand, so it fails
    # rather than pick one
    build = build_kr(AffineSpec("A2even", 2, 1, 1))
    assert build.graph.weights[:2] == [(0, 0), (2, 0)] and check_phi0(build).passed
    report = check_phi0(_with_shifted_weight(build, 0, (2, 0)))
    assert (report.passed, report.detail) == (
        False, "error: classical top of weight (2, 0) is not unique"
    )


def test_jlowest_descent_matches_the_transported_model():
    # the descent raises each {1..n-1}-lowest vertex to its classical top and
    # walks that top's highest tableau back down, one pass per string segment;
    # the reference carries every top's tableau along every f-arrow of its
    # component with a signature rule of its own
    specs = [spec for spec in default_grid() if kr_builders.route(spec) in ("stepped", "virtual")]
    specs += [AffineSpec("A2even", 3, 3, 3), AffineSpec("C1", 4, 3, 2)]
    routes, checked = set(), 0
    for spec in specs:
        build = build_kr(spec)
        g, n = build.graph, spec.n
        lowest = list(verify._lowest_tableaux(spec, g))
        want = [x for x in range(len(g)) if all(x not in g.f[i] for i in range(1, n))]
        assert [x for x, _ in lowest] == want, spec
        model = classical_model(build)
        for x, tab in lowest:
            assert tab == model[x], (spec, x)
        routes.add(kr_builders.route(spec))
        checked += len(lowest)
    assert routes == {"stepped", "virtual"} and checked == 613


def test_failing_json_report_carries_its_witness_in_key_order(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_lowest_tableaux", _lowest_tableaux_with_columns(((-1, 1),)))
    spec = ["--family", "A2odd", "--n", "3", "--r", "1", "--s", "1"]
    assert main(["check", *spec, "--suite", "jlowest", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == [{
        "suite": "jlowest", "family": "A2odd", "n": 3, "r": 1, "s": 1, "passed": False,
        "detail": "letters out of band order",
        "witness": {"color": 1, "column": "(-1, 1)", "element": "3"},
    }]
    assert out.index('"color"') < out.index('"column"') < out.index('"element"')
