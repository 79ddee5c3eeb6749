"""Acceptance gate: one test per advertised guarantee, on the default grid.

Each criterion is a single test so the verbose run shows one pass/fail line
per guarantee.  The grid covers every family, small ranks, and s up to 2.
"""

import pytest

from krcrystals import pm_diagrams as pm
from krcrystals.cartan import AffineSpec, Shape, kr_decomposition, kr_dimension
from krcrystals.kr_builders import build_kr
from krcrystals.tableaux import classical_crystal, tableau_apply
from krcrystals.verify import (
    _CHECKS,
    check_decompositions,
    check_phi0,
    check_regularity,
    check_sigma,
    check_similarity,
    default_grid,
)

from oracles import (
    e1_on_pair,
    enumerate_tableaux,
    inner_shape,
    phi_direct,
    reduce_signature,
    signature_index,
    tableau_phi,
    with_dropped_edge,
)


@pytest.fixture(scope="module")
def grid():
    return [(spec, build_kr(spec)) for spec in default_grid()]


def _failures(reports):
    return [r.line() for r in reports if not r.passed]


def _letter_edges(ctype, n):
    g = classical_crystal(ctype, n, [Shape((1,))], tuple(range(1, n + 1)))
    letters = {x: elem[0][0][0] for x, elem in enumerate(g.elements)}
    return len(g), {
        (letters[x], i, letters[y]) for i in g.colors for x, y in g.f[i].items()
    }


def test_criterion_01_letter_crystal_goldens():
    size, edges = _letter_edges("C", 3)
    assert size == 6
    assert edges == {(1, 1, 2), (2, 2, 3), (3, 3, -3), (-3, 2, -2), (-2, 1, -1)}
    size, edges = _letter_edges("B", 3)
    assert size == 7
    assert edges == {
        (1, 1, 2), (2, 2, 3), (3, 3, 0), (0, 3, -3), (-3, 2, -2), (-2, 1, -1),
    }
    size, edges = _letter_edges("D", 4)
    assert size == 8
    assert edges == {
        (1, 1, 2), (2, 2, 3), (3, 3, 4), (3, 4, -4),
        (4, 4, -3), (-4, 3, -3), (-3, 2, -2), (-2, 1, -1),
    }


def test_criterion_02_signature_rule_worked_example():
    pairs = [(1, 2), (1, 1), (2, 1)]
    assert signature_index(pairs, "e") == 0
    assert signature_index(pairs, "f") == 2
    assert reduce_signature(pairs) == (1, 1)


def test_criterion_03_classical_decomposition_and_dimension(grid):
    for spec, build in grid:
        shapes = kr_decomposition(spec)
        assert len(build.graph) == kr_dimension(spec), spec
        want = sorted(sh.weight(spec.n) for sh in shapes)
        assert build.graph.decomposition(spec.classical_colors) == want, spec


def test_criterion_04_zero_side_decomposition(grid):
    reports = [check_decompositions(build) for _, build in grid]
    assert not _failures(reports), _failures(reports)


def test_criterion_05_regularity_and_level_zero(grid):
    reports = [check_regularity(build) for _, build in grid]
    assert not _failures(reports), _failures(reports)


def test_criterion_06_zero_color_automorphisms(grid):
    reports = [check_sigma(build) for _, build in grid]
    assert not _failures(reports), _failures(reports)


def test_criterion_07_similarity_embeddings(grid):
    reports = [check_similarity(build) for _, build in grid]
    assert not _failures(reports), _failures(reports)


def test_criterion_08_phi_zero_formulas(grid):
    reports = [check_phi0(build) for _, build in grid]
    assert not _failures(reports), _failures(reports)


def test_criterion_09_affine_connectivity(grid):
    for spec, build in grid:
        assert len(build.graph.components(build.graph.colors)) == 1, spec


# -- criterion 10: independent differential oracles ---------------------------

E1_SHAPES = {
    ("C", 2): [(), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2)],
    ("C", 3): [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 2, 2)],
    ("B", 2): [(), (1,), (2,), (3,)],
    ("B", 3): [(), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2)],
    ("D", 4): [(), (1,), (2,), (1, 1), (2, 1), (2, 2)],
}


def _grid_shapes():
    shapes = {}
    for spec in default_grid():
        for sh in kr_decomposition(spec):
            shapes.setdefault((spec.classical_type, spec.n), set()).add(sh)
    return shapes


def _psi(ctype, n, P, p):
    """Pair (P, p) -> tableau: raise through the diagram walk of both layers."""
    elem = tableau_phi(P)
    for a in reversed([c + 1 for c in pm.f_string(p)]):
        elem = tableau_apply(ctype, n, elem, a, "f")
        assert elem is not None, (P.cols, p.cols)
    return elem


def _e1_agrees_on_shape(ctype, n, shape):
    for P in pm.enumerate_pm(ctype, n, shape):
        for p in pm.enumerate_pm(ctype, n - 1, inner_shape(P)):
            b = _psi(ctype, n, P, p)
            expected = tableau_apply(ctype, n, b, 1, "e")
            got = e1_on_pair(P, p)
            if expected is None:
                assert got is None, (ctype, n, shape, P.cols, p.cols)
            else:
                assert got is not None, (ctype, n, shape, P.cols, p.cols)
                assert _psi(ctype, n, *got) == expected, (
                    ctype, n, shape, P.cols, p.cols,
                )


def test_criterion_10_differential_oracles():
    shapes = _grid_shapes()
    # two constructions of the branching walk agree wherever both exist
    for (ctype, n), shs in sorted(shapes.items()):
        if ctype not in "BC":
            continue
        for sh in sorted(shs, key=str):
            for P in pm.enumerate_pm(ctype, n, sh):
                assert phi_direct(P) == tableau_phi(P), (ctype, n, sh, P.cols)
    # the pair-level e_1 matches the signature-rule e_1 through the embedding
    for (ctype, n), rows_list in E1_SHAPES.items():
        for rows in rows_list:
            _e1_agrees_on_shape(ctype, n, Shape(rows))
    # filter-enumeration equals f-closure on every supported grid shape
    checked = 0
    for (ctype, n), shs in sorted(shapes.items()):
        colors = tuple(range(1, n)) if ctype == "A" else tuple(range(1, n + 1))
        for sh in sorted(shs, key=str):
            if ctype == "D" and sh.color and sh.columns() and sh.columns()[0] == n:
                continue  # full-height D columns are modeled as spin tensors
            closure = classical_crystal(ctype, n, [sh], colors)
            assert set(closure.elements) == set(enumerate_tableaux(ctype, n, sh)), (
                ctype, n, sh,
            )
            checked += 1
    assert checked >= 40


FAULTS = [
    ("regularity", AffineSpec("C1", 2, 1, 1), (1,)),
    ("decomp", AffineSpec("B1", 2, 1, 1), (2,)),
    ("sigma", AffineSpec("A1", 3, 1, 1), (1,)),
    ("phi0", AffineSpec("C1", 2, 1, 2), (0,)),
    ("similarity", AffineSpec("A2even", 2, 1, 1), (1,)),
    ("jlowest", AffineSpec("B1", 2, 1, 2), (1,)),
]


def test_criterion_11_fault_injection_trips_every_suite():
    for suite, spec, colors in FAULTS:
        build = build_kr(spec)
        assert _CHECKS[suite](build).passed, (suite, spec)
        tripped = any(
            not _CHECKS[suite](with_dropped_edge(build, color, k)).passed
            for color in colors
            for k in range(len(build.graph.f[color]))
        )
        assert tripped, (suite, spec)
