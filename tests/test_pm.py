"""Sign diagrams, the branching bijection, doubling, and e_1 on stacked pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from krcrystals.cartan import Shape, weyl_dimension
from krcrystals.pm_diagrams import (
    PmDiagram,
    SignTriple,
    double_pm,
    enumerate_pm,
    f_string,
    highest_element,
    involution_S,
    is_doubled,
    make_pm,
    phi,
    phi_inverse,
    phi_table,
)
from krcrystals.tableaux import tableau_apply, tableau_weight

from oracles import (
    e1_on_pair,
    enumerate_tableaux,
    halve_pm,
    inner_shape,
    phi_direct,
    tableau_eps_phi,
    tableau_phi,
    tableau_phi_table,
)


def apply_word(ctype, n, elem, word, op):
    for a in word:
        elem = tableau_apply(ctype, n, elem, a, op)
        if elem is None:
            return None
    return elem


def is_highest(ctype, n, elem, colors):
    return all(tableau_eps_phi(ctype, n, elem, i)[0] == 0 for i in colors)


# -- construction and validation ---------------------------------------------------


def test_column_geometry():
    P = make_pm("C", 3, [(2, "+"), (3, "-"), (1, "-"), (2, "+-")])
    # canonical order: taller first, then . + 0 - +- within a height
    assert P.cols == ((3, "-"), (2, "+"), (2, "+-"), (1, "-"))
    assert P.inner_heights() == (2, 1, 0, 0)
    assert P.outer() == Shape(rows=(4, 3, 1))
    assert inner_shape(P) == Shape(rows=(2, 1))
    assert P.width() == 4


def test_make_pm_sorts_input_order():
    a = make_pm("C", 2, [(1, "+"), (2, "-")])
    b = make_pm("C", 2, [(2, "-"), (1, "+")])
    assert a == b


def test_nesting_violations_rejected():
    # inner heights must be weakly decreasing in canonical order
    with pytest.raises(ValueError):
        make_pm("C", 3, [(3, "+-"), (2, ".")])
    with pytest.raises(ValueError):
        make_pm("C", 3, [(2, "+-"), (1, ".")])


def test_type_c_full_height_rules():
    # a height-n column may not be empty: its inner would reach height n
    with pytest.raises(ValueError):
        make_pm("C", 2, [(2, ".")])
    assert make_pm("C", 2, [(2, "+")]).inner_heights() == (1,)
    with pytest.raises(ValueError):
        make_pm("C", 2, [], spin="+")


def test_type_b_zero_and_spin_rules():
    P = make_pm("B", 2, [(2, "0")])
    assert P.inner_heights() == (1,)
    with pytest.raises(ValueError):
        make_pm("B", 2, [(1, "0")])  # 0 lives at height n only
    with pytest.raises(ValueError):
        make_pm("B", 2, [(2, "0"), (2, "0")])  # at most one 0
    with pytest.raises(ValueError):
        make_pm("B", 2, [(2, ".")])  # no empty height-n columns
    assert make_pm("B", 2, [(1, "-")], spin="+").spin == "+"
    with pytest.raises(ValueError):
        make_pm("B", 2, [], spin="0")
    with pytest.raises(ValueError):
        make_pm("B", 2, [(2, "0")], spin="+")  # 0-column excludes a spin column


def test_type_d_color_rules():
    assert make_pm("D", 3, [(3, "+")], color=1).color == 1
    with pytest.raises(ValueError):
        make_pm("D", 3, [(3, "+")])  # full-height columns need a color
    with pytest.raises(ValueError):
        make_pm("D", 3, [(3, "+"), (3, "-")], color=1)  # no mixed bare signs
    assert make_pm("D", 3, [(3, "+"), (3, "+-")], color=2)
    with pytest.raises(ValueError):
        make_pm("D", 3, [(3, ".")], color=1)


def test_sign_triple_validation():
    t = SignTriple(2, 1, 0)
    assert t.total() == 3
    assert SignTriple(1, 1, 1, gamma=1).total() == 5
    with pytest.raises(ValueError):
        SignTriple(-1, 0, 0)
    with pytest.raises(ValueError):
        SignTriple(0, 0, 0, gamma=2)


REJECTIONS = [
    # _invalid_reason: the rules enumerate_pm filters its candidates by
    (lambda: make_pm("A", 2, []), "bad type context A_2"),
    (lambda: make_pm("B", 2, [], color=1), "column colors are a type D feature"),
    (lambda: make_pm("C", 2, [(3, "+")]), "column height 3 out of range"),
    (lambda: make_pm("C", 2, [(1, "+-")]), "state +- too tall for height 1"),
    (lambda: make_pm("D", 3, [], color=3), "color must be 1 or 2"),
    (lambda: make_pm("D", 3, [], spin="+"), "type D spin columns need a color"),
    # involution_S: signed contexts, and a diagram whose inner heights do not fit r and s
    (lambda: involution_S(make_pm("D", 3, [], spin="+", color=1), 1, 1),
     "the involution acts on unsigned-column contexts"),
    (lambda: involution_S(make_pm("C", 2, [(2, "+-")]), 1, 1), "blocks at sign height 0 for r=1"),
    (lambda: involution_S(make_pm("C", 2, [(1, "+")]), 2, 1),
     "single signs at block height 0 for r=2"),
    (lambda: involution_S(make_pm("C", 2, [(2, "+-"), (2, "+-")]), 2, 1), "more blocks than slots"),
    # double_pm: type D diagrams have no doubling
    (lambda: double_pm(make_pm("D", 3, [(3, "+")], color=1)),
     "doubling is defined for types B and C"),
]


@pytest.mark.parametrize("call,message", REJECTIONS, ids=[m for _, m in REJECTIONS])
def test_rejection_names_its_rule(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


# -- enumeration vs. branching dimensions -------------------------------------------


def branch_dim_ok(ctype, n, shape):
    total = sum(
        weyl_dimension(ctype, n - 1, inner_shape(P).weight(n - 1))
        for P in enumerate_pm(ctype, n, shape)
    )
    return total == weyl_dimension(ctype, n, shape.weight(n))


@pytest.mark.parametrize(
    "ctype,n,rows,spin",
    [
        ("C", 2, (), 0),
        ("C", 2, (2,), 0),
        ("C", 2, (2, 2), 0),
        ("C", 3, (2, 1), 0),
        ("C", 3, (2, 2, 2), 0),
        ("B", 2, (2,), 0),
        ("B", 2, (2, 2), 0),
        ("B", 2, (1, 1), 1),
        ("B", 2, (1,), 1),
        ("B", 3, (2, 1), 0),
        ("B", 3, (2, 2), 1),
        ("D", 4, (2, 2), 0),
        ("D", 4, (2, 1), 0),
    ],
)
def test_enumeration_matches_branching_dimension(ctype, n, rows, spin):
    assert branch_dim_ok(ctype, n, Shape(rows=rows, spin=spin))


def test_enumeration_single_box():
    # 2n = 2(n-1) + 1 + 1 and 2n+1 = (2n-1) + 1 + 1
    for ctype, n in [("C", 2), ("C", 3), ("B", 2), ("B", 3)]:
        diags = enumerate_pm(ctype, n, Shape(rows=(1,)))
        assert len(diags) == 3
        assert sorted(P.inner_heights() for P in diags) == [(0,), (0,), (1,)]
    assert len(enumerate_pm("C", 2, Shape())) == 1


def test_enumeration_colored_rectangles():
    # the shape carrying s copies of a spin weight admits s+1 diagrams
    for s in (1, 2, 3, 4):
        for color in (1, 2):
            sh = Shape(rows=(s // 2,) * 4 if s >= 2 else (), spin=s % 2, color=color)
            assert len(enumerate_pm("D", 4, sh)) == s + 1


def test_enumeration_spin_counts():
    assert len(enumerate_pm("B", 2, Shape(spin=1))) == 2
    assert len(enumerate_pm("B", 2, Shape(rows=(1,), spin=1))) == 6


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("C", 2), ("C", 3), ("B", 2), ("B", 3), ("D", 4)]),
    st.lists(st.integers(1, 3), min_size=0, max_size=3),
)
def test_enumeration_is_valid_and_nested(context, rows_list):
    ctype, n = context
    rows = tuple(sorted(rows_list, reverse=True))
    shape = Shape(rows=rows)
    if shape.columns() and shape.columns()[0] > (n if ctype != "D" else n - 2):
        return
    for P in enumerate_pm(ctype, n, shape):
        assert P.outer() == shape
        inner = P.inner_heights()
        assert all(a >= b for a, b in zip(inner, inner[1:]))
        assert make_pm(ctype, n, P.cols, P.spin, P.color) == P


# -- the branching bijection --------------------------------------------------------

PHI_GRID = [
    ("C", 2, Shape(rows=(2, 1))),
    ("C", 2, Shape(rows=(2, 2))),
    ("C", 3, Shape(rows=(2, 2))),
    ("C", 3, Shape(rows=(1, 1, 1))),
    ("B", 2, Shape(rows=(2, 1))),
    ("B", 2, Shape(rows=(1, 1), spin=1)),
    ("B", 3, Shape(rows=(2, 2))),
    ("D", 4, Shape(rows=(2, 1))),
]


@pytest.mark.parametrize("ctype,n,shape", PHI_GRID, ids=str)
def test_phi_is_highest_and_injective(ctype, n, shape):
    seen = {}
    for P in enumerate_pm(ctype, n, shape):
        b = tableau_phi(P)
        assert b is not None
        assert is_highest(ctype, n, b, range(2, n + 1))
        assert b not in seen, f"phi collision {P.cols} vs {seen[b].cols}"
        seen[b] = P
        # doubled weight on the lower letters 2..n reads off the inner shape
        w = tableau_weight(n, b[0], b[1])
        rows = inner_shape(P).rows
        expect = [2 * (rows[i] if i < len(rows) else 0) for i in range(n - 1)]
        if P.spin:
            expect = [c + 1 for c in expect]
        assert list(w[1:]) == expect


def test_phi_empty_string_diagram_is_highest_tableau():
    # the diagram with an empty operator string is the all-plus one
    for ctype, n, shape in [("C", 2, Shape(rows=(2, 2))), ("B", 3, Shape(rows=(2, 1)))]:
        cols = [(h, "+") for h in shape.columns()]
        P = make_pm(ctype, n, cols)
        assert f_string(P) == ()
        assert tableau_phi(P) == highest_element(n, shape)


def test_phi_single_minus_reaches_lowest_letter():
    # one - over a single box walks the letter chain down to bar-1
    for ctype, n in [("C", 2), ("C", 3), ("B", 2), ("B", 3)]:
        P = make_pm(ctype, n, [(1, "-")])
        assert tableau_phi(P) == (((-1,),), None)


@pytest.mark.parametrize("ctype,n,shape", PHI_GRID, ids=str)
def test_phi_inverse_roundtrip(ctype, n, shape):
    table = tableau_phi_table(ctype, n, (shape,))
    assert len(table) == len(enumerate_pm(ctype, n, shape))
    for P in enumerate_pm(ctype, n, shape):
        assert phi_inverse(table, tableau_phi(P)) == P


def test_phi_inverse_rejects_unknown_elements():
    shape = Shape(rows=(1,))
    stranger = (((-2,),), None)  # not {2..n}-highest
    with pytest.raises(ValueError):
        phi_inverse(tableau_phi_table("C", 2, (shape,)), stranger)


def test_phi_table_refuses_two_diagrams_on_one_element():
    # a Phi that is not injective would give a wrong sigma; the table says so:
    # a step that never moves sends every diagram to the top
    with pytest.raises(RuntimeError, match="to one element"):
        phi_table("C", 2, {Shape(rows=(1,)): "top"}, lambda x, i: x)


def test_phi_walks_the_callers_model():
    # the walk takes any f-step: here the arrows of the C2 letter crystal
    # 1 -1-> 2 -2-> bar 2 -1-> bar 1, whose {2}-tops are 1, 2 and bar 1
    arrows = {(1, 1): 2, (2, 2): -2, (-2, 1): -1}
    table = phi_table("C", 2, {Shape(rows=(1,)): 1}, lambda x, i: arrows.get((x, i)))
    cols = {x: P.cols for x, P in table.items()}
    assert cols == {1: ((1, "+"),), 2: ((1, "."),), -1: ((1, "-"),)}
    with pytest.raises(RuntimeError, match="branching walk died"):
        phi(make_pm("C", 2, [(1, "-")]), lambda x, i: None, 1)


@pytest.mark.parametrize(
    "ctype,n,shape",
    [
        ("C", 2, Shape(rows=(2, 2))),
        ("C", 3, Shape(rows=(2, 1))),
        ("B", 2, Shape(rows=(2, 2))),
        ("B", 2, Shape(rows=(2, 1), spin=1)),
        ("B", 3, Shape(rows=(1, 1), spin=1)),
        ("D", 4, Shape(rows=(2, 2))),
        ("D", 4, Shape(rows=(1, 1, 1))),
    ],
)
def test_phi_direct_agrees_with_phi(ctype, n, shape):
    for P in enumerate_pm(ctype, n, shape):
        assert phi_direct(P) == tableau_phi(P), P.cols


def test_phi_direct_rejects_colored_diagrams():
    with pytest.raises(ValueError):
        phi_direct(make_pm("D", 4, [(4, "+")], color=1))


# -- the sign involution ------------------------------------------------------------


def test_involution_spec_cases():
    # r=1, s=2: swapping + and - counts at height 0
    fixed = make_pm("C", 2, [(1, "+"), (1, "-")])
    assert involution_S(fixed, 1, 2) == fixed
    plus = make_pm("C", 2, [(1, "+"), (1, ".")])
    minus = make_pm("C", 2, [(1, "-"), (1, ".")])
    assert involution_S(plus, 1, 2) == minus
    assert involution_S(minus, 1, 2) == plus


@pytest.mark.parametrize(
    "ctype,n,r,s",
    [("C", 2, 2, 2), ("C", 3, 2, 2), ("C", 3, 3, 2), ("B", 3, 2, 2), ("D", 4, 2, 2)],
)
def test_involution_is_involutive_and_inner_preserving(ctype, n, r, s):
    outers = domino_removals(r, s)
    for rows in outers:
        for P in enumerate_pm(ctype, n, Shape(rows=rows)):
            Q = involution_S(P, r, s)
            assert inner_shape(Q) == inner_shape(P)
            assert Q.outer().rows in outers
            assert involution_S(Q, r, s) == P


def domino_removals(r, s):
    """Subshapes of (s^r) whose complement tiles by vertical dominoes."""
    out = set()

    def rec(rows):
        out.add(rows)
        for i in range(len(rows) - 1):
            if rows[i + 1] == rows[i] and rows[i] > 0:
                cand = rows[:i] + (rows[i] - 1, rows[i + 1] - 1) + rows[i + 2 :]
                if all(a >= b for a, b in zip(cand, cand[1:])):
                    rec(cand)

    rec((s,) * r)
    return {tuple(c for c in rows if c) for rows in out}


# -- doubling -----------------------------------------------------------------------


def test_doubling_rules():
    assert double_pm(make_pm("C", 2, [(1, "-")])).cols == ((1, "-"), (1, "-"))
    assert double_pm(make_pm("B", 2, [], spin="-")).cols == ((2, "-"),)
    assert double_pm(make_pm("B", 2, [(2, "0")])).cols == ((2, "+"), (2, "-"))


def test_doubling_roundtrip():
    for shape in [Shape(rows=(2, 1)), Shape(rows=(1,), spin=1), Shape(rows=(2, 2), spin=1)]:
        for P in enumerate_pm("B", 2, shape):
            D = double_pm(P)
            assert D.ctype == "C"
            assert is_doubled(D, "B")
            assert halve_pm(D, "B") == P
    for P in enumerate_pm("C", 3, Shape(rows=(2, 1))):
        D = double_pm(P)
        assert is_doubled(D, "C")
        assert halve_pm(D, "C") == P


def test_is_doubled_negatives():
    assert not is_doubled(make_pm("C", 2, [(1, "-")]), "C")
    assert not is_doubled(make_pm("C", 2, [(1, "-")]), "B")
    # one + and one - at full height decode to a 0-column for B, so valid
    assert is_doubled(make_pm("C", 2, [(2, "+"), (2, "-")]), "B")
    with pytest.raises(ValueError):
        halve_pm(make_pm("C", 2, [(1, "-")]), "C")


# -- e_1 on stacked pairs -----------------------------------------------------------


def test_e1_pair_shape_mismatch():
    P = make_pm("C", 2, [(1, "+")])
    p = make_pm("C", 1, [(1, "+")])
    with pytest.raises(ValueError):
        e1_on_pair(P, p)


def test_e1_moves_unpaired_plus_up():
    P = make_pm("C", 2, [(1, ".")])
    p = make_pm("C", 1, [(1, "+")])
    P2, p2 = e1_on_pair(P, p)
    assert P2.cols == ((1, "+"),) and p2.cols == ()


def test_e1_moves_unpaired_minus_down():
    P = make_pm("C", 2, [(1, "-")])
    p = make_pm("C", 1, [])
    P2, p2 = e1_on_pair(P, p)
    assert P2.cols == ((1, "."),) and p2.cols == ((1, "-"),)


def test_e1_annihilates_fully_paired():
    P = make_pm("C", 2, [(2, "+")])
    p = make_pm("C", 1, [(1, "+")])
    assert e1_on_pair(P, p) is None


def test_e1_receiver_keeps_nesting():
    # the + lands on the dotted column, not the taller minus column
    P = make_pm("C", 2, [(2, "-"), (1, ".")])
    p = make_pm("C", 1, [(1, "+"), (1, "-")])
    P2, p2 = e1_on_pair(P, p)
    assert P2.cols == ((2, "-"), (1, "+"))
    assert p2.cols == ((1, "-"),)


def test_e1_minus_lands_on_dotted_column():
    P = make_pm("C", 3, [(2, "+"), (2, "-")])
    p = make_pm("C", 2, [(1, "."), (1, "+")])
    P2, p2 = e1_on_pair(P, p)
    assert P2.cols == ((2, "."), (2, "+"))
    assert p2.cols == ((2, "-"), (1, "+"))


def test_e1_mixed_column_can_supply_the_plus():
    P = make_pm("C", 3, [(2, "."), (2, ".")])
    p = make_pm("C", 2, [(2, "+"), (2, "+-")])
    P2, p2 = e1_on_pair(P, p)
    assert P2.cols == ((2, "."), (2, "+"))
    assert p2.cols == ((2, "+"), (1, "-"))


def psi(ctype, n, P, p):
    elem = tableau_phi(P)
    word = [c + 1 for c in f_string(p)]
    return apply_word(ctype, n, elem, reversed(word), "f")


DIFF_GRID = [
    ("C", 2, Shape(rows=(2, 1)), True),
    ("C", 2, Shape(rows=(2, 2)), True),
    ("C", 3, Shape(rows=(2, 1)), True),
    ("C", 3, Shape(rows=(1, 1, 1)), True),
    ("B", 2, Shape(rows=(2,)), True),
    ("B", 3, Shape(rows=(2, 1)), True),
    ("B", 3, Shape(rows=(1, 1)), True),
    # colored inner components make the pair model undercount in type D
    ("D", 4, Shape(rows=(1, 1)), False),
    ("D", 4, Shape(rows=(2, 1)), False),
]


@pytest.mark.parametrize("ctype,n,shape,complete", DIFF_GRID, ids=str)
def test_e1_differential(ctype, n, shape, complete):
    highest3 = [
        b
        for b in enumerate_tableaux(ctype, n, shape)
        if is_highest(ctype, n, b, range(3, n + 1))
    ]
    pairs = {}
    for P in enumerate_pm(ctype, n, shape):
        for p in enumerate_pm(ctype, n - 1, inner_shape(P)):
            b = psi(ctype, n, P, p)
            assert b is not None and b in highest3
            assert b not in pairs
            pairs[b] = (P, p)
    if complete:
        assert len(pairs) == len(highest3)
    for b, (P, p) in pairs.items():
        expected = tableau_apply(ctype, n, b, 1, "e")
        got = e1_on_pair(P, p)
        if expected is None:
            assert got is None, (P.cols, p.cols)
        else:
            assert got is not None, (P.cols, p.cols)
            assert psi(ctype, n, *got) == expected, (P.cols, p.cols)
