"""Letters, columns, semistandard fillings, and the signature rule."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from krcrystals import tableaux
from krcrystals.cartan import Shape, weyl_dimension
from krcrystals.tableaux import (
    format_element,
    format_spin_tensor,
    letter_entries,
    letter_strings,
    SignatureTable,
    SpinTensorTable,
    signature,
    spin_e,
    spin_eps,
    spin_f,
    spin_phi,
    tableau_apply,
    tableau_weight,
)

from oracles import (
    adjacent_ok,
    all_letters,
    column_ok,
    enumerate_tableaux,
    letter_e,
    letter_eps,
    letter_f,
    letter_phi,
    letter_weight,
    pairing,
    parse_element,
    parse_spin_tensor,
    precedes,
    reading_word,
    reduce_signature,
    reference_apply,
    signature_index,
    spin_elements,
    spin_tensor_apply,
    spin_to_column,
    stack_signature_index,
    tableau_eps_phi,
    tableau_ok,
)


def test_letter_orders():
    assert list(all_letters("C", 2)) == [1, 2, -2, -1]
    assert list(all_letters("B", 2)) == [1, 2, 0, -2, -1]
    assert precedes("B", 2, 2, 0) and precedes("B", 2, 0, -2)
    assert precedes("C", 3, 3, -3)
    # n and bar n are incomparable in type D
    assert not precedes("D", 4, 4, -4) and not precedes("D", 4, -4, 4)
    assert precedes("D", 4, 3, 4) and precedes("D", 4, 3, -4)
    assert precedes("D", 4, 4, -3) and precedes("D", 4, -4, -3)


def test_letter_chain_crystals():
    # type C chain: 1 -> 2 -> bar2 -> bar1 under colors 1,2,1
    assert letter_f("C", 2, 1, 1) == 2
    assert letter_f("C", 2, 2, 2) == -2
    assert letter_f("C", 2, 1, -2) == -1
    assert letter_f("C", 2, 1, 2) is None
    # type B doubles color n through 0
    assert letter_f("B", 2, 2, 2) == 0
    assert letter_f("B", 2, 2, 0) == -2
    assert letter_phi("B", 2, 2, 2) == 2
    assert letter_eps("B", 2, 2, -2) == 2
    assert letter_eps("B", 2, 2, 0) == 1
    # type D forks at the end
    assert letter_f("D", 3, 2, 2) == 3
    assert letter_f("D", 3, 3, 2) == -3
    assert letter_f("D", 3, 3, 3) == -2
    assert letter_f("D", 3, 2, -3) == -2
    assert letter_f("D", 3, 3, -3) is None


def every_letter_and_color():
    """(ctype, n, i, letters) for every type, n up to 7, and every color."""
    for ctype in "ABCD":
        for n in range({"A": 2, "D": 3}.get(ctype, 1), 8):
            top = n - 1 if ctype == "A" else n
            for i in range(1, top + 1):
                yield ctype, n, i, all_letters(ctype, n)


def test_letter_e_inverts_f():
    # each entry's e and f letters are the closed-form f_i and its preimage
    # scan, None exactly where those vanish
    for ctype, n, i, letters in every_letter_and_color():
        entries = letter_entries(ctype, n, i)
        for x in letters:
            want = (letter_e(ctype, n, i, x), letter_f(ctype, n, i, x))
            assert entries.get(x, (0, 0, None, None))[2:] == want, (ctype, n, i, x)


def test_letter_signs_match_string_lengths():
    # the entries hold exactly the letters whose i-string lengths are not
    # both 0, with those lengths; every string is listed head first
    for ctype, n, i, letters in every_letter_and_color():
        entries = letter_entries(ctype, n, i)
        assert set(entries) <= set(letters), (ctype, n, i)
        for x in letters:
            pair = (letter_eps(ctype, n, i, x), letter_phi(ctype, n, i, x))
            assert (x in entries) == (pair != (0, 0)), (ctype, n, i, x)
            assert entries.get(x, (0, 0))[:2] == pair, (ctype, n, i, x)
        for string in letter_strings(ctype, n, i):
            assert letter_e(ctype, n, i, string[0]) is None, (ctype, n, i)


def test_signature_rule_worked_example():
    pairs = [(1, 2), (1, 1), (2, 1)]
    assert reduce_signature(pairs) == (1, 1)
    assert signature_index(pairs, "e") == 0
    assert signature_index(pairs, "f") == 2
    assert signature_index([(0, 0)], "e") is None
    assert signature_index([(0, 0)], "f") is None


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
    st.sampled_from("ef"),
)
@settings(max_examples=300)
def test_counting_signature_matches_stack(pairs, op):
    assert signature_index(pairs, op) == stack_signature_index(pairs, op)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10))
@settings(max_examples=300)
def test_signature_counts_and_both_indices(pairs):
    # one pass gives the reduced (eps, phi) and the factors e and f act on
    assert signature(pairs) == (
        *reduce_signature(pairs),
        stack_signature_index(pairs, "e"),
        stack_signature_index(pairs, "f"),
    )


@pytest.mark.parametrize(
    "ctype,n,shape",
    [(t, 4, Shape((2, 1))) for t in "ABCD"]
    + [("B", 3, Shape((2, 1), spin=1))]
    # several columns of unequal height at higher rank, where a wrong
    # (column, row) for the acted-on letter shows
    + [
        ("C", 5, Shape((3, 3, 2))),
        ("D", 5, Shape((2, 2, 1))),
        ("B", 4, Shape((2, 1), spin=1)),
        ("A", 5, Shape((3, 2, 2))),
    ],
)
def test_tableau_apply_matches_stack_reference(ctype, n, shape):
    top = n - 1 if ctype == "A" else n
    elems = list(enumerate_tableaux(ctype, n, shape))
    # shapes past 2,000 elements are sampled: every 73rd of the 73,710 in C5
    for elem in elems[:: max(1, len(elems) // 1000)]:
        for i in range(1, top + 1):
            for op in "ef":
                want = reference_apply(ctype, n, elem, i, op)
                assert tableau_apply(ctype, n, elem, i, op) == want


@pytest.mark.parametrize(
    "ctype,n,shape",
    [
        ("A", 4, Shape((2, 2, 1))),
        ("B", 3, Shape((2, 1), spin=1)),
        ("C", 4, Shape((2, 1, 1))),
        ("D", 4, Shape((2, 2))),
        ("D", 5, Shape((2, 1))),
    ],
)
def test_neighbours_match_single_steps(ctype, n, shape):
    # one table serves every element, as in a closure; each f_i equals the
    # single step, the e slot is empty, and the table's own e_i and f_i steps
    # equal the single steps of a table made for the call
    colors = tuple(range(1, n if ctype == "A" else n + 1))
    table = SignatureTable(ctype, n, colors)
    for elem in enumerate_tableaux(ctype, n, shape):
        want = [
            (i, tableau_apply(ctype, n, elem, i, "f"), tableau_apply(ctype, n, elem, i, "e"))
            for i in colors
        ]
        assert list(table.neighbours(elem)) == [(i, down, None) for i, down, _ in want]
        assert [(i, table.apply(elem, i, "f"), table.apply(elem, i, "e")) for i in colors] == want


@pytest.mark.parametrize("n,s", [(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_spin_tensor_table_matches_per_call_rule(n, s):
    colors = tuple(range(1, n + 1))
    table = SpinTensorTable("D", n, colors)
    for color in (1, 2):
        for vecs in itertools.product(list(spin_elements("D", n, color)), repeat=s):
            want = [
                (i, spin_tensor_apply(n, vecs, i, "f"), spin_tensor_apply(n, vecs, i, "e"))
                for i in colors
            ]
            assert list(table.neighbours(vecs)) == [(i, down, None) for i, down, _ in want]
            assert [(i, table.apply(vecs, i, "f"), table.apply(vecs, i, "e")) for i in colors] == want


def assert_strings_match_steps(table, elements, colors, step):
    # string(x, i, op, k) is k single steps for every k up to the string's
    # length, k=None the whole string, and a k past it (None, length)
    for elem in elements:
        for i in colors:
            for op in "ef":
                chain = [elem]
                while (y := step(chain[-1], i, op)) is not None:
                    chain.append(y)
                length = len(chain) - 1
                assert table.string(elem, i, op) == (chain[-1], length)
                for k, y in enumerate(chain):
                    assert table.string(elem, i, op, k) == (y, k)
                assert table.string(elem, i, op, length + 1) == (None, length)
                assert table.string(elem, i, op, length + 3) == (None, length)
                assert table.apply(elem, i, op) == (chain[1] if length else None)


@pytest.mark.parametrize(
    "ctype,n,shape",
    [
        ("C", 4, Shape((2, 2, 1))),
        ("C", 3, Shape((3, 2))),
        ("B", 3, Shape((2, 1))),
        ("B", 3, Shape((2, 1), spin=1)),
        ("D", 4, Shape((2, 1, 1))),
        ("A", 4, Shape((3, 1))),
        ("C", 4, Shape((3, 1))),
    ],
)
def test_string_is_repeated_single_steps(ctype, n, shape):
    # the steps come from the oracles' stack rule, not from the table, and
    # some whole-string jump rewrites every column, up to three, at once
    colors = tuple(range(1, n if ctype == "A" else n + 1))
    table = SignatureTable(ctype, n, colors)
    elements = list(enumerate_tableaux(ctype, n, shape))
    assert_strings_match_steps(table, elements, colors, partial(reference_apply, ctype, n))
    widest = max(
        sum(a != b for a, b in zip(elem[0], table.string(elem, i, op)[0][0]))
        for elem in elements
        for i in colors
        for op in "ef"
    )
    assert widest >= min(len(shape.columns()), 3)


@pytest.mark.parametrize("n,s", [(4, 3), (5, 2)])
def test_spin_tensor_string_is_repeated_single_steps(n, s):
    colors = tuple(range(1, n + 1))
    table = SpinTensorTable("D", n, colors)
    for color in (1, 2):
        elements = itertools.product(list(spin_elements("D", n, color)), repeat=s)
        assert_strings_match_steps(table, elements, colors, partial(spin_tensor_apply, n))


@pytest.mark.parametrize("ctype,shape", [("C", Shape((2, 1))), ("B", Shape((2, 1), spin=1))])
def test_kept_rows_answer_only_their_own_element(ctype, shape):
    # a table keeps the factor rows of the element it fetched last; elements
    # taken in turn through one table's string and neighbours get the
    # answers of a table that has met none of them
    fresh = partial(SignatureTable, ctype, 3, (1, 2, 3))
    table = fresh()
    elements = list(enumerate_tableaux(ctype, 3, shape))
    for pair in zip(elements, elements[1:]):
        for i, op in itertools.product((1, 2, 3), "ef"):
            for elem in pair:
                assert table.string(elem, i, op) == fresh().string(elem, i, op)
        for elem in pair:
            assert list(table.neighbours(elem)) == list(fresh().neighbours(elem))


def test_tableau_weight_sums_letter_weights():
    shapes = [("B", 3, Shape((2, 1), spin=1)), ("C", 3, Shape((2, 2))), ("D", 4, Shape((1, 1)))]
    for ctype, n, shape in shapes:
        for cols, spin in enumerate_tableaux(ctype, n, shape):
            want = [sum(w) for w in zip(*(letter_weight(x, n) for x in reading_word(cols)))]
            if spin is not None:
                want = [a + b for a, b in zip(want, spin)]
            assert tableau_weight(n, cols, spin) == tuple(want)


def test_column_conditions():
    # (1, bar1) fails the height bound, (2, bar2) passes at n=2
    assert not column_ok("C", 2, (1, -1))
    assert column_ok("C", 2, (2, -2))
    # repeated zeros allowed in type B columns, other repeats not
    assert column_ok("B", 2, (0, 0))
    assert not column_ok("B", 2, (2, 2))
    # type D alternating middle letters
    assert column_ok("D", 4, (4, -4)) and column_ok("D", 4, (-4, 4))
    assert not column_ok("D", 4, (4, 4))


def test_adjacency_rows():
    assert adjacent_ok("C", 2, (1, 2), (1, 2))
    assert not adjacent_ok("C", 2, (2,), (1,))
    # not both 0 in a row (type B)
    assert not adjacent_ok("B", 2, (0,), (0,))
    # incomparable pair cannot sit in one row (type D)
    assert not adjacent_ok("D", 4, (4,), (-4,))
    assert adjacent_ok("D", 4, (4,), (4,))


def test_middle_letter_configuration():
    # left column middle letter strictly below a right column one is illegal
    assert not adjacent_ok("B", 2, (2, -2), (2, -2))
    assert not adjacent_ok("B", 2, (2, 0), (2, -2))
    assert adjacent_ok("B", 2, (2, -2), (0, -1))
    assert adjacent_ok("B", 2, (0, -2), (-2, -1))


def test_spin_columns():
    assert spin_to_column((1, -1, 1)) == (1, 3, -2)
    assert spin_f("B", 2, 2, (1, 1)) == (1, -1)
    assert spin_f("B", 2, 1, (1, -1)) == (-1, 1)
    assert spin_f("D", 4, 4, (1, 1, 1, 1)) == (1, 1, -1, -1)
    assert spin_f("D", 4, 4, (1, 1, -1, 1)) is None
    assert len(list(spin_elements("B", 3))) == 8
    evens = list(spin_elements("D", 4, color=1))
    odds = list(spin_elements("D", 4, color=2))
    assert len(evens) == len(odds) == 8
    assert all(sv.count(-1) % 2 == 0 for sv in evens)


def test_spin_strings_match_weight_pairing():
    # minuscule: phi and eps are the positive and negative parts of the
    # coroot pairing of the (doubled) weight, and e_i undoes f_i
    for ctype, n in [("B", k) for k in range(1, 6)] + [("D", k) for k in range(3, 6)]:
        colors = (1, 2) if ctype == "D" else (1,)
        for sv in (v for c in colors for v in spin_elements(ctype, n, c)):
            for i in range(1, n + 1):
                p = pairing(ctype, n, sv, i)
                assert spin_phi(ctype, n, i, sv) == max(p, 0)
                assert spin_eps(ctype, n, i, sv) == max(-p, 0)
                down = spin_f(ctype, n, i, sv)
                assert (down is None) == (p <= 0)
                assert down is None or spin_e(ctype, n, i, down) == sv


def test_reading_word_order():
    cols = ((1, 2, 3), (1, 2))
    assert list(reading_word(cols)) == [1, 2, 1, 2, 3]


def test_weights():
    assert letter_weight(2, 3) == (0, 2, 0)
    assert letter_weight(-1, 3) == (-2, 0, 0)
    assert letter_weight(0, 3) == (0, 0, 0)
    assert tableau_weight(2, ((1, 2), (1, 2)), None) == (4, 4)
    assert tableau_weight(2, ((1,),), (1, 1)) == (3, 1)


# Differential oracle: closure under the tensor rule from the highest filling
# must equal the semistandard filter, and both must match the Weyl dimension.
ORACLE_SHAPES = [
    ("A", 3, Shape((2, 1))),
    ("A", 4, Shape((2, 2))),
    ("B", 2, Shape((2, 2))),
    ("B", 2, Shape((3, 1))),
    ("B", 2, Shape((1, 1), spin=1)),
    ("B", 2, Shape((2,), spin=1)),
    ("B", 3, Shape((2, 2))),
    ("B", 3, Shape((1, 1, 1), spin=1)),
    ("C", 2, Shape((2, 1))),
    ("C", 2, Shape((3, 1))),
    ("C", 3, Shape((2, 2))),
    ("C", 3, Shape((2, 2, 2))),
    ("D", 4, Shape((1, 1))),
    ("D", 4, Shape((2, 1))),
    ("D", 4, Shape((2, 2))),
]


def closure(ctype, n, elem, colors):
    seen = {elem}
    stack = [elem]
    while stack:
        x = stack.pop()
        for i in colors:
            for op in ("e", "f"):
                y = tableau_apply(ctype, n, x, i, op)
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


@pytest.mark.parametrize("ctype,n,shape", ORACLE_SHAPES)
def test_classical_crystal_three_way(ctype, n, shape):
    colors = list(range(1, (n - 1 if ctype == "A" else n) + 1))
    cols = tuple(tuple(range(1, h + 1)) for h in shape.columns())
    hi = (cols, (1,) * n if shape.spin else None)
    reached = closure(ctype, n, hi, colors)
    filtered = set(enumerate_tableaux(ctype, n, shape))
    assert reached == filtered
    assert len(reached) == weyl_dimension(ctype, n, shape.weight(n))


@pytest.mark.parametrize(
    "ctype,n,shape",
    [(t, 4, Shape((2, 1))) for t in "ABCD"]
    + [("B", 3, Shape((2, 1), spin=1)), ("D", 4, Shape((1,), spin=1, color=2))],
)
def test_enumerate_tableaux_is_the_kn_list(ctype, n, shape):
    # the closure's elements, each once, are exactly the fillings the KN rules accept
    got = tableaux.enumerate_tableaux(ctype, n, shape)
    assert len(set(got)) == len(got)
    assert set(got) == set(enumerate_tableaux(ctype, n, shape))


@pytest.mark.parametrize("color", [1, 2])
def test_enumerate_tableaux_refuses_colored_full_height_columns(color):
    # the closure seeds at one top for both colors, so it refuses instead
    with pytest.raises(ValueError, match="type D full-height columns split by color"):
        tableaux.enumerate_tableaux("D", 4, Shape((1, 1, 1, 1), color=color))


@pytest.mark.parametrize("ctype,n,shape", ORACLE_SHAPES)
def test_crystal_axioms_on_shape(ctype, n, shape):
    colors = list(range(1, (n - 1 if ctype == "A" else n) + 1))
    elems = list(enumerate_tableaux(ctype, n, shape))
    for elem in elems:
        wt = tableau_weight(n, *elem)
        for i in colors:
            eps, phi = tableau_eps_phi(ctype, n, elem, i)
            down = tableau_apply(ctype, n, elem, i, "f")
            up = tableau_apply(ctype, n, elem, i, "e")
            assert (down is not None) == (phi > 0)
            assert (up is not None) == (eps > 0)
            if down is not None:
                # f then e returns; weight drops by one i-arrow
                assert tableau_apply(ctype, n, down, i, "e") == elem
                assert tableau_ok(ctype, n, down[0], down[1])


def test_parse_format_roundtrip():
    elem = (((1, 2), (3, -2)), None)
    assert parse_element(format_element(elem, {})) == elem
    assert format_element(elem, {}) == "1,2|3,-2"
    spun = (((1,),), (1, -1))
    assert format_element(spun, {}) == "s:+-|1"
    assert parse_element("s:+-|1") == spun
    assert parse_spin_tensor(format_spin_tensor(((1, -1), (-1, -1)), {})) == (
        (1, -1),
        (-1, -1),
    )


@given(
    st.sampled_from(["A", "B", "C", "D"]),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_letter_eps_phi_count_strings(ctype, n, data):
    if ctype == "D" and n < 3:
        n = 3
    letters = all_letters(ctype, n)
    x = data.draw(st.sampled_from(letters))
    top = n - 1 if ctype == "A" else n
    i = data.draw(st.integers(1, top))
    phi = letter_phi(ctype, n, i, x)
    eps = letter_eps(ctype, n, i, x)
    y, k = x, 0
    while letter_f(ctype, n, i, y) is not None:
        y = letter_f(ctype, n, i, y)
        k += 1
    assert k == phi
    y, k = x, 0
    while letter_e(ctype, n, i, y) is not None:
        y = letter_e(ctype, n, i, y)
        k += 1
    assert k == eps
    assert sum(letter_weight(x, n)) % 2 == 0


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
@settings(max_examples=100)
def test_signature_counts_match_index_presence(pairs):
    eps, phi = reduce_signature(pairs)
    assert (signature_index(pairs, "e") is not None) == (eps > 0)
    assert (signature_index(pairs, "f") is not None) == (phi > 0)
    total_minus = sum(e for e, _ in pairs)
    total_plus = sum(p for _, p in pairs)
    assert total_plus - total_minus == phi - eps


def test_signature_table_reads_each_colors_letters_once(monkeypatch):
    # a table reads the letter crystal of each of its colors when it is made,
    # and not again for the columns it meets
    calls = []
    letters = tableaux.letter_entries
    monkeypatch.setattr(tableaux, "letter_entries", lambda *key: calls.append(key) or letters(*key))
    shape = Shape((2, 2, 1))
    graph = tableaux.classical_crystal("C", 3, (shape,), (1, 2, 3))
    assert len(graph) == weyl_dimension("C", 3, shape.weight(3))
    assert calls == [("C", 3, 1), ("C", 3, 2), ("C", 3, 3)]
