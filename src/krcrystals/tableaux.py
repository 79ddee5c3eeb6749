"""The classical crystals B(lambda) of types A, B, C, D, on tableaux.

Letters are ints: i unbarred, -i barred, 0 the middle letter of type B; the
letter crystal is its i-strings.  A column is a tuple of letters from bottom
(smallest) to top, a tableau a tuple of columns left to right, bottom-aligned,
so row k of a column is index k-1.  Type B shapes may carry one half-width spin
column on the left, a tuple of signs +1/-1 (the sign of letter i) with its own
minuscule moves.  e_i and f_i act on the tensor of those factors through the
signature rule, and B(lambda) is the closure of its highest tableau under them
(`classical_crystal`), the one way the package computes it.
"""

from __future__ import annotations

from functools import partial

from .crystal_core import generate_closure
from .pm_diagrams import highest_element


# -- the letter crystal ---------------------------------------------------------

def letter_strings(ctype: str, n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The i-strings of the letter crystal longer than one letter, each head first."""
    if ctype == "A":
        return ((i, i + 1),)
    if i < n - 1 or (i < n and ctype != "D"):
        return ((i, i + 1), (-(i + 1), -i))
    if ctype == "B":
        return ((n, 0, -n),)
    if ctype == "C":
        return ((n, -n),)
    if i == n - 1:  # D
        return ((n - 1, n), (-n, -(n - 1)))
    return ((n - 1, -n), (n, -(n - 1)))  # D, i == n


def letter_entries(ctype: str, n: int, i: int) -> dict:
    """{letter: (eps_i, phi_i, e_i letter, f_i letter)} for the letters on an i-string."""
    out = {}
    for string in letter_strings(ctype, n, i):
        padded = (None, *string, None)  # padded[k] and padded[k + 2] flank string[k]
        for k, x in enumerate(string):
            out[x] = (k, len(string) - 1 - k, padded[k], padded[k + 2])
    return out


# -- spin factors (types B and D), stored as sign tuples ---------------------

def _spin_move(ctype: str, n: int, i: int):
    """(index of the first sign f_i reads, the signs it reads, the signs it writes)."""
    if i < n:
        return i - 1, (1, -1), (-1, 1)
    if ctype == "B":
        return n - 1, (1,), (-1,)
    return n - 2, (1, 1), (-1, -1)


def _swap_signs(sv, at: int, old, new):
    """sv with the signs old at position at replaced by new; None if sv reads no old there."""
    if sv[at : at + len(old)] != old:
        return None
    return sv[:at] + new + sv[at + len(old) :]


def spin_f(ctype: str, n: int, i: int, sv):
    at, read, written = _spin_move(ctype, n, i)
    return _swap_signs(sv, at, read, written)


def spin_e(ctype: str, n: int, i: int, sv):
    at, read, written = _spin_move(ctype, n, i)
    return _swap_signs(sv, at, written, read)


def spin_phi(ctype: str, n: int, i: int, sv) -> int:
    """1 if f_i acts on the spin vector, else 0 (spin crystals are minuscule)."""
    return int(spin_f(ctype, n, i, sv) is not None)


def spin_eps(ctype: str, n: int, i: int, sv) -> int:
    """1 if e_i acts on the spin vector, else 0."""
    return int(spin_e(ctype, n, i, sv) is not None)


# -- tableaux -----------------------------------------------------------------

def tableau_weight(n: int, cols, spin) -> tuple[int, ...]:
    """Doubled weight: 2 at i per letter i, -2 per bar i, plus the spin signs."""
    w = list(spin) if spin is not None else [0] * n
    for col in cols:
        for x in col:
            if x > 0:
                w[x - 1] += 2
            elif x:
                w[-x - 1] -= 2
    return tuple(w)


# -- the signature rule -------------------------------------------------------

def signature(pairs):
    """(eps, phi, e index, f index) of a tensor product from per-factor (eps, phi).

    Each factor reads -^eps +^phi, and a + cancels the nearest free - to its
    right.  e acts on the factor of the rightmost free -, f on that of the
    leftmost free +, None where none is left.  In one left-to-right pass a
    free - stays free, and the leftmost free + resets when none is pending.
    """
    minus = plus = 0
    e_at = f_at = None
    for k, pair in enumerate(pairs):
        eps, phi = pair[0], pair[1]
        if eps > plus:
            minus += eps - plus
            plus, e_at = 0, k
        else:
            plus -= eps
        if not plus:
            f_at = k if phi else None
        plus += phi
    return minus, plus, e_at, f_at


# -- tensors of factors: one entry per factor and color -----------------------

_INERT = (0, 0, None, None)  # the entry of a letter on no i-string


def column_entry(letters: dict, col):
    """(eps_i, phi_i, e_i image, f_i image) of a column, from its letters' `letter_entries`."""
    entries = [letters.get(x, _INERT) for x in col]
    eps, phi, e_at, f_at = signature(entries)

    def swapped(r, slot):
        return None if r is None else col[:r] + (entries[r][slot],) + col[r + 1 :]

    return eps, phi, swapped(e_at, 2), swapped(f_at, 3)


def spin_entry(ctype: str, n: int, i: int, sv):
    """(eps_i, phi_i, e_i image, f_i image) of a spin vector."""
    return tuple(rule(ctype, n, i, sv) for rule in (spin_eps, spin_phi, spin_e, spin_f))


class SignatureTable:
    """The signature rule on the tensor factors of tableaux, one entry per factor.

    A tableau (cols, spin) is the tensor of its columns, rightmost first,
    then the type B spin column; a column is the tensor of its letters.  The
    acted-on sign is the acted-on factor's own leftmost free + (f) or
    rightmost free - (e), so a step is the rule over the factors' (eps, phi)
    and one factor swapped for its image.  A factor's entries, one per color,
    are computed when the table first meets it, a column's from each color's
    letter entries, read once per table; each build owns its table.  It keeps
    the rows of the last element fetched, by identity, for the next pass on it.
    """

    def __init__(self, ctype: str, n: int, colors):
        self.ctype, self.n, self.colors = ctype, n, tuple(colors)
        self._slot = {i: k for k, i in enumerate(self.colors)}
        self._columns, self._spins = {}, {}  # factor -> its entry for each color
        letters = [letter_entries(ctype, n, i) for i in self.colors]  # read once per table
        self._column_rules = [partial(column_entry, table) for table in letters]
        self._spin_rules = [partial(spin_entry, ctype, n, i) for i in self.colors]
        self._last = None, None  # the element _rows fetched last, and its rows

    def _row(self, memo, rules, factor):
        row = memo.get(factor)
        if row is None:
            row = memo[factor] = tuple(rule(factor) for rule in rules)
        return row

    def _rows(self, elem):
        if elem is not self._last[0]:
            cols, spin = elem
            memo, rules = self._columns, self._column_rules
            rows = [memo.get(col) or self._row(memo, rules, col) for col in reversed(cols)]
            if spin is not None:
                rows.append(self._row(self._spins, self._spin_rules, spin))
            self._last = elem, rows
        return self._last[1]

    @staticmethod
    def _put(elem, moves):
        """elem with each (k, image) of moves put in; factors run right to left, spin last."""
        cols, spin = elem
        last = len(cols) - 1
        new = list(cols)
        for k, image in moves:
            if k > last:
                spin = image
            else:
                new[last - k] = image
        return tuple(new), spin

    def string(self, elem, i: int, op: str, k=None):
        """(e_i^k or f_i^k of elem, k) ('e'/'f') from one signature pass.

        k=None is the whole string, and a k past it gives (None, its length).
        e takes the k rightmost free -, counted left to right, f the k leftmost
        free +, counted right to left; each factor walks its own entries for
        its share, and the element is rebuilt once.
        """
        slot, side = self._slot[i], 2 if op == "e" else 3
        rows = self._rows(elem)
        reads, keeps = (0, 1) if op == "e" else (1, 0)
        order = range(len(rows)) if op == "e" else range(len(rows) - 1, -1, -1)
        free, length, other = [], 0, 0  # (factor, its free signs), in pass order
        for j in order:
            entry = rows[j][slot]
            own = entry[reads] - other  # other: the carried signs that cancel these
            other = entry[keeps] - own if own < 0 else entry[keeps]
            if own > 0:
                free.append((j, own))
                length += own
        if (k := length if k is None else k) > length:
            return None, length
        moves, left = [], k
        while left:
            j, share = free.pop()  # the signs op takes come last in the pass
            share = min(share, left)
            left -= share
            image = rows[j][slot][side]
            if share > 1:  # a column: spin factors are minuscule, one free sign at most
                for _ in range(share - 1):
                    image = self._row(self._columns, self._column_rules, image)[slot][side]
            moves.append((j, image))
        return (self._put(elem, moves) if moves else elem), k

    def apply(self, elem, i: int, op: str):
        """e_i/f_i ('e'/'f') of elem; None if it vanishes."""
        return self.string(elem, i, op, 1)[0]

    def neighbours(self, elem):
        """(i, f_i elem, None) per color, one pass each: closures seeded at tops need no e side."""
        put = self._put
        for i, entries in zip(self.colors, zip(*self._rows(elem))):
            f_at = signature(entries)[3]
            yield i, None if f_at is None else put(elem, ((f_at, entries[f_at][3]),)), None


def tableau_apply(ctype: str, n: int, elem, i: int, op: str):
    """Apply e_i/f_i ('e'/'f') via the signature rule; None if it vanishes.

    `SignatureTable.apply` on a table made for the call.
    """
    return SignatureTable(ctype, n, (i,)).apply(elem, i, op)


class SpinTensorTable(SignatureTable):
    """The same rule on tensors of spin vectors, the crystals of the D spin nodes."""

    def _rows(self, vecs):
        return [self._row(self._spins, self._spin_rules, sv) for sv in vecs]

    @staticmethod
    def _put(vecs, moves):
        new = list(vecs)
        for k, image in moves:
            new[k] = image
        return tuple(new)


# -- the classical crystal B(lambda) -------------------------------------------

def classical_crystal(ctype, n, shapes, colors):
    """The tableau crystals B(shape) closed under colors; vertex k is the top of shapes[k]."""
    seeds = [highest_element(n, sh) for sh in shapes]
    table = SignatureTable(ctype, n, colors)
    return generate_closure(
        seeds, colors, table.neighbours, lambda elem: tableau_weight(n, *elem)
    )


def enumerate_tableaux(ctype: str, n: int, shape):
    """The elements of B(shape) under every classical color, in the closure's order."""
    heights = shape.columns()
    # the closure would seed both colors at one top, the highest tableau of color 1
    if ctype == "D" and shape.color and heights and heights[0] == n:
        raise ValueError(
            "type D full-height columns split by color; model them as "
            "tensors of half-columns instead"
        )
    colors = tuple(range(1, n if ctype == "A" else n + 1))
    return classical_crystal(ctype, n, (shape,), colors).elements


# -- formatting --------------------------------------------------------------

def format_element(elem, texts) -> str:
    """`s:` and the spin signs, then each column's letters, `|`-joined; `texts` memoizes parts."""
    cols, spin = elem
    parts = [texts.get(col) or texts.setdefault(col, ",".join(map(str, col))) for col in cols]
    if spin is not None:
        key = "s:", spin
        parts.insert(0, texts.get(key) or texts.setdefault(key, "s:" + _signs(spin)))
    return "|".join(parts)


def format_spin_tensor(vecs, texts) -> str:
    """Each spin vector's signs, `*`-joined; ``texts`` memoizes them as above."""
    return "*".join([texts.get(v) or texts.setdefault(v, _signs(v)) for v in vecs])


def _signs(vec) -> str:
    return "".join("+" if x == 1 else "-" for x in vec)
