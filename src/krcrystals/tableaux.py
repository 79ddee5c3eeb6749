"""Letters, columns, and semistandard tableaux for types A, B, C, D.

Letters are ints: i unbarred, -i barred, 0 the middle letter of type B.
A column is a tuple of letters from bottom (smallest) to top.  A tableau is a
tuple of columns left to right; bottom-aligned, so row k of a column is index
k-1.  Type B shapes may carry one extra half-width spin column on the left,
stored as a tuple of signs +1/-1 (sign of letter i in the spin column).
"""

from __future__ import annotations

import itertools


def all_letters(ctype: str, n: int) -> tuple[int, ...]:
    if ctype == "A":
        return tuple(range(1, n + 1))
    mid = (0,) if ctype == "B" else ()
    return tuple(range(1, n + 1)) + mid + tuple(range(-n, 0))


def order_key(ctype: str, n: int, x: int) -> int:
    """Position in the letter order; n and -n share a key in type D."""
    if ctype == "B":
        if x == 0:
            return 2 * n + 1
        return 2 * x if x > 0 else 4 * n + 2 + 2 * x
    if ctype == "D":
        return x if x > 0 else 2 * n + x
    return x if x > 0 else 2 * n + 1 + x


def precedes(ctype: str, n: int, x: int, y: int) -> bool:
    """Strict order; false for the incomparable pair {n, -n} in type D."""
    if ctype == "D" and {x, y} == {n, -n}:
        return False
    return order_key(ctype, n, x) < order_key(ctype, n, y)


def preceq(ctype: str, n: int, x: int, y: int) -> bool:
    return x == y or precedes(ctype, n, x, y)


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

def spin_elements(ctype: str, n: int, color: int = 1):
    """All spin vectors; in type D color 1 has an even number of -1 signs."""
    for signs in itertools.product((1, -1), repeat=n):
        if ctype == "D" and signs.count(-1) % 2 != (0 if color == 1 else 1):
            continue
        yield signs


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


def spin_to_column(sv) -> tuple[int, ...]:
    """Letter column of a spin vector: i if sign +, bar i if sign -."""
    n = len(sv)
    col = [i for i in range(1, n + 1) if sv[i - 1] == 1]
    col += [-i for i in range(n, 0, -1) if sv[i - 1] == -1]
    return tuple(col)


# -- columns ------------------------------------------------------------------

def column_ok(ctype: str, n: int, col: tuple[int, ...]) -> bool:
    """One-column semistandardity, including the (p, bar p) height bound."""
    big_n = len(col)
    for a, b in zip(col, col[1:]):
        if ctype == "D":
            if preceq(ctype, n, b, a):
                return False
        elif ctype == "B" and a == b == 0:
            continue
        elif not precedes(ctype, n, a, b):
            return False
    # the bound covers every p < n, and p = n outside type D, where n and -n
    # are incomparable and may alternate
    for p in range(1, n if ctype == "D" else n + 1):
        ks = [k + 1 for k, x in enumerate(col) if x == p]
        ls = [l + 1 for l, x in enumerate(col) if x == -p]
        for k in ks:
            for l in ls:
                if k + (big_n - l + 1) > p:
                    return False
    return True


def _ab_config_violation(ctype, n, u, v):
    """True when some configuration bound fails for adjacent columns u, v."""
    big_n = len(v)

    def pos(col, letter):
        return [k + 1 for k, x in enumerate(col) if x == letter]

    # (a,b)-configurations; b = n has special clauses except in type C
    b_top = n + 1 if ctype == "C" else n
    for a in range(1, b_top):
        sa = pos(u, a)
        ta = pos(v, -a)
        if not sa or not ta:
            continue
        p, s = sa[0], ta[0]
        for b in range(a, b_top):
            for qs, rs in ((pos(u, b), pos(u, -b)), ((pos(v, b)), pos(v, -b))):
                for q in qs:
                    for r in rs:
                        if p <= q < r <= s <= big_n:
                            if (q - p) + (s - r) >= b - a:
                                return True
        # (a,n)-configurations: adjacent middle letters in one column (B, D)
        if ctype != "C" and a < n:
            middles = {n, -n, 0} if ctype == "B" else {n, -n}
            for col in (u, v):
                for q in range(1, len(col)):
                    if col[q - 1] in middles and col[q] in middles:
                        r = q + 1
                        if p <= q < r <= s <= big_n:
                            if (q - p) + (s - r) >= n - a:
                                return True
        if ctype == "D":
            # a-odd / a-even configurations (mixed-column middle pairs)
            for q in pos(v, n) + pos(v, -n):
                for r in pos(u, n) + pos(u, -n):
                    if not p <= q < r <= s <= big_n:
                        continue
                    same = (v[q - 1] == u[r - 1])
                    odd = (r - q + 1) % 2 == 1
                    if same != odd and s - p >= n - a:
                        return True
    # (n,n)-configuration: middle letter in u strictly below one in v
    if ctype in ("B", "D"):
        left = {n, 0} if ctype == "B" else {n, -n}
        right = {0, -n} if ctype == "B" else {n, -n}
        for p in range(1, big_n):
            if u[p - 1] in left and any(
                v[q - 1] in right for q in range(p + 1, big_n + 1)
            ):
                return True
    return False


def adjacent_ok(ctype: str, n: int, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Adjacency for columns u (left, taller) and v (right), bottom-aligned."""
    if len(u) < len(v):
        return False
    for k in range(len(v)):
        if not preceq(ctype, n, u[k], v[k]):
            return False
        if ctype == "B" and u[k] == 0 and v[k] == 0:
            return False
    if ctype == "A":
        return True
    return not _ab_config_violation(ctype, n, u, v)


# -- tableaux -----------------------------------------------------------------

def tableau_ok(ctype: str, n: int, cols, spin=None) -> bool:
    for col in cols:
        if not column_ok(ctype, n, col):
            return False
    seq = list(cols)
    if spin is not None:
        seq = [spin_to_column(spin)] + seq
    for u, v in zip(seq, seq[1:]):
        if not adjacent_ok(ctype, n, u, v):
            return False
    return True


def tableau_weight(ctype: str, n: int, cols, spin=None) -> tuple[int, ...]:
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


def signature_index(pairs, op: str):
    """Factor index acted on by e_i (rightmost free -) or f_i (leftmost free +)."""
    return signature(pairs)[2 if op == "e" else 3]


# -- tensors of factors: one entry per factor and color -----------------------

_INERT = (0, 0, None, None)  # the entry of a letter on no i-string


def column_entry(ctype: str, n: int, i: int, col):
    """(eps_i, phi_i, e_i image, f_i image) of a column, the tensor of its letters."""
    letters = letter_entries(ctype, n, i)
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
    are computed when the table first meets it; each build owns its table.
    """

    def __init__(self, ctype: str, n: int, colors):
        self.ctype, self.n, self.colors = ctype, n, tuple(colors)
        self._slot = {i: k for k, i in enumerate(self.colors)}
        self._columns, self._spins = {}, {}  # factor -> its entry for each color

    def _row(self, memo, entry, factor):
        row = memo.get(factor)
        if row is None:
            row = memo[factor] = tuple(entry(self.ctype, self.n, i, factor) for i in self.colors)
        return row

    def _rows(self, elem):
        cols, spin = elem
        memo = self._columns
        rows = [memo.get(col) or self._row(memo, column_entry, col) for col in reversed(cols)]
        if spin is not None:
            rows.append(self._row(self._spins, spin_entry, spin))
        return rows

    @staticmethod
    def _put(elem, k, image):
        """elem with tensor factor k replaced; factors run right to left, spin last."""
        cols, spin = elem
        c = len(cols) - 1 - k
        return (cols, image) if c < 0 else (cols[:c] + (image,) + cols[c + 1 :], spin)

    def apply(self, elem, i: int, op: str):
        """e_i/f_i ('e'/'f') of elem; None if it vanishes."""
        k = self._slot[i]
        entries = [row[k] for row in self._rows(elem)]
        j = signature_index(entries, op)
        return None if j is None else self._put(elem, j, entries[j][2 if op == "e" else 3])

    def neighbours(self, elem):
        """(i, f_i elem, e_i elem) for every color, from one pass over the factors."""
        put = self._put
        for i, entries in zip(self.colors, zip(*self._rows(elem))):
            _, _, e_at, f_at = signature(entries)
            down = None if f_at is None else put(elem, f_at, entries[f_at][3])
            yield i, down, None if e_at is None else put(elem, e_at, entries[e_at][2])


def tableau_apply(ctype: str, n: int, elem, i: int, op: str):
    """Apply e_i/f_i ('e'/'f') via the signature rule; None if it vanishes.

    `SignatureTable.apply` on a table made for the call.
    """
    return SignatureTable(ctype, n, (i,)).apply(elem, i, op)


class SpinTensorTable(SignatureTable):
    """The same rule on tensors of spin vectors, the crystals of the D spin nodes."""

    def _rows(self, vecs):
        return [self._row(self._spins, spin_entry, sv) for sv in vecs]

    @staticmethod
    def _put(vecs, k, image):
        return vecs[:k] + (image,) + vecs[k + 1 :]


# -- enumeration (independent oracle for classical crystals) ------------------

def enumerate_columns(ctype: str, n: int, height: int):
    """Every valid column, in the lexicographic order of the alphabet.

    Columns grow along weakly increasing letter keys, so type B may repeat 0
    and type D may alternate n and -n, which share a key; `column_ok` decides.
    """
    letters = all_letters(ctype, n)

    def grow(col):
        if len(col) == height:
            if column_ok(ctype, n, col):
                yield col
            return
        floor = order_key(ctype, n, col[-1]) if col else 0
        for x in letters:
            if order_key(ctype, n, x) >= floor:
                yield from grow(col + (x,))

    yield from grow(())


def enumerate_tableaux(ctype: str, n: int, shape):
    """All valid fillings of a Shape (spin flag = type B spin column)."""
    heights = list(shape.columns())
    if ctype == "D" and shape.color and heights and heights[0] == n:
        raise ValueError(
            "type D full-height columns split by color; model them as "
            "tensors of half-columns instead"
        )
    spins = (
        list(spin_elements(ctype, n, shape.color or 1))
        if shape.spin
        else [None]
    )
    col_pool = {h: list(enumerate_columns(ctype, n, h)) for h in set(heights)}

    def extend(prefix, k):
        if k == len(heights):
            yield tuple(prefix)
            return
        for col in col_pool[heights[k]]:
            if prefix and not adjacent_ok(ctype, n, prefix[-1], col):
                continue
            if not prefix and spin_col is not None:
                if not adjacent_ok(ctype, n, spin_col, col):
                    continue
            prefix.append(col)
            yield from extend(prefix, k + 1)
            prefix.pop()

    for sp in spins:
        spin_col = spin_to_column(sp) if sp is not None else None
        for cols in extend([], 0):
            yield (cols, sp)


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
