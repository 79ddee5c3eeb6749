"""Root-system data for the nonexceptional affine families.

Weights live in the epsilon basis of the classical subalgebra and are stored
as tuples of *doubled* integers so that spin weights stay exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from operator import add, mul, sub

FAMILIES = ("A1", "B1", "C1", "D1", "A2even", "A2odd", "D2")

SUMMAND_BOUND = 100_000  # kr_dimension refuses a decomposition with more summands

# Classical subalgebra acting through colors 1..n.
CLASSICAL_TYPE = {
    "A1": "A",
    "B1": "B",
    "C1": "C",
    "D1": "D",
    "A2even": "C",
    "A2odd": "C",
    "D2": "B",
}

Weight = tuple[int, ...]


class AffineSpec(namedtuple("AffineSpec", "family n r s")):
    """One Kirillov-Reshetikhin crystal instance B^{r,s}."""

    __slots__ = ()

    def __new__(cls, family, n, r, s):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if n < 2:
            raise ValueError("rank n must be at least 2")
        if family == "D1" and n < 4:
            raise ValueError("the D1 family needs rank at least 4")
        r_max = n - 1 if family == "A1" else n
        if not 1 <= r <= r_max:
            raise ValueError(f"r={r} out of range 1..{r_max} for {family}")
        if s < 1:
            raise ValueError("s must be positive")
        return tuple.__new__(cls, (family, n, r, s))

    @property
    def classical_type(self) -> str:
        return CLASSICAL_TYPE[self.family]

    @property
    def classical_colors(self) -> tuple[int, ...]:
        """Colors of the classical subalgebra (1..n, or 1..n-1 in type A)."""
        top = self.n - 1 if self.family == "A1" else self.n
        return tuple(range(1, top + 1))


class Shape(namedtuple("Shape", "rows spin color")):
    """Classical highest weight, drawn as a column shape.

    ``rows`` is a partition (row lengths, weakly decreasing).  ``spin=1`` adds
    one half-width column of full height n.  ``color`` distinguishes the two
    full-height column species in type D (1 or 2); it is 0 elsewhere.
    """

    __slots__ = ()

    def __new__(cls, rows=(), spin=0, color=0):
        if list(rows) != sorted(rows, reverse=True) or (rows and rows[-1] <= 0):
            raise ValueError(f"rows {rows} not a partition")
        if spin not in (0, 1) or color not in (0, 1, 2):
            raise ValueError("bad spin/color flag")
        return tuple.__new__(cls, (rows, spin, color))

    def columns(self) -> tuple[int, ...]:
        """Column heights, tallest first, spin column excluded."""
        return conjugate(self.rows)

    def size(self) -> int:
        return sum(self.rows)

    def weight(self, n: int) -> Weight:
        """Doubled epsilon-basis weight of the highest vector."""
        return highest_weight(n, *self)

    def __str__(self):
        body = ",".join(str(row) for row in self.rows)
        tags = ("" if not self.spin else "+s") + ("" if not self.color else f"@{self.color}")
        return f"({body}){tags}"


def highest_weight(n: int, rows, spin, color) -> Weight:
    """Doubled epsilon-basis weight of the highest vector of a column shape (see Shape)."""
    w = [2 * row + spin for row in rows] + [spin] * (n - len(rows))
    if color == 2:
        w[n - 1] = -w[n - 1]
    return tuple(w)


def simple_root(ctype: str, n: int, i: int) -> Weight:
    """Doubled classical simple root alpha_i, 1 <= i <= rank."""
    w = [0] * n
    if ctype == "A":
        w[i - 1], w[i] = 2, -2
    elif i < n:
        w[i - 1], w[i] = 2, -2
    elif ctype == "B":
        w[n - 1] = 2
    elif ctype == "C":
        w[n - 1] = 4
    else:
        w[n - 2] = w[n - 1] = 2
    return tuple(w)


def zero_root_projection(family: str, n: int) -> Weight:
    """Classical projection of alpha_0: wt(f_0 b) = wt(b) - this, doubled."""
    w = [0] * n
    if family == "A1":
        w[0], w[n - 1] = -2, 2
    elif family in ("B1", "D1", "A2odd"):
        w[0], w[1] = -2, -2
    elif family == "C1":
        w[0] = -4
    else:  # A2even, D2
        w[0] = -2
    return tuple(w)


def affine_root(family: str, n: int, i: int) -> Weight:
    """The doubled classical root of affine color i: wt(f_i b) = wt(b) - this."""
    return simple_root(CLASSICAL_TYPE[family], n, i) if i else zero_root_projection(family, n)


def affine_pairing(family: str, n: int, wt: Weight, i: int) -> int:
    """<wt, alpha_i^vee> = 2 (wt, alpha_i) / (alpha_i, alpha_i), rounded down; exact for i = 0."""
    root = affine_root(family, n, i)
    value, rest = divmod(2 * sum(map(mul, wt, root)), sum(map(mul, root, root)))
    if rest and not i:
        raise ValueError(f"weight {wt} pairs fractionally with the zero root")
    return value


def weyl_dimensions(ctype: str, n: int, weights):
    """Dimension of the classical irreducible with each doubled highest weight in turn.

    Both products use doubled coordinates (a = wt + 2 rho over 2 rho) and have
    the same number of factors, so the doublings cancel in exact integers.  The
    denominator, the product at a = 2 rho, is taken once per call.  Outside
    type A each pair (a_i - a_j)(a_i + a_j) is one factor a_i^2 - a_j^2, and
    B and C multiply in every a_i.  ValueError at the first weight that is not
    dominant; the dimensions before it are yielded.
    """
    if ctype == "B":
        rho = [2 * (n - i) - 1 for i in range(n)]
    elif ctype == "C":
        rho = [2 * (n - i) for i in range(n)]
    else:  # A uses staircase, D uses n-1..0
        rho = [2 * (n - 1 - i) for i in range(n)]

    def product(a):
        if ctype == "A":
            return math.prod(itertools.starmap(sub, itertools.combinations(a, 2)))
        num = math.prod(itertools.starmap(sub, itertools.combinations([x * x for x in a], 2)))
        return num * math.prod(a) if ctype in ("B", "C") else num

    den = product(rho)
    for wt in weights:
        dim, rem = divmod(product(list(map(add, wt, rho))), den)
        if rem or dim <= 0:
            raise ValueError(f"weight {wt} is not dominant for {ctype}_{n}")
        yield dim


def weyl_dimension(ctype: str, n: int, wt: Weight) -> int:
    """Dimension of the classical irreducible with doubled highest weight wt."""
    [dim] = weyl_dimensions(ctype, n, (wt,))
    return dim


def shape_dimension(ctype: str, n: int, shape: Shape) -> int:
    return weyl_dimension(ctype, n, shape.weight(n))


def conjugate(cols) -> tuple[int, ...]:
    """The conjugate partition: row lengths from column heights in any order, or back."""
    heights = sorted((h for h in cols if h > 0), reverse=True)
    if not heights:
        return ()
    return tuple(sum(1 for h in heights if h > i) for i in range(heights[0]))


def _box_rows(heights, s, i, used, below):
    """Rows of each shape of s columns, heights from heights[i:], the full box first, under
    the rows below; used columns are taller than heights[i].  With t columns at least h
    tall, the rows from the next smaller height up to h have length t."""
    h = heights[i]
    for t in range(s, used - 1, -1) if i + 1 < len(heights) else (s,):
        if t == s:
            yield (s,) * h + below
        else:
            lower = (t,) * (h - heights[i + 1]) + below if t else below
            yield from _box_rows(heights, s, i + 1, t, lower)


def _multiset_rows(pool, k, by_rows):
    """Rows of the shape of each k-multiset of a descending pool, lazily, the full box first:
    the multiset read as row lengths when by_rows, else as column heights (a 0 is none)."""
    if by_rows:  # the rows descend, so 0s trail
        rows = itertools.combinations_with_replacement(pool, k)
        return (tuple(itertools.takewhile(bool, each)) for each in rows)
    return _box_rows(tuple(pool), k, 0, 0, ()) if k else iter([()])  # tuples index faster


def horizontal_domino_shapes(r: int, s: int) -> tuple[Shape, ...]:
    """The horizontal-domino removals from an r x s rectangle, sorted."""
    shapes = map(Shape, _multiset_rows(range(s, -1, -2), r, True))
    return tuple(sorted(shapes, key=lambda sh: (sh.size(), sh.rows)))


def _summand_pool(spec: AffineSpec):
    """(pool, k, by_rows, spin, color): each classical summand of B^{r,s} is a k-multiset of
    the pool, read by _multiset_rows, with this spin and color.

    The removal rules of Fourier-Okado-Schilling: from s columns of height r, vertical
    dominoes (B1, D1, A2odd) or any boxes (A2even, D2); from r rows of length s, horizontal
    dominoes (C1); none in A1 and C1 at r = n.  At the spin nodes of D1 and at r = n of B1
    and D2: s // 2 full columns (less vertical dominoes in B1), and a spin column if s is odd.
    """
    fam, n, r, s = spec
    half, spin = divmod(s, 2)
    if fam == "A1" or (fam == "C1" and r == n):
        return (r,), s, False, 0, 0
    if (fam == "D1" and r >= n - 1) or (fam == "D2" and r == n):
        return (n,), half, False, spin, 0 if fam == "D2" else 1 if r == n else 2
    if fam == "B1" and r == n:
        return range(n, -1, -2), half, False, spin, 0
    if fam in ("B1", "D1", "A2odd"):  # heights of r's parity: 0 only when r is even
        return range(r, -1, -2), s, False, 0, 0
    if fam == "C1":
        return range(s, -1, -2), r, True, 0, 0
    return range(r, -1, -1), s, False, 0, 0


def kr_summands(spec: AffineSpec):
    """(rows, spin, color) of each classical summand of B^{r,s}, lazily, the full box first:
    a Shape's fields, already valid, so nothing here checks them."""
    pool, k, by_rows, spin, color = _summand_pool(spec)
    return ((rows, spin, color) for rows in _multiset_rows(pool, k, by_rows))


def summand_count(spec: AffineSpec) -> int:
    """How many summands kr_summands(spec) yields: the k-multisets of the pool."""
    pool, k = _summand_pool(spec)[:2]
    return math.comb(len(pool) + k - 1, k)


def summand_weights(spec: AffineSpec):
    """The doubled highest weight of each summand, lazily, the full box first; no Shape is made."""
    return itertools.starmap(functools.partial(highest_weight, spec.n), kr_summands(spec))


def kr_shapes(spec: AffineSpec):
    """The classical shapes of B^{r,s}, one per irreducible summand, the full box first."""
    return itertools.starmap(Shape, kr_summands(spec))


def kr_decomposition(spec: AffineSpec) -> tuple[Shape, ...]:
    """Classical decomposition of B^{r,s}, one Shape per irreducible summand."""
    return tuple(sorted(kr_shapes(spec), key=lambda sh: (sh.size(), sh.rows, sh.spin)))


def kr_dimension(spec: AffineSpec) -> int:
    """Total vertex count of B^{r,s}, one batch of Weyl dimensions over summand_weights.

    A twisted family answers through its untwisted partner with the same
    (r, s), whose KR module has the same dimension because twisted KR
    characters solve the folded Q-system (Hernandez, IMRN 2010):
    A2even n -> A1 at 2n+1 and A2odd n -> A1 at 2n (one rectangle each), and
    D2 n -> D1 at n+1 when 2 < n and r < n (the vertical-domino shapes).
    Weight vectors always have n coordinates; in type A the staircase formula
    over n letters gives the gl_n dimension, which matches the crystal.
    tests/test_cartan.py checks these answers against the Q-system, n <= 8.
    RuntimeError, before any summand is made, when summand_count passes
    SUMMAND_BOUND.
    """
    asked = spec
    if spec.family in ("A2even", "A2odd"):
        spec = AffineSpec("A1", 2 * spec.n + (spec.family == "A2even"), spec.r, spec.s)
    elif spec.family == "D2" and 2 < spec.n and spec.r < spec.n:
        spec = AffineSpec("D1", spec.n + 1, spec.r, spec.s)
    if summand_count(spec) > SUMMAND_BOUND:
        head = f"{asked.family} n={asked.n} r={asked.r} s={asked.s} has more than {SUMMAND_BOUND}"
        raise RuntimeError(f"{head} classical summands, over the summand bound")
    return sum(weyl_dimensions(spec.classical_type, spec.n, summand_weights(spec)))
