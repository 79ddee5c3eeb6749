"""Root-system data for the nonexceptional affine families.

Weights live in the epsilon basis of the classical subalgebra and are stored
as tuples of *doubled* integers so that spin weights stay exact.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from operator import add, mul, sub

FAMILIES = ("A1", "B1", "C1", "D1", "A2even", "A2odd", "D2")

# kr_dimension refuses a Q-system table of more work; with it every answer has under
# 2^13,600 (4,100 digits), so CPython's 4,300-digit limit on printing an int holds
WORK_BOUND = 10**12

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
        w = [2 * row + self.spin for row in self.rows] + [self.spin] * (n - len(self.rows))
        if self.color == 2:
            w[n - 1] = -w[n - 1]
        return tuple(w)

    def __str__(self):
        body = ",".join(str(row) for row in self.rows)
        tags = ("" if not self.spin else "+s") + ("" if not self.color else f"@{self.color}")
        return f"({body}){tags}"


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


def weyl_dimension(ctype: str, n: int, wt: Weight) -> int:
    """Dimension of the classical irreducible with doubled highest weight wt.

    Both products use doubled coordinates (a = wt + 2 rho over 2 rho) and have
    the same number of factors, so the doublings cancel in exact integers.
    Outside type A each pair (a_i - a_j)(a_i + a_j) is one factor
    a_i^2 - a_j^2, and B and C multiply in every a_i.  ValueError unless wt is
    dominant.
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

    dim, rem = divmod(product(list(map(add, wt, rho))), product(rho))
    if rem or dim <= 0:
        raise ValueError(f"weight {wt} is not dominant for {ctype}_{n}")
    return dim


def conjugate(cols) -> tuple[int, ...]:
    """The conjugate partition: row i is the number of column heights (any order) over i."""
    heights = sorted(cols)
    return tuple(len(heights) - bisect_right(heights, i) for i in range(max(heights, default=0)))


def _shapes(pool, k, by_rows, spin=0, color=0) -> tuple[Shape, ...]:
    """The sorted shapes, with this spin and color, of the k-multisets of a descending pool
    read as row lengths (0s trail and are dropped) when by_rows, else as column heights."""
    multisets = itertools.combinations_with_replacement(pool, k)
    rows = (tuple(filter(None, m)) if by_rows else conjugate(m) for m in multisets)
    shapes = [Shape(each, spin, color) for each in rows]
    return tuple(sorted(shapes, key=lambda sh: (sh.size(), sh.rows)))


def horizontal_domino_shapes(r: int, s: int) -> tuple[Shape, ...]:
    """The horizontal-domino removals from an r x s rectangle, sorted."""
    return _shapes(range(s, -1, -2), r, True)


def _summand_pool(spec: AffineSpec):
    """(pool, k, by_rows, spin, color): each classical summand of B^{r,s} is a k-multiset of
    the pool, read by _shapes, with this spin and color.

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


def kr_decomposition(spec: AffineSpec) -> tuple[Shape, ...]:
    """Classical decomposition of B^{r,s}, one Shape per irreducible summand, sorted."""
    return _shapes(*_summand_pool(spec))


def _untwisted_partner(spec: AffineSpec):
    """(family, n, r, s) of the untwisted spec whose KR module has spec's dimension: A2even n
    -> A1 at 2n+1, A2odd n -> A1 at 2n, D2 n -> D1 at n+1 (node n -> its spin node n+1), and
    D2 at n = 2 -> A1 at 4 with r -> 3 - r: D_3 is A_3, its node 1 being A_3's node 2 and its
    spin nodes A_3's nodes 1 and 3."""
    family, n, r, s = spec
    if family in ("A2even", "A2odd"):
        return "A1", 2 * n + (family == "A2even"), r, s
    if family == "D2":
        return ("A1", 4, 3 - r, s) if n == 2 else ("D1", n + 1, r + (r == n), s)
    return spec


def _fundamental_dimensions(family: str, n: int, size: int) -> list[int]:
    """Q_1^{(a)} = |B^{a,1}| for a = 1..rank of an untwisted family, from the binomials of
    the vector representation's size: C(n, a) in A1, C(2n, a) - C(2n, a - 2) in C1, and in
    B1 and D1 the sum of C(size, k) over k <= a of a's parity, but 2^n at the spin node of
    B1 and 2^(n-1) at the two of D1."""
    binom = [1]  # C(size, k) for k = 0..n
    for k in range(1, n + 1):
        binom.append(binom[-1] * (size + 1 - k) // k)
    if family == "A1":
        return binom[1:n]
    if family == "C1":
        return [binom[a] - (a > 1 and binom[a - 2]) for a in range(1, n + 1)]
    parity = binom[:2]
    for a in range(2, n + 1):
        parity.append(binom[a] + parity[a - 2])
    top = n - 1 if family == "B1" else n - 2  # the last node below the spin nodes
    return parity[1 : top + 1] + [2 ** (n - (family == "D1"))] * (n - top)


def _remainder(family: str, n: int, a: int, m: int, Q) -> int:
    """R in (Q_m^{(a)})^2 = Q_{m+1}^{(a)} Q_{m-1}^{(a)} + R for an untwisted family, read off
    the table Q[b][l] (whose rows 0 and, in A1, n hold 1s)."""
    if family == "D1" and a >= n - 2:
        return Q[n - 3][m] * Q[n - 1][m] * Q[n][m] if a == n - 2 else Q[n - 2][m]
    if family == "B1" and a >= n - 1:
        return Q[n - 2][m] * Q[n][2 * m] if a < n else Q[n - 1][m // 2] * Q[n - 1][(m + 1) // 2]
    if family == "C1" and a >= n - 1:
        return Q[n - 2][m] * Q[n][m // 2] * Q[n][(m + 1) // 2] if a < n else Q[n - 1][2 * m]
    return Q[a - 1][m] * Q[a + 1][m]


def _reach(family: str, n: int, rank: int, r: int, s: int) -> list[int]:
    """The top level of each node 0..rank that Q_s^{(r)} reads (more at a few nodes), from
    how R reads its neighbours: s less the distance from r along the path, D1's two spin
    nodes counted as one node; B1's short node n at twice (its neighbour's top less 1), C1's
    long node n at half its neighbour's top, rounded down.  At r = n of B1 and C1 the path
    counts down from the neighbour n - 1, whose top is s // 2 in B1 and 2s - 2 in C1."""
    if r == n and family in ("B1", "C1"):
        below = s // 2 + 1 if family == "B1" else 2 * s - 1
        return [below - n + a for a in range(n)] + [s]
    path = rank - (family == "D1")  # D1's node n reads as node n - 1 does
    top = min(r, path)
    reach = [s - abs(a - top) for a in range(path + 1)]
    reach += reach[-1:] * (rank - path)
    if family == "B1":
        reach[n] = 2 * reach[n]
    elif family == "C1":
        reach[n] = (reach[n] + 1) // 2
    return reach


def kr_dimension(spec: AffineSpec) -> int:
    """Total vertex count of B^{r,s}: the dimension Q_s^{(r)} of its KR module, from the Q-system.

    The KR modules of an untwisted family solve the Kirillov-Reshetikhin
    Q-system (Q_m^{(a)})^2 = Q_{m+1}^{(a)} Q_{m-1}^{(a)} + R (Hatayama-Kuniba-
    Okado-Takagi-Yamada, arXiv math/9812022; proved by Nakajima, and by
    Hernandez, IMRN 2010), so a table of integers runs up from Q_0 = 1 and the
    closed forms of Q_1, one step at a time, with no recursion: each entry
    divides (Q_m^{(a)})^2 - R by Q_{m-1}^{(a)}.  The short nodes (node n of B1,
    nodes 1..n-1 of C1) take two levels a step to the long nodes' one, as R
    reads them at twice the level; the long nodes go first.  Each node stops
    at the top level Q_s^{(r)} reads (_reach).  A twisted family answers
    through its untwisted partner with the same s (_untwisted_partner): its
    KR modules solve the folded Q-system, whose dimensions are the partner's
    (Hernandez, IMRN 2010).  The table lives inside this one call.

    Work bound.  The table holds at most L entries a node past Q_0, L the
    highest top level, and each is below 2^(L N), N the size of the vector
    representation (n in A1, 2n+1 in B1, 2n in C1 and D1): Q_l^{(a)} <=
    (Q_1^{(a)})^l, as the KR module is a subquotient of l fundamental ones, and
    every Q_1 is below 2^N.  RuntimeError, before any entry is made, when the
    work rank x L x (L N)^2 passes WORK_BOUND.
    """
    family, n, r, s = _untwisted_partner(spec)
    rank = n - 1 if family == "A1" else n
    reach = _reach(family, n, rank, r, s)
    size = {"A1": n, "B1": 2 * n + 1}.get(family, 2 * n)
    top = max(reach)
    work = rank * top * (top * size) ** 2
    if work > WORK_BOUND:
        head = f"{spec.family} n={spec.n} r={spec.r} s={spec.s} needs {work} units of Q-system"
        raise RuntimeError(f"{head} work, over the work bound {WORK_BOUND}")
    short = (n,) if family == "B1" else range(1, n) if family == "C1" else ()
    period = 2 if short else 1  # steps a long node takes for one level, a short one for two
    grown = sorted((a for a in range(1, rank + 1) if reach[a] > 1), key=short.__contains__)
    fast = [a for a in grown if a in short]
    steps = s if r in short else s * period
    ones = [1] * (steps + 1)
    Q = [ones] + [[1, q] for q in _fundamental_dimensions(family, n, size)] + [ones]
    for h in range(2, steps + 1):
        for a in grown if h % period == 0 else fast:  # the long nodes first
            level = h if a in short else h // period
            if 1 < level <= reach[a]:
                m = level - 1
                Q[a].append((Q[a][m] ** 2 - _remainder(family, n, a, m, Q)) // Q[a][m - 1])
    return Q[r][s]
