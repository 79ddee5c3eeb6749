"""Sign diagrams recording how classical crystals branch to corank one.

A diagram decorates the columns of an outer shape with at most one ``+`` and
one ``-`` per column (the ``+`` directly below the ``-`` when both occur);
the undecorated cells form the inner shape.  Diagrams over Lambda index the
components of B(Lambda) restricted to the subalgebra without color 1, and
the maps in this module (the highest-element walk and its inverse table, the
column-state involution, column doubling) are the combinatorial engines
behind the affine crystal constructions in ``kr_builders``.

Column states: ``.`` bare, ``+``, ``-``, ``+-`` (plus below minus), ``0``
(type B, height n only).  A height-n type D column must carry a sign and the
whole diagram is tagged with its column color; spin columns carry a single
sign and are tracked separately from the full columns.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .cartan import Shape, conjugate

STATES = (".", "+", "0", "-", "+-")
_RANK = {s: k for k, s in enumerate(STATES)}


class SignTriple(namedtuple("SignTriple", "l1 l2 l3 gamma")):
    """Counts of +, -, and -over-+ full columns; gamma flags a 0 column."""

    __slots__ = ()

    def __new__(cls, l1, l2, l3, gamma=0):
        self = tuple.__new__(cls, (l1, l2, l3, gamma))
        if min(l1, l2, l3) < 0 or gamma not in (0, 1):
            raise ValueError(f"bad sign triple {self}")
        return self

    def total(self) -> int:
        return self.l1 + self.l2 + self.l3 + 2 * self.gamma


class PmDiagram(namedtuple("PmDiagram", "ctype n cols spin color", defaults=("", 0))):
    """Columns are (outer height, state) pairs in canonical display order.

    ``spin`` is "", "+" or "-"; ``color`` is 1 or 2 once type D height-n or
    spin columns occur, else 0.
    """

    __slots__ = ()

    def outer(self) -> Shape:
        heights = tuple(h for h, _ in self.cols)
        rows = conjugate(heights)
        return Shape(rows=rows, spin=1 if self.spin else 0, color=self.color)

    def inner_heights(self) -> tuple[int, ...]:
        return tuple(_inner_height(self.n, h, st) for h, st in self.cols)

    def width(self) -> int:
        return len(self.cols)


def _inner_height(n: int, h: int, state: str) -> int:
    if state == ".":
        return h
    if state in ("+", "-"):
        return h - 1
    if state == "0":
        return n - 1
    return h - 2  # "+-"


def _middle_height(n: int, h: int, state: str) -> int:
    if state in (".", "+"):
        return h
    if state == "0":
        return n - 1
    return h - 1  # "-", "+-"


def _canonical(cols) -> tuple[tuple[int, str], ...]:
    return tuple(sorted(cols, key=lambda c: (-c[0], _RANK[c[1]])))


def make_pm(ctype, n, cols, spin="", color=0) -> PmDiagram:
    diagram = PmDiagram(ctype, n, _canonical(cols), spin, color)
    problem = _invalid_reason(diagram)
    if problem:
        raise ValueError(problem)
    return diagram


def _invalid_reason(P: PmDiagram):
    if P.ctype not in "BCD" or P.n < 1:
        return f"bad type context {P.ctype}_{P.n}"
    if P.spin and P.ctype == "C":
        return "type C has no spin column"
    if P.spin and P.spin not in "+-":
        return "spin column must carry + or -"
    if P.color and P.ctype != "D":
        return "column colors are a type D feature"
    prev = None
    zeros = 0
    for h, st in P.cols:
        if not 1 <= h <= P.n:
            return f"column height {h} out of range"
        if _inner_height(P.n, h, st) < 0:
            return f"state {st} too tall for height {h}"
        if st == "0":
            if P.ctype != "B" or h != P.n:
                return "0 cells live at height n in type B only"
            zeros += 1
        if h == P.n:
            if st == ".":
                return "bare full-height columns are not allowed"
            if P.ctype == "D" and not P.color:
                return "type D full-height columns need a color"
        here = (h, _inner_height(P.n, h, st), _middle_height(P.n, h, st))
        if prev is not None and any(a > b for a, b in zip(here, prev)):
            return "column profile is not nested"
        prev = here
    if zeros > 1:
        return "at most one 0 column"
    if zeros and P.spin:
        return "0 column and spin column cannot coexist"
    if P.ctype == "D" and P.color:
        plain = {st for h, st in P.cols if h == P.n} | set(P.spin)
        if "+" in plain and "-" in plain:
            return "colored columns cannot mix bare + and bare - signs"
        if P.color not in (1, 2):
            return "color must be 1 or 2"
    if P.spin and P.ctype == "D" and not P.color:
        return "type D spin columns need a color"
    return None


# -- enumeration ----------------------------------------------------------------

def enumerate_pm(ctype: str, n: int, outer: Shape) -> tuple[PmDiagram, ...]:
    """All diagrams with the given outer shape, in canonical sorted order."""
    heights = outer.columns()
    groups = sorted(set(heights), reverse=True)
    choices = []
    for h in groups:
        count = heights.count(h)
        pool = [st for st in STATES if _state_allowed(ctype, n, h, st, outer)]
        choices.append(
            list(itertools.combinations_with_replacement(pool, count))
        )
    spins = ["+", "-"] if outer.spin else [""]
    out = []
    for combo in itertools.product(*choices):
        cols = [
            (h, st)
            for h, states in zip(groups, combo)
            for st in states
        ]
        for sp in spins:
            diagram = PmDiagram(
                ctype, n, _canonical(cols), sp, outer.color
            )
            if _invalid_reason(diagram) is None:
                out.append(diagram)
    return tuple(sorted(out))


def _state_allowed(ctype, n, h, st, outer) -> bool:
    if _inner_height(n, h, st) < 0:
        return False
    if st == "0":
        return ctype == "B" and h == n and not outer.spin
    if h == n and st == ".":
        return False
    return True


# -- the branching walk ----------------------------------------------------------

def f_string(P: PmDiagram) -> tuple[int, ...]:
    """Color word sent down from the top of B(outer(P)) to reach the image."""
    n = P.n
    word = []
    seq = ([("spin", P.spin)] if P.spin else []) + list(P.cols)
    for h, st in reversed(seq):
        if h == "spin" or "+" in st:
            continue
        if st == "0":
            word.extend(range(1, n + 1))
        elif h == n and P.ctype == "D":
            word.extend(_d_top_string(n, P.color))
        else:
            word.extend(range(1, _inner_height(n, h, st) + 1))
    for h, st in seq:
        if "-" not in st:
            continue
        if h == "spin":
            if P.ctype == "D":
                word.extend(_d_top_string(n, P.color))
            else:
                word.extend(range(1, n + 1))
        elif P.ctype == "C":
            word.extend(range(1, n + 1))
            word.extend(range(n - 1, h - 1, -1))
        elif P.ctype == "B":
            word.extend(range(1, n + 1))
            word.append(n)
            word.extend(range(n - 1, h - 1, -1))
        elif h == n:
            word.extend(_d_top_string(n, P.color))
        elif h == n - 1:
            word.extend(range(1, n + 1))
        else:
            word.extend(range(1, n + 1))
            word.extend(range(n - 2, h - 1, -1))
    return tuple(word)


def _d_top_string(n: int, color: int) -> tuple[int, ...]:
    if color == 1:
        return tuple(range(1, n - 1)) + (n,)
    return tuple(range(1, n))


def highest_element(n: int, shape: Shape):
    cols = tuple(tuple(range(1, h + 1)) for h in shape.columns())
    spin = None
    if shape.spin:
        spin = [1] * n
        if shape.color == 2:
            spin[n - 1] = -1
        spin = tuple(spin)
    return (cols, spin)


def phi(P: PmDiagram, step, top):
    """The element reached by walking f_string(P) down from top.

    top is the highest element of B(outer(P)) in the caller's model, and
    step(x, i) is f_i x there, None where it vanishes.
    """
    x = top
    for a in reversed(f_string(P)):
        x = step(x, a)
        if x is None:
            raise RuntimeError(f"branching walk died for {P}")
    return x


def phi_table(ctype: str, n: int, tops, step) -> dict:
    """{phi(P): P} over every diagram P of each shape of tops (shape -> its top).

    Phi must be injective.  The walks share most steps: step is memoized for this call only.
    """
    step = functools.cache(step)
    table = {}
    for shape, top in tops.items():
        for P in enumerate_pm(ctype, n, shape):
            elem = phi(P, step, top)
            if elem in table:
                raise RuntimeError(f"phi sends {table[elem]} and {P} to one element")
            table[elem] = P
    return table


def phi_inverse(table: dict, elem) -> PmDiagram:
    """The diagram of a phi_table whose walk lands on elem."""
    try:
        return table[elem]
    except KeyError:
        raise ValueError(
            "element is not a colors-{2..n} highest vector of the given shapes"
        ) from None


# -- the column-state involution --------------------------------------------------

def involution_S(P: PmDiagram, r: int, s: int) -> PmDiagram:
    """Swap +/- counts at inner heights of sign parity, block/bare otherwise.

    Inner heights i < r with i = r-1 mod 2 hold single signs whose counts are
    exchanged; at i = r mod 2 the +- blocks trade places with bare columns,
    counting s - width phantom columns at height zero.  The inner shape is
    preserved; the outer shape may change.
    """
    if P.spin or P.color:
        raise ValueError("the involution acts on unsigned-column contexts")
    plus = {}
    minus = {}
    block = {}
    bare = {}
    for h, st in P.cols:
        i = _inner_height(P.n, h, st)
        if st == "+":
            plus[i] = plus.get(i, 0) + 1
        elif st == "-":
            minus[i] = minus.get(i, 0) + 1
        elif st == "+-":
            block[i] = block.get(i, 0) + 1
        elif i < r:
            bare[i] = bare.get(i, 0) + 1
    bare[0] = bare.get(0, 0) + s - len(P.cols)
    cols = [(h, st) for h, st in P.cols if _inner_height(P.n, h, st) >= r]
    for i in range(r):
        sign_height = i % 2 == (r - 1) % 2
        if sign_height:
            if block.get(i) or bare.get(i):
                raise ValueError(f"blocks at sign height {i} for r={r}")
            cols.extend([(i + 1, "+")] * minus.get(i, 0))
            cols.extend([(i + 1, "-")] * plus.get(i, 0))
        else:
            if plus.get(i) or minus.get(i):
                raise ValueError(f"single signs at block height {i} for r={r}")
            cols.extend([(i + 2, "+-")] * bare.get(i, 0))
            if i:
                cols.extend([(i, ".")] * block.get(i, 0))
            elif block.get(i, 0) > s:
                raise ValueError("more blocks than slots")
    return make_pm(P.ctype, P.n, cols)


# -- doubling ---------------------------------------------------------------------

def double_pm(P: PmDiagram) -> PmDiagram:
    """Column doubling onto the type C context of the same rank."""
    if P.ctype not in "BC" or P.color:
        raise ValueError("doubling is defined for types B and C")
    cols = []
    for h, st in P.cols:
        if st == "0":
            cols.extend([(h, "+"), (h, "-")])
        else:
            cols.extend([(h, st)] * 2)
    if P.spin:
        cols.append((P.n, P.spin))
    return make_pm("C", P.n, cols)


def is_doubled(P: PmDiagram, target: str) -> bool:
    """Whether the type C diagram P doubles a diagram of the target context, B or C."""
    counts = {}
    for col in P.cols:
        counts[col] = counts.get(col, 0) + 1
    if target == "B":  # top +/- parities decode to a 0 column or a spin sign
        counts.pop((P.n, "+"), None)
        counts.pop((P.n, "-"), None)
    return all(v % 2 == 0 for v in counts.values())
