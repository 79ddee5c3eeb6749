"""Builders assembling each affine crystal B^{r,s} as an explicit graph.

Classical arrows always come from the signature rule on tableaux (or spin
tensors).  The 0-arrows come from one route per family and node, route(spec):
promotion in type A, conjugation by the tail involution sigma for the three
families whose 0-node hangs off node 1, fixed points of that involution for
type C, sign-triple case rules at the exceptional C/D node, and, at the two
tail nodes of type D, sigma composed with the n-1 <-> n flip, which maps the
spin crystal to itself.  The promotion, dba, triples and spin routes are rows
of _TOP_RULES, all built by _build_from_tops: a closed classical crystal, and
its rule's map tau on the tops of a branching (by weight for promotion, else
off the diagram table), carried down with its inverse and checked against it,
gives f_0 = tau^{-1} f_1 tau, or f_0 = tau for the triples.  The virtual route
closes its A2odd host that way once and reads the sigma-fixed vertices' arrows
off it: f_{i+1} as color i, and f_1 f_0 as color 0.
"""

import functools

from . import pm_diagrams as pm
from . import tableaux
from .cartan import AffineSpec, Shape, horizontal_domino_shapes, kr_decomposition, kr_dimension
from .crystal_core import VERTEX_BOUND, CrystalGraph, generate_closure, greedy_raise
from .pm_diagrams import SignTriple
from .tableaux import classical_crystal


class AmbientLink:
    """Embedding of a build into a closed host crystal, element for element."""

    def __init__(self, build):
        self.build = build  # a KRBuild


def route(spec):
    """The construction of B^{r,s}: promotion, dba, virtual, stepped, triples or spin."""
    fam, n, r = spec.family, spec.n, spec.r
    if fam == "A1":
        return "promotion"
    if fam == "A2odd" or (fam == "B1" and r < n) or (fam == "D1" and r <= n - 2):
        return "dba"
    if fam in ("B1", "A2even") or (fam == "D2" and r < n):
        return "stepped"
    if fam == "C1":
        return "virtual" if r < n else "triples"
    return "triples" if fam == "D2" else "spin"


class KRBuild:
    """A finished crystal B^{r,s} plus the scaffolding that built it."""

    partner = None  # the benchmark's build ledger reads it, as it reads kind and ambient

    def __init__(self, spec, graph, ambient=None, stepped=None):
        self.spec = spec  # an AffineSpec
        self.graph = graph  # a CrystalGraph
        self.kind = kind = route(spec)  # src/ asks route(spec) instead
        self.render = tableaux.format_spin_tensor if kind == "spin" else tableaux.format_element
        self.ambient = ambient  # virtual: an AmbientLink to the closed A2odd host
        self.stepped = stepped  # stepped: the SteppedHost, element-local


def _transport(src, dst_f, anchors, colors):
    """Extend a map defined on component tops along matching arrows.

    ``dst_f(i, y)`` is f_i on the target side, None where it vanishes.  The
    map covers the components of the anchors under colors, and no others.
    """
    out = dict(anchors)
    stack = list(anchors.items())
    while stack:
        x, y = stack.pop()
        for i in colors:
            a = src.f[i].get(x)
            if a is None or a in out:
                continue
            b = dst_f(i, y)
            if b is None:
                raise RuntimeError(f"transport died on an f_{i} arrow")
            out[a] = b
            stack.append((a, b))
    return out


def _attach_from_tops(cls, forward, backward, shift, conjugate):
    """Attach f_0 to the closed classical crystal cls from a rule on its tops; return tau.

    tau is forward carried along f_i -> f_{shift[i]}, its inverse backward carried back (an
    involution, passed as both, is carried once).  RuntimeError at the least vertex where the
    two are not mutually inverse or, if conjugate, tau is missing.  f_0 = tau^{-1} f_1 tau if
    conjugate, else tau.
    """
    ahead = {i: cls.f[j] for i, j in shift.items()}
    tau = _transport(cls, lambda i, y: ahead[i].get(y), forward, ahead)
    if backward is forward:
        back = tau
    else:
        behind = {j: cls.f[i] for i, j in shift.items()}
        back = _transport(cls, lambda j, y: behind[j].get(y), backward, behind)
    for x in range(len(cls)):
        y, z = tau.get(x), back.get(x)
        if (conjugate if y is None else back.get(y) != x) or (z is not None and tau.get(z) != x):
            raise RuntimeError(f"tau is not invertible at vertex {x}")
    f0 = tau
    if conjugate:  # tau^{-1} f_1 tau
        f1 = cls.f[1]
        f0 = {x: back[y] for x in range(len(cls)) if (y := f1.get(tau[x])) is not None}
    cls.add_color(0, f0)
    return tau


def _summand_table(spec, cls):
    """The branching table of spec's closed crystal cls, its vertex k the k-th summand's top."""
    tops = {sh: k for k, sh in enumerate(kr_decomposition(spec))}
    return pm.branching_table(cls, spec.classical_type, spec.n, tops)


def _top_of_weight(tops, weight_of, wt):
    """The one top whose weight_of is wt; RuntimeError unless there is exactly one."""
    hits = [top for top in tops if weight_of(top) == wt]
    if len(hits) != 1:
        raise RuntimeError(f"classical top of weight {wt} is not unique")
    return hits[0]


# -- type A: promotion --------------------------------------------------------

def _promotion_rule(spec, cls):
    """f_0 = pr^{-1} f_1 pr.  pr sends f_i to f_{i+1} (i in 1..n-2) and rotates
    the weight one letter up: each {1..n-2}-top goes to the {2..n-1}-top of its
    rotated weight, and pr is carried down from there."""
    n, wt, images = spec.n, cls.weights, cls.highest_vertices(range(2, spec.n))
    anchors = {
        top: _top_of_weight(images, wt.__getitem__, wt[top][-1:] + wt[top][:-1])
        for top in cls.highest_vertices(range(1, n - 1))
    }
    return anchors, {y: x for x, y in anchors.items()}, {i: i + 1 for i in range(1, n - 1)}, True


# -- families with the 0-node attached at node 1: sigma conjugation -----------

def _sigma_on_tops(table, mirror):
    """sigma on each {2..n}-top of a table {top: key}: the top of its mirrored key.

    mirror(P) is sigma on the keys (diagrams or sign triples).  RuntimeError
    if it leaves the table or sigma is not an involution on it.
    """
    top_of = {P: top for top, P in table.items()}
    sigma = {top: top_of.get(mirror(P)) for top, P in table.items()}
    if None in sigma.values():
        raise RuntimeError(f"{mirror.__name__} sends a diagram off the diagram table")
    if any(sigma[y] != x for x, y in sigma.items()):
        raise RuntimeError("sigma is not an involution on the {2..n}-tops")
    return sigma


def _dba_rule(spec, cls):
    """f_0 = sigma f_1 sigma, sigma the diagram involution on the {2..n}-tops."""

    def involution_S(P):
        return pm.involution_S(P, spec.r, spec.s)

    sigma = _sigma_on_tops(_summand_table(spec, cls), involution_S)
    return sigma, sigma, {i: i for i in range(2, spec.n + 1)}, True


# -- type C below the top node: fixed points of sigma -------------------------

def _build_virtual(spec):
    """The sigma-fixed locus of the closed rank-(n+1) host, numbered in host order.

    Color i, f_{i+1}, keeps the locus as sigma commutes with f_2..f_N.  At a
    fixed x, f_0 f_1 x is sigma of f_1 f_0 x, so color 0 commutes exactly where
    it stays fixed.  The e side (e_{i+1}, and e_1 e_0 at 0) must stay fixed too.
    """
    host_spec = AffineSpec("A2odd", spec.n + 1, spec.r, spec.s)
    _refuse_over_bound(host_spec)
    host, sigma = _build_from_tops(host_spec)
    hg = host.graph
    fixed = [x for x in range(len(hg)) if sigma[x] == x]
    number = {x: k for k, x in enumerate(fixed)}
    colors = range(spec.n + 1)
    f_edges = {i: {} for i in colors}
    for x, k in number.items():
        for i in colors:
            down, up = (
                ops[i + 1].get(x) if i else ops[1].get(ops[0].get(x)) for ops in (hg.f, hg.e)
            )
            if any(y not in number for y in (down, up) if y is not None):
                left = "virtual closure left the fixed-point set"
                raise RuntimeError(left if i else "host 0- and 1-operators failed to commute")
            if down is not None:
                f_edges[i][k] = number[down]
    weights = [hg.weights[x][1:] for x in fixed]
    graph = CrystalGraph([hg.elements[x] for x in fixed], colors, f_edges, weights)
    return KRBuild(spec, graph, ambient=AmbientLink(host))


# -- doubling embeddings ------------------------------------------------------

def _seed_diagram(ctype, n, sh):
    """One diagram per classical component; all dots when that is valid."""
    spin = "+" if sh.spin else ""
    try:
        cols = tuple((h, ".") for h in sh.columns())
        return pm.make_pm(ctype, n, cols, spin=spin)
    except ValueError:
        return pm.enumerate_pm(ctype, n, sh)[0]


class SteppedHost:
    """The host of a stepped build, evaluated one element at a time.

    The spec picks the host, an A2odd crystal of rank N: B^{n,s} itself for
    B1 at r = n (N = n), or the sigma-fixed locus of B^{r,2s} for A2even and
    D2 below the top node and of B^{r,s} for C1 below it (N = n + 1), read as
    a C1 crystal of rank n whose colors 0 and i are the host operators
    f_1 f_0 and f_{i+1}.  It also picks the multipliers m: (2,...,2,1) for
    B1, (1,2,...,2) for A2even, (1,2,...,2,1) for D2 and all 1 for C1.  The
    stepped build takes the m_i-th power of each color in one signature pass,
    sigma f_1^{m_0} sigma at color 0 (the virtual color 0 has m_0 = 1), and
    keeps no host arrow; each host step is one call, allocating no closure.
    No host crystal is closed: sigma on the {2..N}-tops is read off the
    diagram table and checked once to keep each top's {2..N}-weight, so on
    each {2..N}-component it is the one isomorphism onto the image component,
    an involution that commutes with f_2..f_N.  Any other element is raised by
    whole e-strings to a top (or an element of known sigma), whose image
    descends the same path, one pass per string segment each way; each segment
    end keeps the image the descent passes through.  sigma and the signature
    table, which takes every pass and keeps the factor rows it read last, live
    as long as the build.  Broken invariants raise RuntimeError; per element,
    only virtual color 0 is checked.
    """

    def __init__(self, spec):
        fam, n, r, s = spec.family, spec.n, spec.r, spec.s
        self.virtual = fam != "B1"
        self.n, self.r, self.rank = n, r, n + 1 if self.virtual else n
        self.s = s = 2 * s if fam in ("A2even", "D2") else s
        twos = {"B1": range(n), "A2even": range(1, n + 1), "D2": range(1, n)}.get(fam, ())
        self.m = tuple(2 if i in twos else 1 for i in range(n + 1))
        self.shapes = kr_decomposition(AffineSpec("A2odd", self.rank, r, s))
        # shapes of the host's classical (C_n) decomposition
        self.model_shapes = horizontal_domino_shapes(r, s) if self.virtual else self.shapes
        self._table = tableaux.SignatureTable("C", self.rank, range(1, self.rank + 1))
        tops = {sh: pm.highest_element(self.rank, sh) for sh in self.shapes}
        table = pm.phi_table("C", self.rank, tops, lambda x, i: self._table.apply(x, i, "f"))

        def involution_S(P):
            return pm.involution_S(P, r, s)

        self._sigma = _sigma_on_tops(table, involution_S)
        weight = functools.partial(tableaux.tableau_weight, self.rank)
        if any(weight(*x)[1:] != weight(*y)[1:] for x, y in self._sigma.items()):
            raise RuntimeError("sigma changes the {2..N}-weight of a top")
        fixed = [top for top, image in self._sigma.items() if image == top]
        self._fixed_tops = {top: self.host_weight(top) for top in fixed}  # top -> its weight

    # -- the A2odd crystal ----------------------------------------------------

    def sigma(self, elem):
        """The tail involution, memoized on both elements of each pair.  A fixed
        element comes back as itself, not as an equal copy, so the signature
        table still holds its rows."""
        out = self._sigma.get(elem)
        if out is None:
            out = self._reflect(elem)
        return elem if out == elem else out

    def _reflect(self, elem):
        """sigma(elem), carried down from the first element of known image.

        Every {2..N}-top is known, so the raise ends at one at the latest.
        The descent passes through the image of each segment end of the
        raise, elem last, and memoizes each such pair both ways.
        """
        memo, string = self._sigma, self._table.string
        ends = [elem]  # the raise's segment ends, elem first and the top last

        def up(i, x):
            if x not in memo and (segment := string(x, i, "e"))[1]:
                ends.append(segment[0])
                return segment
            return None

        path, top = greedy_raise(elem, range(2, self.rank + 1), up)
        if (y := memo.get(top)) is None:
            raise RuntimeError("sigma's raise ended off the diagram table")
        for (i, k), x in zip(reversed(path), reversed(ends[:-1])):
            y = string(y, i, "f", k)[0]
            if y is None:
                raise RuntimeError(f"sigma died descending an f_{i} arrow")
            memo[x], memo[y] = y, x
        return y

    def _tail_apply(self, elem, i, op, k):
        """e_i^k/f_i^k of the A2odd crystal, None if it vanishes: one signature
        pass, or sigma f_1^k sigma at color 0."""
        if not i:
            y = self._tail_apply(self.sigma(elem), 1, op, k)
            return None if y is None else self.sigma(y)
        return self._table.string(elem, i, op, k)[0]

    # -- the host seen by the stepped build -----------------------------------

    def host_apply(self, elem, i, op, k=1):
        """e_i^k/f_i^k of the host crystal (colors 0..n), None if it vanishes.
        The virtual color 0, f_1 f_0, is only ever taken once and must end fixed."""
        if not self.virtual:
            return self._tail_apply(elem, i, op, k)
        if i:
            return self._tail_apply(elem, i + 1, op, k)
        y = self._tail_apply(elem, 0, op, k)
        y = None if y is None else self._tail_apply(y, 1, op, k)
        if y is not None and self.sigma(y) is not y:
            raise RuntimeError("host 0- and 1-operators failed to commute")
        return y

    def host_weight(self, elem):
        w = tableaux.tableau_weight(self.rank, elem[0], elem[1])
        return w[1:] if self.virtual else w

    def host_top(self, outer):
        """The host's C_n top of a shape: the sigma-fixed {2..N}-top of its weight,
        or its highest tableau when the host is its own C_n crystal (B1 at r = n)."""
        if self.virtual:
            return _top_of_weight(self._fixed_tops, self._fixed_tops.get, outer.weight(self.n))
        return pm.highest_element(self.n, outer)

    def host_phi(self, P):
        """Phi(P) of a C_n diagram walked in the host's own C_n view (colors 1..n)."""
        return pm.phi(P, lambda x, i: self.host_apply(x, i, "f"), self.host_top(P.outer()))

    def seed(self, P):
        """Host element seeding the image component of a doubled C_n diagram P."""
        if not self.virtual and P.outer() not in self.shapes:
            raise RuntimeError("doubled seed is not an element of the host")
        # the bare rectangle seeds at its top, not at host_phi: this fixes the breadth-first order
        if self.virtual and P.cols == ((self.r, "."),) * self.s:
            return self.host_top(P.outer())
        return self.host_phi(P)

    # -- the stepped build ----------------------------------------------------

    def neighbours(self, elem):
        """(i, f_i^{m_i} elem, e_i^{m_i} elem) for colors 0..n, each power one pass.
        Colors 1..n go first, on elem's rows the table keeps; color 0 reads sigma(elem)."""
        step, m = self.host_apply, self.m
        out = [(i, step(elem, i, "f", k), step(elem, i, "e", k)) for i, k in enumerate(m) if i]
        return [(0, step(elem, 0, "f", m[0]), step(elem, 0, "e", m[0])), *out]

    def weight(self, elem):
        w = self.host_weight(elem)
        if any(c % 2 for c in w):
            raise RuntimeError("host weight of an image vertex is not even")
        return tuple(c // 2 for c in w)


def _build_stepped(spec):
    n, ctype, host = spec.n, spec.classical_type, SteppedHost(spec)
    seeds = [
        host.seed(pm.double_pm(_seed_diagram(ctype, n, sh))) for sh in kr_decomposition(spec)
    ]
    graph = generate_closure(seeds, tuple(range(n + 1)), host.neighbours, host.weight)
    return KRBuild(spec, graph, stepped=host)


# -- exceptional node for C and twisted D: sign triples -----------------------

def triple_rules(family, s, t, direction):
    """0-arrow case tables on the sign triples of full-height diagrams."""
    if family == "C1":
        if t.gamma or t.total() != s:
            raise ValueError(f"triple {t} malformed for s={s}")
        l1, l2, l3 = t.l1, t.l2, t.l3
        if direction == "e":
            return SignTriple(l1 - 1, l2 + 1, l3) if l1 else None
        return SignTriple(l1 + 1, l2 - 1, l3) if l2 else None
    if t.total() != s:
        raise ValueError(f"triple {t} malformed for s={s}")
    l1, l2, l3 = t.l1, t.l2, t.l3
    body = l1 + l2 + l3
    if direction == "e":
        if body < s:
            out = (l1, l2 + 2, l3)
        elif l1 > 1:
            out = (l1 - 2, l2, l3)
        elif l1 == 1:
            out = (0, l2 + 1, l3)
        else:
            return None
    else:
        if body < s:
            out = (l1 + 2, l2, l3)
        elif l2 > 1:
            out = (l1, l2 - 2, l3)
        elif l2 == 1:
            out = (l1 + 1, 0, l3)
        else:
            return None
    l1, l2, l3 = out
    gamma = (s - (l1 + l2 + l3)) // 2
    if gamma and s % 2:
        # a 0-column next to a spin sign rewrites as one full signed column
        l1, l2, gamma = l1 + 1, l2 + 1, 0
    return SignTriple(l1, l2, l3, gamma)


def _triple_of(P):
    counts = {"+": 0, "-": 0, "+-": 0, "0": 0}
    for h, st in P.cols:
        counts[st] += 1
    if P.ctype == "C":
        return SignTriple(counts["+"], counts["-"], counts["+-"])
    return SignTriple(
        2 * counts["+"] + (P.spin == "+"),
        2 * counts["-"] + (P.spin == "-"),
        2 * counts["+-"],
        gamma=counts["0"],
    )


def _triples_rule(spec, cls):
    """f_0 = tau, the triple rules on each {2..n}-top, carried down its {2..n}-component."""
    family, s, table = spec.family, spec.s, _summand_table(spec, cls)
    top_of = {_triple_of(P): top for top, P in table.items()}
    if len(top_of) != len(table):
        raise RuntimeError("two {2..n}-tops share a sign triple")
    rules = {d: {top: triple_rules(family, s, t, d) for t, top in top_of.items()} for d in "ef"}
    for t in (t for rule in rules.values() for t in rule.values() if t is not None):
        if t not in top_of:
            raise RuntimeError(f"triple {t} is off the diagram table")
    e, f = ({top: top_of[t] for top, t in rules[d].items() if t is not None} for d in "ef")
    return f, e, {i: i for i in range(2, spec.n + 1)}, False


# -- type D tail nodes: sigma on one spin crystal -----------------------------

def _spin_tensor_weight(vecs):
    return tuple(map(sum, zip(*vecs)))


def sigma_spin_D(t):
    """sigma on the sign triple of a full-height type D diagram, followed by the
    n-1 <-> n flip: the + and - counts exchanged."""
    return t._replace(l1=t.l2, l2=t.l1)


def _spin_rule(spec, cls):
    """f_0 = tau f_1 tau, tau the n-1 <-> n flip after sigma on the sign triples of the {2..n}-tops
    of the one spin crystal: it maps the crystal to itself, carrying f_{n-1} to f_n."""
    n = spec.n
    table = {x: _triple_of(P) for x, P in _summand_table(spec, cls).items()}
    sigma, swap = _sigma_on_tops(table, sigma_spin_D), {n - 1: n, n: n - 1}
    return sigma, sigma, {i: swap.get(i, i) for i in range(2, n + 1)}, True


# -- dispatch ------------------------------------------------------------------

_TOP_RULES = {  # route -> rule(spec, cls): (forward, backward, shift, conjugate) on the tops
    "promotion": _promotion_rule, "dba": _dba_rule, "triples": _triples_rule, "spin": _spin_rule,
}
_BUILDERS = {"virtual": _build_virtual, "stepped": _build_stepped}  # the host routes


def _build_from_tops(spec):
    """(build, tau) of a _TOP_RULES route: its classical crystal closed (the one spin-tensor
    crystal at the D1 spin nodes), with f_0 attached from its rule's tau on the tops."""
    n, colors, kind = spec.n, spec.classical_colors, route(spec)
    if kind == "spin":
        _, top = pm.highest_element(n, Shape(spin=1, color=1 if spec.r == n else 2))
        table = tableaux.SpinTensorTable("D", n, colors)
        cls = generate_closure([(top,) * spec.s], colors, table.neighbours, _spin_tensor_weight)
    else:
        cls = classical_crystal(spec.classical_type, n, kr_decomposition(spec), colors)
    return KRBuild(spec, cls), _attach_from_tops(cls, *_TOP_RULES[kind](spec, cls))


def build_kr(spec: AffineSpec) -> KRBuild:
    """Build B^{r,s} afresh by its route, refused up front over VERTEX_BOUND, checked at |B|."""
    size, builder = _refuse_over_bound(spec), _BUILDERS.get(route(spec))
    build = builder(spec) if builder else _build_from_tops(spec)[0]
    if len(build.graph) != size:
        raise RuntimeError(f"build has {len(build.graph)} vertices, kr_dimension gives {size}")
    return build


def _refuse_over_bound(spec):
    """|B|, exact from kr_dimension; RuntimeError if it passes VERTEX_BOUND."""
    if (size := kr_dimension(spec)) > VERTEX_BOUND:
        head = f"{spec.family} n={spec.n} r={spec.r} s={spec.s} would have {size}"
        raise RuntimeError(f"{head} vertices, over the bound {VERTEX_BOUND}")
    return size
