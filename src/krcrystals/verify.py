"""Exhaustive structural checks on built crystals, one report per suite.

Each suite re-derives a property of B^{r,s} from scratch on the finished
graph (string lengths, branching tables, sign diagrams) and compares it
against the closed-form side: root data, dimension counts, diagram rules.
Failures carry a witness; unexpected exceptions become failing reports so
a whole grid can run unattended.
"""

from __future__ import annotations

import time
from operator import mul, sub

from . import pm_diagrams as pm
from .cartan import (
    FAMILIES,
    AffineSpec,
    Shape,
    affine_pairing,
    affine_root,
    conjugate,
    horizontal_domino_shapes,
    kr_decomposition,
    kr_dimension,
    weyl_dimension,
)
from .kr_builders import SteppedHost, build_kr, route
from .tableaux import SignatureTable


class CheckReport:
    def __init__(self, suite, spec, passed, detail="", witness=None, seconds=0.0):
        self.suite = suite
        self.spec = spec  # an AffineSpec
        self.passed = passed
        self.detail = detail
        self.witness = witness  # a dict, or None
        self.seconds = seconds  # kept off the serialized forms: reports stay byte-stable

    def line(self) -> str:
        spec = self.spec
        head = f"{self.suite:<10} {spec.family:<6} n={spec.n} r={spec.r} s={spec.s}"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{head}  {'PASS' if self.passed else 'FAIL'}{tail}"

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "family": self.spec.family,
            "n": self.spec.n,
            "r": self.spec.r,
            "s": self.spec.s,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.witness is not None:
            out["witness"] = {k: self.witness[k] for k in sorted(self.witness)}
        return out


def _report(suite, build, body):
    start = time.perf_counter()
    try:
        passed, detail, witness = body()
    except Exception as exc:  # a broken graph should fail, not crash the run
        passed, detail, witness = False, f"error: {exc}", None
    return CheckReport(
        suite, build.spec, passed, detail, witness, time.perf_counter() - start
    )


def affine_colors(spec: AffineSpec) -> tuple[int, ...]:
    return (0,) + spec.classical_colors


def second_subset(spec: AffineSpec) -> tuple[int, ...]:
    """The affine colors with node n removed for C1, D2 and A2even, else node 1."""
    if spec.family in ("C1", "D2", "A2even"):
        return tuple(range(spec.n))
    top = spec.n if spec.family != "A1" else spec.n - 1
    return (0,) + tuple(range(2, top + 1))


# -- regularity ----------------------------------------------------------------

def check_regularity(build) -> CheckReport:
    """Arrows step by roots, and pair with the strings.

    The graph holds e_i = f_i^-1 and ending strings by construction.  Color by color, the
    least failing (vertex, color) is reported; a pair checks its weight step, then its
    pairing, and an error raised there (a fractional zero pairing) is its failure.
    """

    def body():
        g, spec = build.graph, build.spec
        fam, n = spec.family, spec.n
        ids = {}  # distinct weights, numbered in vertex order
        wid = [ids.setdefault(wt, len(ids)) for wt in g.weights]
        x, color, failure = len(g), None, None
        for i in affine_colors(spec):
            root = affine_root(fam, n, i)
            down = [ids.get(tuple(map(sub, wt, root)), -1) for wt in ids]
            norm = sum(map(mul, root, root))
            want = [divmod(2 * sum(map(mul, wt, root)), norm) for wt in ids]
            want = [value if i or not rest else None for value, rest in want]  # None: a fraction
            eps, phi = g.strings(i)
            try:
                for v, y, p, q, k in zip(range(x), map(g.f[i].get, range(x)), phi, eps, wid):
                    if y is not None and wid[y] != down[k]:
                        detail = "weight step is not the root"
                    elif p - q != want[k]:
                        affine_pairing(fam, n, g.weights[v], i)  # raises on a fraction
                        detail = "phi - eps misses the coroot pairing"
                    else:
                        continue
                    x, color, failure = v, i, detail
                    break
            except Exception as exc:  # a fractional pairing fails at its pair
                x, color, failure = v, i, exc
        if isinstance(failure, Exception):
            raise failure
        if failure is not None:
            return False, failure, _w(build, x, color)
        return True, f"{len(g)} vertices", None

    return _report("regularity", build, body)


def _w(build, x, i, **extra):
    witness = {"element": build.render(build.graph.elements[x], {}), "color": i}
    witness.update(extra)
    return witness


# -- decompositions --------------------------------------------------------------

def _component_sizes(graph, colors):
    return sorted(len(c) for c in graph.components(colors))


def check_decompositions(build) -> CheckReport:
    """Classical components match the tables; so does the zero-side restriction."""

    def body():
        g = build.graph
        spec = build.spec
        ctype, n = spec.classical_type, spec.n
        shapes = kr_decomposition(spec)
        if len(g) != kr_dimension(spec):
            return False, f"size {len(g)} != {kr_dimension(spec)}", None
        got = g.decomposition(spec.classical_colors)
        want = sorted(sh.weight(n) for sh in shapes)
        if got != want:
            return False, "classical highest weights off the table", {
                "got": str(got), "want": str(want),
            }
        classical_sizes = sorted(weyl_dimension(ctype, n, sh.weight(n)) for sh in shapes)
        subset = second_subset(spec)
        if spec.family == "A1":
            want_sizes = [len(g)]
        elif spec.family == "A2even":
            # the zero side branches over horizontal-domino shapes
            want_sizes = sorted(
                weyl_dimension("B", n, sh.weight(n))
                for sh in horizontal_domino_shapes(spec.r, spec.s)
            )
        else:
            want_sizes = classical_sizes
        got_sizes = _component_sizes(g, subset)
        if got_sizes != want_sizes:
            return False, f"component sizes under {subset} off the table", {
                "got": str(got_sizes), "want": str(want_sizes),
            }
        return True, f"{len(shapes)} classical components", None

    return _report("decomp", build, body)


# -- automorphisms ----------------------------------------------------------------

def sigma_map(spec: AffineSpec):
    """(color map, order, label, pass detail) of the Dynkin automorphism `sigma`
    searches the graph for; None for A2even.  0 <-> 1 is the sigma of B1, D1 and
    A2odd, with n-1 <-> n at the D1 spin nodes; i -> n-i is its C1 and D2 analog."""
    fam, n, colors = spec.family, spec.n, affine_colors(spec)
    if fam == "A1":
        rotate = {i: (i + 1) % n for i in colors}
        return rotate, n, "i -> i+1 mod n", f"promotion of order {n} rotates all arrows"
    if fam in ("C1", "D2"):
        return {i: n - i for i in colors}, 2, "i -> n-i", "involution realizing i -> n-i"
    if fam == "A2even":
        return None
    swap = {i: i for i in colors} | {0: 1, 1: 0}
    if fam == "B1" and spec.r == n:
        return swap, 2, "0 <-> 1", "involution realizing 0 <-> 1"
    label = "0 <-> 1"
    if fam == "D1" and spec.r >= n - 1:
        swap, label = swap | {n - 1: n, n: n - 1}, "0 <-> 1, n-1 <-> n"
    return swap, 2, label, "involution conjugating f_0 to f_1"


def search_sigma(graph, spec: AffineSpec):
    """The first automorphism {vertex: image} of graph realizing sigma_map(spec)
    whose order-th power is the identity; None if there is none."""
    color_map, order, _, _ = sigma_map(spec)
    for iso in graph.isomorphisms(graph, color_map=color_map, colors=affine_colors(spec)):
        walk = list(iso)
        for _ in range(order):
            walk = [iso[w] for w in walk]
        if walk == list(iso):
            return iso
    return None


def check_sigma(build) -> CheckReport:
    """The family's Dynkin automorphism is an automorphism of the graph, found by search."""

    def body():
        found = sigma_map(build.spec)
        if found is None:
            return True, "no automorphism in scope for this family", None
        _, order, label, passed = found
        if search_sigma(build.graph, build.spec) is None:
            return False, f"no automorphism of order {order} realizing {label}", None
        return True, passed, None

    return _report("sigma", build, body)


# -- the zero-string rule on sign diagrams -----------------------------------------

def _classical_tops(spec, graph):
    """{shape: vertex} of the graph's classical tops, each top's shape read off its weight.
    RuntimeError if a top's weight is off kr_decomposition(spec), or two tops share one."""
    shapes = {sh.weight(spec.n): sh for sh in kr_decomposition(spec)}
    tops = {}
    for x in graph.highest_vertices(spec.classical_colors):
        if (sh := shapes.get(wt := graph.weights[x])) is None:
            raise RuntimeError(f"classical top of weight {wt} is off the decomposition")
        if tops.setdefault(sh, x) != x:
            raise RuntimeError(f"classical top of weight {wt} is not unique")
    return tops


def _phi0_rule(P: pm.PmDiagram, r: int, s: int, m0: int):
    """Pair-deletion count for single-sign diagrams; None when inapplicable."""
    seen = set()
    symbols = []
    c_r = 0
    inner = P.inner_heights()
    for j in range(s):
        height = inner[j] if j < len(P.cols) else 0
        state = P.cols[j][1] if j < len(P.cols) else "."
        if state in ("+-", "0"):
            return None
        if height >= r:
            c_r += 1
            continue
        if state == ".":
            symbols.append(".")
        else:
            seen.add(state)
            symbols.append("!")
    if len(seen) > 1:
        return None
    eps = seen.pop() if seen else "+"
    stack = []
    for sym in symbols:
        if sym == "!" and stack and stack[-1] == ".":
            stack.pop()
        else:
            stack.append(sym)
    if eps == "+":
        total = stack.count(".")
    else:
        total = stack.count("!") + (s - c_r)
    return total // m0


def _sign_column_count(family, P):
    """eps_0 at the top of diagram P on the triples route, counted off its sign columns."""
    plus, zeros = (sum(st == state for _, st in P.cols) for state in ("+", "0"))
    return plus if family == "C1" else 2 * plus + (P.spin == "+") + zeros


def check_phi0(build) -> CheckReport:
    """Zero-string lengths on branching tops match the sign-diagram rules."""

    def body():
        spec = build.spec
        fam, n, r, s = spec.family, spec.n, spec.r, spec.s
        if fam not in ("C1", "A2even", "D2"):
            return True, "rule not applicable to this construction", None
        g = build.graph
        m0 = 2 if fam == "C1" else 1
        table = pm.branching_table(g, spec.classical_type, n, _classical_tops(spec, g))
        checked = 0
        for x, P in sorted(table.items()):  # the {2..n}-tops in vertex order
            if route(spec) == "triples":
                count = _sign_column_count(fam, P)
                if g.eps(0, x) != count:
                    return False, "eps_0 misses the sign-column count", _w(
                        build, x, 0, expected=str(count)
                    )
                checked += 1
                if fam == "D2":
                    continue
            want = _phi0_rule(P, r, s, m0)
            if want is not None:
                checked += 1
                if g.phi(0, x) != want:
                    return False, "phi_0 misses the pair-deletion count", _w(
                        build, x, 0, expected=str(want)
                    )
                continue
            # mixed-sign diagrams: a short column with no plus forces motion
            short = [st for h, st in P.cols if h < n - 1]
            if short and not any("+" in st for st in short):
                checked += 1
                if g.phi(0, x) == 0:
                    return False, "phi_0 vanished without a short plus", _w(build, x, 0)
        return True, f"{checked} diagram checks", None

    return _report("phi0", build, body)


# -- index-scaled embeddings ----------------------------------------------------

def _check_stepped_similarity(build, host):
    """Each graph i-string is the host i-string of its head, every m_i-th element kept.

    Every vertex lies on one graph i-string, so one walk of each host string,
    from the head of its graph string, checks every vertex's lengths and edge.
    The walk takes fresh single host steps and stops one past the scaled length, a failure.
    The image holds exactly the host's doubled diagram tops, or every top if every m_i = 1.
    """
    g = build.graph
    ctype, n = build.spec.classical_type, build.spec.n
    m = host.m
    strings = [g.strings(i) for i in range(n + 1)]
    for x, v in enumerate(g.elements):
        for i, (eps, phi) in enumerate(strings):
            if eps[x]:
                continue
            down, w, cap = [], v, m[i] * phi[x]
            while len(down) <= cap and (w := host.host_apply(w, i, "f")) is not None:
                down.append(w)
            if len(down) % m[i]:
                return False, "host string not divisible by the multiplier", _w(build, x, i)
            if host.host_apply(v, i, "e") is not None or len(down) != m[i] * phi[x]:
                return False, "image string is not the scaled host string", _w(build, x, i)
            y = x
            for k, w in enumerate(down, 1):
                if k % m[i] == 0:
                    if g.elements[z := g.f[i][y]] != w:
                        return False, "edge is not the powered host edge", _w(build, y, i)
                    y = z
    unit = set(m) == {1}
    tops = {sh: host.host_top(sh) for sh in host.model_shapes}
    doubled = 0
    image = set(g.elements)
    for v, P in pm.phi_table("C", n, tops, lambda x, i: host.host_apply(x, i, "f")).items():
        in_image = v in image
        # phantom zero-height columns double too, so their count stays even
        is_double = unit or (pm.is_doubled(P, ctype) and (host.s - P.width()) % 2 == 0)
        if in_image != is_double:
            return False, "image tops are not the doubled diagrams", {
                "element": build.render(v, {}),
                "in_image": str(in_image),
            }
        doubled += in_image
    return True, f"{len(g)} fixed points" if unit else f"{doubled} doubled diagram tops", None


def check_similarity(build) -> CheckReport:
    """The build sits inside its host exactly as the index scaling dictates."""

    def body():
        # a fixed-point build is checked on a fresh host, not the closed one it was read off
        host = SteppedHost(build.spec) if route(build.spec) == "virtual" else build.stepped
        if host is None:
            return True, "no ambient crystal for this construction", None
        return _check_stepped_similarity(build, host)

    return _report("similarity", build, body)


# -- lowest elements of the classical layer ----------------------------------------

def _jlowest_column_problem(col, n, ctype):
    plain = [c for c in col if c > 0]
    zeros = sum(1 for c in col if c == 0)
    barred = [-c for c in col if c < 0]
    if list(col) != plain + [0] * zeros + [-b for b in barred]:
        return "letters out of band order"
    if zeros and ctype == "C":
        return "zero letters outside type B"
    if plain:
        if plain != list(range(plain[0], n + 1)):
            return "unbarred run does not climb to n"
        if any(b >= plain[0] for b in barred):
            return "barred letter at or above the run start"
    return None


def _lowest_tableaux(spec, graph):
    """(x, its classical tableau) of each {1..n-1}-lowest vertex x, in vertex order.  On the dba
    and triples routes x is one; elsewhere x is raised along the graph's arrows to its classical
    top, whose shape's highest tableau goes down the reversed path, one signature pass a segment."""
    n, colors = spec.n, spec.classical_colors
    lowest = sorted(set(range(len(graph))).difference(*(graph.f[i] for i in range(1, n))))
    if route(spec) in ("dba", "triples"):
        yield from ((x, graph.elements[x]) for x in lowest)
        return
    shape_of = {x: sh for sh, x in _classical_tops(spec, graph).items()}
    string = SignatureTable(spec.classical_type, n, colors).string
    for x in lowest:
        path, top = graph.raise_path(x, colors)
        tab = pm.highest_element(n, shape_of[top])
        for i, k in reversed(path):
            if (tab := string(tab, i, "f", k)[0]) is None:
                raise RuntimeError(f"descent died on an f_{i} string")
        yield x, tab


def check_jlowest(build) -> CheckReport:
    """Lowest elements below the top color have the forced column pattern."""

    def body():
        spec = build.spec
        ctype, n = spec.classical_type, spec.n
        if ctype not in "BC":
            return True, "pattern not applicable to this classical type", None
        g = build.graph
        jprime = tuple(range(2, n + 1))
        checked = 0
        for x, (cols, spin) in _lowest_tableaux(spec, g):
            if spin is not None:
                continue
            checked += 1
            for col in cols:
                problem = _jlowest_column_problem(col, n, ctype)
                if problem:
                    return False, problem, _w(build, x, 1, column=str(col))
            heights = [len(col) - (col[-1] == -1 if col else False) for col in cols]
            if any(h >= n for h in heights):
                continue  # inner shape would leave rank n-1; pattern still holds
            if sorted(heights, reverse=True) != heights:
                return False, "inner heights are not a partition", _w(build, x, 1)
            inner = Shape(conjugate([h for h in heights if h]))
            _, top = g.raise_path(x, jprime)
            if tuple(g.weights[top][1:]) != inner.weight(n - 1):
                return False, "branch top misses the inner shape", _w(
                    build, x, 2, inner=str(inner)
                )
        return True, f"{checked} lowest elements", None

    return _report("jlowest", build, body)


# -- grid runner ------------------------------------------------------------------

_CHECKS = {
    "regularity": check_regularity,
    "decomp": check_decompositions,
    "sigma": check_sigma,
    "phi0": check_phi0,
    "similarity": check_similarity,
    "jlowest": check_jlowest,
}
SUITES = tuple(_CHECKS)


def run_suite(specs, suites=SUITES) -> list[CheckReport]:
    """All requested suites over all specs, in a deterministic order.

    A spec whose build raises yields one failing ``build`` report in place
    of its suites, and the run goes on.
    """
    reports = []
    for spec in specs:
        try:
            build = build_kr(spec)
        except Exception as exc:  # a broken build should fail, not crash the run
            reports.append(CheckReport("build", spec, False, f"error: {exc}"))
            continue
        for name in suites:
            reports.append(_CHECKS[name](build))
    return reports


def default_grid(n_values=(2, 3), s_values=(1, 2)) -> tuple[AffineSpec, ...]:
    """Every family over the ranks n_values; D1 runs from its least rank 4 to max(4, n_values)."""
    specs = []
    for family in FAMILIES:
        for n in range(4, max((4, *n_values)) + 1) if family == "D1" else n_values:
            r_max = n - 1 if family == "A1" else n
            for r in range(1, r_max + 1):
                for s in s_values:
                    specs.append(AffineSpec(family, n, r, s))
    return tuple(specs)
