"""Finite crystal graphs: closure generation, strings, components, isomorphism.

A graph holds hashable elements, arrow dictionaries f[i]/e[i] on vertex
indices, and one weight tuple per vertex; it owns the lists and f dicts it
is given, uncopied, and keeps no element index.  It is regular by
construction: each color's arrows are a partial injection and each of its
strings ends, which the graph checks where it is made, reading every string once.
"""

from __future__ import annotations

from collections import deque

VERTEX_BOUND = 10**6


class CrystalGraph:
    def __init__(self, elements, colors, f_edges, weights):
        self.elements = elements
        self.colors = tuple(colors)
        self.weights = weights
        self.f, self.e = {}, {}
        self._strings = {}  # color -> its eps and phi lists
        for i in self.colors:
            self._attach(i, f_edges[i])

    def __len__(self):
        return len(self.elements)

    def add_color(self, i, f_edges):
        """Attach color i, placed first, walking only its strings; refused as in __init__."""
        self._attach(i, f_edges)
        self.colors = (i,) + self.colors

    def _attach(self, i, f):
        """Store color i's arrows and (eps_i, phi_i), one walk per string, down from its head.

        RuntimeError if f is not injective, or at the least vertex of a cycle.
        """
        e = {y: x for x, y in f.items()}
        if len(e) != len(f):
            raise RuntimeError(f"f_{i} arrows are not injective")
        size = len(self.elements)
        eps, phi = [0] * size, [0] * size
        walked = 0
        for head in f.keys() - e.keys():
            string = [head]
            while (y := f.get(string[-1])) is not None:
                string.append(y)
            for k, v in enumerate(string):
                eps[v], phi[v] = k, len(string) - 1 - k
            walked += len(string) - 1
        if walked != len(f):  # the arrows no head reaches close into cycles
            x = min(x for x in f if not phi[x])
            raise RuntimeError(f"f_{i} string does not end at vertex {x}")
        self.f[i], self.e[i], self._strings[i] = f, e, (eps, phi)

    def phi(self, i, x) -> int:
        return self._strings[i][1][x]

    def eps(self, i, x) -> int:
        return self._strings[i][0][x]

    def strings(self, i):
        """(eps_i, phi_i) of every vertex, read when color i was attached."""
        return self._strings[i]

    # -- structure ------------------------------------------------------------

    def components(self, colors):
        """Sorted vertex lists of the components under colors, by least vertex, breadth first."""
        adjacent = [[] for _ in self.elements]
        for i in colors:
            for x, y in self.f[i].items():
                adjacent[x].append(y)
                adjacent[y].append(x)
        seen = [False] * len(adjacent)
        out = []
        for x, done in enumerate(seen):
            if done:
                continue
            seen[x] = True
            comp = [x]
            for y in comp:  # comp grows while it is read: a queue
                for z in adjacent[y]:
                    if not seen[z]:
                        seen[z] = True
                        comp.append(z)
            out.append(sorted(comp))
        return out

    def highest_vertices(self, colors):
        raised = set().union(*(self.e[i] for i in colors))
        return [x for x in range(len(self.elements)) if x not in raised]

    def raise_path(self, x, colors):
        """Greedy raising to a highest vertex; returns ((color, length) path, vertex)."""

        def up(i, y):
            e, k = self.e[i], 0
            while (z := e.get(y)) is not None:
                y, k = z, k + 1
            return (y, k) if k else None

        return greedy_raise(x, colors, up)

    def decomposition(self, colors):
        """Sorted weights of the unique highest vertex of each component."""
        highest = set(self.highest_vertices(colors))
        tops = [highest.intersection(comp) for comp in self.components(colors)]
        for found in tops:
            if len(found) != 1:
                raise ValueError(f"component has {len(found)} highest vertices, expected 1")
        return sorted(self.weights[top] for (top,) in tops)

    # -- isomorphism search -----------------------------------------------------

    def isomorphisms(self, other, color_map, colors):
        """Yield every color-respecting isomorphism self -> other.

        ``color_map`` sends self colors to other colors, permuting colors if
        other is self.  Works on graphs connected under ``colors``; the anchor
        vertex is matched by its (eps, phi) vectors, read once for self, and
        arrows force the rest of the map, so each viable anchor image yields one mapping.
        """
        if len(self.elements) != len(other.elements):
            return

        keys = self.string_vectors(colors)
        anchor = keys.index(min(keys))
        want = keys[anchor]
        if other is self:  # the anchor's vectors, color i's entries moved to color_map[i]'s place
            place = [colors.index(color_map[i]) for i in colors]
            want = tuple(tuple(v for _, v in sorted(zip(place, vec))) for vec in want)
        other_keys = keys if other is self else other.string_vectors([color_map[i] for i in colors])
        sides = (self.f, other.f), (self.e, other.e)  # each color's lookups, f then e
        arrows = [(mine[i].get, theirs[color_map[i]].get) for i in colors for mine, theirs in sides]
        for start in (start for start, key in enumerate(other_keys) if key == want):
            if (mapping := self._propagate(anchor, start, arrows)) is not None:
                yield mapping

    def string_vectors(self, colors):
        """Each vertex's (eps, phi) vectors over colors, read off each color's lists once."""
        lists = [self._strings[i] for i in colors]
        return list(zip(zip(*(eps for eps, _ in lists)), zip(*(phi for _, phi in lists))))

    def _propagate(self, anchor, start, arrows):
        """The map anchor -> start forces breadth first along arrows; None on a clash."""
        size = len(self.elements)
        image = [None] * size
        used = [False] * size  # vertices of the other graph already hit
        image[anchor], used[start] = start, True
        queue = [anchor]
        for x in queue:  # queue grows while it is read
            there = image[x]
            for mine, theirs in arrows:
                y, z = mine(x), theirs(there)
                if y is None or z is None:
                    if y is not z:
                        return None
                    continue
                if image[y] is None:
                    if used[z]:
                        return None
                    image[y], used[z] = z, True
                    queue.append(y)
                elif image[y] != z:
                    return None
        if len(queue) != size:
            return None
        return dict(enumerate(image))


def greedy_raise(x, colors, up):
    """Raise each color's whole e-string in turn, sweeping until none applies.

    ``up(i, x)`` returns (the top of x's i-string, its length) or None where
    x is not raised.  Returns the path of (color, length) segments and the
    top; f_i^k along the reversed path from the top gives x back.
    """
    path = []
    moved = True
    while moved:
        moved = False
        for i in colors:
            if (segment := up(i, x)) is not None:
                x, k = segment
                path.append((i, k))
                moved = True
    return path, x


def generate_closure(seeds, colors, neighbours, weight_fn):
    """Close seed elements under e_i/f_i for all given colors, breadth first.

    ``neighbours(elem)`` gives (i, f_i elem, e_i elem) for each color in order, None where an
    operator vanishes.  Raises if the closure exceeds VERTEX_BOUND vertices or arrows conflict:
    the f_i arrow out of y that e_i at x claims must be the one f_i at y gives.  Seeded at the
    highest elements, e slots may be None: a vertex of weight wt under a top of weight lam is
    reached at depth ht(lam - wt), after its e-neighbours, so order and arrows are the same.
    """
    elements = []
    index = {}
    f_edges = {i: {} for i in colors}
    queue = deque()

    def intern(elem):
        k = index.get(elem)
        if k is None:
            k = len(elements)
            if k >= VERTEX_BOUND:
                raise RuntimeError(f"crystal closure exceeded {VERTEX_BOUND} vertices")
            index[elem] = k
            elements.append(elem)
            queue.append(elem)
        return k

    for seed in seeds:
        intern(seed)
    while queue:
        elem = queue.popleft()
        x = index[elem]
        for i, down, up in neighbours(elem):
            if down is not None:
                y = intern(down)
                if f_edges[i].setdefault(x, y) != y:
                    raise RuntimeError(f"conflicting f_{i} arrow at {elem!r}")
            if up is not None:
                y = intern(up)
                if f_edges[i].setdefault(y, x) != x:
                    raise RuntimeError(f"conflicting f_{i} arrow at {up!r}")
    return CrystalGraph(elements, colors, f_edges, [weight_fn(el) for el in elements])
