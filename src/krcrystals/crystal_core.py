"""Finite crystal graphs: closure generation, strings, components, isomorphism.

A graph holds hashable elements, arrow dictionaries f[i]/e[i] on vertex
indices, and one weight tuple per vertex.  Arrows for each color are partial
injections; that is checked during generation.
"""

from __future__ import annotations

from collections import deque

VERTEX_BOUND = 10**6


class CrystalGraph:
    def __init__(self, elements, colors, f_edges, weights):
        self.elements = list(elements)
        self.colors = tuple(colors)
        self.index = {el: k for k, el in enumerate(self.elements)}
        self.f = {i: dict(f_edges[i]) for i in self.colors}
        self.e = {i: {dst: src for src, dst in self.f[i].items()} for i in self.colors}
        self.weights = list(weights)
        self._strings = {}  # color -> its eps and phi lists, None on a cycle

    def __len__(self):
        return len(self.elements)

    def phi(self, i, x) -> int:
        return self._string_length(i, x, 1, "f")

    def eps(self, i, x) -> int:
        return self._string_length(i, x, 0, "e")

    def _string_length(self, i, x, side, op):
        k = self.strings(i)[side][x]
        if k is None:
            raise RuntimeError(f"{op}_{i} string does not end at vertex {x}")
        return k

    def strings(self, i):
        """(eps_i, phi_i) of every vertex, from one walk per string, down from its head.

        A vertex no head reaches lies on a cycle and gets None; a walk longer
        than the graph cycles too (through an f_i that is not injective).
        """
        if i in self._strings:
            return self._strings[i]
        f, size = self.f[i], len(self.elements)
        eps, phi = [0] * size, [0] * size
        for head in f.keys() - self.e[i].keys():
            string = [head]
            while (y := f.get(string[-1])) is not None:
                if len(string) == size:
                    raise RuntimeError(f"f_{i} string does not end at vertex {head}")
                string.append(y)
            for k, v in enumerate(string):
                eps[v], phi[v] = k, len(string) - 1 - k
        for v in f:
            if not phi[v]:  # an f_i arrow out of a vertex no head reached
                eps[v] = phi[v] = None
        self._strings[i] = eps, phi
        return eps, phi

    # -- structure ------------------------------------------------------------

    def components(self, colors=None):
        """Sorted vertex lists of the components under colors, by least vertex, breadth first."""
        adjacent = [[] for _ in self.elements]
        for i in colors or self.colors:
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

    def highest_vertices(self, colors=None):
        raised = set().union(*(self.e[i] for i in colors or self.colors))
        return [x for x in range(len(self.elements)) if x not in raised]

    def raise_path(self, x, colors):
        """Greedy raising to a highest vertex; returns ((color, length) path, vertex)."""

        def up(i, y):
            e, k = self.e[i], 0
            while (z := e.get(y)) is not None:
                y, k = z, k + 1
            return (y, k) if k else None

        return greedy_raise(x, colors, up)

    def decomposition(self, colors=None):
        """Sorted weights of the unique highest vertex of each component."""
        highest = set(self.highest_vertices(colors))
        tops = [highest.intersection(comp) for comp in self.components(colors)]
        for found in tops:
            if len(found) != 1:
                raise ValueError(f"component has {len(found)} highest vertices, expected 1")
        return sorted(self.weights[top] for (top,) in tops)

    # -- isomorphism search -----------------------------------------------------

    def isomorphisms(self, other, color_map=None, colors=None):
        """Yield every color-respecting isomorphism self -> other.

        ``color_map`` sends self colors to other colors.  Works on graphs
        connected under ``colors``; the anchor vertex is matched by its
        (eps, phi) vectors, and arrows force the rest of the map, so each
        viable anchor image yields one mapping.
        """
        colors = list(colors or self.colors)
        color_map = color_map or {i: i for i in colors}
        if len(self.elements) != len(other.elements):
            return

        keys = self.string_vectors(colors)
        other_keys = other.string_vectors([color_map[i] for i in colors])
        anchor = keys.index(min(keys))
        sides = (self.f, other.f), (self.e, other.e)  # each color's lookups, f then e
        arrows = [(mine[i].get, theirs[color_map[i]].get) for i in colors for mine, theirs in sides]
        for start in (start for start, key in enumerate(other_keys) if key == keys[anchor]):
            if (mapping := self._propagate(anchor, start, arrows)) is not None:
                yield mapping

    def string_vectors(self, colors):
        """Each vertex's (eps, phi) vectors over colors, read off each color's lists once."""
        lists = [self.strings(i) for i in colors]
        keys = list(zip(zip(*(eps for eps, _ in lists)), zip(*(phi for _, phi in lists))))
        for x in (x for x, (eps, _) in enumerate(keys) if None in eps):
            self.eps(colors[keys[x][0].index(None)], x)  # on a cycle: raises at its least vertex
        return keys

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
    """Close seed elements under e_i/f_i for all given colors.

    ``neighbours(elem)`` gives (i, f_i elem, e_i elem) for each color in
    order, None where an operator vanishes.  Raises if the closure exceeds
    VERTEX_BOUND vertices or arrows conflict: the f_i arrow out of y that
    e_i at x claims must be the one f_i at y gives.
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
    graph = CrystalGraph(elements, colors, f_edges, [weight_fn(el) for el in elements])
    _check_injective(graph)
    return graph


def _check_injective(graph):
    for i in graph.colors:
        targets = list(graph.f[i].values())
        if len(targets) != len(set(targets)):
            raise RuntimeError(f"f_{i} arrows are not injective")
