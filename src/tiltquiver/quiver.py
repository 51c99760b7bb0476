"""Tree-shaped quivers: construction, reflection, opposite, automorphism, twins, leaf deletion, classification.

Vertex labels are strings.  The canonical families use "1", "2", ... for path
vertices and "n+"/"n-" for the two fork tips of the D-type quiver.  A quiver is
always connected, loop-free and cycle-free, i.e. its underlying graph is a tree.
The positive roots and their simple reflections depend on that tree alone,
so they live here too, apart from the representations of `rep`.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache

_LABEL = re.compile(r"^(\d+)([+-]?)$")
_SUFFIX_ORDER = {"": 0, "+": 1, "-": 2}

# `vertex_key` keeps the keys of the VERTEX_KEYS labels it was most recently
# asked for; the canonical quivers up to the rank guards use 26 labels.
VERTEX_KEYS = 1024


@lru_cache(maxsize=VERTEX_KEYS)
def vertex_key(label):
    """Sort key: numeric labels in order, fork tips after their number, + before -.

    Memoised per label, the least recently read of VERTEX_KEYS labels
    dropped first; `__wrapped__` is the uncached key.
    """
    m = _LABEL.match(label)
    if m:
        return (0, int(m.group(1)), _SUFFIX_ORDER[m.group(2)], "")
    return (1, 0, 0, label)


class Quiver:
    """Finite connected acyclic quiver whose underlying graph is a tree.

    Immutable, and equal and hashed by its sorted vertices and arrows, so it
    keys the package's caches.
    """

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        verts = tuple(sorted(vertices, key=vertex_key))
        arrows = tuple(sorted(arrows))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arrows", arrows)
        if len(set(verts)) != len(verts):
            raise ValueError("vertex labels must be unique")
        vset = set(verts)
        edges = set()
        for a, b in arrows:
            if a not in vset or b not in vset:
                raise ValueError(f"arrow ({a},{b}) uses unknown vertex")
            if a == b:
                raise ValueError("loops are not allowed")
            e = frozenset((a, b))
            if e in edges:
                raise ValueError("multiple edges are not allowed")
            edges.add(e)
        if len(arrows) != len(verts) - 1:
            raise ValueError("underlying graph must be a tree")
        if verts and self._reachable(verts[0]) != vset:
            raise ValueError("quiver must be connected")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arrows) == (other.vertices, other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r})"

    def _reachable(self, start):
        adj = self.neighbor_map()
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def neighbor_map(self):
        adj = {v: [] for v in self.vertices}
        for a, b in self.arrows:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def is_sink(self, v):
        return v in self.vertices and all(a != v for a, _ in self.arrows)

    def is_source(self, v):
        return v in self.vertices and all(b != v for _, b in self.arrows)

    def is_leaf(self, v):
        return sum(1 for a, b in self.arrows if v in (a, b)) == 1


def path_quiver(n, orientation=None):
    """Path quiver on vertices 1..n; orientation bit i set means arrow i -> i+1."""
    if n < 1:
        raise ValueError("path quiver needs rank >= 1")
    if orientation is None:
        orientation = [True] * (n - 1)
    if len(orientation) != n - 1:
        raise ValueError(f"orientation needs {n - 1} bits, got {len(orientation)}")
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i, fwd in enumerate(orientation, start=1):
        a, b = str(i), str(i + 1)
        arrows.append((a, b) if fwd else (b, a))
    return Quiver(verts, tuple(arrows))


def d_quiver(n, orientation=None):
    """D-type quiver: stem 1..n-1 plus fork tips n+/n- attached at n-1.

    The default orientation points every edge away from vertex 1, so the fork
    tips are the sinks.  Edge order for orientation bits: stem edges
    (1,2)..(n-2,n-1), then (n-1,n+), then (n-1,n-).
    """
    if n < 2:
        raise ValueError("d quiver needs fork parameter >= 2")
    if orientation is None:
        orientation = [True] * n
    if len(orientation) != n:
        raise ValueError(f"orientation needs {n} bits, got {len(orientation)}")
    verts = tuple(str(i) for i in range(1, n)) + (f"{n}+", f"{n}-")
    edges = [(str(i), str(i + 1)) for i in range(1, n - 1)]
    edges.append((str(n - 1), f"{n}+"))
    edges.append((str(n - 1), f"{n}-"))
    arrows = [(a, b) if fwd else (b, a) for (a, b), fwd in zip(edges, orientation)]
    return Quiver(verts, tuple(arrows))


def reflect(q, x):
    """Reverse every arrow incident to x."""
    if x not in q.vertices:
        raise ValueError(f"unknown vertex {x!r}")
    arrows = tuple((b, a) if x in (a, b) else (a, b) for a, b in q.arrows)
    return Quiver(q.vertices, arrows)


def opposite(q):
    """Reverse every arrow: the quiver Q^op."""
    return Quiver(q.vertices, tuple((b, a) for a, b in q.arrows))


def automorphism(q):
    """The diagram automorphism alpha applied to q: (alpha q, perm), or None when alpha q == q.

    alpha reverses the path on type A and swaps the two fork tips on type D
    (on the 3-vertex D shape that is the path reversal too).  It is an
    involution of the underlying tree, so alpha q has q's vertices and
    edges; perm[p] is the position in q.vertices of alpha(q.vertices[p]).
    """
    kind, positions = _canonical_positions(q)
    n = len(q.vertices)
    if kind == "A":
        swap = {str(i): str(n + 1 - i) for i in range(1, n + 1)}
    else:
        tips = f"{n - 1}+", f"{n - 1}-"
        swap = dict(zip(tips, reversed(tips)))
    at = {p: v for v, p in positions.items()}
    alpha = {v: at[swap.get(p, p)] for v, p in positions.items()}
    image = Quiver(q.vertices, tuple((alpha[a], alpha[b]) for a, b in q.arrows))
    if image == q:
        return None
    index = {v: p for p, v in enumerate(q.vertices)}
    return image, tuple(index[alpha[v]] for v in q.vertices)


def twins(q):
    """Yield the other orientations of q's orbit as (twin, reverse, perm), each built when asked for.

    First (Q^op, True, None), then, only when the automorphism moves q,
    (alpha Q, False, perm) and ((alpha Q)^op, True, perm), with perm as in
    `automorphism`.  `reverse` says whether the twin's arrows point the
    other way; alpha commutes with the opposite, so alpha fixing q fixes
    Q^op as well.
    """
    yield opposite(q), True, None
    alpha = automorphism(q)
    if alpha is not None:
        image, perm = alpha
        yield image, False, perm
        yield opposite(image), True, perm


def delete_vertex(q, x):
    """Remove a leaf vertex; deleting an interior vertex would disconnect."""
    if x not in q.vertices:
        raise ValueError(f"unknown vertex {x!r}")
    if not q.is_leaf(x):
        raise ValueError(f"deleting {x!r} would disconnect the quiver")
    verts = tuple(v for v in q.vertices if v != x)
    arrows = tuple(ar for ar in q.arrows if x not in ar)
    return Quiver(verts, arrows)


def tree_edges(q):
    """Underlying edges as frozensets, orientation forgotten."""
    return frozenset(frozenset(ar) for ar in q.arrows)


def simple_reflection_dims(q, x, d):
    """Simple reflection of a dimension vector at x on the underlying tree."""
    out = dict(d)
    out[x] = -d[x] + sum(d[w] for w in q.neighbor_map()[x])
    return out


def positive_roots(q):
    """Positive roots of the underlying tree of q by reflection closure of the simples.

    The roots depend on the tree alone, so they are cached per tree
    (vertices and edges, orientation forgotten): a scan over the
    orientations of one tree finds them once.  `cache_info`, `cache_clear`
    and `__wrapped__` (the uncached call) are those of that cache.
    """
    return _tree_roots(q.vertices, tree_edges(q))


@lru_cache(maxsize=None)
def _tree_roots(vertices, edges):
    """The positive roots of the tree, as coordinate tuples in the order of `vertices`.

    Every positive root is reached from a simple root by simple reflections
    that each raise one coordinate, so d is reflected at x only when that
    raises d[x]; no negative root is visited.
    """
    idx = {v: i for i, v in enumerate(vertices)}
    nbrs = [[] for _ in vertices]
    for a, b in edges:
        nbrs[idx[a]].append(idx[b])
        nbrs[idx[b]].append(idx[a])
    simples = [tuple(1 if i == j else 0 for j in range(len(vertices))) for i in range(len(vertices))]
    seen = set(simples)
    queue = list(simples)
    while queue:
        d = queue.pop()
        for i, around in enumerate(nbrs):
            c = sum(d[w] for w in around) - d[i]
            if c > d[i]:
                t = d[:i] + (c,) + d[i + 1 :]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return frozenset(seen)


positive_roots.cache_info = _tree_roots.cache_info
positive_roots.cache_clear = _tree_roots.cache_clear
positive_roots.__wrapped__ = lambda q: _tree_roots.__wrapped__(q.vertices, tree_edges(q))


def sink_reflection_sequence(start, goal):
    """Shortest sequence of sink reflections turning start into goal.

    BFS over orientations of the shared underlying tree, each kept as its
    sorted arrow tuple (the form Quiver stores); ties are broken by
    reflecting smaller vertices first, so the result is deterministic.
    """
    if start.vertices != goal.vertices or tree_edges(start) != tree_edges(goal):
        raise ValueError("quivers must share the same underlying tree")
    target = goal.arrows
    seen = {start.arrows: ()}
    queue = deque([start.arrows])
    while queue:
        arrows = queue.popleft()
        path = seen[arrows]
        if arrows == target:
            return list(path)
        tails = {a for a, _ in arrows}
        for x in start.vertices:  # sorted by vertex_key
            if x not in tails:
                nxt = tuple(sorted((b, a) if b == x else (a, b) for a, b in arrows))
                if nxt not in seen:
                    seen[nxt] = path + (x,)
                    queue.append(nxt)
    raise RuntimeError("orientation unreachable by sink reflections")


def admissible_sink_order(q):
    """Total order on vertices reflecting each exactly once, sinks first."""
    order = []
    cur = q
    remaining = set(q.vertices)
    while remaining:
        x = min((v for v in remaining if cur.is_sink(v)), key=vertex_key)
        order.append(x)
        remaining.discard(x)
        cur = reflect(cur, x)
    return order


def classify_tree(q):
    """Classify the underlying tree: ("A", n) for a path, ("D", n) for Q_n.

    For D the returned parameter is the fork parameter, so the quiver has n+1
    vertices.  The fork tips are found by the tree's shape; only the 3-vertex
    path, the shape D shares with A3, is read as D by its labels, when its
    two ends end in "+" and "-".  Raises on any other tree shape.
    """
    kind, positions = _canonical_positions(q)
    if kind == "A":
        return "A", len(q.vertices)
    return "D", len(q.vertices) - 1


def canonical_form(q):
    """Relabel onto the canonical vertex names; returns (quiver, old->new map)."""
    _, mapping = _canonical_positions(q)
    verts = tuple(mapping[v] for v in q.vertices)
    arrows = tuple((mapping[a], mapping[b]) for a, b in q.arrows)
    return Quiver(verts, arrows), mapping


def _canonical_positions(q):
    adj = q.neighbor_map()
    degs = {v: len(adj[v]) for v in q.vertices}
    forks = [v for v, d in degs.items() if d > 2]
    if len(forks) > 1 or any(d > 3 for d in degs.values()):
        raise ValueError("underlying tree is not of type A or D")
    if forks:
        # the tips are the leaves on the fork, the two largest-key ones when
        # all three branches are leaves (D4); the stem is the branch left
        leaves = sorted((w for w in adj[forks[0]] if degs[w] == 1), key=vertex_key)
        if len(leaves) < 2:
            raise ValueError("underlying tree is not of type A or D")
        return "D", _d_positions(q, adj, tuple(leaves[-2:]))
    # The smallest D shape has no branch vertex: it is the 3-vertex path,
    # told from A3 only by the fork-tip labels on its two ends.
    if len(q.vertices) == 3:
        a, b = (v for v in q.vertices if degs[v] == 1)
        tips = (a, b) if a.endswith("+") else (b, a)
        if tips[0].endswith("+") and tips[1].endswith("-"):
            return "D", _d_positions(q, adj, tips)
    return "A", _path_positions(q, adj)


def _path_positions(q, adj):
    ends = [v for v in q.vertices if len(adj[v]) <= 1]
    if len(q.vertices) == 1:
        return {q.vertices[0]: "1"}
    start = min(ends, key=vertex_key)
    order = [start]
    prev = None
    while len(order) < len(q.vertices):
        nxt = next(u for u in adj[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return {v: str(i) for i, v in enumerate(order, start=1)}


def _d_positions(q, adj, tips):
    n = len(q.vertices) - 1
    mapping = {tips[0]: f"{n}+", tips[1]: f"{n}-"}
    # the stem runs from the fork to its leaf, and positions count from the leaf
    stem, prev = [adj[tips[0]][0]], None
    while len(stem) < n - 1:
        stem.append(next(u for u in adj[stem[-1]] if u != prev and u not in tips))
        prev = stem[-2]
    mapping.update((v, str(pos)) for pos, v in enumerate(reversed(stem), start=1))
    return mapping


def quiver_to_json(q):
    """JSON-ready dict with fixed field order and sorted vertices."""
    return {"vertices": list(q.vertices), "arrows": [list(ar) for ar in q.arrows]}
