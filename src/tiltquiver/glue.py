"""The maps that glue the tilting poset at a source or sink leaf.

Deleting a leaf x splits Tilt(Q) into the modules containing the simple at x
and the rest.  Projection (restrict, decompose, dedupe) and lift (extend and
adjoin the simple) identify the first part with Tilt(Q \\ {x}); reflection
at x carries the second part onto its counterpart over the reflected quiver
(`transport_map`).  Crossing arrows of the tilting quiver biject with the
first part (`crossing_arrows`), which yields the arrow-count decomposition
behind orientation invariance.

This module computes the maps only.  The identities they satisfy (section
and closure, the glued order, the transport's order isomorphism, the
crossing bijection and the arrow-count decomposition) are checks in
`verify`, which reads the order as `order_bitsets` rows.

Everything here reads the ids and dimension vectors of ext_table.
Restriction deletes the coordinate at x, extension copies the coordinate of
x's neighbour, and the reflection functor at x sends every indecomposable
other than the simple to the simple reflection of its dimension vector.  The
functors of rep that build these modules are the tests' oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .quiver import delete_vertex, reflect
from .rep import simple_reflection_dims
from .tilting import (
    enumerate_tilting,
    ext_table,
    is_tilting,
    tilting_quiver,
)


def simple_summand_id(table, x):
    unit = tuple(1 if v == x else 0 for v in table.quiver.vertices)
    return table.id_by_dim[unit]


def split_by_simple(q, x):
    """Partition the tilting modules by containment of the simple at x."""
    if not (q.is_source(x) or q.is_sink(x)):
        raise ValueError(f"{x!r} is neither a source nor a sink")
    table = ext_table(q)
    s = simple_summand_id(table, x)
    inside, outside = [], []
    for t in enumerate_tilting(q):
        (inside if s in t else outside).append(t)
    return inside, outside


def rigid_summand_ids(table, target):
    """Decompose the dimension vector of a rigid module into summand ids.

    Searches for a multiset of indecomposables with pairwise two-sided Ext
    vanishing whose dimension vectors sum to the target.  Rigid modules are
    determined by their dimension vector, so the solution must be unique; a
    second solution signals a broken invariant.  The search is a module-level
    recursion (`_decompose`) with its state passed in, so it leaves no cycle.
    """
    solutions = []
    _decompose(table, 0, tuple(target), [], solutions)
    if len(solutions) != 1:
        raise RuntimeError(
            f"dimension vector {target} has {len(solutions)} rigid decompositions"
        )
    return solutions[0]


def _decompose(table, start, remaining, chosen, solutions):
    """Append each compatible extension of `chosen` by ids from `start` on that sums to `remaining`."""
    if not any(remaining):
        solutions.append(tuple(chosen))
        return
    for i in range(start, len(table)):
        root = table.dims[i]
        if any(r > t for r, t in zip(root, remaining)):
            continue
        if any(not ((table.compat[c] >> i) & 1) and c != i for c in chosen):
            continue
        _decompose(table, i, tuple(t - r for t, r in zip(remaining, root)), chosen + [i], solutions)


@lru_cache(maxsize=None)
def _leaf_maps(q, x):
    """The deleted quiver and the id maps of project and lift at the leaf x.

    down[i] is the summand mask over Q \\ {x} of root i of q with its x
    coordinate deleted, 0 when nothing is left; up[j] is the id in q of root j
    of Q \\ {x} with the coordinate of x's neighbour copied to x.
    """
    small = delete_vertex(q, x)
    table, small_table = ext_table(q), ext_table(small)
    p = q.vertices.index(x)
    (neighbour,) = q.neighbor_map()[x]
    y = small.vertices.index(neighbour)
    down = []
    for d in table.dims:
        rest = d[:p] + d[p + 1 :]
        mask = 0
        if any(rest):
            for j in rigid_summand_ids(small_table, rest):
                mask |= 1 << j
        down.append(mask)
    up = tuple(table.id_by_dim[d[:p] + (d[y],) + d[p:]] for d in small_table.dims)
    return small, tuple(down), up


def project(q, x, t):
    """Restrict a tilting module along a leaf deletion and keep distinct summands."""
    small, down, _ = _leaf_maps(q, x)
    mask = 0
    for s in t:
        mask |= down[s]
    out = tuple(j for j in range(mask.bit_length()) if mask >> j & 1)
    if not is_tilting(ext_table(small), out):
        raise RuntimeError("projection did not land on a tilting module")
    return out


def lift(q, x, t_small):
    """Extend a tilting module over the deleted quiver and adjoin the simple at x."""
    _, _, up = _leaf_maps(q, x)
    table = ext_table(q)
    ids = {simple_summand_id(table, x)} | {up[s] for s in t_small}
    out = tuple(sorted(ids))
    if not is_tilting(table, out):
        raise RuntimeError("lift did not land on a tilting module")
    return out


def transport_map(q, x):
    """Carry each module of Tilt(Q) \\ Tilt(Q)^x onto the reflected quiver.

    The reflection functor at x sends each summand, never the simple at x, to
    the indecomposable whose root is the simple reflection of its own.
    """
    if not q.is_leaf(x):  # a leaf has one arrow, so it is a source or a sink
        raise ValueError(f"{x!r} is not a leaf")
    q2 = reflect(q, x)
    table = ext_table(q)
    table2 = ext_table(q2)
    _, outside = split_by_simple(q, x)
    s = simple_summand_id(table, x)
    moved = {}
    for i, d in enumerate(table.dims):
        if i != s:
            d2 = simple_reflection_dims(q, x, dict(zip(q.vertices, d)))
            moved[i] = table2.id_by_dim[tuple(d2[v] for v in q2.vertices)]
    return {t: tuple(sorted(moved[i] for i in t)) for t in outside}


def crossing_arrows(q, x):
    """Arrows of the tilting quiver split by the simple at x.

    Returns the crossing arrows as (tail, head, endpoint) node triples, with
    endpoint the one holding the simple, and the numbers of arrows inside
    Tilt^x and inside its complement.
    """
    if not (q.is_source(x) or q.is_sink(x)):
        raise ValueError(f"{x!r} is neither a source nor a sink")
    tq = tilting_quiver(q)
    s = simple_summand_id(ext_table(q), x)
    has_simple = [s in t for t in tq.nodes]
    inside = outside = 0
    crossing = []
    for a, b in tq.arrows:
        ia, ib = has_simple[a], has_simple[b]
        if ia and ib:
            inside += 1
        elif not ia and not ib:
            outside += 1
        else:
            crossing.append((a, b, a if ia else b))
    return tuple(crossing), inside, outside
