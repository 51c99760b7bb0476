"""Gluing the tilting poset at a source or sink leaf.

Deleting a leaf x splits Tilt(Q) into the modules containing the simple at x
and the rest.  Projection (restrict, decompose, dedupe) and lift (extend and
adjoin the simple) identify the first part with Tilt(Q \\ {x}); reflection
at x carries the second part onto its counterpart over the reflected quiver.
Crossing arrows of the tilting quiver biject with the first part, which
yields the arrow-count decomposition behind orientation invariance.

Everything here reads the ids and dimension vectors of ext_table.
Restriction deletes the coordinate at x, extension copies the coordinate of
x's neighbour, and the reflection functor at x sends every indecomposable
other than the simple to the simple reflection of its dimension vector.  The
functors of rep that build these modules are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .quiver import delete_vertex, reflect
from .rep import simple_reflection_dims
from .tilting import (
    enumerate_tilting,
    ext_table,
    is_tilting,
    leq,
    order_bitsets,
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
    second solution signals a broken invariant.
    """
    k = len(table)
    roots = table.dims
    solutions = []

    def walk(start, remaining, chosen):
        if not any(remaining):
            solutions.append(tuple(chosen))
            return
        for i in range(start, k):
            root = roots[i]
            if any(r > t for r, t in zip(root, remaining)):
                continue
            if any(not ((table.compat[c] >> i) & 1) and c != i for c in chosen):
                continue
            walk(i, tuple(t - r for t, r in zip(remaining, root)), chosen + [i])

    walk(0, tuple(target), [])
    if len(solutions) != 1:
        raise RuntimeError(
            f"dimension vector {target} has {len(solutions)} rigid decompositions"
        )
    return solutions[0]


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


@dataclass
class ClosureReport:
    """Section/closure identities of project and lift at one leaf."""

    section_ok: bool  # project(lift(t)) == t on the smaller poset
    closure_ok: bool  # lift(project(t)) below t (source) resp. above t (sink)
    equality_ok: bool  # ... with equality exactly on the modules containing S(x)
    monotone_ok: bool  # project preserves the order

    @property
    def ok(self):
        return self.section_ok and self.closure_ok and self.equality_ok and self.monotone_ok


def closure_report(q, x):
    if not q.is_leaf(x):
        raise ValueError(f"{x!r} is not a leaf")
    src = q.is_source(x)
    small = delete_vertex(q, x)
    table = ext_table(q)
    small_table = ext_table(small)
    s = simple_summand_id(table, x)
    section_ok = all(
        project(q, x, lift(q, x, t)) == t for t in enumerate_tilting(small)
    )
    closure_ok = True
    equality_ok = True
    tilts = enumerate_tilting(q)
    proj = {t: project(q, x, t) for t in tilts}
    for t in tilts:
        ft = lift(q, x, proj[t])
        below = leq(table, ft, t) if src else leq(table, t, ft)
        if not below:
            closure_ok = False
        if (ft == t) != (s in t):
            equality_ok = False
    monotone_ok = all(
        not leq(table, t, u) or leq(small_table, proj[t], proj[u])
        for t in tilts
        for u in tilts
    )
    return ClosureReport(section_ok, closure_ok, equality_ok, monotone_ok)


@dataclass
class GluedOrderReport:
    """The order on Tilt(Q) against the one-sided glued order at a leaf."""

    cross_ok: bool
    forbidden_ok: bool

    @property
    def ok(self):
        return self.cross_ok and self.forbidden_ok


def glued_order_report(q, x):
    """Cross comparisons must factor through lift(project(.)) on the right side."""
    if not q.is_leaf(x):
        raise ValueError(f"{x!r} is not a leaf")
    src = q.is_source(x)
    table = ext_table(q)
    inside, outside = split_by_simple(q, x)
    f = {t: lift(q, x, project(q, x, t)) for t in outside}
    cross_ok = True
    forbidden_ok = True
    for t in outside:
        for u in inside:
            if src:
                # glued order: u <= t iff u <= f(t); t <= u never happens
                if leq(table, t, u):
                    forbidden_ok = False
                if leq(table, u, t) != leq(table, u, f[t]):
                    cross_ok = False
            else:
                if leq(table, u, t):
                    forbidden_ok = False
                if leq(table, t, u) != leq(table, f[t], u):
                    cross_ok = False
    return GluedOrderReport(cross_ok, forbidden_ok)


@dataclass
class TransportReport:
    """Reflection transport of the complement onto the reflected quiver."""

    mapping: dict
    bijective: bool
    order_iso: bool
    commutes: bool

    @property
    def ok(self):
        return self.bijective and self.order_iso and self.commutes


def transport_complement(q, x):
    """Carry Tilt(Q) \\ Tilt(Q)^x onto the reflected quiver.

    The reflection functor at x sends each summand, never the simple at x, to
    the indecomposable whose root is the simple reflection of its own.
    """
    if not q.is_leaf(x):
        raise ValueError(f"{x!r} is not a leaf")
    if not (q.is_source(x) or q.is_sink(x)):
        raise ValueError(f"{x!r} is neither a source nor a sink")
    q2 = reflect(q, x)
    table = ext_table(q)
    table2 = ext_table(q2)
    _, outside = split_by_simple(q, x)
    _, outside2 = split_by_simple(q2, x)
    s = simple_summand_id(table, x)
    moved = {}
    for i, d in enumerate(table.dims):
        if i != s:
            d2 = simple_reflection_dims(q, x, dict(zip(q.vertices, d)))
            moved[i] = table2.id_by_dim[tuple(d2[v] for v in q2.vertices)]
    mapping = {t: tuple(sorted(moved[i] for i in t)) for t in outside}
    image = sorted(mapping.values())
    bijective = image == sorted(outside2) and len(set(image)) == len(image)
    order_iso = all(
        leq(table, t, u) == leq(table2, mapping[t], mapping[u])
        for t in outside
        for u in outside
    )
    commutes = all(
        project(q, x, t) == project(q2, x, mapping[t]) for t in outside
    )
    return TransportReport(mapping, bijective, order_iso, commutes)


@dataclass
class CrossingReport:
    """Arrows of the tilting quiver crossing the simple-at-x partition."""

    crossing: tuple  # (source node, target node, endpoint inside Tilt^x)
    inside: int  # arrows within Tilt^x
    outside: int  # arrows within the complement
    direction_ok: bool
    bijection_ok: bool

    @property
    def ok(self):
        return self.direction_ok and self.bijection_ok


def crossing_report(q, x):
    """Crossing arrows biject with Tilt^x; direction is forced by sink vs source."""
    if not (q.is_source(x) or q.is_sink(x)):
        raise ValueError(f"{x!r} is neither a source nor a sink")
    sink = q.is_sink(x)
    table = ext_table(q)
    tq = tilting_quiver(q)
    s = simple_summand_id(table, x)
    has_simple = [s in t for t in tq.nodes]
    inside = outside = 0
    crossing = []
    direction_ok = True
    for a, b in tq.arrows:
        ia, ib = has_simple[a], has_simple[b]
        if ia and ib:
            inside += 1
        elif not ia and not ib:
            outside += 1
        else:
            # sink: arrows leave Tilt^x; source: arrows enter it
            if sink and not ia:
                direction_ok = False
            if not sink and not ib:
                direction_ok = False
            crossing.append((a, b, a if ia else b))
    endpoints = [e for _, _, e in crossing]
    n_inside_nodes = sum(has_simple)
    bijection_ok = (
        len(set(endpoints)) == len(endpoints) and len(endpoints) == n_inside_nodes
    )
    return CrossingReport(tuple(crossing), inside, outside, direction_ok, bijection_ok)


@dataclass
class DecompositionReport:
    """Arrow count of Tilt(Q) as deleted-quiver arrows + complement + crossing."""

    small: int  # arrows of the deleted-vertex tilting quiver
    outside: int  # arrows within the complement
    crossing: int  # crossing arrows (= #Tilt^x when everything holds)
    total: int
    reflected_total: int
    inside_matches_small: bool

    @property
    def ok(self):
        return (
            self.small + self.outside + self.crossing == self.total
            and self.reflected_total == self.total
            and self.inside_matches_small
        )


def arrow_decomposition(q, x):
    if not q.is_leaf(x):
        raise ValueError(f"{x!r} is not a leaf")
    cross = crossing_report(q, x)
    small_tq = tilting_quiver(delete_vertex(q, x))
    total = len(tilting_quiver(q).arrows)
    reflected_total = len(tilting_quiver(reflect(q, x)).arrows)
    return DecompositionReport(
        small=len(small_tq.arrows),
        outside=cross.outside,
        crossing=len(cross.crossing),
        total=total,
        reflected_total=reflected_total,
        inside_matches_small=cross.inside == len(small_tq.arrows),
    )


@dataclass
class PosetView:
    """Elements with a reflexive relation given as row bitmasks."""

    elements: tuple
    relation: tuple

    def validate(self):
        k = len(self.elements)
        for i in range(k):
            if not (self.relation[i] >> i) & 1:
                raise RuntimeError("relation is not reflexive")
            for j in range(k):
                if i != j and (self.relation[i] >> j) & 1 and (self.relation[j] >> i) & 1:
                    raise RuntimeError("relation is not antisymmetric")
        for i in range(k):
            rest = self.relation[i]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest &= rest - 1
                if self.relation[j] & ~self.relation[i]:
                    raise RuntimeError("relation is not transitive")
        return True


def poset_view(q):
    """The tilting poset of q as an explicit relation matrix: row i, bit j iff t_i <= t_j."""
    tilts = enumerate_tilting(q)
    _, up = order_bitsets(ext_table(q), tilts)
    return PosetView(tilts, tuple(up))
