"""Exact quiver representations: the Hom/Ext oracle and the standard functors.

A representation assigns a dimension to every vertex and an exact integer
matrix to every arrow (shape target-dim x source-dim).  Hom dimensions are
the nullities of the assembled intertwiner systems (linalg.nullspace, the
package's one elimination); Ext dimensions follow from hom - euler, valid
because path algebras of trees are hereditary.  Indecomposables over a
reference orientation are instantiated from the combinatorial models and
pushed to any other orientation with reflection functors at sinks.  The
reflection at a source is the dual of the one at a sink: D = Hom_k(-, k)
transposes every matrix and turns Q into Q^op, and R-_x = D R+_x D.  The
matrices stay integer (nullspace bases are integer-primitive), so hom_dim
and hom_table solve their systems in integers and reject any other matrix
entry.

tilting.ext_table reads the same Hom/Ext tables off the Euler form on
quiver.positive_roots, and glue works on those roots alone, reflecting them
with quiver.simple_reflection_dims.  No product module imports this one: its
linear algebra and the reflection functors, restrict and extend are the
oracle that verify and the tests compare them with.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import linalg, models
from .quiver import (
    canonical_form,
    classify_tree,
    delete_vertex,
    opposite,
    reflect,
    sink_reflection_sequence,
    vertex_key,
)
# re-exported only because trace mode in bench/child.py reads rep.positive_roots.cache_info()
from .quiver import positive_roots  # noqa: F401


class Rep(namedtuple("Rep", "quiver dims maps")):
    """Representation: dims per vertex, one matrix (rows of tuples) per arrow, checked when built."""

    __slots__ = ()

    def __new__(cls, quiver, dims, maps):
        if set(dims) != set(quiver.vertices):
            raise ValueError("dimension vector must cover exactly the vertices")
        for a, b in quiver.arrows:
            mat = maps.get((a, b))
            if mat is None:
                raise ValueError(f"missing matrix for arrow ({a},{b})")
            if len(mat) != dims[b] or any(len(r) != dims[a] for r in mat):
                raise ValueError(f"matrix shape mismatch on arrow ({a},{b})")
        return super().__new__(cls, quiver, dims, maps)

    def dim_tuple(self):
        return tuple(self.dims[v] for v in self.quiver.vertices)

    def is_zero(self):
        return all(d == 0 for d in self.dims.values())


def simple_rep(q, x):
    dims = {v: 1 if v == x else 0 for v in q.vertices}
    return Rep(q, dims, {(a, b): models._zeros(dims[b], dims[a]) for a, b in q.arrows})


def euler_form(q, d, e):
    """<d,e> = sum_v d_v e_v - sum_{a->b} d_a e_b; equals hom - ext here."""
    if set(d) != set(q.vertices) or set(e) != set(q.vertices):
        raise ValueError("dimension vectors must be indexed by the vertices")
    total = sum(d[v] * e[v] for v in q.vertices)
    total -= sum(d[a] * e[b] for a, b in q.arrows)
    return total


def ext_from_hom(hom, euler):
    """dim Ext^1 = hom - <d, e>; a negative value breaks heredity and raises."""
    value = hom - euler
    if value < 0:
        raise RuntimeError("negative Ext dimension: invariant violation")
    return value


def _arrow_layout(q):
    """Each arrow of q as a (source, target) pair of vertex positions."""
    index = {v: i for i, v in enumerate(q.vertices)}
    return [(index[a], index[b]) for a, b in q.arrows]


def _hom_data(q, r):
    """Per-representation input of the intertwiner rows, in q's vertex/arrow order.

    Returns the dims and, per arrow, the columns of its matrix and its negated
    rows: the slices that one row of the system copies.  r must live over q
    and have int matrix entries, so each system goes straight to the integer
    elimination.
    """
    if r.quiver != q:
        raise ValueError("representations live over different quivers")
    for ar in q.arrows:
        for row in r.maps[ar]:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entry {x!r} is not an int")
    cols = []
    negs = []
    for a, b in q.arrows:
        mat = r.maps[(a, b)]
        cols.append([tuple(row[c] for row in mat) for c in range(r.dims[a])])
        negs.append([[-x for x in row] for row in mat])
    return tuple(r.dims[v] for v in q.vertices), cols, negs


def _hom_rows(arrows, m, n):
    """Unknown count and nonzero rows of the system f_b M_ab = N_ab f_a.

    The unknowns are the entries of f_v (n_v x m_v, row-major) for every
    vertex v, in vertex order; m and n come from _hom_data.
    """
    dm, cols_m, _ = m
    dn, _, negs_n = n
    offsets = []
    total = 0
    for d, e in zip(dm, dn):
        offsets.append(total)
        total += d * e
    rows = []
    if total == 0:
        return total, rows
    for (a, b), cols, negs in zip(arrows, cols_m, negs_n):
        da, db, ea = dm[a], dm[b], dn[a]
        oa = offsets[a]
        for r in range(dn[b]):
            start = offsets[b] + r * db
            neg = negs[r]
            for c in range(da):
                row = [0] * total
                row[start : start + db] = cols[c]
                row[oa + c : oa + ea * da : da] = neg
                if any(row):
                    rows.append(row)
    return total, rows


def hom_dim(m, n):
    """dim Hom(m, n): nullity of the intertwiner system f_b M_ab = N_ab f_a."""
    q = m.quiver
    total, rows = _hom_rows(_arrow_layout(q), _hom_data(q, m), _hom_data(q, n))
    return len(linalg.nullspace(rows, total))


def hom_table(q, reps):
    """dim Hom(reps[i], reps[j]) for every pair, as a tuple of row tuples.

    Every representation must live over q and have int matrix entries.
    """
    arrows = _arrow_layout(q)
    data = [_hom_data(q, r) for r in reps]
    out = []
    for m in data:
        row = []
        for n in data:
            total, rows = _hom_rows(arrows, m, n)
            row.append(len(linalg.nullspace(rows, total)))
        out.append(tuple(row))
    return tuple(out)


def reflection_plus(q, x, m):
    """Reflection functor at a sink: new space at x is ker(sum of incoming maps)."""
    if not q.is_sink(x):
        raise ValueError(f"{x!r} is not a sink")
    return _reflection_plus(q, reflect(q, x), x, m)


def _reflection_plus(q, q2, x, m):
    """reflection_plus onto q2 = reflect(q, x), for a sink x the caller checked."""
    ins = sorted((a for a, b in q.arrows if b == x), key=vertex_key)
    widths = [m.dims[y] for y in ins]
    total = sum(widths)
    rows = []
    for r in range(m.dims[x]):
        row = []
        for y in ins:
            row.extend(m.maps[(y, x)][r])
        rows.append(row)
    kernel = linalg.nullspace(rows, total)
    k = len(kernel)
    dims2 = dict(m.dims)
    dims2[x] = k
    maps2 = {ar: m.maps[ar] for ar in q.arrows if x not in ar}
    off = 0
    for y, dy in zip(ins, widths):
        maps2[(x, y)] = tuple(
            tuple(kernel[c][off + r] for c in range(k)) for r in range(dy)
        )
        off += dy
    return Rep(q2, dims2, maps2)


def reflection_minus(q, x, m):
    """Reflection functor at a source: new space at x is coker(sum of outgoing maps).

    R-_x = D R+_x D, since a source x of q is a sink of q^op.
    """
    if not q.is_source(x):
        raise ValueError(f"{x!r} is not a source")
    dual = _dual(q, m)
    image = reflection_plus(dual.quiver, x, dual)
    return _dual(image.quiver, image)


def _dual(q, m):
    """D m = Hom_k(m, k) over q^op: the same dims, every matrix transposed."""
    maps = {
        (b, a): tuple(tuple(row[c] for row in m.maps[(a, b)]) for c in range(m.dims[a]))
        for a, b in q.arrows
    }
    return Rep(opposite(q), dict(m.dims), maps)


def restrict(q, x, m):
    """Drop the data at a leaf vertex; exact componentwise."""
    small = delete_vertex(q, x)
    dims = {v: m.dims[v] for v in small.vertices}
    maps = {ar: m.maps[ar] for ar in small.arrows}
    return Rep(small, dims, maps)


def extend(q, x, n_rep):
    """Extend over a leaf: the new space copies the unique neighbour.

    For a source leaf this is the right-adjoint extension (projection shape);
    for a sink leaf the dual construction with injections.  With one neighbour
    both reduce to the identity structure map.
    """
    small = delete_vertex(q, x)
    if n_rep.quiver != small:
        raise ValueError("representation must live over the deleted quiver")
    incident = [ar for ar in q.arrows if x in ar]
    (a, b) = incident[0]
    y = b if a == x else a
    dims = dict(n_rep.dims)
    dims[x] = n_rep.dims[y]
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(dims[x])) for i in range(dims[x])
    )
    maps = dict(n_rep.maps)
    maps[(a, b)] = ident
    return Rep(q, dims, maps)


class Indec(namedtuple("Indec", "id rep dim model", defaults=(None,))):
    """Indecomposable with its canonical id and optional combinatorial model."""

    __slots__ = ()


def _transport(ref, goal, reps):
    """Push every representation along a sink-reflection walk from ref to goal."""
    seq = sink_reflection_sequence(ref, goal)
    cur = ref
    out = list(reps)
    for x in seq:
        nxt = reflect(cur, x)
        moved = []
        for r in out:
            if r.dims[x] == 1 and sum(r.dims.values()) == 1:
                moved.append(simple_rep(nxt, x))
            else:
                moved.append(_reflection_plus(cur, nxt, x, r))
        cur = nxt
        out = moved
    return out


@lru_cache(maxsize=None)
def indecomposables(q):
    """All indecomposables of an A- or D-type quiver, ids ordered by dim vector.

    Over the reference orientation the explicit models, read from
    `models.reference_data`, are instantiated and kept as tags (each
    representation shares its dims and maps with that memo; no function
    here changes a representation in place); any other orientation is
    reached by reflection functors along a shortest sink-reflection walk.
    """
    canon, mapping = canonical_form(q)
    kind, param = classify_tree(q)
    data = models.reference_data(models.family(kind), param)
    ref = data.quiver
    at_reference = q == ref
    tags = [x for x, _, _ in data.models]
    reps = [Rep(ref, dims, maps) for _, dims, maps in data.models]
    if canon != ref:
        reps = _transport(ref, canon, reps)
    if canon != q:
        inverse = {new: old for old, new in mapping.items()}
        reps = [_relabel(r, q, inverse) for r in reps]
    order = sorted(range(len(reps)), key=lambda i: reps[i].dim_tuple())
    out = []
    for new_id, i in enumerate(order):
        model = tags[i] if at_reference else None
        out.append(Indec(new_id, reps[i], dict(reps[i].dims), model))
    return tuple(out)


def _relabel(r, q, inverse):
    dims = {inverse[v]: d for v, d in r.dims.items()}
    maps = {}
    for a, b in r.quiver.arrows:
        maps[(inverse[a], inverse[b])] = r.maps[(a, b)]
    return Rep(q, dims, maps)


def projective_dim_vectors(q):
    """P(x) is supported on the vertices reachable from x (trees: multiplicity one)."""
    out = {}
    for x in q.vertices:
        reach = {x}
        stack = [x]
        while stack:
            v = stack.pop()
            for a, b in q.arrows:
                if a == v and b not in reach:
                    reach.add(b)
                    stack.append(b)
        out[x] = {v: 1 if v in reach else 0 for v in q.vertices}
    return out
