"""Combinatorial models for the indecomposables over the reference orientations.

Type A (path 1 -> 2 -> ... -> n): interval modules L(i,j) with 0 <= i < j <= n,
supported on vertices i+1..j.  Type D (stem 1 -> ... -> n-1 forking to n+/n-):
three families L(a,b), L+/-(a,n) and M(a,b), the last with a two-dimensional
stretch.  Alongside the dimension vectors and explicit matrices this module
carries the AR translate and the closed-interval criterion for two-sided
Ext vanishing; both act as an independent oracle against the Ext table.
FAMILIES holds these functions once per kind, with the rank rules and the
closed-form counts, so no caller branches on A/D.  `reference_data` memoises,
per FAMILIES entry and builder parameter, what depends on nothing else: the
reference quiver, its model tags by dimension vector and its model
representations.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product
from math import comb

from .quiver import d_quiver, path_quiver


class AInterval(namedtuple("AInterval", "lo hi")):
    __slots__ = ()

    def render(self):
        return f"L({self.lo},{self.hi})"


class DIndec(namedtuple("DIndec", "kind a b")):
    """kind is "L", "L+", "L-" or "M"; b is the upper index for L/M and the
    fork parameter n for L+/-."""

    __slots__ = ()

    def render(self):
        return f"{self.kind}({self.a},{self.b})"


def compatible(p, q):
    """Closed integer intervals are compatible when disjoint or nested."""
    (i, j), (k, l) = p, q
    if j < k or l < i:
        return True
    return (k <= i and j <= l) or (i <= k and l <= j)


# ---------------------------------------------------------------- type A

def a_indecs(n):
    return [AInterval(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def a_dim(x, n):
    """Dimension vector of L(i,j): the indicator of vertices i+1..j."""
    return {str(v): 1 if x.lo < v <= x.hi else 0 for v in range(1, n + 1)}


def a_tau(x, n) -> AInterval | None:
    """AR translate: shift the interval up by one, zero on projectives."""
    if x.hi == n:
        return None
    return AInterval(x.lo + 1, x.hi + 1)


def a_ext_vanish(x, y):
    """Ext vanishes both ways iff the closed intervals are compatible."""
    return compatible((x.lo, x.hi), (y.lo, y.hi))


def a_hom_nonzero(x, y):
    """Nonzero Hom L(i,j) -> L(i',j') iff i' <= i < j' <= j (strict at i)."""
    return y.lo <= x.lo < y.hi <= x.hi


def a_counts(n):
    """Vertices (the Catalan number) and arrows of the tilting quiver of A_n."""
    return comb(2 * n, n) // (n + 1), comb(2 * n - 1, n + 1)


# ---------------------------------------------------------------- type D

def d_indecs(n):
    out = [DIndec("L", a, b) for a in range(n - 1) for b in range(a + 1, n)]
    out += [DIndec("L+", a, n) for a in range(n)]
    out += [DIndec("L-", a, n) for a in range(n)]
    out += [DIndec("M", a, b) for a in range(n - 1) for b in range(a + 1, n)]
    return out


def d_dim(x, n):
    dims = {str(v): 0 for v in range(1, n)}
    dims[f"{n}+"] = 0
    dims[f"{n}-"] = 0
    if x.kind == "L":
        for v in range(x.a + 1, x.b + 1):
            dims[str(v)] = 1
    elif x.kind in ("L+", "L-"):
        for v in range(x.a + 1, n):
            dims[str(v)] = 1
        dims[f"{n}{x.kind[1]}"] = 1
    else:
        for v in range(x.a + 1, x.b + 1):
            dims[str(v)] = 1
        for v in range(x.b + 1, n):
            dims[str(v)] = 2
        dims[f"{n}+"] = 1
        dims[f"{n}-"] = 1
    return dims


def d_tau(x, n) -> DIndec | None:
    """AR translate on model tags; zero exactly on projectives."""
    if x.kind == "L":
        if x.b < n - 1:
            return DIndec("L", x.a + 1, x.b + 1)
        return DIndec("M", 0, x.a + 1)
    if x.kind == "L+":
        return DIndec("L-", x.a + 1, n) if x.a < n - 1 else None
    if x.kind == "L-":
        return DIndec("L+", x.a + 1, n) if x.a < n - 1 else None
    if x.b < n - 1:
        return DIndec("M", x.a + 1, x.b + 1)
    return None


def d_ext_vanish(x, y, n):
    """Two-sided Ext vanishing via the seven-case closed-interval criterion."""
    kx, ky = x.kind, y.kind
    if kx == "L" and ky == "L":
        return compatible((x.a, x.b), (y.a, y.b))
    if kx == "L" and ky in ("L+", "L-"):
        return compatible((x.a, x.b), (y.a, n))
    if kx in ("L+", "L-") and ky == "L":
        return d_ext_vanish(y, x, n)
    if kx == "L" and ky == "M":
        return compatible((x.a, x.b), (y.a, n)) and compatible((x.a, x.b), (y.b, n))
    if kx == "M" and ky == "L":
        return d_ext_vanish(y, x, n)
    if kx == "M" and ky in ("L+", "L-"):
        return x.a <= y.a <= x.b
    if kx in ("L+", "L-") and ky == "M":
        return d_ext_vanish(y, x, n)
    if kx in ("L+", "L-") and ky in ("L+", "L-"):
        if kx == ky:
            return True
        return x.a == y.a
    # M against M: nested
    return (y.a <= x.a and x.b <= y.b) or (x.a <= y.a and y.b <= x.b)


def d_counts(m):
    """Vertices and arrows of the tilting quiver of D_m; D_3 agrees with A_3."""
    return (3 * m - 4) * comb(2 * m - 2, m - 1) // (2 * m), (3 * m - 4) * comb(2 * m - 4, m - 3)


def _zeros(r, c):
    return tuple(tuple(0 for _ in range(c)) for _ in range(r))


def a_matrices(x, n):
    """Structure maps of L(i,j) on the reference path: identities on the support."""
    dims = a_dim(x, n)
    maps = {}
    for i in range(1, n):
        a, b = str(i), str(i + 1)
        if dims[a] and dims[b]:
            maps[(a, b)] = ((1,),)
        else:
            maps[(a, b)] = _zeros(dims[b], dims[a])
    return maps


def d_matrices(x, n):
    """Explicit structure maps on the reference Q_n, one matrix per arrow."""
    dims = d_dim(x, n)
    maps = {}
    for i in range(1, n - 1):
        a, b = str(i), str(i + 1)
        da, db = dims[a], dims[b]
        if da == 0 or db == 0:
            maps[(a, b)] = _zeros(db, da)
        elif da == 1 and db == 1:
            maps[(a, b)] = ((1,),)
        elif da == 1 and db == 2:
            maps[(a, b)] = ((1,), (1,))
        else:
            maps[(a, b)] = ((1, 0), (0, 1))
    stem_end = str(n - 1)
    for tip, row2 in ((f"{n}+", (1, 0)), (f"{n}-", (0, 1))):
        da, db = dims[stem_end], dims[tip]
        if da == 0 or db == 0:
            maps[(stem_end, tip)] = _zeros(db, da)
        elif da == 2:
            maps[(stem_end, tip)] = (row2,)
        else:
            maps[(stem_end, tip)] = ((1,),)
    return maps


class Family(
    namedtuple("Family", "reference indecs dim matrices tau ext_vanish shift min_rank guard counts")
):
    """One Dynkin type.  `counts` takes the rank; the other functions take the
    builder parameter n = rank - shift (A_n is path_quiver(n), D_m is d_quiver(m - 1)).

    reference   (n, bits=None) -> the quiver, reference orientation by default
    indecs      n -> the model tags
    dim         (x, n) -> dimension vector, a dict over the vertex labels
    matrices    (x, n) -> structure maps over the reference orientation
    tau         (x, n) -> AR translate, None on projectives
    ext_vanish  (x, y, n) -> two-sided Ext vanishing
    shift       rank minus the builder parameter
    min_rank    the lowest rank of the type
    guard       the most vertices a tilting quiver is enumerated at
    counts      rank -> (vertices, arrows) of the tilting quiver
    """

    __slots__ = ()


FAMILIES = {
    "A": Family(path_quiver, a_indecs, a_dim, a_matrices, a_tau, lambda x, y, n: a_ext_vanish(x, y),
                shift=0, min_rank=1, guard=12, counts=a_counts),
    "D": Family(d_quiver, d_indecs, d_dim, d_matrices, d_tau, d_ext_vanish,
                shift=1, min_rank=3, guard=9, counts=d_counts),
}


# Entries `reference_data` keeps, the least recently read dropped first: one
# per (FAMILIES entry, builder parameter), and the rank guards allow 12 of
# type A and 7 of type D.
REFERENCE_MEMO = 32


class Reference:
    """What one Family entry gives at one builder parameter n, read through `reference_data`.

    `quiver` is the reference orientation.  `tag_by_dim` is the dict from
    each model's dimension vector, in the quiver's vertex order, to its tag,
    with the number of tags (two tags on one dimension vector leave fewer
    keys than tags).  `models` is one (tag, dims, matrices) triple per
    model, in `indecs` order.  Each of the two is built on its first read
    and kept (`functools.cached_property`); callers only read them.
    """

    def __init__(self, fam, n):
        self.fam = fam
        self.n = n
        self.quiver = fam.reference(n)

    @cached_property
    def tag_by_dim(self):
        fam, n, verts = self.fam, self.n, self.quiver.vertices
        tags = fam.indecs(n)
        by_dim = {}
        for x in tags:
            d = fam.dim(x, n)
            by_dim[tuple(d[v] for v in verts)] = x
        return by_dim, len(tags)

    @cached_property
    def models(self):
        fam, n = self.fam, self.n
        return tuple((x, fam.dim(x, n), fam.matrices(x, n)) for x in fam.indecs(n))


@lru_cache(maxsize=REFERENCE_MEMO)
def reference_data(fam, n):
    """The `Reference` of the Family entry `fam` at builder parameter n, built once.

    The memo is keyed on the entry itself, not on its type letter, so an
    entry put in FAMILIES in place of another never reads the other's data.
    """
    return Reference(fam, n)


def family(kind):
    if kind not in FAMILIES:
        raise ValueError(f"unknown kind {kind!r}")
    return FAMILIES[kind]


def builder_param(kind, rank):
    """The builder parameter of the type-`kind` tree with `rank` vertices; checks the rank."""
    fam = family(kind)
    if rank < fam.min_rank:
        raise ValueError(f"type {kind} needs rank >= {fam.min_rank}")
    return rank - fam.shift


def guard(kind, rank):
    """Raise unless a type-`kind` tree with `rank` vertices is within the rank guard of `kind`."""
    cap = family(kind).guard
    if rank > cap:
        raise ValueError(f"rank guard exceeded: type {kind} is capped at {cap} vertices")


def all_orientations(kind, n):
    """Yield (bits, quiver) over every orientation of the tree with builder parameter n."""
    fam = family(kind)
    for bits in product((True, False), repeat=n + fam.shift - 1):
        yield bits, fam.reference(n, bits)
