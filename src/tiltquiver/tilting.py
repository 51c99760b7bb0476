"""Tilting modules of type A/D quivers and the quiver they span.

The indecomposables are identified with their dimension vectors, the positive
roots, and their Hom/Ext dimensions are read off the Euler form; no
representation is built here.  A basic tilting module is recorded as the
strictly increasing tuple of ids of its indecomposable summands; over a
hereditary Dynkin algebra a set of ids of size #vertices with pairwise
two-sided Ext vanishing is exactly a tilting module.  Arrows of the tilting
quiver come from the exchange of a summand, and the whole graph is checked
to be the Hasse diagram of the order t <= u  iff  Ext^1(u, t) = 0 summandwise.
The projective module, whose summands are the ids with no Ext^1 to any
indecomposable, is the maximum of that order, so one walk along the arrows
from it finds the tilting modules and the arrows together
(`tilting_quiver`), and the cached walk serves each orbit of orientations
under the opposite and the diagram automorphism.  Their numbers alone need no
walk: the tilting modules are the #vertices-cliques of the Ext-compatibility
relation, and the arrows follow from them and the cliques one smaller, so
`transient_counts` counts both cliques from the table (`_count`).
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import eq, getitem, mul, sub

from . import models
from .quiver import classify_tree, positive_roots, quiver_to_json, twins

# Items (nodes, arrows, modules or degrees) per slice of a streamed export.
SLICE = 1024

# Down-set rows `_covers_certified` keeps at once, the least recently read
# dropped first.  A row has #nodes bits, so they hold at most 0.1 MB at A8,
# 1.1 MB at D9, 3.8 MB at A11 and 13 MB at A12, freed when the check returns.
DOWN_ROWS = 512

# The highest rank `closed_form_counts` accepts: its cost grows about
# quadratically with the rank (A100000 takes about 2 s on a 2-vCPU VM).
COUNTS_MAX_RANK = 100_000


class ExtTable:
    """Pairwise hom/ext dimensions over the indecomposables of one quiver.

    `hom` and `ext` hold one `bytes` row per id, a dimension per byte (every
    one is below _BIAS); `[i][j]` and iteration read ints, as from a tuple.
    """

    __slots__ = ("quiver", "dims", "models", "hom", "ext", "compat", "ext_zero", "id_by_dim")

    def __init__(self, quiver, dims, models, hom, ext, compat, ext_zero, id_by_dim):
        self.quiver = quiver
        self.dims = dims  # dimension vector per id: the positive roots, sorted
        self.models = models  # model tag per id at the reference orientation, None elsewhere
        self.hom = hom  # row per id, as bytes: hom[i][j] = dim Hom(i, j)
        self.ext = ext  # row per id, as bytes: ext[i][j] = dim Ext^1(i, j)
        self.compat = compat  # bitmask per id: two-sided ext vanishing
        self.ext_zero = ext_zero  # bitmask per id i: {j : ext[i][j] == 0}
        self.id_by_dim = id_by_dim

    def __len__(self):
        return len(self.dims)

    def labels(self):
        """Per id, its model tag rendered, or its dimension vector where it has none."""
        return [
            "(" + ",".join(map(str, d)) + ")" if m is None else m.render()
            for m, d in zip(self.models, self.dims)
        ]


@lru_cache(maxsize=None)
def ext_table(q):
    """Full hom/ext tables over the indecomposables of q, from the Euler form.

    Over a Dynkin quiver the dimension vectors of the indecomposables are the
    positive roots (Gabriel), so the ids are the sorted roots.  The AR quiver
    is directed, so at most one of Hom(M, N) and Ext^1(M, N) is non-zero, and
    <d_i, d_j> = hom - ext gives hom = max(<d_i, d_j>, 0) and
    ext = max(-<d_i, d_j>, 0).  Each root's row of Euler values comes from one
    packed big-int product (`_euler_table`) on `quiver.positive_roots`.  No
    representation is built: rep.hom_table on rep.indecomposables, which no
    product module imports, computes the same tables by linear algebra, and
    the tests compare the two.
    """
    return _euler_table(q, positive_roots(q))


# An Euler value e is stored as the byte _BIAS + e, so every |e| < _BIAS fits.
_BIAS = 128
_HOM = bytes(max(b - _BIAS, 0) for b in range(256))
_EXT = bytes(max(_BIAS - b, 0) for b in range(256))
_EXT_ZERO = bytes(b"01"[b >= _BIAS] for b in range(256))  # "1" where ext == 0
_ZERO = b"1".ljust(256, b"0")  # "1" where a dimension is 0


def _columns(flat, k):
    """The columns of the k-by-k matrix `flat`, stored by rows, as strided slices from the last row up."""
    return [flat[i - k :: -k] for i in range(k)]


def _zero_columns(table):
    """Per id j, the ids i with Ext^1(i, j) = 0: column j of `ext_zero`, its rows as "0"/"1" flags."""
    k = len(table)
    flags = "".join([format(e, "0%db" % k)[: -k - 1 : -1] for e in table.ext_zero])
    return [int(c, 2) for c in _columns(flags, k)]


def _euler_table(q, roots):
    """The `ext_table` of q on its positive roots `roots`.

    <d_i, d_j> = d_i . w_j with w_j[v] = d_j[v] - sum over arrows v->b of
    d_j[b].  Column v of the w_j is packed into one int, one byte per root j,
    so root i's whole row is the one product sum_v d_i[v] * w_packed[v], read
    back one byte per root with a bias of _BIAS; no Python loop runs per pair.
    `ext_zero` and its transpose are the rows and `_columns` of the flags.

    Field bound: <d_i, d_j> = sum_v d_i[v] d_j[v] - sum over arrows a->b of
    d_i[a] d_j[b], a difference of two non-negative sums.  With m[v] the
    largest v-coordinate of a root, every |<d_i, d_j>| <= B =
    max(sum_v m[v]**2, sum over arrows a->b of m[a] m[b]).  The packed sum is
    an exact int, so only each pair's final value must fit its byte.  The
    build raises unless B < _BIAS, before anything is packed, so no value
    carries into the next root's byte.  B depends on the tree alone: it is 12
    at A12 and 27 at D9 (the rank guards) and stays below _BIAS up to A127
    and D34.
    """
    dims = tuple(sorted(roots))
    k = len(dims)
    index = {v: p for p, v in enumerate(q.vertices)}
    layout = [(index[a], index[b]) for a, b in q.arrows]
    cols = list(zip(*dims))
    top = [max(c) for c in cols]
    if max(sum(map(mul, top, top)), sum(top[a] * top[b] for a, b in layout)) >= _BIAS:
        raise RuntimeError("Euler form value may not fit its byte: invariant violation")
    # column v of the d_j, then of the w_j, as the int sum_j x_j * 256**j
    d_packed = [int.from_bytes(bytes(c), "little") for c in cols]
    w_packed = d_packed[:]
    for a, b in layout:
        w_packed[a] -= d_packed[b]
    bias_row = int.from_bytes(bytes((_BIAS,)) * k, "little")
    rows = [(bias_row + sum(map(mul, d, w_packed))).to_bytes(k, "little") for d in dims]
    if bytes(map(getitem, rows, range(k))) != bytes((_BIAS + 1,)) * k:
        raise RuntimeError("indecomposable is not exceptional: invariant violation")
    hom = tuple(r.translate(_HOM) for r in rows)
    ext = tuple(r.translate(_EXT) for r in rows)
    zero = b"".join(rows).translate(_EXT_ZERO)  # row after row
    ext_zero = tuple(int(zero[i : i + k][::-1], 2) for i in range(0, k * k, k))
    transpose = map(int, _columns(zero, k), repeat(2))
    compat = tuple(a & b & ~(1 << i) for i, (a, b) in enumerate(zip(ext_zero, transpose)))
    id_by_dim = {d: i for i, d in enumerate(dims)}
    return ExtTable(q, dims, _model_tags(q, dims), hom, ext, compat, ext_zero, id_by_dim)


def _model_tags(q, dims):
    """Model tag per root of q at the reference orientation, all None elsewhere."""
    kind, param = classify_tree(q)
    ref = models.reference_data(models.family(kind), param)
    if q != ref.quiver:
        return (None,) * len(dims)
    by_dim, n_tags = ref.tag_by_dim()
    if len(by_dim) != n_tags or by_dim.keys() != set(dims):
        raise RuntimeError(
            "model dimension vectors are not the positive roots: invariant violation"
        )
    return tuple(by_dim[d] for d in dims)


def module_dim(table, t):
    """Dimension vector of the whole module (sum over summands)."""
    verts = table.quiver.vertices
    total = [0] * len(verts)
    for s in t:
        for i, d in enumerate(table.dims[s]):
            total[i] += d
    return dict(zip(verts, total))


def is_tilting(table, ids):
    ids = tuple(ids)
    mask = sum(1 << s for s in set(ids))
    if len(ids) != len(table.quiver.vertices) or mask.bit_count() != len(ids):
        return False
    return all(mask & ~table.compat[s] == 1 << s for s in ids)


def _guard(kind, rank):
    cap = models.family(kind).guard
    if rank > cap:
        raise ValueError(f"rank guard exceeded: type {kind} is capped at {cap} vertices")


@lru_cache(maxsize=None)
def enumerate_tilting(q):
    """All basic tilting modules, lexicographically sorted: the nodes of `tilting_quiver`."""
    return tilting_quiver(q).nodes


def _has(nodes, n_ids):
    """Per id j, the bitset of nodes with summand j; bit v stands for nodes[v]."""
    # set bit by bit in bytes, since or-ing 1 << v into a #nodes-bit int per
    # summand is quadratic in #nodes
    buf = [bytearray((len(nodes) + 7) >> 3) for _ in range(n_ids)]
    for v, t in enumerate(nodes):
        byte, bit = v >> 3, 1 << (v & 7)
        for j in t:
            buf[j][byte] |= bit
    return [int.from_bytes(b, "little") for b in buf]


def _below(rows, has, k):
    """Per id i, the bitset of the k nodes of `has` whose summands all lie in rows[i].

    A node has a summand outside rows[i] exactly when it is in has[j] for
    some id j outside rows[i], so each bitset is the complement of an OR
    over those has[j].
    """
    all_ids = (1 << len(has)) - 1
    everyone = (1 << k) - 1
    below = []
    for r in rows:
        off = 0  # nodes with a summand outside r
        rest = all_ids & ~r
        while rest:
            low = rest & -rest
            off |= has[low.bit_length() - 1]
            rest ^= low
        below.append(everyone ^ off)
    return below


def _row(below, t):
    """AND below[i] over the summands i of t: the nodes with every summand in each row of t."""
    row = -1
    for i in t:
        row &= below[i]
    return row


def _order_rows(rows, has, nodes):
    """Yield per node u the bitset of nodes whose summands all lie in AND rows[i], i in u."""
    below = _below(rows, has, len(nodes))
    for u in nodes:
        yield _row(below, u)


def order_bitsets(table, nodes):
    """Down- and up-set bitsets of <= on `nodes`, as two iterators over the nodes.

    Bit v stands for nodes[v].  t <= u iff every summand i of u has
    mask(t) inside ext_zero[i], so down[u] = {t : t <= u} is the AND, over
    the summands i of u, of below[i]: the nodes whose summands all lie in
    ext_zero[i].  up[u] = {w : u <= w} is the same AND over the ext_zero
    columns at the summands of u (`_zero_columns`, as the walk reads them).
    The below bitsets are built once per id, #ids bitsets of #nodes bits,
    from one shared set of per-id summand bitsets, and each row, rank ANDs
    of them, only when asked for; no row is kept.
    """
    has = _has(nodes, len(table))
    return _order_rows(table.ext_zero, has, nodes), _order_rows(_zero_columns(table), has, nodes)


class Arrows:
    """Read-only view of the arrows stored as `heads` with row lengths `out_deg`.

    Iterating yields the (tail, head) pairs in sorted order, built one at a
    time; no pair is stored.
    """

    __slots__ = ("heads", "out_deg")

    def __init__(self, heads, out_deg):
        self.heads = heads
        self.out_deg = out_deg

    def __len__(self):
        return len(self.heads)

    def __iter__(self):
        return zip(self.tails(), self.heads)

    def tails(self):
        """The tail of each arrow, in the order of `heads`."""
        return chain.from_iterable(map(repeat, range(len(self.out_deg)), self.out_deg))


class Nodes:
    """Read-only view of the tilting modules stored as `summands`, `width` ids each.

    It reads like the tuple of the modules' summand tuples: `len`, int
    indexing (negative included), slicing (a tuple of tuples), iteration and
    `==` against such a tuple.  Each tuple is built when it is read; none is
    stored.
    """

    __slots__ = ("summands", "width")

    def __init__(self, summands, width):
        self.summands = summands
        self.width = width

    def __len__(self):
        return len(self.summands) // self.width

    def __getitem__(self, i):
        w = self.width
        at = range(0, len(self.summands), w)[i]  # IndexError past either end
        if isinstance(at, range):
            return tuple(tuple(self.summands[a : a + w]) for a in at)
        return tuple(self.summands[at : at + w])

    def __iter__(self):
        return zip(*[iter(self.summands)] * self.width)

    def __eq__(self, other):
        if not isinstance(other, (tuple, Nodes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class TiltingQuiver:
    """Tilting modules as nodes, exchange arrows pointing larger -> smaller.

    `table` is the Ext table the quiver was walked from, and `quiver` is its
    quiver; the exports and `degree_stats` read labels and dimension vectors
    from it, so none of them looks a table up again.  The nodes are stored
    once, as one byte string: `summands` holds node 0's sorted summand ids,
    then node 1's, and so on, #vertices ids per node (an id is below 256 up
    to the rank guards).  `nodes` views them as the sorted tuple of the
    modules' summand tuples.  The arrows are stored once, in compressed
    sparse row form: `heads` holds the heads of node 0's arrows in increasing
    order, then node 1's, and so on, with `out_deg[u]` the length of node u's
    run.  `arrows` views them as sorted (tail, head) pairs.  `delta[u]` is
    node u's degree, its arrows in and out, as the walk counted it; node u
    is a source exactly when `delta[u] == out_deg[u]`.  `out_deg` and
    `delta` are byte strings, one byte per node, since a degree is at most
    the vertex count.  Two quivers are equal when they share one table
    object and store the same nodes, arrows and degrees.
    """

    __slots__ = ("table", "summands", "heads", "out_deg", "delta")

    def __init__(self, table, summands, heads, out_deg, delta):
        self.table = table
        self.summands = summands
        self.heads = heads  # array('I')
        self.out_deg = out_deg
        self.delta = delta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.table, self.summands, self.heads, self.out_deg, self.delta) == (
            other.table, other.summands, other.heads, other.out_deg, other.delta
        )

    @property
    def quiver(self):
        return self.table.quiver

    @property
    def nodes(self):
        return Nodes(self.summands, len(self.quiver.vertices))

    @property
    def arrows(self):
        return Arrows(self.heads, self.out_deg)


@lru_cache(maxsize=None)
def tilting_quiver(q):
    """Build the exchange quiver on all tilting modules of q in one walk.

    The projective module is the maximum of the order, and the arrows are
    its covers (Happel-Unger, "On a partial order of tilting modules", 2005;
    Riedtmann-Schofield, 1991), so every tilting module lies below it along
    arrows, and a walk from the projective module that follows arrows only
    reaches every tilting module and records each arrow once, at its tail.
    The walk starts at the ids whose `ext_zero` row is full: an
    indecomposable P has Ext^1(P, -) = 0 exactly when it is projective, and
    the walk raises unless it finds #vertices of them.  Nodes are keyed by
    their summand masks.  An almost complete tilting
    module has one or two complements, so the neighbours of a node t are the
    ids outside t that are Ext-incompatible with exactly one summand x of t,
    each exchanged against that x.  One bit-sliced counter over the summands
    finds them: with inc[j] the ids incompatible with j (j included), `ones`
    collects the ids hit at least once and `twos` those hit at least twice.
    `ones` must be every id, since an id compatible with all of t would make
    a rigid module with more summands than vertices, and no summand x may
    clash with two candidates, since t minus x would have three complements;
    each candidate clashes with one summand, so that holds exactly when as
    many summands clash with a candidate as there are candidates.
    Every node runs both checks on all its candidates.  The exchange of x
    for y is an arrow out of t when Ext^1(y, x) != 0, so with
    up[x] = {y : Ext^1(y, x) != 0} one AND per summand tells an out-arrow
    from an in-arrow.  A pair with Ext both ways is rejected before the
    walk.  Only out-arrows are followed and recorded, and a node's
    candidate count is its degree, so the degrees sum to twice the arrows
    exactly when no exchange of a reached node leads outside the walk or
    goes unoriented; otherwise the walk raises, instead of returning part of
    the quiver.  Each node's summand ids are kept sorted, as bytes; the
    nodes are then sorted by them and joined into one byte string
    (`TiltingQuiver.summands`), and each node's run of heads is renumbered,
    sorted and appended to one flat array (`TiltingQuiver.heads`).

    The orientations in one orbit {Q, Q^op, aQ, aQ^op} share one walk, with
    a the diagram automorphism (`quiver.twins` lists them).  The duality
    D = Hom_k(-, k) takes mod kQ to mod kQ^op, keeps dimension vectors and
    gives Ext^1_Q(U, T) = Ext^1_{Q^op}(DT, DU).  Both quivers have the same
    underlying tree, so the same positive roots, and ids are the sorted
    roots: D maps each indecomposable to the one with its id, and each
    tilting module to the one with the same summand ids.  So Tilt(Q^op) has
    the nodes and degrees of Tilt(Q), with the order, and so every arrow,
    reversed.  The automorphism moves each representation along a, so it
    maps the roots of Q onto themselves by a permutation of their
    coordinates, keeps Ext, and maps Tilt(aQ) onto Tilt(Q) by the
    permutation of ids it induces.  So a miss is derived with no walk
    (`_derived`) from the quiver of the first of Q^op, aQ and aQ^op that the
    cache already holds, and walked only when it holds none.  The one fact a
    walk over q's own table would check beyond the twin's walk is that the
    table is the twin's, transposed and/or permuted, and the derivation
    raises unless it is.  `__wrapped__` builds q's quiver the same way but
    neither reads nor fills the cache.
    """
    tq = _build(q)
    _held[q] = tq
    return tq


def _build(q):
    """The quiver of q, derived from a held twin or else walked; nothing is cached."""
    _guard(classify_tree(q)[0], len(q.vertices))
    table = ext_table(q)
    for twin, reverse, perm in twins(q):
        held = _held.get(twin)
        if held is not None:
            return _derived(table, held, reverse, perm)
    return _exchange_walk(table)


# Per quiver, the quiver the cache holds for it: only a cache miss registers
# one, so a `__wrapped__` build, which the cache never returns, is no twin.
# The cache holds every quiver here until `cache_clear` empties both.
_held = {}
tilting_quiver.__wrapped__ = _build
_clear_cache = tilting_quiver.cache_clear


def _clear():
    """Clear the cache and cache statistics, and forget every twin."""
    _clear_cache()
    _held.clear()


tilting_quiver.cache_clear = _clear


def _derived(table, twin, reverse, perm):
    """The quiver of `table` from `twin`, the quiver of an orientation in its orbit.

    `reverse` and `perm` are those `quiver.twins` yields with the twin's
    orientation.  The twin's id j, of root e, stands for the id s[j] of
    table's root d with d[p] = e[perm[p]], or for j itself when `perm` is
    None.  Reversed, each node's out-degree is its in-degree in the twin,
    and the heads are the twin's arrows transposed: one pass over them in
    tail order fills each head's row in increasing order.  Without a
    permutation the nodes and degrees are the twin's own objects; with one,
    each node's summands are mapped by s in one `bytes.translate`, sorted
    again, and finished as a walk's are (`_finish`).
    """
    ext = table.ext
    if perm is None:
        s, image, which = range(len(ext)), ext, "transpose of the opposite"
    else:
        ids = table.id_by_dim
        s = [ids.get(tuple(map(e.__getitem__, perm))) for e in twin.table.dims]
        image = None if None in s else tuple(bytes(map(ext[i].__getitem__, s)) for i in s)
        which = "image of the automorphic"
    theirs = twin.table.ext
    want = tuple(c[::-1] for c in _columns(b"".join(theirs), len(theirs))) if reverse else theirs
    if len(s) != len(ext) or image != want:
        raise RuntimeError(f"Ext table is not the {which} quiver's: invariant violation")
    heads, out_deg = twin.heads, twin.out_deg
    if reverse:
        out_deg = bytes(map(sub, twin.delta, out_deg))
        at = array("I", accumulate(out_deg, initial=0))  # next free slot per row
        heads = array("I", bytes(4 * len(twin.heads)))
        for t, h in twin.arrows:
            heads[at[h]] = t
            at[h] += 1
    if perm is None:
        return TiltingQuiver(table, twin.summands, heads, out_deg, twin.delta)
    flat = twin.summands.translate(bytes(s).ljust(256, b"\0"))
    w = len(table.quiver.vertices)
    summands = [bytes(sorted(flat[a : a + w])) for a in range(0, len(flat), w)]
    return _finish(table, summands, heads, out_deg, twin.delta)


def transient_quiver(q):
    """`tilting_quiver(q)` built without reading or filling any cache.

    `enumerate` and `graph` build their quiver here.  Its roots and Ext
    table are built for this call alone and the table is kept as
    `tq.table`, so nothing of q outlives the quiver returned: a command
    leaves every per-orientation cache (`ext_table`, `tilting_quiver`,
    `enumerate_tilting`, `quiver.positive_roots`) as it found it.  The table's
    model tags read `models.reference_data`, and its quiver
    `quiver.vertex_key`; those bounded memos hold no orientation's data.
    It never derives a quiver from another orientation's, so each call
    walks once.
    """
    return _exchange_walk(_transient_table(q))


def transient_counts(q):
    """The numbers of vertices and arrows of `tilting_quiver(q)`, as a pair.

    Like `transient_quiver`, it reads and fills no per-orientation cache,
    but it neither walks nor builds a quiver: both numbers are counted from
    the Ext table's `compat` rows (`_count`).  `reflect-scan`, `counts` and
    verify's closed-form checks count here, a scan holding one orientation's
    data at a time; `reflect-scan` reads the same `quiver.twins` as a cache
    miss does, and copies the counts of the first twin it has already
    counted instead of calling here.
    """
    return _count(_transient_table(q))


def _transient_table(q):
    """The Ext table of q, with its roots, built for one call and cached nowhere."""
    _guard(classify_tree(q)[0], len(q.vertices))
    return _euler_table(q, positive_roots.__wrapped__(q))


def _count(table):
    """The numbers of tilting modules and of exchange arrows over `table`, as a pair.

    Over a hereditary algebra every rigid set of #vertices = n
    indecomposables is a tilting module (Bongartz 1981): the V n-cliques of
    `compat`.  Each of the C (n - 1)-cliques has two complements when it is
    sincere and one when it is not (Happel-Unger 1989), and it is an arrow
    exactly when it has two (Happel-Unger, "On a partial order of tilting
    modules", 2005).  A rigid set among the ids i with dims[i][v] == 0 is
    rigid over k(Q - v), so it has at most n - 1 summands and misses no
    other vertex.  With N_v the (n - 1)-cliques among those ids, counting
    each tilting module's n almost complete summands gives
    n * V = 2C - sum N_v, and arrows = C - sum N_v.

    F(cand) is one packed int whose field j, W = #ids bits wide, holds the
    number of pairwise compatible j-subsets of the id mask `cand`.  With v
    the highest id of cand, F(cand) = F(cand - v) + (F((cand - v) & compat[v])
    << W), and F(0) = 1.  A count of j-subsets of W ids is below 2**W, so no
    field carries into the next.  `_cliques` computes F by that recursion,
    memoised on the candidate masks, one memo for the full mask and the n
    masks of the N_v.  It is a module-level function that takes the memo as
    an argument, so no closure holds the memo, nothing it holds is a
    reference cycle and all of it is freed on return.  Each call drops the
    highest id of its mask, so the recursion nests at most #ids levels below
    the first call: 78 at A12 and 72 at D9 (the rank guards), against
    Python's default limit of 1000.  At the reference orientation the memo
    holds 6,143 entries at A12 and 4,877 at D9, of which the n masks add 11
    and 8 (22,530 and 10,367 for the full mask alone, dropping the lowest
    id).  It raises on a rigid set with more summands than its vertices, and
    unless n * V = 2C - sum N_v.
    """
    n = len(table.quiver.vertices)
    k = len(table)
    field = (1 << k) - 1
    memo = {0: 1}
    total = _cliques(field, table.compat, k, memo)
    nodes = total >> n * k & field
    almost = arrows = total >> (n - 1) * k & field
    past = total >> (n + 1) * k  # cliques of more ids than vertices, of Q or of a Q - v
    for col in zip(*table.dims):
        # col is column v of dims; its flags, last id first, mask the ids i with dims[i][v] == 0
        f = _cliques(int(bytes(col[::-1]).translate(_ZERO), 2), table.compat, k, memo)
        past |= f >> n * k
        arrows -= f >> (n - 1) * k
    if past:
        raise RuntimeError(
            "rigid set with more summands than vertices: invariant violation"
        )
    if n * nodes != almost + arrows:
        raise RuntimeError(
            "almost complete module without one or two complements: invariant violation"
        )
    return nodes, arrows


def _cliques(cand, compat, width, memo):
    """F(cand) of `_count`, fields `width` bits wide, read from `memo` or added to it.

    It drops the highest id of `cand` and recurses on the rest and on the
    rest's ids compatible with it.
    """
    f = memo.get(cand)
    if f is None:
        top = cand.bit_length() - 1
        rest = cand ^ (1 << top)
        inner = rest & compat[top]
        f = memo[cand] = _cliques(rest, compat, width, memo) + (
            _cliques(inner, compat, width, memo) << width
        )
    return f


def _exchange_walk(table):
    """The walk of `tilting_quiver` over `table`, the Ext table of its quiver, finished.

    The walk's index of nodes dies when `_walk` returns, so the flat stores
    `_finish` builds reuse its memory instead of raising the peak.
    """
    return _finish(table, *_walk(table))


def _walk(table):
    """Walk the exchange quiver over `table` and return its raw stores.

    They are `(summands, arcs, out_deg, deg)`, all in walk order, the order
    `_finish` reads: `summands` holds each node's sorted summand ids as
    bytes, `arcs` the heads of node 0's arrows, then node 1's, and so on, by
    position in `summands`, `out_deg` each node's number of them, and `deg`
    each node's degree.  The walk raises instead of returning part of a
    quiver.  It reads `compat` and `ext_zero`, and no row of `hom` or `ext`.
    """
    q = table.quiver
    k = len(table)
    full = (1 << k) - 1
    inc = [full ^ c for c in table.compat]  # compat is symmetric
    bit = [1 << i for i in range(k)]
    # up[x]: the ids y with Ext^1(y, x) != 0, outside column x of ext_zero; the exchange
    # of x for y is an arrow out of the module iff y is in up[x], unoriented if also outside row x
    up = [full ^ c for c in _zero_columns(table)]
    if any(u & ~z for u, z in zip(up, table.ext_zero)):
        raise RuntimeError("exchange pair is not oriented by a unique Ext")
    # the projectives are the ids with no Ext^1 to any indecomposable
    start = bytes(i for i, row in enumerate(table.ext_zero) if row == full)
    if len(start) != len(q.vertices):
        raise RuntimeError(
            f"Ext table has {len(start)} projectives for {len(q.vertices)} vertices"
        )
    # per node in walk order, its sorted summand ids as bytes
    summands = [start]
    byte = [bytes((i,)) for i in range(k)]
    masks = [sum(bit[s] for s in start)]
    index = {masks[0]: 0}
    arcs = array("I")  # heads of the arrows, in walk order of their tails
    out_deg = array("B")
    deg = array("B")
    for ti, ids in enumerate(summands):  # summands grows as the walk finds nodes
        m = masks[ti]
        ones = twos = 0
        for x in ids:
            c = inc[x]
            twos |= ones & c
            ones |= c
        if ones != full:
            raise RuntimeError(
                "more than two completions of an almost complete module"
            )
        cand = ones & ~(twos | m)
        d = cand.bit_count()
        deg.append(d)
        before = len(arcs)
        shares = 0
        for x in ids:
            yb = cand & inc[x]  # the complement of t without x other than x, if any
            if yb:
                shares += 1
            if yb & up[x]:
                n = m ^ bit[x] ^ yb
                u = index.get(n)
                if u is None:
                    u = index[n] = len(masks)
                    masks.append(n)
                    # y's position is the number of ids of n below it
                    rest = ids.replace(byte[x], b"")
                    at = (n & (yb - 1)).bit_count()
                    summands.append(rest[:at] + byte[yb.bit_length() - 1] + rest[at:])
                arcs.append(u)
        # the shares cand & inc[x] split cand, so each is one id or none
        # exactly when d of them are nonzero; a share of two ids may have
        # added a node above, but the walk raises before reaching it
        if shares != d:
            raise RuntimeError(
                "more than two completions of an almost complete module"
            )
        out_deg.append(len(arcs) - before)
    # Every pair is recorded at its tail alone, so the degree sum counts each
    # recorded arrow twice, and anything more is an exchange the walk could
    # not orient or an in-arrow from a module it never reached.
    if sum(deg) != 2 * len(arcs):
        raise RuntimeError(
            "walk along arrows from the projective module misses an exchange"
        )
    return summands, arcs, out_deg, deg


def _finish(table, summands, arcs, out_deg, deg):
    """The quiver of `table` on the nodes `summands`, with their arrows in `arcs`.

    The four stores are laid out as `_walk` returns them.  The
    nodes are sorted by their summands and joined into one byte string, each
    run of heads is renumbered and sorted, and the degrees follow the nodes,
    one byte each.
    `summands` is emptied once joined, so that the flat stores reuse the
    memory of its bytes, also when the caller still holds the list.
    """
    order = sorted(range(len(summands)), key=summands.__getitem__)
    nodes = b"".join(map(summands.__getitem__, order))
    summands.clear()
    new = array("I", bytes(4 * len(order)))
    for pos, old in enumerate(order):
        new[old] = pos
    off = array("I", accumulate(out_deg, initial=0))
    heads = array("I")
    for old in order:
        heads.extend(sorted(map(new.__getitem__, arcs[off[old] : off[old + 1]])))
    return TiltingQuiver(
        table,
        nodes,
        heads,
        bytes(map(out_deg.__getitem__, order)),
        bytes(map(deg.__getitem__, order)),
    )


class HasseReport(namedtuple("HasseReport", "ok missing extra", defaults=((), ()))):
    """Whether the arrows are the covers, with the (larger, smaller) pairs that are not."""

    __slots__ = ()


def _covers_certified(table, tq, off):
    """True when <= is a partial order on the nodes and the arrows are its covers.

    down[p] = {t : t <= p} is `_row` of the below bitsets at the summands of
    p, as in `order_bitsets`.  Every node p must pass three local tests on
    down[p] and the down-sets of its heads c, `tq.heads[off[p] : off[p + 1]]`
    with the run offsets `off` that `hasse_check` validated:

    (R) p is in down[p];
    (U) the union of the down[c] is down[p] minus p;
    (M) no head lies in the down-sets of two heads (a head listed twice
        lies in its own down-set twice).

    Proof.  By (R) and (U) each arrow p -> c has down[c] inside down[p]
    without p, so down-set sizes fall strictly along arrows and the arrows
    have no cycle.  By induction on |down[p]|, down[p] is p together with
    the union of the heads' down-sets, each the set reached from its head,
    so down[p] is the set reached from p.  So t <= p iff t is reached from
    p: <= is reflexive and transitive, and antisymmetric since no cycle
    exists, a partial order.  A cover p > t lies in some down[c], so
    t <= c < p and t = c: every cover is an arrow.  An arrow p -> c is not
    a cover iff c < t < p for some t, and t then lies in down[c'] for a head
    c' != c, so iff c lies in a second head's down-set, which (M) rules
    out.  So the arrows are exactly the covers, each listed once.

    The DOWN_ROWS down-sets most recently read are kept, so a head's is
    mostly read back, not rebuilt: in the lexicographic node order most
    arrows end a few hundred nodes from their tail.  Nothing else is kept,
    and the rows are freed on return.  A head outside the nodes fails.
    """
    nodes = tq.nodes
    k = len(nodes)
    heads = tq.heads
    if heads and max(heads) >= k:
        return False
    w = nodes.width
    flat = tq.summands
    below = _below(table.ext_zero, _has(nodes, len(table)), k)

    @lru_cache(maxsize=DOWN_ROWS)
    def down(u):
        return _row(below, flat[u * w : u * w + w])

    for p in range(k):
        down_p = down(p)
        if not down_p >> p & 1:
            return False
        row = heads[off[p] : off[p + 1]]
        ones = twos = 0
        for down_c in map(down, row):
            twos |= ones & down_c
            ones |= down_c
        if ones != down_p ^ (1 << p) or any(twos >> c & 1 for c in row):
            return False
    return True


def hasse_check(table, tq):
    """Arrows must equal the covers of <=, pointing from larger to smaller.

    The order comes from `table.ext_zero` only, never from the arrows.  A
    passing quiver is decided by the local certificate of
    `_covers_certified`: every node's down-set is the union of its heads'
    down-sets plus itself, and no head lies below another head; it keeps at
    most DOWN_ROWS down-set rows, freed on return.  The rest runs only when
    the certificate fails, to say why.  The down- and up-set bitsets of
    `order_bitsets` give antisymmetry in one AND per node; the covers of
    each node are then peeled off its strict down-set along a linear
    extension, one big-int step per cover.  The peel stores no row: each
    down-set it needs, of the node and of each cover found, is rebuilt from
    the per-id below bitsets, laid out in linear-extension positions, and
    each node's covers are compared with its own run of `tq.heads`.  Its
    memory is #ids bitsets of #nodes bits, not #nodes rows of #nodes bits,
    nor a set of all the covers.  `missing` and `extra` hold (larger,
    smaller) pairs of node indices, a head outside the nodes included, and
    `extra` holds a pair once more for each repeat of its arrow; when
    antisymmetry fails, `extra` holds the first pair (u, t) with t <= u <= t
    instead.
    """
    if table.quiver != tq.quiver:
        raise ValueError("Ext table and tilting quiver belong to different quivers")
    nodes = tq.nodes
    k = len(nodes)
    heads = tq.heads
    off = array("I", accumulate(tq.out_deg, initial=0))  # u's heads: heads[off[u]:off[u + 1]]
    if len(off) != k + 1 or off[-1] != len(heads):
        raise ValueError("arrow rows do not match the nodes")
    if _covers_certified(table, tq, off):
        return HasseReport(True)
    size = []  # only the down-set sizes outlive this loop
    for u, (down_u, up_u) in enumerate(zip(*order_bitsets(table, nodes))):
        if not down_u >> u & 1:
            raise RuntimeError(f"node {u} is not <= itself: invariant violation")
        both = (down_u & up_u) ^ (1 << u)
        if both:
            return HasseReport(False, extra=((u, (both & -both).bit_length() - 1),))
        size.append(down_u.bit_count())
    # In a partial order t < u makes down[t] a proper subset of down[u], so
    # sorting by down-set size gives a linear extension.  Positions in it
    # exist only inside this function.
    order = sorted(range(k), key=size.__getitem__)
    del size
    w = nodes.width
    flat = tq.summands
    # the summands again, laid out by position
    placed = b"".join([flat[u * w : u * w + w] for u in order])
    below = _below(table.ext_zero, _has(Nodes(placed, w), len(table)), k)
    missing, extra = [], []
    for p in range(k):
        down_p = _row(below, placed[p * w : p * w + w])
        cand = down_p ^ (1 << p)
        covers = set()
        while cand:
            # The top position left is maximal in cand: everything above it
            # below p was peeled off with the down-set of an earlier cover.
            c = cand.bit_length() - 1
            down_c = _row(below, placed[c * w : c * w + w])
            # down[c] inside down[p] for every peeled c, with antisymmetry,
            # makes <= transitive, which the peel relies on.  Only ANDs and
            # XORs of non-negative ints here: a complement would cost a
            # two's-complement copy of a #nodes-bit int per cover.
            inside = down_c & down_p
            if inside != down_c:
                s = order[(down_c ^ inside).bit_length() - 1]
                raise RuntimeError(
                    f"<= is not transitive: {s} <= {order[c]} <= {order[p]} "
                    f"but not {s} <= {order[p]}: invariant violation"
                )
            covers.add(order[c])
            cand ^= cand & down_c
        u = order[p]
        row = heads[off[u] : off[u + 1]]
        hs = set(row)
        if covers != hs:
            missing.extend((u, c) for c in covers - hs)
            extra.extend((u, b) for b in hs - covers)
        if len(hs) != len(row):
            extra.extend((u, b) for b in hs for _ in range(row.count(b) - 1))
    missing.sort()
    extra.sort()
    return HasseReport(not missing and not extra, tuple(missing), tuple(extra))


class DegreeReport(namedtuple("DegreeReport", "histogram formula_ok mismatches")):
    """Node-degree histogram plus the dim-vector cross-check."""

    __slots__ = ()


def degree_stats(tq):
    dims = tq.table.dims
    n_vert = len(tq.quiver.vertices)
    mismatches = []
    hist = {}
    for i, (t, delta) in enumerate(zip(tq.nodes, tq.delta)):
        hist[delta] = hist.get(delta, 0) + 1
        # the vertices where the module, the sum of its summands, has dimension one
        predicted = n_vert - [*map(sum, zip(*[dims[s] for s in t]))].count(1)
        if predicted != delta:
            mismatches.append((i, delta, predicted))
    return DegreeReport(dict(sorted(hist.items())), not mismatches, tuple(mismatches))


def closed_form_counts(kind, rank):
    """Exact vertex/arrow counts of the tilting quiver from the closed forms."""
    models.builder_param(kind, rank)  # rejects an unknown kind or a rank below the minimum
    if rank > COUNTS_MAX_RANK:
        raise ValueError(f"closed-form counts are capped at rank {COUNTS_MAX_RANK}")
    return models.FAMILIES[kind].counts(rank)


def tilting_quiver_json(tq):
    """The tilting quiver as a dict that `json.dumps` writes whole.

    Fixed field order: quiver, nodes, arrows, delta.  The nodes are listed as
    summand tuples and the arrows as (tail, head) tuples; json writes every
    tuple as a list.
    """
    return {
        "quiver": quiver_to_json(tq.quiver),
        "nodes": list(tq.nodes),
        "arrows": list(tq.arrows),
        "delta": list(tq.delta),
    }


def _format_rows(rows, item, sep):
    """Yield the text of a run of items joined by `sep`, one piece per row of `rows`.

    Each row is a flat sequence of values, read `item.count("%")` at a time
    into the `%` template `item`, one value per cell (`%d` for an int, `%s`
    for text already written out).  One template per row length is built, so
    a full slice is formatted in one `%`.  Every JSON list and both halves of
    the DOT export are written this way.
    """
    per = item.count("%")
    templates = {}
    glue = ""
    for row in rows:
        n = len(row) // per
        template = templates.get(n)
        if template is None:
            template = templates[n] = sep.join([item] * n)
        yield glue + template % tuple(row)
        glue = sep


def _slices(seq, size):
    """Consecutive slices of `seq`, `size` items each, the last one maybe shorter."""
    return (seq[a : a + size] for a in range(0, len(seq), size))


def _interleave(n, columns):
    """The n-item `columns` as one flat row: item 0 of each column, then item 1 of each, and so on."""
    k = len(columns)
    row = [0] * (k * n)
    for j, col in enumerate(columns):
        row[j::k] = col
    return row


def _arrow_rows(tq):
    """Per slice of SLICE arrows, its tails and heads interleaved in one list."""
    tails = tq.arrows.tails()
    for hs in _slices(tq.heads, SLICE):
        yield _interleave(len(hs), [islice(tails, len(hs)), hs])


def _node_columns(tq):
    """Per slice of SLICE nodes, the range of their indices and a column of summand ids per position."""
    w = len(tq.quiver.vertices)
    for a, s in zip(range(0, len(tq.nodes), SLICE), _slices(tq.summands, w * SLICE)):
        yield range(a, a + len(s) // w), [s[j::w] for j in range(w)]


def tilting_quiver_json_chunks(tq):
    """`json.dumps(tilting_quiver_json(tq))` and a newline, in chunks.

    The nodes are formatted straight from `tq.summands` and the arrows from
    `tq.heads`, SLICE of them per `%` template, so no summand tuple, arrow
    pair or whole document is built.
    """
    w = len(tq.quiver.vertices)
    yield '{"quiver": ' + json.dumps(quiver_to_json(tq.quiver)) + ', "nodes": ['
    yield from _format_rows(
        _slices(tq.summands, w * SLICE), "[" + ", ".join(["%d"] * w) + "]", ", "
    )
    yield '], "arrows": ['
    yield from _format_rows(_arrow_rows(tq), "[%d, %d]", ", ")
    yield '], "delta": ['
    yield from _format_rows(_slices(tq.delta, SLICE), "%d", ", ")
    yield "]}\n"


def tilting_modules_json_chunks(tq, fields):
    """`json.dumps(fields | {"count": ..., "modules": [...]})` and a newline, in chunks.

    Each module is `{"ids": [...], "labels": [...]}`, formatted straight
    from `tq.summands`, SLICE modules per `%` template, with each id's label
    JSON-quoted once.
    """
    w = len(tq.quiver.vertices)
    quoted = [json.dumps(label) for label in tq.table.labels()]
    item = '{"ids": [' + ", ".join(["%d"] * w) + '], "labels": [' + ", ".join(["%s"] * w) + "]}"
    rows = (
        _interleave(len(at), [*cols, *(map(quoted.__getitem__, c) for c in cols)])
        for at, cols in _node_columns(tq)
    )
    head = json.dumps(fields | {"count": len(tq.nodes)})
    yield head[:-1] + ', "modules": ['
    yield from _format_rows(rows, item, ", ")
    yield "]}\n"


def tilting_quiver_dot_chunks(tq):
    """Graphviz digraph in chunks of SLICE node or edge statements, one statement per line."""
    labels = tq.table.labels()
    delta = tq.delta
    rows = (
        _interleave(len(at), [at, *(map(labels.__getitem__, c) for c in cols), delta[at.start : at.stop]])
        for at, cols in _node_columns(tq)
    )
    label = "|".join(["%s"] * len(tq.quiver.vertices))
    yield "digraph tilting {\n"
    yield from _format_rows(rows, '  t%d [label="' + label + '", delta=%d];\n', "")
    yield from _format_rows(_arrow_rows(tq), "  t%d -> t%d;\n", "")
    yield "}\n"


def tilting_quiver_dot(tq):
    """The whole `tilting_quiver_dot_chunks` text as one string."""
    return "".join(tilting_quiver_dot_chunks(tq))
