import hashlib
import json
import random
import tracemalloc
from array import array
from itertools import accumulate
from operator import mul

import pytest
from forge import forged

from tiltquiver.models import FAMILIES, AInterval, all_orientations, builder_param
from tiltquiver.quiver import automorphism, d_quiver, opposite, path_quiver, positive_roots
from tiltquiver import classify, rep, tilting
from tiltquiver.rep import projective_dim_vectors
from tiltquiver.cli import main
from tiltquiver.tilting import (
    SLICE,
    ExtTable,
    HasseReport,
    closed_form_counts,
    degree_stats,
    enumerate_tilting,
    ext_table,
    hasse_check,
    is_tilting,
    module_dim,
    order_bitsets,
    tilting_quiver,
    tilting_quiver_dot,
    tilting_quiver_dot_chunks,
    tilting_quiver_json,
    tilting_quiver_json_chunks,
    transient_counts,
    transient_quiver,
)


def leq(table, t, u):
    """t <= u iff Ext^1 from every summand of u to every summand of t vanishes.

    The per-pair definition of the order, the oracle of `order_bitsets`.
    """
    z = -1  # Z(u): ids j with Ext^1(i, j) = 0 for every summand i of u
    for i in u:
        z &= table.ext_zero[i]
    return all(z >> j & 1 for j in t)


def ids_for(table, *intervals):
    by_model = {m: i for i, m in enumerate(table.models)}
    return tuple(sorted(by_model[iv] for iv in intervals))


def test_ext_table_a2_frozen():
    # ids sort by dimension vector: 0 = L(1,2), 1 = L(0,1), 2 = L(0,2)
    table = ext_table(path_quiver(2))
    assert list(table.models) == [
        AInterval(1, 2),
        AInterval(0, 1),
        AInterval(0, 2),
    ]
    assert table.hom == (bytes((1, 0, 1)), bytes((0, 1, 0)), bytes((0, 1, 1)))
    assert table.ext == (bytes((0, 0, 0)), bytes((1, 0, 0)), bytes((0, 0, 0)))


def test_ext_table_bytes_are_pinned():
    # sha256 of the repr of table.hom and table.ext as tuples of int tuples,
    # taken with the Fraction elimination kernels; the integer kernels and
    # the byte rows must give the same tables.
    pinned = {
        ("A", "1101001"): (
            "b6ca05e5b3f9a90dfdae2fee1bb7cd18aaaf092025605849b22beaabdc9bd21b",
            "92fcd24cb7054ab4c2ca103d32957a1e8470e013413affa6d738d66fffb03417",
        ),
        ("D", "101101"): (
            "9644fd5e2224a7dbf975c01de9cec96b1bf1df585ff00b3dfaffc35d78a91a60",
            "66f269b2a1309e22bf8e30dc86ce858d3739c4e9a98d9d2afef0e72b2d5369a5",
        ),
    }
    for (kind, text), (hom_digest, ext_digest) in pinned.items():
        bits = [c == "1" for c in text]
        q = path_quiver(8, bits) if kind == "A" else d_quiver(6, bits)
        table = ext_table(q)
        hom, ext = (repr(tuple(map(tuple, rows))).encode() for rows in (table.hom, table.ext))
        assert hashlib.sha256(hom).hexdigest() == hom_digest
        assert hashlib.sha256(ext).hexdigest() == ext_digest


def test_ext_table_raises_on_a_non_exceptional_root():
    # (1, 0, 1) is not a root of A3: <d, d> = 2 would make hom(d, d) = 2
    with pytest.raises(RuntimeError, match="not exceptional"):
        tilting._euler_table(path_quiver(3), frozenset({(1, 0, 0), (1, 0, 1)}))


def test_ext_table_raises_when_a_value_may_leave_its_byte():
    # the roots of A3 scaled by 12: <d, d> = 144 for d = (12, 0, 0) is past
    # the byte, and the field guard fires before the "not exceptional" check
    scaled = frozenset(tuple(12 * x for x in d) for d in positive_roots(path_quiver(3)))
    with pytest.raises(RuntimeError, match="may not fit its byte"):
        tilting._euler_table(path_quiver(3), scaled)


def test_ext_table_builds_at_d24():
    # the field bound reads 87 at D24 (552 roots), below the byte's 128
    q = d_quiver(23, [i % 2 == 0 for i in range(23)])
    table = ext_table.__wrapped__(q)
    assert len(table) == 552
    index = {v: p for p, v in enumerate(q.vertices)}
    layout = [(index[a], index[b]) for a, b in q.arrows]
    for i in random.Random(5).sample(range(len(table)), 8):
        d = table.dims[i]
        for j, e in enumerate(table.dims):
            euler = sum(map(mul, d, e)) - sum(d[a] * e[b] for a, b in layout)
            assert table.hom[i][j] - table.ext[i][j] == euler, (i, j)


def _per_pair_table(kind, param, q, roots):
    """The ExtTable fields of q built pair by pair: one Euler-form sum per pair."""
    dims = tuple(sorted(roots))
    k = len(dims)
    # <d_i, d_j> = d_i . w_j with w_j[v] = d_j[v] - sum over arrows v->b of d_j[b]
    index = {v: p for p, v in enumerate(q.vertices)}
    layout = [(index[a], index[b]) for a, b in q.arrows]
    weights = []
    for d in dims:
        w = list(d)
        for a, b in layout:
            w[a] -= d[b]
        weights.append(w)
    euler_rows = [[sum(map(mul, d, w)) for w in weights] for d in dims]
    hom = tuple(bytes(max(x, 0) for x in row) for row in euler_rows)
    ext = tuple(bytes(max(-x, 0) for x in row) for row in euler_rows)
    compat = tuple(
        sum(1 << j for j in range(k) if j != i and ext[i][j] == 0 and ext[j][i] == 0)
        for i in range(k)
    )
    ext_zero = tuple(sum(1 << j for j in range(k) if ext[i][j] == 0) for i in range(k))
    fam = FAMILIES[kind]
    if q == fam.reference(param):
        by_dim = {tuple(fam.dim(x, param)[v] for v in q.vertices): x for x in fam.indecs(param)}
        tags = tuple(by_dim[d] for d in dims)
    else:
        tags = (None,) * k
    return {
        "quiver": q,
        "dims": dims,
        "models": tags,
        "hom": hom,
        "ext": ext,
        "compat": compat,
        "ext_zero": ext_zero,
    }


def _oracle_instances():
    for kind, ranks in (("A", range(1, 9)), ("D", range(4, 9))):
        for rank in ranks:
            param = builder_param(kind, rank)
            for bits, q in all_orientations(kind, param):
                yield kind, param, q
    # reference A12 and D9, then the bench's base orientations and its seed-1 D9 pick
    for kind, rank, text in (
        ("A", 12, None),
        ("D", 9, None),
        ("A", 11, "1101001011"),
        ("D", 9, "10110110"),
        ("D", 9, "01001001"),
    ):
        param = builder_param(kind, rank)
        bits = None if text is None else [c == "1" for c in text]
        yield kind, param, FAMILIES[kind].reference(param, bits)


def test_packed_table_matches_per_pair_oracle():
    # every field of the packed build against the pair-by-pair construction,
    # at every orientation of A1-A8 and D4-D8, at reference A12 and D9, and at
    # the bench orientations of A11 and D9
    names = set(ExtTable.__slots__)
    seen = 0
    for kind, param, q in _oracle_instances():
        roots = positive_roots.__wrapped__(q)
        table = ext_table.__wrapped__(q)
        want = _per_pair_table(kind, param, q, roots)
        assert want.keys() == names
        for name, value in want.items():
            assert getattr(table, name) == value, (kind, q, name)
        seen += 1
    assert seen == 255 + 248 + 5


def test_euler_table_matches_rep_oracle():
    # The Euler-form table against the indecomposables built by reflection
    # functors and the nullities of their k^2 intertwiner systems.
    for kind, rank in (("A", 6), ("D", 5)):
        for bits, q in all_orientations(kind, rank):
            table = ext_table(q)
            inds = rep.indecomposables(q)
            reps = [ind.rep for ind in inds]
            assert [ind.id for ind in inds] == list(range(len(table))), (kind, bits)
            assert table.dims == tuple(r.dim_tuple() for r in reps), (kind, bits)
            assert table.models == tuple(ind.model for ind in inds), (kind, bits)
            hom = rep.hom_table(q, reps)
            assert table.hom == tuple(map(bytes, hom)), (kind, bits)
            ext = tuple(
                bytes(
                    rep.ext_from_hom(h, rep.euler_form(q, m.dims, n.dims))
                    for h, n in zip(row, reps)
                )
                for row, m in zip(hom, reps)
            )
            assert table.ext == ext, (kind, bits)


def test_model_tags_must_be_the_roots(monkeypatch):
    from tiltquiver import models

    fam = models.FAMILIES["A"]
    shifted = fam._replace(indecs=lambda n: fam.indecs(n)[1:] + [AInterval(0, n + 1)])
    monkeypatch.setitem(models.FAMILIES, "A", shifted)
    with pytest.raises(RuntimeError, match="not the positive roots"):
        ext_table.__wrapped__(path_quiver(3))


def test_model_tags_memo_is_keyed_on_the_family_entry(monkeypatch):
    """An entry put in FAMILIES in place of another never reads the other's memoised tags."""
    from tiltquiver import models

    q = path_quiver(3)
    want = ext_table.__wrapped__(q).models  # the real entry's tags, memoised
    assert None not in want
    fam = models.FAMILIES["A"]
    shifted = fam._replace(indecs=lambda n: fam.indecs(n)[1:] + [AInterval(0, n + 1)])
    with monkeypatch.context() as m:
        m.setitem(models.FAMILIES, "A", shifted)
        with pytest.raises(RuntimeError, match="not the positive roots"):
            ext_table.__wrapped__(q)
    hits = models.reference_data.cache_info().hits
    assert ext_table.__wrapped__(q).models == want
    assert models.reference_data.cache_info().hits == hits + 1


def test_ext_diagonal_zero():
    for q in (path_quiver(4), d_quiver(3)):
        table = ext_table(q)
        assert all(table.ext[i][i] == 0 for i in range(len(table)))
        assert all(table.hom[i][i] == 1 for i in range(len(table)))


def test_ext_pattern_matches_predicate_on_q3():
    from tiltquiver.models import family

    table = ext_table(d_quiver(3))
    k = len(table)
    for i in range(k):
        for j in range(i, k):
            pred = family("D").ext_vanish(table.models[i], table.models[j], 3)
            assert pred == (table.ext[i][j] == 0 and table.ext[j][i] == 0)


def test_enumerate_a2_exact():
    q = path_quiver(2)
    table = ext_table(q)
    mods = enumerate_tilting(q)
    assert mods == (
        ids_for(table, AInterval(1, 2), AInterval(0, 2)),
        ids_for(table, AInterval(0, 1), AInterval(0, 2)),
    )


def test_enumerate_counts():
    assert len(enumerate_tilting(path_quiver(3))) == 5
    assert len(enumerate_tilting(d_quiver(3))) == 20
    for n in range(1, 7):
        want, _ = closed_form_counts("A", n)
        assert len(enumerate_tilting(path_quiver(n))) == want


def test_rank_guard():
    # D9 is d_quiver(8), so d_quiver(9) is one vertex past the guard
    for q in (path_quiver(13), d_quiver(9)):
        misses = ext_table.cache_info().misses
        for build in (tilting_quiver, enumerate_tilting):
            with pytest.raises(ValueError, match="rank guard"):
                build(q)
        assert ext_table.cache_info().misses == misses, q


def clique_search(q):
    """Every tilting module of q by a lexicographic clique search over compat.

    The oracle of the exchange walk in `tilting_quiver`, sharing only the Ext
    table with it.  The search extends `chosen` by the lowest candidate id
    first, with ids strictly increasing, so the modules come out in
    lexicographic order.
    """
    compat = ext_table(q).compat
    need = len(q.vertices)
    out = []
    chosen = []

    def walk(cand):
        if len(chosen) == need:
            out.append(tuple(chosen))
            return
        c = cand
        while c:
            low = c & -c
            c ^= low  # c keeps the candidates above v
            v = low.bit_length() - 1
            chosen.append(v)
            walk(c & compat[v])
            chosen.pop()
            if c.bit_count() + len(chosen) < need:
                return

    walk((1 << len(compat)) - 1)
    return tuple(out)


def test_exchange_walk_finds_every_clique():
    instances = [q for kind, param in (("A", 6), ("D", 5)) for _, q in all_orientations(kind, param)]
    # the benchmark's A8 and D7 base orientations
    instances += [path_quiver(8, [c == "1" for c in "1101001"])]
    instances += [d_quiver(6, [c == "1" for c in "101101"])]
    for q in instances:
        assert enumerate_tilting(q) == clique_search(q), q


def test_exchange_walk_at_every_rank_7_orientation():
    for kind, param in (("A", 7), ("D", 6)):
        want = closed_form_counts(kind, 7)
        for bits, q in all_orientations(kind, param):
            tq = tilting_quiver(q)
            assert enumerate_tilting(q) == clique_search(q), (kind, bits)
            assert (len(tq.nodes), len(tq.arrows)) == want, (kind, bits)
            assert transient_counts(q) == want, (kind, bits)


def test_counts_are_read_off_the_table_without_a_walk(monkeypatch):
    """`transient_counts` gives the sizes of the walked quiver at every
    orientation of A6 and D5, never walks or finishes a quiver, and leaves
    every cache as it found it."""
    from tiltquiver import tilting

    def refuse(*args):
        raise AssertionError("a count walked or finished a quiver")

    caches = (ext_table, positive_roots, tilting_quiver, enumerate_tilting)
    for kind, param in (("A", 6), ("D", 5)):
        for bits, q in all_orientations(kind, param):
            tq = transient_quiver(q)
            want = (len(tq.nodes), len(tq.arrows))
            before = [f.cache_info() for f in caches]
            with monkeypatch.context() as m:
                m.setattr(tilting, "_exchange_walk", refuse)
                m.setattr(tilting, "_finish", refuse)
                assert transient_counts(q) == want, (kind, bits)
            assert [f.cache_info() for f in caches] == before, (kind, bits)


def test_a_count_leaves_no_cyclic_garbage():
    """The count's memo is a dict of ints passed to a module-level recursion,
    which no closure holds, so nothing it builds waits for the cyclic
    collector: with the collector off, a collection right after a count
    finds nothing to free."""
    import gc

    instances = [FAMILIES[kind].reference(builder_param(kind, r)) for kind, r in (("A", 8), ("D", 6))]
    instances.append(path_quiver(8, [c == "1" for c in "1101001"]))
    gc.collect()
    gc.disable()
    try:
        for q in instances:
            transient_counts(q)
            assert gc.collect() == 0, q
    finally:
        gc.enable()


def test_count_rejects_a_clique_past_the_vertex_count():
    """An id outside a tilting module made compatible with all of its
    summands gives `compat` a clique of #vertices + 1 ids, a rigid set with
    more summands than vertices, and the count raises instead of counting
    past it.  With no compatible pair at A2, each id is an almost complete
    module with no complement, and the count raises too."""
    from tiltquiver import tilting

    for kind, r in (("A", 4), ("D", 5)):
        table = ext_table(FAMILIES[kind].reference(builder_param(kind, r)))
        full = (1 << len(table)) - 1
        proj = sum(1 << i for i, row in enumerate(table.ext_zero) if row == full)
        assert proj.bit_count() == r
        for y in range(len(table)):
            if proj >> y & 1:
                continue
            compat = list(table.compat)
            compat[y] |= proj
            for s in range(len(table)):
                if proj >> s & 1:
                    compat[s] |= 1 << y
            with pytest.raises(RuntimeError, match="more summands than vertices"):
                tilting._count(forged(table, compat=tuple(compat)))
    table = ext_table(path_quiver(2))
    with pytest.raises(RuntimeError, match="one or two complements"):
        tilting._count(forged(table, compat=(0,) * len(table)))


def flipped(table, *pairs):
    """`table` with the compatibility of each pair of ids in `pairs` flipped, both ways."""
    compat = list(table.compat)
    for i, j in pairs:
        compat[i] ^= 1 << j
        compat[j] ^= 1 << i
    return forged(table, compat=tuple(compat))


def test_count_rejects_a_table_off_the_sincere_complement_identity():
    """At A3, forged tables whose clique counts still meet C <= n * V <= 2C
    fail n * V = 2C - sum N_v: the almost complete module (2, 5) given
    three complements (V = 5, C = 10, 15 against 16), and id 5 = (1, 1, 1)
    made to clash with any one other id (V = 3, C = 9, 9 against 13).  A
    tilting module forged among the ids that miss vertex 0 raises too."""
    from tiltquiver import tilting

    table = ext_table(path_quiver(3))
    assert tilting._count(table) == (5, 5)
    assert [i for i, d in enumerate(table.dims) if not d[0]] == [0, 1, 2]
    bad = [flipped(table, (4, 2), (4, 1))]
    bad += [flipped(table, (5, j)) for j in range(5)]
    for forged_table in bad:
        with pytest.raises(RuntimeError, match="one or two complements"):
            tilting._count(forged_table)
    # 0 and 1 made compatible, and 5 cut from 0 so that no 4-clique forms
    with pytest.raises(RuntimeError, match="more summands than vertices"):
        tilting._count(flipped(table, (0, 1), (5, 0)))


def stored(tq):
    return tq.summands, bytes(tq.heads), tq.out_deg, tq.delta


# Orbits of the orientations under the opposite and the diagram automorphism,
# by Burnside's lemma: one walk each in a cached sweep.
ORBITS = {
    ("A", 1): 1, ("A", 2): 1, ("A", 3): 2, ("A", 4): 3, ("A", 5): 6, ("A", 6): 10,
    ("A", 7): 20, ("A", 8): 36,
    ("D", 3): 2, ("D", 4): 3, ("D", 5): 6, ("D", 6): 12, ("D", 7): 24,
}


def test_quiver_derived_from_its_cached_orbit_is_the_walked_one(exchange_walks):
    """Tilt(Q^op) is Tilt(Q) with every arrow reversed, and Tilt(aQ) is
    Tilt(Q) with its ids permuted: at every orientation of A1-A8 and D3-D7,
    in a seeded shuffled order, a cached sweep walks one quiver of each
    orbit, derives the others from it, and each equals the quiver walked on
    its own."""
    rng = random.Random(1)
    for (kind, rank), orbits in ORBITS.items():
        tilting_quiver.cache_clear()
        exchange_walks.clear()
        oriented = list(all_orientations(kind, builder_param(kind, rank)))
        rng.shuffle(oriented)
        cached = {q: tilting_quiver(q) for _, q in oriented}
        assert len(exchange_walks) == orbits, (kind, rank)
        for bits, q in oriented:
            tq = cached[q]
            # one of each opposite pair holds the other's nodes and degrees
            twin = cached[opposite(q)]
            assert tq.summands is twin.summands and tq.delta is twin.delta, (kind, bits)
            assert stored(tq) == stored(transient_quiver(q)), (kind, bits)
            if rank <= (6 if kind == "A" else 5):
                assert hasse_check(ext_table(q), tq).ok, (kind, bits)


def test_a_cached_sweep_walks_each_orbit_once(exchange_walks):
    for _, q in all_orientations("D", 4):
        tilting_quiver(q)
    assert len(exchange_walks) == 6  # of 16 orientations
    info = tilting_quiver.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 16, 16)


def counting(monkeypatch, name):
    """The arguments of every call of tilting.<name> while the test runs."""
    import tiltquiver.tilting as tilting

    calls = []
    real = getattr(tilting, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tilting, name, spy)
    return calls


def test_a_miss_derives_from_the_first_held_quiver_of_its_orbit(exchange_walks, monkeypatch):
    q = path_quiver(5, [True, True, False, True])
    image, perm = automorphism(q)
    want = stored(transient_quiver(q))
    derivations = counting(monkeypatch, "_derived")
    # Q^op is reversed, aQ relabelled, and aQ^op reversed and relabelled
    for held, steps in ((opposite(q), (True, None)), (image, (False, perm)), (opposite(image), (True, perm))):
        tilting_quiver.cache_clear()
        tilting_quiver(held)
        exchange_walks.clear()
        derivations.clear()
        assert stored(tilting_quiver(q)) == want, held
        assert [args[2:] for args in derivations] == [steps], held
        assert exchange_walks == [], held


def test_the_automorphic_opposite_derives_in_one_step(exchange_walks):
    """With only the quiver of aQ^op held, a miss of Q derives from it in
    one step: no walk, and no Ext table of aQ built on the way."""
    q = path_quiver(5, [True, True, False, True])
    aq = automorphism(q)[0]
    tilting_quiver(opposite(aq))
    exchange_walks.clear()
    tq = tilting_quiver(q)
    assert exchange_walks == []
    assert ext_table.cache_info().currsize == 2
    walked = transient_quiver(q)
    assert stored(tq) == stored(walked)
    assert tq.table.dims == walked.table.dims and tq.table.ext == walked.table.ext


def test_a_quiver_the_automorphism_fixes_is_not_relabelled_from_itself(exchange_walks, monkeypatch):
    derivations = counting(monkeypatch, "_derived")
    # 1 -> 2 -> 3 <- 4 <- 5, and the fork tips both sinks
    for q in (path_quiver(5, [True, True, False, False]), d_quiver(5, [True] * 5)):
        assert automorphism(q) is None
        tilting_quiver.cache_clear()
        exchange_walks.clear()
        first = tilting_quiver(q)
        # held, but still not a twin of itself: a miss walks again
        tilting_quiver.__wrapped__(q)
        assert len(exchange_walks) == 2
        assert tilting_quiver(opposite(q)).summands is first.summands
        assert len(exchange_walks) == 2
    assert [args[2:] for args in derivations] == [(True, None)] * 2


def test_relabel_rejects_a_table_that_is_not_the_image(monkeypatch):
    import tiltquiver.tilting as tilting

    q = d_quiver(4, [True, False, True, False])
    image, perm = automorphism(q)
    twin = tilting_quiver(image)
    table = ext_table(q)
    assert stored(tilting._derived(table, twin, False, perm)) == stored(transient_quiver(q))
    ext = list(map(bytearray, table.ext))
    ext[0][1] += 1  # one Ext entry changed
    changed = forged(table, ext=tuple(map(bytes, ext)))
    with pytest.raises(RuntimeError, match="not the image"):
        tilting._derived(changed, twin, False, perm)
    # from aQ^op the table is checked transposed and permuted at once
    far = tilting_quiver.__wrapped__(opposite(image))
    assert stored(tilting._derived(table, far, True, perm)) == stored(transient_quiver(q))
    with pytest.raises(RuntimeError, match="not the image"):
        tilting._derived(changed, far, True, perm)
    # the same on a miss of q while its twin is held: nothing is cached
    monkeypatch.setattr(tilting, "ext_table", lambda _: changed)
    with pytest.raises(RuntimeError, match="not the image"):
        tilting_quiver(q)
    assert tilting_quiver.cache_info().currsize == 1
    assert list(tilting._held) == [image]


def test_a_lone_call_walks_once_and_caches_one_quiver(exchange_walks):
    import tiltquiver.tilting as tilting

    q = d_quiver(4, [True, False, True, False])
    # a quiver built without the caches is not a twin to derive from
    transient_quiver(opposite(q))
    assert len(tilting._held) == 0
    tilting_quiver(q)
    assert len(exchange_walks) == 2
    assert tilting_quiver.cache_info().currsize == 1
    assert list(tilting._held) == [q]


def test_a_dropped_rebuild_keeps_the_held_twin(exchange_walks):
    """A quiver of q built again outside the cache and dropped at once
    leaves the cached quiver of q held, so the next miss of Q^op derives
    from it instead of walking."""
    import tiltquiver.tilting as tilting

    q = path_quiver(5, [True, True, False, True])
    tq = tilting_quiver(q)
    tilting_quiver.__wrapped__(q)  # walks: no other quiver of its orbit is held
    assert len(exchange_walks) == 2
    assert list(tilting._held) == [q] and tilting._held[q] is tq
    assert tilting_quiver(opposite(q)).summands is tq.summands
    assert len(exchange_walks) == 2


def test_a_rebuild_made_before_the_cached_call_is_no_twin(exchange_walks):
    """A quiver of q built outside the cache before the cached call, and
    dropped after it, leaves the cached quiver of q held, so the next miss
    of Q^op derives from it: three calls, two walks."""
    import tiltquiver.tilting as tilting

    q = path_quiver(5, [True, True, False, True])
    rebuilt = tilting_quiver.__wrapped__(q)
    tq = tilting_quiver(q)
    del rebuilt
    opp = tilting_quiver(opposite(q))
    assert len(exchange_walks) == 2
    assert opp.summands is tq.summands and tilting._held[q] is tq


def test_finish_empties_the_callers_summands():
    """`_finish` clears the caller's list of per-node summands once it has
    joined them, so the flat stores reuse their memory while the walk still
    holds the list."""
    import tiltquiver.tilting as tilting

    q = d_quiver(4, [True, False, True, False])
    tq = tilting_quiver(q)
    k = len(tq.nodes)
    # the walk's inputs with the nodes in reverse order: node u at k - 1 - u
    summands = [bytes(t) for t in reversed(tq.nodes)]
    runs = [[] for _ in range(k)]
    for t, h in tq.arrows:
        runs[k - 1 - t].append(k - 1 - h)
    arcs = array("I", [h for run in runs for h in run])
    out_deg = array("B", map(len, runs))
    deg = array("B", reversed(tq.delta))
    got = tilting._finish(tq.table, summands, arcs, out_deg, deg)
    assert summands == []
    assert stored(got) == stored(tq)
    assert type(got.out_deg) is bytes and type(got.delta) is bytes


def test_cache_clear_forgets_every_twin(exchange_walks):
    import tiltquiver.tilting as tilting

    q = path_quiver(5, [True, False, False, True])
    tq = tilting_quiver(q)  # still held here after the clear
    tilting_quiver.cache_clear()
    assert len(tilting._held) == 0
    tilting_quiver(opposite(q))
    assert len(exchange_walks) == 2
    assert tq.summands is not tilting_quiver(opposite(q)).summands


def test_derive_rejects_a_table_that_is_not_the_transpose(monkeypatch):
    import tiltquiver.tilting as tilting

    q = d_quiver(4, [True, False, True, False])
    twin = tilting_quiver(opposite(q))
    third = ext_table(d_quiver(4, [True, True, False, False]))
    with pytest.raises(RuntimeError, match="not the transpose"):
        tilting._derived(third, twin, True, None)
    # the same on a miss of q while its twin is held: nothing is cached
    monkeypatch.setattr(tilting, "ext_table", lambda _: third)
    with pytest.raises(RuntimeError, match="not the transpose"):
        tilting_quiver(q)
    assert tilting_quiver.cache_info().currsize == 1
    assert list(tilting._held) == [opposite(q)]


def test_leq_examples():
    q = path_quiver(2)
    table = ext_table(q)
    lower = ids_for(table, AInterval(0, 1), AInterval(0, 2))
    upper = ids_for(table, AInterval(1, 2), AInterval(0, 2))
    assert leq(table, lower, lower) and leq(table, upper, upper)
    assert leq(table, lower, upper)
    assert not leq(table, upper, lower)


def test_projectives_are_the_maximum():
    q = path_quiver(4)
    table = ext_table(q)
    proj = tuple(
        sorted(
            table.dims.index(tuple(d[v] for v in q.vertices))
            for d in projective_dim_vectors(q).values()
        )
    )
    for t in enumerate_tilting(q):
        assert leq(table, t, proj)


def test_tilting_quiver_a2_direction():
    q = path_quiver(2)
    table = ext_table(q)
    tq = tilting_quiver(q)
    projectives = ids_for(table, AInterval(1, 2), AInterval(0, 2))
    other = ids_for(table, AInterval(0, 1), AInterval(0, 2))
    (arrow,) = tq.arrows
    assert tq.nodes[arrow[0]] == projectives
    assert tq.nodes[arrow[1]] == other


def test_arrow_counts():
    assert len(tilting_quiver(path_quiver(3)).arrows) == 5
    assert len(tilting_quiver(d_quiver(3)).arrows) == 32


def test_exchange_quiver_matches_pairwise_oracle():
    for kind, param in (("A", 5), ("D", 4)):
        for bits, q in all_orientations(kind, param):
            table = ext_table(q)
            nodes = enumerate_tilting(q)
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            want = set()
            for a, t in enumerate(nodes):
                for b, u in enumerate(nodes):
                    only_t = set(t) - set(u)
                    only_u = set(u) - set(t)
                    if len(only_t) != 1 or len(only_u) != 1:
                        continue
                    (x,), (y,) = only_t, only_u
                    if table.ext[y][x] != 0:
                        want.add((a, b))
            assert tuple(tilting_quiver(q).arrows) == tuple(sorted(want)), (kind, bits)


def _broken_completions(table):
    """Three forged copies of the A3 Ext table `table` on which the projective
    module (0, 2, 5) fails a completion check, each with the message's gist:
    two make a rigid set of 4 modules, one gives an almost complete module
    three complements."""
    k = len(table)
    return (
        (forged(table, compat=((1 << k) - 1,) * k), "more summands than vertices"),
        # 4 compatible with every summand of the projective module
        (flipped(table, (4, 0), (4, 2)), "more summands than vertices"),
        # 4 and 1 both clash with the summand 0 alone, and with each other,
        # so (2, 5) has the three complements 0, 1 and 4
        (flipped(table, (4, 2), (4, 1)), "one or two complements"),
    )


def test_tilting_quiver_rejects_a_corrupted_ext_table():
    import tiltquiver.tilting as tilting

    q = path_quiver(3)
    table = ext_table(q)
    # ids sort by dimension vector: the projective module is (0, 2, 5), and
    # outside it id 4 = (1, 1, 0) clashes with the summands 0 and 2 and
    # id 1 with 0 alone
    proj = (0, 2, 5)
    assert proj == tuple(
        sorted(
            table.dims.index(tuple(d[v] for v in q.vertices))
            for d in projective_dim_vectors(q).values()
        )
    )
    clashes = {j: [x for x in proj if not table.compat[x] >> j & 1] for j in (1, 4)}
    assert clashes == {1: [0], 4: [0, 2]}
    for bad, message in _broken_completions(table):
        with pytest.raises(RuntimeError, match=message):
            tilting._exchange_walk(bad)
    # Ext both ways between the ids 1 and 3, of the exchange (1, 4, 5) -> (3, 4, 5)
    both_ways = list(table.ext_zero)
    both_ways[1] &= ~(1 << 3)
    both_ways[3] &= ~(1 << 1)
    with pytest.raises(RuntimeError, match=r"pair \(1, 3\) is not oriented by a unique Ext"):
        tilting._exchange_walk(forged(table, ext_zero=tuple(both_ways)))
    # At D4 the only arrow into (2, 7, 8, 9) is (2, 8, 9, 11) -> (2, 7, 8, 9),
    # the exchange of 11 for 7.  Reversed in ext_zero, with every row as full
    # as before and so the same projectives, it leaves (2, 7, 8, 9) a source
    # the walk never reaches, and its exchange is met only from the other end.
    q = d_quiver(3)
    table = ext_table(q)
    tq = tilting_quiver(q)
    into = [tq.nodes[a] for a, b in tq.arrows if tq.nodes[b] == (2, 7, 8, 9)]
    assert into == [(2, 8, 9, 11)]
    reversed_pair = list(table.ext_zero)
    assert reversed_pair[11] >> 7 & 1 and not reversed_pair[7] >> 11 & 1
    reversed_pair[7] |= 1 << 11
    reversed_pair[11] &= ~(1 << 7)
    with pytest.raises(RuntimeError, match="misses an exchange"):
        tilting._exchange_walk(forged(table, ext_zero=tuple(reversed_pair)))


def test_walk_and_count_name_a_broken_completion_alike():
    """Where a forged A3 table breaks a completion check at the projective
    module, the walk raises the message the count raises for that table,
    followed by the module's summand ids."""
    import tiltquiver.tilting as tilting

    for bad, gist in _broken_completions(ext_table(path_quiver(3))):
        with pytest.raises(RuntimeError, match=gist) as counted:
            tilting._count(bad)
        with pytest.raises(RuntimeError) as walked:
            tilting._exchange_walk(bad)
        assert str(walked.value) == f"{counted.value} at (0, 2, 5)"


def test_walk_reads_neither_hom_nor_ext_rows():
    """The walk orients each exchange by one bit of a column of `ext_zero`,
    so over a table whose `hom` and `ext` rows are all zero it returns the
    stores it returns over the real table, at every orientation of A4 and
    D4."""
    import tiltquiver.tilting as tilting

    for kind, param in (("A", 4), ("D", 3)):
        for bits, q in all_orientations(kind, param):
            table = ext_table(q)
            zero = (bytes(len(table)),) * len(table)
            blank = forged(table, hom=zero, ext=zero)
            assert stored(tilting._exchange_walk(blank)) == stored(tilting._exchange_walk(table)), bits


def test_walk_starts_at_the_ids_with_no_ext():
    """The walk starts at the ids whose ext_zero row is full, which are the
    projectives, and raises unless it finds one per vertex."""
    import tiltquiver.tilting as tilting

    for kind, param in (("A", 5), ("D", 5)):
        for bits, q in all_orientations(kind, param):
            table = ext_table(q)
            full = (1 << len(table)) - 1
            proj = sorted(
                table.dims.index(tuple(d[v] for v in q.vertices))
                for d in projective_dim_vectors(q).values()
            )
            assert [i for i, row in enumerate(table.ext_zero) if row == full] == proj, bits
    q = path_quiver(3)
    table = ext_table(q)
    assert table.ext_zero[0] == (1 << len(table)) - 1  # id 0 is projective at A3
    one_bit_off = (table.ext_zero[0] ^ 1 << 3,) + table.ext_zero[1:]
    with pytest.raises(RuntimeError, match="2 projectives for 3 vertices"):
        tilting._exchange_walk(forged(table, ext_zero=one_bit_off))


def test_hasse_property():
    for q in (path_quiver(1), path_quiver(3), d_quiver(3)):
        assert hasse_check(ext_table(q), tilting_quiver(q)).ok


def test_order_bitsets_match_pairwise_leq():
    for kind, param in (("A", 5), ("D", 4)):
        for bits, q in all_orientations(kind, param):
            table = ext_table(q)
            nodes = enumerate_tilting(q)
            down, up = map(list, order_bitsets(table, nodes))
            for a, t in enumerate(nodes):
                for b, u in enumerate(nodes):
                    # leq against the Ext dimensions themselves, not ext_zero
                    le = all(table.ext[i][j] == 0 for i in u for j in t)
                    assert leq(table, t, u) == le, (kind, bits, a, b)
                    assert (down[b] >> a & 1, up[a] >> b & 1) == (le, le), (kind, bits, a, b)


def test_hasse_property_at_every_small_orientation():
    # every orientation of A6, A7, D6 and D7 (builder parameters 5 and 6)
    instances = [
        q for kind, param in (("A", 6), ("A", 7), ("D", 5), ("D", 6))
        for _, q in all_orientations(kind, param)
    ]
    # the benchmark's A8 base orientation
    instances += [path_quiver(8, [c == "1" for c in "1101001"])]
    for q in instances:
        assert hasse_check(ext_table(q), tilting_quiver(q)).ok, q


def test_hasse_check_memory_stays_near_the_walk_peak(d9_walk_memory):
    """At D9 hasse_check may add at most 1.5 times the walk's own peak.

    Storing a down-set row per node, #nodes rows of #nodes bits, added
    about 4.8 times the walk's peak here.
    """
    added, walk_peak = d9_walk_memory["hasse_added"], d9_walk_memory["own_walk_peak"]
    assert d9_walk_memory["hasse_ok"]
    assert added <= 1.5 * walk_peak, (added, walk_peak)


def test_failing_hasse_check_memory_stays_near_the_walk_peak():
    """With one arrow dropped at D8, hasse_check, which then runs the peel to
    say why, may add at most 1.5 times the walk's own peak.

    A peel that kept each node's down-set row added 1.88 times the walk's
    peak here (0.88 without), and D8 is the smallest reference instance
    where it fails this bound.  Both the passing check on the walked quiver
    and the failing one leave traced memory where it was before the call,
    which a row cache that outlived the call would not.  Each held reading
    is taken right after a full collection, so it does not depend on
    whether one falls inside the window and empties the interpreter's free
    lists (the 2-tuples of `list(tq.arrows)` fill one with about 110 KB).
    """
    import gc

    import tiltquiver.tilting as tilting

    def collected():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    table = ext_table.__wrapped__(FAMILIES["D"].reference(builder_param("D", 8)))
    tracemalloc.start()
    try:
        before = collected()
        tracemalloc.reset_peak()
        tq = tilting._exchange_walk(table)
        walk_peak = tracemalloc.get_traced_memory()[1] - before
        # the certificate's rows are freed on return: none outlives the check
        held_pass = collected()
        assert hasse_check(table, tq).ok
        after_pass = collected()
        arrows = list(tq.arrows)
        dropped = arrows.pop()
        broken = with_arrows(tq, arrows)
        del arrows
        held = collected()
        tracemalloc.reset_peak()
        report = hasse_check(table, broken)
        added = tracemalloc.get_traced_memory()[1] - held
        # the report itself (224 B, fresh allocations after a collection) is
        # the call's result, not what it leaves behind
        assert report == HasseReport(False, missing=(dropped,))
        del report
        after_fail = collected()
    finally:
        tracemalloc.stop()
    assert added <= 1.5 * walk_peak, (added, walk_peak)
    # 256 B leaves room for the readings themselves; one D8 row outliving
    # the call would take 570 B, DOWN_ROWS of them 290 KB
    assert after_pass - held_pass <= 256 and after_fail - held <= 256, (
        after_pass - held_pass,
        after_fail - held,
    )


def test_walk_peak_stays_at_most_65_bytes_per_arrow(d9_walk_memory):
    """At D9 the walk may peak at 65 B per arrow of its quiver.

    The walk that follows arrows only peaks at 49.4 B per arrow.  Recording
    each exchange pair from both ends, with a list of heads per node and the
    bitset of pairs already met, peaks at about 80 B.  The bound was 6.5
    times what the quiver held while its degrees were int tuples, 10.1 B
    per arrow, so 65.5 B.
    """
    peak, n = d9_walk_memory["own_walk_peak"], d9_walk_memory["n_arrows"]
    assert peak <= 65 * n, (peak, n)


def test_quiver_holds_at_most_48_bytes_per_arrow(d9_walk_memory):
    """At D9 the quiver's nodes, flat array of heads and degrees hold at most
    48 B per arrow (109 B while every arrow was a pair tuple)."""
    held, n = d9_walk_memory["quiver_held"], d9_walk_memory["n_arrows"]
    assert held <= 48 * n, (held, n)


def test_nodes_view_reads_like_a_tuple_of_tuples():
    instances = [q for kind, param in (("A", 6), ("D", 5)) for _, q in all_orientations(kind, param)]
    # the benchmark's A8 and D7 base orientations
    instances += [path_quiver(8, [c == "1" for c in "1101001"])]
    instances += [d_quiver(6, [c == "1" for c in "101101"])]
    for q in instances:
        tq = tilting_quiver(q)
        nodes = tq.nodes
        want = tuple(nodes)
        k = len(want)
        assert len(nodes) == k > 1, q
        assert b"".join(map(bytes, want)) == tq.summands, q
        assert all(type(t) is tuple and list(t) == sorted(set(t)) for t in want), q
        assert all(nodes[i] == want[i] for i in range(-k, k)), q
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                nodes[i]
        for s in (
            slice(None),
            slice(1, None),
            slice(None, -1),
            slice(None, None, 2),
            slice(None, None, -3),
            slice(-5, None),
            slice(3, 1),
            slice(k + 3, None),
        ):
            assert type(nodes[s]) is tuple and nodes[s] == want[s], (q, s)
        assert list(nodes) == list(want), q
        assert nodes == want and want == nodes, q
        assert not (nodes != want) and not (want != nodes), q
        for other in (want[:-1], want[:-1] + (want[0],), list(want)):
            assert nodes != other and other != nodes, q
            assert not (nodes == other) and not (other == nodes), q


def test_cached_ext_tables_hold_at_most_12_bytes_per_entry():
    """All 32 orientations of D6, with their roots built first, cached by
    `ext_table`: at most 12 B held per (i, j) entry, all fields included
    (24.3 B while each hom and ext row was a tuple of ints, 9.9 B with a
    byte string per row)."""
    quivers = [q for _, q in all_orientations("D", 5)]
    for q in quivers:
        positive_roots(q)
    ext_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = sum(len(ext_table(q)) ** 2 for q in quivers)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert entries == 32 * 30**2
    assert held <= 12 * entries, (held, entries)


def test_cached_quivers_hold_at_most_24_bytes_per_node():
    """All 32 orientations of D6, with their Ext tables built first, cached
    by `tilting_quiver`: at most 24 B held per node (125 B while each node
    was a tuple of its summand ids, 30.0 B while the degrees of each node
    were int tuples, 19.5 B with a byte per degree)."""
    quivers = [q for _, q in all_orientations("D", 5)]
    for q in quivers:
        ext_table(q)
    tilting_quiver.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        n = sum(len(tilting_quiver(q).nodes) for q in quivers)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert n == 32 * closed_form_counts("D", 6)[0]
    assert held <= 24 * n, (held, n)


def test_every_id_fits_a_byte_up_to_the_guards():
    """`TiltingQuiver.summands` stores each summand id in one byte."""
    for kind, fam in FAMILIES.items():
        q = fam.reference(builder_param(kind, fam.guard))
        assert len(positive_roots(q)) <= 256, kind


def with_arrows(tq, pairs):
    """tq with its arrows replaced by `pairs`, stored the way the walk stores them."""
    pairs = sorted(pairs)
    out_deg = [0] * len(tq.nodes)
    for a, _ in pairs:
        out_deg[a] += 1
    return forged(tq, heads=array("I", [b for _, b in pairs]), out_deg=bytes(out_deg))


def test_hasse_check_reports_wrong_arrows():
    q = path_quiver(4)
    table = ext_table(q)
    tq = tilting_quiver(q)
    arrows = list(tq.arrows)
    assert arrows[:2] == [(0, 1), (0, 2)] and (1, 4) in arrows and (0, 4) not in arrows
    assert with_arrows(tq, arrows) == tq

    def check(new_arrows):
        return hasse_check(table, with_arrows(tq, new_arrows))

    assert check(arrows[1:]) == HasseReport(False, missing=((0, 1),))
    # 0 -> 1 -> 4 makes 0 -> 4 transitive, not a cover
    assert check(arrows + [(0, 4)]) == HasseReport(False, extra=((0, 4),))
    assert check([(1, 0)] + arrows[1:]) == HasseReport(
        False, missing=((0, 1),), extra=((1, 0),)
    )
    # an arrow listed twice is one arrow too many, though its set is the covers
    assert check(arrows + [(0, 1)]) == HasseReport(False, extra=((0, 1),))
    assert check(arrows + [(0, 1), (0, 1), (0, 4)]) == HasseReport(
        False, extra=((0, 1), (0, 1), (0, 4))
    )


def single_arrow_variants(tq):
    """tq itself, then tq with one arrow deleted, added, reversed or repeated.

    Every deletion, every added ordered pair (u, v) that is not an arrow
    (u == v included), every reversal, and one repeat: 2 + #nodes**2 +
    #arrows quivers in all.
    """
    arrows = list(tq.arrows)
    have = set(arrows)
    k = len(tq.nodes)
    yield tq
    for i in range(len(arrows)):
        yield with_arrows(tq, arrows[:i] + arrows[i + 1 :])
    for u in range(k):
        for v in range(k):
            if (u, v) not in have:
                yield with_arrows(tq, arrows + [(u, v)])
    for i, (u, v) in enumerate(arrows):
        yield with_arrows(tq, arrows[:i] + [(v, u)] + arrows[i + 1 :])
    yield with_arrows(tq, arrows + arrows[:1])


def offsets(tq):
    """The run offsets of `tq.heads`, as `hasse_check` validates them."""
    return array("I", accumulate(tq.out_deg, initial=0))


def test_cover_certificate_agrees_with_the_peel(monkeypatch):
    """The local certificate accepts exactly what the peel of `hasse_check`
    accepts, on every single-arrow variant at two orientations each of A4
    and D4."""
    import tiltquiver.tilting as tilting

    certified = tilting._covers_certified
    # with the certificate failing every quiver, the peel decides each one
    monkeypatch.setattr(tilting, "_covers_certified", lambda table, tq, off: False)
    instances = [path_quiver(4), path_quiver(4, [False, True, False])]
    instances += [d_quiver(3), d_quiver(3, [False, True, False])]
    seen = passed = 0
    for q in instances:
        table = ext_table(q)
        for variant in single_arrow_variants(tilting_quiver(q)):
            ok = hasse_check(table, variant).ok
            assert certified(table, variant, offsets(variant)) == ok
            seen += 1
            passed += ok
    assert (seen, passed) == (1306, 4)


def test_certificate_builds_each_down_set_once(monkeypatch):
    """When every node fits DOWN_ROWS, a passing hasse_check reads the per-id
    below bitsets #vertices times per node: each down-set is built once and a
    head's is read back.  Rebuilt per node and per arrow, they were read
    (#nodes + #arrows) times #vertices times."""
    import tiltquiver.tilting as tilting

    reads = []
    build = tilting._below

    class Counted(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    monkeypatch.setattr(tilting, "_below", lambda *args: Counted(build(*args)))
    for q in (FAMILIES["A"].reference(builder_param("A", 6)), d_quiver(5)):
        table, tq = ext_table(q), tilting_quiver(q)
        k = len(tq.nodes)
        assert k <= tilting.DOWN_ROWS and len(tq.heads) > k, q
        reads.clear()
        assert hasse_check(table, tq).ok, q
        assert len(reads) == k * len(q.vertices), q


def forged_failures(table, tq):
    """(table, quiver) pairs that fail hasse_check: tq with an arrow dropped,
    a transitive arrow added, an arrow reversed, an arrow repeated and a head
    outside the nodes, then tq over an all-ones `ext_zero`."""
    arrows = list(tq.arrows)
    out = dict(arrows)  # a head of each node with arrows out
    u, v = next((t, h) for t, h in arrows if h in out)
    k = len(tq.nodes)
    for pairs in (
        arrows[1:],
        arrows + [(u, out[v])],  # u -> v -> out[v], so no cover
        [arrows[0][::-1]] + arrows[1:],
        arrows + arrows[:1],
        arrows + [(0, k)],
    ):
        yield table, with_arrows(tq, pairs)
    yield forged(table, ext_zero=((1 << len(table)) - 1,) * len(table)), tq


def test_verdicts_do_not_depend_on_the_row_cache_size(monkeypatch):
    """With one down-set row kept, so that every head's row is rebuilt, and
    with every node's row kept, hasse_check gives the peel's report on the
    walked quiver and on forged failing ones, at every orientation of A5 and
    D5 and at the benchmark's A8 and D7 base orientations."""
    import tiltquiver.tilting as tilting

    certified = tilting._covers_certified
    instances = [q for kind, param in (("A", 5), ("D", 4)) for _, q in all_orientations(kind, param)]
    instances += [path_quiver(8, [c == "1" for c in "1101001"])]
    instances += [d_quiver(6, [c == "1" for c in "101101"])]
    assert len(instances) == 34
    for q in instances:
        table, tq = ext_table(q), tilting_quiver(q)
        cases = [(table, tq), *forged_failures(table, tq)]
        for at, (tab, variant) in enumerate(cases):
            with monkeypatch.context() as mp:
                # with the certificate failing every quiver, the peel decides
                mp.setattr(tilting, "_covers_certified", lambda table, tq, off: False)
                want = hasse_check(tab, variant)
            assert want.ok == (at == 0), (q, at)
            for rows in (1, len(tq.nodes)):
                monkeypatch.setattr(tilting, "DOWN_ROWS", rows)
                assert certified(tab, variant, offsets(variant)) == want.ok, (q, at, rows)
                assert hasse_check(tab, variant) == want, (q, at, rows)


def test_certificate_needs_each_node_below_itself():
    """(U) and (M) alone accept a relation that is not reflexive.

    Two one-summand nodes a, b over a one-vertex quiver, with down[a] = {b},
    down[b] = {a} and all four arrows a -> a, a -> b, b -> a, b -> b: the
    heads' down-sets of each node are down[node] with the node added, and
    no head lies in two of them.
    """
    import tiltquiver.tilting as tilting

    one = path_quiver(1)
    table = forged(ext_table(one), dims=((1,), (1,)), ext_zero=(0b10, 0b01))
    tq = forged(
        tilting_quiver(one),
        table=table,
        summands=bytes((0, 1)),
        heads=array("I", [0, 1, 0, 1]),
        out_deg=bytes((2, 2)),
        delta=bytes((4, 4)),
    )
    assert not tilting._covers_certified(table, tq, offsets(tq))
    with pytest.raises(RuntimeError, match="node 0 is not <= itself"):
        hasse_check(table, tq)


def test_certificate_alone_decides_a_passing_quiver(monkeypatch):
    """A quiver that passes never reaches the up-set rows or the peel."""
    import tiltquiver.tilting as tilting

    def refuse(table, nodes):
        raise AssertionError("order_bitsets called")

    monkeypatch.setattr(tilting, "order_bitsets", refuse)
    instances = [q for kind, param in (("A", 5), ("D", 4)) for _, q in all_orientations(kind, param)]
    assert len(instances) == 32
    for q in instances:
        assert hasse_check(ext_table(q), tilting_quiver(q)).ok, q
    # a failing quiver goes on to the peel, which reads the rows
    tq = tilting_quiver(path_quiver(4))
    with pytest.raises(AssertionError, match="order_bitsets called"):
        hasse_check(ext_table(path_quiver(4)), with_arrows(tq, list(tq.arrows)[1:]))


def test_hasse_check_reports_heads_outside_the_nodes():
    q = path_quiver(4)
    table = ext_table(q)
    tq = tilting_quiver(q)
    k = len(tq.nodes)
    arrows = list(tq.arrows)
    assert hasse_check(table, with_arrows(tq, arrows + [(3, k), (0, k + 7)])) == HasseReport(
        False, extra=((0, k + 7), (3, k))
    )
    # rows that do not add up to the heads, or to the nodes, are no arrow set
    for bad in (
        forged(tq, out_deg=tq.out_deg[:-1]),
        forged(tq, out_deg=tq.out_deg + bytes(1)),
        forged(tq, heads=tq.heads[:-1]),
    ):
        with pytest.raises(ValueError, match="arrow rows do not match the nodes"):
            hasse_check(table, bad)


def test_hasse_check_reports_antisymmetry_failure():
    q = path_quiver(4)
    table = ext_table(q)
    everything = forged(table, ext_zero=((1 << len(table)) - 1,) * len(table))
    assert hasse_check(everything, tilting_quiver(q)) == HasseReport(False, extra=((0, 1),))


def test_hasse_check_rejects_a_relation_that_is_not_an_order():
    q = path_quiver(4)
    table = ext_table(q)
    tq = tilting_quiver(q)
    nodes = tq.nodes
    zero = list(table.ext_zero)
    zero[0] ^= 1 << 4
    broken = forged(table, ext_zero=tuple(zero))
    assert leq(broken, nodes[7], nodes[5]) and leq(broken, nodes[5], nodes[0])
    assert not leq(broken, nodes[7], nodes[0])
    with pytest.raises(RuntimeError, match="not transitive: 7 <= 5 <= 0"):
        hasse_check(broken, tq)
    zero = list(table.ext_zero)
    zero[0] ^= 1  # Ext^1(S, S) != 0 for the summand S = id 0 of node 0
    with pytest.raises(RuntimeError, match="node 0 is not <= itself"):
        hasse_check(forged(table, ext_zero=tuple(zero)), tq)


def test_hasse_check_rejects_a_table_of_another_quiver():
    tq = tilting_quiver(path_quiver(3))
    for other in (path_quiver(4), path_quiver(3, [True, False])):
        with pytest.raises(ValueError, match="different quivers"):
            hasse_check(ext_table(other), tq)


def test_degree_stats():
    tq = tilting_quiver(path_quiver(4))
    report = degree_stats(tq)
    assert report.formula_ok
    assert report.histogram == {3: 14}
    tq = tilting_quiver(d_quiver(3))
    report = degree_stats(tq)
    assert report.formula_ok
    assert report.histogram == {2: 2, 3: 12, 4: 6}
    tq = tilting_quiver(path_quiver(1))
    assert degree_stats(tq).histogram == {0: 1}


def test_degree_stats_reports_a_forged_delta_as_the_module_dim_formula():
    """Each node whose degree is not #vertices minus the module's dimension-one
    vertices (`module_dim`) is one (node, delta, predicted) mismatch, at every
    orientation of A4 and D4, with every third degree forged one too high."""
    for kind, param in (("A", 4), ("D", 3)):
        for bits, q in all_orientations(kind, param):
            tq = transient_quiver(q)
            n_vert = len(q.vertices)
            predicted = [
                n_vert - sum(d == 1 for d in module_dim(tq.table, t).values()) for t in tq.nodes
            ]
            assert degree_stats(tq).mismatches == ()
            assert list(tq.delta) == predicted, (kind, bits)
            delta = bytes(d + (i % 3 == 0) for i, d in enumerate(tq.delta))
            report = degree_stats(forged(tq, delta=delta))
            want = tuple(
                (i, d, p) for i, (d, p) in enumerate(zip(delta, predicted)) if d != p
            )
            assert want and report.mismatches == want, (kind, bits)
            assert not report.formula_ok
            assert sum(report.histogram.values()) == len(delta)


def test_report_and_indecomposable_records_refuse_assignment():
    """`HasseReport`, `DegreeReport`, `rep.Indec`, `TiltingQuiver`,
    `classify.DClassification` and `rep.Rep` are read-only records: assigning
    any field raises, and `HasseReport`'s repr names every field.  A quiver
    walked over another table object is another quiver, though it stores
    the same nodes, arrows and degrees."""
    q = path_quiver(3)
    tq = tilting_quiver(q)
    d = d_quiver(3)
    records = [
        (hasse_check(ext_table(q), tq), ("ok", "missing", "extra")),
        (degree_stats(tq), ("histogram", "formula_ok", "mismatches")),
        (rep.indecomposables(q)[0], ("id", "rep", "dim", "model")),
        (tq, ("table", "summands", "heads", "out_deg", "delta")),
        (
            classify.classify(ext_table(d), enumerate_tilting(d)[0]),
            ("n", "summands", "bucket", "tags", "problems", "dim_one_vertex", "m0"),
        ),
        (rep.indecomposables(q)[0].rep, ("quiver", "dims", "maps")),
    ]
    for record, fields in records:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
    assert repr(HasseReport(True)) == "HasseReport(ok=True, missing=(), extra=())"
    own = transient_quiver(q)
    assert own.table is not tq.table
    assert (own.summands, own.heads, own.out_deg, own.delta) == (
        tq.summands, tq.heads, tq.out_deg, tq.delta
    )
    assert own != tq


def test_half_degree_sum():
    for q in (path_quiver(4), d_quiver(3)):
        tq = tilting_quiver(q)
        assert 2 * len(tq.arrows) == sum(tq.delta)


def test_closed_form_count_examples():
    assert closed_form_counts("A", 3) == (5, 5)
    assert closed_form_counts("A", 4) == (14, 21)
    assert closed_form_counts("D", 4) == (20, 32)
    assert closed_form_counts("D", 3) == (5, 5)  # alias of A3
    assert closed_form_counts("A", 1) == (1, 0)
    with pytest.raises(ValueError):
        closed_form_counts("A", 0)
    with pytest.raises(ValueError):
        closed_form_counts("D", 2)
    with pytest.raises(ValueError):
        closed_form_counts("E", 6)


def test_orientation_independence_small():
    for kind, fork, rank in (("A", 4, 4), ("D", 3, 4)):
        want = closed_form_counts(kind, rank)
        for _, q in all_orientations(kind, fork if kind == "D" else rank):
            tq = tilting_quiver(q)
            assert (len(tq.nodes), len(tq.arrows)) == want


def test_module_dim_and_is_tilting():
    q = d_quiver(3)
    table = ext_table(q)
    t = enumerate_tilting(q)[0]
    dims = module_dim(table, t)
    assert set(dims) == set(q.vertices)
    assert all(v >= 1 for v in dims.values())
    assert is_tilting(table, t)
    assert not is_tilting(table, t[:-1])


def test_json_and_dot_export():
    tq = tilting_quiver(path_quiver(3))
    data = tilting_quiver_json(tq)
    assert list(data.keys()) == ["quiver", "nodes", "arrows", "delta"]
    assert len(data["nodes"]) == 5 and len(data["arrows"]) == 5
    assert data["delta"] == [2, 2, 2, 2, 2]
    json.dumps(data)
    dot = tilting_quiver_dot(tq)
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph tilting {" and lines[-1] == "}"
    assert sum(1 for ln in lines if "->" in ln) == 5
    assert sum(1 for ln in lines if "label=" in ln) == 5
    assert 'label="L(2,3)|L(1,3)|L(0,3)"' in dot


# (type, --orientation, quiver) for the writer checks: A1 (no arrows), every
# orientation of A4 and of the D quiver of fork parameter 3, and A8, whose
# nodes and arrows both span several slices.
EXPORT_INSTANCES = [("A", "reference", path_quiver(1))]
EXPORT_INSTANCES += [
    (kind, "".join("1" if b else "0" for b in bits), q)
    for kind, param in (("A", 4), ("D", 3))
    for bits, q in all_orientations(kind, param)
]
EXPORT_INSTANCES += [("A", "reference", path_quiver(8))]


def test_json_chunks_match_json_dumps():
    big = tilting_quiver(EXPORT_INSTANCES[-1][2])
    assert SLICE < len(big.nodes) and SLICE < len(big.arrows)
    for _, _, q in EXPORT_INSTANCES:
        tq = tilting_quiver(q)
        text = "".join(tilting_quiver_json_chunks(tq))
        assert text == json.dumps(tilting_quiver_json(tq)) + "\n", q


def test_enumerate_json_matches_json_dumps(capsys):
    for kind, orientation, q in EXPORT_INSTANCES:
        rank = len(q.vertices)
        assert main(["enumerate", "--type", kind, "--rank", str(rank), "--orientation", orientation]) == 0
        labels = ext_table(q).labels()
        payload = {
            "type": kind,
            "rank": rank,
            "orientation": orientation,
            "count": len(enumerate_tilting(q)),
            "modules": [
                {"ids": list(t), "labels": [labels[s] for s in t]} for t in enumerate_tilting(q)
            ],
        }
        assert capsys.readouterr().out == json.dumps(payload) + "\n", q


def test_dot_chunks_match_line_rendering():
    for _, _, q in EXPORT_INSTANCES:
        tq = tilting_quiver(q)
        labels = ext_table(q).labels()
        lines = ["digraph tilting {\n"]
        lines += [
            f'  t{i} [label="{"|".join([labels[s] for s in t])}", delta={d}];\n'
            for i, (t, d) in enumerate(zip(tq.nodes, tq.delta))
        ]
        lines += [f"  t{a} -> t{b};\n" for a, b in tq.arrows]
        lines += ["}\n"]
        assert "".join(tilting_quiver_dot_chunks(tq)) == "".join(lines), q


def test_unique_source_and_sink():
    for q in (path_quiver(4), d_quiver(3)):
        tq = tilting_quiver(q)
        in_deg = [d - o for d, o in zip(tq.delta, tq.out_deg)]
        assert sum(1 for d in in_deg if d == 0) == 1
        assert sum(1 for d in tq.out_deg if d == 0) == 1
