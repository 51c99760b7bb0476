from collections import Counter

import pytest
from forge import forged

from tiltquiver import classify as cl
from tiltquiver import glue, rep, verify
from tiltquiver.models import AInterval, DIndec, all_orientations
from tiltquiver.quiver import (
    d_quiver,
    delete_vertex,
    path_quiver,
    reflect,
)
from tiltquiver.tilting import enumerate_tilting, ext_table, tilting_quiver


def module_of(table, *mods):
    by_model = {m: i for i, m in enumerate(table.models)}
    return tuple(sorted(by_model[m] for m in mods))


def test_split_a2():
    q = path_quiver(2)
    table = ext_table(q)
    inside, outside = glue.split_by_simple(q, "1")
    assert inside == [module_of(table, AInterval(0, 1), AInterval(0, 2))]
    assert outside == [module_of(table, AInterval(1, 2), AInterval(0, 2))]


def test_split_requires_source_or_sink():
    q = path_quiver(3)  # vertex 2 has one arrow in and one out
    with pytest.raises(ValueError):
        glue.split_by_simple(q, "2")


def test_split_sizes_match_smaller_quiver():
    q = path_quiver(3)
    inside, _ = glue.split_by_simple(q, "1")
    assert len(inside) == len(enumerate_tilting(delete_vertex(q, "1"))) == 2
    q = d_quiver(3)
    inside, _ = glue.split_by_simple(q, "3+")
    assert len(inside) == len(enumerate_tilting(delete_vertex(q, "3+"))) == 5


def test_split_on_a1_everything_inside():
    q = path_quiver(1)
    inside, outside = glue.split_by_simple(q, "1")
    assert len(inside) == 1 and not outside


def test_project_a2():
    q = path_quiver(2)
    table = ext_table(q)
    small_table = ext_table(delete_vertex(q, "1"))
    for t in enumerate_tilting(q):
        image = glue.project(q, "1", t)
        assert [small_table.dims[s] for s in image] == [(1,)]


def test_project_decomposes_thick_restrictions():
    # dropping the stem end splits the sincere thick module into both fork strands
    q = d_quiver(3)
    table = ext_table(q)
    t = module_of(
        table,
        DIndec("M", 0, 1),
        DIndec("M", 0, 2),
        DIndec("L+", 0, 3),
        DIndec("L-", 0, 3),
    )
    image = glue.project(q, "1", t)
    small_table = ext_table(delete_vertex(q, "1"))
    dims = sorted(small_table.dims[s] for s in image)
    assert dims == [(1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_rigid_decomposition_unique():
    small = delete_vertex(d_quiver(3), "1")
    table = ext_table(small)
    ids = glue.rigid_summand_ids(table, (2, 1, 1))
    dims = sorted(table.dims[i] for i in ids)
    assert dims == [(1, 0, 1), (1, 1, 0)]


def test_a_decomposition_leaves_no_cyclic_garbage():
    """The decomposition is a module-level recursion with its state passed
    in, which no closure holds, so nothing it builds waits for the cyclic
    collector: with the collector off, a collection right after a
    decomposition, or after building a leaf's id maps from them, finds
    nothing to free."""
    import gc

    small = delete_vertex(d_quiver(3), "1")
    table = ext_table(small)
    q = d_quiver(4)
    for built in (q, delete_vertex(q, "4+")):
        ext_table(built)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            glue.rigid_summand_ids(table, (2, 1, 1))
            assert gc.collect() == 0
        glue._leaf_maps.__wrapped__(q, "4+")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lift_a2():
    q = path_quiver(2)
    table = ext_table(q)
    small = delete_vertex(q, "1")
    (t_small,) = enumerate_tilting(small)
    lifted = glue.lift(q, "1", t_small)
    assert lifted == module_of(table, AInterval(0, 1), AInterval(0, 2))


def test_closure_identities():
    for q, x in (
        (path_quiver(3), "1"),
        (path_quiver(3), "3"),
        (path_quiver(4), "1"),
        (path_quiver(4), "4"),
        (d_quiver(3), "1"),
        (d_quiver(3), "3+"),
    ):
        found = verify._leaf_closure((q, x))
        assert found is None, (q, x, found)


def test_closure_report_projects_each_module_once(monkeypatch):
    # the whole glue suite decomposes each root at most once per (q, x):
    # project and lift read the per-leaf id maps, built on first use
    calls = []
    real = glue.rigid_summand_ids

    def counting(table, target):
        calls.append((table.quiver, tuple(target)))
        return real(table, target)

    monkeypatch.setattr(glue, "rigid_summand_ids", counting)
    assert {r.status for r in verify.run_suite("glue", 5)} == {"pass"}
    points = [point for _, point in verify._instances(verify._LEAVES, 5)]
    keys = set(points) | {(reflect(q, x), x) for q, x in points}
    assert {small for small, _ in calls} <= {delete_vertex(q, x) for q, x in keys}
    assert 0 < len(calls) <= sum(len(ext_table(q)) for q, _ in keys)


def test_leaf_maps_match_the_functors():
    # the id maps of project, lift and transport against rep's functors
    for kind, param in (("A", 5), ("D", 4)):
        for bits, q in all_orientations(kind, param):
            reps = [ind.rep for ind in rep.indecomposables(q)]
            table = ext_table(q)
            assert [r.dim_tuple() for r in reps] == list(table.dims)
            for x in q.vertices:
                if not q.is_leaf(x) or not (q.is_source(x) or q.is_sink(x)):
                    continue
                small, down, up = glue._leaf_maps(q, x)
                small_table = ext_table(small)
                for i, r in enumerate(reps):
                    target = rep.restrict(q, x, r).dim_tuple()
                    want = set()
                    if any(target):
                        want.update(glue.rigid_summand_ids(small_table, target))
                    assert down[i] == sum(1 << j for j in want), (bits, x, i)
                small_reps = [ind.rep for ind in rep.indecomposables(small)]
                assert [r.dim_tuple() for r in small_reps] == list(small_table.dims)
                assert up == tuple(
                    table.id_by_dim[rep.extend(q, x, r).dim_tuple()] for r in small_reps
                ), (bits, x)
                src = q.is_source(x)
                functor = rep.reflection_minus if src else rep.reflection_plus
                table2 = ext_table(reflect(q, x))
                moved = {
                    i: table2.id_by_dim[functor(q, x, r).dim_tuple()]
                    for i, r in enumerate(reps)
                    if i != glue.simple_summand_id(table, x)
                }
                for t, u in glue.transport_map(q, x).items():
                    assert u == tuple(sorted(moved[i] for i in t))


def test_glued_order():
    for q, x in (
        (path_quiver(3), "1"),
        (path_quiver(3), "3"),
        (path_quiver(4), "1"),
        (d_quiver(3), "3-"),
    ):
        found = verify._glued_order((q, x))
        assert found is None, (q, x, found)


def test_transport_a2():
    q = path_quiver(2)
    assert verify._complement_transport((q, "1")) is None
    ((src, dst),) = glue.transport_map(q, "1").items()
    # the complement is carried to the unique complement module over 2 -> 1
    q2_table = ext_table(path_quiver(2, [False]))
    assert sorted(q2_table.dims[s] for s in dst) == [(0, 1), (1, 1)]


def test_transport_both_kinds_of_leaf():
    for q, x in (
        (path_quiver(4), "1"),
        (path_quiver(4), "4"),
        (d_quiver(3), "1"),
        (d_quiver(3), "3+"),
    ):
        found = verify._complement_transport((q, x))
        assert found is None, (q, x, found)


def test_crossing_arrows():
    for q, x, n in ((path_quiver(2), "1", 1), (path_quiver(3), "1", 2), (d_quiver(3), "3+", 5)):
        crossing, _, _ = glue.crossing_arrows(q, x)
        assert verify._crossing_arrows((q, x)) is None and len(crossing) == n, (q, x)


def test_crossing_direction():
    # source leaf: crossing arrows end at the modules containing the simple
    q = path_quiver(3)
    tq = tilting_quiver(q)
    crossing, _, _ = glue.crossing_arrows(q, "1")
    table = ext_table(q)
    s = glue.simple_summand_id(table, "1")
    assert crossing
    for a, b, endpoint in crossing:
        assert endpoint == b
        assert s in tq.nodes[b]
        assert s not in tq.nodes[a]


def decomposition(q, x):
    """(small, outside, crossing, total): the arrow counts of the decomposition."""
    crossing, _, outside = glue.crossing_arrows(q, x)
    small = len(tilting_quiver(delete_vertex(q, x)).arrows)
    return small, outside, len(crossing), len(tilting_quiver(q).arrows)


def test_arrow_decomposition_examples():
    assert decomposition(path_quiver(2), "1") == (0, 0, 1, 1)
    assert decomposition(path_quiver(3), "1") == (1, 2, 2, 5)
    assert decomposition(d_quiver(3), "1")[3] == 32
    assert decomposition(d_quiver(3), "3-")[3] == 32
    for q, x in (
        (path_quiver(2), "1"),
        (path_quiver(3), "1"),
        (d_quiver(3), "1"),
        (d_quiver(3), "3-"),
    ):
        assert verify._arrow_decomposition((q, x)) is None, (q, x)


def test_poset_axioms_hold():
    for q in (path_quiver(4), d_quiver(3)):
        assert verify._poset_axioms(q) is None


def test_order_axioms_reject_broken_relation():
    # bit j of row i iff i <= j
    assert verify._order_axioms((0b01, 0b11)) is None
    assert verify._order_axioms((0b11, 0b11)) == "relation is not antisymmetric"
    assert verify._order_axioms((0b00, 0b10)) == "relation is not reflexive"
    assert verify._order_axioms((0b011, 0b110, 0b100)) == "relation is not transitive"


def test_transport_requires_leaf():
    q = path_quiver(3, [True, False])  # 1 -> 2 <- 3: vertex 2 is a sink, not a leaf
    with pytest.raises(ValueError, match="not a leaf"):
        glue.transport_map(q, "2")
    for find in (
        verify._leaf_closure,
        verify._glued_order,
        verify._complement_transport,
        verify._arrow_decomposition,
    ):
        with pytest.raises(ValueError):
            find((q, "2"))
    q = path_quiver(3)  # vertex 2 has one arrow in and one out
    with pytest.raises(ValueError, match="not a leaf"):
        glue.transport_map(q, "2")
    with pytest.raises(ValueError, match="neither a source nor a sink"):
        glue.crossing_arrows(q, "2")


def leaf_points(kind, param):
    """(bits, q, x) at every source or sink leaf of every orientation."""
    return [
        (bits, q, x)
        for bits, q in all_orientations(kind, param)
        for x in q.vertices
        if q.is_leaf(x) and (q.is_source(x) or q.is_sink(x))
    ]


GLUE_FINDS = (
    verify._leaf_closure,
    verify._glued_order,
    verify._complement_transport,
    verify._crossing_arrows,
    verify._arrow_decomposition,
)


def test_glue_identities_hold_at_every_orientation():
    # the machinery only sees dimension vectors, so it must work off-reference
    points = [
        point
        for kind, param in (("A", 4), ("A", 5), ("A", 6), ("D", 3), ("D", 4))
        for point in leaf_points(kind, param)
    ]
    assert len(points) == 16 + 32 + 64 + 24 + 48
    for bits, q, x in points:
        for find in GLUE_FINDS:
            assert find((q, x)) is None, (find.__name__, bits, x)


# ------------------------------------------------------------------ oracle
#
# Today's finds read the order as order_bitsets rows.  These are the pairwise
# loops they replaced, on the per-pair definition of the order, each returning
# the same counterexample string.


def leq(table, t, u):
    """t <= u iff Ext^1 from every summand of u to every summand of t vanishes."""
    z = -1  # Z(u): ids j with Ext^1(i, j) = 0 for every summand i of u
    for i in u:
        z &= table.ext_zero[i]
    return all(z >> j & 1 for j in t)


def closure_oracle(q, x, table_of):
    src = q.is_source(x)
    small = delete_vertex(q, x)
    table, small_table = table_of(q), table_of(small)
    s = glue.simple_summand_id(table, x)
    section_ok = all(
        glue.project(q, x, glue.lift(q, x, t)) == t for t in enumerate_tilting(small)
    )
    closure_ok = equality_ok = True
    tilts = enumerate_tilting(q)
    proj = {t: glue.project(q, x, t) for t in tilts}
    for t in tilts:
        ft = glue.lift(q, x, proj[t])
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
    if section_ok and closure_ok and equality_ok and monotone_ok:
        return None
    return (
        f"section {section_ok}, closure {closure_ok}, "
        f"equality {equality_ok}, monotone {monotone_ok}"
    )


def glued_order_oracle(q, x, table_of):
    src = q.is_source(x)
    table = table_of(q)
    inside, outside = glue.split_by_simple(q, x)
    f = {t: glue.lift(q, x, glue.project(q, x, t)) for t in outside}
    cross_ok = forbidden_ok = True
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
    return None if cross_ok and forbidden_ok else f"cross {cross_ok}, forbidden {forbidden_ok}"


def transport_oracle(q, x, table_of):
    q2 = reflect(q, x)
    table, table2 = table_of(q), table_of(q2)
    _, outside = glue.split_by_simple(q, x)
    _, outside2 = glue.split_by_simple(q2, x)
    mapping = glue.transport_map(q, x)
    image = sorted(mapping.values())
    bijective = image == sorted(outside2) and len(set(image)) == len(image)
    order_iso = all(
        leq(table, t, u) == leq(table2, mapping[t], mapping[u])
        for t in outside
        for u in outside
    )
    commutes = all(glue.project(q, x, t) == glue.project(q2, x, mapping[t]) for t in outside)
    if bijective and order_iso and commutes:
        return None
    return f"bijective {bijective}, order {order_iso}, commutes {commutes}"


def crossing_counts_oracle(q, x):
    """(#crossing, #inside, #outside, direction_ok, bijection_ok), arrow by arrow."""
    sink = q.is_sink(x)
    tq = tilting_quiver(q)
    s = glue.simple_summand_id(ext_table(q), x)
    has_simple = [s in t for t in tq.nodes]
    inside = outside = 0
    endpoints = []
    direction_ok = True
    for a, b in tq.arrows:
        ia, ib = has_simple[a], has_simple[b]
        if ia and ib:
            inside += 1
        elif not ia and not ib:
            outside += 1
        else:
            # sink: arrows leave Tilt^x; source: arrows enter it
            if (sink and not ia) or (not sink and not ib):
                direction_ok = False
            endpoints.append(a if ia else b)
    bijection_ok = len(set(endpoints)) == len(endpoints) == sum(has_simple)
    return len(endpoints), inside, outside, direction_ok, bijection_ok


def crossing_oracle(q, x, table_of):
    n_crossing, _, _, direction_ok, bijection_ok = crossing_counts_oracle(q, x)
    inside, _ = glue.split_by_simple(q, x)
    if direction_ok and bijection_ok and n_crossing == len(inside):
        return None
    return f"{n_crossing} crossing vs {len(inside)} modules"


def decomposition_oracle(q, x, table_of):
    n_crossing, inside, outside, _, _ = crossing_counts_oracle(q, x)
    small = len(tilting_quiver(delete_vertex(q, x)).arrows)
    total = len(tilting_quiver(q).arrows)
    reflected = len(tilting_quiver(reflect(q, x)).arrows)
    if small + outside + n_crossing == total and reflected == total and inside == small:
        return None
    return f"{small}+{outside}+{n_crossing} vs {total}, reflected {reflected}"


def poset_oracle(rows):
    """The pairwise axiom loops over a relation given as row bitmasks."""
    k = len(rows)
    for i in range(k):
        if not (rows[i] >> i) & 1:
            return "relation is not reflexive"
        for j in range(k):
            if i != j and (rows[i] >> j) & 1 and (rows[j] >> i) & 1:
                return "relation is not antisymmetric"
    for i in range(k):
        for j in range(k):
            if rows[i] >> j & 1 and rows[j] & ~rows[i]:
                return "relation is not transitive"
    return None


ORACLES = (
    (verify._leaf_closure, closure_oracle),
    (verify._glued_order, glued_order_oracle),
    (verify._complement_transport, transport_oracle),
    (verify._crossing_arrows, crossing_oracle),
    (verify._arrow_decomposition, decomposition_oracle),
)


def flip(table, i, j):
    """The table with bit j of ext_zero[i] flipped."""
    zero = list(table.ext_zero)
    zero[i] ^= 1 << j
    return forged(table, ext_zero=tuple(zero))


def test_row_finds_match_the_pairwise_oracle(monkeypatch):
    # on the real table and with one ext_zero bit flipped: one in the row of
    # the simple at x, one between two other summands
    fails = Counter()
    for kind, param in (("A", 5), ("D", 3)):
        for bits, q, x in leaf_points(kind, param):
            table = ext_table(q)
            s = glue.simple_summand_id(table, x)
            pairs = [
                (i, j)
                for i in range(len(table))
                for j in range(len(table))
                if i != j and table.compat[i] >> j & 1
            ]
            flips = [next(p for p in pairs if p[0] == s), next(p for p in pairs if s not in p)]
            for broken in [table] + [flip(table, i, j) for i, j in flips]:
                monkeypatch.setattr(verify, "ext_table", lambda p: broken if p == q else ext_table(p))
                for find, oracle in ORACLES:
                    found = find((q, x))
                    assert found == oracle(q, x, verify.ext_table), (find.__name__, bits, x)
                    fails[find.__name__, broken is table] += found is not None
                nodes = enumerate_tilting(q)
                rows = [sum(1 << b for b, u in enumerate(nodes) if leq(broken, t, u)) for t in nodes]
                found = verify._poset_axioms(q)
                assert found == poset_oracle(rows), (bits, x)
                fails["_poset_axioms", broken is table] += found is not None
    assert not any(n for (_, real), n in fails.items() if real)
    assert {name for (name, real), n in fails.items() if n} == {
        "_leaf_closure",
        "_glued_order",
        "_complement_transport",
        "_poset_axioms",
    }, fails
