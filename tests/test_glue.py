import pytest

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
        report = glue.closure_report(q, x)
        assert report.ok, (q, x, report)


def test_closure_report_projects_each_module_once(monkeypatch):
    # the whole glue suite decomposes each root at most once per (q, x):
    # project and lift read the per-leaf id maps, built on first use
    calls = []
    real = glue.rigid_summand_ids

    def counting(table, target):
        calls.append((table.quiver, tuple(target)))
        return real(table, target)

    monkeypatch.setattr(glue, "rigid_summand_ids", counting)
    glue._leaf_maps.cache_clear()
    assert {r.status for r in verify.run_suite("glue", 5)} == {"pass"}
    points = [point for _, point in verify._glue_points(5)]
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
                for t, u in glue.transport_complement(q, x).mapping.items():
                    assert u == tuple(sorted(moved[i] for i in t))


def test_glued_order():
    for q, x in (
        (path_quiver(3), "1"),
        (path_quiver(3), "3"),
        (path_quiver(4), "1"),
        (d_quiver(3), "3-"),
    ):
        report = glue.glued_order_report(q, x)
        assert report.ok, (q, x, report)


def test_transport_a2():
    q = path_quiver(2)
    report = glue.transport_complement(q, "1")
    assert report.ok
    ((src, dst),) = report.mapping.items()
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
        report = glue.transport_complement(q, x)
        assert report.ok, (q, x, report)


def test_crossing_arrows():
    q = path_quiver(2)
    report = glue.crossing_report(q, "1")
    assert report.ok and len(report.crossing) == 1
    q = path_quiver(3)
    report = glue.crossing_report(q, "1")
    assert report.ok and len(report.crossing) == 2
    q = d_quiver(3)
    report = glue.crossing_report(q, "3+")
    assert report.ok and len(report.crossing) == 5


def test_crossing_direction():
    # source leaf: crossing arrows end at the modules containing the simple
    q = path_quiver(3)
    tq = tilting_quiver(q)
    report = glue.crossing_report(q, "1")
    table = ext_table(q)
    s = glue.simple_summand_id(table, "1")
    for a, b, endpoint in report.crossing:
        assert endpoint == b
        assert s in tq.nodes[b]
        assert s not in tq.nodes[a]


def test_arrow_decomposition_examples():
    d = glue.arrow_decomposition(path_quiver(2), "1")
    assert (d.small, d.outside, d.crossing, d.total) == (0, 0, 1, 1)
    assert d.ok
    d = glue.arrow_decomposition(path_quiver(3), "1")
    assert (d.small, d.outside, d.crossing, d.total) == (1, 2, 2, 5)
    assert d.ok
    d = glue.arrow_decomposition(d_quiver(3), "1")
    assert d.total == 32 and d.ok
    d = glue.arrow_decomposition(d_quiver(3), "3-")
    assert d.total == 32 and d.ok


def test_poset_view_axioms():
    for q in (path_quiver(4), d_quiver(3)):
        glue.poset_view(q).validate()


def test_poset_view_rejects_broken_relation():
    view = glue.PosetView(("a", "b"), (0b01, 0b11))
    view.validate()
    with pytest.raises(RuntimeError):
        glue.PosetView(("a", "b"), (0b11, 0b11)).validate()
    with pytest.raises(RuntimeError):
        glue.PosetView(("a", "b"), (0b00, 0b10)).validate()


def test_transport_requires_leaf():
    q = path_quiver(3, [True, False])
    with pytest.raises(ValueError):
        glue.transport_complement(q, "2")


def test_glue_identities_hold_at_every_orientation():
    # the machinery only sees dimension vectors, so it must work off-reference
    for kind, param in (("A", 4), ("A", 5), ("D", 3)):
        for bits, q in all_orientations(kind, param):
            for x in q.vertices:
                if not q.is_leaf(x) or not (q.is_source(x) or q.is_sink(x)):
                    continue
                assert glue.closure_report(q, x).ok, (bits, x)
                assert glue.glued_order_report(q, x).ok, (bits, x)
                assert glue.transport_complement(q, x).ok, (bits, x)
                cr = glue.crossing_report(q, x)
                inside, _ = glue.split_by_simple(q, x)
                assert cr.ok and len(cr.crossing) == len(inside), (bits, x)
                assert glue.arrow_decomposition(q, x).ok, (bits, x)
