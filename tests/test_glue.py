import pytest

from tiltquiver import classify as cl
from tiltquiver import glue, verify
from tiltquiver.models import AInterval, DIndec
from tiltquiver.quiver import d_quiver, delete_vertex, path_quiver, reflect
from tiltquiver.tilting import TiltingModule, enumerate_tilting, ext_table, tilting_quiver


def module_of(table, *mods):
    by_model = {m: i for i, m in enumerate(table.models)}
    return TiltingModule(tuple(sorted(by_model[m] for m in mods)))


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
        assert [small_table.dim_tuple(s) for s in image.summands] == [(1,)]


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
    dims = sorted(small_table.dim_tuple(s) for s in image.summands)
    assert dims == [(1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_rigid_decomposition_unique():
    small = delete_vertex(d_quiver(3), "1")
    table = ext_table(small)
    ids = glue.rigid_summand_ids(table, (2, 1, 1))
    dims = sorted(table.dim_tuple(i) for i in ids)
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
    q = path_quiver(5)
    calls = []
    real = glue.project

    def counting_project(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(glue, "project", counting_project)
    glue._projection_map.cache_clear()
    assert glue.closure_report(q, "1").ok
    assert 0 < len(calls) <= len(enumerate_tilting(q))

    # the whole glue suite shares one projection map per (q, x): no module
    # is projected twice, and only modules of a point or of its reflection
    calls.clear()
    glue._projection_map.cache_clear()
    assert {r.status for r in verify.run_suite("glue", 5)} == {"pass"}
    assert len(calls) == len(set(calls))
    points = [point for _, point in verify._glue_points(5)]
    keys = set(points) | {(reflect(q, x), x) for q, x in points}
    assert {(q, x) for q, x, _ in calls} <= keys
    assert 0 < len(calls) <= sum(len(enumerate_tilting(q)) for q, _ in keys)


def test_representations_must_match_the_table_ids(monkeypatch):
    q = path_quiver(3)
    assert [r.dim_tuple() for r in glue._indec_reps(q)] == list(ext_table(q).dims)
    real = glue.indecomposables
    monkeypatch.setattr(glue, "indecomposables", lambda q: real(q)[::-1])
    with pytest.raises(RuntimeError, match="do not match the Ext table ids"):
        glue._indec_reps.__wrapped__(q)


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
    assert sorted(q2_table.dim_tuple(s) for s in dst.summands) == [(0, 1), (1, 1)]


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
        assert s in tq.nodes[b].summands
        assert s not in tq.nodes[a].summands


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
    from tiltquiver.quiver import all_orientations

    for kind, param in (("A", 4), ("D", 3)):
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
