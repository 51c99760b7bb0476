import json
from collections import deque

import pytest

from tiltquiver.models import FAMILIES, all_orientations
from tiltquiver.quiver import (
    Quiver,
    admissible_sink_order,
    automorphism,
    canonical_form,
    classify_tree,
    d_quiver,
    delete_vertex,
    opposite,
    path_quiver,
    quiver_to_json,
    reflect,
    sink_reflection_sequence,
    tree_edges,
    twins,
    vertex_key,
)


def test_path_quiver_examples():
    q = path_quiver(2, [True])
    assert q.vertices == ("1", "2")
    assert q.arrows == (("1", "2"),)
    q = path_quiver(1, [])
    assert q.vertices == ("1",)
    assert q.arrows == ()
    q = path_quiver(3, [True, False])
    assert set(q.arrows) == {("1", "2"), ("3", "2")}


def test_path_quiver_rejects_rank_zero():
    with pytest.raises(ValueError):
        path_quiver(0)
    with pytest.raises(ValueError):
        path_quiver(3, [True])


def test_quiver_is_an_immutable_value():
    """Quivers key the caches: equal and hashed by their sorted vertices and
    arrows, whatever order they were given in, and never changed."""
    q = path_quiver(3, [True, False])
    same = Quiver(("3", "2", "1"), (("3", "2"), ("1", "2")))
    assert q == same and hash(q) == hash(same)
    assert q != path_quiver(3) and q != (q.vertices, q.arrows)
    assert repr(path_quiver(2)) == "Quiver(vertices=('1', '2'), arrows=(('1', '2'),))"
    with pytest.raises(AttributeError):
        q.arrows = ()
    with pytest.raises(AttributeError):
        del q.vertices
    with pytest.raises(AttributeError):
        q.label = "A3"
    assert q == same


def test_d_quiver_examples():
    q = d_quiver(3)
    assert q.vertices == ("1", "2", "3+", "3-")
    assert set(q.arrows) == {("1", "2"), ("2", "3+"), ("2", "3-")}
    q = d_quiver(2)
    assert q.vertices == ("1", "2+", "2-")
    assert set(q.arrows) == {("1", "2+"), ("1", "2-")}
    q = d_quiver(3, [False, False, False])
    assert set(q.arrows) == {("2", "1"), ("3+", "2"), ("3-", "2")}


def test_d_quiver_rejects_small_fork():
    with pytest.raises(ValueError):
        d_quiver(1)


def test_reflect_examples():
    q = path_quiver(2)
    assert reflect(q, "2").arrows == (("2", "1"),)
    q3 = path_quiver(3)
    assert set(reflect(q3, "2").arrows) == {("2", "1"), ("3", "2")}
    with pytest.raises(ValueError):
        reflect(q, "7")


def test_reflect_is_an_involution_everywhere():
    for _, q in all_orientations("A", 4):
        for x in q.vertices:
            assert reflect(reflect(q, x), x) == q
    for _, q in all_orientations("D", 3):
        for x in q.vertices:
            assert reflect(reflect(q, x), x) == q


def test_opposite_is_an_involution_that_flips_every_orientation_bit():
    for kind, n in (("A", 1), ("A", 4), ("D", 3), ("D", 4)):
        build = FAMILIES[kind].reference
        for bits, q in all_orientations(kind, n):
            op = opposite(q)
            assert opposite(op) == q, (kind, bits)
            assert tree_edges(op) == tree_edges(q), (kind, bits)
            assert op == build(n, [not b for b in bits]), (kind, bits)
            assert (op == q) == ((kind, n) == ("A", 1)), (kind, bits)


def test_automorphism_reverses_the_path_and_swaps_the_fork_tips():
    for kind, n in (("A", 1), ("A", 2), ("A", 5), ("D", 2), ("D", 3), ("D", 5)):
        build = FAMILIES[kind].reference
        for bits, q in all_orientations(kind, n):
            if kind == "A":
                # edge i joins i+1 and i+2; the reversal turns it round onto edge n-2-i
                want = [not b for b in reversed(bits)]
            else:
                want = [*bits[:-2], bits[-1], bits[-2]]
            alpha = automorphism(q)
            if want == list(bits):
                assert alpha is None, (kind, bits)
                continue
            image, perm = alpha
            assert image == build(n, want), (kind, bits)
            v = q.vertices
            moved = {(v[perm[v.index(a)]], v[perm[v.index(b)]]) for a, b in q.arrows}
            assert moved == set(image.arrows), (kind, bits)
            assert automorphism(image) == (q, perm), (kind, bits)
    # the tree's shape decides, not its labels
    q = delete_vertex(path_quiver(4, [True, True, True]), "1")
    assert automorphism(q) == (opposite(q), (2, 1, 0))
    assert automorphism(delete_vertex(path_quiver(4, [True, True, False]), "1")) is None


def test_twins_list_the_orbit_opposite_first_and_lazily(monkeypatch):
    """Q^op first; aQ and aQ^op follow, with the automorphism's perm, only
    when it moves q, and the automorphism is not applied until the second
    twin is asked for."""
    import tiltquiver.quiver as quiver

    for kind, n in (("A", 1), ("A", 5), ("D", 3), ("D", 5)):
        for bits, q in all_orientations(kind, n):
            alpha = automorphism(q)
            want = [(opposite(q), True, None)]
            if alpha is not None:
                want += [(alpha[0], False, alpha[1]), (opposite(alpha[0]), True, alpha[1])]
            assert list(twins(q)) == want, (kind, bits)
    calls = []
    monkeypatch.setattr(quiver, "automorphism", lambda q: calls.append(q))
    q = path_quiver(4, [True, False, False])
    assert next(twins(q)) == (opposite(q), True, None) and calls == []


def test_delete_vertex_examples():
    q = path_quiver(2)
    small = delete_vertex(q, "1")
    assert small.vertices == ("2",)
    small = delete_vertex(d_quiver(3), "1")
    assert set(small.arrows) == {("2", "3+"), ("2", "3-")}
    with pytest.raises(ValueError):
        delete_vertex(path_quiver(3), "2")
    with pytest.raises(ValueError):
        delete_vertex(q, "9")


def test_every_connected_quiver_has_sink_and_source():
    for kind, n in (("A", 4), ("D", 3)):
        for _, q in all_orientations(kind, n):
            assert any(map(q.is_sink, q.vertices)) and any(map(q.is_source, q.vertices))


def test_sink_reflection_sequence_reaches_every_orientation():
    ref = path_quiver(4)
    for _, q in all_orientations("A", 4):
        seq = sink_reflection_sequence(ref, q)
        cur = ref
        for x in seq:
            assert cur.is_sink(x)
            cur = reflect(cur, x)
        assert cur == q
    ref = d_quiver(3)
    for _, q in all_orientations("D", 3):
        seq = sink_reflection_sequence(ref, q)
        cur = ref
        for x in seq:
            assert cur.is_sink(x)
            cur = reflect(cur, x)
        assert cur == q


def _quiver_bfs_sequence(start, goal):
    """Oracle: the same BFS, walking validated Quiver objects."""
    seen = {start.arrows: ()}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        path = seen[q.arrows]
        if q == goal:
            return list(path)
        for x in sorted(start.vertices, key=vertex_key):
            if q.is_sink(x):
                nq = reflect(q, x)
                if nq.arrows not in seen:
                    seen[nq.arrows] = path + (x,)
                    queue.append(nq)
    raise AssertionError("unreachable")


def test_sink_reflection_sequence_matches_quiver_bfs_at_every_pair():
    for kind, rank in (("A", 5), ("D", 4)):
        quivers = [q for _, q in all_orientations(kind, rank)]
        for start in quivers:
            for goal in quivers:
                want = _quiver_bfs_sequence(start, goal)
                assert sink_reflection_sequence(start, goal) == want, (start, goal)


def test_admissible_sink_order_round_trip():
    for q in (path_quiver(4), d_quiver(3), path_quiver(3, [False, True])):
        order = admissible_sink_order(q)
        assert sorted(order) == sorted(q.vertices)
        cur = q
        for x in order:
            assert cur.is_sink(x)
            cur = reflect(cur, x)
        assert cur == q


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError):
        Quiver(("1",), (("1", "1"),))
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (("1", "2"), ("2", "1")))
    with pytest.raises(ValueError):
        Quiver(("1", "2", "3"), (("1", "2"),))


def test_json_round_trip_and_field_order():
    q = d_quiver(3)
    data = quiver_to_json(q)
    assert list(data.keys()) == ["vertices", "arrows"]
    assert data["vertices"] == ["1", "2", "3+", "3-"]
    back = json.loads(json.dumps(data))
    assert Quiver(tuple(back["vertices"]), tuple(map(tuple, back["arrows"]))) == q


def test_classify_tree():
    assert classify_tree(path_quiver(5)) == ("A", 5)
    assert classify_tree(d_quiver(4)) == ("D", 4)
    assert classify_tree(d_quiver(2)) == ("D", 2)
    # deleting a fork tip leaves a path
    assert classify_tree(delete_vertex(d_quiver(3), "3+")) == ("A", 3)
    # deleting the stem end leaves a smaller fork
    assert classify_tree(delete_vertex(d_quiver(4), "1")) == ("D", 3)


def test_canonical_form_is_stable_and_relabels():
    for q in (path_quiver(4, [True, False, True]), d_quiver(3), d_quiver(2)):
        canon, mapping = canonical_form(q)
        assert canon == q
        assert all(mapping[v] == v for v in q.vertices)
    small = delete_vertex(d_quiver(3), "1")
    canon, mapping = canonical_form(small)
    assert canon == d_quiver(2)
    assert mapping == {"2": "1", "3+": "2+", "3-": "2-"}


def test_unlabelled_trees_are_classified_by_shape():
    from tiltquiver.tilting import tilting_quiver

    # D5: stem a-b-c with the tips x and y on c
    q = Quiver(("a", "b", "c", "x", "y"), (("a", "b"), ("c", "b"), ("c", "x"), ("y", "c")))
    assert classify_tree(q) == ("D", 4)
    assert canonical_form(q)[1] == {"x": "4+", "y": "4-", "a": "1", "b": "2", "c": "3"}
    tq = tilting_quiver(q)
    assert (len(tq.nodes), len(tq.arrows)) == (77, 165)
    # D4: three leaves on one vertex; the smallest-key leaf is the stem
    star = Quiver(("c", "x", "y", "z"), (("c", "x"), ("y", "c"), ("c", "z")))
    assert classify_tree(star) == ("D", 3)
    assert canonical_form(star)[1] == {"x": "1", "c": "2", "y": "3+", "z": "3-"}
    tq = tilting_quiver(star)
    assert (len(tq.nodes), len(tq.arrows)) == (20, 32)
    # fork-tip labels off the two largest-key leaves do not make them the tips
    labelled = Quiver(("1+", "1-", "2", "3"), (("2", "1+"), ("2", "1-"), ("2", "3")))
    assert canonical_form(labelled)[1] == {"1+": "1", "2": "2", "1-": "3+", "3": "3-"}


def test_three_vertex_path_is_d_only_with_tip_labels_on_both_ends():
    assert classify_tree(Quiver(("1", "2+", "2-"), (("1", "2+"), ("2-", "1")))) == ("D", 2)
    for verts, arrows in (
        (("3+", "3-", "2"), (("3+", "3-"), ("3-", "2"))),  # "3-" in the middle
        (("1", "2", "3+"), (("1", "2"), ("2", "3+"))),  # one tip label
        (("1+", "2", "3+"), (("1+", "2"), ("2", "3+"))),  # two "+" ends
    ):
        assert classify_tree(Quiver(verts, arrows)) == ("A", 3), verts


def test_vertex_key_memo_matches_the_uncached_key_under_its_bound():
    from tiltquiver import quiver

    _label_key = vertex_key.__wrapped__
    labels = ["1", "12", "8+", "8-", "x", "10a", "+", ""]
    for label in labels:
        assert vertex_key(label) == _label_key(label)
    assert sorted(["8-", "x", "8+", "10", "2"], key=vertex_key) == ["2", "8+", "8-", "10", "x"]
    vertex_key.cache_clear()
    many = [f"v{i}" for i in range(quiver.VERTEX_KEYS + 10)]
    keys = [vertex_key(label) for label in many]
    assert keys == [(1, 0, 0, label) for label in many] == [_label_key(label) for label in many]
    info = vertex_key.cache_info()
    assert info.maxsize == info.currsize == quiver.VERTEX_KEYS
