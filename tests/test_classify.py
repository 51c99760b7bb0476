from collections import Counter

import pytest

from tiltquiver import classify as cl
from tiltquiver.models import AInterval, DIndec
from tiltquiver.quiver import d_quiver, path_quiver
from tiltquiver.tilting import enumerate_tilting, ext_table


def model_set(table, t):
    return frozenset(cl.summand_models(table, t))


def test_q2_tilting_modules_frozen():
    # hand enumeration via the seven-case criterion
    table = ext_table(d_quiver(2))
    sets = {
        frozenset(m.render() for m in model_set(table, t))
        for t in enumerate_tilting(d_quiver(2))
    }
    assert sets == {
        frozenset({"L(0,1)", "L+(0,2)", "L-(0,2)"}),
        frozenset({"M(0,1)", "L+(0,2)", "L-(0,2)"}),
        frozenset({"M(0,1)", "L+(0,2)", "L+(1,2)"}),
        frozenset({"M(0,1)", "L-(0,2)", "L-(1,2)"}),
        frozenset({"M(0,1)", "L+(1,2)", "L-(1,2)"}),
    }


def test_q2_classification():
    q = d_quiver(2)
    table = ext_table(q)
    buckets = Counter()
    tags = Counter()
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        assert not c.problems
        buckets[c.bucket] += 1
        tags.update(c.tags)
    assert buckets == {"T0": 1, "T1": 3, "T2": 1}
    assert tags == {"B+(1)": 1, "B-(1)": 1, "C(1)": 1}


def test_q3_classification_counts():
    q = d_quiver(3)
    table = ext_table(q)
    buckets = Counter()
    tags = Counter()
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        assert not c.problems
        buckets[c.bucket] += 1
        tags.update(c.tags)
    t2, t1, t0 = cl.class_count_formulas(3)
    assert buckets == {"T2": t2, "T1": t1, "T0": t0} == {"T2": 2, "T1": 12, "T0": 6}
    assert tags == {
        "B+(1)": 1,
        "B+(2)": 2,
        "B-(1)": 1,
        "B-(2)": 2,
        "C(1)": 1,
        "C(2)": 4,
    }
    assert not any(tag.startswith("A") for tag in tags)


def test_t2_membership_shape():
    # degree n-1 exactly when both full fork modules appear and the rest are intervals
    q = d_quiver(3)
    table = ext_table(q)
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        mods = model_set(table, t)
        fork_full = DIndec("L+", 0, 3) in mods and DIndec("L-", 0, 3) in mods
        rest_intervals = all(
            m.kind == "L" for m in mods if m not in (DIndec("L+", 0, 3), DIndec("L-", 0, 3))
        )
        assert (c.bucket == "T2") == (fork_full and rest_intervals)


def test_classify_requires_d_type():
    table = ext_table(path_quiver(3))
    t = enumerate_tilting(path_quiver(3))[0]
    with pytest.raises(ValueError):
        cl.classify(table, t)


def test_classify_requires_reference_models():
    q = d_quiver(3, [False, True, True])
    table = ext_table(q)
    t = enumerate_tilting(q)[0]
    with pytest.raises(ValueError):
        cl.classify(table, t)


def test_path_bijection_q3():
    q = d_quiver(3)
    table = ext_table(q)
    path_sets = set(cl.tilting_model_sets(path_quiver(3)))
    images = {"+": set(), "-": set()}
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if not any(tag.startswith("B") for tag in c.tags):
            continue
        j, sign, ivs = cl.to_path_tilting(table, t)
        assert ivs in path_sets
        assert cl.min_end_statistic(ivs, 3) == j
        assert cl.from_path_tilting(3, j, sign, ivs) == model_set(table, t)
        images[sign].add(ivs)
    expected = {s for s in path_sets if cl.min_end_statistic(s, 3) >= 1}
    assert images["+"] == images["-"] == expected
    assert len(expected) == cl.b_count_formula(3) == 3


def test_min_end_statistic_default():
    # the class paired with M(0,n-1) carries no interval ending at n-1
    assert cl.min_end_statistic(frozenset({AInterval(0, 3), AInterval(1, 3), AInterval(2, 3)}), 3) == 2
    assert cl.min_end_statistic(frozenset({AInterval(1, 2), AInterval(0, 3), AInterval(1, 3)}), 3) == 1


def test_shrink_bijection_q3():
    q = d_quiver(3)
    table = ext_table(q)
    small_sets = set(cl.tilting_model_sets(d_quiver(2)))
    images = []
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if not any(tag.startswith("C") for tag in c.tags):
            continue
        j, ms = cl.to_smaller_fork(table, t)
        assert ms in small_sets
        assert cl.fork_reach_statistic(ms) == j - 1
        assert cl.from_smaller_fork(3, j, ms) == model_set(table, t)
        images.append(ms)
    assert len(images) == len(set(images)) == len(small_sets) == cl.c_count_formula(3) == 5


def test_shrink_rejected_on_smallest_fork():
    q = d_quiver(2)
    table = ext_table(q)
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if any(tag.startswith("C") for tag in c.tags):
            with pytest.raises(ValueError):
                cl.to_smaller_fork(table, t)


def test_bijection_rejects_wrong_class():
    q = d_quiver(3)
    table = ext_table(q)
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if c.bucket != "T1":
            with pytest.raises(ValueError):
                cl.to_path_tilting(table, t)
            with pytest.raises(ValueError):
                cl.to_smaller_fork(table, t)
            break


def test_product_split_q3():
    q = d_quiver(3)
    table = ext_table(q)
    fibers = Counter()
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if c.bucket != "T1" or c.dim_one_vertex is None:
            continue
        if c.dim_one_vertex.endswith(("+", "-")):
            continue
        i, left, right = cl.split_product(table, t)
        fibers[i] += 1
        assert cl.unsplit_product(3, i, left, right) == model_set(table, t)
        if i == 1:
            assert left == frozenset()
    assert fibers == {1: 5, 2: 1}


def test_t1_count_decomposes():
    q = d_quiver(3)
    table = ext_table(q)
    t1 = b_plus = b_minus = fiber_total = 0
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if c.bucket != "T1":
            continue
        t1 += 1
        if any(tag.startswith("B+") for tag in c.tags):
            b_plus += 1
        elif any(tag.startswith("B-") for tag in c.tags):
            b_minus += 1
        else:
            fiber_total += 1
    assert t1 == 12 and b_plus == 3 and b_minus == 3 and fiber_total == 6


def test_sincere_stem_summand():
    for n in (2, 3, 4):
        q = d_quiver(n)
        table = ext_table(q)
        for t in enumerate_tilting(q):
            s = cl.sincere_stem_summand(table, t)
            assert s is not None
            model = table.models[s]
            assert model.kind in ("L+", "L-", "M") or (
                model.kind == "L" and model.a == 0 and model.b == n - 1
            )


def test_full_stem_interval_forces_fork_pair():
    for n in (2, 3, 4):
        q = d_quiver(n)
        table = ext_table(q)
        for t in enumerate_tilting(q):
            mods = model_set(table, t)
            if DIndec("L", 0, n - 1) in mods:
                assert DIndec("L+", 0, n) in mods
                assert DIndec("L-", 0, n) in mods


def test_count_formula_helpers():
    assert cl.catalan(3) == 5 and cl.catalan(0) == 1
    assert cl.b_count_formula(4) == 14 - 5
    assert cl.c_count_formula(4) == 20
    assert cl.class_count_formulas(4) == (5, 45, 27)
