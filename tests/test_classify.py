import tracemalloc
from collections import Counter

import pytest

from tiltquiver import classify as cl
from tiltquiver import quiver, verify
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
        j, sign, ivs = cl.to_path_tilting(c)
        assert ivs in path_sets
        assert cl.min_end_statistic(ivs, 3) == j
        assert cl.from_path_tilting(3, j, sign, ivs) == model_set(table, t) == c.models
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
        j, ms = cl.to_smaller_fork(c)
        assert ms in small_sets
        assert cl.fork_reach_statistic(ms) == j - 1
        assert cl.from_smaller_fork(j, ms) == model_set(table, t) == c.models
        images.append(ms)
    assert len(images) == len(set(images)) == len(small_sets) == cl.c_count_formula(3) == 5


def test_shrink_rejected_on_smallest_fork():
    q = d_quiver(2)
    table = ext_table(q)
    for t in enumerate_tilting(q):
        c = cl.classify(table, t)
        if any(tag.startswith("C") for tag in c.tags):
            with pytest.raises(ValueError, match="fork parameter >= 3"):
                cl.to_smaller_fork(c)


def has_tag(c, letter):
    return any(tag.startswith(letter) for tag in c.tags)


# each bijection, its message outside its domain, and its domain
DOMAINS = [
    (cl.to_path_tilting, "not in a fork-tip class", lambda c: has_tag(c, "B")),
    (cl.to_smaller_fork, "not in a vertex-one class", lambda c: has_tag(c, "C")),
    (
        cl.split_product,
        "no stem vertex of dimension one",
        lambda c: c.bucket == "T1" and not c.dim_one_vertex.endswith(("+", "-")),
    ),
]


def test_bijection_rejects_wrong_class():
    """At Q3 and Q4 each bijection raises on every module outside its domain,
    middle class included."""
    for n in (3, 4):
        table = ext_table(d_quiver(n))
        outside = Counter()
        for t in enumerate_tilting(d_quiver(n)):
            c = cl.classify(table, t)
            for bijection, message, domain in DOMAINS:
                if domain(c):
                    bijection(c)
                else:
                    with pytest.raises(ValueError, match=message):
                        bijection(c)
                    outside[bijection, c.bucket] += 1
        for bijection, _, _ in DOMAINS:
            assert all(outside[bijection, b] for b in ("T0", "T1", "T2")), (n, bijection)


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
        i, left, right = cl.split_product(c)
        fibers[i] += 1
        assert cl.unsplit_product(i, left, right) == model_set(table, t)
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


def tag_counts(pairs):
    """{(tag,): count} from (j, count) pairs for each of B+, B-, C."""
    return {(f"{kind}({j})",): k for kind in ("B+", "B-", "C") for j, k in pairs[kind]}


# The per-module classification at the reference Q4 and Q5 (buckets, tag
# tuples, dimension-one vertices) as computed before the bijections took
# their parameters from it; `classify` must keep reproducing it.
PINNED_CLASSES = {
    4: (
        {"T0": 27, "T1": 45, "T2": 5},
        {(): 39} | tag_counts({
            "B+": [(1, 2), (2, 2), (3, 5)],
            "B-": [(1, 2), (2, 2), (3, 5)],
            "C": [(1, 2), (2, 4), (3, 14)],
        }),
        {None: 32, "1": 20, "2": 5, "3": 2, "4+": 9, "4-": 9},
    ),
    5: (
        {"T0": 112, "T1": 168, "T2": 14},
        {(): 161} | tag_counts({
            "B+": [(1, 5), (2, 4), (3, 5), (4, 14)],
            "B-": [(1, 5), (2, 4), (3, 5), (4, 14)],
            "C": [(1, 5), (2, 8), (3, 14), (4, 50)],
        }),
        {None: 126, "1": 77, "2": 20, "3": 10, "4": 5, "5+": 28, "5-": 28},
    ),
}


@pytest.mark.parametrize("n", sorted(PINNED_CLASSES))
def test_classification_is_pinned(n):
    q = d_quiver(n)
    table = ext_table(q)
    classes = [cl.classify(table, t) for t in enumerate_tilting(q)]
    assert not any(c.problems for c in classes)
    buckets, tags, dim_one = PINNED_CLASSES[n]
    assert Counter(c.bucket for c in classes) == buckets
    assert Counter(c.tags for c in classes) == tags
    assert Counter(c.dim_one_vertex for c in classes) == dim_one
    for t, c in zip(enumerate_tilting(q), classes):
        assert c.n == n and c.models == model_set(table, t)
        m0 = [m.b for m in c.models if m.kind == "M" and m.a == 0]
        assert c.m0 == (m0[0] if len(m0) == 1 else None)


def test_taxonomy_classifies_each_module_once_and_no_tree_per_module(monkeypatch):
    """The taxonomy suite classifies each module at most once over all its
    checks, and classifying a module classifies no tree."""
    trees = 0
    classified = Counter()
    canonical_positions, classify = quiver._canonical_positions, cl.classify

    def count_tree(q):
        nonlocal trees
        trees += 1
        return canonical_positions(q)

    def count_module(table, t):
        classified[table.quiver, t] += 1
        return classify(table, t)

    monkeypatch.setattr(quiver, "_canonical_positions", count_tree)
    monkeypatch.setattr(cl, "classify", count_module)
    for check in verify.SUITES["taxonomy"]:
        for label, q in verify._instances(check.rows, 5):
            assert check.find(q) is None, (check.name, label)
            assert max(classified.values(), default=1) == 1, (check.name, label)
    calls = classified.total()
    assert calls > 0 and trees < calls


def test_product_split_compares_fiber_one_with_the_closed_form(monkeypatch):
    """Fiber 1 is compared with the closed form of |C|, which the check does
    not derive from the fiber itself."""
    real = cl.c_count_formula
    monkeypatch.setattr(verify.cl, "c_count_formula", lambda n: real(n) + 1)
    assert verify._product_split(d_quiver(4)) == "fiber 1: 20 vs 21"


def test_bijection_checks_pass_at_q5():
    """verify caps the three bijection checks at Q4; the same finds hold at Q5."""
    q = d_quiver(5)
    assert len(enumerate_tilting(q)) == 294
    for find in (verify._bijection_path, verify._bijection_shrink, verify._product_split):
        assert find(q) is None, find.__name__


def test_cached_classes_hold_at_most_400_bytes_per_module():
    """`verify._classes` over Q2-Q5, with the Ext tables and modules built
    first: at most 400 B per module (913 B while each classification held a
    frozenset of its summands' models, 299 B with their tuple)."""
    qs = [d_quiver(n) for n in range(2, 6)]
    for q in qs:
        enumerate_tilting(q)
        ext_table(q)
    verify._classes.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        n = sum(len(verify._classes(q)) for q in qs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert n == 5 + 20 + 77 + 294
    assert held <= 400 * n, (held, n)
    table = ext_table(qs[-1])
    for t, c in verify._classes(qs[-1]):
        assert c.summands == tuple(cl.summand_models(table, t))
        assert c.models == frozenset(c.summands)
