from collections import Counter
from fractions import Fraction

import pytest

from tiltquiver.models import (
    FAMILIES,
    AInterval,
    a_hom_nonzero,
    all_orientations,
    family,
)
from tiltquiver.quiver import (
    admissible_sink_order,
    classify_tree,
    d_quiver,
    delete_vertex,
    opposite,
    path_quiver,
    positive_roots,
    reflect,
    simple_reflection_dims,
)
from tiltquiver.rep import (
    Rep,
    _dual,
    euler_form,
    ext_from_hom,
    extend,
    hom_dim,
    hom_table,
    indecomposables,
    reflection_minus,
    reflection_plus,
    restrict,
    simple_rep,
)


def by_interval(q, n=None):
    return {ind.model: ind for ind in indecomposables(q)}


def test_euler_form_examples():
    q = path_quiver(2)
    assert euler_form(q, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -1
    assert euler_form(q, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1
    with pytest.raises(ValueError):
        euler_form(q, {"1": 1}, {"1": 0, "2": 1})


def test_euler_norm_one_on_positive_roots():
    for q in (path_quiver(4), d_quiver(3)):
        verts = q.vertices
        for root in positive_roots(q):
            d = dict(zip(verts, root))
            assert euler_form(q, d, d) == 1


def test_hom_examples_a2():
    q = path_quiver(2)
    ind = by_interval(q)
    assert hom_dim(ind[AInterval(0, 2)].rep, ind[AInterval(0, 1)].rep) == 1
    assert hom_dim(ind[AInterval(0, 1)].rep, ind[AInterval(1, 2)].rep) == 0
    with pytest.raises(ValueError):
        hom_dim(ind[AInterval(0, 1)].rep, simple_rep(path_quiver(3), "1"))


def test_ext_examples_a2():
    q = path_quiver(2)
    ind = by_interval(q)
    m, n = ind[AInterval(0, 1)].rep, ind[AInterval(1, 2)].rep
    assert ext_from_hom(hom_dim(m, n), euler_form(q, m.dims, n.dims)) == 1
    assert ext_from_hom(hom_dim(n, m), euler_form(q, n.dims, m.dims)) == 0


def test_hom_table_matches_pairwise_hom_dim_at_every_orientation():
    for kind, param in (("A", 5), ("D", 4)):
        for bits, q in all_orientations(kind, param):
            reps = [ind.rep for ind in indecomposables(q)]
            want = tuple(tuple(hom_dim(m, n) for n in reps) for m in reps)
            assert hom_table(q, reps) == want, (kind, bits)


def test_hom_table_rejects_foreign_and_non_int_representations():
    q = path_quiver(3)
    reps = [ind.rep for ind in indecomposables(q)]
    with pytest.raises(ValueError, match="different quivers"):
        hom_table(q, reps + [simple_rep(path_quiver(4), "1")])
    ind = by_interval(q)[AInterval(0, 2)].rep
    maps = dict(ind.maps)
    ((a, b),) = [ar for ar, mat in maps.items() if mat]
    maps[(a, b)] = ((Fraction(1, 2),),)
    fractional = Rep(q, dict(ind.dims), maps)
    with pytest.raises(TypeError, match="not an int"):
        hom_dim(fractional, fractional)
    with pytest.raises(TypeError, match="not an int"):
        hom_table(q, reps + [fractional])


def test_negative_ext_raises_in_one_place():
    assert ext_from_hom(2, 1) == 1
    assert ext_from_hom(0, 0) == 0
    with pytest.raises(RuntimeError, match="negative Ext dimension"):
        ext_from_hom(0, 1)


def test_every_indecomposable_is_a_brick():
    for q in (path_quiver(4), d_quiver(3)):
        for ind in indecomposables(q):
            assert hom_dim(ind.rep, ind.rep) == 1
            assert ext_from_hom(hom_dim(ind.rep, ind.rep), euler_form(q, ind.rep.dims, ind.rep.dims)) == 0


def test_indecomposable_counts():
    for n in range(1, 6):
        assert len(indecomposables(path_quiver(n))) == n * (n + 1) // 2
    inds = indecomposables(d_quiver(3))
    assert len(inds) == 12
    kinds = Counter(ind.model.kind for ind in inds)
    assert kinds == {"L": 3, "L+": 3, "L-": 3, "M": 3}


def test_dimension_vectors_are_the_positive_roots():
    for _, q in all_orientations("A", 4):
        dims = sorted(ind.rep.dim_tuple() for ind in indecomposables(q))
        assert dims == sorted(positive_roots(q))
        assert len(dims) == 10
    for _, q in all_orientations("D", 3):
        dims = sorted(ind.rep.dim_tuple() for ind in indecomposables(q))
        assert dims == sorted(positive_roots(q))
        assert len(dims) == 12
    # reference A1-A12 and D4-D9 against the model dimension vectors
    for kind, params, count in (
        ("A", range(1, 13), lambda n: n * (n + 1) // 2),
        ("D", range(3, 9), lambda n: (n + 1) * n),
    ):
        fam = FAMILIES[kind]
        for n in params:
            q = fam.reference(n)
            models = {
                tuple(fam.dim(x, n)[v] for v in q.vertices) for x in fam.indecs(n)
            }
            assert positive_roots(q) == models, (kind, n)
            assert len(models) == count(n), (kind, n)


def test_models_only_at_the_reference_orientation():
    assert all(ind.model is not None for ind in indecomposables(path_quiver(3)))
    skew = path_quiver(3, [False, True])
    assert all(ind.model is None for ind in indecomposables(skew))


def test_reflection_plus_examples():
    q = path_quiver(2)
    ind = by_interval(q)
    image = reflection_plus(q, "2", ind[AInterval(0, 2)].rep)
    assert image.quiver == reflect(q, "2")
    assert image.dims == {"1": 1, "2": 0}
    dead = reflection_plus(q, "2", simple_rep(q, "2"))
    assert dead.is_zero()
    with pytest.raises(ValueError):
        reflection_plus(q, "1", ind[AInterval(0, 2)].rep)


def test_reflection_plus_acts_as_simple_reflection_on_dims():
    # and so does its dual, reflection_minus at every source
    for q in (path_quiver(4), d_quiver(3)):
        for at, functor in ((q.is_sink, reflection_plus), (q.is_source, reflection_minus)):
            for x in filter(at, q.vertices):
                for ind in indecomposables(q):
                    if ind.dim == simple_rep(q, x).dims:
                        continue
                    image = functor(q, x, ind.rep)
                    assert image.dims == simple_reflection_dims(q, x, ind.dim)


def test_dual_is_an_involution():
    # at every orientation of A4 and D5 (builder parameter 4 for both)
    for kind in ("A", "D"):
        for bits, q in all_orientations(kind, 4):
            for ind in indecomposables(q):
                dual = _dual(q, ind.rep)
                assert dual.quiver == opposite(q)
                back = _dual(dual.quiver, dual)
                assert back.quiver == q
                assert back.dims == ind.rep.dims, (kind, bits, ind.id)
                assert back.maps == ind.rep.maps, (kind, bits, ind.id)


def test_reflection_round_trip_and_hom_preservation():
    q = path_quiver(3)
    x = "3"
    q2 = reflect(q, x)
    keep = [ind for ind in indecomposables(q) if ind.dim != simple_rep(q, x).dims]
    moved = {ind.id: reflection_plus(q, x, ind.rep) for ind in keep}
    for ind in keep:
        back = reflection_minus(q2, x, moved[ind.id])
        assert back.dims == ind.dim
    for a in keep:
        for b in keep:
            assert hom_dim(a.rep, b.rep) == hom_dim(moved[a.id], moved[b.id])
            m, n = moved[a.id], moved[b.id]
            ext = ext_from_hom(hom_dim(a.rep, b.rep), euler_form(q, a.rep.dims, b.rep.dims))
            assert ext == ext_from_hom(hom_dim(m, n), euler_form(q2, m.dims, n.dims))


def test_reflection_minus_requires_source():
    q = path_quiver(2)
    with pytest.raises(ValueError):
        reflection_minus(q, "2", simple_rep(q, "1"))


def test_reflection_minus_kills_the_source_simple():
    q = path_quiver(2)
    assert reflection_minus(q, "1", simple_rep(q, "1")).is_zero()


def test_reflection_round_trip_a2():
    q = path_quiver(2)
    ind = by_interval(q)
    across = reflection_plus(q, "2", ind[AInterval(0, 2)].rep)
    back = reflection_minus(reflect(q, "2"), "2", across)
    assert back.dims == ind[AInterval(0, 2)].dim


def test_restrict_examples():
    q = path_quiver(2)
    ind = by_interval(q)
    r = restrict(q, "1", ind[AInterval(0, 2)].rep)
    assert r.dims == {"2": 1}
    r = restrict(q, "1", ind[AInterval(0, 1)].rep)
    assert r.is_zero()


def test_extend_examples():
    q = path_quiver(2)
    small = delete_vertex(q, "1")
    lifted = extend(q, "1", simple_rep(small, "2"))
    assert lifted.dims == {"1": 1, "2": 1}
    assert lifted.maps[("1", "2")] == ((1,),)
    back = reflect(q, "1")  # x=1 becomes a sink leaf
    lifted = extend(back, "1", simple_rep(small, "2"))
    assert lifted.dims == {"1": 1, "2": 1}
    assert lifted.maps[("2", "1")] == ((1,),)
    zero = Rep(small, {"2": 0}, {})
    assert extend(q, "1", zero).is_zero()
    with pytest.raises(ValueError):
        extend(q, "1", simple_rep(path_quiver(1), "1"))


def test_restrict_after_extend_is_identity():
    for q, x in ((path_quiver(3), "1"), (d_quiver(3), "1"), (d_quiver(3), "3+")):
        small = delete_vertex(q, x)
        for ind in indecomposables(small):
            lifted = extend(q, x, ind.rep)
            assert restrict(q, x, lifted).dims == ind.dim


def test_model_reps_have_trivial_endomorphisms():
    for n in (2, 3, 4):
        for ind in indecomposables(d_quiver(n)):
            assert hom_dim(ind.rep, ind.rep) == 1


def test_strict_hom_criterion_against_linear_algebra():
    for n in range(2, 7):
        inds = indecomposables(path_quiver(n))
        for a in inds:
            for b in inds:
                expected = a_hom_nonzero(a.model, b.model)
                assert (hom_dim(a.rep, b.rep) != 0) == expected


def _coxeter_dims(q, dims):
    out = dict(dims)
    for x in admissible_sink_order(q):
        out = simple_reflection_dims(q, x, out)
    return out


def test_translate_matches_coxeter_reflection_on_dims():
    for q in (path_quiver(5), d_quiver(4)):
        kind, param = classify_tree(q)
        fam = family(kind)
        for ind in indecomposables(q):
            shifted = fam.tau(ind.model, param)
            if shifted is None:
                continue
            assert fam.dim(shifted, param) == _coxeter_dims(q, ind.dim)


def test_ar_duality_small():
    for q in (path_quiver(3), path_quiver(4), d_quiver(2), d_quiver(3)):
        kind, param = classify_tree(q)
        inds = indecomposables(q)
        by_model = by_interval(q)
        for a in inds:
            shifted = family(kind).tau(a.model, param)
            tau_rep = by_model[shifted].rep if shifted is not None else None
            for b in inds:
                want = hom_dim(b.rep, tau_rep) if tau_rep is not None else 0
                assert ext_from_hom(hom_dim(a.rep, b.rep), euler_form(q, a.rep.dims, b.rep.dims)) == want


def test_non_dynkin_tree_rejected():
    # a four-branch star has a degree-4 vertex and leaves the A/D family
    from tiltquiver.quiver import Quiver

    bad = Quiver(
        ("1", "2", "3", "4", "5"),
        (("1", "2"), ("1", "3"), ("1", "4"), ("1", "5")),
    )
    with pytest.raises(ValueError):
        indecomposables(bad)
