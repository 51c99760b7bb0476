import pytest

from tiltquiver.models import (
    FAMILIES,
    AInterval,
    DIndec,
    a_dim,
    a_hom_nonzero,
    a_indecs,
    a_tau,
    all_orientations,
    builder_param,
    compatible,
    d_dim,
    d_indecs,
    d_matrices,
    d_tau,
    family,
    reference_data,
)
from tiltquiver.quiver import classify_tree
from tiltquiver.tilting import closed_form_counts


def test_compatible_examples():
    assert not compatible((0, 1), (1, 2))  # meet at 1, neither nested
    assert compatible((0, 1), (2, 3))  # disjoint
    assert compatible((1, 2), (0, 4))  # nested
    assert compatible((0, 3), (0, 3))


def test_ext_vanish_examples():
    assert family("D").ext_vanish(DIndec("L+", 0, 3), DIndec("L-", 0, 3), 3)
    assert not family("D").ext_vanish(DIndec("M", 0, 1), DIndec("M", 1, 2), 3)
    assert not family("A").ext_vanish(AInterval(0, 2), AInterval(2, 4), 4)


def test_ext_vanish_is_symmetric():
    n = 4
    indecs = d_indecs(n)
    for x in indecs:
        for y in indecs:
            assert family("D").ext_vanish(x, y, n) == family("D").ext_vanish(y, x, n)


def test_tau_examples_type_a():
    assert a_tau(AInterval(0, 1), 2) == AInterval(1, 2)
    assert a_tau(AInterval(1, 2), 2) is None
    assert family("A").tau(AInterval(1, 3), 5) == AInterval(2, 4)


def test_tau_examples_type_d():
    # an interval reaching the stem end translates to a thick module
    assert d_tau(DIndec("L", 0, 2), 3) == DIndec("M", 0, 1)
    assert d_tau(DIndec("L", 1, 2), 3) == DIndec("M", 0, 2)
    assert d_tau(DIndec("L", 0, 1), 3) == DIndec("L", 1, 2)
    assert d_tau(DIndec("L+", 0, 3), 3) == DIndec("L-", 1, 3)
    assert d_tau(DIndec("L-", 1, 3), 3) == DIndec("L+", 2, 3)
    # projectives die: thick modules ending at the stem end and the tip simples
    assert d_tau(DIndec("M", 0, 2), 3) is None
    assert d_tau(DIndec("L+", 2, 3), 3) is None
    assert d_tau(DIndec("L-", 2, 3), 3) is None


def test_dim_vector_examples():
    assert a_dim(AInterval(1, 3), 4) == {"1": 0, "2": 1, "3": 1, "4": 0}
    assert d_dim(DIndec("M", 0, 1), 3) == {"1": 1, "2": 2, "3+": 1, "3-": 1}
    assert d_dim(DIndec("L-", 0, 3), 3) == {"1": 1, "2": 1, "3+": 0, "3-": 1}
    assert family("D").dim(DIndec("L+", 2, 3), 3) == {"1": 0, "2": 0, "3+": 1, "3-": 0}


def test_indec_counts():
    assert len(a_indecs(4)) == 10
    assert len(d_indecs(3)) == 12
    kinds = [x.kind for x in d_indecs(3)]
    assert kinds.count("L") == 3 and kinds.count("M") == 3
    assert kinds.count("L+") == 3 and kinds.count("L-") == 3


def test_m_matrices_at_fork():
    maps = d_matrices(DIndec("M", 0, 1), 3)
    assert maps[("1", "2")] == ((1,), (1,))
    assert maps[("2", "3+")] == ((1, 0),)
    assert maps[("2", "3-")] == ((0, 1),)
    # projective fork module carries scalar maps at the tips
    maps = d_matrices(DIndec("M", 0, 2), 3)
    assert maps[("2", "3+")] == ((1,),)
    assert maps[("2", "3-")] == ((1,),)


def test_full_support_models_have_identity_maps():
    maps = d_matrices(DIndec("L+", 0, 3), 3)
    assert maps[("1", "2")] == ((1,),)
    assert maps[("2", "3+")] == ((1,),)
    assert maps[("2", "3-")] == ((0,),) or maps[("2", "3-")] == ()
    # the missing tip has dimension zero, so the matrix has no rows
    assert maps[("2", "3-")] == ()


def test_hom_criterion_is_strict_at_the_left_end():
    # the quotient-to-submodule slot: simple tops do not map backwards
    assert not a_hom_nonzero(AInterval(2, 3), AInterval(1, 2))
    assert a_hom_nonzero(AInterval(0, 2), AInterval(0, 1))
    assert not a_hom_nonzero(AInterval(0, 1), AInterval(1, 2))


def test_render():
    assert AInterval(0, 2).render() == "L(0,2)"
    assert DIndec("L+", 1, 3).render() == "L+(1,3)"
    assert DIndec("M", 0, 2).render() == "M(0,2)"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        family("E")


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_builds_every_rank_up_to_its_guard(kind):
    fam = FAMILIES[kind]
    for rank in range(fam.min_rank, fam.guard + 1):
        n = builder_param(kind, rank)
        q = fam.reference(n)
        assert len(q.vertices) == rank
        assert classify_tree(q)[0] == kind
        oriented = [o for _, o in all_orientations(kind, n)]
        assert len(set(oriented)) == len(oriented) == 2 ** (rank - 1), rank
        assert all(o.vertices == q.vertices for o in oriented), rank


def test_rank_minimum_and_kind_errors_keep_their_messages():
    for kind, message in (("A", "type A needs rank >= 1"), ("D", "type D needs rank >= 3")):
        for call in (closed_form_counts, builder_param):
            with pytest.raises(ValueError) as exc:
                call(kind, FAMILIES[kind].min_rank - 1)
            assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        closed_form_counts("E", 6)
    assert str(exc.value) == "unknown kind 'E'"


def test_reference_data_is_built_once_per_entry_and_parameter():
    from tiltquiver import models, rep

    assert reference_data.cache_info().maxsize == models.REFERENCE_MEMO
    fam = FAMILIES["D"]
    data = reference_data(fam, 4)
    assert reference_data(fam, 4) is data
    assert data.quiver == fam.reference(4)
    assert data.models is data.models
    assert [x for x, _, _ in data.models] == fam.indecs(4)
    by_dim, n_tags = data.tag_by_dim
    assert n_tags == len(by_dim) == len(fam.indecs(4))
    # the indecomposables at the reference orientation are the memoised models
    indecs = rep.indecomposables.__wrapped__(data.quiver)
    assert {i.model: i.dim for i in indecs} == {x: dims for x, dims, _ in data.models}
    # an entry with any other field is another key
    assert reference_data(fam._replace(guard=fam.guard + 1), 4) is not data
