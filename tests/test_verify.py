"""Checks of the hasse and oracle suites that must be able to fail.

Each test breaks what a check reads from the product and expects the check
to name the fault, where a check that re-reads the product's own figures
would pass.  The last tests pin how the checks read the product.
"""

from array import array

import pytest

from tiltquiver import rep, verify
from tiltquiver.quiver import d_quiver, opposite, path_quiver
from tiltquiver.tilting import TiltingQuiver, ext_table, tilting_quiver


def test_half_degree_sum_counts_degrees_from_the_compat_table(monkeypatch):
    """Dropping an arrow and lowering the walk's degrees at both of its ends
    keeps 2 * #arrows = sum(delta), but not the count of exchangeable
    summands that the check reads off the compat table."""
    assert verify._half_degree_sum(path_quiver(1)) is None  # t without x is empty
    q = path_quiver(4)
    tq = tilting_quiver(q)
    assert tq.heads[0] == 1  # the arrow (0, 1)
    out_deg = bytearray(tq.out_deg)
    out_deg[0] -= 1
    delta = bytearray(tq.delta)
    delta[0] -= 1
    delta[1] -= 1
    broken = TiltingQuiver(
        tq.table, tq.summands, array("I", tq.heads[1:]), bytes(out_deg), bytes(delta)
    )
    assert 2 * len(broken.arrows) == sum(broken.delta)
    monkeypatch.setattr(verify, "tilting_quiver", lambda _: broken)
    assert verify._half_degree_sum(q) == "20 vs 42"


def test_euler_root_norm_enumerates_the_norm_one_vectors(monkeypatch):
    """The roots of the reflection closure are the vectors of Euler norm 1,
    and a root dropped from them is named."""
    for q in (path_quiver(6), d_quiver(5), d_quiver(5, [True, False, True, False, True])):
        assert verify._euler_root_norm(q) is None
    real = rep.positive_roots
    monkeypatch.setattr(rep, "positive_roots", lambda q: real(q) - {(1, 1, 1)})
    assert verify._euler_root_norm(path_quiver(3)) == "vector (1, 1, 1): euler form 1, not a root"


def test_unique_extremes_does_not_read_its_oracle_from_the_walk(monkeypatch):
    """With the projectives' oracle answering the injectives, the walk still
    starts at the projective module, and unique-extremes names its source."""
    real = rep.projective_dim_vectors
    monkeypatch.setattr(rep, "projective_dim_vectors", lambda q: real(opposite(q)))
    try:
        assert verify._unique_extremes(path_quiver(3)) == "sources [0], sinks [4]"
        assert verify._unique_extremes(d_quiver(3)) == "sources [0], sinks [17]"
    finally:
        tilting_quiver.cache_clear()


def test_a_check_is_an_immutable_value():
    check = verify.CHECKS["rigidity"]
    same = verify.Check(check.name, check.rows, check.find)
    assert check == same and hash(check) == hash(same)
    assert check != verify.Check(check.name, check.rows[:1], check.find)
    with pytest.raises(AttributeError):
        check.rows = ()
    assert {check: 1}[same] == 1


def test_closed_form_counts_cache_no_quiver():
    """The closed-form checks count each instance from its Ext table and keep
    nothing: A1-A9 and D3-D8 add no quiver and no Ext table to the caches."""
    tables = ext_table.cache_info().currsize
    for name in ("closed-form-counts-A", "closed-form-counts-D"):
        results = verify.CHECKS[name](9)
        assert results and all(r.status == "pass" for r in results), name
    assert tilting_quiver.cache_info().currsize == 0
    assert ext_table.cache_info().currsize == tables
