"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in
captured output).  All equalities are exact integer comparisons.
"""

import time
from collections import Counter
from contextlib import contextmanager

from tiltquiver import classify as cl
from tiltquiver import verify
from tiltquiver.cli import main
from tiltquiver.models import all_orientations, family
from tiltquiver.quiver import classify_tree, d_quiver, path_quiver
from tiltquiver.tilting import (
    closed_form_counts,
    degree_stats,
    enumerate_tilting,
    ext_table,
    hasse_check,
    tilting_quiver,
)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {text}")
        raise
    print(f"criterion {num}: PASS - {text}")


def counts_of(q):
    tq = tilting_quiver(q)
    return len(tq.nodes), len(tq.arrows)


def test_criterion_1_type_a_counts():
    with criterion(1, "type A enumerated counts match the closed forms for n=1..9"):
        start = time.monotonic()
        for n in range(1, 10):
            got = counts_of(path_quiver(n))
            want = closed_form_counts("A", n)
            assert got == want, f"A{n}: {got} != {want}"
        assert closed_form_counts("A", 3) == (5, 5)
        assert closed_form_counts("A", 4) == (14, 21)
        elapsed = time.monotonic() - start
        assert elapsed <= 60, f"type A sweep took {elapsed:.1f}s"


def test_criterion_2_type_d_counts():
    with criterion(2, "type D enumerated counts match the closed forms for D3..D8"):
        start = time.monotonic()
        for fork in range(2, 8):
            got = counts_of(d_quiver(fork))
            want = closed_form_counts("D", fork + 1)
            assert got == want, f"Q{fork}: {got} != {want}"
        assert closed_form_counts("D", 4) == (20, 32)
        assert closed_form_counts("D", 5) == (77, 165)
        assert closed_form_counts("D", 6) == (294, 784)
        elapsed = time.monotonic() - start
        assert elapsed <= 120, f"type D sweep took {elapsed:.1f}s"


def test_criterion_3_orientation_invariance():
    with criterion(3, "all 8 orientations of A4 and of D4 share one count pair"):
        a_pairs = {counts_of(q) for _, q in all_orientations("A", 4)}
        assert a_pairs == {closed_form_counts("A", 4)}
        d_pairs = {counts_of(q) for _, q in all_orientations("D", 3)}
        assert d_pairs == {closed_form_counts("D", 4)}


def _hasse_instances():
    for n in range(1, 7):
        yield f"A{n}", path_quiver(n)
    for fork in range(2, 5):
        yield f"Q{fork}", d_quiver(fork)
    for bits, q in all_orientations("A", 4):
        yield f"A4{bits}", q
    for bits, q in all_orientations("D", 3):
        yield f"D4{bits}", q


def test_criterion_4_hasse_property():
    with criterion(4, "exchange arrows equal the covers of the order up to A6/D5"):
        for name, q in _hasse_instances():
            report = hasse_check(ext_table(q), tilting_quiver(q))
            assert report.ok, f"{name}: missing {report.missing}, extra {report.extra}"


def test_criterion_5_degree_formula_and_histograms():
    with criterion(5, "degree formula per node, constant degree in type A, D histograms"):
        for name, q in _hasse_instances():
            report = degree_stats(tilting_quiver(q))
            assert report.formula_ok, f"{name}: {report.mismatches}"
        for n in range(2, 7):
            report = degree_stats(tilting_quiver(path_quiver(n)))
            assert report.histogram == {n - 1: len(enumerate_tilting(path_quiver(n)))}
        for fork in (3, 4, 5):
            t2, t1, t0 = cl.class_count_formulas(fork)
            want = {fork - 1: t2, fork: t1, fork + 1: t0}
            report = degree_stats(tilting_quiver(d_quiver(fork)))
            assert report.histogram == want, f"Q{fork}: {report.histogram} != {want}"
        assert degree_stats(tilting_quiver(d_quiver(3))).histogram == {2: 2, 3: 12, 4: 6}


def test_criterion_6_oracle_equivalence_and_ar_duality():
    with criterion(6, "interval criteria and AR duality agree with linear algebra"):
        instances = [path_quiver(n) for n in range(1, 7)]
        instances += [d_quiver(fork) for fork in range(2, 6)]
        for q in instances:
            kind, param = classify_tree(q)
            fam = family(kind)
            table = ext_table(q)
            k = len(table)
            for i in range(k):
                mi = table.models[i]
                shifted = fam.tau(mi, param)
                if shifted is None:
                    tau_col = None
                else:
                    dims = fam.dim(shifted, param)
                    tau_col = table.dims.index(tuple(dims[v] for v in q.vertices))
                for j in range(k):
                    mj = table.models[j]
                    pred = fam.ext_vanish(mi, mj, param)
                    real = table.ext[i][j] == 0 and table.ext[j][i] == 0
                    assert pred == real, f"{q}: predicate mismatch at ({i},{j})"
                    dual = table.hom[j][tau_col] if tau_col is not None else 0
                    assert table.ext[i][j] == dual, f"{q}: duality mismatch at ({i},{j})"


def test_criterion_7_leaf_glue_suite():
    with criterion(7, "projection/lift, transport, crossing and decomposition at leaves"):
        checks = (
            verify.CHECKS["leaf-projection-closure"](5)
            + verify.CHECKS["glued-order"](5)
            + verify.CHECKS["complement-transport"](5)
            + verify.CHECKS["crossing-arrow-bijection"](5)
            + verify.CHECKS["arrow-decomposition"](5)
        )
        instances = {r.instance.split(":")[0] for r in checks}
        assert instances == {"A4", "A5", "Q3"}
        # every source/sink leaf of each instance is exercised
        assert len({r.instance for r in checks if r.check == "arrow-decomposition"}) == 7
        for r in checks:
            assert r.status == "pass", f"{r.check} {r.instance}: {r.detail}"


def test_criterion_8_taxonomy_suite():
    with criterion(8, "empty fork classes and both counting bijections round trip"):
        for fork in (3, 4, 5):
            table = ext_table(d_quiver(fork))
            for t in enumerate_tilting(d_quiver(fork)):
                c = cl.classify(table, t)
                assert not any(tag.startswith("A") for tag in c.tags), (fork, t)
        for name in ("fork-bijection-path", "fork-bijection-shrink"):
            results = verify.CHECKS[name](5)
            names = {r.instance for r in results}
            assert names == {"Q3", "Q4"}
            for r in results:
                assert r.status == "pass", f"{r.check} {r.instance}: {r.detail}"


def test_criterion_9_verify_determinism(capsys):
    with criterion(9, "repeated full verify runs are byte-identical and green"):
        code_one = main(["verify", "--suite", "all", "--max-rank", "5"])
        first = capsys.readouterr()
        code_two = main(["verify", "--suite", "all", "--max-rank", "5"])
        second = capsys.readouterr()
        assert code_one == 0 and code_two == 0
        assert first.out == second.out
        assert first.err == second.err == ""
