"""Named verification checks over enumerated instances.

Every identity the package is built around is a named check producing one
pass/fail result per instance.  Each check is declared once, as data: a name,
rows declaring the instances it runs on and a search for a counterexample.
The CLI groups the checks into suites; the acceptance tests run the same code
at fixed ranks.

The glue checks hold the identities of the maps in `glue` (section and
closure of project and lift, the glued order, the transport of the
complement, the crossing bijection, the arrow-count decomposition).  They
read the order t <= u, Ext^1(u, t) = 0 summandwise, as `order_bitsets` rows,
so each identity is a few comparisons of row bitsets per module.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, reduce
from itertools import product
from operator import or_

from . import classify as cl
from . import glue, models, rep
from .models import all_orientations, builder_param
from .quiver import classify_tree, d_quiver, delete_vertex, path_quiver, positive_roots, reflect
from .tilting import (
    closed_form_counts,
    degree_stats,
    enumerate_tilting,
    ext_table,
    hasse_check,
    module_dim,
    order_bitsets,
    tilting_quiver,
    transient_counts,
)


class CheckResult(namedtuple("CheckResult", "check instance status detail", defaults=("",))):
    """One check's outcome on one instance: "pass", or "fail" with a counterexample."""

    __slots__ = ()


class Check(namedtuple("Check", "name rows find")):
    """One named identity, checked instance by instance.

    `rows` declares the instances (see `_instances`); `find(arg)` returns a
    counterexample string, or None when the identity holds.
    """

    __slots__ = ()

    def __call__(self, max_rank):
        out = []
        for label, arg in _instances(self.rows, max_rank):
            found = self.find(arg)
            if found is None:
                out.append(CheckResult(self.name, label, "pass"))
            else:
                out.append(CheckResult(self.name, label, "fail", found))
        return out


# ------------------------------------------------------------------ instances
#
# A check declares its instances as (form, kind, first, last) rows over the
# Dynkin ranks first..last; `--max-rank` keeps the ranks up to it.  The forms:
#   reference     the reference quiver, labelled A<n> or Q<n>
#   orientations  every orientation of it, labelled such as A4[101]
#   leaves        (q, x) at every leaf x of the reference quiver, such as A4:x=1
#   type          (kind, rank), labelled such as D4

_HASSE = (
    ("reference", "A", 1, 6),
    ("reference", "D", 3, 5),
    ("orientations", "A", 4, 4),
    ("orientations", "D", 4, 4),
)
_A1_A6 = (("reference", "A", 1, 6),)
_Q2_Q5 = (("reference", "D", 3, 6),)
_Q3_Q5 = (("reference", "D", 4, 6),)
_Q3_Q4 = (("reference", "D", 4, 5),)
_ORACLE = _A1_A6 + _Q2_Q5
_GLUE = (("reference", "A", 4, 5), ("reference", "D", 4, 4))
_LEAVES = (("leaves", "A", 4, 5), ("leaves", "D", 4, 4))


def _instances(rows, max_rank):
    """Yield the ordered (label, arg) pairs of rows at the ranks <= max_rank."""
    for form, kind, first, last in rows:
        for rank in range(first, min(last, max_rank) + 1):
            n = builder_param(kind, rank)
            name = ("Q" if kind == "D" else "A") + str(n)
            if form == "type":
                yield f"{kind}{rank}", (kind, rank)
            elif form == "orientations":
                for bits, q in all_orientations(kind, n):
                    yield name + "[" + "".join("01"[b] for b in bits) + "]", q
            elif form == "reference":
                yield name, models.reference_data(models.family(kind), n).quiver
            else:  # leaves
                q = models.reference_data(models.family(kind), n).quiver
                yield from ((f"{name}:x={x}", (q, x)) for x in q.vertices if q.is_leaf(x))


def _mismatch(got, want):
    return None if got == want else f"got {got}, want {want}"


# ------------------------------------------------------------------ counts

def _counts(q):
    tq = tilting_quiver(q)
    return len(tq.nodes), len(tq.arrows)


def _closed_form(kind):
    # the counts need no quiver, so none is built or cached
    return lambda q: _mismatch(transient_counts(q), closed_form_counts(kind, len(q.vertices)))


def _orientation_invariant(target):
    # counted through the cached walk, not `transient_counts`: the closed-form
    # checks already read the Ext table's cliques, so here the walk's own
    # counts meet the closed forms at every orientation
    kind, rank = target
    reference = closed_form_counts(kind, rank)
    pairs = {_counts(q) for _, q in all_orientations(kind, builder_param(kind, rank))}
    if pairs == {reference}:
        return None
    return f"distinct counts {sorted(pairs)}, want {{{reference}}}"


def _reflection_invariant(ref):
    for bits, q in all_orientations(*classify_tree(ref)):
        total = len(tilting_quiver(q).arrows)
        for x in q.vertices:
            if q.is_source(x) or q.is_sink(x):
                other = len(tilting_quiver(reflect(q, x)).arrows)
                if other != total:
                    return f"orientation {bits} vertex {x}: {total} vs {other}"
    return None


# ------------------------------------------------------------------ hasse

def _hasse(q):
    report = hasse_check(ext_table(q), tilting_quiver(q))
    if report.ok:
        return None
    return f"missing {report.missing[:3]}, extra {report.extra[:3]}"


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _order_axioms(rows):
    """Why rows (bit j of rows[i] iff i <= j) are not a partial order, or None."""
    for i, row in enumerate(rows):
        if not row >> i & 1:
            return "relation is not reflexive"
        if any(j != i and rows[j] >> i & 1 for j in _bits(row)):
            return "relation is not antisymmetric"
    for row in rows:
        if any(rows[j] & ~row for j in _bits(row)):
            return "relation is not transitive"
    return None


def _poset_axioms(q):
    _, up = order_bitsets(ext_table(q), enumerate_tilting(q))
    return _order_axioms(list(up))


def _unique_extremes(q):
    table = ext_table(q)
    tq = tilting_quiver(q)
    sources = [i for i in range(len(tq.nodes)) if tq.delta[i] == tq.out_deg[i]]
    sinks = [i for i in range(len(tq.nodes)) if tq.out_deg[i] == 0]
    proj_dims = rep.projective_dim_vectors(q)
    proj_ids = tuple(
        sorted(table.id_by_dim[tuple(d[v] for v in q.vertices)] for d in proj_dims.values())
    )
    if len(sources) == 1 and len(sinks) == 1 and tq.nodes[sources[0]] == proj_ids:
        return None
    return f"sources {sources}, sinks {sinks}"


def _half_degree_sum(q):
    # A node's degree, counted from the compat table and not read off the
    # walk's delta: x in t is exchanged iff some id outside t is compatible
    # with every other summand of t.
    tq = tilting_quiver(q)
    compat = tq.table.compat
    full = (1 << len(compat)) - 1
    total = 0
    for t in tq.nodes:
        outside = full ^ sum(1 << s for s in t)
        for x in t:
            rest = outside
            for s in t:
                if s != x:
                    rest &= compat[s]
            total += rest != 0
    return None if 2 * len(tq.arrows) == total else f"{len(tq.arrows)} vs {total}"


# ------------------------------------------------------------------ degrees

def _degree_formula(q):
    report = degree_stats(tilting_quiver(q))
    return None if report.formula_ok else f"mismatches {report.mismatches[:3]}"


def _degree_constant_a(q):
    histogram = degree_stats(tilting_quiver(q)).histogram
    want = {len(q.vertices) - 1: len(enumerate_tilting(q))}
    return None if histogram == want else f"histogram {histogram}"


def _degree_histogram_d(q):
    n = len(q.vertices) - 1
    t2, t1, t0 = cl.class_count_formulas(n)
    want = {n - 1: t2, n: t1, n + 1: t0}
    return _mismatch(degree_stats(tilting_quiver(q)).histogram, want)


# ------------------------------------------------------------------ oracle

def _ext_predicate(q):
    kind, param = classify_tree(q)
    fam = models.family(kind)
    table = ext_table(q)
    k = len(table)
    for i in range(k):
        for j in range(i, k):
            xi, xj = table.models[i], table.models[j]
            pred = fam.ext_vanish(xi, xj, param)
            real = table.ext[i][j] == 0 and table.ext[j][i] == 0
            if pred != real:
                return (
                    f"{xi.render()} vs {xj.render()}: "
                    f"predicate {pred}, ext {real}"
                )
    return None


def _ar_duality(q):
    kind, param = classify_tree(q)
    fam = models.family(kind)
    table = ext_table(q)
    k = len(table)
    for i in range(k):
        translate = fam.tau(table.models[i], param)
        if translate is None:
            tau_col = None
        else:
            tau_dim = fam.dim(translate, param)
            tau_col = table.id_by_dim[tuple(tau_dim[v] for v in q.vertices)]
        for j in range(k):
            want = table.hom[j][tau_col] if tau_col is not None else 0
            if table.ext[i][j] != want:
                return f"ext({i},{j}) = {table.ext[i][j]} but hom(N, translate) = {want}"
    return None


def _hom_criterion_a(q):
    table = ext_table(q)
    k = len(table)
    for i in range(k):
        for j in range(k):
            xi, xj = table.models[i], table.models[j]
            if (table.hom[i][j] != 0) != models.a_hom_nonzero(xi, xj):
                return f"hom {xi.render()} -> {xj.render()}"
    return None


def _positive_roots(q):
    dims = sorted(ind.rep.dim_tuple() for ind in rep.indecomposables(q))
    roots = sorted(positive_roots(q))
    return None if dims == roots else f"{len(dims)} vs {len(roots)}"


def _rigidity(q):
    # End(M) = k and Ext^1(M, M) = 0, from the intertwiner nullities rather than
    # the Euler-form table (which raises on the same test before any check)
    for ind in rep.indecomposables(q):
        h = rep.hom_dim(ind.rep, ind.rep)
        e = h - rep.euler_form(q, ind.dim, ind.dim)
        if h != 1 or e != 0:
            return f"id {ind.id}: hom {h}, ext {e}"
    return None


def _euler_root_norm(q):
    # The positive roots of a Dynkin tree are the nonzero d >= 0 with
    # <d, d> = 1.  Every coordinate is at most 2, and at most 1 on a path, so
    # enumerating those vectors finds them without the reflection closure.
    index = {v: i for i, v in enumerate(q.vertices)}
    edges = [(index[a], index[b]) for a, b in q.arrows]

    def norm(d):
        return sum(x * x for x in d) - sum(d[a] * d[b] for a, b in edges)

    branched = any(len(ws) > 2 for ws in q.neighbor_map().values())
    found = {d for d in product(range(3 if branched else 2), repeat=len(index)) if norm(d) == 1}
    roots = positive_roots(q)
    extra, missing = sorted(roots - found), sorted(found - roots)
    if extra:
        return f"root {extra[0]}: euler form {norm(extra[0])}"
    if missing:
        return f"vector {missing[0]}: euler form 1, not a root"
    return None


# ------------------------------------------------------------------ glue
#
# The order is read as order_bitsets rows over Tilt(q): bit j of up[i] is set
# iff t_i <= t_j, and bit j of down[i] iff t_j <= t_i.

def _order(q):
    """Tilt(q), its down and up rows, and the index of each module."""
    nodes = enumerate_tilting(q)
    down, up = map(list, order_bitsets(ext_table(q), nodes))
    return nodes, down, up, {t: i for i, t in enumerate(nodes)}


def _leaf_closure(point):
    q, x = point
    nodes, down, up, at = _order(q)
    small_nodes, _, small_up, small_at = _order(delete_vertex(q, x))
    lifts = [glue.lift(q, x, t) for t in small_nodes]
    section_ok = all(glue.project(q, x, u) == t for t, u in zip(small_nodes, lifts))
    proj = [small_at[glue.project(q, x, t)] for t in nodes]
    f = [at[lifts[p]] for p in proj]  # lift(project(t_i)) = t_f[i]
    # f(t) <= t at a source, t <= f(t) at a sink
    rows = down if q.is_source(x) else up
    closure_ok = all(rows[i] >> j & 1 for i, j in enumerate(f))
    s = glue.simple_summand_id(ext_table(q), x)
    equality_ok = all((j == i) == (s in t) for i, (j, t) in enumerate(zip(f, nodes)))
    # t_i <= t_j must give proj(t_i) <= proj(t_j): up[i] lies in the union of
    # the fibres of project over the up row of proj(t_i)
    fibre = [0] * len(small_nodes)
    for i, p in enumerate(proj):
        fibre[p] |= 1 << i
    above = [reduce(or_, (fibre[b] for b in _bits(row)), 0) for row in small_up]
    monotone_ok = all(not up[i] & ~above[p] for i, p in enumerate(proj))
    if section_ok and closure_ok and equality_ok and monotone_ok:
        return None
    return (
        f"section {section_ok}, closure {closure_ok}, "
        f"equality {equality_ok}, monotone {monotone_ok}"
    )


def _glued_order(point):
    # For u in Tilt^x and t outside it, with f = lift . project: at a source
    # u <= t iff u <= f(t), and t <= u never holds; at a sink the same with <=
    # reversed.  So lo[t] and lo[f(t)] agree on Tilt^x and hi[t] misses it.
    q, x = point
    nodes, down, up, at = _order(q)
    lo, hi = (down, up) if q.is_source(x) else (up, down)
    s = glue.simple_summand_id(ext_table(q), x)
    inside = sum(1 << i for i, t in enumerate(nodes) if s in t)
    cross_ok = forbidden_ok = True
    for i, t in enumerate(nodes):
        if s not in t:
            j = at[glue.lift(q, x, glue.project(q, x, t))]
            cross_ok = cross_ok and lo[i] & inside == lo[j] & inside
            forbidden_ok = forbidden_ok and not hi[i] & inside
    return None if cross_ok and forbidden_ok else f"cross {cross_ok}, forbidden {forbidden_ok}"


def _complement_transport(point):
    q, x = point
    mapping = glue.transport_map(q, x)
    q2 = reflect(q, x)
    _, outside2 = glue.split_by_simple(q2, x)
    image = sorted(mapping.values())
    bijective = image == sorted(outside2) and len(set(image)) == len(image)
    # the up rows of the complement and of its image, each module at its place
    _, up = order_bitsets(ext_table(q), list(mapping))
    _, up2 = order_bitsets(ext_table(q2), list(mapping.values()))
    order_iso = list(up) == list(up2)
    commutes = all(glue.project(q, x, t) == glue.project(q2, x, u) for t, u in mapping.items())
    if bijective and order_iso and commutes:
        return None
    return f"bijective {bijective}, order {order_iso}, commutes {commutes}"


def _crossing_arrows(point):
    # crossing arrows leave Tilt^x at a sink, enter it at a source, and meet
    # each module of Tilt^x once
    q, x = point
    crossing, _, _ = glue.crossing_arrows(q, x)
    inside, _ = glue.split_by_simple(q, x)
    sink = q.is_sink(x)
    direction_ok = all(e == (a if sink else b) for a, b, e in crossing)
    endpoints = {e for _, _, e in crossing}
    if direction_ok and len(endpoints) == len(crossing) == len(inside):
        return None
    return f"{len(crossing)} crossing vs {len(inside)} modules"


def _arrow_decomposition(point):
    # #arrows = #arrows of Tilt(Q \ {x}) + #arrows outside Tilt^x + #crossing,
    # the same after reflection at x, with as many arrows inside Tilt^x as in
    # Tilt(Q \ {x})
    q, x = point
    small = len(tilting_quiver(delete_vertex(q, x)).arrows)
    crossing, inside, outside = glue.crossing_arrows(q, x)
    total = len(tilting_quiver(q).arrows)
    reflected = len(tilting_quiver(reflect(q, x)).arrows)
    if small + outside + len(crossing) == total == reflected and inside == small:
        return None
    return f"{small}+{outside}+{len(crossing)} vs {total}, reflected {reflected}"


def _simple_membership(q):
    table = ext_table(q)
    for x in q.vertices:
        if not (q.is_sink(x) or q.is_source(x)):
            continue
        s = glue.simple_summand_id(table, x)
        for t in enumerate_tilting(q):
            if s in t and module_dim(table, t)[x] < 2:
                return f"vertex {x}, module {t}"
    return None


# ------------------------------------------------------------------ taxonomy

@lru_cache(maxsize=None)
def _classes(q):
    """(t, classification of t) for each tilting module t over the reference Q_n."""
    table = ext_table(q)
    return tuple((t, cl.classify(table, t)) for t in enumerate_tilting(q))


def _class_partition(q):
    for t, c in _classes(q):
        if c.bucket not in ("T0", "T1", "T2") or c.problems:
            return f"module {t}: {c.bucket} {c.problems}"
    return None


def _class_a_empty(q):
    bad = [t for t, c in _classes(q) if any(tag.startswith("A") for tag in c.tags)]
    return f"members {bad[:3]}" if bad else None


def _class_counts(q):
    n = len(q.vertices) - 1
    buckets = Counter(c.bucket for _, c in _classes(q))
    t2, t1, t0 = cl.class_count_formulas(n)
    return _mismatch(dict(buckets), {"T2": t2, "T1": t1, "T0": t0})


def _bijection_path(q):
    n = len(q.vertices) - 1
    path_sets = set(cl.tilting_model_sets(path_quiver(n)))
    images = {"+": [], "-": []}
    for t, c in _classes(q):
        if not any(tag.startswith("B") for tag in c.tags):
            continue
        j, sign, ivs = cl.to_path_tilting(c)
        if ivs not in path_sets or cl.min_end_statistic(ivs, n) != j:
            return f"image of {t} off"
        if cl.from_path_tilting(n, j, sign, ivs) != c.models:
            return f"round trip failed on {t}"
        images[sign].append(ivs)
    want_total = {s for s in path_sets if cl.min_end_statistic(s, n) >= 1}
    for sign, got in images.items():
        if len(got) != len(set(got)) or set(got) != want_total:
            return f"sign {sign}: image is not the filtered path family"
        if len(got) != cl.b_count_formula(n):
            return f"sign {sign}: {len(got)} images, want {cl.b_count_formula(n)}"
    return None


def _bijection_shrink(q):
    n = len(q.vertices) - 1
    small_sets = set(cl.tilting_model_sets(d_quiver(n - 1)))
    images = []
    for t, c in _classes(q):
        if not any(tag.startswith("C") for tag in c.tags):
            continue
        j, ms = cl.to_smaller_fork(c)
        if ms not in small_sets or cl.fork_reach_statistic(ms) != j - 1:
            return f"image of {t} off"
        if cl.from_smaller_fork(j, ms) != c.models:
            return f"round trip failed on {t}"
        images.append(ms)
    if len(images) != len(set(images)) or set(images) != small_sets:
        return "images do not exhaust the smaller fork quiver"
    if len(images) != cl.c_count_formula(n):
        return f"{len(images)} images, want {cl.c_count_formula(n)}"
    return None


def _product_split(q):
    n = len(q.vertices) - 1
    fibers = Counter()
    t1_total = 0
    b_total = 0
    for t, c in _classes(q):
        if c.bucket != "T1":
            continue
        t1_total += 1
        if any(tag.startswith("B") for tag in c.tags):
            b_total += 1
            continue
        i, left, right = cl.split_product(c)
        fibers[i] += 1
        if cl.unsplit_product(i, left, right) != c.models:
            return f"round trip failed on {t}"
    for i, size in sorted(fibers.items()):
        # the right factors of fiber i are the vertex-one class over Q_{n-i+1};
        # over q itself (i = 1) that class is counted by the closed form of |C|
        if i == 1:
            right_family = cl.c_count_formula(n)
        else:
            classes = _classes(d_quiver(n - i + 1))
            right_family = sum(c.bucket == "T1" and c.dim_one_vertex == "1" for _, c in classes)
        want = cl.catalan(i - 1) * right_family
        if size != want:
            return f"fiber {i}: {size} vs {want}"
    if sum(fibers.values()) + b_total != t1_total:
        return "fibers and fork-tip classes do not exhaust the middle class"
    return None


def _sincere_cover(q):
    table = ext_table(q)
    bad = [t for t in enumerate_tilting(q) if cl.sincere_stem_summand(table, t) is None]
    return f"members {bad[:3]}" if bad else None


def _fork_pair(q):
    n = len(q.vertices) - 1
    tips = {models.DIndec("L+", 0, n), models.DIndec("L-", 0, n)}
    for t, c in _classes(q):
        if models.DIndec("L", 0, n - 1) in c.models and not tips <= c.models:
            return f"module {t}"
    return None


SUITES = {
    "counts": [
        Check("closed-form-counts-A", (("reference", "A", 1, 9),), _closed_form("A")),
        Check("closed-form-counts-D", (("reference", "D", 3, 8),), _closed_form("D")),
        Check(
            "orientation-invariance",
            (("type", "A", 2, 5), ("type", "D", 4, 5)),
            _orientation_invariant,
        ),
    ],
    "hasse": [
        Check("hasse-property", _HASSE, _hasse),
        Check("poset-axioms", _HASSE, _poset_axioms),
        Check("unique-extremes", _HASSE, _unique_extremes),
        Check("half-degree-sum", _HASSE, _half_degree_sum),
    ],
    "degrees": [
        Check("degree-formula", _HASSE, _degree_formula),
        Check("degree-constant-A", _A1_A6, _degree_constant_a),
        Check("degree-histogram-D", _Q3_Q5, _degree_histogram_d),
    ],
    "oracle": [
        Check("ext-oracle-agreement", _ORACLE, _ext_predicate),
        Check("ar-duality", _ORACLE, _ar_duality),
        Check("hom-criterion-A", _A1_A6, _hom_criterion_a),
        Check("positive-roots", _HASSE, _positive_roots),
        Check("rigidity", _HASSE, _rigidity),
        Check("euler-root-norm", _HASSE, _euler_root_norm),
    ],
    "glue": [
        Check("leaf-projection-closure", _LEAVES, _leaf_closure),
        Check("glued-order", _LEAVES, _glued_order),
        Check("complement-transport", _LEAVES, _complement_transport),
        Check("crossing-arrow-bijection", _LEAVES, _crossing_arrows),
        Check("arrow-decomposition", _LEAVES, _arrow_decomposition),
        Check("simple-membership-dims", _GLUE, _simple_membership),
        Check(
            "reflection-arrow-invariance",
            (("reference", "A", 4, 4), ("reference", "D", 4, 4), ("reference", "A", 5, 5)),
            _reflection_invariant,
        ),
    ],
    "taxonomy": [
        Check("degree-class-partition", _Q2_Q5, _class_partition),
        Check("fork-class-A-empty", _Q2_Q5, _class_a_empty),
        Check("degree-class-counts", _Q3_Q5, _class_counts),
        Check("fork-bijection-path", _Q3_Q4, _bijection_path),
        Check("fork-bijection-shrink", _Q3_Q4, _bijection_shrink),
        Check("product-split", _Q3_Q4, _product_split),
        Check("stem-cover-exists", _Q2_Q5, _sincere_cover),
        Check("full-stem-forces-fork-pair", _Q2_Q5, _fork_pair),
    ],
}

SUITE_ORDER = list(SUITES)

CHECKS = {check.name: check for suite in SUITE_ORDER for check in SUITES[suite]}


def run_suite(suite, max_rank):
    """Run one suite (or "all") and return the ordered check results.

    Raises ValueError for an unknown suite, and for a suite and rank that
    select no instance, so an empty run never passes.
    """
    if suite == "all":
        names = SUITE_ORDER
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for name in names:
        for check in SUITES[name]:
            results.extend(check(max_rank))
    if not results:
        raise ValueError(f"suite {suite!r} selects no checks at --max-rank {max_rank}")
    return results
