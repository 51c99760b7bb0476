"""Degree-class taxonomy of D-type tilting modules and its counting bijections.

Over the reference fork quiver Q_n the tilting modules split by total degree
into three classes (n+1, n, n-1).  The middle class carries refined tags:
B+/B-(j) when the module has dimension one at a fork tip and contains M(0,j),
C(j) when it has dimension one at vertex 1, and the provably empty A+/A-.
The bijections below realize the count identities: B-classes match path
tilting modules filtered by an interval-end statistic, C-classes match the
one-smaller fork quiver, and the dimension-one position splits the middle
class into products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .models import FAMILIES, AInterval, DIndec
from .quiver import classify_tree, d_quiver, path_quiver
from .tilting import enumerate_tilting, ext_table, module_dim


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def summand_models(table, t):
    """Model tags of the summands; needs a reference-orientation table."""
    out = []
    for s in t:
        model = table.models[s]
        if model is None:
            raise ValueError("summand models are only available at the reference orientation")
        out.append(model)
    return out


def tilting_model_sets(q):
    """All tilting modules of a reference quiver as frozensets of model tags."""
    table = ext_table(q)
    return [
        frozenset(summand_models(table, t)) for t in enumerate_tilting(q)
    ]


@dataclass
class DClassification:
    bucket: str  # "T0" | "T1" | "T2" (or "T?<delta>" if the bound ever failed)
    tags: tuple  # refined tags among "A+", "A-", "B+(j)", "B-(j)", "C(j)"
    problems: tuple
    dim_one_vertex: object = None  # the unique dimension-one vertex in the middle class


def classify(table, t):
    """Class of a tilting module over the reference Q_n by its degree."""
    kind, n = classify_tree(table.quiver)
    if kind != "D":
        raise ValueError("classification applies to D-type quivers")
    mods = summand_models(table, t)
    dims = module_dim(table, t)
    ones = [v for v, d in dims.items() if d == 1]
    delta = (n + 1) - len(ones)
    buckets = {n + 1: "T0", n: "T1", n - 1: "T2"}
    bucket = buckets.get(delta, f"T?{delta}")
    tags = []
    problems = []
    dim_one_vertex = None
    if bucket == "T1":
        dim_one_vertex = ones[0]
        m0 = sorted(m.b for m in mods if m.kind == "M" and m.a == 0)
        all_insincere = all(0 in table.dims[s] for s in t)
        for sign in ("+", "-"):
            if dims[f"{n}{sign}"] == 1:
                if all_insincere:
                    tags.append(f"A{sign}")
                if len(m0) == 1:
                    tags.append(f"B{sign}({m0[0]})")
                elif m0:
                    problems.append("several M(0,j) summands at a dim-one fork tip")
        if dims["1"] == 1:
            if len(m0) == 1:
                tags.append(f"C({m0[0]})")
            else:
                problems.append("dim-one at vertex 1 without a unique M(0,j) summand")
    return DClassification(bucket, tuple(tags), tuple(problems), dim_one_vertex)


def class_count_formulas(n):
    """Expected sizes of (T2, T1, T0) over Q_n."""
    t2 = comb(2 * (n - 1), n - 1) // n
    t1 = 3 * comb(2 * (n - 1), n - 2)
    t0 = 3 * (n - 1) * comb(2 * (n - 1), n - 2) // (n + 1)
    return t2, t1, t0


# ------------------------------------------------- fork tip <-> path bijection

def _b_tag(cls):
    for tag in cls.tags:
        if tag.startswith("B"):
            sign = tag[1]
            j = int(tag[3:-1])
            return sign, j
    return None


def to_path_tilting(table, t):
    """Map a B+/-(j) module to a tilting set of intervals over the n-vertex path.

    Drops M(0,j); interval summands stay intervals and the opposite-tip
    summands become the intervals reaching the last path vertex.
    """
    _, n = classify_tree(table.quiver)
    cls = classify(table, t)
    tagged = _b_tag(cls)
    if tagged is None:
        raise ValueError("module is not in a fork-tip class")
    sign, j = tagged
    other = "L-" if sign == "+" else "L+"
    out = set()
    for m in summand_models(table, t):
        if m.kind == "M" and m.a == 0 and m.b == j:
            continue
        if m.kind == "L":
            out.add(AInterval(m.a, m.b))
        elif m.kind == other:
            out.add(AInterval(m.a, n))
        else:
            raise RuntimeError(f"unexpected summand {m.render()} in a fork-tip class")
    return j, sign, frozenset(out)


def from_path_tilting(n, j, sign, intervals):
    """Inverse: re-adjoin M(0,j) and fold the last-vertex intervals to the tip."""
    other = "L-" if sign == "+" else "L+"
    out = {DIndec("M", 0, j)}
    for iv in intervals:
        if iv.hi == n:
            out.add(DIndec(other, iv.lo, n))
        else:
            out.add(DIndec("L", iv.lo, iv.hi))
    return frozenset(out)


def min_end_statistic(intervals, n):
    """min{j : some interval ends exactly at n-1}, defaulting to n-1.

    The default covers the class containing no such interval: the module
    paired with M(0,n-1) can never carry one.
    """
    ends = [iv.lo for iv in intervals if iv.hi == n - 1]
    return min(ends) if ends else n - 1


def b_count_formula(n):
    """|B+| = |B-| = Catalan(n) - Catalan(n-1)."""
    return catalan(n) - catalan(n - 1)


# --------------------------------------------- vertex-one <-> smaller fork

def _c_tag(cls):
    for tag in cls.tags:
        if tag.startswith("C"):
            return int(tag[2:-1])
    return None


def to_smaller_fork(table, t):
    """Map a C(j) module over Q_n to a tilting model set over Q_{n-1}."""
    _, n = classify_tree(table.quiver)
    if n < 3:
        raise ValueError("shrinking needs fork parameter >= 3")
    cls = classify(table, t)
    j = _c_tag(cls)
    if j is None:
        raise ValueError("module is not in a vertex-one class")
    out = set()
    for m in summand_models(table, t):
        if m.kind == "M" and m.a == 0 and m.b == j:
            continue
        out.add(_shift_down(m, n, 1))
    return j, frozenset(out)


def from_smaller_fork(n, j, mods):
    out = {DIndec("M", 0, j)}
    for m in mods:
        out.add(_shift_up(m, n - 1, 1))
    return frozenset(out)


def _shift_down(m, n, k):
    if m.kind in ("L+", "L-"):
        return DIndec(m.kind, m.a - k, n - k)
    return DIndec(m.kind, m.a - k, m.b - k)


def _shift_up(m, n, k):
    if m.kind in ("L+", "L-"):
        return DIndec(m.kind, m.a + k, n + k)
    return DIndec(m.kind, m.a + k, m.b + k)


def fork_reach_statistic(mods):
    """sup of the fork-reach index: first parameter of L+/-, second of M."""
    vals = [m.a for m in mods if m.kind in ("L+", "L-")]
    vals += [m.b for m in mods if m.kind == "M"]
    return max(vals)


def c_count_formula(n):
    """|C| equals the number of tilting modules over Q_{n-1}, of Dynkin rank n."""
    return FAMILIES["D"].counts(n)[0]


# --------------------------------------------------- product decomposition

def split_product(table, t):
    """Split a middle-class module with dimension one at stem vertex i.

    Returns (i, intervals over the path with i-1 vertices, model set over
    Q_{n-i+1} with dimension one at its vertex 1).
    """
    _, n = classify_tree(table.quiver)
    cls = classify(table, t)
    if cls.bucket != "T1" or cls.dim_one_vertex is None or cls.dim_one_vertex.endswith(("+", "-")):
        raise ValueError("module has no stem vertex of dimension one")
    i = int(cls.dim_one_vertex)
    mods = summand_models(table, t)
    m0 = [m for m in mods if m.kind == "M" and m.a == 0]
    if len(m0) != 1:
        raise RuntimeError("expected a unique M(0,j) summand")
    j = m0[0].b
    left = frozenset(
        AInterval(m.a, m.b) for m in mods if m.kind == "L" and m.b < i
    )
    right = {DIndec("M", 0, j - i + 1)}
    for m in mods:
        if m in m0 or (m.kind == "L" and m.b < i):
            continue
        right.add(_shift_down(m, n, i - 1))
    return i, left, frozenset(right)


def unsplit_product(n, i, left, right):
    """Inverse of the product split over Q_n."""
    right_m0 = [m for m in right if m.kind == "M" and m.a == 0]
    if len(right_m0) != 1:
        raise ValueError("right factor must contain a unique M(0,j)")
    out = {DIndec("M", 0, right_m0[0].b + i - 1)}
    for m in right:
        if m == right_m0[0]:
            continue
        out.add(_shift_up(m, n - i + 1, i - 1))
    for iv in left:
        out.add(DIndec("L", iv.lo, iv.hi))
    return frozenset(out)


def sincere_stem_summand(table, t):
    """A summand covering the whole stem 1..n-1 exists in every tilting module."""
    _, n = classify_tree(table.quiver)
    verts = [str(v) for v in range(1, n)]
    for s in t:
        dims = dict(zip(table.quiver.vertices, table.dims[s]))
        if all(dims[v] >= 1 for v in verts):
            return s
    return None
