"""Degree-class taxonomy of D-type tilting modules and its counting bijections.

Over the reference fork quiver Q_n the tilting modules split by total degree
into three classes (n+1, n, n-1).  The middle class carries refined tags:
B+/B-(j) when the module has dimension one at a fork tip and contains M(0,j),
C(j) when it has dimension one at vertex 1, and the provably empty A+/A-.
The bijections below realize the count identities: B-classes match path
tilting modules filtered by an interval-end statistic, C-classes match the
one-smaller fork quiver, and the dimension-one position splits the middle
class into products.

`classify` is the one place that works out a module's class: it reads the
fork parameter from the vertex count and the family from the summand models,
and its result carries what the bijections need (the fork parameter, the
summand models, the dimension-one vertex and the j of M(0,j)).  Each
bijection takes that classification, so a module is classified once.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .models import FAMILIES, AInterval, DIndec
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


class DClassification(
    namedtuple("DClassification", "n summands bucket tags problems dim_one_vertex m0", defaults=(None, None))
):
    """The class of one tilting module over Q_n, with what the bijections read.

    n               the fork parameter: the quiver has n + 1 vertices
    summands        the summands' model tags, in id order
    bucket          "T0" | "T1" | "T2" (or "T?<delta>" if the bound ever failed)
    tags            refined tags among "A+", "A-", "B+(j)", "B-(j)", "C(j)"
    problems        what kept a refined tag from being assigned
    dim_one_vertex  the unique dimension-one vertex in the middle class
    m0              j of the only M(0,j) summand; None if there is none or several
    """

    __slots__ = ()

    @property
    def models(self):
        """The summands' model tags as the set the bijections compare with."""
        return frozenset(self.summands)


def classify(table, t):
    """Class of a tilting module over the reference Q_n by its degree.

    Raises ValueError away from the reference orientation, where the
    summands have no models, and for a family other than D, whose models are
    not `DIndec`s.
    """
    mods = summand_models(table, t)
    if not all(isinstance(m, DIndec) for m in mods):
        raise ValueError("classification applies to D-type quivers")
    n = len(table.quiver.vertices) - 1
    dims = module_dim(table, t)
    ones = [v for v, d in dims.items() if d == 1]
    delta = (n + 1) - len(ones)
    buckets = {n + 1: "T0", n: "T1", n - 1: "T2"}
    bucket = buckets.get(delta, f"T?{delta}")
    m0 = sorted(m.b for m in mods if m.kind == "M" and m.a == 0)
    j = m0[0] if len(m0) == 1 else None
    dim_one_vertex = ones[0] if bucket == "T1" else None
    tags = []
    problems = []
    if dim_one_vertex in (f"{n}+", f"{n}-"):
        sign = dim_one_vertex[-1]
        if all(0 in table.dims[s] for s in t):
            tags.append(f"A{sign}")
        if j is not None:
            tags.append(f"B{sign}({j})")
        elif m0:
            problems.append("several M(0,j) summands at a dim-one fork tip")
    elif dim_one_vertex == "1":
        if j is not None:
            tags.append(f"C({j})")
        else:
            problems.append("dim-one at vertex 1 without a unique M(0,j) summand")
    return DClassification(
        n, tuple(mods), bucket, tuple(tags), tuple(problems), dim_one_vertex, j
    )


def class_count_formulas(n):
    """Expected sizes of (T2, T1, T0) over Q_n."""
    t2 = comb(2 * (n - 1), n - 1) // n
    t1 = 3 * comb(2 * (n - 1), n - 2)
    t0 = 3 * (n - 1) * comb(2 * (n - 1), n - 2) // (n + 1)
    return t2, t1, t0


# ------------------------------------------------- fork tip <-> path bijection

def to_path_tilting(c):
    """Map a B+/-(j) module to a tilting set of intervals over the n-vertex path.

    Takes the module's classification.  Drops M(0,j); interval summands
    stay intervals and the opposite-tip summands become the intervals
    reaching the last path vertex.
    """
    if c.m0 is None or c.dim_one_vertex not in (f"{c.n}+", f"{c.n}-"):
        raise ValueError("module is not in a fork-tip class")
    sign = c.dim_one_vertex[-1]
    other = "L-" if sign == "+" else "L+"
    m0 = DIndec("M", 0, c.m0)
    out = set()
    for m in c.summands:
        if m == m0:
            continue
        if m.kind == "L":
            out.add(AInterval(m.a, m.b))
        elif m.kind == other:
            out.add(AInterval(m.a, c.n))
        else:
            raise RuntimeError(f"unexpected summand {m.render()} in a fork-tip class")
    return c.m0, sign, frozenset(out)


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

def to_smaller_fork(c):
    """Map a C(j) module over Q_n, by its classification, to a model set over Q_{n-1}."""
    if c.n < 3:
        raise ValueError("shrinking needs fork parameter >= 3")
    if c.m0 is None or c.dim_one_vertex != "1":
        raise ValueError("module is not in a vertex-one class")
    m0 = DIndec("M", 0, c.m0)
    return c.m0, frozenset(_shift(m, -1) for m in c.summands if m != m0)


def from_smaller_fork(j, mods):
    out = {DIndec("M", 0, j)}
    for m in mods:
        out.add(_shift(m, 1))
    return frozenset(out)


def _shift(m, k):
    """m moved k places along the stem; the b of L+/- is the fork parameter, which moves too."""
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

def split_product(c):
    """Split a middle-class module with dimension one at stem vertex i.

    Takes the module's classification.  Returns (i, intervals over the path
    with i-1 vertices, model set over Q_{n-i+1} with dimension one at its
    vertex 1).
    """
    if c.dim_one_vertex is None or c.dim_one_vertex.endswith(("+", "-")):
        raise ValueError("module has no stem vertex of dimension one")
    if c.m0 is None:
        raise RuntimeError("expected a unique M(0,j) summand")
    i = int(c.dim_one_vertex)
    m0 = DIndec("M", 0, c.m0)
    left = frozenset(
        AInterval(m.a, m.b) for m in c.summands if m.kind == "L" and m.b < i
    )
    right = {DIndec("M", 0, c.m0 - i + 1)}
    for m in c.summands:
        if m == m0 or (m.kind == "L" and m.b < i):
            continue
        right.add(_shift(m, 1 - i))
    return i, left, frozenset(right)


def unsplit_product(i, left, right):
    """Inverse of the product split."""
    right_m0 = [m for m in right if m.kind == "M" and m.a == 0]
    if len(right_m0) != 1:
        raise ValueError("right factor must contain a unique M(0,j)")
    out = {DIndec("M", 0, right_m0[0].b + i - 1)}
    for m in right:
        if m == right_m0[0]:
            continue
        out.add(_shift(m, i - 1))
    for iv in left:
        out.add(DIndec("L", iv.lo, iv.hi))
    return frozenset(out)


def sincere_stem_summand(table, t):
    """A summand covering the whole stem 1..n-1 exists in every tilting module."""
    n = len(table.quiver.vertices) - 1
    # the stem vertices come first in the vertex order, the fork tips last
    for s in t:
        if all(table.dims[s][: n - 1]):
            return s
    return None
