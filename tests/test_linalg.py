import random
from fractions import Fraction
from math import gcd, lcm

from tiltquiver import rep


def rref(rows, ncols):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns).

    The textbook elimination, kept here as the oracle for the integer kernels.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rref_nullspace(rows, ncols):
    """Nullspace basis read off the Fraction rref, one vector per free column."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        # clear denominators, then divide by the gcd
        denom = lcm(*(x.denominator for x in v))
        ints = [int(x * denom) for x in v]
        g = gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


def rank(rows, ncols):
    """Rank as ncols minus the nullity, the way rep.hom_dim reads it."""
    return ncols - len(rep.nullspace(rows, ncols))


def test_rank_basic():
    assert rank([[1, 2], [2, 4]], 2) == 1
    assert rank([[1, 0], [0, 1]], 2) == 2
    assert rank([[0, 0], [0, 0]], 2) == 0
    assert rank([], 2) == 0
    assert rank([[1, 2, 3]], 3) == 1
    assert rank([[1, 2, 0], [1, 2, 1]], 3) == 2


def test_rank_matches_rref_pivots_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        _, pivots = rref(rows, nc)
        assert rank(rows, nc) == len(pivots)


def test_int_rank_matches_rank_on_random_int_matrices():
    rng = random.Random(13)
    for _ in range(600):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        # sparse rows like the intertwiner systems, padded with integer
        # combinations of them so that the rank is deficient
        base = [
            [rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(nc)]
            for _ in range(rng.randint(1, nr))
        ]
        rows = [list(row) for row in base]
        while len(rows) < nr:
            a, b = rng.choice(base), rng.choice(base)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        rng.shuffle(rows)
        want = len(rref(rows, nc)[1])
        assert rank(rows, nc) == want
    assert rank([], 0) == 0
    assert rank([[]], 0) == 0


def test_nullspace_matches_rref_oracle_on_random_int_matrices():
    rng = random.Random(19)
    for _ in range(150):
        nr, nc = rng.randint(0, 6), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert rep.nullspace(rows, nc) == rref_nullspace(rows, nc)


def test_nullspace_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        basis = rep.nullspace(rows, nc)
        # the nullity is ncols minus the rank, the pivot count of the oracle
        assert len(basis) == nc - len(rref(rows, nc)[1])
        for vec in basis:
            assert any(vec)
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_primitive_scaling():
    assert rep.primitive([6, 4]) == [3, 2]
    assert rep.primitive([2, 4]) == [1, 2]
    assert rep.primitive([-3, 6, 9]) == [-1, 2, 3]
    assert rep.primitive([0, 0]) == [0, 0]
