import itertools
import random
from math import gcd

from comtes.linalg import (
    _eliminate,
    integer_kernel_basis,
    image_size_mod,
    kernel_mod,
    kernel_size_mod,
    smith_normal_form,
)


def bareiss_det(sub):
    a = [row[:] for row in sub]
    sign, prev, n = 1, 1, len(a)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcds(m):
    """d_1 * ... * d_k must equal the gcd of all k x k minors."""
    out = []
    rows, cols = len(m), len(m[0])
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, abs(bareiss_det([[m[i][j] for j in cs] for i in rs])))
        if g == 0:
            break
        out.append(g)
    return out


def test_frozen_examples():
    assert smith_normal_form([[2, 4], [6, 8]]).factors == (2, 4)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).factors == (1, 1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()


def test_divisibility_chain():
    rng = random.Random(3)
    for _ in range(200):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-8, 9) for _ in range(c)] for _ in range(r)]
        fs = smith_normal_form(m).factors
        for i in range(len(fs) - 1):
            assert fs[i + 1] % fs[i] == 0


def test_factors_match_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(250):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        fs = smith_normal_form(m).factors
        oracle = minor_gcds(m)
        assert len(fs) == len(oracle)
        prod = 1
        for k, d in enumerate(fs):
            prod *= d
            assert prod == oracle[k]


def test_invariance_under_permutations():
    rng = random.Random(11)
    for _ in range(100):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        fs = smith_normal_form(m).factors
        rows = list(range(r))
        cols = list(range(c))
        rng.shuffle(rows)
        rng.shuffle(cols)
        m2 = [[m[i][j] for j in cols] for i in rows]
        assert smith_normal_form(m2).factors == fs


def test_integer_kernel():
    rng = random.Random(13)
    for _ in range(150):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        basis = integer_kernel_basis(m, c)
        snf = smith_normal_form(m)
        assert len(basis) == c - snf.rank
        for v in basis:
            assert all(sum(m[i][j] * v[j] for j in range(c)) == 0 for i in range(r))


def test_transform_is_unimodular_and_diagonalizes():
    rng = random.Random(17)
    for _ in range(100):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        pivots, q = _eliminate(m, c, track_q=True)
        assert abs(bareiss_det([[q[j][i] for j in range(c)] for i in range(c)])) == 1
        pivot_of = dict(pivots)
        assert len(pivot_of) == len(pivots) == smith_normal_form(m).rank
        mq = [[sum(m[i][k] * q[j][k] for k in range(c)) for j in range(c)] for i in range(r)]
        for j in range(c):
            if j not in pivot_of:
                assert all(mq[i][j] == 0 for i in range(r))
        # The row transform P is not recorded, so M Q = P^-1 D: each pivot
        # column is d times a column of a unimodular matrix.  Those columns
        # divided by d must have maximal minors with gcd 1.
        if pivots:
            assert all(mq[i][j] % d == 0 for j, d in pivots for i in range(r))
            u = [[mq[i][j] // d for j, d in pivots] for i in range(r)]
            assert minor_gcds(u) == [1] * len(pivots)


def test_kernel_mod():
    gens = kernel_mod([[2, 0], [0, 3]], 2, 6)
    assert sorted(order for _, order in gens) == [2, 3]
    assert kernel_size_mod([[2, 0], [0, 3]], 2, 6) == 6
    # 0 matrix: everything is in the kernel
    assert kernel_size_mod([[0, 0]], 2, 4) == 16
    # each generator really lies in the kernel
    rng = random.Random(19)
    for _ in range(80):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        for mod in (2, 3, 4, 6):
            for vec, order in kernel_mod(m, c, mod):
                assert order > 1 and mod % order == 0
                assert all(sum(m[i][j] * vec[j] for j in range(c)) % mod == 0 for i in range(r))


def test_kernel_size_mod_brute_force():
    rng = random.Random(29)
    for _ in range(60):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        m = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        mod = rng.choice((2, 3, 4, 6))
        count = sum(
            1
            for x in itertools.product(range(mod), repeat=c)
            if all(sum(m[i][j] * x[j] for j in range(c)) % mod == 0 for i in range(r))
        )
        assert kernel_size_mod(m, c, mod) == count


def test_image_size_mod():
    assert image_size_mod([[2]], 4) == 2
    assert image_size_mod([[1]], 4) == 4
    assert image_size_mod([[0]], 4) == 1
    # brute-force cross-check on small matrices
    rng = random.Random(23)
    for _ in range(60):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        m = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        mod = rng.choice((2, 3, 4))
        span = set()
        for coeffs in itertools.product(range(mod), repeat=c):
            v = tuple(sum(m[i][j] * coeffs[j] for j in range(c)) % mod for i in range(r))
            span.add(v)
        assert image_size_mod(m, mod) == len(span)
