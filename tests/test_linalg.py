import hashlib
import importlib
import itertools
import random
import time
from math import gcd, prod

import pytest

from comtes.census import enumerate_q_graphs, enumerate_r_graphs
from comtes.homology import boundary_matrix, homology_range
from comtes.linalg import (
    SNFResult,
    _divisibility_chain,
    _eliminate,
    integer_kernel_basis,
    image_size_mod,
    kernel_mod,
    smith_normal_form,
)
from comtes.racks import dihedral_quandle, graph_of_rack, tetrahedron_quandle
from reference import smith_normal_form as reference_smith_normal_form


def sparse(m):
    """The sparse rows, {column: value}, of a dense matrix."""
    return [{c: v for c, v in enumerate(row) if v} for row in m]


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


def assert_factors_match_minor_gcds(m):
    fs = smith_normal_form(sparse(m)).factors
    oracle = minor_gcds(m)
    assert len(fs) == len(oracle), m
    prod = 1
    for k, d in enumerate(fs):
        prod *= d
        assert prod == oracle[k], m


def sparse_unit_matrix(rng, r, c):
    return [[rng.choice((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3)) for _ in range(c)] for _ in range(r)]


def scrambled(rng, m):
    """M with rows and columns permuted, then random unimodular row
    operations: the same invariant factors, other column lengths, so
    another pivot sequence."""
    r, c = len(m), len(m[0])
    rows, cols = rng.sample(range(r), r), rng.sample(range(c), c)
    out = [[m[i][j] for j in cols] for i in rows]
    for _ in range(r if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        out[i] = [a + k * b for a, b in zip(out[i], out[j])]
    return out


def transposed(m):
    return [list(col) for col in zip(*m)]


def test_frozen_examples():
    assert smith_normal_form(sparse([[2, 4], [6, 8]])).factors == (2, 4)
    assert smith_normal_form(sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).factors == (1, 1, 1)
    assert smith_normal_form(sparse([[0, 0], [0, 0]])).factors == ()


def test_divisibility_chain():
    rng = random.Random(3)
    for _ in range(200):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-8, 9) for _ in range(c)] for _ in range(r)]
        fs = smith_normal_form(sparse(m)).factors
        for i in range(len(fs) - 1):
            assert fs[i + 1] % fs[i] == 0


def fixpoint_divisibility_chain(ds):
    """The gcd/lcm fixpoint loop, repeated over sorted entries until no
    pair changes."""
    ds = sorted(abs(d) for d in ds)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return tuple(ds)


def test_one_pass_divisibility_chain_matches_the_fixpoint_loop():
    # entries are products of repeated small prime powers, with signs and
    # units, so that many pairs need a gcd/lcm swap
    rng = random.Random(41)
    pool = [1, -1, 2, 4, 8, 3, 9, 27, 5, 25, 7]
    for _ in range(3000):
        ds = [prod(rng.choice(pool) for _ in range(rng.randrange(1, 4))) for _ in range(rng.randrange(0, 8))]
        assert _divisibility_chain(ds) == fixpoint_divisibility_chain(ds), ds
    assert _divisibility_chain([-12, 18, 1, -1, 8]) == (1, 1, 2, 12, 72)


def test_factors_match_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(250):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        assert_factors_match_minor_gcds([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)])


def test_factors_match_minor_gcd_oracle_without_units():
    # every pick is a non-unit, so every pivot comes from the reduction
    rng = random.Random(47)
    for _ in range(250):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        assert_factors_match_minor_gcds([[rng.choice((2, -2, 3, -3)) for _ in range(c)] for _ in range(r)])


def test_pivot_order_on_sparse_unit_matrices():
    # Pivots are picked by entry size and column and row length; the
    # factors must not depend on that order.  Small matrices against the
    # minor oracle, larger ones against scrambled and transposed copies.
    rng = random.Random(31)
    for _ in range(300):
        assert_factors_match_minor_gcds(sparse_unit_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 7)))
    for _ in range(60):
        m = sparse_unit_matrix(rng, rng.randrange(1, 21), rng.randrange(1, 41))
        fs = smith_normal_form(sparse(m)).factors
        assert smith_normal_form(sparse(scrambled(rng, m))).factors == fs, m
        assert smith_normal_form(sparse(transposed(m))).factors == fs, m


@pytest.mark.parametrize(
    "x, plain, quotient",
    [(dihedral_quandle(3), 5, 5), (dihedral_quandle(5), 3, 4), (tetrahedron_quandle(), 4, 5)],
    ids=["R3", "R5", "S4"],
)
def test_pivot_order_on_rack_boundary_matrices(x, plain, quotient):
    # every boundary matrix that homology_range reads up to the benchmark's
    # plain and quotient degrees
    rng = random.Random(37)
    g = graph_of_rack(x)
    for q, top in ((False, plain), (True, quotient)):
        for n in range(2, top + 2):
            m = boundary_matrix(n, g, q_quotient=q)
            fs = smith_normal_form(sparse(m)).factors
            assert smith_normal_form(sparse(scrambled(rng, m))).factors == fs, (q, n)
            assert smith_normal_form(sparse(transposed(m))).factors == fs, (q, n)


def test_pivots_are_pinned():
    # One SHA-256 over the pivots, the unit count and Q of _eliminate on
    # seeded sparse matrices with entries +-1, +-2, +-3 (so some picks are
    # not units), with and without ncols.  The pivot rule fixes every
    # kernel vector, so a faster pick must leave this digest unchanged.
    # It changed when the pick key became (|entry|, column length, column,
    # row length, row), the column ahead of the row length; that moves the
    # pivots and Q but not the factors (see the reference tests below).
    h = hashlib.sha256()
    rng = random.Random(53)
    for _ in range(300):
        r, c = rng.randrange(1, 13), rng.randrange(1, 16)
        m = sparse(sparse_unit_matrix(rng, r, c))
        for ncols in (None, c):
            h.update(repr(_eliminate(m, ncols)).encode())
    assert h.hexdigest() == "e31139aa7593cdea05557e7176a7834c65f34b5374ba6d1e0e242feee469b288"


def test_rack_pivots_are_pinned(monkeypatch):
    # One SHA-256 over the pivots and the unit count of _eliminate on every
    # cleared boundary matrix that homology_range eliminates for the
    # benchmark's racks and degrees, which fix every homology table.  d_2
    # is read off a spanning forest, so these are d_3 and up, with the rows
    # of d_3 at the forest's columns cleared.  It changed with the pick key
    # of test_pivots_are_pinned: the pivots and unit columns move, the
    # homology tables do not.  homology_range folds the plain groups of a
    # quandle graph from the quotient range, so the plain half eliminates
    # the rack complex through _elimination_range.
    eliminated = []

    def recording(m):
        eliminated.append(m)
        return smith_normal_form(m)

    homology_module = importlib.import_module("comtes.homology")
    monkeypatch.setattr(homology_module, "smith_normal_form", recording)
    for x, plain, quotient in ((dihedral_quandle(3), 5, 5), (dihedral_quandle(5), 3, 4), (tetrahedron_quandle(), 4, 5)):
        g = graph_of_rack(x)
        homology_module._elimination_range(homology_module.dot_table(g), plain, False)
        homology_range(g, quotient, q_quotient=True)
    assert len(eliminated) == 20
    h = hashlib.sha256()
    for m in eliminated:
        h.update(repr(_eliminate(m)).encode())
    assert h.hexdigest() == "daa46f7806cce072adfcbabdb0099a8e7a331e1fb848ddd037e09973ffe9119c"


def assert_matches_reference(m, where):
    new, old = smith_normal_form(m), reference_smith_normal_form(m)
    assert (new.factors, new.rank) == (old.factors, old.rank), where


def test_pick_matches_the_bucket_scan_on_seeded_matrices():
    # reference.py keeps the elimination whose pick scanned every entry of
    # the shortest unit-holding bucket for the least (row length, column,
    # row); factors and rank must not depend on the pick order.  These are
    # the matrices of test_pivots_are_pinned.
    rng = random.Random(53)
    for _ in range(300):
        r, c = rng.randrange(1, 13), rng.randrange(1, 16)
        m = sparse(sparse_unit_matrix(rng, r, c))
        assert_matches_reference(m, m)


@pytest.mark.parametrize(
    "x, plain, quotient",
    [(dihedral_quandle(3), 5, 5), (dihedral_quandle(5), 3, 4), (tetrahedron_quandle(), 4, 5)],
    ids=["R3", "R5", "S4"],
)
def test_pick_matches_the_bucket_scan_on_rack_boundary_matrices(x, plain, quotient):
    # every boundary matrix that homology_range reads up to the benchmark's
    # plain and quotient degrees, as built, scrambled and transposed
    rng = random.Random(59)
    g = graph_of_rack(x)
    for q, top in ((False, plain), (True, quotient)):
        for n in range(2, top + 2):
            m = boundary_matrix(n, g, q_quotient=q)
            for form, copy in (("plain", m), ("scrambled", scrambled(rng, m)), ("transposed", transposed(m))):
                assert_matches_reference(sparse(copy), (q, n, form))


def test_homology_matches_the_bucket_scan_on_census_samples(monkeypatch):
    # homology_range with the reference elimination in place of the
    # package's, through the census degree; clearing reads unit_columns,
    # which the pick order changes, so this checks clearing too
    rng = random.Random(61)
    cases = [(g, False) for g in rng.sample(enumerate_r_graphs(3), 1000)]
    cases += [(g, q) for g in rng.sample(enumerate_q_graphs(3), 40) for q in (False, True)]
    expected = [homology_range(g, 5, q_quotient=q) for g, q in cases]
    monkeypatch.setattr(importlib.import_module("comtes.homology"), "smith_normal_form", reference_smith_normal_form)
    assert [homology_range(g, 5, q_quotient=q) for g, q in cases] == expected


@pytest.mark.parametrize("n, seed", [(44, 44003), (60, 60000)])
def test_non_unit_matrices_stay_fast(n, seed):
    # Random matrices with no unit entry, where the gcd loop this
    # elimination replaced let the entries grow past 30 s; the factor
    # product must be |det|.
    rng = random.Random(seed)
    m = [{j: rng.choice((2, -2, 3, -3)) for j in range(n) if rng.random() < 0.5} for _ in range(n)]
    start = time.process_time()
    factors = smith_normal_form(m).factors
    assert time.process_time() - start < 1.0
    assert prod(factors) == abs(bareiss_det([[row.get(j, 0) for j in range(n)] for row in m])) > 0


def test_invariance_under_permutations():
    rng = random.Random(11)
    for _ in range(100):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        fs = smith_normal_form(sparse(m)).factors
        rows = list(range(r))
        cols = list(range(c))
        rng.shuffle(rows)
        rng.shuffle(cols)
        m2 = [[m[i][j] for j in cols] for i in rows]
        assert smith_normal_form(sparse(m2)).factors == fs


def test_integer_kernel():
    rng = random.Random(13)
    for _ in range(150):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        basis = integer_kernel_basis(sparse(m), c)
        snf = smith_normal_form(sparse(m))
        assert len(basis) == c - snf.rank
        for v in basis:
            assert all(sum(m[i][j] * v[j] for j in range(c)) == 0 for i in range(r))


def test_transform_is_unimodular_and_diagonalizes():
    rng = random.Random(17)
    for _ in range(100):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        pivots, q, _ = _eliminate(sparse(m), c)
        assert abs(bareiss_det([[q[j][i] for j in range(c)] for i in range(c)])) == 1
        pivot_of = dict(pivots)
        assert len(pivot_of) == len(pivots) == smith_normal_form(sparse(m)).rank
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
    gens = kernel_mod(sparse([[2, 0], [0, 3]]), 2, 6)
    assert sorted(order for _, order in gens) == [2, 3]
    assert prod(order for _, order in gens) == 6
    # 0 matrix: everything is in the kernel
    assert prod(order for _, order in kernel_mod(sparse([[0, 0]]), 2, 4)) == 16
    # each generator really lies in the kernel
    rng = random.Random(19)
    for _ in range(80):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        for mod in (2, 3, 4, 6):
            for vec, order in kernel_mod(sparse(m), c, mod):
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
        assert prod(order for _, order in kernel_mod(sparse(m), c, mod)) == count


def test_stored_zero_entries_are_ignored():
    rng = random.Random(41)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        m = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        # every entry stored, zeros included
        full = [dict(enumerate(row)) for row in m]
        assert smith_normal_form(full) == smith_normal_form(sparse(m))
        assert integer_kernel_basis(full, c) == integer_kernel_basis(sparse(m), c)
        assert kernel_mod(full, c, 6) == kernel_mod(sparse(m), c, 6)
        assert image_size_mod(full, 4) == image_size_mod(sparse(m), 4)
    # a zero stored past the last column is no entry either
    assert integer_kernel_basis([{0: 1, 5: 0}], 2) == [[0, 1]]


def test_input_rows_are_not_mutated():
    # q2_cocycles eliminates one matrix once per factor of the group
    rng = random.Random(43)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [{j: rng.randrange(-3, 4) for j in range(c) if rng.random() < 0.6} for _ in range(r)]
        before = [dict(row) for row in rows]
        first = kernel_mod(rows, c, 6)
        assert rows == before
        assert kernel_mod(rows, c, 6) == first
        smith_normal_form(rows)
        integer_kernel_basis(rows, c)
        image_size_mod(rows, 4)
        assert rows == before


def test_column_outside_ncols_rejected():
    with pytest.raises(ValueError, match="outside range"):
        integer_kernel_basis([{0: 1}, {2: 3}], 2)
    with pytest.raises(ValueError, match="outside range"):
        kernel_mod([{1: 2, 3: 1}], 3, 5)
    with pytest.raises(ValueError, match="outside range"):
        integer_kernel_basis([{-1: 1}], 2)
    with pytest.raises(ValueError, match="outside range"):
        kernel_mod([{0: 1}], 0, 5)


@pytest.mark.parametrize("entry", [2.0, 0.0, 1.5, True, False, "3", None])
def test_non_integer_entry_rejected(entry):
    row = {0: 1, 2: entry}
    with pytest.raises(TypeError, match=r"entry \(1, 2\) is not an integer"):
        smith_normal_form([{0: 3}, row])
    with pytest.raises(TypeError, match=r"entry \(1, 2\) is not an integer"):
        integer_kernel_basis([{0: 3}, row], 3)


@pytest.mark.parametrize("column", [0.5, 1.0, True, False, "a", None])
def test_non_integer_column_rejected(column):
    row = {column: 1, 0: 2}
    with pytest.raises(TypeError, match=r"row 1 has a column that is not an integer"):
        smith_normal_form([{0: 3}, row])
    with pytest.raises(TypeError, match=r"row 1 has a column that is not an integer"):
        integer_kernel_basis([{0: 3}, row], 3)


def test_negative_column_rejected():
    with pytest.raises(ValueError, match="row 1 has a negative column: -1"):
        smith_normal_form([{0: 3}, {-1: 1, 0: 2}])
    assert smith_normal_form([{-1: 0, 0: 2}]).factors == (2,)


def test_dense_rows_are_rejected():
    # a list row used to be read as its values: [[0, 1, 1], [0, 0, 1]] gave
    # rank 1, and [[3, 7]] an IndexError
    for matrix in ([[0, 1, 1], [0, 0, 1]], [[3, 7]]):
        with pytest.raises(TypeError, match=r"^row 0 is not a \{column: value\} dict: list$"):
            smith_normal_form(matrix)
    assert smith_normal_form([{1: 1, 2: 1}, {2: 1}]).rank == 2


@pytest.mark.parametrize("modulus", [True, 2.0, 2.5, "2", None])
def test_non_integer_modulus_rejected(modulus):
    with pytest.raises(TypeError, match="modulus must be an integer"):
        kernel_mod([{0: 2}], 1, modulus)
    with pytest.raises(TypeError, match="modulus must be an integer"):
        image_size_mod([{0: 2}], modulus)


@pytest.mark.parametrize("modulus", [0, -1, -4])
def test_modulus_below_one_rejected(modulus):
    with pytest.raises(ValueError, match=f"^modulus must be positive, got {modulus}$"):
        kernel_mod([{0: 2}], 1, modulus)
    with pytest.raises(ValueError, match=f"^modulus must be positive, got {modulus}$"):
        image_size_mod([{0: 2}], modulus)


def test_image_size_mod():
    assert image_size_mod(sparse([]), 4) == 1
    assert image_size_mod(sparse([[], []]), 4) == 1
    assert image_size_mod(sparse([[2]]), 4) == 2
    assert image_size_mod(sparse([[1]]), 4) == 4
    assert image_size_mod(sparse([[0]]), 4) == 1
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
        assert image_size_mod(sparse(m), mod) == len(span)


def test_unit_made_by_a_gcd_step_is_not_a_unit_column():
    # the pick is 2; the column step 3 - 2 leaves the pivot 1 at column 1,
    # but ker [2 3] is spanned by (3, -2), whose coordinate 1 is not an
    # integer combination of coordinate 0
    pivots, _, units = _eliminate([{0: 2, 1: 3}])
    assert pivots == [(1, 1)] and units == 0
    snf = smith_normal_form([{0: 2, 1: 3}])
    assert snf.factors == (1,)
    assert snf.unit_columns == ()


def test_all_unit_picks_are_the_unit_columns():
    assert smith_normal_form([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1}]).unit_columns == (0, 1, 2)
    # the incidence matrix of a graph is totally unimodular, so every pick
    # is a unit, and the unit columns are the edges of a spanning forest
    rng = random.Random(41)
    for _ in range(100):
        nv = rng.randrange(1, 9)
        edges = [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randrange(0, 12))] if nv > 1 else []
        m = [{} for _ in range(nv)]
        for j, (u, v) in enumerate(edges):
            m[u][j], m[v][j] = 1, -1
        snf = smith_normal_form(m)
        pivots, _, units = _eliminate(m)
        assert units == len(pivots) == snf.rank
        assert snf.unit_columns == tuple(c for c, _ in pivots)
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for j in snf.unit_columns:
            u, v = map(find, edges[j])
            assert u != v, (edges, snf.unit_columns)
            parent[u] = v
        assert len({find(x) for x in range(nv)}) + snf.rank == nv


def test_unit_pick_after_a_non_unit_pick_is_not_a_unit_column():
    # a unit block, then [[2, 3], [3, 5]] (determinant 1): its first pick is
    # 2, and the unit left after the reduction is picked too late to count
    m = [{0: 1}, {1: 2, 2: 3}, {1: 3, 2: 5}]
    pivots, _, units = _eliminate(m)
    assert [abs(d) for _, d in pivots] == [1, 1, 1] and units == 1
    snf = smith_normal_form(m)
    assert snf.factors == (1, 1, 1)
    assert snf.unit_columns == (0,)


def test_clearing_keeps_rank_and_torsion():
    # for N with M N = 0, leaving out the rows of N at the unit columns of M
    # keeps the rank of N and the torsion of its cokernel on ker M
    rng = random.Random(43)
    for _ in range(400):
        r, c = rng.randrange(1, 5), rng.randrange(2, 6)
        m = [[rng.choice((0, 0, 1, -1, 2, 3, -3)) for _ in range(c)] for _ in range(r)]
        kernel = integer_kernel_basis(sparse(m), c)
        if not kernel:
            continue
        mix = [[rng.randrange(-3, 4) for _ in kernel] for _ in range(rng.randrange(1, 4))]
        n = [[sum(a * v[i] for a, v in zip(col, kernel)) for col in mix] for i in range(c)]
        unit = set(smith_normal_form(sparse(m)).unit_columns)
        full = smith_normal_form(sparse(n))
        cleared = smith_normal_form(sparse([row for i, row in enumerate(n) if i not in unit]))
        assert cleared.rank == full.rank, (m, n)
        assert [d for d in cleared.factors if d > 1] == [d for d in full.factors if d > 1], (m, n)


def test_snf_result_constructs_without_unit_columns():
    assert SNFResult((1, 2), 2) == SNFResult((1, 2), 2, ())
