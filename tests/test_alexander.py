import random
from itertools import combinations

import pytest

from comtes import alexander
from comtes.acceptance import _fox_trefoil_oracle, random_comte, random_gauss_diagram
from comtes.alexander import (
    alexander_polynomial,
    minors_gcd,
    multivariable_relation_matrix,
    relation_matrix,
)
from comtes.core import _index_form, components, graph
from comtes.laurent import Laurent, divexact, laurent_gcd
from comtes.links import LinkCodeError, comte_of_gauss, parse_gauss_code
from comtes.moves import SearchBudget, apply_move, enumerate_moves, inverse_instances
from reference import divides

T = Laurent.t()
ONE = Laurent.one()

EXAMPLE = graph("a b c", [("a", "b", "c"), ("a", "c", "b")])
TREFOIL = graph("a b c", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
GRANNY = "O1+U2+O3+U1+O2+U3+O4+U5+O6+U4+O5+U6+"


def _gauss_graph(code):
    return comte_of_gauss(parse_gauss_code(code)).graph


def _torus_gauss(n):
    """T(2,n), n odd: 2n passages alternating over/under, visiting 1..n cyclically."""
    return "".join(("O" if k % 2 == 0 else "U") + f"{k % n + 1}+" for k in range(2 * n))


def _brute_minors_gcd(matrix, r):
    """Reference: gcd of every r x r minor, no shortcuts."""
    if r == 0:
        return ONE
    ncols = len(matrix[0]) if matrix else 0
    acc = Laurent.zero()
    for rows in combinations(range(len(matrix)), r):
        for cols in combinations(range(ncols), r):
            acc = laurent_gcd(acc, alexander._det([[matrix[i][j] for j in cols] for i in rows]))
    return acc.unit_normalize()


def _random_graphs(seed, count):
    """``count`` seeded random comte graphs and ``count`` graphs of random Gauss codes."""
    rng = random.Random(seed)
    out = [random_comte(rng, nmax=5, amax=7).graph for _ in range(count)]
    while len(out) < 2 * count:
        try:
            out.append(_gauss_graph(random_gauss_diagram(rng)))
        except LinkCodeError:
            continue
    return out


class TestRelationMatrix:
    def test_worked_example_matrix(self):
        m = relation_matrix(EXAMPLE)
        assert m[0] == [T, Laurent.const(-1), ONE - T]
        assert m[1] == [T, ONE - T, Laurent.const(-1)]

    def test_self_loop_row_collapses_to_zero(self):
        assert relation_matrix(graph("a", [("a", "a", "a")])) == [[Laurent.zero()]]

    def test_empty_graph(self):
        assert relation_matrix(graph([], [])) == []


class TestAlexanderPolynomial:
    def test_worked_example(self):
        assert alexander_polynomial(EXAMPLE, 1) == T - Laurent.const(2)

    def test_trefoil_with_fox_oracle(self):
        assert alexander_polynomial(TREFOIL, 1) == T * T - T + ONE
        assert _fox_trefoil_oracle()

    def test_comte_reads_its_graph(self):
        c = comte_of_gauss(parse_gauss_code(GRANNY))
        for i in range(4):
            assert alexander_polynomial(c, i) == alexander_polynomial(c.graph, i)
        assert alexander_polynomial(c, 1) == (T * T - T + ONE) * (T * T - T + ONE)

    def test_conventions(self):
        # i >= #V gives 1
        assert alexander_polynomial(EXAMPLE, 3) == ONE
        assert alexander_polynomial(EXAMPLE, 10) == ONE
        # #V - i >= #E + 1 gives 0
        g = graph("a b c", [("a", "b", "c")])
        assert alexander_polynomial(g, 0) == Laurent.zero()
        assert alexander_polynomial(g, 1) == Laurent.zero()

    def test_divisibility_chain(self, make_comte):
        for _ in range(60):
            g = make_comte(nmax=4, amax=6).graph
            polys = [alexander_polynomial(g, i) for i in range(len(g.vertices) + 1)]
            for lo, hi in zip(polys, polys[1:]):
                assert divides(hi, lo)

    def test_coefficient_sum(self, make_comte):
        for _ in range(80):
            g = make_comte(nmax=4, amax=7).graph
            val = sum(alexander_polynomial(g, 1).coeffs.values())
            if len(components(g)) >= 2:
                assert val == 0
            else:
                assert val in (-1, 1)

    def test_invariance_under_moves(self, make_comte, rng):
        budget = SearchBudget(r3b_range=1, max_split_slots=6)
        for _ in range(80):
            c = make_comte(nmax=4, amax=6)
            pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
            if not pool:
                continue
            m = pool[rng.randrange(len(pool))]
            c2 = apply_move(c, m)
            assert alexander_polynomial(c.graph, 1) == alexander_polynomial(c2.graph, 1), m

    def test_granny_knot(self):
        g = _gauss_graph(GRANNY)
        trefoil = T * T - T + ONE
        assert alexander_polynomial(g, 1) == trefoil * trefoil
        assert alexander_polynomial(g, 2) == trefoil

    def test_relabeling_leaves_every_delta_unchanged(self):
        rng = random.Random(7)
        for _ in range(150):
            g = random_comte(rng, nmax=5, amax=7).graph
            vs, arrs = list(g.vertices), [(a.source, a.target, a.label) for a in g.arrows]
            rng.shuffle(vs)
            rng.shuffle(arrs)
            h = graph(vs, arrs)
            for i in range(len(vs) + 1):
                assert alexander_polynomial(g, i) == alexander_polynomial(h, i), (g, i)


class TestMinorsGcd:
    def test_early_exit_and_zero(self):
        z = Laurent.zero()
        assert minors_gcd([[z, z], [z, z]], 1) == z
        assert minors_gcd([[ONE, z], [z, ONE]], 2) == ONE

    @pytest.mark.parametrize("n", [15, 21, 31, 51])
    def test_torus_knot_needs_few_determinants(self, monkeypatch, n):
        calls = []
        det = alexander._det
        monkeypatch.setattr(alexander, "_det", lambda m: calls.append(len(m)) or det(m))
        got = alexander_polynomial(_gauss_graph(_torus_gauss(n)), 1)
        assert len(calls) <= 9
        assert got == divexact(T.shift(n - 1) + ONE, T + ONE).unit_normalize()

    def test_matches_brute_force_on_random_matrices(self):
        for g in _random_graphs(2024, 500):
            m = relation_matrix(g)
            for r in range(len(g.vertices) + 2):
                assert minors_gcd(m, r) == _brute_minors_gcd(m, r), (g, r)


class TestMultivariable:
    def test_specializes_to_single_variable(self):
        """``relation_matrix`` is built as the specialization of the
        multivariable matrix; check it against the one-variable rule itself:
        t at the source, -1 at the target, 1-t at the label, accumulated."""
        for g in _random_graphs(1919, 150):
            idx = _index_form(g)[0]
            want = []
            for a in g.arrows:
                row = [Laurent.zero()] * len(g.vertices)
                for v, entry in ((a.source, T), (a.target, -ONE), (a.label, ONE - T)):
                    row[idx[v]] = row[idx[v]] + entry
                want.append(row)
            assert relation_matrix(g) == want, g

    def test_three_component_transcription(self):
        g = graph("a b c d", [("a", "b", "c"), ("b", "a", "c")])
        mv = multivariable_relation_matrix(g)
        assert len(mv) == 2 and all(p.nvars == 3 for p in mv[0])
        # arrow a --c--> b: source a gets t_i with i the label's component (c is L2)
        from comtes.laurent import MultiLaurent

        assert mv[0][0] == MultiLaurent.var(3, 1)
