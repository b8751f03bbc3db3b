import re

import pytest

from comtes.census import enumerate_r_graphs
from comtes.core import canonical_key, contract, graph
from comtes.finitetype import (
    GraphFormalSum,
    MissingClassError,
    SemiVirtualGraph,
    bracket,
    evaluate,
    is_degree_at_most,
)

G = graph("a b c d", [("a", "b", "a"), ("c", "d", "c"), ("a", "c", "b")])


def vertex_count_nu(fs: GraphFormalSum):
    return {k: len(r.vertices) for k, r in fs.representatives}


class TestBracket:
    def test_empty_s(self):
        fs = bracket(SemiVirtualGraph(G, frozenset()))
        assert fs.terms == ((canonical_key(G), 1),)

    def test_single_arrow(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0})))
        assert fs.coefficient(canonical_key(G)) == 1
        assert fs.coefficient(canonical_key(contract(G, [0]))) == -1

    def test_figure_identity_semivirtual_is_solid_minus_contracted(self):
        for i in range(3):
            fs = bracket(SemiVirtualGraph(G, frozenset({i})))
            total = dict(fs.terms)
            assert sum(total.values()) == 0 and sorted(total.values()) == [-1, 1]

    def test_recursive_expansion(self, rng):
        for _ in range(50):
            vs = [f"v{i}" for i in range(4)]
            arrs = [(rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(5)]
            g = graph(vs, arrs)
            s = frozenset(rng.sample(range(5), 3))
            a = max(s)
            sp = s - {a}
            spa = frozenset(i - (i > a) for i in sp)
            lhs = bracket(SemiVirtualGraph(g, s))
            g_a = contract(g, [a])
            rhs = bracket(SemiVirtualGraph(g, sp)) - bracket(SemiVirtualGraph(g_a, spa))
            assert lhs.terms == rhs.terms

    def test_contraction_order_independence(self, rng):
        # the terms do not depend on the order in which the arrows of each
        # subset are contracted: compare the subset expansion against one
        # built by contracting a shuffled order of single arrows
        from itertools import combinations

        for _ in range(30):
            vs = [f"v{i}" for i in range(4)]
            arrs = [(rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(4)]
            g = graph(vs, arrs)
            s = sorted(rng.sample(range(4), 2))
            coeffs = {}
            for r in range(3):
                for subset in combinations(s, r):
                    order = list(subset)
                    rng.shuffle(order)
                    h = g
                    for k, i in enumerate(order):
                        h = contract(h, [i - sum(1 for j in order[:k] if j < i)])
                    key = canonical_key(h)
                    coeffs[key] = coeffs.get(key, 0) + (-1) ** r
            expected = tuple(sorted((k, v) for k, v in coeffs.items() if v))
            assert bracket(SemiVirtualGraph(g, frozenset(s))).terms == expected

    def test_bad_index(self):
        with pytest.raises(ValueError):
            SemiVirtualGraph(G, frozenset({9}))

    @pytest.mark.parametrize("index", [0.0, True, "0"])
    def test_non_integer_index(self, index):
        # 0.0 and True equal arrow indices but are not ones
        with pytest.raises(TypeError, match=rf"^semi-virtual arrow index must be an integer, got {re.escape(repr(index))}$"):
            SemiVirtualGraph(G, frozenset({index}))

    @pytest.mark.parametrize("semivirtual", [(0, 0), [0], {0}], ids=repr)
    def test_semivirtual_must_be_a_frozenset(self, semivirtual):
        # (0, 0) used to pass as two semi-virtual arrows, so that
        # is_degree_at_most(nu, 2, ...) evaluated the one-arrow bracket
        with pytest.raises(TypeError, match=rf"^semivirtual must be a frozenset of arrow indices, got {re.escape(repr(semivirtual))}$"):
            SemiVirtualGraph(G, semivirtual)


class TestEvaluate:
    def test_vertex_count_single(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0})))
        assert evaluate(vertex_count_nu(fs), fs) == 1

    def test_vertex_count_two_disjoint(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0, 1})))
        assert evaluate(vertex_count_nu(fs), fs) == 0

    def test_constant_vanishes(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0, 1, 2})))
        assert evaluate(lambda key: 11, fs) == 0

    def test_linearity(self, rng):
        fs1 = bracket(SemiVirtualGraph(G, frozenset({0})))
        fs2 = bracket(SemiVirtualGraph(G, frozenset({1, 2})))
        nu = vertex_count_nu(fs1 + fs2)
        assert evaluate(nu, fs1 + fs2) == evaluate(nu, fs1) + evaluate(nu, fs2)

    def test_missing_key_names_representative(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0})))
        with pytest.raises(MissingClassError) as err:
            evaluate({}, fs)
        assert err.value.representative is not None

    def test_a_callable_that_raises_key_error_names_the_class(self):
        fs = bracket(SemiVirtualGraph(G, frozenset({0})))

        def nu(key):
            raise KeyError(key)

        with pytest.raises(MissingClassError) as err:
            evaluate(nu, fs)
        assert err.value.key == b"g(3, ((1, 0, 1, 0), (2, 1, 2, 0)))"
        assert str(err.value) == (
            "invariant not defined on class 'g(3, ((1, 0, 1, 0), (2, 1, 2, 0)))' (representative: "
            "SelfIndexedGraph(vertices=('0', '1', '2'), arrows=(Arrow(source='1', target='0', label='1'), "
            "Arrow(source='2', target='1', label='2'))))"
        )


class TestDegree:
    def _census_family(self, n):
        fam = []
        for g in enumerate_r_graphs(2):
            for i in range(len(g.arrows) - n + 1):
                fam.append(SemiVirtualGraph(g, frozenset(range(i, i + n))))
        return fam

    def test_constant_has_degree_at_most_one(self):
        fam = self._census_family(1)
        assert is_degree_at_most(lambda key: 3, 1, fam).vanishes

    def test_vertex_count_fails_degree_one(self):
        fam = self._census_family(1)
        universe = {}
        for gs in fam:
            universe.update(vertex_count_nu(bracket(gs)))
        report = is_degree_at_most(universe, 1, fam)
        assert not report.vanishes and report.counterexample is not None

    def test_vertex_count_degree_two_over_disjoint_nonloops(self):
        fam = [SemiVirtualGraph(G, frozenset({0, 1}))]
        universe = {}
        for gs in fam:
            universe.update(vertex_count_nu(bracket(gs)))
        assert is_degree_at_most(universe, 2, fam).vanishes

    def test_wrong_family_size(self):
        with pytest.raises(ValueError):
            is_degree_at_most(lambda k: 0, 2, [SemiVirtualGraph(G, frozenset({0}))])


def test_formal_sum_format():
    fs = bracket(SemiVirtualGraph(G, frozenset({0})))
    lines = fs.format().strip().splitlines()
    assert len(lines) == 2 and all("\t" in ln for ln in lines)
