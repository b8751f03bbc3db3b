import importlib
import random

import pytest

from comtes.census import enumerate_q_graphs, graph_from_injections, partial_injections
from comtes.coloring import graph_homomorphisms
from comtes.core import comte, graph, is_homomorphism
from comtes.cubes import build_Yn
from comtes.homology import (
    NotRGraphError,
    boundary_matrix,
    chain_basis,
    chain_boundary,
    cochain_from_cocycle2_on,
    cocycle_vector,
    dot_table,
    enumerate_homs,
    flow_to_cycle,
    homology,
    homology_range,
    hom_tuples,
    q2_cocycles,
    q2_cocycles_of_quandle,
)
from comtes.racks import C2, AbelianGroup, check_cocycle, dihedral_quandle, graph_of_rack, tetrahedron_cocycle, tetrahedron_quandle, trivial_quandle

EXHOC = graph(
    "a b c",
    [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
     ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
)
LOOPS = [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c")]
G2_BAR = graph("a b c", LOOPS + [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"), ("a", "c", "b")])
G3_BAR = graph("a b c", LOOPS + [("a", "b", "c"), ("b", "a", "c"), ("c", "a", "b"), ("a", "c", "b")])


def matmul(a, b):
    if not a or not b or not b[0]:
        return []
    return [
        [sum(a[i][x] * b[x][j] for x in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestHomEnumeration:
    def test_degree_two_basis_is_arrows(self):
        for g in (EXHOC, graph_of_rack(tetrahedron_quandle()), G2_BAR):
            assert len(hom_tuples(2, g)) == len(g.arrows)

    def test_exhoc_has_eight(self):
        assert len(hom_tuples(2, EXHOC)) == 8

    def test_rack_graph_total(self):
        g = graph_of_rack(tetrahedron_quandle())
        for n in range(4):
            assert len(hom_tuples(n, g)) == 4 ** n

    def test_general_path_matches_arrow_count(self):
        gen = graph("a b", [("a", "b", "a"), ("a", "b", "a")])
        with pytest.raises(NotRGraphError):
            dot_table(gen)
        assert len(enumerate_homs(2, gen)) == 2

    def test_r_path_produces_real_homomorphisms(self):
        for n in range(4):
            for ch in enumerate_homs(n, EXHOC):
                assert ch.tuple_form is not None
                assert is_homomorphism(ch.hom, build_Yn(n).graph, EXHOC)

    def test_deterministic_order(self):
        tuples = hom_tuples(3, EXHOC)
        assert tuples == sorted(tuples)

    def test_matches_general_homomorphism_search(self):
        # the general constraint search knows nothing of origin tuples, so
        # it is an independent oracle for the degree-by-degree extension
        rng = random.Random(5)
        injections = partial_injections(3)
        sample = [graph_from_injections([rng.choice(injections) for _ in range(3)]) for _ in range(60)]
        graphs = list(enumerate_q_graphs(3)) + sample
        for g in graphs:
            idx = g.vertex_index()
            for n in range(5):
                homs = graph_homomorphisms(build_Yn(n).graph, g)
                origins = sorted(
                    tuple(idx[dict(h.vertex_map)[str(k)]] for k in range(1, n + 1)) for h in homs
                )
                assert hom_tuples(n, g) == origins, (g, n)

    def test_homology_range_builds_each_basis_once(self, monkeypatch):
        homology_module = importlib.import_module("comtes.homology")
        built = []
        extend = homology_module._extend

        def counting(tables, n, dot, q_quotient):
            built.append(n)
            return extend(tables, n, dot, q_quotient)

        monkeypatch.setattr(homology_module, "_extend", counting)
        homology_range(EXHOC, 5)
        assert built == [1, 2, 3, 4, 5, 6]


class TestBoundary:
    def test_degree_two_formula(self):
        dot = dot_table(EXHOC)
        b2 = chain_basis(2, EXHOC)
        b1 = chain_basis(1, EXHOC)
        m = boundary_matrix(2, EXHOC)
        pos = {t: i for i, t in enumerate(b1)}
        for col, (a1, a2) in enumerate(b2):
            expect = {}
            expect[(a2,)] = expect.get((a2,), 0) - 1
            expect[(dot[a1][a2],)] = expect.get((dot[a1][a2],), 0) + 1
            for row, t in enumerate(b1):
                assert m[row][col] == expect.get(t, 0)

    def test_dd_zero(self):
        for g in (EXHOC, G2_BAR, G3_BAR, graph_of_rack(dihedral_quandle(3))):
            for q in (False, True):
                for n in range(2, 6):
                    prod = matmul(boundary_matrix(n - 1, g, q), boundary_matrix(n, g, q))
                    assert all(v == 0 for row in prod for v in row), (n, q)

    def test_q_quotient_needs_q_graph_basis(self):
        basis = chain_basis(2, EXHOC, q_quotient=True)
        assert all(t[0] != t[1] for t in basis)

    def test_q_quotient_rejected_on_mere_r_graph(self):
        tre = graph("a b c", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
        with pytest.raises(ValueError, match="q-graph"):
            boundary_matrix(2, tre, q_quotient=True)
        with pytest.raises(ValueError, match="q-graph"):
            q2_cocycles(tre, C2)


class TestHomology:
    def test_quadratic_betti_example(self):
        hs = homology_range(EXHOC, 5)
        assert [h.betti for h in hs] == [1, 2, 4, 7, 11]
        assert all(h.torsion == () for h in hs)

    def test_noninvariance_pair(self):
        assert homology(G2_BAR, 3).format() == "Z^4"
        assert homology(G3_BAR, 3).format() == "Z^5"

    def test_h1_of_connected_q_graph_is_z(self):
        for g in (EXHOC, G2_BAR, G3_BAR):
            assert homology(g, 1).format() == "Z"

    def test_published_quandle_homology(self):
        # H^Q_2, H^Q_3 of R_3 and S_4: Carter, Jelsovsky, Kamada, Saito,
        # JPAA 157 (2001); H^Q_3 of R_5: Mochizuki, JPAA 179 (2003)
        r3 = homology_range(graph_of_rack(dihedral_quandle(3)), 3, q_quotient=True)
        assert [h.format() for h in r3[1:]] == ["0", "Z/3"]
        s4 = homology_range(graph_of_rack(tetrahedron_quandle()), 3, q_quotient=True)
        assert [h.format() for h in s4[1:]] == ["Z/2", "Z/2 + Z/4"]
        r5 = homology_range(graph_of_rack(dihedral_quandle(5)), 3, q_quotient=True)
        assert r5[2].format() == "Z/5"

    def test_rack_and_quandle_betti_numbers(self):
        # Etingof, Grana, JPAA 177 (2003): with o orbits, the rack Betti
        # numbers are o^n and the quandle Betti numbers o(o-1)^(n-1)
        for x, o in ((dihedral_quandle(3), 1), (dihedral_quandle(5), 1), (tetrahedron_quandle(), 1), (trivial_quandle(2), 2)):
            g = graph_of_rack(x)
            assert [h.betti for h in homology_range(g, 3)] == [o**n for n in range(1, 4)]
            assert [h.betti for h in homology_range(g, 3, q_quotient=True)] == [o * (o - 1) ** (n - 1) for n in range(1, 4)]

    def test_formats(self):
        from comtes.homology import HomologyGroup

        assert HomologyGroup(0, ()).format() == "0"
        assert HomologyGroup(2, (2, 4)).format() == "Z^2 + Z/2 + Z/4"


class TestChains:
    def test_flow_cycle_iff_conserved(self):
        tre = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
        assert chain_boundary(flow_to_cycle(tre), tre.graph).coeffs == ()
        one = comte("a b x", [("a", "b", "x", 1)])
        bd = chain_boundary(flow_to_cycle(one), one.graph).as_dict()
        assert bd == {(("b",), ()): 1, (("a",), ()): -1}

    def test_zero_flow_zero_chain(self):
        z = comte("a b x", [("a", "b", "x", 0)])
        assert flow_to_cycle(z).coeffs == ()


class TestQ2Cocycles:
    def test_tetrahedron_has_nontrivial_h2q(self):
        res, cocs = q2_cocycles_of_quandle(tetrahedron_quandle(), C2)
        assert res.cocycle_space_size > res.coboundary_space_size
        for f in cocs:
            assert check_cocycle(tetrahedron_quandle(), f) is None

    def test_paper_cocycle_in_kernel(self):
        x = tetrahedron_quandle()
        g = graph_of_rack(x)
        res = q2_cocycles(g, C2)
        m3 = boundary_matrix(3, g, q_quotient=True)
        vec = cocycle_vector(tetrahedron_cocycle(), res.basis, 0)
        n3 = len(chain_basis(3, g, q_quotient=True))
        for col in range(n3):
            assert sum(m3[row][col] * vec[row] for row in range(len(res.basis))) % 2 == 0

    def test_trivial_quandle_trivial_h2q(self):
        res, _ = q2_cocycles_of_quandle(trivial_quandle(1), C2)
        assert res.cocycle_space_size == res.coboundary_space_size == 1

    def test_product_group(self):
        res = q2_cocycles(graph_of_rack(dihedral_quandle(3)), AbelianGroup((2, 3)))
        assert len(res.generators) == 2


class TestPairingIdentity:
    def test_degree_three_boundary_coboundary_adjunction(self, rng):
        """state_sum(dJ, f) == state_sum(J, d*f) for degree-3 chains J on a
        small source and 2-cochains f on the tetrahedron quandle graph."""
        from comtes.coloring import Chain, Cochain, compose_signature, state_sum
        from comtes.core import GraphHomomorphism
        from comtes.cubes import build_Yn, face_signature

        src = EXHOC
        x = tetrahedron_quandle()
        gt = graph_of_rack(x)
        f2 = cochain_from_cocycle2_on(x, tetrahedron_cocycle())

        homs3 = enumerate_homs(3, src)
        assert homs3
        y3 = build_Yn(3)

        def signature(h):
            vm = dict(h.hom.vertex_map)
            return (tuple(vm[v] for v in y3.graph.vertices), h.hom.arrow_map)

        # d* of the 2-cochain: a 3-cochain on the target, defined on every
        # degree-3 homomorphism of gt by pulling back along the faces
        homs3_t = enumerate_homs(3, gt)
        dstar_vals = {}
        for h in homs3_t:
            vm = dict(h.hom.vertex_map)
            sig = (tuple(vm[v] for v in y3.graph.vertices), h.hom.arrow_map)
            sigma = GraphHomomorphism(tuple(sorted(zip(y3.graph.vertices, sig[0]))), sig[1])
            total = C2.identity
            for s in (1, 2):
                sign = -1 if s % 2 else 1
                for eps, fsign in ((0, sign), (1, -sign)):
                    key = compose_signature(face_signature(3, s, eps), sigma)
                    val = f2.values.get(key, C2.identity)
                    total = C2.add(total, C2.scale(val, fsign))
            dstar_vals[sig] = total
        dstar = Cochain(3, dstar_vals)

        for _ in range(10):
            coeffs = {signature(h): rng.randrange(-2, 3) for h in homs3 if rng.random() < 0.6}
            j = Chain.from_dict(3, coeffs)
            dj = chain_boundary(j, src)
            assert dj.degree == 2
            lhs = state_sum(src, dj, gt, f2, C2)
            rhs = state_sum(src, j, gt, dstar, C2)
            assert lhs == rhs


def test_quadratic_betti_pattern_extends_to_degree_six():
    # the Betti numbers of the worked q-graph example follow n(n-1)/2 + 1
    # through every published degree; the pattern persists at degree 6
    hs = homology_range(EXHOC, 6)
    assert [h.betti for h in hs] == [n * (n - 1) // 2 + 1 for n in range(1, 7)]
    assert all(h.torsion == () for h in hs)
