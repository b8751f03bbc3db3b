import functools
import importlib
import itertools
import random
import time
import tracemalloc
from math import gcd, prod

import pytest

from comtes.acceptance import EXAMPLE_QGRAPH
from comtes.census import enumerate_q_graphs, enumerate_r_graphs, graph_from_injections, partial_injections, signature_census
from comtes.coloring import (
    Chain,
    Cochain,
    _after,
    cochain_from_cocycle2_on,
    flow_to_cycle,
    graph_homomorphisms,
    state_sum,
)
from comtes.core import _index_form, canonical_key, classify, comte, components, graph
from comtes.cubes import build_Yn, face_map
from comtes.homology import (
    HomologyGroup,
    NotRGraphError,
    boundary_matrix,
    chain_basis,
    dot_table,
    enumerate_homs,
    homology,
    homology_range,
    hom_tuples,
    q2_cocycles,
)
from comtes.linalg import _BuiltRows, _eliminate, smith_normal_form
from comtes.links import comte_of_gauss, parse_gauss_code
from comtes.racks import C2, AbelianGroup, FiniteRack, check_cocycle, check_rack, dihedral_quandle, graph_of_rack, tetrahedron_cocycle, tetrahedron_quandle, trivial_quandle
from reference import boundary_terms, chain_boundary, code_boundary, is_homomorphism, q2_cocycles_of_quandle

# the attribute comtes.homology is the re-exported function
HOMOLOGY = importlib.import_module("comtes.homology")

EXHOC = graph(
    "a b c",
    [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
     ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
)
LOOPS = [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c")]
G2_BAR = graph("a b c", LOOPS + [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"), ("a", "c", "b")])
G3_BAR = graph("a b c", LOOPS + [("a", "b", "c"), ("b", "a", "c"), ("c", "a", "b"), ("a", "c", "b")])


def origin_images(h, n):
    """The images of the Y_n cube origins "1".."n", which determine a
    homomorphism into an r-graph."""
    vs = build_Yn(n).graph.vertices
    return tuple(h.vertex_images[vs.index(str(k))] for k in range(1, n + 1))


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
            for h in enumerate_homs(n, EXHOC):
                assert is_homomorphism(h, build_Yn(n).graph, EXHOC)

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
            idx = _index_form(g)[0]
            for n in range(5):
                homs = graph_homomorphisms(build_Yn(n).graph, g)
                origins = sorted(tuple(idx[v] for v in origin_images(h, n)) for h in homs)
                assert hom_tuples(n, g) == origins, (g, n)

    def test_homology_range_builds_each_basis_once(self, monkeypatch):
        homology_module = importlib.import_module("comtes.homology")
        built = []
        extend = homology_module._extend

        def counting(states, n, *rest):
            built.append(n)
            return extend(states, n, *rest)

        monkeypatch.setattr(homology_module, "_extend", counting)
        homology_range(EXHOC, 5)
        assert built == [1, 2, 3, 4, 5, 6]

    def test_homology_range_builds_one_dot_table(self, monkeypatch):
        # the quandle test and the fold read the one table the call built
        calls = []
        dot_table = HOMOLOGY.dot_table

        def counting(g):
            calls.append(g)
            return dot_table(g)

        monkeypatch.setattr(HOMOLOGY, "dot_table", counting)
        for g in (EXHOC, graph_of_rack(dihedral_quandle(3)), graph_of_rack(FiniteRack.from_table([[1, 2, 0]] * 3))):
            calls.clear()
            homology_range(g, 3)
            assert calls == [g]

    def test_enumerate_homs_are_the_searched_homs(self):
        # on r-graphs enumerate_homs reads homs off the origin tuples; the
        # general search over Y_n is an independent oracle for them
        rng = random.Random(21)
        injections = partial_injections(3)
        sample = [graph_from_injections([rng.choice(injections) for _ in range(3)]) for _ in range(30)]
        racks = [graph_of_rack(x) for x in (trivial_quandle(2), dihedral_quandle(3), tetrahedron_quandle())]
        for g in list(enumerate_q_graphs(3)) + sample + racks:
            idx = _index_form(g)[0]
            for n in range(5):
                homs = enumerate_homs(n, g)
                searched = graph_homomorphisms(build_Yn(n).graph, g)
                assert len(homs) == len(searched) and set(homs) == set(searched), (g, n)
                assert [tuple(idx[v] for v in origin_images(h, n)) for h in homs] == hom_tuples(n, g), (g, n)

    def test_enumerate_homs_builds_one_dot_table(self, monkeypatch):
        # the attribute comtes.homology is the re-exported function, so
        # patch the module itself
        homology_module = importlib.import_module("comtes.homology")
        calls = []
        dot_table = homology_module.dot_table

        def counting(g):
            calls.append(g)
            return dot_table(g)

        monkeypatch.setattr(homology_module, "dot_table", counting)
        homs = enumerate_homs(4, graph_of_rack(tetrahedron_quandle()))
        assert len(homs) == 256 and len(calls) == 1

    def test_tuple_bases_match_a_brute_force_over_all_relations(self):
        # every tuple is tried, and every relation of Y_n, read off the
        # word-built cube, is checked on its full F table,
        # F(S) = a_min(S) . F(S - min(S)); the decoded code bases must be
        # exactly the tuples that pass, in lexicographic order

        def brute(dot, n, q_quotient):
            relations = [
                (sum(1 << (k - 1) for k in lab), sum(1 << (k - 1) for k in src), sum(1 << (k - 1) for k in src) | 1 << (d - 1))
                for (src, d), lab in zip(build_Yn(n).arrow_data, build_Yn(n).arrow_words)
            ]
            tuples = []
            for t in itertools.product(range(len(dot)), repeat=n):
                if q_quotient and any(t[i] == t[i + 1] for i in range(n - 1)):
                    continue
                f = [0] * (1 << n)
                for mask in range(1, 1 << n):
                    low = (mask & -mask).bit_length() - 1
                    rest = mask & (mask - 1)
                    f[mask] = t[low] if not rest else dot[t[low]][f[rest]] if f[rest] != -1 else -1
                if -1 not in f[1:] and all(dot[f[lam]][f[s]] == f[td] for lam, s, td in relations):
                    tuples.append(t)
            return tuples

        rng = random.Random(29)
        injections = partial_injections(3)
        cases = [(graph_from_injections([rng.choice(injections) for _ in range(3)]), False) for _ in range(40)]
        for x in (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle()):
            cases += [(graph_of_rack(x), False), (graph_of_rack(x), True)]
        # no r-graph: two arrows labeled b end at c
        cases.append((graph("a b c", [("a", "c", "b"), ("b", "c", "b"), ("c", "c", "c"), ("b", "a", "a")]), False))
        for g, q in cases:
            dot = dot_table(g)
            for top in range(6):
                assert chain_basis(top, g, q) == brute(dot, top, q), (g, top, q)

    def test_boundary_rows_match_the_per_tuple_formula(self):
        # the face arithmetic on codes against boundary_terms on tuples:
        # the same rows, entries and entry order that Smith elimination reads
        homology_module = importlib.import_module("comtes.homology")
        rng = random.Random(43)
        injections = partial_injections(3)
        cases = [(g, q) for g in enumerate_q_graphs(3) for q in (False, True)]
        cases += [(graph_from_injections([rng.choice(injections) for _ in range(3)]), False) for _ in range(300)]
        for x in (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle()):
            cases += [(graph_of_rack(x), False), (graph_of_rack(x), True)]
        for g, q in cases:
            dot = dot_table(g)
            nv, codes, acted = homology_module._bases_of(g, 6, q)
            bases = [chain_basis(n, g, q) for n in range(7)]
            for n in range(1, 7):
                pos = {t: i for i, t in enumerate(bases[n - 1])}
                expect = [{} for _ in pos]
                for col, t in enumerate(bases[n]):
                    for face, coeff in boundary_terms(t, dot, q).items():
                        expect[pos[face]][col] = coeff
                rows = homology_module._boundary(nv, codes, acted, n)
                assert [list(r.items()) for r in rows] == [list(r.items()) for r in expect], (g, n, q)

    def test_large_vertex_counts(self):
        # codes of T(2,51) reach 51^5, and R_12 has 144 pairs per mask
        knot = comte_of_gauss(parse_gauss_code("".join(("O" if k % 2 == 0 else "U") + f"{k % 51 + 1}+" for k in range(102))))
        assert [h.format() for h in homology_range(knot.graph, 4)] == ["Z", "Z", "0", "0"]
        r12 = graph_of_rack(dihedral_quandle(12))
        assert [h.format() for h in homology_range(r12, 2)] == ["Z^2", "Z^4 + Z/2 + Z/2"]

    @pytest.mark.parametrize(
        "fn, n",
        [(enumerate_homs, -1), (chain_basis, -1), (hom_tuples, -1), (hom_tuples, -2), (boundary_matrix, -1)],
        ids=["enumerate_homs", "chain_basis", "hom_tuples", "hom_tuples_-2", "boundary_matrix"],
    )
    def test_negative_degree_rejected(self, fn, n):
        with pytest.raises(ValueError, match="non-negative"):
            fn(n, EXHOC)

    def test_degree_zero_boundary_has_no_rows(self):
        # C_-1 = 0
        assert boundary_matrix(0, EXHOC) == []
        assert boundary_matrix(1, EXHOC) == [[0, 0, 0]]


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

    @pytest.mark.parametrize("p, top", [(3, 8), (5, 4)])
    def test_dihedral_quandle_homology_is_delayed_fibonacci(self, p, top):
        # H^Q_1(R_p) = Z and H^Q_n(R_p) = (Z/p)^(f_n) for n >= 2, with
        # f_n = f_(n-1) + f_(n-3), f_1 = f_2 = 0, f_3 = 1: conjectured by
        # Niebrzydowski, Przytycki, "Homology of dihedral quandles", JPAA
        # 213 (2009); proved by Nosaka, "On quandle homology groups of
        # Alexander quandles of prime order", Trans. AMS 365 (2013)
        f = [None, 0, 0, 1]
        while len(f) <= top:
            f.append(f[-1] + f[-3])
        hs = homology_range(graph_of_rack(dihedral_quandle(p)), top, q_quotient=True)
        assert hs[0] == HomologyGroup(1, ())
        assert hs[1:] == tuple(HomologyGroup(0, (p,) * f[n]) for n in range(2, top + 1))

    def test_boundary_matrices_are_built_sparse(self):
        # under tracemalloc, R_5 quandle homology through degree 4 peaks at
        # 9.45 MiB when each boundary matrix is built dense and scanned into
        # row dicts, and at 6.59 MiB when it is built as row dicts
        g = graph_of_rack(dihedral_quandle(5))
        tracemalloc.start()
        try:
            hs = homology_range(g, 4, q_quotient=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [h.format() for h in hs] == ["Z", "0", "Z/5", "Z/5"]
        assert peak < 8 * 2**20, peak

    def test_r5_quandle_homology_through_degree_five(self):
        # delayed Fibonacci f_2..f_5 = 0, 1, 1, 1 (see above); with clearing
        # the rows of d_6 at the unit pivots of d_5 are never built, and
        # under tracemalloc the run peaks at 6.9 MiB (the full 1,280 x
        # 5,120 matrix d_6 alone took about 18 s to eliminate)
        g = graph_of_rack(dihedral_quandle(5))
        tracemalloc.start()
        try:
            hs = homology_range(g, 5, q_quotient=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [h.format() for h in hs] == ["Z", "0", "Z/5", "Z/5", "Z/5"]
        assert peak < 8 * 2**20, peak

    def test_r5_quandle_homology_through_degree_six(self):
        # f_6 = 2; the cleared d_7 has 20,480 columns, and its Smith
        # elimination carries the run (about 2 s of processor time on a
        # 2-vCPU machine; tracemalloc would triple that, so memory is not
        # bounded here)
        hs = homology_range(graph_of_rack(dihedral_quandle(5)), 6, q_quotient=True)
        assert [h.format() for h in hs] == ["Z", "0", "Z/5", "Z/5", "Z/5", "Z/5 + Z/5"]

    def test_r5_rack_homology_through_degree_five(self):
        # the rack (plain) complex: Betti numbers o^n = 1 (Etingof, Grana,
        # below), and the 5-torsion Z/5, (Z/5)^2, (Z/5)^4 in degrees 3..5.
        # R_5 is a quandle, so these are folded from the quotient range
        # (TestQuandleFold): about 0.2 s of processor time on a 2-vCPU
        # machine, where eliminating the cleared d_6 of the rack complex,
        # 15,625 columns, took about 1 s
        hs = homology_range(graph_of_rack(dihedral_quandle(5)), 5)
        assert [h.format() for h in hs] == ["Z", "Z", "Z + Z/5", "Z + Z/5 + Z/5", "Z + Z/5 + Z/5 + Z/5 + Z/5"]

    def test_r5_rack_homology_through_degree_six(self):
        # folded from the quotient range through degree 6, whose Smith
        # elimination carries the run (about 2 s of processor time on a
        # 2-vCPU machine); eliminating the rack complex took about 19 s
        start = time.process_time()
        hs = homology_range(graph_of_rack(dihedral_quandle(5)), 6)
        spent = time.process_time() - start
        assert [h.format() for h in hs] == ["Z", "Z"] + ["Z + " + " + ".join(["Z/5"] * k) for k in (1, 2, 4, 7)]
        assert spent < 6.0, spent

    def test_rack_and_quandle_betti_numbers(self):
        # Etingof, Grana, JPAA 177 (2003): with o orbits, the rack Betti
        # numbers are o^n and the quandle Betti numbers o(o-1)^(n-1)
        for x, o in ((dihedral_quandle(3), 1), (dihedral_quandle(5), 1), (tetrahedron_quandle(), 1), (trivial_quandle(2), 2)):
            g = graph_of_rack(x)
            assert [h.betti for h in homology_range(g, 3)] == [o**n for n in range(1, 4)]
            assert [h.betti for h in homology_range(g, 3, q_quotient=True)] == [o * (o - 1) ** (n - 1) for n in range(1, 4)]

    def test_negative_max_degree_rejected(self):
        assert homology_range(EXHOC, 0) == ()
        with pytest.raises(ValueError, match="non-negative"):
            homology_range(EXHOC, -1)

    def test_degree_zero_is_z_and_negative_rejected(self):
        assert homology(EXAMPLE_QGRAPH, 0) == HomologyGroup(1, ())
        with pytest.raises(ValueError, match="non-negative"):
            homology(EXAMPLE_QGRAPH, -1)

    def test_formats(self):
        assert HomologyGroup(0, ()).format() == "0"
        assert HomologyGroup(2, (2, 4)).format() == "Z^2 + Z/2 + Z/4"


def uncleared_homology_range(g, top, q_quotient=False):
    """homology_range without clearing: the Smith form of every full
    boundary matrix."""
    sizes = [len(chain_basis(k, g, q_quotient)) for k in range(top + 2)]
    snfs = {
        k: smith_normal_form([{c: v for c, v in enumerate(row) if v} for row in boundary_matrix(k, g, q_quotient)])
        for k in range(2, top + 2)
    }
    rank = {k: snf.rank for k, snf in snfs.items()}
    return tuple(
        HomologyGroup(sizes[k] - rank.get(k, 0) - rank[k + 1], tuple(d for d in snfs[k + 1].factors if d > 1))
        for k in range(1, top + 1)
    )


class TestClearing:
    def test_seeded_r_graphs_match_the_uncleared_forms(self):
        rng = random.Random(17)
        injections = partial_injections(3)
        for _ in range(1000):
            g = graph_from_injections([rng.choice(injections) for _ in range(3)])
            assert homology_range(g, 4) == uncleared_homology_range(g, 4), g

    def test_q_graphs_match_the_uncleared_forms(self):
        for g in enumerate_q_graphs(3):
            assert homology_range(g, 5, q_quotient=True) == uncleared_homology_range(g, 5, q_quotient=True), g

    @pytest.mark.parametrize("q", [False, True])
    def test_rack_graphs_match_the_uncleared_forms(self, q):
        for x in (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle()):
            # the plain groups of these quandle graphs are folded, so the
            # cleared elimination of the rack complex is checked on its own
            g = graph_of_rack(x)
            want = uncleared_homology_range(g, 4, q_quotient=q)
            assert homology_range(g, 4, q_quotient=q) == HOMOLOGY._elimination_range(dot_table(g), 4, q) == want

    def test_seeded_four_vertex_r_graphs_match_the_uncleared_forms(self):
        # forests of several trees, a vertex that no arrow meets, and d_2
        # with zero columns only (loops only)
        rng = random.Random(29)
        injections = partial_injections(4)
        pools = [
            injections,
            [inj for inj in injections if inj[3] == -1 and 3 not in inj],
            [inj for inj in injections if all(t == -1 or t // 2 == b // 2 for b, t in enumerate(inj))],
            [inj for inj in injections if all(t in (-1, b) for b, t in enumerate(inj))],
        ]
        trees = []
        for i in range(120):
            g = graph_from_injections([rng.choice(pools[i % 4]) for _ in range(4)])
            trees.append(sum(1 for comp in components(g) if len(comp) > 1))
            assert homology_range(g, 3) == uncleared_homology_range(g, 3), g
        assert trees.count(0) >= 30 and trees.count(2) >= 10


@functools.cache
def checked_boundaries():
    """One pass over every boundary that the three-vertex r- and q-graph
    signature censuses through degree 5 and the benchmark's rack ranges
    build, checked as it is built.  Per source: the boundaries built, the
    degrees of those whose rows differ from ``code_boundary`` on the same
    arguments (as dicts or in column order) or that are not ``_BuiltRows``,
    the Smith calls, those that get no nonzero row, and those whose
    ``_eliminate`` differs from ``_eliminate`` on a plain list copy."""
    build, snf = HOMOLOGY._boundary, HOMOLOGY.smith_normal_form
    stats = {}

    def checked_build(*args):
        rows = build(*args)
        seen["built"] += 1
        if type(rows) is not _BuiltRows or [list(r.items()) for r in rows] != [list(r.items()) for r in code_boundary(*args)]:
            seen["row mismatches"].append(args[3])
        return rows

    def checked_snf(m):
        seen["smith"] += 1
        seen["zero"] += not any(m)
        seen["elimination mismatches"] += _eliminate(m) != _eliminate(list(m))
        return snf(m)

    runs = {
        "r3": lambda: signature_census(enumerate_r_graphs(3), 5),
        "q3": lambda: signature_census(enumerate_q_graphs(3), 5),
        "racks": lambda: [
            (HOMOLOGY._elimination_range(dot_table(graph_of_rack(x)), plain, False),
             homology_range(graph_of_rack(x), quotient, q_quotient=True))
            for x, plain, quotient in ((dihedral_quandle(3), 5, 5), (dihedral_quandle(5), 3, 4), (tetrahedron_quandle(), 4, 5))
        ],
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HOMOLOGY, "_boundary", checked_build)
        mp.setattr(HOMOLOGY, "smith_normal_form", checked_snf)
        for source, run in runs.items():
            seen = stats[source] = {"built": 0, "row mismatches": [], "smith": 0, "zero": 0, "elimination mismatches": 0}
            run()
    return stats


class TestBuiltBoundaries:
    """``_boundary`` writes each face straight into its row and returns
    ``_BuiltRows``, which ``_eliminate`` copies without checking them, and
    ``_elimination_range`` takes no Smith form of a boundary without a
    nonzero row."""

    @pytest.mark.parametrize("source", ["r3", "q3", "racks"])
    def test_rows_match_the_scratch_dict_rows(self, source):
        stats = checked_boundaries()[source]
        assert stats["built"] and stats["row mismatches"] == []

    @pytest.mark.parametrize("source", ["r3", "q3", "racks"])
    def test_built_rows_eliminate_as_a_checked_copy(self, source):
        stats = checked_boundaries()[source]
        assert stats["smith"] and stats["elimination mismatches"] == 0

    def test_census_smith_calls_are_pinned(self):
        # (boundaries built, Smith calls, Smith calls without a nonzero
        # row): 6,936 of the census boundaries clear to zero and take no
        # Smith form; every rack boundary takes one.  The row of each of
        # the 3 quandle classes eliminates its quotient complex twice, once
        # per call of homology_range
        stats = checked_boundaries()
        assert {source: (s["built"], s["smith"], s["zero"]) for source, s in stats.items()} == {
            "r3": (15569, 8744, 0),
            "q3": (369, 258, 0),
            "racks": (20, 20, 0),
        }


def spindle_classes(n, bijective):
    """One graph per isomorphism class of the tables t[a][b] = a.b on n
    elements with a.a = a and a.(x.y) = (a.x).(a.y): the spindles, or the
    quandles when ``bijective`` keeps the tables with bijective rows.  A
    row need not be injective, so the graph is built arrow by arrow, not
    by ``graph_from_injections``."""
    rows = list(itertools.permutations(range(n)) if bijective else itertools.product(range(n), repeat=n))
    classes = {}
    for t in itertools.product(*[[r for r in rows if r[a] == a] for a in range(n)]):
        if all(t[a][t[x][y]] == t[t[a][x]][t[a][y]] for a, x, y in itertools.product(range(n), repeat=3)):
            g = graph([str(v) for v in range(n)], [(str(b), str(t[a][b]), str(a)) for a in range(n) for b in range(n)])
            classes.setdefault(canonical_key(g), g)
    return list(classes.values())


class TestQuandleFold:
    """On a quandle graph, or any graph whose table is total, idempotent
    and distributive, homology_range folds the plain groups from the
    quotient range; ``_elimination_range`` eliminates the rack complex."""

    @pytest.mark.parametrize(
        "x, top", [(dihedral_quandle(3), 7), (dihedral_quandle(5), 5), (tetrahedron_quandle(), 6)], ids=["R3", "R5", "S4"]
    )
    def test_fold_matches_the_elimination_on_rack_graphs(self, x, top):
        # S_4 in degree 6 is the first place where a Tor term is nonzero
        g = graph_of_rack(x)
        assert homology_range(g, top) == HOMOLOGY._elimination_range(dot_table(g), top, False)

    @pytest.mark.parametrize("n, bijective, top, count", [(3, True, 6, 3), (3, False, 6, 17), (4, True, 5, 7)])
    def test_fold_matches_the_elimination_on_small_spindles(self, n, bijective, top, count):
        # 3 and 7 quandles of order 3 and 4, the quandles of the 3- and
        # 4-vertex q censuses; the 3-element spindles add non-bijective rows
        graphs = spindle_classes(n, bijective)
        assert len(graphs) == count
        for g in graphs:
            assert homology_range(g, top) == HOMOLOGY._elimination_range(dot_table(g), top, False), g

    def test_graphs_outside_the_precondition_are_eliminated(self, monkeypatch):
        total = [g for g in enumerate_q_graphs(3) if all(-1 not in row for row in dot_table(g))]
        nondistributive = [g for g in total if check_rack(dot_table(g)).kind != "quandle"]
        assert len(total) == 4 and len(nondistributive) == 1
        cyclic = graph_of_rack(FiniteRack.from_table([[(y + 1) % 3 for y in range(3)]] * 3))
        assert classify(cyclic) == "r"
        calls = []

        def counting(m):
            calls.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(HOMOLOGY, "smith_normal_form", counting)

        def eliminated(run):
            calls.clear()
            out = run()
            return out, list(calls)

        for g in (nondistributive[0], G2_BAR, cyclic):
            dot = dot_table(g)
            want = eliminated(lambda: HOMOLOGY._elimination_range(dot, 4, False))
            assert want[1] and eliminated(lambda: homology_range(g, 4)) == want, g
        # a quandle graph eliminates its quotient complex alone
        g = graph_of_rack(dihedral_quandle(3))
        quotient = eliminated(lambda: HOMOLOGY._elimination_range(dot_table(g), 4, True))[1]
        assert eliminated(lambda: homology_range(g, 4))[1] == quotient


class TestSpanningForest:
    """homology_range reads d_2 off a spanning forest of the arrows
    x -> a.x, which needs each column of d_2 to be empty or -1 at x and +1
    at a.x."""

    def test_every_column_of_d2_is_an_arrow_or_empty(self):
        r3, q3 = enumerate_r_graphs(3), enumerate_q_graphs(3)
        racks = [graph_of_rack(x) for x in (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle())]
        for g, q in [(g, False) for g in r3 + q3 + racks] + [(g, True) for g in q3 + racks]:
            dot = dot_table(g)
            m = boundary_matrix(2, g, q)
            assert chain_basis(1, g, q) == [(x,) for x in range(len(dot))]
            for col, (a, x) in enumerate(chain_basis(2, g, q)):
                column = {row: m[row][col] for row in range(len(m)) if m[row][col]}
                assert column == ({} if dot[a][x] == x else {x: -1, dot[a][x]: 1}), (g, q, a, x)

    def test_h1_counts_the_components_on_the_three_vertex_censuses(self):
        for g in enumerate_r_graphs(3):
            assert homology_range(g, 1) == (HomologyGroup(len(components(g)), ()),), g
        for g in enumerate_q_graphs(3):
            want = (HomologyGroup(len(components(g)), ()),)
            assert homology_range(g, 1) == homology_range(g, 1, q_quotient=True) == want, g


class TestChains:
    def test_flow_cycle_iff_conserved(self):
        tre = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
        assert chain_boundary(flow_to_cycle(tre), tre.graph).coeffs == ()
        one = comte("a b x", [("a", "b", "x", 1)])
        bd = dict(chain_boundary(flow_to_cycle(one), one.graph).coeffs)
        assert bd == {(("b",), ()): 1, (("a",), ()): -1}

    def test_non_conserved_boundary_pinned(self):
        c = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 2), ("c", "a", "a", -1)])
        cycle = flow_to_cycle(c)
        assert cycle.coeffs == (
            ((("a", "a", "c"), (2,)), -1), ((("a", "c", "b"), (1,)), 2), ((("c", "b", "a"), (0,)), 1),
        )
        assert chain_boundary(cycle, c.graph).coeffs == (
            ((("a",), ()), -2), ((("b",), ()), -1), ((("c",), ()), 3),
        )

    def test_faces_of_rack_homs_are_homomorphisms(self):
        for x in (dihedral_quandle(3), tetrahedron_quandle()):
            g = graph_of_rack(x)
            for n in range(2, 5):
                y, lo = build_Yn(n).graph, build_Yn(n - 1).graph
                for h in enumerate_homs(n, g):
                    for s in range(1, n):
                        for eps in (0, 1):
                            assert is_homomorphism(_after(h, y)(face_map(n, s, eps)), lo, g), (x, n, h, s, eps)

    def test_zero_flow_zero_chain(self):
        z = comte("a b x", [("a", "b", "x", 0)])
        assert flow_to_cycle(z).coeffs == ()

    def test_tetrahedral_cocycle_as_cochain(self):
        # (vertex images in Y_2 vertex order, arrow index) -> f value, in
        # the order of the rack graph's arrows
        want = [
            ("000", 0, 0), ("021", 1, 0), ("032", 2, 0), ("013", 3, 0),
            ("130", 4, 0), ("111", 5, 0), ("102", 6, 1), ("123", 7, 1),
            ("210", 8, 0), ("231", 9, 1), ("222", 10, 0), ("203", 11, 1),
            ("320", 12, 0), ("301", 13, 1), ("312", 14, 1), ("333", 15, 0),
        ]
        f = cochain_from_cocycle2_on(tetrahedron_quandle(), tetrahedron_cocycle())
        assert f.degree == 2
        assert list(f.values.items()) == [((tuple(vs), (e,)), (v,)) for vs, e, v in want]


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
        vec = [tetrahedron_cocycle().value(a, b)[0] for a, b in res.basis]
        n3 = len(chain_basis(3, g, q_quotient=True))
        for col in range(n3):
            assert sum(m3[row][col] * vec[row] for row in range(len(res.basis))) % 2 == 0

    def test_trivial_quandle_trivial_h2q(self):
        res, _ = q2_cocycles_of_quandle(trivial_quandle(1), C2)
        assert res.cocycle_space_size == res.coboundary_space_size == 1

    def test_cohomology_size_is_universal_coefficients(self):
        # Z^2 / B^2 with Z/m values is Hom(H^Q_2, Z/m) + Ext(H^Q_1, Z/m);
        # for Z^b + sum Z/d these have m^b prod gcd(d, m) and prod gcd(d, m)
        # elements.  The generators of a quandle's cocycles are cocycles.
        racks = (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle())
        graphs = [graph_of_rack(x) for x in racks] + enumerate_q_graphs(3)
        for g in graphs:
            h1, h2 = homology_range(g, 2, q_quotient=True)
            for m in (2, 3, 5):
                res = q2_cocycles(g, AbelianGroup((m,)))
                hom = m**h2.betti * prod(gcd(d, m) for d in h2.torsion)
                ext = prod(gcd(d, m) for d in h1.torsion)
                assert res.cocycle_space_size == res.coboundary_space_size * hom * ext, (g, m)
        for x in racks:
            for m in (2, 3, 5):
                _, cocs = q2_cocycles_of_quandle(x, AbelianGroup((m,)))
                for f in cocs:
                    assert check_cocycle(x, f) is None, (x, m, f)

    def test_product_group(self):
        res = q2_cocycles(graph_of_rack(dihedral_quandle(3)), AbelianGroup((2, 3)))
        assert len(res.generators) == 2


class TestPairingIdentity:
    def test_degree_three_boundary_coboundary_adjunction(self, rng):
        """state_sum(dJ, f) == state_sum(J, d*f) for degree-3 chains J on a
        small source and 2-cochains f on the tetrahedron quandle graph."""
        src = EXHOC
        x = tetrahedron_quandle()
        gt = graph_of_rack(x)
        f2 = cochain_from_cocycle2_on(x, tetrahedron_cocycle())

        homs3 = enumerate_homs(3, src)
        assert homs3
        y3 = build_Yn(3).graph

        # d* of the 2-cochain: a 3-cochain on the target, defined on every
        # degree-3 homomorphism of gt by pulling back along the faces
        dstar_vals = {}
        for sigma in enumerate_homs(3, gt):
            total = C2.identity
            for s in (1, 2):
                sign = -1 if s % 2 else 1
                for eps, fsign in ((0, sign), (1, -sign)):
                    val = f2.values.get(_after(sigma, y3)(face_map(3, s, eps)), C2.identity)
                    total = C2.add(total, C2.scale(val, fsign))
            dstar_vals[sigma] = total
        dstar = Cochain(3, dstar_vals)

        for _ in range(10):
            coeffs = {h: rng.randrange(-2, 3) for h in homs3 if rng.random() < 0.6}
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
