import itertools
import random
from math import gcd

import pytest

from comtes import coloring
from comtes.coloring import (
    Chain,
    Cochain,
    _vertex_maps,
    cochain_from_cocycle2_on,
    colorings,
    coloring_count,
    degree2_signature,
    flow_to_cycle,
    graph_homomorphisms,
    phi_invariant,
    state_sum,
)
from comtes.census import enumerate_q_graphs
from comtes.core import GraphHomomorphism, SelfIndexedGraph, _index_form, comte, graph
from comtes.homology import q2_cocycles
from comtes.links import CORPUS, comte_of_gauss, parse_gauss_code
from comtes.racks import (
    C2,
    AbelianGroup,
    Cocycle2,
    FiniteRack,
    dihedral_quandle,
    epsilon,
    graph_of_rack,
    tetrahedron_cocycle,
    tetrahedron_quandle,
    trivial_quandle,
)
from reference import is_homomorphism, q2_cocycles_of_quandle

G1 = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
G2 = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1), ("a", "c", "b", 0)])
G3 = comte("a b c", [("a", "b", "c", 1), ("b", "a", "c", 1), ("c", "a", "b", 0), ("a", "c", "b", 0)])


def brute_colorings(g, x):
    out = []
    for assign in itertools.product(range(x.n), repeat=len(g.vertices)):
        cmap = dict(zip(g.vertices, assign))
        if all(x.op(cmap[a.label], cmap[a.source]) == cmap[a.target] for a in g.arrows):
            out.append(cmap)
    return out


def brute_homomorphisms(src, dst):
    """Every vertex map times every arrow map, kept when it is a
    homomorphism, in the order that graph_homomorphisms promises."""
    found = []
    for images in itertools.product(dst.vertices, repeat=len(src.vertices)):
        for am in itertools.product(range(len(dst.arrows)), repeat=len(src.arrows)):
            h = GraphHomomorphism(images, am)
            if is_homomorphism(h, src, dst):
                found.append(h)
    return sorted(found, key=lambda h: (h.vertex_images, h.arrow_map))


def loop_phi(c, x, f):
    """Phi summed over colorings directly: each coloring C weighs in with
    the sum over arrows of I * f(C(label), C(source)) in A."""
    group = f.group
    result = {}
    for col in colorings(c.graph, x):
        total = group.identity
        for a, flow in zip(c.graph.arrows, c.flows):
            total = group.add(total, group.scale(f.value(col[a.label], col[a.source]), flow))
        result[total] = result.get(total, 0) + 1
    return result


def random_graph(rng, n_vertices, n_arrows, prefix):
    vs = [f"{prefix}{i}" for i in range(n_vertices)]
    return graph(vs, [(rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(n_arrows)])


class TestColorings:
    def test_trefoil_by_tetrahedron(self):
        tetra = tetrahedron_quandle()
        cols = colorings(G1.graph, tetra)
        assert len(cols) == 16
        assert len(brute_colorings(G1.graph, tetra)) == 16

    def test_g2_has_four(self):
        assert coloring_count(G2.graph, tetrahedron_quandle()) == 4

    def test_constant_always_a_coloring(self, make_comte):
        tetra = tetrahedron_quandle()
        for _ in range(20):
            g = make_comte().graph
            cols = colorings(g, tetra)
            for x in range(4):
                assert {v: x for v in g.vertices} in cols

    def test_matches_brute_force(self, make_comte):
        # both lists come in vertex order: colorings sorts by the values in
        # vertex order, and brute_colorings walks the assignments in that order
        # the last rack, x |> y = 1 - y, is not a quandle
        census = enumerate_q_graphs(2) + enumerate_q_graphs(3)
        flip = FiniteRack.from_table([[1, 0], [1, 0]])
        for x in (trivial_quandle(2), dihedral_quandle(3), tetrahedron_quandle(), dihedral_quandle(5), flip):
            for g in [make_comte(nmax=4, amax=6).graph for _ in range(25)] + census:
                brute = brute_colorings(g, x)
                assert colorings(g, x) == brute, (g, x.n)
                assert coloring_count(g, x) == len(brute), (g, x.n)


class TestHomomorphisms:
    def test_all_results_are_homomorphisms(self, make_comte):
        tetra_graph = graph_of_rack(tetrahedron_quandle())
        for _ in range(15):
            g = make_comte(nmax=3, amax=4).graph
            for h in graph_homomorphisms(g, tetra_graph):
                assert is_homomorphism(h, g, tetra_graph)

    def test_colorings_are_homomorphisms_into_rack_graph(self):
        tetra = tetrahedron_quandle()
        assert len(graph_homomorphisms(G1.graph, graph_of_rack(tetra))) == 16

    def test_multi_arrow_targets(self):
        src = graph("x", [("x", "x", "x")])
        dst = graph("a", [("a", "a", "a"), ("a", "a", "a")])
        homs = graph_homomorphisms(src, dst)
        assert len(homs) == 2  # the loop can map to either parallel arrow

    def test_matches_brute_force_in_order(self):
        rng = random.Random(8)
        racks = [graph_of_rack(x) for x in (trivial_quandle(1), trivial_quandle(2), dihedral_quandle(3))]
        qgraphs = list(enumerate_q_graphs(2)) + [g for g in enumerate_q_graphs(3) if len(g.arrows) <= 6]
        nonempty = 0
        for i in range(200):
            if i % 3 == 0:
                dst = rng.choice(racks)
            elif i % 3 == 1:
                dst = rng.choice(qgraphs)
            else:
                # a random target with at least one pair of parallel arrows
                dst = random_graph(rng, rng.randint(1, 3), rng.randint(1, 3), "d")
                dst = SelfIndexedGraph(dst.vertices, dst.arrows + (rng.choice(dst.arrows),))
            src = random_graph(rng, rng.randint(1, 3), rng.randint(0, 3), "x")
            homs = graph_homomorphisms(src, dst)
            assert homs == brute_homomorphisms(src, dst), (src, dst)
            nonempty += bool(homs)
        assert nonempty > 100
        empty = graph([])
        assert graph_homomorphisms(empty, racks[1]) == brute_homomorphisms(empty, racks[1])


class TestPhi:
    def test_paper_trio(self):
        x = tetrahedron_quandle()
        f = tetrahedron_cocycle()
        assert phi_invariant(G1, x, f) == {(0,): 4, (1,): 12}
        assert phi_invariant(G2, x, f) == {(0,): 4}
        assert phi_invariant(G3, x, f) == {(0,): 4}

    def test_epsilon_counts_colorings(self, make_comte):
        x = tetrahedron_quandle()
        f = tetrahedron_cocycle()
        for _ in range(25):
            c = make_comte(nmax=4, amax=5)
            assert epsilon(phi_invariant(c, x, f)) == coloring_count(c.graph, x)

    def test_zero_flows_give_trivial_weights(self):
        c = comte("a b c", [("a", "b", "c", 0), ("b", "c", "a", 0), ("c", "a", "b", 0)])
        assert phi_invariant(c, tetrahedron_quandle(), tetrahedron_cocycle()) == {(0,): 16}

    def test_requires_quandle(self):
        cyc = FiniteRack.from_table([[(y + 1) % 3 for y in range(3)] for _ in range(3)])
        with pytest.raises(ValueError):
            phi_invariant(G1, cyc, tetrahedron_cocycle())

    def test_cocycle_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="^cocycle size does not match the quandle$"):
            phi_invariant(G1, dihedral_quandle(3), tetrahedron_cocycle())


TORUS_N = (3, 5, 9, 15, 21, 31, 51)


def _torus_knot(n):
    """T(2,n) from its Gauss code: 2n passages alternating over and under."""
    return comte_of_gauss(
        parse_gauss_code("".join(("O" if k % 2 == 0 else "U") + f"{k % n + 1}+" for k in range(2 * n)))
    )


def _relabeled(c, rng):
    """An isomorphic copy with seeded arc names, arc order and arrow order."""
    names = [f"x{i}" for i in rng.sample(range(10 * len(c.vertices) + 10), len(c.vertices))]
    rename = dict(zip(c.vertices, names))
    rng.shuffle(names)
    arrs = [(rename[a.source], rename[a.target], rename[a.label], f) for a, f in zip(c.arrows, c.flows)]
    rng.shuffle(arrs)
    return comte(names, arrs)


def _torus_diagrams():
    """Each T(2,n) of TORUS_N as built, then under two seeded relabelings."""
    for n in TORUS_N:
        c = _torus_knot(n)
        yield n, c
        for seed in (1, 2):
            yield n, _relabeled(c, random.Random(100 * n + seed))


class _CountingIter:
    """A stand-in for ``iter`` in ``comtes.coloring`` that counts every
    value the search's iterators hand out."""

    def __init__(self):
        self.tried = 0

    def __call__(self, values):
        for w in values:
            self.tried += 1
            yield w


class TestTorusKnots:
    def test_published_counts(self):
        # R_p colourings of T(2,n) number p*gcd(n, p); tetrahedral ones 16
        # when 3 divides n and 4 otherwise (Przytycki 1998)
        r3, r5, tetra = dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle()
        f = tetrahedron_cocycle()
        for n, c in _torus_diagrams():
            assert coloring_count(c.graph, r3) == 3 * gcd(n, 3), n
            assert len(colorings(c.graph, r5)) == 5 * gcd(n, 5), n
            tetra_count = 16 if n % 3 == 0 else 4
            assert coloring_count(c.graph, tetra) == tetra_count, n
            assert epsilon(phi_invariant(c, tetra, f)) == tetra_count, n

    def test_work_stays_below_x_squared_n(self, monkeypatch):
        # every iterator of the search hands out all |X| values, and each
        # one after the first follows a partial assignment that passed its
        # arrow checks; complete assignments are yielded and do not iterate
        for x in (dihedral_quandle(3), dihedral_quandle(5), tetrahedron_quandle()):
            rack_graph = graph_of_rack(x)
            for n, c in _torus_diagrams():
                values = _CountingIter()
                monkeypatch.setattr(coloring, "iter", values, raising=False)
                complete = sum(1 for _ in _vertex_maps(c.graph, rack_graph))
                passing = values.tried // x.n - 1 + complete
                assert passing < x.n**2 * n, (x.n, n, passing)


    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # one search level per source vertex, held on an explicit stack
        isolated = graph([f"v{i}" for i in range(1000)])
        assert len(colorings(isolated, trivial_quandle(1))) == 1
        assert len(colorings(_torus_knot(1001).graph, dihedral_quandle(5))) == 5


class TestStateSum:
    def test_degree_two_reduction_to_phi(self, make_comte, rng):
        # phi_invariant is the state sum of the flow cycle; it agrees with
        # the direct sum over colorings of the f(C(label), C(source))^I.
        # Phi of a cocycle is trivial on most small comtes, so random
        # tables, which phi_invariant takes as they are, weigh the
        # colorings of every comte
        comtes = [make_comte() for _ in range(200)]
        comtes += [comte_of_gauss(parse_gauss_code(code.gauss)) for code in CORPUS]
        comtes += [_torus_knot(n) for n in range(3, 16, 2)]
        tetra, r3 = tetrahedron_quandle(), dihedral_quandle(3)
        z3, z5 = AbelianGroup((3,)), AbelianGroup((5,))
        cases = [(tetra, tetrahedron_cocycle())]
        cases += [(tetra, f) for f in q2_cocycles_of_quandle(tetra, C2)[1]]
        cases += [(r3, f) for f in q2_cocycles_of_quandle(r3, z3)[1]]
        for x in (tetra, r3):
            table = tuple(tuple((rng.randrange(5),) for _ in range(x.n)) for _ in range(x.n))
            cases.append((x, Cocycle2(z5, table)))
        weighted = 0
        for x, f in cases:
            for c in comtes:
                want = loop_phi(c, x, f)
                assert phi_invariant(c, x, f) == want, (c, x.n, f)
                weighted += len(want) > 1
        assert weighted > 200

    def test_zero_chain_counts_homomorphisms(self):
        x = tetrahedron_quandle()
        gt = graph_of_rack(x)
        fc = cochain_from_cocycle2_on(x, tetrahedron_cocycle())
        z = Chain.from_dict(2, {})
        assert state_sum(G1.graph, z, gt, fc, C2) == {(0,): 16}

    def test_degree_mismatch(self):
        x = tetrahedron_quandle()
        gt = graph_of_rack(x)
        fc = cochain_from_cocycle2_on(x, tetrahedron_cocycle())
        with pytest.raises(ValueError, match="degree mismatch"):
            state_sum(G1.graph, Chain.from_dict(3, {}), gt, fc, C2)

    @pytest.mark.parametrize("values", [((C2.identity,) * 5,) * 5, ((C2.identity,) * 3,) * 3, ((C2.identity,),) * 4],
                             ids=["5x5", "3x3", "ragged"])
    def test_cochain_of_a_table_of_another_size(self, values):
        # on S_4, a 5x5 table used to be cut down to a 16-entry cochain and
        # a 3x3 one to raise a bare IndexError
        with pytest.raises(ValueError, match="cocycle table is not 4 by 4, the size of the rack"):
            cochain_from_cocycle2_on(tetrahedron_quandle(), Cocycle2(C2, values))

    @pytest.mark.parametrize("fault", [{"vertex_images": ("z", "b", "a")}, {"arrow_map": (3,)}, {"arrow_map": (-1,)}],
                             ids=["vertex", "arrow-past-end", "arrow-negative"])
    def test_chain_term_outside_the_source(self, fault):
        # a vertex image outside gsrc used to raise a bare KeyError, an arrow
        # image past the end a bare IndexError, and a negative one read the
        # arrows from the end
        x = tetrahedron_quandle()
        term = degree2_signature(G1.graph, 0)._replace(**fault)
        chain = Chain.from_dict(2, {term: 1})
        fc = cochain_from_cocycle2_on(x, tetrahedron_cocycle())
        with pytest.raises(ValueError) as err:
            state_sum(G1.graph, chain, graph_of_rack(x), fc, C2)
        assert str(err.value) == f"chain term {term} does not map into the source graph"


class TestMoveInvariance:
    def test_phi_invariant_under_all_moves_for_quandle_target(self, make_comte, rng):
        from comtes.moves import SearchBudget, apply_move, enumerate_moves, inverse_instances

        x = tetrahedron_quandle()
        f = tetrahedron_cocycle()
        budget = SearchBudget(r3b_range=1, max_split_slots=6)
        for _ in range(60):
            c = make_comte(nmax=4, amax=5)
            pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
            if not pool:
                continue
            m = pool[rng.randrange(len(pool))]
            assert phi_invariant(apply_move(c, m), x, f) == phi_invariant(c, x, f), m

    def _exhoc_cochain(self):
        exhoc = graph(
            "a b c",
            [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
             ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
        )
        res = q2_cocycles(exhoc, C2)
        # pick a nontrivial kernel generator and reshape it over the arrows
        vec = None
        for gens in res.generators:
            for v, _order in gens:
                if any(v):
                    vec = v
                    break
        assert vec is not None
        pos = {t: i for i, t in enumerate(res.basis)}
        idx = _index_form(exhoc)[0]
        values = {}
        for e, a in enumerate(exhoc.arrows):
            key = (idx[a.label], idx[a.source])
            comp = vec[pos[key]] % 2 if key in pos else 0
            values[degree2_signature(exhoc, e)] = (comp,)
        return exhoc, Cochain(2, values)

    def test_state_sum_invariant_under_r1_r2_for_q_graph_target(self, make_comte, rng):
        from comtes.moves import SearchBudget, apply_move, enumerate_moves, inverse_instances

        target, cochain = self._exhoc_cochain()
        r12 = {"R1contract", "R1loopdel", "R2a", "R2b", "R1split", "R1loopadd", "R2a_split", "R2b_split"}
        budget = SearchBudget(r3b_range=1, max_split_slots=5)
        checked = 0
        for _ in range(40):
            c = make_comte(nmax=4, amax=5)
            pool = [
                m
                for m in enumerate_moves(c, budget) + inverse_instances(c, budget)
                if m.kind in r12
            ]
            if not pool:
                continue
            m = pool[rng.randrange(len(pool))]
            c2 = apply_move(c, m)
            s1 = state_sum(c.graph, flow_to_cycle(c), target, cochain, C2)
            s2 = state_sum(c2.graph, flow_to_cycle(c2), target, cochain, C2)
            assert s1 == s2, m
            checked += 1
        assert checked >= 20

    def test_r0_can_change_state_sum_for_mere_q_graph_targets(self):
        # the pair (source, label) = (b, c) carries no arrow in this target,
        # so attaching a pendant arrow kills one homomorphism
        from comtes.moves import MoveInstance, apply_move
        from comtes.racks import epsilon

        target, cochain = self._exhoc_cochain()
        c = comte("u w", [])
        c2 = apply_move(c, MoveInstance("R0inv", vertices=("u", "w"), flags=("target",)))
        s1 = state_sum(c.graph, flow_to_cycle(c), target, cochain, C2)
        s2 = state_sum(c2.graph, flow_to_cycle(c2), target, cochain, C2)
        assert epsilon(s1) == 9 and epsilon(s2) == 8
