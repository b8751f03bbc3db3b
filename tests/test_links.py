import pytest

from comtes.core import canonical_key, components, comte, encode, validate
from comtes.links import (
    CORPUS,
    REIDEMEISTER_PAIRS,
    GaussDiagram,
    LinkCodeError,
    comte_of_diagram,
    comte_of_gauss,
    parse_gauss_code,
    parse_pd_code,
    swap_arrowtails,
)
from comtes.moves import SearchBudget, equivalent_bounded, replay_trace

PAPER_COMTES = {
    "trefoil_right": comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)]),
    "trefoil_left": comte("a b c", [("a", "b", "c", -1), ("b", "c", "a", -1), ("c", "a", "b", -1)]),
    "figure_eight": comte(
        "a b c d",
        [("a", "d", "c", 1), ("c", "d", "b", -1), ("c", "b", "a", 1), ("a", "b", "d", -1)],
    ),
    "hopf_negative": comte("a b", [("a", "a", "b", -1), ("b", "b", "a", -1)]),
    "three_components": comte(
        "a b c d e f",
        [
            ("b", "a", "e", -1),
            ("b", "a", "f", 1),
            ("c", "d", "b", -1),
            ("c", "d", "a", 1),
            ("e", "f", "c", -1),
            ("e", "f", "d", 1),
        ],
    ),
}

N_LINK_COMPONENTS = {
    "trefoil_right": 1,
    "trefoil_left": 1,
    "figure_eight": 1,
    "hopf_negative": 2,
    "three_components": 3,
}


class TestGaussParsing:
    def test_single_circle(self):
        d = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
        assert len(d.circles) == 1 and len(d.circles[0]) == 6

    def test_sign_mismatch(self):
        with pytest.raises(LinkCodeError, match="sign mismatch on chord 1"):
            parse_gauss_code("O1+U1-")

    def test_two_circles(self):
        d = parse_gauss_code("O1+U2+/U1+O2+")
        assert len(d.circles) == 2

    def test_empty_component(self):
        with pytest.raises(LinkCodeError, match="empty component"):
            parse_gauss_code("O1+U1+/")
        with pytest.raises(LinkCodeError, match="empty component"):
            parse_gauss_code("")

    def test_unmatched_chord(self):
        with pytest.raises(LinkCodeError, match="unmatched chord id 2"):
            parse_gauss_code("O1+U1+O2+")

    def test_double_head(self):
        with pytest.raises(LinkCodeError, match="two head"):
            parse_gauss_code("U1+U1+")

    @pytest.mark.parametrize("code", ["O1+U1+O1+", "O1+U1+/U1+"])
    def test_chord_occurring_three_times(self, code):
        with pytest.raises(LinkCodeError, match="^chord 1 occurs more than twice$"):
            parse_gauss_code(code)

    def test_garbage(self):
        with pytest.raises(LinkCodeError, match="bad token"):
            parse_gauss_code("O1+X2-")


class TestComteOfGauss:
    def test_worked_one_circle_example(self):
        c = comte_of_gauss(parse_gauss_code("O3+U1+U2-O1+U3+O2-"))
        assert c.vertices == ("a", "b", "c")
        got = {(a.source, a.target, a.label, f) for a, f in zip(c.arrows, c.flows)}
        assert got == {("c", "a", "b", 1), ("b", "a", "c", -1), ("b", "c", "c", 1)}

    def test_right_trefoil(self):
        c = comte_of_gauss(parse_gauss_code("O1+U2+O3+U1+O2+U3+"))
        assert canonical_key(c) == canonical_key(PAPER_COMTES["trefoil_right"])

    def test_crossing_free_circle(self):
        c = comte_of_gauss(parse_gauss_code("O1-/U1-O2+U2+"))
        # circle 1: a single arc carrying the tail of chord 1; circle 2: two arcs
        assert len(c.vertices) == 3 and len(c.arrows) == 2
        assert validate(c).ok

    def test_always_valid(self, rng):
        from comtes.acceptance import random_gauss_diagram

        for _ in range(200):
            code = random_gauss_diagram(rng)
            c = comte_of_gauss(parse_gauss_code(code))
            assert validate(c).ok, code


class TestComteOfDiagram:
    def test_trefoil_pd_matches_gauss_route(self):
        cpd = comte_of_diagram(parse_pd_code("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"))
        cg = comte_of_gauss(parse_gauss_code("O1+U2+O3+U1+O2+U3+"))
        assert canonical_key(cpd) == canonical_key(cg)

    def test_two_circle_two_crossing_diagram(self):
        c = comte_of_diagram(parse_pd_code("X[2,3,1,4] X[4,1,3,2]"))
        got = {(a.source, a.target, a.label, f) for a, f in zip(c.arrows, c.flows)}
        assert got == {("a", "a", "b", -1), ("b", "b", "a", -1)}

    def test_zero_crossing_unknot(self):
        c = comte_of_diagram(parse_pd_code("L"))
        assert len(c.vertices) == 1 and not c.arrows

    @pytest.mark.parametrize("b, d, sign", [(3, 4, -1), (4, 3, 1), (3, 6, 1), (6, 3, -1), (8, 1, -1)])
    def test_pd_sign(self, b, d, sign):
        # consecutive over-edges give the direction; otherwise the
        # over-strand is the wrap of a shorter component, which runs from
        # its larger edge to its smaller one
        from comtes.links import PDCrossing, _pd_sign

        assert _pd_sign(PDCrossing(1, b, 2, d), 8) == sign

    def test_ill_formed(self):
        with pytest.raises(LinkCodeError, match="ill-formed"):
            parse_pd_code("X[1,2,3]")
        with pytest.raises(LinkCodeError, match="ill-formed"):
            parse_pd_code("X[1,1,1,1]")


class TestCorpus:
    @pytest.mark.parametrize("code", CORPUS, ids=lambda c: c.name)
    def test_routes_agree(self, code):
        cg = comte_of_gauss(parse_gauss_code(code.gauss))
        cp = comte_of_diagram(parse_pd_code(code.pd))
        assert validate(cg).ok and validate(cp).ok
        assert canonical_key(cg) == canonical_key(cp)

    @pytest.mark.parametrize("code", CORPUS, ids=lambda c: c.name)
    def test_matches_published_figures(self, code):
        assert canonical_key(comte_of_gauss(parse_gauss_code(code.gauss))) == canonical_key(PAPER_COMTES[code.name])

    @pytest.mark.parametrize("code", CORPUS, ids=lambda c: c.name)
    def test_underlying_graph_is_disjoint_cycles(self, code):
        c = comte_of_gauss(parse_gauss_code(code.gauss))
        for v in c.vertices:
            deg = sum((a.source == v) + (a.target == v) for a in c.arrows)
            assert deg in (0, 2)
        assert len(components(c.graph)) == N_LINK_COMPONENTS[code.name]


# The exact output (vertex names, arrow order, flows) of both constructions
# on the corpus, the Reidemeister pairs and a PD code with free loops.
GAUSS_PINS = {
    "O1+U2+O3+U1+O2+U3+": ("a b c", [("a", "b", "c", 1), ("c", "a", "b", 1), ("b", "c", "a", 1)]),
    "O1-U2-O3-U1-O2-U3-": ("a b c", [("b", "a", "c", -1), ("a", "c", "b", -1), ("c", "b", "a", -1)]),
    "U4-O2+U3+O4-U1-O3+U2+O1-": (
        "a b c d",
        [("c", "b", "d", -1), ("c", "d", "a", 1), ("a", "b", "c", 1), ("a", "d", "b", -1)],
    ),
    "U1-O2-/O1-U2-": ("a b", [("a", "a", "b", -1), ("b", "b", "a", -1)]),
    "O4+U1-O3-U2+/O5-U4+O6+U3-/O1-U6+O2+U5-": (
        "a b c d e f",
        [("a", "b", "f", -1), ("a", "b", "e", 1), ("d", "c", "a", -1),
         ("d", "c", "b", 1), ("f", "e", "d", -1), ("f", "e", "c", 1)],
    ),
    "O1+U2+O3+U1+O2+U3+O4+U4+": (
        "a b c d",
        [("a", "b", "d", 1), ("d", "a", "b", 1), ("b", "c", "a", 1), ("c", "d", "c", 1)],
    ),
    "O1+O4+O5-U2+O3+U1+U4+U5-O2+U3+": (
        "a b c d e",
        [("a", "b", "e", 1), ("e", "a", "d", 1), ("d", "e", "a", 1), ("b", "c", "e", 1), ("d", "c", "e", -1)],
    ),
    "O1+O2+U2+U3+/U1+O3+": ("a b c", [("c", "c", "b", 1), ("b", "a", "b", 1), ("a", "b", "c", 1)]),
    "O2+O3+U1+U2+/O1+U3+": ("a b c", [("b", "a", "c", 1), ("a", "b", "b", 1), ("c", "c", "b", 1)]),
}

PD_PINS = {
    "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]": ("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)]),
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]": ("a b c", [("b", "a", "c", -1), ("c", "b", "a", -1), ("a", "c", "b", -1)]),
    "X[4,7,5,8] X[8,3,1,4] X[2,6,3,5] X[6,2,7,1]": (
        "a b c d",
        [("c", "b", "d", -1), ("a", "d", "b", -1), ("a", "b", "c", 1), ("c", "d", "a", 1)],
    ),
    "X[2,3,1,4] X[4,1,3,2]": ("a b", [("a", "a", "b", -1), ("b", "b", "a", -1)]),
    "X[2,9,3,10] X[4,12,1,11] X[8,3,5,4] X[6,2,7,1] X[12,5,9,6] X[10,8,11,7]": (
        "a b c d e f",
        [("b", "a", "e", -1), ("b", "a", "f", 1), ("c", "d", "b", -1),
         ("c", "d", "a", 1), ("e", "f", "c", -1), ("e", "f", "d", 1)],
    ),
    "L X[2,3,1,4] L X[4,1,3,2]": ("a b c d", [("a", "a", "b", -1), ("b", "b", "a", -1)]),
}


class TestConstructionPins:
    def test_pins_cover_corpus_and_pairs(self):
        assert {code.gauss for code in CORPUS} | {x for _, before, after in REIDEMEISTER_PAIRS for x in (before, after)} == set(GAUSS_PINS)
        assert {code.pd for code in CORPUS} < set(PD_PINS)

    @pytest.mark.parametrize("code", sorted(GAUSS_PINS))
    def test_comte_of_gauss_bytes(self, code):
        assert encode(comte_of_gauss(parse_gauss_code(code))) == encode(comte(*GAUSS_PINS[code]))

    @pytest.mark.parametrize("code", sorted(PD_PINS))
    def test_comte_of_diagram_bytes(self, code):
        assert encode(comte_of_diagram(parse_pd_code(code))) == encode(comte(*PD_PINS[code]))


class TestArrowtailSwap:
    def test_swap_preserves_comte_and_is_involution(self):
        d = parse_gauss_code("O1+O2+U2+U3+/U1+O3+")
        d2 = swap_arrowtails(d, 0, 0)
        assert d2 != d
        assert canonical_key(comte_of_gauss(d2)) == canonical_key(comte_of_gauss(d))
        assert swap_arrowtails(d2, 0, 0) == d

    def test_rejects_non_tail_pair(self):
        d = parse_gauss_code("O1+O2+U2+U3+/U1+O3+")
        with pytest.raises(LinkCodeError, match="not two adjacent tails"):
            swap_arrowtails(d, 0, 2)
        with pytest.raises(LinkCodeError, match="no circle"):
            swap_arrowtails(d, 5, 0)

    def test_rejects_empty_circle(self):
        # the parser never makes one, but a diagram may be built directly
        with pytest.raises(LinkCodeError, match="^empty circle$"):
            swap_arrowtails(GaussDiagram(((),)), 0, 0)

    def test_rejects_negative_circle(self):
        # a negative index does not count from the end
        d = parse_gauss_code("O1+O2+U1+U2+")
        with pytest.raises(LinkCodeError, match="no circle -1"):
            swap_arrowtails(d, -1, 0)


class TestReidemeisterPairs:
    @pytest.mark.parametrize("pair", REIDEMEISTER_PAIRS, ids=lambda p: p[0])
    def test_trace_found_with_default_budget(self, pair):
        _, before, after = pair
        cb = comte_of_gauss(parse_gauss_code(before))
        ca = comte_of_gauss(parse_gauss_code(after))
        trace = equivalent_bounded(cb, ca, SearchBudget())
        assert trace is not None and len(trace) <= 3
        assert canonical_key(replay_trace(cb, trace)) == canonical_key(ca)


def test_parser_fuzz_discipline(rng):
    # garbage never escapes as anything but LinkCodeError
    for _ in range(1500):
        s = "".join(rng.choice("OUX[],+-/0123456789abc ") for _ in range(rng.randrange(0, 30)))
        for parser in (parse_gauss_code, parse_pd_code):
            try:
                parser(s)
            except LinkCodeError:
                pass


class TestClassicalAlexanderValues:
    def test_corpus_alexander_polynomials(self):
        from comtes.alexander import alexander_polynomial
        from comtes.laurent import Laurent

        t = Laurent.t()
        one = Laurent.one()
        expected = {
            "trefoil_right": t * t - t + one,
            "trefoil_left": t * t - t + one,  # Alexander cannot see chirality
            "figure_eight": t * t - Laurent.const(3) * t + one,
            "hopf_negative": t - one,
        }
        gauss = {code.name: code.gauss for code in CORPUS}
        for name, want in expected.items():
            assert alexander_polynomial(comte_of_gauss(parse_gauss_code(gauss[name])).graph, 1) == want, name
