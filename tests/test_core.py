import dataclasses
import hashlib
import itertools
import pickle
import random
import re

import pytest

from comtes import core
from comtes.core import (
    Arrow,
    Comte,
    DecodeError,
    GraphHomomorphism,
    SelfIndexedGraph,
    canonical_form,
    canonical_key,
    canonical_labeling,
    classify,
    components,
    comte,
    contract,
    decode,
    encode,
    graph,
    quotient,
    validate,
)
from comtes.acceptance import random_comte
from comtes.census import census_row, enumerate_q_graphs, enumerate_r_graphs
from comtes.invariants import abelianization_rank
from comtes.links import comte_of_gauss, parse_gauss_code
from reference import is_homomorphism

TREFOIL_ARROWS = [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)]
TREFOIL = comte("a b c", TREFOIL_ARROWS)
LEFT_TREFOIL = comte("a b c", [("a", "b", "c", -1), ("b", "c", "a", -1), ("c", "a", "b", -1)])
EXHOC = graph(
    "a b c",
    [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
     ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
)


def brute_isomorphic(c1, c2, with_flows=True):
    """Oracle: try every vertex bijection."""
    g1, g2 = c1.graph, c2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.arrows) != len(g2.arrows):
        return False
    rec2 = sorted(
        (a.source, a.target, a.label, f if with_flows else 0)
        for a, f in zip(g2.arrows, c2.flows)
    )
    for perm in itertools.permutations(g2.vertices):
        m = dict(zip(g1.vertices, perm))
        rec1 = sorted(
            (m[a.source], m[a.target], m[a.label], f if with_flows else 0)
            for a, f in zip(g1.arrows, c1.flows)
        )
        if rec1 == rec2:
            return True
    return False


class TestValidate:
    def test_trefoil_valid(self):
        assert validate(TREFOIL).ok

    def test_single_vertex_no_arrows(self):
        assert validate(comte("a", [])).ok

    def test_single_arrow_invalid_at_both_ends(self):
        rep = validate(comte("a b", [("a", "b", "a", 1)]))
        assert not rep.ok
        assert [(v, out, inc) for v, out, inc in rep.conservation] == [("a", 1, 0), ("b", 0, 1)]

    def test_dangling_reference_reported(self):
        rep = validate(Comte(SelfIndexedGraph(("a",), (Arrow("a", "a", "x"),)), (0,)))
        assert rep.dangling == ((0, "label", "x"),)

    def test_loop_contributes_to_both_sides(self):
        assert validate(comte("a", [("a", "a", "a", 5)])).ok

    def test_flow_length_mismatch(self):
        with pytest.raises(ValueError, match="^flow list length does not match arrow count$"):
            Comte(TREFOIL.graph, (1, 1))


class TestClassify:
    def test_exhoc_is_q_graph(self):
        assert classify(EXHOC) == "q"

    def test_parallel_same_label_is_general(self):
        g = graph("a b c", [("a", "b", "c"), ("a", "b", "c")])
        assert classify(g) == "general"

    def test_single_self_loop_is_q_graph(self):
        assert classify(graph("a", [("a", "a", "a")])) == "q"

    def test_shared_target_label_is_general(self):
        g = graph("a b c", [("a", "c", "b"), ("b", "c", "b")])
        assert classify(g) == "general"

    def test_r_graph_without_loops(self):
        assert classify(TREFOIL.graph) == "r"

    def test_q_graph_needs_a_self_labeled_loop_at_every_vertex(self):
        assert classify(graph("a b", [("a", "a", "a")])) == "r"
        assert classify(graph("a b", [("a", "a", "a"), ("b", "b", "a")])) == "r"
        assert classify(graph("a b", [("a", "a", "a"), ("b", "b", "b")])) == "q"


class TestGraphFromInjections:
    def test_arrows_by_label_then_source(self):
        g = core.graph_from_injections([[1, -1], (-1, 0)])
        assert g == graph("0 1", [("0", "1", "0"), ("1", "0", "1")])
        assert classify(g) == "r"

    @pytest.mark.parametrize(
        "maps, message",
        [
            ([[5]], "label 0, source 0: target 5 is outside -1..0"),
            ([[-1, -2], [-1, -1]], "label 0, source 1: target -2 is outside -1..1"),
            ([[0, 0], [-1, -1]], "label 0, source 1: target 0 is repeated"),
            ([[-1, -1], [-1, -1, 0]], "label 1: row has length 3, not 2"),
            ([[-1, -1], [-1]], "label 1: row has length 1, not 2"),
        ],
        ids=["dangling", "below -1", "repeated", "extra entry", "missing entry"],
    )
    def test_bad_value_or_row_length_rejected(self, maps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.graph_from_injections(maps)

    @pytest.mark.parametrize(
        "maps, message",
        [
            ([[-1, True], [-1, -1]], "label 0, source 1: target must be an integer, got True"),
            ([[-1, -1], [1.0, -1]], "label 1, source 0: target must be an integer, got 1.0"),
            ([[-1, -1], "01"], "label 1: row must be a list or tuple of targets, got '01'"),
        ],
        ids=["bool", "float", "string row"],
    )
    def test_bad_type_rejected(self, maps, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            core.graph_from_injections(maps)


class TestComponents:
    def test_trefoil_connected(self):
        assert len(components(TREFOIL.graph)) == 1

    def test_labels_do_not_merge(self):
        g = graph("a b c d", [("a", "b", "c"), ("b", "a", "c")])
        assert components(g) == (("a", "b"), ("c",), ("d",))

    def test_empty_graph(self):
        assert components(graph([], [])) == ()

    def test_rank_matches_component_count(self, make_comte):
        for _ in range(150):
            g = make_comte().graph
            assert abelianization_rank(g) == len(components(g))


class TestCanonicalKey:
    def test_trefoils_differ_as_comtes(self):
        assert not brute_isomorphic(LEFT_TREFOIL, TREFOIL)
        assert canonical_key(LEFT_TREFOIL) != canonical_key(TREFOIL)

    def test_trefoils_agree_as_graphs(self):
        assert brute_isomorphic(LEFT_TREFOIL, TREFOIL, with_flows=False)
        assert canonical_key(LEFT_TREFOIL.graph) == canonical_key(TREFOIL.graph)

    def test_exhaustive_rename_invariance_small(self, rng):
        for _ in range(60):
            n = rng.randrange(1, 6)
            vs = [f"v{i}" for i in range(n)]
            arrs = [
                (rng.choice(vs), rng.choice(vs), rng.choice(vs), rng.randrange(-2, 3))
                for _ in range(rng.randrange(0, 7))
            ]
            c = comte(vs, arrs)
            key = canonical_key(c)
            for perm in itertools.permutations(vs):
                m = dict(zip(vs, perm))
                c2 = Comte(
                    SelfIndexedGraph(
                        tuple(sorted(perm)),
                        tuple(Arrow(m[a.source], m[a.target], m[a.label]) for a in c.arrows),
                    ),
                    c.flows,
                )
                assert canonical_key(c2) == key

    def test_randomized_rename_invariance_larger(self, rng):
        for _ in range(60):
            n = rng.randrange(6, 9)
            vs = [f"v{i}" for i in range(n)]
            arrs = [
                (rng.choice(vs), rng.choice(vs), rng.choice(vs), rng.randrange(-2, 3))
                for _ in range(rng.randrange(0, 12))
            ]
            c = comte(vs, arrs)
            perm = vs[:]
            rng.shuffle(perm)
            m = dict(zip(vs, perm))
            c2 = Comte(
                SelfIndexedGraph(
                    tuple(sorted(perm)),
                    tuple(Arrow(m[a.source], m[a.target], m[a.label]) for a in c.arrows),
                ),
                c.flows,
            )
            assert canonical_key(c2) == canonical_key(c)

    def test_keys_separate_nonisomorphic(self, rng):
        # keys are exact: equal keys iff brute-force isomorphic
        pool = _hard_comtes()
        for _ in range(40):
            n = rng.randrange(1, 7)
            vs = [f"v{i}" for i in range(n)]
            arrs = [
                (rng.choice(vs), rng.choice(vs), rng.choice(vs), rng.randrange(0, 2))
                for _ in range(rng.randrange(0, 7))
            ]
            pool.append(comte(vs, arrs))
        pool += [_relabeled(c, rng) for c in pool] + [_perturbed(c, rng) for c in pool]
        keys = [canonical_key(c) for c in pool]
        for i, c1 in enumerate(pool):
            for j in range(i + 1, len(pool)):
                assert (keys[i] == keys[j]) == brute_isomorphic(c1, pool[j])

    def test_maps_carry_each_arrow_onto_the_canonical_graph(self, rng):
        pool = _hard_comtes()
        for c in pool + [_relabeled(c, rng) for c in pool]:
            cf = canonical_form(c)
            vm, g = cf.vertex_map, cf.graph
            assert sorted(vm.values()) == sorted(g.vertices)
            assert sorted(cf.arrow_perm) == list(range(len(c.arrows)))
            for i, (a, f) in enumerate(zip(c.arrows, c.flows)):
                b = g.arrows[cf.arrow_perm[i]]
                assert (b.source, b.target, b.label) == (vm[a.source], vm[a.target], vm[a.label])
                assert cf.flows[cf.arrow_perm[i]] == f

    @pytest.mark.parametrize("name", ["iso12", "iso40", "T11", "T21"])
    def test_refinement_calls_stay_polynomial(self, monkeypatch, name):
        # twins are pruned and one individualized vertex splits a torus
        # knot, so no input here walks a factorial number of leaves
        c = {
            "iso12": comte([f"p{i}" for i in range(12)], []),
            "iso40": comte([f"p{i}" for i in range(40)], []),
            "T11": _torus_knot(11),
            "T21": _torus_knot(21),
        }[name]
        n = len(c.vertices)
        calls = []
        real = core._refine_colors

        def counting(*args):
            calls.append(None)
            assert len(calls) <= n * n, "more than n^2 refinements"
            return real(*args)

        monkeypatch.setattr(core, "_refine_colors", counting)
        assert canonical_key(_relabeled(c, random.Random(n))) == canonical_key(c)


def _refine_colors_reference(n, arrs, colors):
    """The refinement loop without the discrete stop: it runs until a round
    splits no colour.  It keeps the signatures of the refinement before the
    flat entries, (colour, tuple of (role, arrow colours)), with the roles
    read off the set {s, t, l} of each arrow, so comparing ranks with it is
    also a differential test of that rewrite."""
    ncolors = len(set(colors))
    while True:
        local = [[] for _ in range(n)]
        for s, t, l, f in arrs:
            arrow = (colors[s], colors[t], colors[l], f)
            for v in {s, t, l}:
                local[v].append(((s == v) * 4 + (t == v) * 2 + (l == v), arrow))
        sigs = [(colors[v], tuple(sorted(loc))) for v, loc in enumerate(local)]
        order = sorted(set(sigs))
        rank = {sig: i for i, sig in enumerate(order)}
        new = [rank[sig] for sig in sigs]
        if len(order) == ncolors:
            return new
        colors, ncolors = new, len(order)


def _index_arrows(c):
    idx = core._index_form(c.graph)[0]
    return [(idx[a.source], idx[a.target], idx[a.label], f) for a, f in zip(c.arrows, c.flows)]


def _seeded_pool():
    """150 seeded random comtes, each followed by its bare graph."""
    pool = []
    for seed in range(150):
        c = random_comte(random.Random(seed), nmax=6, amax=9)
        pool += [c, c.graph]
    return pool


class TestRecords:
    def test_arrow_is_slotted_and_frozen(self):
        a = Arrow("a", "b", "c")
        assert a == ("a", "b", "c") and not hasattr(a, "__dict__")
        with pytest.raises(AttributeError, match="can't set attribute"):
            a.source = "x"

    def test_kept_dataclasses_stay_frozen(self):
        c = comte("a", [("a", "a", "a", 1)])
        for obj in (c.graph, c):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, None)

    def test_records_survive_pickling(self):
        # the census with jobs > 1 sends graphs to its workers by pickle
        c = comte("a b", [("a", "b", "a", 1), ("b", "a", "b", 1)])
        assert pickle.loads(pickle.dumps(c.arrows[0])) == c.arrows[0]
        for obj in (c.graph, c):
            assert not hasattr(obj, "__dict__")
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and canonical_key(copy) == canonical_key(obj)

    def test_census_records_are_slotted(self):
        # and the workers send the rows back by pickle
        row = census_row(graph("a", [("a", "a", "a")]), 2)
        for obj in (row, row.plain[0]):
            assert not hasattr(obj, "__dict__")
            assert pickle.loads(pickle.dumps(obj)) == obj
            with pytest.raises(AttributeError, match="can't set attribute"):
                setattr(obj, obj._fields[0], None)


class TestHeldKey:
    """A canonical graph built from a bare-graph labeling holds its key, so
    ``canonical_key`` of a census representative labels nothing."""

    def test_census_representatives_hold_their_keys(self, monkeypatch):
        reps = enumerate_r_graphs(3) + enumerate_q_graphs(3)
        keys = [canonical_labeling(g).key for g in reps]
        calls = []
        real = core.canonical_labeling
        monkeypatch.setattr(core, "canonical_labeling", lambda obj: calls.append(obj) or real(obj))
        assert [canonical_key(g) for g in reps] == keys
        assert not calls

    def test_a_rebuilt_graph_is_the_same_graph_without_the_key(self):
        for g in enumerate_q_graphs(3)[::4]:
            rebuilt = SelfIndexedGraph(g.vertices, g.arrows)
            assert g._key is not None and rebuilt._key is None
            assert rebuilt == g and hash(rebuilt) == hash(g) and repr(rebuilt) == repr(g)
            assert canonical_key(rebuilt) == canonical_key(g)
        assert SelfIndexedGraph.__match_args__ == ("vertices", "arrows")
        with pytest.raises(TypeError):
            SelfIndexedGraph((), (), b"g")

    def test_a_comte_key_does_not_key_its_graph(self):
        form = canonical_form(TREFOIL)
        assert form.key.startswith(b"c") and form.graph._key is None
        assert canonical_key(form.graph) == canonical_key(TREFOIL.graph) != form.key

    def test_a_bare_graph_form_has_no_comte(self):
        form = canonical_form(EXHOC)
        assert form.flows is None
        with pytest.raises(ValueError, match="^canonical form was computed without flows$"):
            form.comte

    def test_the_key_survives_pickling(self):
        g = canonical_form(EXHOC).graph
        copy = pickle.loads(pickle.dumps(g))
        assert copy._key == g._key == canonical_key(EXHOC)


class TestLabelingStep:
    def test_equal_arrows_keep_their_input_order(self):
        # the leaf sort is stable, so copies of an arrow are ordered by index
        g = graph("a b", [("b", "a", "a"), ("a", "b", "a"), ("b", "a", "a"), ("a", "b", "a")])
        lab = canonical_labeling(g)
        copies = [[i for i in lab.arrow_order if g.arrows[i] == a] for a in set(g.arrows)]
        assert all(c == sorted(c) for c in copies) and sorted(map(len, copies)) == [2, 2]

    def test_refinement_matches_the_loop_without_the_discrete_stop(self, rng):
        pool = _hard_comtes() + [random_comte(random.Random(seed), nmax=7, amax=10) for seed in range(200)]
        pool += [_relabeled(c, rng) for c in pool]
        checked = 0
        for c in pool:
            n, arrs = len(c.vertices), _index_arrows(c)
            refined = _refine_colors_reference(n, arrs, [0] * n)
            starts = [[0] * n, [rng.randrange(3) for _ in range(n)], rng.sample(range(3 * n), n)]
            for cell in set(refined):
                # each vertex of a cell individualized, as the leaf search does
                starts += [
                    [2 * k + (k == cell and u != v) for u, k in enumerate(refined)]
                    for v in range(n) if refined[v] == cell
                ]
            for colors in starts:
                assert core._refine_colors(n, arrs, list(colors)) == _refine_colors_reference(n, arrs, colors)
                checked += 1
        assert checked > 2000

    def test_refinement_matches_the_reference_on_a_search(self, monkeypatch):
        # every refinement input of a 2,000-state trefoil -> figure-eight
        # search between seeded relabelings of the two
        from comtes.moves import SearchBudget, equivalent_bounded

        inputs = []
        real = core._refine_colors

        def recording(n, arrs, colors):
            inputs.append((n, arrs, list(colors)))
            return real(n, arrs, colors)

        monkeypatch.setattr(core, "_refine_colors", recording)
        rng = random.Random(2000)
        figure_eight = comte("a b c d", [("a", "d", "c", 1), ("c", "d", "b", -1), ("c", "b", "a", 1), ("a", "b", "d", -1)])
        ends = _relabeled(TREFOIL, rng), _relabeled(figure_eight, rng)
        assert equivalent_bounded(*ends, SearchBudget(max_states=2000)) is None
        assert len(inputs) > 3000
        for n, arrs, colors in inputs:
            assert real(n, arrs, colors) == _refine_colors_reference(n, arrs, colors)

    def test_key_is_the_key_of_the_form(self, rng):
        pool = _seeded_pool() + _hard_comtes()
        pool += [_relabeled(c, rng) for c in _hard_comtes()] + [c.graph for c in _hard_comtes()]
        for x in pool:
            assert canonical_key(x) == canonical_form(x).key

    def test_keys_pinned(self):
        # recorded before the labeling and build steps were split
        keys = b"\n".join(canonical_key(x) for x in _seeded_pool())
        assert hashlib.sha256(keys).hexdigest() == "a4743d1e8b715221dc40c8dbb206ac93288b35f7108206657d8cb0a46ea41984"


def _torus_knot(n):
    """T(2,n) from its Gauss code: 2n passages alternating over and under."""
    return comte_of_gauss(
        parse_gauss_code("".join(("O" if k % 2 == 0 else "U") + f"{k % n + 1}+" for k in range(2 * n)))
    )


def _hard_comtes():
    """Comtes whose colour refinement leaves large cells: twins, symmetric
    components, and a 2-cycle beside a 3-cycle, which refinement cannot
    tell apart vertex by vertex."""
    loops = [("a", "a", "a", 1), ("b", "b", "b", 1), ("c", "c", "c", 1), ("d", "d", "d", 0)]
    second_trefoil = [("d", "e", "f", 1), ("e", "f", "d", 1), ("f", "d", "e", 1)]
    second_mirror = [(s, t, l, -f) for s, t, l, f in second_trefoil]
    cycles = [("a", "b", "a", 1), ("b", "c", "b", 1), ("c", "a", "c", 1), ("d", "e", "d", 1), ("e", "d", "e", 1)]
    return [
        comte("a b c d", []),
        comte("a b c d e f", []),
        comte("a b c d", loops),
        comte("a b c d e", loops + [("a", "a", "a", 1), ("e", "a", "b", 0)]),
        comte("a b c d e f", TREFOIL_ARROWS + second_trefoil),
        comte("a b c d e f", TREFOIL_ARROWS + second_mirror),
        comte("a b c d e", cycles),
        _torus_knot(5),
        _relabeled(_torus_knot(5), random.Random(5)),
    ]


def _relabeled(c, rng):
    """An isomorphic copy: vertices renamed and arrows listed in a new order."""
    names = [f"w{i}" for i in range(len(c.vertices))]
    rng.shuffle(names)
    m = dict(zip(c.vertices, names))
    arrs = [(m[a.source], m[a.target], m[a.label], f) for a, f in zip(c.arrows, c.flows)]
    rng.shuffle(arrs)
    return comte(sorted(names), arrs)


def _perturbed(c, rng):
    """A copy with one arrow changed, often but not always non-isomorphic."""
    arrs = [(a.source, a.target, a.label, f) for a, f in zip(c.arrows, c.flows)]
    if arrs:
        i = rng.randrange(len(arrs))
        s, t, l, f = arrs[i]
        arrs[i] = rng.choice([(t, s, l, f), (s, t, rng.choice(c.vertices), f), (s, t, l, 1 - f)])
    return comte(c.vertices, arrs)


class TestContract:
    def test_two_vertex_arrow(self):
        g = graph("a b", [("a", "b", "a")])
        out = contract(g, [0])
        assert out.vertices == ("a",) and out.arrows == ()

    def test_loop_contracts_to_deletion(self):
        g = graph("a b", [("a", "a", "b"), ("a", "b", "a")])
        out = contract(g, [0])
        assert out.vertices == ("a", "b") and len(out.arrows) == 1

    def test_order_independence(self, rng):
        for _ in range(40):
            vs = [f"v{i}" for i in range(4)]
            arrs = [(rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(5)]
            g = graph(vs, arrs)
            for i, j in itertools.permutations(range(5), 2):
                both = contract(g, [i, j])
                j_shift = j - (j > i)
                one_at_a_time = contract(contract(g, [i]), [j_shift])
                assert canonical_key(both) == canonical_key(one_at_a_time)

    def test_labels_rewritten_through_quotient(self):
        g = graph("a b c", [("a", "b", "x") for x in ()] + [("a", "b", "b"), ("c", "c", "b")])
        out = contract(g, [0])
        assert quotient(g, [("a", "b")])[1]["b"] == "a"
        assert out.arrows == (Arrow("c", "c", "a"),)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            contract(graph("a", []), [0])


class TestDocuments:
    def test_round_trip(self):
        assert decode(encode(TREFOIL)) == TREFOIL
        g = TREFOIL.graph
        assert decode(encode(g)) == g

    def test_trefoil_document_shape(self):
        doc = encode(TREFOIL)
        c = decode(doc)
        assert len(c.graph.vertices) == 3 and len(c.graph.arrows) == 3

    def test_unknown_label_named(self):
        bad = '{"vertices": ["a"], "arrows": [{"source":"a","target":"a","label":"x","flow":1}]}'
        with pytest.raises(DecodeError, match=r"label.*'x'"):
            decode(bad)

    def test_missing_label_named(self):
        bad = '{"vertices": ["a"], "arrows": [{"source":"a","target":"a","label":"a"}, {"source":"a","target":"a"}]}'
        with pytest.raises(DecodeError, match=r"^arrows\[1\]: missing field 'label'$"):
            decode(bad)

    def test_non_integer_flow(self):
        bad = '{"vertices": ["a"], "arrows": [{"source":"a","target":"a","label":"a","flow":1.5}]}'
        with pytest.raises(DecodeError, match="flow"):
            decode(bad)

    @pytest.mark.parametrize("flow", [1.7, 1.0, "3", True, None])
    def test_comte_rejects_a_non_integer_flow(self, flow):
        # the rule of decode, no truncation and no parsing, as a TypeError
        with pytest.raises(TypeError, match=rf"^arrows\[1\]\.flow must be an integer, got {re.escape(repr(flow))}$"):
            comte("a", [("a", "a", "a", 0), ("a", "a", "a", flow)])

    def test_comte_reads_a_generator_once(self):
        arrows = [("a", "a", "a", 1), ("a", "a", "a", -2)]
        c = comte("a", (x for x in arrows))
        assert c == comte("a", arrows)
        assert c.flows == (1, -2)

    def test_mixed_flow_presence(self):
        bad = (
            '{"vertices": ["a"], "arrows": ['
            '{"source":"a","target":"a","label":"a","flow":1},'
            '{"source":"a","target":"a","label":"a"}]}'
        )
        with pytest.raises(DecodeError, match="some arrows"):
            decode(bad)

    def test_syntax_error_reports_line(self):
        with pytest.raises(DecodeError, match="line"):
            decode('{"vertices": [,]}')

    def test_duplicate_vertex(self):
        with pytest.raises(DecodeError, match="duplicate"):
            decode('{"vertices": ["a", "a"], "arrows": []}')

    def test_builders_reject_a_duplicate_vertex(self):
        # the rule and wording of decode
        with pytest.raises(ValueError, match="'vertices' contains a duplicate"):
            graph(["a", "a"], [("a", "a", "a")])
        with pytest.raises(ValueError, match="'vertices' contains a duplicate"):
            graph("a b a")
        with pytest.raises(ValueError, match="'vertices' contains a duplicate"):
            comte(("a", "a"), [("a", "a", "a", 1)])


class TestHomomorphism:
    def test_commuting_check(self):
        g1 = graph("x", [("x", "x", "x")])
        h = GraphHomomorphism(("a",), (0,))
        assert is_homomorphism(h, g1, EXHOC)
        h_bad = GraphHomomorphism(("a",), (5,))
        assert not is_homomorphism(h_bad, g1, EXHOC)

    def test_vertex_images_of_wrong_length_rejected(self):
        g1 = graph("x", [("x", "x", "x")])
        assert not is_homomorphism(GraphHomomorphism((), (0,)), g1, EXHOC)
        assert not is_homomorphism(GraphHomomorphism(("a", "b"), (0,)), g1, EXHOC)


class TestDocumentTypeHardening:
    def test_arrows_not_a_list(self):
        with pytest.raises(DecodeError, match="'arrows' must be a list"):
            decode('{"vertices": ["a"], "arrows": 5}')

    def test_non_string_vertex_reference(self):
        with pytest.raises(DecodeError, match="unknown vertex"):
            decode('{"vertices": ["a"], "arrows": [{"source": ["a"], "target": "a", "label": "a"}]}')

    def test_boolean_flow_rejected(self):
        with pytest.raises(DecodeError, match="flow"):
            decode('{"vertices": ["a"], "arrows": [{"source":"a","target":"a","label":"a","flow":true}]}')

    def test_deep_nesting_rejected(self):
        with pytest.raises(DecodeError, match="nesting too deep"):
            decode("[" * 10_000 + "]" * 10_000)


def test_decode_fuzz_discipline(rng):
    # malformed documents must raise DecodeError, never anything else
    import json as _json
    import string

    base = {"vertices": ["a", "b"], "arrows": [{"source": "a", "target": "b", "label": "a", "flow": 1}]}
    for _ in range(400):
        doc = _json.loads(_json.dumps(base))
        for _ in range(rng.randrange(1, 4)):
            if not isinstance(doc, dict):
                break
            action = rng.randrange(6)
            if action == 0 and isinstance(doc.get("vertices"), list):
                doc["vertices"] = rng.choice([5, "x", ["a", "a"]])
            elif action == 1 and isinstance(doc.get("arrows"), list):
                doc["arrows"] = rng.choice([7, {"x": 1}, doc["arrows"] + ["junk"]])
            elif action == 2 and isinstance(doc.get("arrows"), list) and doc["arrows"] and isinstance(doc["arrows"][0], dict):
                doc["arrows"][0][rng.choice(["source", "target", "label", "flow"])] = rng.choice(
                    ["zz", 1.5, None, [1], True]
                )
            elif action == 3:
                doc = rng.choice([[], 42, "hi"])
            elif action == 4 and isinstance(doc, dict):
                doc.pop(rng.choice(["vertices", "arrows"]), None)
        text = (
            _json.dumps(doc)
            if rng.random() < 0.8
            else "".join(rng.choice(string.printable) for _ in range(rng.randrange(0, 40)))
        )
        try:
            decode(text)
        except DecodeError:
            pass
