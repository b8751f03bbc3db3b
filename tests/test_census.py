import functools
import hashlib
import itertools
import pickle
import random

import pytest

from comtes import census, core
from comtes.census import (
    _label_choices,
    _least_codes,
    census_row,
    enumerate_q_graphs,
    enumerate_r_graphs,
    partial_injections,
    signature_census,
)
from comtes.core import (SelfIndexedGraph, _canonical_leaf, as_comte, canonical_form, canonical_key, classify, comte, graph,
                         graph_from_injections, validate_graph)
from comtes.homology import NotRGraphError, boundary_matrix, chain_basis, dot_table, homology_range
from comtes.racks import dihedral_quandle, graph_of_rack
from reference import burnside_class_count, count_labeled_structures, recursive_partial_injections


@functools.cache
def reference_census(n, q_only):
    """The census before orderly generation: canonicalize every labeled
    structure and keep the first graph met under each key, sorted by key.
    Returns the complete enumeration (include_arrowless=True); the arrow
    count is the same across a class, so leaving out the arrowless
    structures leaves out exactly the arrowless class."""
    reps = {}
    for maps in itertools.product(*_label_choices(n, q_only)):
        cf = canonical_form(graph_from_injections(maps))
        reps.setdefault(cf.key, cf.graph)
    return [reps[k] for k in sorted(reps)]


class TestEnumeration:
    def test_partial_injection_counts(self):
        assert [len(partial_injections(n)) for n in range(4)] == [1, 2, 7, 34]
        assert count_labeled_structures(3) == 34 ** 3 == 39304
        assert count_labeled_structures(3, q_only=True) == 7 ** 3 == 343

    def test_partial_injections_match_the_recursion(self):
        # the same tuples in the same order, so every census code is unchanged
        for n, count in enumerate([1, 2, 7, 34, 209, 1546, 13327]):
            assert partial_injections(n) == recursive_partial_injections(n)
            assert len(partial_injections(n)) == count

    @pytest.mark.parametrize(
        "count",
        [
            partial_injections,
            enumerate_r_graphs,
            enumerate_q_graphs,
            burnside_class_count,
            count_labeled_structures,
        ],
    )
    def test_negative_vertex_count_rejected(self, count):
        with pytest.raises(ValueError, match="non-negative"):
            count(-1)

    @pytest.mark.parametrize(
        "q_only, labeled, classes",
        [(False, [1, 2, 49, 39304], [1, 2, 28, 6664]), (True, [1, 1, 4, 343], [1, 1, 3, 70])],
    )
    def test_counts_pinned(self, q_only, labeled, classes):
        assert [count_labeled_structures(n, q_only=q_only) for n in range(4)] == labeled
        assert [burnside_class_count(n, q_only=q_only) for n in range(4)] == classes

    def test_n1(self):
        assert len(enumerate_r_graphs(1)) == 1  # the self-labeled loop
        assert len(enumerate_r_graphs(1, include_arrowless=True)) == 2
        assert len(enumerate_q_graphs(1)) == 1

    def test_n2_matches_burnside(self):
        complete = enumerate_r_graphs(2, include_arrowless=True)
        assert len(complete) == burnside_class_count(2) == 28
        assert len(enumerate_r_graphs(2)) == 27
        assert len(enumerate_q_graphs(2)) == burnside_class_count(2, q_only=True)

    def test_representatives_are_valid_and_distinct(self):
        reps = enumerate_r_graphs(2, include_arrowless=True)
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps)
        for g in reps:
            assert validate_graph(g).ok
            assert classify(g) in ("r", "q")
        for g in enumerate_q_graphs(2):
            assert classify(g) == "q"


class TestOrderlyGeneration:
    @pytest.mark.parametrize("include_arrowless", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("enumerate_graphs, q_only", [(enumerate_r_graphs, False), (enumerate_q_graphs, True)])
    def test_matches_canonicalizing_every_structure(self, monkeypatch, enumerate_graphs, q_only, n, include_arrowless):
        want = reference_census(n, q_only)
        if not include_arrowless:
            want = [g for g in want if g.arrows]
        calls = []

        def counting(*args):
            calls.append(args)
            return _canonical_leaf(*args)

        monkeypatch.setattr(census, "_canonical_leaf", counting)
        assert enumerate_graphs(n, include_arrowless=include_arrowless) == want
        # one labeling per class returned
        assert len(calls) == len(want)

    @pytest.mark.parametrize("enumerate_graphs, classes", [(enumerate_r_graphs, 6663), (enumerate_q_graphs, 70)])
    def test_builds_one_graph_per_class(self, monkeypatch, enumerate_graphs, classes):
        # only the representatives are built: no input graph per least code
        built = []
        init = SelfIndexedGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SelfIndexedGraph, "__init__", counting)
        assert len(enumerate_graphs(3)) == classes
        assert len(built) == classes

    def test_four_vertex_q_graph_keys_are_pinned(self):
        # the aim-1 workload, byte for byte: every key, in order
        keys = [canonical_key(g) for g in enumerate_q_graphs(4)]
        assert len(keys) == 56185
        assert hashlib.sha256(b"\n".join(keys)).hexdigest() == (
            "b2bb72e3c1f6eae39751d9bb07e449a87e9e225f5ca1089720c776613fb338d4"
        )

    @pytest.mark.parametrize("n, q_only", [(0, False), (1, False), (2, False), (1, True), (2, True), (3, True)])
    def test_keeps_the_first_structure_of_each_class(self, n, q_only):
        choices = _label_choices(n, q_only)
        first = {}
        for code in itertools.product(*(range(len(c)) for c in choices)):
            g = graph_from_injections([c[i] for c, i in zip(choices, code)])
            first.setdefault(canonical_key(g), code)
        assert list(_least_codes(choices)) == sorted(first.values())

    def test_representatives_share_their_names_and_arrows(self):
        # 27 canonical (source, target, label) triples on three vertices
        reps = enumerate_r_graphs(3)
        assert len({id(a) for g in reps for a in g.arrows}) == 27
        assert len({id(g.vertices) for g in reps}) == 1
        assert reps[0].vertices == ("0", "1", "2")

    def test_four_vertex_q_graph_walk_meets_every_class_once(self):
        # counts the least codes without canonicalizing any of them
        walked = sum(1 for _ in _least_codes(_label_choices(4, q_only=True)))
        assert walked == burnside_class_count(4, q_only=True) == 56185


class TestSignatures:
    def test_exhoc_row(self):
        exhoc = graph(
            "a b c",
            [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
             ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
        )
        row = census_row(exhoc, 5)
        assert row.kind == "q"
        assert [h.format() for h in row.plain] == ["Z", "Z^2", "Z^4", "Z^7", "Z^11"]
        assert row.quotient is not None

    def test_quandle_row_takes_both_groups_from_homology_range(self):
        # homology_range alone decides when the plain groups are folded
        g = graph_of_rack(dihedral_quandle(3))
        row = census_row(g, 5)
        assert (row.plain, row.quotient) == (homology_range(g, 5), homology_range(g, 5, q_quotient=True))

    def test_census_report_shape(self):
        fam = enumerate_q_graphs(2)
        cens = signature_census(fam, max_degree=3)
        table = cens.table()
        assert len(table.strip().splitlines()) == len(fam)
        counts = cens.distinct_counts()
        assert set(counts) == {"plain/torsion", "plain/betti", "quotient/torsion", "quotient/betti"}

    def test_jobs_deterministic(self):
        fam = enumerate_q_graphs(2)
        c1 = signature_census(fam, max_degree=3, jobs=1)
        c2 = signature_census(fam, max_degree=3, jobs=2)
        assert c1.table() == c2.table()
        assert c1.distinct_counts() == c2.distinct_counts()

    def test_q3_census_is_the_same_with_two_jobs(self):
        # the workers receive the graphs and send the rows back by pickle
        fam = enumerate_q_graphs(3)
        assert len(fam) == 70
        row = census_row(fam[-1], 2)
        assert pickle.loads(pickle.dumps(row)) == row
        assert signature_census(fam, 3, jobs=2) == signature_census(fam, 3, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_share_one_tuple_per_signature(self, jobs):
        rows = signature_census(enumerate_q_graphs(3), 5, jobs=jobs).rows
        for field in ("plain", "quotient"):
            sigs = [getattr(r, field) for r in rows]
            assert len({id(s) for s in sigs}) == len(set(sigs)) < len(rows)

    def test_graphs_that_are_not_iterable_are_a_type_error(self):
        with pytest.raises(TypeError, match="graphs must be an iterable of graphs, got 5"):
            signature_census(5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_entry_that_is_not_a_graph_is_named_before_any_row(self, monkeypatch, jobs):
        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(census, "_groups", no_rows)
        monkeypatch.setattr("multiprocessing.Pool", no_rows)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        fam = enumerate_q_graphs(1)
        with pytest.raises(TypeError, match=r"graphs\[1\] must be a SelfIndexedGraph, got int$"):
            signature_census(iter([*fam, 5]), max_degree=2, jobs=jobs)

    def test_a_comte_points_to_its_graph(self):
        g = enumerate_q_graphs(1)[0]
        with pytest.raises(TypeError, match=r"graphs\[0\] must be a SelfIndexedGraph, got Comte; pass c.graph"):
            signature_census([as_comte(g)], max_degree=2)

    @pytest.mark.parametrize("entry, got", [(comte("a", [("a", "a", "a", 1)]), "Comte; pass c.graph"), (5, "int")])
    def test_a_row_is_of_a_graph_alone(self, entry, got):
        # a comte used to get a row keyed by its comte key, and 5 a raw AttributeError
        with pytest.raises(TypeError, match=f"^g must be a SelfIndexedGraph, got {got}"):
            census_row(entry, 2)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be positive"):
            signature_census(enumerate_q_graphs(1), max_degree=2, jobs=jobs)

    @pytest.mark.parametrize("jobs, cpus, workers", [(10**9, 3, 3), (2, 3, 2), (5, None, None), (1, 3, None)])
    def test_pool_never_has_more_workers_than_cpus(self, monkeypatch, jobs, cpus, workers):
        # a fake pool records its size and runs the rows serially, so no
        # worker process is started
        made = []

        class FakePool:
            def __init__(self, processes):
                made.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args, chunksize=1):
                return [fn(*a) for a in args]

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        fam = enumerate_q_graphs(2)
        cens = signature_census(fam, max_degree=2, jobs=jobs)
        assert made == ([] if workers is None else [workers])
        assert cens.table() == signature_census(fam, max_degree=2).table()


def opposite(g):
    """G^op, on the same vertices in the same order: every arrow reversed."""
    return graph(g.vertices, [(t, s, l) for s, t, l in g.arrows])


def psi(dot, a):
    """(b_1..b_n) with b_m = a_1.(a_2.( ... a_m)): the origin tuple of h c,
    for c the complement of each cube, when a is that of h."""
    out = []
    for m in range(len(a)):
        b = a[m]
        for x in reversed(a[:m]):
            b = dot[x][b]
        out.append(b)
    return tuple(out)


def counted(name, calls, fn, *args):
    calls[name] += 1
    return fn(*args)


def seeded_graphs(seed, count):
    """``count`` random r-graphs and ``count`` random q-graphs, on three and
    four vertices alternately, none holding its key."""
    rng = random.Random(seed)
    out = []
    for q_only in (False, True):
        for i in range(count):
            out.append(graph_from_injections([rng.choice(c) for c in _label_choices(3 + i % 2, q_only)]))
    return out


class TestOppositeGraphs:
    """Reversing every arrow is a chain isomorphism: psi carries the basis of
    C_n(G) onto that of C_n(G^op), the quotient bases too for a q-graph, and
    anticommutes with the boundaries, so ``signature_census`` computes the
    groups of one graph of each opposite pair."""

    def test_psi_maps_the_basis_onto_the_opposite_basis_and_anticommutes(self):
        boundaries = 0
        for g in seeded_graphs(47, 50):
            gop, dot = opposite(g), dot_table(g)
            for q in (False, True) if classify(g) == "q" else (False,):
                below = below_op = None
                for n in range(1, 5):
                    basis, basis_op = chain_basis(n, g, q), chain_basis(n, gop, q)
                    images = [psi(dot, a) for a in basis]
                    assert sorted(images) == basis_op and len(set(images)) == len(images)
                    if n > 1:
                        d, d_op = boundary_matrix(n, g, q), boundary_matrix(n, gop, q)
                        col_op = {a: j for j, a in enumerate(basis_op)}
                        for j, a in enumerate(images):
                            image_of_d = {psi(dot, below[r]): -row[j] for r, row in enumerate(d) if row[j]}
                            d_op_of_image = {below_op[r]: row[col_op[a]] for r, row in enumerate(d_op) if row[col_op[a]]}
                            assert d_op_of_image == image_of_d, (g, q, n, a)
                        boundaries += 1
                    below, below_op = basis, basis_op
        assert boundaries >= 450

    @pytest.mark.parametrize("enumerate_graphs, reps", [(enumerate_r_graphs, 3681), (enumerate_q_graphs, 55)])
    def test_one_computation_per_pair_of_opposites(self, monkeypatch, enumerate_graphs, reps):
        # the classes hold their keys, so the only labelings are of the
        # opposites of the representatives, which are all r-graphs
        fam = enumerate_graphs(3)
        calls = {"_groups": 0, "_canonical_leaf": 0}
        for name in calls:
            monkeypatch.setattr(census, name, functools.partial(counted, name, calls, getattr(census, name)))
        signature_census(fam, 2)
        assert calls == {"_groups": reps, "_canonical_leaf": reps}

    @pytest.mark.parametrize("enumerate_graphs", [enumerate_r_graphs, enumerate_q_graphs])
    def test_rows_are_those_of_each_class(self, enumerate_graphs):
        fam = enumerate_graphs(3)
        assert signature_census(fam, 5).rows == tuple(census_row(g, 5) for g in fam)

    def test_two_jobs_give_the_rows_of_one(self):
        fam = enumerate_r_graphs(3)
        assert signature_census(fam, 3, jobs=2) == signature_census(fam, 3, jobs=1)

    @pytest.mark.parametrize("family", ["not closed", "duplicates", "one-sided"])
    def test_other_families_get_the_rows_of_each_graph(self, monkeypatch, family):
        rng = random.Random(11)
        if family == "not closed":
            # a sample of the classes, in which most opposites are missing
            fam = [g for g in enumerate_r_graphs(3) if rng.random() < 0.05]
        elif family == "duplicates":
            # graphs without held keys, with isomorphic copies and opposites
            base = seeded_graphs(5, 20)
            fam = base + [opposite(g) for g in base] + [graph(list(reversed(g.vertices)), g.arrows[::-1]) for g in base]
            rng.shuffle(fam)
        else:
            # in the homology domain, but its opposite is not
            fam = [graph("a b", [("a", "b", "a"), ("b", "b", "a")]), *enumerate_q_graphs(2)]
        calls = {"canonical_labeling": 0}
        monkeypatch.setattr(core, "canonical_labeling", functools.partial(counted, "canonical_labeling", calls, core.canonical_labeling))
        rows = signature_census(fam, 4).rows
        # each graph that holds no key is labeled once for its own key
        assert calls["canonical_labeling"] == sum(1 for g in fam if g._key is None)
        monkeypatch.undo()
        assert rows == tuple(sorted((census_row(g, 4) for g in fam), key=lambda r: r.key))

    def test_a_graph_outside_the_domain_is_the_error_of_its_row(self):
        one_sided = graph("a b", [("a", "b", "a"), ("b", "b", "a")])
        for g in (opposite(one_sided), graph("a b", [("a", "a", "a"), ("a", "b", "a")])):
            with pytest.raises(NotRGraphError) as row:
                census_row(g, 3)
            with pytest.raises(NotRGraphError) as cens:
                signature_census([one_sided, g], 3)
            assert str(cens.value) == str(row.value)


class TestThreeVertexInvariants:
    def test_n3_burnside_matches_canonical_enumeration(self):
        complete = enumerate_r_graphs(3, include_arrowless=True)
        assert len(complete) == burnside_class_count(3) == 6664
        assert len(enumerate_r_graphs(3)) == 6663
        q3 = enumerate_q_graphs(3)
        assert len(q3) == burnside_class_count(3, q_only=True) == 70

    def test_exhoc_appears_in_q_census(self):
        exhoc = graph(
            "a b c",
            [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
             ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c")],
        )
        keys = {canonical_key(g) for g in enumerate_q_graphs(3)}
        assert canonical_key(exhoc) in keys
