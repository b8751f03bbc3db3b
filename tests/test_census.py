import functools
import itertools
import pickle

import pytest

from comtes import census
from comtes.census import (
    _label_choices,
    _least_codes,
    census_row,
    enumerate_q_graphs,
    enumerate_r_graphs,
    partial_injections,
    signature_census,
)
from comtes.core import canonical_form, canonical_key, classify, graph, graph_from_injections, validate_graph
from comtes.homology import homology_range
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

        def counting(g, shared=None):
            calls.append(g)
            return canonical_form(g, shared)

        monkeypatch.setattr(census, "canonical_form", counting)
        assert enumerate_graphs(n, include_arrowless=include_arrowless) == want
        # one canonical form per class returned
        assert len(calls) == len(want)

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
