import dataclasses
import hashlib
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import comtes
from comtes.acceptance import G2, G2G3_BUDGET, G3
from comtes.core import Arrow, Comte, SelfIndexedGraph, _canonical_labeling, _index_form, canonical_key, comte, validate
from comtes.moves import (
    _JOIN_ORDER,
    _R2,
    _SIDES,
    ApplyResult,
    MoveError,
    MoveInstance,
    SearchBudget,
    _apply_rule,
    _inverse_instances,
    _square_join,
    apply_move,
    apply_move_detailed,
    enumerate_moves,
    equivalent_bounded,
    inverse_instances,
    replay_trace,
)
from comtes.coloring import coloring_count
from comtes.links import REIDEMEISTER_PAIRS, comte_of_gauss, parse_gauss_code
from comtes.racks import tetrahedron_quandle
from reference import _incident_slots, _r2_split_flow, _slot, named_apply_move_detailed

TREFOIL = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
FIGURE_EIGHT = comte("a b c d", [("a", "d", "c", 1), ("c", "d", "b", -1), ("c", "b", "a", 1), ("a", "b", "d", -1)])

# A comte containing a witness arrow plus a full square, conserved flows:
# witness b --a--> t, square left c->u (a), bottom u->s (t), top c->r (b),
# right r->s (a), plus a balancing return arrow s->c.
SQUARE = comte(
    "a b t c u s r",
    [
        ("b", "t", "a", 0),
        ("c", "u", "a", 1),
        ("u", "s", "t", 1),
        ("c", "r", "b", -1),
        ("r", "s", "a", -1),
        ("s", "c", "a", 0),
    ],
)

SQUARE0 = comte(
    "a b t c u s r",
    [("b", "t", "a", 0), ("c", "u", "a", 0), ("u", "s", "t", 0), ("c", "r", "b", 0), ("r", "s", "a", 0)],
)


class TestEnumerate:
    def test_r0_pendant(self):
        c = comte("a b t", [("a", "b", "t", 0)])
        ms = [m for m in enumerate_moves(c) if m.kind == "R0" and m.vertices == ("b",)]
        assert len(ms) == 1
        out = apply_move(c, ms[0])
        assert out.vertices == ("a", "t") and validate(out).ok

    def test_r0_requires_unlabeled_pendant(self):
        c = comte("a b", [("a", "b", "b", 0)])  # pendant b labels the arrow
        kinds = [(m.kind, m.vertices) for m in enumerate_moves(c)]
        assert ("R0", ("b",)) not in kinds  # b labels something
        assert ("R0", ("a",)) in kinds  # a is a legitimate unlabeled pendant
        # nonzero flow also blocks R0
        c2 = comte("a b", [("a", "b", "b", 1), ("b", "a", "b", 1)])
        assert not [m for m in enumerate_moves(c2) if m.kind == "R0"]

    def test_r1_contract_instance(self):
        c = comte("a b", [("a", "b", "a", 0)])
        ms = [m for m in enumerate_moves(c) if m.kind == "R1contract"]
        assert len(ms) == 1

    def test_r2a_same_source_and_label(self):
        c = comte("a s", [("a", "s", "a", 2), ("a", "s", "a", 3), ("s", "a", "a", 5)])
        ms = [m for m in enumerate_moves(c) if m.kind == "R2a" and set(m.arrows) == {0, 1}]
        assert len(ms) == 1

    def test_r3b_window(self):
        ms = [m for m in enumerate_moves(SQUARE, SearchBudget(r3b_range=3)) if m.kind == "R3b_shift"]
        assert sorted(m.params[0] for m in ms) == [-3, -2, -1, 1, 2, 3]

    def test_r3a_remove_requires_zero_flow(self):
        assert len([m for m in enumerate_moves(SQUARE0) if m.kind == "R3a_remove"]) == 4
        assert not [m for m in enumerate_moves(SQUARE) if m.kind == "R3a_remove"]


class TestApply:
    def test_r2a_adds_flows(self):
        c = comte("a s", [("a", "s", "a", 2), ("a", "s", "a", 3), ("s", "a", "a", 5)])
        m = [x for x in enumerate_moves(c) if x.kind == "R2a" and set(x.arrows) == {0, 1}][0]
        out = apply_move(c, m)
        assert sorted(out.flows) == [5, 5] and validate(out).ok

    def test_r1_contract_merges(self):
        c = comte("a b", [("a", "b", "a", 7), ("b", "a", "a", 7)])
        out = apply_move(c, MoveInstance("R1contract", arrows=(0,)))
        assert len(out.vertices) == 1 and validate(out).ok

    def test_r3b_shift_pattern_and_inverse(self):
        m = [x for x in enumerate_moves(SQUARE, SearchBudget(r3b_range=2)) if x.kind == "R3b_shift" and x.params == (2,)][0]
        out = apply_move(SQUARE, m)
        _, li, bi, ti, ri = m.arrows
        assert out.flows[li] == SQUARE.flows[li] + 2
        assert out.flows[bi] == SQUARE.flows[bi] + 2
        assert out.flows[ti] == SQUARE.flows[ti] - 2
        assert out.flows[ri] == SQUARE.flows[ri] - 2
        back = apply_move(out, MoveInstance("R3b_shift", arrows=m.arrows, params=(-2,)))
        assert canonical_key(back) == canonical_key(SQUARE)

    def test_r3a_remove_then_add(self):
        # for each side position: remove that side, then the R3a_add
        # instance at that position restores the square
        for pos in range(4):
            (rem,) = [m for m in enumerate_moves(SQUARE0) if m.kind == "R3a_remove" and m.params == (pos,)]
            out = apply_move(SQUARE0, rem)
            assert validate(out).ok and len(out.arrows) == 4
            (add,) = [m for m in inverse_instances(out) if m.kind == "R3a_add" and m.params == (pos,)]
            assert canonical_key(apply_move(out, add)) == canonical_key(SQUARE0), pos
            # break one relation of the three-sided square at a time: relabel
            # a present side, or reverse it so that it no longer meets its corners
            arrows = list(out.graph.arrows)
            for j in add.arrows[1:]:
                a = arrows[j]
                for broken in (Arrow(a.source, a.target, "c"), Arrow(a.target, a.source, a.label)):
                    g = SelfIndexedGraph(out.graph.vertices, tuple(arrows[:j] + [broken] + arrows[j + 1:]))
                    with pytest.raises(MoveError, match="three-sided square relations fail"):
                        apply_move(Comte(g, out.flows), add)

    def test_full_square_relations_checked(self):
        # R3a_remove and R3b_shift check all eight relations of the square
        arrows = list(SQUARE0.graph.arrows)
        for j in range(1, 5):
            a = arrows[j]
            for broken in (Arrow(a.source, a.target, "c"), Arrow(a.target, a.source, a.label)):
                g = SelfIndexedGraph(SQUARE0.vertices, tuple(arrows[:j] + [broken] + arrows[j + 1:]))
                for m in (
                    MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 4), params=(0,)),
                    MoveInstance("R3b_shift", arrows=(0, 1, 2, 3, 4), params=(1,)),
                ):
                    with pytest.raises(MoveError, match="square relations do not hold"):
                        apply_move(Comte(g, SQUARE0.flows), m)
        with pytest.raises(MoveError, match="must be distinct"):
            apply_move(SQUARE0, MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 3), params=(0,)))

    def test_stale_site_rejected(self):
        with pytest.raises(MoveError, match="arrow index 9"):
            apply_move(TREFOIL, MoveInstance("R1contract", arrows=(9,)))
        with pytest.raises(MoveError):
            apply_move(TREFOIL, MoveInstance("R1contract", arrows=(0,)))  # not contractible

    def test_unknown_kind(self):
        with pytest.raises(MoveError, match="unknown move kind"):
            apply_move(TREFOIL, MoveInstance("R9"))

    def test_split_errors_name_the_least_offending_slot(self):
        # the moved slots are a set, so the message must not follow its
        # iteration order, which changes with the string hash seed
        script = (
            "import sys\n"
            "from comtes.core import comte\n"
            "from comtes.moves import MoveError, MoveInstance, apply_move\n"
            "c = comte('a b c', [('a', 'b', 'c', 1), ('b', 'c', 'a', 1), ('c', 'a', 'b', 1)])\n"
            "slots = frozenset((j, r) for j in range(3) for r in 'stl')\n"
            "for m in (\n"
            "    MoveInstance('R1split', vertices=('a',), moved=slots, flags=('old_new', 'old')),\n"
            "    MoveInstance('R2a_split', arrows=(0,), params=(1, 0), moved=slots - {(0, 't')}, flags=('fresh',)),\n"
            "    MoveInstance('R1split', vertices=('a',), moved=frozenset({(5, 's'), (7, 't'), (9, 'l')}),"
            " flags=('old_new', 'old')),\n"
            "):\n"
            "    try:\n"
            "        apply_move(c, m)\n"
            "    except MoveError as e:\n"
            "        print(e, file=sys.stderr)\n"
        )
        src = str(Path(comtes.__file__).resolve().parent.parent)
        errs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            errs.append(proc.stderr)
        assert errs[0] == errs[1] == (
            "R1split: slot (0,l) is not attached to 'a'\n"
            "R2 split: slot (0,l) is not attached to 'b'\n"
            "stale site: arrow index 5 not present\n"
        )


# One well-shaped instance of each kind on SQUARE0 (flows all 0).
WELL_SHAPED = (
    MoveInstance("R0", arrows=(0,), vertices=("b",)),
    MoveInstance("R0inv", vertices=("a", "a"), flags=("target",)),
    MoveInstance("R1contract", arrows=(0,)),
    MoveInstance("R1split", vertices=("c",), moved=frozenset({(1, "s")}), flags=("old_new", "new")),
    MoveInstance("R1loopdel", arrows=(0,)),
    MoveInstance("R1loopadd", vertices=("a",), params=(1,)),
    MoveInstance("R2a", arrows=(1, 3)),
    MoveInstance("R2b", arrows=(2, 4)),
    MoveInstance("R2a_split", arrows=(1,), params=(0, 0), flags=("parallel",)),
    MoveInstance("R2b_split", arrows=(1,), params=(0, 0), moved=frozenset({(3, "s")}), flags=("fresh",)),
    MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 4), params=(0,)),
    MoveInstance("R3a_add", arrows=(0, 1, 2, 3), params=(3,)),
    MoveInstance("R3b_shift", arrows=(0, 1, 2, 3, 4), params=(1,)),
)


class TestInstanceShape:
    """``apply_move`` rejects an instance whose fields do not fit its kind
    with a ``MoveError``, before any rule reads them."""

    def test_every_kind_has_a_well_shaped_instance(self):
        from comtes.moves import _KINDS

        assert sorted(m.kind for m in WELL_SHAPED) == sorted(_KINDS)

    @pytest.mark.parametrize("m", WELL_SHAPED, ids=lambda m: m.kind)
    @pytest.mark.parametrize("field", ["arrows", "vertices", "params", "flags"])
    def test_a_field_one_too_long_or_short(self, m, field):
        value = getattr(m, field)
        extra = {"arrows": 0, "vertices": "a", "params": 0, "flags": value[-1] if value else "fresh"}[field]
        for wrong in (value + (extra,), value[:-1]) if value else (value + (extra,),):
            with pytest.raises(MoveError, match="counts of arrows, vertices, params and flags"):
                apply_move(SQUARE0, m._replace(**{field: wrong}))

    @pytest.mark.parametrize("pos", [-1, 4, 5, 6, 7])
    def test_r3a_side_position_out_of_range(self, pos):
        # position -1 used to delete the witness of an R3a_remove site
        for m in (MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 4), params=(pos,)),
                  MoveInstance("R3a_add", arrows=(0, 1, 2, 3), params=(pos,))):
            with pytest.raises(MoveError, match=f"bad side position {pos}"):
                apply_move(SQUARE0, m)

    @pytest.mark.parametrize("m", [
        MoveInstance("R0inv", vertices=("a", "a"), flags=("up",)),
        MoveInstance("R1split", vertices=("c",), moved=frozenset({(1, "s")}), flags=("sideways", "old")),
        MoveInstance("R1split", vertices=("c",), moved=frozenset({(1, "s")}), flags=("old_new", "banana")),
        MoveInstance("R2a_split", arrows=(1,), params=(0, 0), flags=("split",)),
    ], ids=["R0inv-direction", "R1split-direction", "R1split-label-half", "R2a_split-flavor"])
    def test_bad_flag(self, m):
        with pytest.raises(MoveError, match=f"{m.kind}: bad flag"):
            apply_move(SQUARE0, m)

    def test_bad_slot_role(self):
        m = MoveInstance("R1split", vertices=("c",), moved=frozenset({(1, "x")}), flags=("old_new", "new"))
        with pytest.raises(MoveError, match="bad slot role 'x'"):
            apply_move(SQUARE0, m)

    def test_vertex_name_that_is_not_a_string(self):
        m = MoveInstance("R1loopadd", vertices=(["a"],), params=(1,))
        with pytest.raises(MoveError, match=r"R1loopadd: vertices entry \['a'\] is not a vertex name"):
            apply_move(SQUARE0, m)

    @pytest.mark.parametrize("entry", [(0, "s", "x"), (0,), "0s"])
    def test_moved_entry_that_is_not_a_pair(self, entry):
        m = MoveInstance("R1split", vertices=("c",), moved=frozenset({entry}), flags=("old_new", "new"))
        with pytest.raises(MoveError, match="R1split: moved entry .* is not an \\(arrow index, role\\) pair"):
            apply_move(SQUARE0, m)

    def test_slots_moved_by_a_kind_that_moves_none(self):
        m = MoveInstance("R1loopadd", vertices=("c",), params=(0,), moved=frozenset({(1, "s")}))
        with pytest.raises(MoveError, match="R1loopadd: moves no slots"):
            apply_move(SQUARE0, m)

    def test_well_shaped_instances_reach_their_rules(self):
        # the R0, R1contract, R1loopdel, R2a and R2b instances fail a site
        # check of SQUARE0, which is a rule fault, not a shape fault
        for m in WELL_SHAPED:
            try:
                apply_move(SQUARE0, m)
            except MoveError as e:
                assert "counts of" not in str(e) and "bad " not in str(e), (m, e)


class TestRuleRejections:
    """The site checks of the rules, each on an instance of the right
    shape."""

    def test_r0_pendant_flow(self):
        # a pendant arrow with a flow is not conserved, but apply_move takes
        # any comte
        c = Comte(comte("a b t", [("a", "b", "t", 0)]).graph, (1,))
        with pytest.raises(MoveError, match="R0: pendant arrow flow is nonzero"):
            apply_move(c, MoveInstance("R0", arrows=(0,), vertices=("b",)))

    def test_r2_arrows_distinct(self):
        c = comte("a s", [("a", "s", "a", 2), ("a", "s", "a", 3), ("s", "a", "a", 5)])
        with pytest.raises(MoveError, match="R2: arrows must be distinct"):
            apply_move(c, MoveInstance("R2a", arrows=(0, 0)))

    @pytest.mark.parametrize("m, error", [
        (MoveInstance("R2a_split", arrows=(1,), params=(1, 0), flags=("parallel",)), "flows do not sum"),
        (MoveInstance("R2a_split", arrows=(1,), params=(0, 0), moved=frozenset({(3, "s")}), flags=("parallel",)),
         "parallel flavor moves no slots"),
        (MoveInstance("R2b_split", arrows=(1,), params=(0, 0), moved=frozenset({(1, "s")}), flags=("fresh",)),
         "the split slot cannot be moved"),
    ], ids=["sum", "parallel-moves", "split-slot-moved"])
    def test_r2_split_faults(self, m, error):
        with pytest.raises(MoveError, match=f"R2 split: {error}"):
            apply_move(SQUARE0, m)

    def test_r3a_removed_side_carries_flow(self):
        with pytest.raises(MoveError, match="R3a: the removed side must carry flow 0"):
            apply_move(SQUARE, MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 4), params=(0,)))

    def test_r3a_add_arrows_distinct(self):
        with pytest.raises(MoveError, match="R3a_add: arrows must be distinct"):
            apply_move(SQUARE0, MoveInstance("R3a_add", arrows=(0, 1, 1, 2), params=(3,)))


class TestInverseEnumeration:
    def test_single_vertex_r0inv(self):
        c = comte("a", [])
        invs = [m for m in inverse_instances(c) if m.kind == "R0inv"]
        assert len(invs) == 2

    def test_flow_split_window(self):
        # a parallel split copies the arrow, so it is listed as R2a_split
        # alone, with its flows in rising order
        c = comte("a b x", [("a", "b", "x", 1), ("b", "a", "x", 1)])
        parallel = [m for m in inverse_instances(c, SearchBudget(flow_lo=-1, flow_hi=2)) if m.flags == ("parallel",)]
        assert {m.kind for m in parallel} == {"R2a_split"}
        assert sorted(m.params for m in parallel if m.arrows == (0,)) == [(-1, 2), (0, 1)]

    def test_empty_flow_window_rejected(self):
        # a one-value window is allowed; an empty one would silently drop
        # every flow-carrying inverse move
        assert inverse_instances(TREFOIL, SearchBudget(flow_lo=1, flow_hi=1))
        with pytest.raises(ValueError, match="empty flow window"):
            SearchBudget(flow_lo=3, flow_hi=-2)

    @pytest.mark.parametrize("field", ["max_states", "max_vertices", "max_arrows", "r3b_range", "max_split_slots"])
    def test_negative_window_rejected(self, field):
        # a negative window would leave the search nothing to do
        assert getattr(SearchBudget(**{field: 0}), field) == 0
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1$"):
            SearchBudget(**{field: -1})

    @pytest.mark.parametrize("value", [0.5, None, True])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SearchBudget)])
    def test_non_integer_field_rejected(self, field, value):
        # a float used to be accepted and then fail inside the search, and
        # None failed in the range check with an unrelated TypeError
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            SearchBudget(**{field: value})

    def test_enumerators_declare_no_window(self):
        # the windows live in SearchBudget alone, so enumerate_moves(c),
        # inverse_instances(c) and a search under SearchBudget() walk the same
        windows = {f.name for f in dataclasses.fields(SearchBudget)}
        for fn in (enumerate_moves, inverse_instances):
            params = inspect.signature(fn).parameters
            assert not windows & set(params), fn.__name__
            assert params["budget"].default == SearchBudget(), fn.__name__

    def test_g2_reaches_r3a_completion_after_a_split(self):
        # the move relation between the trefoil-with-chord comtes starts with
        # a vertex split that creates a three-sided square
        assert not [m for m in inverse_instances(G2) if m.kind == "R3a_add"]
        splits = [m for m in inverse_instances(G2, SearchBudget(max_split_slots=6)) if m.kind == "R1split"]
        assert any(
            any(m.kind == "R3a_add" for m in inverse_instances(apply_move(G2, s)))
            for s in splits
        )


class TestRandomizedBattery:
    def test_validity_and_inversion(self, make_comte, rng):
        budget = SearchBudget(max_split_slots=7)
        checked = 0
        for _ in range(120):
            c = make_comte(nmax=4, amax=6)
            pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
            for m in pool:
                res = apply_move_detailed(c, m)
                assert validate(res.comte).ok, (c, m)
                back = apply_move(res.comte, res.inverse)
                assert canonical_key(back) == canonical_key(c), (c, m)
                checked += 1
        assert checked >= 1000

    def test_fresh_split_flows_are_forced_by_conservation(self, make_comte):
        # of all flow splits I1 + I2 = I of a fresh R2 split, exactly the one
        # that conservation forces applies, and its result is a comte
        budget = SearchBudget(flow_lo=-6, flow_hi=6, max_split_slots=5)
        checked = 0
        for _ in range(80):
            c = make_comte(nmax=4, amax=5)
            for m in inverse_instances(c, budget):
                if m.flags != ("fresh",):
                    continue
                flow = c.flows[m.arrows[0]]
                for i1 in range(-8, 9):
                    other = m._replace(params=(i1, flow - i1))
                    if other.params == m.params:
                        assert validate(apply_move(c, other)).ok, (c, other)
                        checked += 1
                    else:
                        with pytest.raises(MoveError, match="violates conservation"):
                            apply_move(c, other)
        assert checked >= 200

    def test_random_move_walk_stays_valid(self, rng):
        # a long walk of mixed forward/inverse moves never breaks conservation
        c = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
        budget = SearchBudget(r3b_range=1, flow_lo=-1, flow_hi=1, max_split_slots=5)
        steps = 0
        while steps < 1000:
            pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
            candidates = [m for m in pool] if len(c.vertices) <= 5 and len(c.arrows) <= 8 else [
                m for m in pool if m.kind in ("R0", "R1contract", "R1loopdel", "R2a", "R2b", "R3a_remove")
            ]
            if not candidates:
                candidates = pool
            m = candidates[rng.randrange(len(candidates))]
            c = apply_move(c, m)
            assert validate(c).ok, (steps, m)
            steps += 1

    def test_coloring_count_invariance_battery(self, make_comte, rng):
        from comtes.racks import dihedral_quandle, trivial_quandle

        battery = (trivial_quandle(2), trivial_quandle(3), dihedral_quandle(3), tetrahedron_quandle())
        budget = SearchBudget(r3b_range=1, max_split_slots=6)
        for _ in range(100):
            c = make_comte(nmax=4, amax=6)
            pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
            if not pool:
                continue
            m = pool[rng.randrange(len(pool))]
            c2 = apply_move(c, m)
            for x in battery:
                assert coloring_count(c.graph, x) == coloring_count(c2.graph, x), (m, x.n)


def _outcome(apply, c, m):
    try:
        return apply(c, m)
    except Exception as e:  # the error itself is compared
        return type(e).__name__, str(e)


class TestAgainstTheNamedRules:
    """``apply_move_detailed``, which names an index rule's result, against
    the rules on named comtes that it replaced (``tests/reference.py``)."""

    # fresh names are the split vertex or "w" with primes added, so some
    # comtes hold such names already
    RENAMES = ({}, {"v0": "w'", "v1": "v2'"}, {"v0": "v0'", "v2": "w"})

    def test_every_instance_gives_the_named_result(self, make_comte):
        budgets = (SearchBudget(r3b_range=1, max_split_slots=6), SearchBudget(**BARE, max_split_slots=6))
        pool = []
        for i in range(240):
            c = make_comte(nmax=4, amax=6)
            rename = self.RENAMES[i % 3]
            g = comte([rename.get(v, v) for v in c.vertices],
                      [(*(rename.get(v, v) for v in (a.source, a.target, a.label)), f) for a, f in zip(c.arrows, c.flows)])
            pool.append(_zeroed(g) if i % 4 == 3 else g)
        outcomes = Counter()
        for k, c in enumerate(pool):
            budget = budgets[k % 4 == 3]
            own = enumerate_moves(c, budget) + inverse_instances(c, budget)
            other = pool[k - 1]  # instances of another comte, applied to this one
            cross = enumerate_moves(other, budget) + inverse_instances(other, budget)
            for m in own + cross:
                got, want = _outcome(apply_move_detailed, c, m), _outcome(named_apply_move_detailed, c, m)
                assert got == want, (c, m)
                outcomes["applied" if isinstance(want, ApplyResult) else re.sub(r"\d+|'.*'", "_", want[1])] += 1
        assert outcomes.pop("applied") > 20000 and sum(outcomes.values()) > 5000
        # the cross-applied instances meet most of the site checks
        assert len(outcomes) >= 20, sorted(outcomes)


class TestSearch:
    def test_self_is_equivalent_with_empty_trace(self):
        trace = equivalent_bounded(TREFOIL, TREFOIL)
        assert trace is not None and len(trace) == 0

    def test_an_instance_that_does_not_apply_raises_from_the_search(self, monkeypatch):
        # every enumerated instance applies, so the search catches nothing:
        # a fault in an enumerator is an error, not a smaller search
        import comtes.moves

        real = comtes.moves._enumerate_moves

        def faulty(n, arrs, flows, budget):
            return [*real(n, arrs, flows, budget), MoveInstance("R1contract", arrows=(len(arrs),))]

        monkeypatch.setattr(comtes.moves, "_enumerate_moves", faulty)
        with pytest.raises(MoveError, match="stale site"):
            equivalent_bounded(TREFOIL, FIGURE_EIGHT, SearchBudget(max_states=50))

    def test_one_step_search_and_replay(self):
        c2 = apply_move(TREFOIL, MoveInstance("R1loopadd", vertices=("a",), params=(1,)))
        trace = equivalent_bounded(TREFOIL, c2, SearchBudget(max_states=2000, max_vertices=4, max_arrows=5))
        assert trace is not None and len(trace) == 1
        assert canonical_key(replay_trace(TREFOIL, trace)) == canonical_key(c2)

    @pytest.mark.parametrize("field, message", [
        ("before_key", "^trace replay: state key mismatch$"),
        ("after_key", "^trace replay: step produced an unexpected state$"),
    ], ids=["before_key", "after_key"])
    def test_replay_checks_each_recorded_key(self, field, message):
        c2 = apply_move(TREFOIL, MoveInstance("R1loopadd", vertices=("a",), params=(1,)))
        trace = equivalent_bounded(TREFOIL, c2, SearchBudget(max_states=2000, max_vertices=4, max_arrows=5))
        (step,) = trace.steps
        wrong = dataclasses.replace(trace, steps=(step._replace(**{field: canonical_key(FIGURE_EIGHT)}),))
        with pytest.raises(MoveError, match=message):
            replay_trace(TREFOIL, wrong)

    def test_unknown_with_coloring_certificate(self):
        dot = comte("a", [])
        tetra = tetrahedron_quandle()
        budget = SearchBudget(max_states=400, max_vertices=4, max_arrows=5)
        assert equivalent_bounded(TREFOIL, dot, budget) is None
        # the coloring counts certify genuine inequivalence
        assert coloring_count(TREFOIL.graph, tetra) == 16
        assert coloring_count(dot.graph, tetra) == 4

    def test_graph_mode_relates_mirror_trefoils(self):
        left = comte("a b c", [("a", "b", "c", -1), ("b", "c", "a", -1), ("c", "a", "b", -1)])
        trace = equivalent_bounded(_zeroed(TREFOIL), _zeroed(left), dataclasses.replace(SearchBudget(), **BARE))
        assert trace is not None and len(trace) == 0

    def test_bare_graph_search_stays_at_zero_flows(self, monkeypatch):
        import comtes.moves

        flows = set()
        real_end = comtes.moves.canonical_labeling
        real_label = comtes.moves._canonical_labeling

        def end(c):
            flows.update(c.flows)
            return real_end(c)

        def label(n, arrs, tag):
            flows.update(f for *_, f in arrs)
            return real_label(n, arrs, tag)

        # the ends go through canonical_labeling, every child through the
        # index labeling core
        monkeypatch.setattr(comtes.moves, "canonical_labeling", end)
        monkeypatch.setattr(comtes.moves, "_canonical_labeling", label)
        budget = SearchBudget(max_states=300, max_vertices=4, max_arrows=5, flow_lo=-1, flow_hi=2)
        assert equivalent_bounded(_zeroed(TREFOIL), comte("a", []), dataclasses.replace(budget, **BARE)) is None
        assert flows == {0}

    @pytest.mark.parametrize("name", ["figure_eight", "looped_trefoil", "g2_g3", "g2_g3_without_vertex_room"])
    def test_each_expanded_state_is_built_once(self, monkeypatch, name):
        # counted from outside: one labeling per successful apply, since every
        # child of a state within the budget fits; every state is kept as its
        # canonical arrows and built as one index state right before it is
        # expanded, which every apply of the expansion reads, and the
        # backward half of a found trace builds the parent of each of its
        # steps again, applies the step's move once more and labels the child
        import comtes.moves

        start, target, budget = {
            "figure_eight": (TREFOIL, FIGURE_EIGHT, SearchBudget(max_states=2000)),
            "looped_trefoil": (
                TREFOIL,
                apply_move(TREFOIL, MoveInstance("R1loopadd", vertices=("a",), params=(1,))),
                SearchBudget(max_states=2000),
            ),
            "g2_g3": (G2, G3, G2G3_BUDGET),
            "g2_g3_without_vertex_room": (G2, G3, dataclasses.replace(G2G3_BUDGET, max_vertices=3, max_states=5000)),
        }[name]
        ends, labeled, events = [], [], []
        real_end = comtes.moves.canonical_labeling
        real_label = comtes.moves._canonical_labeling
        real_apply = comtes.moves._apply_rule
        real_enumerate = comtes.moves._enumerate_moves
        real_inverse = comtes.moves._inverse_instances

        def key_of(state):
            n, arrs, flows = state
            return real_label(n, [(*a, f) for a, f in zip(arrs, flows)], b"c").key

        def same(state, other):
            # the same arrow and flow tuples, not equal copies of them
            return state[1] is other[1] and state[2] is other[2]

        def end(c):
            lab = real_end(c)
            ends.append(lab.key)
            return lab

        def label(n, arrs, tag):
            lab = real_label(n, arrs, tag)
            labeled.append(lab.key)
            events.append(("label", lab.key))
            return lab

        def apply(state, m, names, idx):
            res = real_apply(state, m, names, idx)
            events.append(("apply", state))
            return res

        def enumerate_(*state_and_budget):
            # each expansion enumerates the forward moves once
            events.append(("expand", state_and_budget[:3]))
            return real_enumerate(*state_and_budget)

        def inverse(*state_and_budget, **kw):
            events.append(("inverse", state_and_budget[:3]))
            return real_inverse(*state_and_budget, **kw)

        for attr, fn in (("canonical_labeling", end), ("_canonical_labeling", label), ("_apply_rule", apply),
                         ("_enumerate_moves", enumerate_), ("_inverse_instances", inverse)):
            monkeypatch.setattr(comtes.moves, attr, fn)
        trace = equivalent_bounded(start, target, budget)
        found = trace is not None
        assert found == (name != "figure_eight")
        assert len(ends) == 2
        assert len(labeled) == sum(event == "apply" for event, _ in events)
        expanded = [key_of(state) for event, state in events if event == "expand"]
        assert len(set(expanded)) == len(expanded)
        # the search ends with the children of the last expansion; what
        # comes after them is the backward half of the trace, which builds
        # its own states
        last = max(i for i, (event, _) in enumerate(events) if event == "expand")
        cut = next((i for i in range(last, len(events)) if events[i][0] == "apply" and not same(events[i][1], events[last][1])),
                   len(events))
        search, tail = events[:cut], events[cut:]
        # each expansion builds its state once, right before it: both
        # enumerators and every apply of the expansion read the same tuples
        current = None
        for event, state in search:
            if event == "expand":
                current = state
            elif event != "label":
                assert same(state, current), event
        # after the search, only the parents of the backward-half steps are
        # built, in trace order, and each applies one move and labels one child
        backward = trace.steps[len(trace) - len(tail) // 2 :] if found else ()
        assert [(event, x if event == "label" else key_of(x)) for event, x in tail] == [
            event for step in backward for event in (("apply", step.after_key), ("label", step.before_key))
        ]
        if backward:
            assert backward[-1].after_key == ends[1]
        if not found:
            kept = set(labeled) - set(ends)
            assert len(kept) + len(ends) == budget.max_states
            assert len(expanded) == 19

    def test_an_exhausting_search_keeps_its_states_small(self):
        # under tracemalloc, trefoil -> figure eight under 2,000 states
        # peaked at 3.0 MiB while each state kept its labeling and its
        # inverse move, and peaks at 1.3 MiB with its canonical arrows
        # alone, one tuple per distinct arrow
        tracemalloc.start()
        try:
            trace = equivalent_bounded(TREFOIL, FIGURE_EIGHT, SearchBudget(max_states=2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace is None
        assert peak < 2 * 2**20, peak

    def test_found_traces_replay_through_their_backward_half(self, monkeypatch, make_comte, rng):
        # each target is a random comte after one to three random moves,
        # inverse ones included; a search in either direction that finds a
        # trace must replay it to the target, the backward half's inverse
        # moves, rebuilt from their parents, included
        import comtes.moves

        named = []
        real_named = comtes.moves._named_instance

        def name(*args):
            # the search names the inverse of each backward-half step here
            named.append(args)
            return real_named(*args)

        budget = SearchBudget(max_states=200, max_vertices=4, max_arrows=5, r3b_range=1, max_split_slots=4)
        found = backward = 0
        for _ in range(40):
            start = target = make_comte(nmax=3, amax=3)
            for _ in range(rng.randint(1, 3)):
                pool = enumerate_moves(target, budget) + inverse_instances(target, budget)
                target = apply_move(target, pool[rng.randrange(len(pool))])
            for a, b in ((start, target), (target, start)):
                named.clear()
                with monkeypatch.context() as m:
                    m.setattr(comtes.moves, "_named_instance", name)
                    trace = equivalent_bounded(a, b, budget)
                if trace is None:
                    continue
                assert canonical_key(replay_trace(a, trace)) == canonical_key(b)
                found += 1
                backward += len(named)
        assert found >= 40 and backward >= 20, (found, backward)

    def test_a_bare_graph_end_is_a_type_error(self):
        # the ends are labeled as they come, so a bare graph would be
        # searched as a zero-flow comte under another key tag
        for ends in ((TREFOIL.graph, TREFOIL.graph), (TREFOIL, FIGURE_EIGHT.graph)):
            with pytest.raises(TypeError, match="^equivalent_bounded takes two comtes"):
                equivalent_bounded(*ends)
        # the enumerators and apply_move used to fail inside, with an
        # AttributeError for the graph's missing 'graph' field
        loop = MoveInstance("R1loopadd", vertices=("a",), params=(1,))
        for name, call in (
            ("enumerate_moves", enumerate_moves),
            ("inverse_instances", inverse_instances),
            ("apply_move", lambda g: apply_move(g, loop)),
            ("apply_move", lambda g: apply_move_detailed(g, loop)),
        ):
            with pytest.raises(TypeError, match=f"^{name} takes a comte; as_comte\\(g\\) is the bare graph g as one$"):
                call(TREFOIL.graph)

    def test_the_search_builds_no_named_state(self, monkeypatch):
        # between labeling its ends and returning, the search works on index
        # states: it constructs no graph or comte, not even on the backward
        # half of a found trace
        import comtes.moves

        ends, built = [], []
        real_end = comtes.moves.canonical_labeling

        def end(c):
            ends.append(c)
            return real_end(c)

        monkeypatch.setattr(comtes.moves, "canonical_labeling", end)
        for cls in (SelfIndexedGraph, Comte):
            def init(self, *args, real=cls.__init__, **kw):
                if len(ends) == 2:
                    built.append(type(self).__name__)
                real(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", init)
        bare = dataclasses.replace(G2G3_BUDGET, **BARE)
        for start, target, budget, found in (
            (G2, G3, G2G3_BUDGET, True),
            (_zeroed(G2), _zeroed(G3), bare, True),
            (TREFOIL, FIGURE_EIGHT, SearchBudget(max_states=500), False),
        ):
            ends.clear()
            trace = equivalent_bounded(start, target, budget)
            assert (trace is not None) == found and len(ends) == 2
        assert built == []

    @pytest.mark.parametrize("pair, calls", [("r1", []), ("r3", [94])], ids=["r1", "r3"])
    def test_inverse_instances_are_listed_after_the_forward_children(self, monkeypatch, pair, calls):
        # a state lists its inverse instances only once all of its forward
        # children are applied and none met the other side: the R1 pair
        # meets on a forward move of the first state expanded, and listing
        # eagerly would list 120 instances there and 188 on the R3 pair
        import comtes.moves

        counts = []
        real_inverse = comtes.moves._inverse_instances

        def inverse(*args, **kw):
            out = real_inverse(*args, **kw)
            counts.append(len(out))
            return out

        monkeypatch.setattr(comtes.moves, "_inverse_instances", inverse)
        before, after = {name: codes for name, *codes in REIDEMEISTER_PAIRS}[pair]
        trace = equivalent_bounded(comte_of_gauss(parse_gauss_code(before)), comte_of_gauss(parse_gauss_code(after)))
        assert len(trace) == {"r1": 1, "r3": 2}[pair]
        assert counts == calls

    def test_trace_format(self):
        c2 = apply_move(TREFOIL, MoveInstance("R1loopadd", vertices=("a",), params=(1,)))
        trace = equivalent_bounded(TREFOIL, c2, SearchBudget(max_states=2000, max_vertices=4, max_arrows=5))
        text = trace.format()
        assert "site=" in text and text.endswith("\n")


def test_exploration_is_pinned(monkeypatch):
    # every key that three searches label, in the order each is first
    # labeled in its search, and every trace step: G2 -> G3 with flows and
    # as bare graphs, and trefoil -> figure eight until the state budget
    # runs out
    import comtes.moves

    seen = set()
    digest = hashlib.sha256()
    real_label = comtes.moves._canonical_labeling
    first = 0

    def label(n, arrs, tag):
        nonlocal first
        lab = real_label(n, arrs, tag)
        if lab.key not in seen:
            seen.add(lab.key)
            first += 1
            digest.update(lab.key)
        return lab

    monkeypatch.setattr(comtes.moves, "_canonical_labeling", label)
    for start, target, budget in (
        (G2, G3, G2G3_BUDGET),
        (_zeroed(G2), _zeroed(G3), dataclasses.replace(G2G3_BUDGET, **BARE)),
        (TREFOIL, FIGURE_EIGHT, SearchBudget(max_states=10000)),
    ):
        seen.clear()
        trace = equivalent_bounded(start, target, budget)
        for step in trace.steps if trace else ():
            digest.update(step.instance.format().encode() + step.before_key + step.after_key)
        digest.update(b"found" if trace is not None else b"none")
    assert (first, digest.hexdigest()) == (16012, "c001ded4ffa74ca097ad1490d6db43c1d1ee7dd70a2b9a76ae421d177f20ccb4")


class TestR3aAddCompleteness:
    def test_distinct_witness_labels_give_distinct_completions(self):
        # two witnesses sharing (label, target) but with different sources:
        # the missing-top completion differs in its new arrow's label, so
        # both instances must be enumerated
        c = comte(
            "a b1 b2 t c u s r x",
            [
                ("b1", "t", "a", 0),   # witness 1
                ("b2", "t", "a", 0),   # witness 2
                ("c", "u", "a", 0),    # left
                ("u", "s", "t", 0),    # bottom
                ("r", "s", "a", 0),    # right
            ],
        )
        assert validate(c).ok
        adds = [m for m in inverse_instances(c) if m.kind == "R3a_add" and m.params == (2,)]
        new_labels = set()
        for m in adds:
            out = apply_move(c, m)
            new_labels.add(out.arrows[-1].label)
        assert {"b1", "b2"} <= new_labels


    def test_instances_come_out_in_position_and_join_order(self):
        # one witness with a three-sided square lacking each position in
        # turn; the square lacking its left side has two tops and two bottoms
        c = comte(
            "a b t p1 q1 r1 s1 p2 q2 r2 s2 p3 p4 q3 q4 r3 s3 p5 q5 r5 s5",
            [
                ("b", "t", "a", 0),
                ("p1", "q1", "a", 0), ("q1", "s1", "t", 0), ("p1", "r1", "b", 0),
                ("p2", "q2", "a", 0), ("q2", "s2", "t", 0), ("r2", "s2", "a", 0),
                ("p3", "r3", "b", 0), ("p4", "r3", "b", 0), ("r3", "s3", "a", 0),
                ("q3", "s3", "t", 0), ("q4", "s3", "t", 0),
                ("p5", "q5", "a", 0), ("p5", "r5", "b", 0), ("r5", "s5", "a", 0),
            ],
        )
        assert [m.format() for m in inverse_instances(c, SearchBudget(max_split_slots=0)) if m.kind == "R3a_add"] == [
            "R3a_add site=[arrows=0,1,2,3] params=3",
            "R3a_add site=[arrows=0,4,5,6] params=2",
            "R3a_add site=[arrows=0,10,7,9] params=0",
            "R3a_add site=[arrows=0,11,7,9] params=0",
            "R3a_add site=[arrows=0,10,8,9] params=0",
            "R3a_add site=[arrows=0,11,8,9] params=0",
            "R3a_add site=[arrows=0,12,13,14] params=1",
        ]


def test_search_is_deterministic():
    c2 = apply_move(G2, MoveInstance("R1loopadd", vertices=("b",), params=(0,)))
    budget = SearchBudget(max_states=2000, max_vertices=4, max_arrows=6)
    t1 = equivalent_bounded(G2, c2, budget)
    t2 = equivalent_bounded(G2, c2, budget)
    assert t1 is not None and t1.format() == t2.format()


def test_ignore_flows_enumeration_is_bare_graph_mode():
    # in bare-graph mode, enumeration equals enumeration of the zeroed comte
    # minus the flow-shift family
    c = comte("a b t c u s r",
              [("b", "t", "a", 0), ("c", "u", "a", 1), ("u", "s", "t", 1),
               ("c", "r", "b", -1), ("r", "s", "a", -1), ("s", "c", "a", 0)])
    bare = enumerate_moves(_zeroed(c), SearchBudget(**BARE))
    zeroed = comte("a b t c u s r",
                   [("b", "t", "a", 0), ("c", "u", "a", 0), ("u", "s", "t", 0),
                    ("c", "r", "b", 0), ("r", "s", "a", 0), ("s", "c", "a", 0)])
    expected = [m for m in enumerate_moves(zeroed) if m.kind != "R3b_shift"]
    assert bare == expected
    assert any(m.kind == "R3a_remove" for m in bare)  # nonzero sides no longer block
    assert not any(m.kind == "R3b_shift" for m in bare)


def _zeroed(c):
    return Comte(c.graph, (0,) * len(c.arrows))


# bare-graph mode, as the moves module defines it: no flow shift, new flows 0
BARE = dict(r3b_range=0, flow_lo=0, flow_hi=0)


class TestSizeChange:
    """The search generates inverse instances only where there is arrow
    room, and vertex-adding ones only where there is vertex room, so every
    child of a state within the budget fits.  These checks apply each
    instance and read the change it makes."""

    def _sample(self, make_comte, ignore_flows):
        sample = [SQUARE, SQUARE0, TREFOIL] + [make_comte(nmax=4, amax=6) for _ in range(150)]
        budget = SearchBudget(**BARE, max_split_slots=6) if ignore_flows else SearchBudget(r3b_range=1, max_split_slots=6)
        return [(_zeroed(c) if ignore_flows else c, budget) for c in sample]

    @staticmethod
    def _change(c, m):
        out = apply_move(c, m)
        return len(out.vertices) - len(c.vertices), len(out.arrows) - len(c.arrows)

    @pytest.mark.parametrize("ignore_flows", [False, True])
    def test_forward_instances_never_grow(self, make_comte, ignore_flows):
        seen = set()
        for c, budget in self._sample(make_comte, ignore_flows):
            for m in enumerate_moves(c, budget):
                dv, da = self._change(c, m)  # every enumerated instance applies
                assert dv <= 0 and da <= 0, (c, m)
                seen.add((m.kind, dv))
        forward = {"R0", "R1contract", "R1loopdel", "R2a", "R2b", "R3a_remove", "R3b_shift"}
        assert {kind for kind, _ in seen} == forward - ({"R3b_shift"} if ignore_flows else set())
        # both R2 merges, with the merged endpoints shared or not
        assert {("R2a", 0), ("R2a", -1), ("R2b", 0), ("R2b", -1)} <= seen

    @pytest.mark.parametrize("ignore_flows", [False, True])
    def test_each_inverse_instance_adds_one_arrow(self, make_comte, ignore_flows):
        seen = set()
        for c, budget in self._sample(make_comte, ignore_flows):
            for m in inverse_instances(c, budget):
                dv, da = self._change(c, m)
                assert da == 1, (c, m)
                seen.add((m.kind, dv))
        assert {kind for kind, _ in seen} == {"R0inv", "R1split", "R1loopadd", "R2a_split", "R2b_split", "R3a_add"}
        # both split flavors, parallel and fresh; a parallel split is listed
        # as R2a_split alone, so R2b_split always adds a vertex
        assert {("R2a_split", 0), ("R2a_split", 1), ("R2b_split", 1)} <= seen
        assert ("R2b_split", 0) not in seen

    @pytest.mark.parametrize("ignore_flows", [False, True])
    def test_pruned_generation_leaves_out_only_vertex_adding_instances(self, make_comte, ignore_flows):
        # on the index states that the search expands
        for c, budget in self._sample(make_comte, ignore_flows):
            state = (len(c.vertices), _index_form(c.graph)[1], c.flows)
            idx = range(state[0])
            full = _inverse_instances(*state, budget, True)
            kept = _inverse_instances(*state, budget, False)
            assert kept == [m for m in full if _apply_rule(state, m, idx, idx)[0][0] == state[0]], c

    @pytest.mark.parametrize("max_vertices, max_arrows", [(3, 5), (4, 3)])
    def test_search_canonicalizes_no_oversize_child(self, monkeypatch, max_vertices, max_arrows):
        # the start is over one of the bounds, so some of its children that
        # shrink still do not fit
        import comtes.moves

        sizes = []
        real_end = comtes.moves.canonical_labeling
        real_label = comtes.moves._canonical_labeling

        def end(c):
            sizes.append((len(c.vertices), len(c.arrows)))
            return real_end(c)

        def label(n, arrs, tag):
            sizes.append((n, len(arrs)))
            return real_label(n, arrs, tag)

        # the ends go through canonical_labeling, every child through the
        # index labeling core
        monkeypatch.setattr(comtes.moves, "canonical_labeling", end)
        monkeypatch.setattr(comtes.moves, "_canonical_labeling", label)
        looped_kink = comte(
            "a b c d",
            [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "d", "b", 1), ("d", "a", "d", 1), ("a", "a", "a", 0)],
        )
        budget = SearchBudget(max_states=300, max_vertices=max_vertices, max_arrows=max_arrows)
        assert equivalent_bounded(looped_kink, comte("a", []), budget) is None
        assert sizes[:2] == [(4, 5), (1, 0)]
        assert all(v <= max_vertices and a <= max_arrows for v, a in sizes[2:])


class TestSearchGolden:
    """Search results pinned exactly.  The two traces index arrows and
    vertices of canonical states, so a new canonical labeling changes them;
    the two ``None`` results were recorded while the size budget was still
    checked after each move was applied and canonicalized."""

    def test_g2_g3_trace(self):
        trace = equivalent_bounded(G2, G3, G2G3_BUDGET)
        assert trace.format() == (
            "R1split site=[vertices=0 moved=2t flags=old_new,old]\n"
            "R3a_add site=[arrows=3,2,4,1] params=2\n"
            "R3b_shift site=[arrows=2,5,3,4,1] params=-1\n"
            "R3a_remove site=[arrows=4,3,5,2,1] params=1\n"
            "R0 site=[arrows=0 vertices=2]\n"
        )
        assert canonical_key(replay_trace(G2, trace)) == canonical_key(G3)

    def test_g2_g3_trace_without_vertex_room(self):
        # no state may grow past G2's three vertices, so no vertex-adding
        # instance is generated at all
        trace = equivalent_bounded(G2, G3, dataclasses.replace(G2G3_BUDGET, max_vertices=3, max_states=5000))
        assert trace.format() == (
            "R1loopadd site=[vertices=0] params=0\n"
            "R3a_add site=[arrows=2,0,1,4] params=2\n"
            "R3b_shift site=[arrows=4,2,3,1,0] params=1\n"
            "R3a_remove site=[arrows=5,0,2,1,4] params=1\n"
            "R1loopdel site=[arrows=0]\n"
        )
        assert canonical_key(replay_trace(G2, trace)) == canonical_key(G3)

    def test_g2_g3_trace_bare_graphs(self):
        trace = equivalent_bounded(_zeroed(G2), _zeroed(G3), dataclasses.replace(G2G3_BUDGET, **BARE))
        assert trace.format() == (
            "R0inv site=[vertices=0,0 flags=target]\n"
            "R3a_add site=[arrows=2,4,3,1] params=1\n"
            "R3a_remove site=[arrows=4,1,5,0,3] params=2\n"
            "R1contract site=[arrows=1]\n"
        )
        assert canonical_key(replay_trace(_zeroed(G2), trace)) == canonical_key(_zeroed(G3))

    @pytest.mark.parametrize("limit", [dict(max_states=2000), dict(max_arrows=5, max_states=5000)])
    def test_budget_limited_search_finds_nothing(self, limit):
        assert equivalent_bounded(G2, G3, dataclasses.replace(G2G3_BUDGET, **limit)) is None


class TestEnumerationGolden:
    """The complete forward + inverse instance lists, in order, pinned by
    digest; the R3 instances among them are pinned verbatim."""

    CASES = {
        "square0_without_left": (
            lambda: apply_move(SQUARE0, MoveInstance("R3a_remove", arrows=(0, 1, 2, 3, 4), params=(0,))),
            {
                False: (171, "0e6d4053297de4c2f629d8aafa1f5a5503e7f7b6890b772e92ed388e50ab5c08"),
                True: (146, "6de1b74ca6e83625a591196299587b189b96602c745c2626152b88b75c0819d9"),
            },
            ["R3a_add site=[arrows=0,1,2,3] params=0"],
        ),
        "g2_split": (
            lambda: apply_move(G2, MoveInstance("R1split", vertices=("a",), moved=frozenset({(0, "s")}),
                                                flags=("old_new", "old"))),
            {
                False: (224, "beeb9bbdc080514211d9e3ebc61857e0a24d4ebf0d972e1c7a4f0b49bab50724"),
                True: (207, "c4bb2072bfaa4d6c0736bb2dd630ce969df4466a7d5859e349957e6e196f3870"),
            },
            ["R3a_add site=[arrows=1,4,0,3] params=3"],
        ),
        "trefoil": (
            lambda: TREFOIL,
            {
                False: (84, "33a474c7c657012c430bc15ab6c7a20949bb573598c522561bd64102a480c247"),
                True: (72, "99dd44cf5fad125499e74543073e36b249f344db44a79a2b71cb328ea9f5e4d3"),
            },
            [],
        ),
    }

    @pytest.mark.parametrize("ignore_flows", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_instances_pinned(self, name, ignore_flows):
        make, digests, r3 = self.CASES[name]
        c = _zeroed(make()) if ignore_flows else make()
        budget = SearchBudget(**BARE) if ignore_flows else SearchBudget(r3b_range=3)
        pool = enumerate_moves(c, budget) + inverse_instances(c, budget)
        text = "".join(m.format() + "\n" for m in pool)
        assert [m.format() for m in pool if m.kind.startswith("R3")] == r3
        assert (len(pool), hashlib.sha256(text.encode()).hexdigest()) == digests[ignore_flows]


def _inverse_instances_with_mirrors(c, budget):
    """``inverse_instances(c, budget)`` as it was before each inverse split
    was listed once per outcome: every subset of the slots at a split
    vertex, and both R2 forms and both flow orders of a parallel split."""

    def split_sets(g, v, keep=None):
        slots = [s for s in _incident_slots(g, v) if s != keep]
        if len(slots) <= budget.max_split_slots:
            for mask in range(1 << len(slots)):
                yield frozenset(s for k, s in enumerate(slots) if mask >> k & 1)

    flow_lo, flow_hi = budget.flow_lo, budget.flow_hi
    g = c.graph
    out = []
    for u in g.vertices:
        for labelv in g.vertices:
            for flag in ("target", "source"):
                out.append(MoveInstance("R0inv", vertices=(u, labelv), flags=(flag,)))
    for v in g.vertices:
        for j in range(flow_lo, flow_hi + 1):
            out.append(MoveInstance("R1loopadd", vertices=(v,), params=(j,)))
    for v in g.vertices:
        for moved in split_sets(g, v):
            for direction in ("old_new", "new_old"):
                for label_half in ("old", "new"):
                    out.append(MoveInstance("R1split", vertices=(v,), moved=moved, flags=(direction, label_half)))
    for ei, a in enumerate(g.arrows):
        flow = c.flows[ei]
        for i1 in range(flow_lo, flow_hi + 1):
            i2 = flow - i1
            if flow_lo <= i2 <= flow_hi:
                for _, kind, _ in _R2.values():
                    out.append(MoveInstance(kind, arrows=(ei,), params=(i1, i2), flags=("parallel",)))
        for merge_role, (_, kind, _) in _R2.items():
            for moved in split_sets(g, _slot(a, merge_role), keep=(ei, merge_role)):
                i2 = _r2_split_flow(c, moved, merge_role)
                i1 = flow - i2
                if flow_lo <= i1 <= flow_hi and flow_lo <= i2 <= flow_hi:
                    out.append(MoveInstance(kind, arrows=(ei,), params=(i1, i2), moved=moved, flags=("fresh",)))
    seen = set()
    names = g.vertices
    for wi, pos, sides, corners in _square_join(_index_form(g)[1], _JOIN_ORDER):
        src, tgt, role = _SIDES[pos]
        key = (pos, sides, Arrow(names[corners[src]], names[corners[tgt]], _slot(g.arrows[wi], role)))
        if key not in seen:
            seen.add(key)
            out.append(MoveInstance("R3a_add", arrows=(wi, *sides), params=(pos,)))
    return out


_FLIP = {"old_new": "new_old", "new_old": "old_new", "old": "new", "new": "old"}


def _mirror(c, m, slots):
    """The split that gives the same comte as ``m`` by the other route: the
    complementary slots with mirrored flags, or a parallel split as R2a_split
    with its flows in rising order.  ``slots`` maps each vertex of ``c`` to
    the set of its slots."""
    if m.kind == "R1split":
        (v,) = m.vertices
        return m._replace(moved=slots[v] - m.moved, flags=tuple(_FLIP[f] for f in m.flags))
    if m.flags == ("parallel",):
        return MoveInstance("R2a_split", arrows=m.arrows, params=tuple(sorted(m.params)), flags=m.flags)
    (ei,) = m.arrows
    merge_role = "t" if m.kind == "R2a_split" else "s"
    rest = slots[_slot(c.graph.arrows[ei], merge_role)] - m.moved - {(ei, merge_role)}
    return m._replace(moved=rest, params=m.params[::-1])


def _pendant_r0inv(c, m):
    """The R0inv instance that attaches the same pendant arrow as ``m``, when
    ``m`` is a split that moves no slot and labels the new arrow by an old
    vertex (an R1split with the label on the old half, or a fresh R2 split);
    else None."""
    if m.moved:
        return None
    if m.kind == "R1split" and m.flags[1] == "old":
        (v,) = m.vertices
        return MoveInstance("R0inv", vertices=(v, v), flags=("target" if m.flags[0] == "old_new" else "source",))
    if m.flags == ("fresh",):
        merge_role = "t" if m.kind == "R2a_split" else "s"
        a = c.graph.arrows[m.arrows[0]]
        shared = _R2[merge_role][2]
        return MoveInstance("R0inv", vertices=(_slot(a, shared), a.label),
                            flags=("target" if merge_role == "t" else "source",))
    return None


class TestEachSplitOncePerOutcome:
    """``inverse_instances`` against the list that held each split together
    with its mirror: the new list is an ordered subsequence of the old one,
    reaches the same children, keeps the first instance that reaches each
    child (so a search labels, keeps and traces the same states), and drops
    only instances whose kept mirror gives the same comte, and splits that
    move no slot (or are the mirror of one) whose comte an R0inv listed
    earlier gives."""

    BUDGETS = (
        ("default", SearchBudget()),
        ("wide", SearchBudget(flow_lo=-2, flow_hi=3, max_split_slots=7)),
        ("bare", SearchBudget(**BARE)),
    )

    def test_copy_is_the_list_with_mirrors(self):
        # the copy gives the complete lists that TestEnumerationGolden pinned
        # before each split was listed once per outcome
        before = {
            "square0_without_left": {
                False: (263, "35c97b57f986c12a0bb0a502eaf16c370b00f7ba8e6ac7b637f5e5db3cfa7d57"),
                True: (226, "3feedc41c097c4bcc31da64d15c70c784eeb7ab728060cc78dcee3fc64e0813c"),
            },
            "g2_split": {
                False: (452, "3f2c364146f1c828f5317dc6a7cfb455132f2eab4aac838009c240054e38e36c"),
                True: (412, "ee2f542cba522f62a3c7ab4416f89b5f8578016e35479ebe4eb78826245ccd09"),
            },
            "trefoil": {
                False: (174, "d5c8dceefb07117b8b422523c4d19d8ae10f87e392c1e59a455bddfd728f5787"),
                True: (147, "5caaf8bbffb969f51fd463aa305c19dd604047f9c51790899dbe4a9e9d0123e3"),
            },
        }
        for name, digests in before.items():
            for ignore_flows, digest in digests.items():
                c = TestEnumerationGolden.CASES[name][0]()
                c = _zeroed(c) if ignore_flows else c
                budget = SearchBudget(**BARE) if ignore_flows else SearchBudget(r3b_range=3)
                pool = enumerate_moves(c, budget) + _inverse_instances_with_mirrors(c, budget)
                text = "".join(m.format() + "\n" for m in pool)
                assert (len(pool), hashlib.sha256(text.encode()).hexdigest()) == digest, (name, ignore_flows)

    def test_against_the_list_with_mirrors(self, make_comte):
        dropped = set()
        for i in range(600):
            name, budget = self.BUDGETS[i % 3]
            c = make_comte(nmax=4, amax=6)
            if name == "bare":
                c = _zeroed(c)
            old = _inverse_instances_with_mirrors(c, budget)
            new = inverse_instances(c, budget)
            # each child is applied and labeled on index states, as the search does
            names = c.graph.vertices
            idx, arrs = _index_form(c.graph)
            children = (_apply_rule((len(names), arrs, c.flows), m, names, idx)[0] for m in old)
            keys = {
                m: _canonical_labeling(n, [(*a, f) for a, f in zip(arrows, flows)], b"c").key
                for m, (n, arrows, flows) in zip(old, children)
            }
            assert len(keys) == len(old)
            at = {m: i for i, m in enumerate(old)}  # the one position of each, as old has no repeats
            seq = [at.get(m, -1) for m in new]
            assert -1 not in seq and seq == sorted(set(seq)), (name, c)  # an ordered subsequence
            assert {keys[m] for m in new} == set(keys.values()), (name, c)
            first = {}
            for m in old:
                first.setdefault(keys[m], m)
            kept = set(new)
            assert kept >= set(first.values()), (name, c)
            slots = {v: frozenset(_incident_slots(c.graph, v)) for v in c.graph.vertices}
            for m in old:
                if m in kept:
                    continue
                mirror = _mirror(c, m, slots)
                if mirror in kept:
                    assert keys[mirror] == keys[m], (name, c, m)
                    dropped.add(("mirror", m.kind, m.flags[0]))
                    continue
                # a split that moves no slot, or the mirror of one
                r0inv = _pendant_r0inv(c, m) or _pendant_r0inv(c, mirror)
                assert r0inv in kept and keys[r0inv] == keys[m], (name, c, m)
                assert at[r0inv] < at[m], (name, c, m)
                dropped.add(("mirror of no slot" if m.moved else "no slot", m.kind, m.flags[0]))
        kinds = {("R1split", "old_new"), ("R1split", "new_old"), ("R2a_split", "fresh"), ("R2b_split", "fresh")}
        assert dropped == (
            {("mirror", kind, flag) for kind, flag in kinds | {("R2a_split", "parallel"), ("R2b_split", "parallel")}}
            | {(reason, kind, flag) for reason in ("no slot", "mirror of no slot") for kind, flag in kinds}
        )
