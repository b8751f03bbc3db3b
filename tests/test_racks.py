import random
import re

import pytest

from comtes.core import classify, graph_from_injections
from comtes.racks import (
    BUILTIN_RACKS,
    AbelianGroup,
    C2,
    Cocycle2,
    FiniteRack,
    RackCheck,
    builtin_rack,
    check_cocycle,
    check_rack,
    dihedral_quandle,
    epsilon,
    format_group_ring,
    graph_of_rack,
    parse_cocycle,
    parse_rack_table,
    tetrahedron_cocycle,
    tetrahedron_quandle,
    trivial_quandle,
)
from reference import format_cocycle, format_rack_table, group_ring_text


class TestCheckRack:
    def test_tetrahedron_is_quandle(self):
        assert check_rack(tetrahedron_quandle().table).kind == "quandle"

    def test_trivial_is_quandle(self):
        assert check_rack([[y for y in range(3)] for _ in range(3)]).kind == "quandle"

    def test_non_bijective_row_witness(self):
        chk = check_rack([[0, 0], [0, 1]])
        assert chk.kind == "not_rack" and "row 0" in chk.witness

    def test_self_distributivity_witness(self):
        # bijective rows but not self-distributive
        table = [[0, 1, 2], [2, 1, 0], [0, 2, 1]]
        chk = check_rack(table)
        assert chk.kind == "not_rack" and "self-distributivity" in chk.witness

    def test_cyclic_rack_not_quandle(self):
        table = [[(y + 1) % 3 for y in range(3)] for _ in range(3)]
        assert check_rack(table).kind == "rack"
        assert not FiniteRack.from_table(table).quandle


    def test_row_length_witness(self):
        chk = check_rack([[0, 1], [1]])
        assert chk == RackCheck("not_rack", "row 1 has length 1, expected 2")

    def test_out_of_range_witness(self):
        assert check_rack([[0, 2], [0, 1]]) == RackCheck("not_rack", "row 0 contains an out-of-range value")
        assert check_rack([[-1, 0], [0, 1]]) == RackCheck("not_rack", "row 0 contains an out-of-range value")

    def test_from_table_rejects_what_is_not_a_rack(self):
        with pytest.raises(ValueError, match=r"^not a rack: row 0 \(the map 0 \|> \?\) is not a bijection$"):
            FiniteRack.from_table([[0, 0], [0, 1]])

    @pytest.mark.parametrize("entry", [False, True, 0.5, "0", None])
    def test_entry_that_is_not_an_integer(self, entry):
        # a bool used to pass as 0 or 1, and the rest failed inside
        for table in ([[entry]], [[0, 1], [1, entry]]):
            at = "(0, 0)" if len(table) == 1 else "(1, 1)"
            with pytest.raises(TypeError, match=re.escape(f"rack table entry {at} must be an integer, got {entry!r}")):
                FiniteRack.from_table(table)
            with pytest.raises(TypeError, match="must be an integer"):
                check_rack(table)


class TestTetrahedron:
    def test_rows_are_rotations_fixing_the_element(self):
        x = tetrahedron_quandle()
        for i in range(4):
            assert x.op(i, i) == i
            others = [j for j in range(4) if j != i]
            # the action on the other three elements is a 3-cycle
            orbit = {others[0]}
            cur = others[0]
            for _ in range(3):
                cur = x.op(i, cur)
                orbit.add(cur)
            assert cur == others[0] and len(orbit) == 3

    def test_table_is_pinned(self):
        assert tetrahedron_quandle().table == ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3))

    def test_cocycle_is_a_cocycle(self):
        x = tetrahedron_quandle()
        f = tetrahedron_cocycle()
        assert check_cocycle(x, f) is None

    def test_larger_cocycle_than_rack_is_an_error(self):
        with pytest.raises(ValueError, match="cocycle size 4 does not match the rack size 3"):
            check_cocycle(dihedral_quandle(3), tetrahedron_cocycle())

    def test_smaller_cocycle_than_rack_is_an_error(self):
        with pytest.raises(ValueError, match="cocycle size 3 does not match the rack size 4"):
            check_cocycle(tetrahedron_quandle(), Cocycle2(C2, ((C2.identity,) * 3,) * 3))

    def test_cocycle_values(self):
        f = tetrahedron_cocycle()
        for i in range(4):
            assert f.value(i, i) == (0,)
            assert f.value(0, i) == (0,)
            assert f.value(i, 0) == (0,)
        assert f.value(1, 2) == (1,)

    def test_broken_cocycle_witnessed(self):
        x = tetrahedron_quandle()
        vals = [list(row) for row in tetrahedron_cocycle().values]
        vals[1][2] = (0,)
        bad = Cocycle2(C2, tuple(tuple(r) for r in vals))
        assert check_cocycle(x, bad) is not None

    def test_cocycle_off_the_identity_on_the_diagonal_witnessed(self):
        # a constant f = s meets the cocycle condition (s + s on each
        # side), so only the identity check catches it
        f = Cocycle2(C2, (((1,),) * 4,) * 4)
        assert check_cocycle(tetrahedron_quandle(), f) == "f(0,0) is not the identity"

    def test_ragged_cocycle_witnessed(self):
        # a ragged table used to raise a bare IndexError; its witness is
        # worded as check_rack words a ragged rack table
        x = tetrahedron_quandle()
        assert check_cocycle(x, Cocycle2(C2, (((0,),),) * 4)) == "row 0 has length 1, expected 4"
        rows = list(tetrahedron_cocycle().values)
        rows[2] += ((0,),)
        assert check_cocycle(x, Cocycle2(C2, tuple(rows))) == "row 2 has length 5, expected 4"


class TestGraphOfRack:
    def test_tetrahedron_counts(self):
        g = graph_of_rack(tetrahedron_quandle())
        assert len(g.vertices) == 4 and len(g.arrows) == 16
        assert classify(g) == "q"

    def test_trivial_two_elements(self):
        g = graph_of_rack(trivial_quandle(2))
        assert {(a.source, a.target, a.label) for a in g.arrows} == {
            ("0", "0", "0"), ("0", "0", "1"), ("1", "1", "0"), ("1", "1", "1")
        }

    def test_non_quandle_rack_gives_r_graph(self):
        table = [[(y + 1) % 3 for y in range(3)] for _ in range(3)]
        g = graph_of_rack(FiniteRack.from_table(table))
        assert classify(g) == "r"

    def test_is_the_graph_of_the_table_as_injections(self):
        racks = [builtin_rack(name) for name in BUILTIN_RACKS]
        for x in racks + [dihedral_quandle(5), dihedral_quandle(7), trivial_quandle(4)]:
            g = graph_of_rack(x)
            assert g == graph_from_injections(x.table)
            assert [(a.label, a.source) for a in g.arrows] == [(str(a), str(b)) for a in range(x.n) for b in range(x.n)]


class TestAbelianGroup:
    def test_ops(self):
        g = AbelianGroup((2, 3))
        assert g.identity == (0, 0)
        assert g.add((1, 2), (1, 2)) == (0, 1)
        assert g.neg((1, 1)) == (1, 2)
        assert g.scale((1, 1), 4) == (0, 1)
        assert g.order() == 6

    def test_bad_order(self):
        with pytest.raises(ValueError):
            AbelianGroup((0,))

    @pytest.mark.parametrize("order", [2.0, True, "2", None])
    def test_non_integer_order(self, order):
        with pytest.raises(TypeError, match=f"^cyclic order must be an integer, got {re.escape(repr(order))}$"):
            AbelianGroup((3, order))

    @pytest.mark.parametrize(
        "op",
        [
            lambda g: g.add((1, 2), (1,)),
            lambda g: g.add((1,), (1, 2)),
            lambda g: g.add((1, 2, 0), (1, 2)),
            lambda g: g.neg((1,)),
            lambda g: g.scale((1, 1, 1), 2),
        ],
        ids=["add-second-shorter", "add-first-shorter", "add-first-longer", "neg", "scale"],
    )
    def test_residue_tuple_of_another_length_rejected(self, op):
        with pytest.raises(ValueError, match=r"^residue tuple \(.*\) does not have 2 entries$"):
            op(AbelianGroup((2, 3)))

    @pytest.mark.parametrize("k", [1.5, True, "2", None])
    def test_non_integer_scale_factor(self, k):
        with pytest.raises(TypeError, match=f"^scale factor must be an integer, got {re.escape(repr(k))}$"):
            AbelianGroup((2, 3)).scale((1, 1), k)


class TestConstructors:
    @pytest.mark.parametrize("n", [0, -3])
    def test_dihedral_needs_an_element(self, n):
        with pytest.raises(ValueError, match=f"^element count must be positive, got {n}$"):
            dihedral_quandle(n)

    def test_trivial_needs_a_size(self):
        with pytest.raises(ValueError, match="^element count must be non-negative, got -1$"):
            trivial_quandle(-1)
        assert trivial_quandle(0).n == 0 == parse_rack_table("0").n
        assert dihedral_quandle(1).n == 1


class TestGroupRing:
    def test_epsilon(self):
        assert epsilon({(0,): 4, (1,): 12}) == 16

    def test_format(self):
        assert format_group_ring({(0,): 4, (1,): 12}, C2) == "4 + 12*s"
        assert format_group_ring({}, C2) == "0"
        assert format_group_ring({(1,): -1}, C2) == "-s"
        g = AbelianGroup((2, 2))
        assert format_group_ring({(1, 1): 2}, g) == "2*s1*s2"

    def test_zero_multiplicity_is_no_term(self):
        assert format_group_ring({(0,): 0}, C2) == "0"
        assert format_group_ring({(1,): 0, (0,): 3}, C2) == "3"

    @pytest.mark.parametrize("key, group", [((0, 1), C2), ((1,), AbelianGroup((2, 2)))], ids=["longer", "shorter"])
    def test_key_with_another_length_than_the_group_rejected(self, key, group):
        with pytest.raises(ValueError):
            format_group_ring({key: 1}, group)

    def test_writer_matches_the_replaced_one_on_seeded_elements(self):
        # the same bytes as the writer that laurent._monomial_sum replaced
        # (tests/reference.py), on nonzero multiplicities over 1 to 3 factors
        rng = random.Random(37)
        for _ in range(5000):
            group = AbelianGroup(tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))))
            r = {
                tuple(rng.randrange(m) for m in group.orders): rng.choice((-1, 1, rng.randrange(2, 20) * rng.choice((-1, 1))))
                for _ in range(rng.randrange(0, 5))
            }
            assert format_group_ring(r, group) == group_ring_text(r, group)


class TestTextFormats:
    def test_rack_table_round_trip(self):
        for x in (tetrahedron_quandle(), dihedral_quandle(3), trivial_quandle(2)):
            assert parse_rack_table(format_rack_table(x)) == x
        with pytest.raises(ValueError):
            parse_rack_table("2\n0 1\n")

    @pytest.mark.parametrize("text", ["", " \n\t"])
    def test_rack_table_empty_text_rejected(self, text):
        with pytest.raises(ValueError, match="^empty rack table$"):
            parse_rack_table(text)

    def test_rack_table_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            parse_rack_table("-1 0")

    def test_cocycle_round_trip(self):
        f = tetrahedron_cocycle()
        assert parse_cocycle(format_cocycle(f), 4) == f
        with pytest.raises(ValueError):
            parse_cocycle("1 2 -> 1", 4)

    @pytest.mark.parametrize(
        "orders, line", [("2", "0 1 -> 1,1"), ("2,2", "0 1 -> 1"), ("2", "-1 0 -> 1"), ("2", "0 -2 -> 1")]
    )
    def test_cocycle_bad_lines_rejected(self, orders, line):
        # extra or missing residues and negative indices are errors, not dropped
        with pytest.raises(ValueError, match="line"):
            parse_cocycle(f"A: {orders}\n{line}\n", 2)

    @pytest.mark.parametrize("line", ["0 1 ->", "0 1 2 -> 1", "0 1 1", "0 -> 1", "x 1 -> 1"])
    def test_cocycle_malformed_line_is_quoted(self, line):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            parse_cocycle(f"A: 2\n{line}\n", 2)

    def test_cocycle_index_bound(self):
        # the bound is checked line by line, before a table is built, so a
        # huge index costs no more than a small one
        line = "0 1000000000 -> 1"
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            parse_cocycle(f"A: 2\n1 2 -> 1\n{line}\n", 4)
        with pytest.raises(ValueError, match="out of range"):
            parse_cocycle("A: 2\n4 0 -> 1\n", 4)
        f = tetrahedron_cocycle()
        assert parse_cocycle(format_cocycle(f), 4) == f
        # the element count is the one given, not the largest index plus one
        assert parse_cocycle("A: 2\n0 2 -> 1\n", 4).n == 4
        assert parse_cocycle("A: 2\n", 4).n == 4

    @pytest.mark.parametrize("header", ["A: x", "A:", "A: 2,"])
    def test_cocycle_malformed_header_is_quoted(self, header):
        with pytest.raises(ValueError, match=re.escape(repr(header))):
            parse_cocycle(f"{header}\n0 1 -> 1\n", 2)

    def test_builtins(self):
        assert builtin_rack("trivial2").n == 2
        assert builtin_rack("dihedral3").quandle
        assert builtin_rack("tetrahedron").n == 4
        catalogue = [trivial_quandle(1), trivial_quandle(2), trivial_quandle(3), dihedral_quandle(3), tetrahedron_quandle()]
        assert [builtin_rack(name) for name in BUILTIN_RACKS] == catalogue
        for name in ("nope", "trivial-1", "trivial0", "trivial12", "trivialx"):
            with pytest.raises(ValueError, match="unknown builtin rack"):
                builtin_rack(name)

    def test_constant_cocycle(self):
        f = Cocycle2(C2, ((C2.identity,) * 3,) * 3)
        assert check_cocycle(dihedral_quandle(3), f) is None
