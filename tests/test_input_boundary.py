"""One sweep over the input boundary of the exported API.

Every exported function or constructor that takes a count, degree,
index, modulus or order is fed ``True``, ``1.0``, ``2.5``, ``"2"``,
``None`` and -1.  A non-integer (a ``bool`` included) raises a
``TypeError`` that names the argument.  -1 raises a ``ValueError`` that
names the bound where the argument has a lower bound of 0 or 1, the
range error of its entry where the bound depends on the other
arguments, and is accepted where it is a flow or a cyclic position.

Every exported function that takes a graph is fed one with an arrow to a
missing vertex and one with a repeated vertex name, built with
``SelfIndexedGraph`` directly, and raises a ``ValueError``; a routine
that takes a second graph is fed the bad one there too.  The
exceptions are the routines that only report, serialize or list the
names (``validate_graph``, ``encode``, ``classify`` and the two
presentations), which return their result.

``apply_move`` checks the arrow indices and the parameters of its
``MoveInstance`` the same way, ``state_sum`` the degrees of its ``Chain``
and ``Cochain`` and every chain coefficient, and ``Comte`` every flow; a
``Comte`` whose flow list is shorter or longer than its arrow list is a
``ValueError``.  ``graph`` and ``comte`` check each vertex and arrow they are given:
vertices that are not iterable or an unhashable vertex are a
``TypeError`` naming ``vertices`` or the entry; an arrow of the wrong
length is a ``ValueError``, and one that is not iterable or has an
unhashable end a ``TypeError``, each naming the arrow; an end that is not
a vertex is left to ``validate``.  ``quotient`` names an unhashable entry
of its pairs the same way.  ``FiniteRack``, the other value record that the library
builds itself, is not swept.

The move enumerators and the search take a ``SearchBudget`` and nothing
else as their budget: any other value is a ``TypeError`` that names it,
and ``None`` is the search's default budget alone.
"""

import dataclasses
import inspect
import re

import pytest

import comtes
from comtes.census import partial_injections
from comtes.coloring import cochain_from_cocycle2_on
from comtes.core import Arrow, SelfIndexedGraph, as_comte, graph
from comtes.homology import hom_tuples
from comtes.linalg import image_size_mod, integer_kernel_basis, kernel_mod
from comtes.moves import MoveError

G = graph("a b", [("a", "b", "a"), ("b", "a", "b")])
C = comtes.comte("a b", [("a", "b", "a", 1), ("b", "a", "b", 1)])
# a homomorphism Y_2 -> G, to carry a chain coefficient
H2 = comtes.flow_to_cycle(C).coeffs[0][0]
# positions 3 and 0 of its circle are two tails, so position -1 is valid
DIAGRAM = comtes.parse_gauss_code("O1+U2+U1+O2+")

# what -1 gives: a ValueError naming the lower bound, the range error of
# the entry (a ValueError, an IndexError for an arrow index), or a result
NON_NEGATIVE, POSITIVE, RANGE, INDEX, VALID = "non-negative", "positive", ValueError, IndexError, None

# (exported name, call with the value, name in the message, what -1 gives)
INTEGER_ARGUMENTS = [
    ("comte", lambda x: comtes.comte("a", [("a", "a", "a", x)]), "arrows[0].flow", VALID),
    ("Comte", lambda x: comtes.Comte(graph("a", [("a", "a", "a")]), (x,)), "arrows[0].flow", VALID),
    ("contract", lambda x: comtes.contract(G, [x]), "arrow index", INDEX),
    *[
        ("SearchBudget", lambda x, f=f.name: comtes.SearchBudget(**{f: x}), f.name,
         VALID if f.name in ("flow_lo", "flow_hi") else NON_NEGATIVE)
        for f in dataclasses.fields(comtes.SearchBudget)
    ],
    ("SemiVirtualGraph", lambda x: comtes.SemiVirtualGraph(G, frozenset({x})), "semi-virtual arrow index", RANGE),
    ("is_degree_at_most", lambda x: comtes.is_degree_at_most({}, x, []), "semi-virtual arrow count", NON_NEGATIVE),
    ("AbelianGroup", lambda x: comtes.AbelianGroup((3, x)), "cyclic order", POSITIVE),
    ("trivial_quandle", lambda x: comtes.trivial_quandle(x), "element count", NON_NEGATIVE),
    ("dihedral_quandle", lambda x: comtes.dihedral_quandle(x), "element count", POSITIVE),
    ("kernel_mod", lambda x: kernel_mod([{0: 2}], 1, x), "modulus", POSITIVE),
    ("kernel_mod", lambda x: kernel_mod([{0: 2}], x, 4), "ncols", NON_NEGATIVE),
    ("integer_kernel_basis", lambda x: integer_kernel_basis([{0: 2}], x), "ncols", NON_NEGATIVE),
    ("image_size_mod", lambda x: image_size_mod([{0: 2}], x), "modulus", POSITIVE),
    ("homology_range", lambda x: comtes.homology_range(G, x), "max_degree", NON_NEGATIVE),
    ("homology", lambda x: comtes.homology(G, x), "max_degree", NON_NEGATIVE),
    ("hom_tuples", lambda x: hom_tuples(x, G), "degree", NON_NEGATIVE),
    ("chain_basis", lambda x: comtes.chain_basis(x, G), "degree", NON_NEGATIVE),
    ("boundary_matrix", lambda x: comtes.boundary_matrix(x, G), "degree", NON_NEGATIVE),
    ("enumerate_homs", lambda x: comtes.enumerate_homs(x, G), "cube degree", NON_NEGATIVE),
    ("build_Yn", lambda x: comtes.build_Yn(x), "cube degree", NON_NEGATIVE),
    ("face_map", lambda x: comtes.face_map(x, 1, 1), "cube degree", RANGE),
    ("face_map", lambda x: comtes.face_map(2, x, 1), "face index", RANGE),
    ("face_map", lambda x: comtes.face_map(2, 1, x), "face side", RANGE),
    ("state_sum", lambda x: comtes.state_sum(G, comtes.Chain(x, ()), G, comtes.Cochain(2, {}), comtes.C2),
     "chain degree", NON_NEGATIVE),
    ("state_sum", lambda x: comtes.state_sum(G, comtes.Chain(2, ()), G, comtes.Cochain(x, {}), comtes.C2),
     "cochain degree", NON_NEGATIVE),
    ("state_sum", lambda x: comtes.state_sum(G, comtes.Chain(2, ((H2, x),)), G, comtes.Cochain(2, {}), comtes.C2),
     "chain coefficient", VALID),
    ("partial_injections", lambda x: partial_injections(x), "vertex count", NON_NEGATIVE),
    ("enumerate_r_graphs", lambda x: comtes.enumerate_r_graphs(x), "vertex count", NON_NEGATIVE),
    ("enumerate_q_graphs", lambda x: comtes.enumerate_q_graphs(x), "vertex count", NON_NEGATIVE),
    ("signature_census", lambda x: comtes.signature_census([], x), "max_degree", NON_NEGATIVE),
    ("signature_census", lambda x: comtes.signature_census([], 1, x), "jobs", POSITIVE),
    ("alexander_polynomial", lambda x: comtes.alexander_polynomial(G, x), "index", NON_NEGATIVE),
    ("swap_arrowtails", lambda x: comtes.swap_arrowtails(DIAGRAM, x, 0), "circle", RANGE),
    ("swap_arrowtails", lambda x: comtes.swap_arrowtails(DIAGRAM, 0, x), "position", VALID),
    # arrow -1 is not present, a stale site
    ("apply_move", lambda x: comtes.apply_move(C, comtes.MoveInstance("R1contract", arrows=(x,))), "arrow index", MoveError),
    ("apply_move", lambda x: comtes.apply_move(C, comtes.MoveInstance(
        "R1split", vertices=("a",), moved=frozenset({(0, "s"), (x, "t")}), flags=("old_new", "new"))), "arrow index", MoveError),
    ("apply_move", lambda x: comtes.apply_move(C, comtes.MoveInstance("R1loopadd", vertices=("a",), params=(x,))),
     "move parameter", VALID),
    ("apply_move", lambda x: comtes.apply_move(C, comtes.MoveInstance("R2a_split", arrows=(0,), params=(2, x),
                                                                      flags=("parallel",))), "move parameter", VALID),
]
INTEGER_IDS = [f"{name}-{what}" for name, _, what, _ in INTEGER_ARGUMENTS]


@pytest.mark.parametrize("value", [True, 1.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("name, call, what, below", INTEGER_ARGUMENTS, ids=INTEGER_IDS)
def test_non_integer_is_a_type_error(name, call, what, below, value):
    with pytest.raises(TypeError, match=f"^{re.escape(what)} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name, call, what, below", INTEGER_ARGUMENTS, ids=INTEGER_IDS)
def test_minus_one(name, call, what, below):
    if below is VALID:
        call(-1)
    elif isinstance(below, str):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} must be {below}, got -1$"):
            call(-1)
    else:
        with pytest.raises(below):
            call(-1)


def test_true_is_not_read_as_one():
    # each of these used to answer as if given 1
    g = graph("a", [("a", "a", "a")])
    for call in (
        lambda: comtes.face_map(2, True, 1),
        lambda: comtes.contract(g, [True]),
        lambda: comtes.homology_range(g, True),
        lambda: comtes.enumerate_r_graphs(True),
        lambda: comtes.apply_move(C, comtes.MoveInstance("R1contract", arrows=(True,))),
    ):
        with pytest.raises(TypeError, match="must be an integer, got True"):
            call()


DANGLING = graph("a", [("a", "b", "a")])
DUPLICATE = SelfIndexedGraph(("a", "a"), ())

# (exported name, call with the graph)
GRAPH_ARGUMENTS = [
    ("canonical_key", comtes.canonical_key),
    ("canonical_form", comtes.canonical_form),
    ("components", comtes.components),
    ("contract", lambda g: comtes.contract(g, [])),
    ("quotient", lambda g: comtes.quotient(g, [])),
    ("abelianization_rank", comtes.abelianization_rank),
    ("alexander_polynomial", lambda g: comtes.alexander_polynomial(g, 0)),
    ("alexander_polynomial", lambda g: comtes.alexander_polynomial(g, 5)),  # Delta_5 = 1 by convention
    ("relation_matrix", comtes.relation_matrix),
    ("multivariable_relation_matrix", comtes.multivariable_relation_matrix),
    ("colorings", lambda g: comtes.colorings(g, comtes.dihedral_quandle(3))),
    ("graph_homomorphisms", lambda g: comtes.graph_homomorphisms(g, G)),
    ("state_sum", lambda g: comtes.state_sum(g, comtes.Chain(2, ()), G, comtes.Cochain(2, {}), comtes.C2)),
    ("phi_invariant", lambda g: comtes.phi_invariant(as_comte(g), comtes.tetrahedron_quandle(), comtes.tetrahedron_cocycle())),
    ("linking_matrix", lambda g: comtes.linking_matrix(as_comte(g))),
    ("equivalent_bounded", lambda g: comtes.equivalent_bounded(as_comte(g), as_comte(G))),
    ("homology_range", lambda g: comtes.homology_range(g, 1)),
    ("homology", lambda g: comtes.homology(g, 0)),
    ("chain_basis", lambda g: comtes.chain_basis(0, g)),
    ("boundary_matrix", lambda g: comtes.boundary_matrix(0, g)),
    ("enumerate_homs", lambda g: comtes.enumerate_homs(0, g)),
    ("q2_cocycles", lambda g: comtes.q2_cocycles(g, comtes.C2)),
    ("bracket", lambda g: comtes.bracket(comtes.SemiVirtualGraph(g, frozenset()))),
    ("signature_census", lambda g: comtes.signature_census([g], 1)),
    ("enumerate_moves", lambda g: comtes.enumerate_moves(as_comte(g))),
    ("inverse_instances", lambda g: comtes.inverse_instances(as_comte(g))),
    ("apply_move", lambda g: comtes.apply_move(as_comte(g), comtes.MoveInstance("R0inv", vertices=("a", "a"), flags=("target",)))),
    ("flow_to_cycle", lambda g: comtes.flow_to_cycle(as_comte(g))),
]
# the graph as the second argument: these used to take a dangling target
# as it came, and to list each homomorphism into a repeated name twice
# (a loop into ("a", "a") with the loop a -> a labeled a gave two equal
# entries, and state_sum {(0,): 2})
TARGET_ARGUMENTS = [
    ("graph_homomorphisms", lambda g: comtes.graph_homomorphisms(G, g)),
    ("state_sum", lambda g: comtes.state_sum(G, comtes.Chain(2, ()), g, comtes.Cochain(2, {}), comtes.C2)),
]
GRAPH_IDS = [n for n, _ in GRAPH_ARGUMENTS] + [f"{n}-target" for n, _ in TARGET_ARGUMENTS]
# routines that report, serialize or list the names and return a result
NAME_READERS = ["validate_graph", "encode", "classify", "group_presentation", "quandle_presentation"]


@pytest.mark.parametrize("name, call", GRAPH_ARGUMENTS + TARGET_ARGUMENTS, ids=GRAPH_IDS)
def test_dangling_arrow_is_a_value_error(name, call):
    with pytest.raises(ValueError, match=r"^arrow 0: target 'b' is not a vertex$"):
        call(DANGLING)


@pytest.mark.parametrize("name, call", GRAPH_ARGUMENTS + TARGET_ARGUMENTS, ids=GRAPH_IDS)
def test_duplicate_vertex_is_a_value_error(name, call):
    with pytest.raises(ValueError, match="^'vertices' contains a duplicate$"):
        call(DUPLICATE)


@pytest.mark.parametrize("name, call", GRAPH_ARGUMENTS + TARGET_ARGUMENTS, ids=GRAPH_IDS)
def test_both_faults_are_worded_by_the_validator(name, call):
    both = SelfIndexedGraph(("a", "a"), (Arrow("a", "b", "a"),))
    with pytest.raises(ValueError, match="^'vertices' contains a duplicate\narrow 0: target 'b' is not a vertex$"):
        call(both)


@pytest.mark.parametrize("name", NAME_READERS)
def test_name_readers_return(name):
    for g in (DANGLING, DUPLICATE):
        getattr(comtes, name)(g)
    assert comtes.validate_graph(DANGLING).dangling == ((0, "target", "b"),)


def test_a_repeated_name_does_not_validate():
    # both reports used to be ok, although every reader rejects the graph
    g = SelfIndexedGraph(("a", "b", "a"), (Arrow("a", "b", "a"),))
    for report in (comtes.validate_graph(g), comtes.validate(as_comte(g))):
        assert not report.ok
        assert report.describe() == "'vertices' contains a duplicate"
    # a conservation fault at the repeated name is reported once
    report = comtes.validate(comtes.Comte(g, (1,)))
    assert report.describe().splitlines()[1:] == ["vertex 'a': outgoing 1 != incoming 0", "vertex 'b': outgoing 0 != incoming 1"]


def test_a_float_flow_is_not_added():
    # R1loopadd used to give the new loop the flow 1.5
    with pytest.raises(TypeError, match=r"^move parameter must be an integer, got 1\.5$"):
        comtes.apply_move(C, comtes.MoveInstance("R1loopadd", vertices=("a",), params=(1.5,)))


def test_a_float_coefficient_is_not_summed():
    # the trefoil's cycle with coefficient 1.5 used to give
    # {(0.0,): 4, (1.5,): 9, (0.5,): 3} against the tetrahedral cocycle
    tre = comtes.comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
    chain = comtes.Chain(2, tuple((h, 1.5) for h, _ in comtes.flow_to_cycle(tre).coeffs))
    s4, f = comtes.tetrahedron_quandle(), comtes.tetrahedron_cocycle()
    cochain = cochain_from_cocycle2_on(s4, f)
    with pytest.raises(TypeError, match=r"^chain coefficient must be an integer, got 1\.5$"):
        comtes.state_sum(tre.graph, chain, comtes.graph_of_rack(s4), cochain, f.group)


# these used to raise "not enough values to unpack" or "too many values to
# unpack", naming neither the arrow nor its shape
@pytest.mark.parametrize("build, arrow, shape", [
    (graph, ("a", "a"), "(source, target, label)"),
    (graph, ("a", "a", "a", 0), "(source, target, label)"),
    (comtes.comte, ("a", "a", "a"), "(source, target, label, flow)"),
    (comtes.comte, ("a", "a", "a", 0, 0), "(source, target, label, flow)"),
], ids=["graph-short", "graph-long", "comte-short", "comte-long"])
def test_an_arrow_of_the_wrong_length_is_a_value_error(build, arrow, shape):
    with pytest.raises(ValueError, match=f"^arrows\\[1\\] must be a {re.escape(shape)} tuple, got {re.escape(repr(arrow))}$"):
        build("a", [("a", "a", "a", 0)[: len(shape.split(","))], arrow])


@pytest.mark.parametrize("build, shape", [(graph, "(source, target, label)"), (comtes.comte, "(source, target, label, flow)")],
                         ids=["graph", "comte"])
def test_an_arrow_that_is_not_iterable_is_a_type_error(build, shape):
    # this used to raise "'int' object is not iterable"
    with pytest.raises(TypeError, match=f"^arrows\\[0\\] must be a {re.escape(shape)} tuple, got 5$"):
        build("a", [5])


# these used to build a graph or comte with a list as an end
@pytest.mark.parametrize("build", [graph, lambda vs, arrows: comtes.comte(vs, [(*a, 0) for a in arrows])],
                         ids=["graph", "comte"])
@pytest.mark.parametrize("position, field", enumerate(["source", "target", "label"]))
def test_an_unhashable_end_is_a_type_error(build, position, field):
    arrow = ["a", "a", "a"]
    arrow[position] = ["x"]
    with pytest.raises(TypeError, match=f"^arrows\\[0\\]\\.{field} must be hashable, got \\['x'\\]$"):
        build("a", [arrow])


# these used to raise "unhashable type: 'list'", naming neither the
# argument nor the entry
@pytest.mark.parametrize("build", [graph, comtes.comte], ids=["graph", "comte"])
def test_an_unhashable_vertex_is_a_type_error(build):
    with pytest.raises(TypeError, match="^vertices\\[1\\] must be hashable, got \\['b'\\]$"):
        build(["a", ["b"]], [])


# these used to raise "'NoneType' object is not iterable" and "'int'
# object is not iterable", without naming vertices
@pytest.mark.parametrize("build", [graph, comtes.comte], ids=["graph", "comte"])
@pytest.mark.parametrize("vertices", [None, 5], ids=repr)
def test_vertices_that_are_not_iterable_are_a_type_error(build, vertices):
    with pytest.raises(TypeError, match=f"^vertices must be a string or an iterable of names, got {vertices!r}$"):
        build(vertices)


def test_a_dangling_name_is_built_and_reported():
    g = graph("a", [("a", "b", ("c", 1))])
    assert comtes.validate_graph(g).dangling == ((0, "target", "b"), (0, "label", ("c", 1)))


@pytest.mark.parametrize("flows", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_a_flow_list_of_the_wrong_length_is_refused(flows):
    # one flow on the Hopf link's two arrows used to give the linking
    # matrix {(0, 1): 0, (1, 0): -1}, and four on the trefoil's three an
    # IndexError from phi_invariant
    with pytest.raises(ValueError, match="^flow list length does not match arrow count$"):
        comtes.Comte(C.graph, flows)


# what a budget that is not a SearchBudget used to give: 0 ran the
# search's default budget, a dict an empty trace from the search of a
# comte to itself and a list from enumerate_moves, which reads the budget
# only at an R3 square, and inverse_instances an AttributeError
BUDGET_ARGUMENTS = [
    ("equivalent_bounded", lambda b: comtes.equivalent_bounded(C, C, b)),
    ("equivalent_bounded", lambda b: comtes.equivalent_bounded(C, comtes.comte("a", []), b)),
    ("enumerate_moves", lambda b: comtes.enumerate_moves(C, b)),
    ("inverse_instances", lambda b: comtes.inverse_instances(C, b)),
]


@pytest.mark.parametrize("value", [0, 5000, {"max_states": 5}, (5000,)], ids=repr)
@pytest.mark.parametrize("name, call", BUDGET_ARGUMENTS,
                         ids=["equivalent_bounded-same-ends", "equivalent_bounded", "enumerate_moves", "inverse_instances"])
def test_a_budget_that_is_not_a_search_budget_is_a_type_error(name, call, value):
    with pytest.raises(TypeError, match=f"^budget must be a SearchBudget, got {re.escape(repr(value))}$"):
        call(value)


def test_none_is_the_default_budget_of_the_search_alone():
    assert comtes.equivalent_bounded(C, C, None) == comtes.MoveTrace(())
    for enumerator in (comtes.enumerate_moves, comtes.inverse_instances):
        with pytest.raises(TypeError, match="^budget must be a SearchBudget, got None$"):
            enumerator(C, None)


def test_quotient_names_a_missing_pair_vertex():
    with pytest.raises(ValueError, match="^'c' is not a vertex$"):
        comtes.quotient(G, [("a", "c")])


@pytest.mark.parametrize("pair, position", [((["a"], "b"), 0), (("a", ["b"]), 1)], ids=["first", "second"])
def test_quotient_names_an_unhashable_pair_entry(pair, position):
    # this used to raise "unhashable type: 'list'", naming neither the
    # argument nor the entry
    with pytest.raises(TypeError, match=f"^pairs\\[1\\]\\[{position}\\] must be hashable, got {re.escape(repr(pair[position]))}$"):
        comtes.quotient(G, [("a", "b"), pair])


@pytest.mark.parametrize("pair", ["xy", ("x", "y", "xy"), ("x",), ()], ids=repr)
def test_quotient_rejects_what_is_not_a_pair(pair):
    # a two-character string would unpack as a pair and merge x and y
    with pytest.raises(ValueError, match=f"^{re.escape(repr(pair))} is not a pair of vertices$"):
        comtes.quotient(graph("xy x y", []), [pair])


def _exported_functions_taking(annotation):
    for name, obj in vars(comtes).items():
        if inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None)):
            if any(annotation in str(p.annotation) for p in inspect.signature(obj).parameters.values()):
                yield name


def test_sweeps_cover_every_exported_function():
    assert set(_exported_functions_taking("int")) <= {name for name, *_ in INTEGER_ARGUMENTS}
    assert set(_exported_functions_taking("SelfIndexedGraph")) <= {name for name, _ in GRAPH_ARGUMENTS} | set(NAME_READERS)

