"""The three workloads: their seeded inputs, their operations, and the
checks of every answer against ``oracles`` or a published value.

An operation is ``Op(group, name, fn, deadline, args)``; ``fn(results)`` calls
the public API of comtes and may read the results of earlier operations of
the same pass.  An operation with a deadline instead runs ``fn(*args)`` in a
child process (see ``common.run_isolated``).  ``group`` names the query
metric the operation's time is added to.  Each workload runs single-threaded
(``jobs=1``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import oracles
from common import relabel

# The worked trio of the paper: G2 (trefoil plus a zero-flow chord) and G3,
# which differ in H_3 of their q-closures yet are related by five moves.
G2_ARROWS = [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1), ("a", "c", "b", 0)]
G3_ARROWS = [("a", "b", "c", 1), ("b", "a", "c", 1), ("c", "a", "b", 0), ("a", "c", "b", 0)]
# Size budget of the G2 -> G3 search: the five-move trace exists inside it.
G2G3_BUDGET = dict(max_states=400000, max_vertices=4, max_arrows=6, r3b_range=1, flow_lo=0, flow_hi=1, max_split_slots=6)
# Gauss codes related by one oriented Reidemeister move (R1, R2, R3).
REIDEMEISTER_PAIRS = (
    ("r1", "O1+U2+O3+U1+O2+U3+O4+U4+", "O1+U2+O3+U1+O2+U3+"),
    ("r2", "O1+O4+O5-U2+O3+U1+U4+U5-O2+U3+", "O1+U2+O3+U1+O2+U3+"),
    ("r3", "O1+O2+U2+U3+/U1+O3+", "O2+O3+U1+U2+/O1+U3+"),
)
TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "U4-O2+U3+O4-U1-O3+U2+O1-"
# States allowed to the trefoil -> figure-eight search, which never finds a
# trace (they are inequivalent), so it always spends the whole budget.
EXHAUST_STATES = 10000

# The three-vertex q-graph whose Betti numbers grow quadratically.
WORKED_QGRAPH = [
    ("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"), ("b", "b", "a"),
    ("c", "c", "a"), ("a", "c", "b"), ("c", "a", "b"), ("a", "b", "c"),
]
WORKED_HOMOLOGY = [(1, ()), (2, ()), (4, ()), (7, ()), (11, ())]

LADDER = (3, 5, 7, 9, 11, 13, 15)   # T(2,n): Delta_1, R_3/R_5 colourings, state sum
CANONICAL_KNOTS = (3, 5, 7, 9)      # T(2,n) canonical forms, original and one copy
ISOLATED = (6, 8)                   # k isolated vertices, original and one copy
CONNECTED_SUMS = (3, 5)             # Delta_2 of T(2,n) # T(2,n)
DEADLINE_S = 1.0
# rack name -> (degree of plain homology, degree of q-quotient homology)
RACK_HOMOLOGY = {"R3": (5, 5), "R5": (3, 4), "S4": (4, 5)}
# Published torsion of quandle homology H^Q_n (degree -> invariant factors):
# R_3 and S_4 from Carter-Jelsovsky-Kamada-Saito (JPAA 157, 2001), R_5 from
# Mochizuki (JPAA 179, 2003).
QUANDLE_TORSION = {"R3": {2: (), 3: (3,)}, "R5": {3: (5,)}, "S4": {2: (2,), 3: (2, 4)}}


class Op(NamedTuple):
    group: str
    name: str
    fn: Callable
    deadline: float | None = None
    args: tuple = ()


# Entry points of operations run in a child process (``common.run_isolated``),
# here and in ``ladder.py``.


def canonical_form_of(c):
    import comtes

    return comtes.canonical_form(c)


def canonical_key(c):
    import comtes

    return comtes.canonical_key(c)


def delta_1(g):
    import comtes

    return comtes.alexander_polynomial(g, 1)


def r5_colorings(g):
    import comtes

    return len(comtes.colorings(g, comtes.dihedral_quandle(5)))


def _gauss(C, code):
    return C.comte_of_gauss(C.parse_gauss_code(code))


def _betti_torsion(groups):
    return [(h.betti, tuple(h.torsion)) for h in groups]


class Census:
    """Enumerate the 3-vertex r- and q-graph classes, then their plain and
    q-quotient homology signatures through degree 5."""

    name = "census"
    groups = ("enumerate_s", "signatures_s")

    def build(self, C, rng):
        return {"worked": relabel(C, C.graph("a b c", WORKED_QGRAPH), rng)}

    def ops(self, C, inp):
        return [
            Op("enumerate_s", "enumerate_r3", lambda res: C.enumerate_r_graphs(3)),
            Op("enumerate_s", "enumerate_q3", lambda res: C.enumerate_q_graphs(3)),
            Op("signatures_s", "signatures_r3", lambda res: C.signature_census(res["enumerate_r3"], 5, jobs=1)),
            Op("signatures_s", "signatures_q3", lambda res: C.signature_census(res["enumerate_q3"], 5, jobs=1)),
            Op("signatures_s", "worked_qgraph", lambda res: C.homology_range(inp["worked"], 5)),
        ]

    def check(self, C, inp, res):
        problems = []
        if "burnside" not in inp:
            inp["burnside"] = (oracles.burnside_classes(3), oracles.burnside_classes(3, q_only=True))
        r_all, q_all = inp["burnside"]
        for name, want, is_kind in (
            ("enumerate_r3", r_all - 1, oracles.is_r_graph),
            ("enumerate_q3", q_all, oracles.is_q_graph),
        ):
            reps = res[name]
            forms = {oracles.small_canonical(g) for g in reps}
            if len(reps) != want or len(forms) != want:
                problems.append(f"{name}: {len(reps)} representatives, {len(forms)} classes; Burnside gives {want}")
            if not all(is_kind(g) and g.arrows for g in reps):
                problems.append(f"{name}: a representative of the wrong kind or without arrows")
        for name, family, want in (("signatures_r3", "enumerate_r3", 280), ("signatures_q3", "enumerate_q3", 28)):
            rows = res[name].rows
            distinct = {tuple(_betti_torsion(r.plain)) for r in rows}
            if len(rows) != len(res[family]) or len(distinct) != want:
                problems.append(f"{name}: {len(rows)} rows, {len(distinct)} plain signatures, want {want}")
            if name == "signatures_q3" and any(r.quotient is None or len(r.quotient) != 5 for r in rows):
                problems.append("signatures_q3: a row without its q-quotient signature")
        if _betti_torsion(res["worked_qgraph"]) != WORKED_HOMOLOGY:
            problems.append(f"worked q-graph: H1..H5 = {_betti_torsion(res['worked_qgraph'])}")
        return problems


class Search:
    """Bounded bidirectional move searches: three that find a trace and one
    that exhausts its state budget."""

    name = "search"
    groups = ("search_found_s", "search_exhaust_s")

    def build(self, C, rng):
        inp = {
            "g2": relabel(C, C.comte("a b c", G2_ARROWS), rng),
            "g3": relabel(C, C.comte("a b c", G3_ARROWS), rng),
            "g2g3_budget": C.SearchBudget(**G2G3_BUDGET),
            "default_budget": C.SearchBudget(),
            "exhaust_budget": dataclasses.replace(C.SearchBudget(), max_states=EXHAUST_STATES),
            "trefoil": relabel(C, _gauss(C, TREFOIL), rng),
            "figure_eight": relabel(C, _gauss(C, FIGURE_EIGHT), rng),
        }
        for name, before, after in REIDEMEISTER_PAIRS:
            inp[name] = (relabel(C, _gauss(C, before), rng), relabel(C, _gauss(C, after), rng))
        return inp

    def ops(self, C, inp):
        ops = [Op("search_found_s", "g2_g3", lambda res: C.equivalent_bounded(inp["g2"], inp["g3"], inp["g2g3_budget"]))]
        for name, _, _ in REIDEMEISTER_PAIRS:
            ops.append(Op("search_found_s", name, lambda res, p=inp[name]: C.equivalent_bounded(p[0], p[1], inp["default_budget"])))
        ops.append(
            Op(
                "search_exhaust_s",
                "trefoil_figure_eight",
                lambda res: C.equivalent_bounded(inp["trefoil"], inp["figure_eight"], inp["exhaust_budget"]),
            )
        )
        return ops

    def check(self, C, inp, res):
        problems = []
        found = [("g2_g3", inp["g2"], inp["g3"])] + [(n, *inp[n]) for n, _, _ in REIDEMEISTER_PAIRS]
        for name, start, goal in found:
            trace = res[name]
            if trace is None:
                problems.append(f"{name}: no trace found")
                continue
            end = C.replay_trace(start, trace)
            if not oracles.comtes_isomorphic(end, goal):
                problems.append(f"{name}: the trace does not end isomorphic to its target")
        trace = res["g2_g3"]
        if trace is not None:
            kinds = [s.instance.kind for s in trace.steps]
            if len(kinds) > 5 or not any(k.startswith("R3a") for k in kinds) or "R3b_shift" not in kinds:
                problems.append(f"g2_g3: trace {kinds}")
        colorings = (oracles.fox_colorings(inp["trefoil"]), oracles.fox_colorings(inp["figure_eight"]))
        if colorings != (9, 3):
            problems.append(f"Fox 3-colourings {colorings}, want (9, 3)")
        if res["trefoil_figure_eight"] is not None:
            problems.append("trefoil_figure_eight: a trace between inequivalent knots")
        return problems


class Invariants:
    """Few, large single inputs where the super-linear paths dominate."""

    name = "invariants"
    groups = ("canonical_s", "alexander_s", "coloring_s", "homology_s")

    def build(self, C, rng):
        def torus(n, seeded=True):
            if not seeded:
                return _gauss(C, oracles.torus_knot_gauss(n))
            return _gauss(C, oracles.torus_knot_gauss(n, rng.sample(range(1, 3 * n), n), rng.randrange(2 * n)))

        def isolated(k):
            return C.comte([f"p{i}" for i in range(k)], [])

        racks = {"R3": C.dihedral_quandle(3), "R5": C.dihedral_quandle(5), "S4": C.tetrahedron_quandle()}
        inp = {
            "knots": {n: torus(n) for n in LADDER},
            "canonical": {},
            "racks": racks,
            "rack_graphs": {name: C.graph_of_rack(x) for name, x in racks.items()},
            "cocycle": C.tetrahedron_cocycle(),
            # fixed inputs: these two time out today, whatever the seed
            "deadline": {"T11": torus(11, seeded=False), "iso12": isolated(12)},
        }
        for n in CANONICAL_KNOTS:
            k = torus(n)
            inp["canonical"][f"T{n}"] = [k, relabel(C, k, rng)]
        for k in ISOLATED:
            inp["canonical"][f"iso{k}"] = [isolated(k), relabel(C, isolated(k), rng)]
        inp["sums"] = {}
        for n in CONNECTED_SUMS:
            first = oracles.torus_knot_gauss(n, rng.sample(range(1, 3 * n), n))
            second = oracles.torus_knot_gauss(n, rng.sample(range(3 * n, 6 * n), n), rng.randrange(2 * n))
            inp["sums"][n] = _gauss(C, first + second)
        return inp

    def ops(self, C, inp):
        ops = []
        racks, graphs = inp["racks"], inp["rack_graphs"]
        for n, knot in inp["knots"].items():
            ops.append(Op("alexander_s", f"delta1_T{n}", lambda res, g=knot.graph: C.alexander_polynomial(g, 1)))
            ops.append(Op("coloring_s", f"R3_T{n}", lambda res, g=knot.graph: C.colorings(g, racks["R3"])))
            ops.append(Op("coloring_s", f"R5_T{n}", lambda res, g=knot.graph: C.colorings(g, racks["R5"])))
            ops.append(
                Op("coloring_s", f"phi_T{n}", lambda res, c=knot: C.phi_invariant(c, racks["S4"], inp["cocycle"]))
            )
        for n, c in inp["sums"].items():
            ops.append(Op("alexander_s", f"delta2_T{n}#T{n}", lambda res, g=c.graph: C.alexander_polynomial(g, 2)))
        for name, copies in inp["canonical"].items():
            for i, c in enumerate(copies):
                ops.append(Op("canonical_s", f"canon_{name}_{i}", lambda res, c=c: C.canonical_form(c)))
        for name, c in inp["deadline"].items():
            ops.append(Op("canonical_s", f"canon_{name}", canonical_form_of, DEADLINE_S, (c,)))
        for name, (plain, quotient) in RACK_HOMOLOGY.items():
            g = graphs[name]
            ops.append(Op("homology_s", f"{name}_plain", lambda res, g=g, d=plain: C.homology_range(g, d)))
            ops.append(Op("homology_s", f"{name}_q", lambda res, g=g, d=quotient: C.homology_range(g, d, q_quotient=True)))
        return ops

    def check(self, C, inp, res):
        problems = []
        table = inp["racks"]["S4"].table
        for n, knot in inp["knots"].items():
            got = oracles.normalize_up_to_unit(res[f"delta1_T{n}"].coeffs)
            if got != oracles.torus_alexander(n):
                problems.append(f"delta1_T{n}: {got}")
            for rack in ("R3", "R5"):
                cols = res[f"{rack}_T{n}"]
                x = inp["racks"][rack]
                want = oracles.dihedral_count_torus(n, x.n)
                distinct = {tuple(sorted(c.items())) for c in cols}
                if len(distinct) != len(cols) or len(cols) != want:
                    problems.append(f"{rack}_T{n}: {len(cols)} colourings, want {want}")
                if not all(oracles.valid_coloring(knot.graph, x.table, c) for c in cols):
                    problems.append(f"{rack}_T{n}: an invalid colouring")
            phi = res[f"phi_T{n}"]
            want = oracles.braid_transfer_count(table, n)
            if sum(phi.values()) != want:
                problems.append(f"phi_T{n}: augmentation {sum(phi.values())}, braid transfer gives {want}")
        if res["phi_T3"] != {(0,): 4, (1,): 12}:
            problems.append(f"phi of the trefoil: {res['phi_T3']}, want 4 + 12s")
        for n in inp["sums"]:
            got = oracles.normalize_up_to_unit(res[f"delta2_T{n}#T{n}"].coeffs)
            if got != oracles.torus_alexander(n):
                problems.append(f"delta2_T{n}#T{n}: {got}")
        for name, copies in inp["canonical"].items():
            forms = [res[f"canon_{name}_{i}"] for i in range(len(copies))]
            if len({cf.key for cf in forms}) != 1:
                problems.append(f"canon_{name}: keys differ between relabeled copies")
            if not all(oracles.is_isomorphism_onto(c, cf) for c, cf in zip(copies, forms)):
                problems.append(f"canon_{name}: vertex map and arrow permutation are not an isomorphism")
        for name, c in inp["deadline"].items():
            cf = res[f"canon_{name}"]
            if cf is not None and not oracles.is_isomorphism_onto(c, cf):
                problems.append(f"canon_{name}: vertex map and arrow permutation are not an isomorphism")
        for name, (plain, quotient) in RACK_HOMOLOGY.items():
            orbits = oracles.rack_orbits(inp["racks"][name].table)
            bt_plain = _betti_torsion(res[f"{name}_plain"])
            bt_q = _betti_torsion(res[f"{name}_q"])
            if [b for b, _ in bt_plain] != [oracles.rack_betti(orbits, n) for n in range(1, plain + 1)]:
                problems.append(f"{name}_plain: Betti numbers {[b for b, _ in bt_plain]}")
            if [b for b, _ in bt_q] != [oracles.quandle_betti(orbits, n) for n in range(1, quotient + 1)]:
                problems.append(f"{name}_q: Betti numbers {[b for b, _ in bt_q]}")
            for degree, torsion in QUANDLE_TORSION[name].items():
                if bt_q[degree - 1][1] != torsion:
                    problems.append(f"{name}_q: H^Q_{degree} torsion {bt_q[degree - 1][1]}, want {torsion}")
        return problems


WORKLOADS = {w.name: w for w in (Census(), Search(), Invariants())}
