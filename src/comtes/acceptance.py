"""The acceptance suite: reference values and property batteries.

Every check returns a CriterionResult; ``run_all`` executes them in order
and is what the CLI ``paper-suite`` command and the acceptance tests call.
Reference values are the published ones for this calculus (census counts,
homology tables, state sums, Alexander polynomials); the property suites
run randomized batteries with a fixed default seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .alexander import alexander_polynomial
from .census import SignatureCensus, enumerate_q_graphs, enumerate_r_graphs, signature_census
from .coloring import coloring_count, state_sum
from .core import Comte, canonical_key, comte, components, graph, validate
from .homology import (
    boundary_image,
    chain_basis,
    cochain_from_cocycle2_on,
    dot_table,
    flow_to_cycle,
    homology,
    homology_range,
)
from .invariants import abelianization_rank, linking_matrix
from .laurent import Laurent
from .linalg import integer_kernel_basis
from .links import CORPUS, REIDEMEISTER_PAIRS, comte_of_diagram, comte_of_gauss, parse_gauss_code, parse_pd_code, swap_arrowtails
from .moves import SearchBudget, apply_move_detailed, enumerate_moves, equivalent_bounded, inverse_instances, replay_trace
from .racks import C2, Cocycle2, epsilon, format_group_ring, graph_of_rack, tetrahedron_cocycle, tetrahedron_quandle
from .coloring import phi_invariant

DEFAULT_SEED = 20240

# The worked trio: the right-trefoil comte, the same plus a zero-flow
# chord, and the third comte reached from the second by moves.
G1 = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
G2 = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1), ("a", "c", "b", 0)])
G3 = comte("a b c", [("a", "b", "c", 1), ("b", "a", "c", 1), ("c", "a", "b", 0), ("a", "c", "b", 0)])

_LOOPS = [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c")]
G2_BAR = graph("a b c", _LOOPS + [(a.source, a.target, a.label) for a in G2.graph.arrows])
G3_BAR = graph("a b c", _LOOPS + [(a.source, a.target, a.label) for a in G3.graph.arrows])

# The three-vertex q-graph whose Betti numbers grow quadratically.
EXAMPLE_QGRAPH = graph(
    "a b c",
    [
        ("a", "a", "a"),
        ("b", "b", "b"),
        ("c", "c", "c"),
        ("b", "b", "a"),
        ("c", "c", "a"),
        ("a", "c", "b"),
        ("c", "a", "b"),
        ("a", "b", "c"),
    ],
)

# Non-symmetric linking example: two parallel-opposite arrows labeled into
# a separate component, plus an isolated vertex.
LINKING_EXAMPLE = comte("a b c d", [("a", "b", "c", 1), ("b", "a", "c", 1)])


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.ident} {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _result(ident, name, start, passed, detail) -> CriterionResult:
    return CriterionResult(ident, name, bool(passed), detail, time.time() - start)


@lru_cache(maxsize=None)
def _census_graphs():
    return enumerate_r_graphs(3), enumerate_q_graphs(3)


@lru_cache(maxsize=None)
def _census_signatures(jobs: int = 1) -> tuple[SignatureCensus, SignatureCensus]:
    r3, q3 = _census_graphs()
    return signature_census(r3, 5, jobs=jobs), signature_census(q3, 5, jobs=jobs)


def criterion_1_census_counts(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    r3, q3 = _census_graphs()
    complete = enumerate_r_graphs(3, include_arrowless=True)
    ok = len(r3) == 6663 and len(q3) == 70 and len(complete) == 6664
    detail = (
        f"r-graphs(3) = {len(r3)}, q-graphs(3) = {len(q3)} "
        f"(complete enumeration incl. the arrowless class: {len(complete)})"
    )
    return _result("1", "census counts", t0, ok, detail)


def criterion_2_example_homology(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    hs = homology_range(EXAMPLE_QGRAPH, 5)
    got = [h.format() for h in hs]
    want = ["Z", "Z^2", "Z^4", "Z^7", "Z^11"]
    return _result("2", "quadratic-Betti example homology", t0, got == want, "H1..H5 = " + ", ".join(got))


G2G3_BUDGET = SearchBudget(
    max_states=400000, max_vertices=4, max_arrows=6, r3b_range=1, flow_lo=0, flow_hi=1, max_split_slots=6
)


def criterion_3_noninvariance_pair(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    h2 = homology(G2_BAR, 3)
    h3 = homology(G3_BAR, 3)
    trace = equivalent_bounded(G2, G3, G2G3_BUDGET)
    ok = h2.format() == "Z^4" and h3.format() == "Z^5" and trace is not None and len(trace) <= 5
    kinds = [s.instance.kind for s in trace.steps] if trace else []
    if trace is not None:
        ok = ok and canonical_key(replay_trace(G2, trace)) == canonical_key(G3)
        ok = ok and any(k.startswith("R3a") for k in kinds) and any(k == "R3b_shift" for k in kinds)
    detail = (
        f"H3 = {h2.format()} vs {h3.format()}; "
        f"move trace = {' '.join(kinds) if kinds else 'not found'} (length {len(kinds)})"
    )
    return _result("3", "homology non-invariance + move relation", t0, ok, detail)


def criterion_4_state_sums(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    x = tetrahedron_quandle()
    f = tetrahedron_cocycle()
    phis = [phi_invariant(c, x, f) for c in (G1, G2, G3)]
    eps = [epsilon(p) for p in phis]
    ok = (
        phis[0] == {(0,): 4, (1,): 12}
        and phis[1] == {(0,): 4}
        and phis[2] == {(0,): 4}
        and eps == [16, 4, 4]
    )
    detail = "; ".join(format_group_ring(p, C2) for p in phis) + f"; coloring counts {eps}"
    return _result("4", "tetrahedron state sums", t0, ok, detail)


def _fox_trefoil_oracle() -> bool:
    """Independent check that the trefoil's first Alexander polynomial is
    t^2 - t + 1: Fox derivatives of the Wirtinger relators, abelianized,
    with every 2x2 minor verified to be a unit multiple of the target by
    direct polynomial division.  Self-contained dict arithmetic."""

    def padd(p, q):
        out = dict(p)
        for e, c in q.items():
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def pmul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    gens = ["a", "b", "c"]
    # the right trefoil comte has arrows a->b (label c), b->c (label a),
    # c->a (label b); the Wirtinger relator of src --lab--> tgt is
    # lab src lab^-1 tgt^-1
    relators = []
    for src, tgt, lab in [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]:
        relators.append([(lab, 1), (src, 1), (lab, -1), (tgt, -1)])

    def fox_row(word):
        row = {g: {} for g in gens}
        phi = {0: 1}  # abelianization image of the processed prefix
        for g, e in word:
            if e == 1:
                row[g] = padd(row[g], phi)
                phi = pmul(phi, {1: 1})
            else:
                phi = pmul(phi, {-1: 1})
                row[g] = padd(row[g], {e: -c for e, c in phi.items()})
        return [row[g] for g in gens]

    matrix = [fox_row(w) for w in relators]
    target = {2: 1, 1: -1, 0: 1}  # t^2 - t + 1

    def divisible_by_target_with_unit(p):
        # is p == +- t^k * target?
        if not p:
            return None
        lo = min(p)
        shifted = {e - lo: c for e, c in p.items()}
        for sign in (1, -1):
            if shifted == {e: sign * c for e, c in target.items()}:
                return True
        return False

    nonzero = 0
    for rows in combinations(range(3), 2):
        for cols in combinations(range(3), 2):
            a_, b_ = matrix[rows[0]][cols[0]], matrix[rows[0]][cols[1]]
            c_, d_ = matrix[rows[1]][cols[0]], matrix[rows[1]][cols[1]]
            det = padd(pmul(a_, d_), {e: -c for e, c in pmul(b_, c_).items()})
            if det:
                nonzero += 1
                if not divisible_by_target_with_unit(det):
                    return False
    return nonzero > 0


def criterion_5_alexander(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    g23 = graph("a b c", [("a", "b", "c"), ("a", "c", "b")])
    d_example = alexander_polynomial(g23, 1)
    d_trefoil = alexander_polynomial(G1.graph, 1)
    t = Laurent.t()
    want_tre = t * t - t + Laurent.one()
    ok = (
        d_example == t - Laurent.const(2)
        and d_trefoil == want_tre
        and _fox_trefoil_oracle()
    )
    detail = f"Delta_1(example) = {d_example}; Delta_1(trefoil) = {d_trefoil}; Fox oracle agrees"
    return _result("5", "Alexander polynomials", t0, ok, detail)


def criterion_6_linking(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    lk = linking_matrix(LINKING_EXAMPLE)
    want = {(i, j): 0 for i in range(3) for j in range(3) if i != j}
    want[(1, 0)] = 2
    ok = lk.entries == want
    detail = "lk[2][1] = %d, all other entries %s" % (
        lk.entries.get((1, 0), 0),
        "zero" if ok else str(lk.entries),
    )
    return _result("6", "linking numbers", t0, ok, detail)


def criterion_7_signature_census(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    rcensus, qcensus = _census_signatures(jobs)
    rcounts = rcensus.distinct_counts()
    qcounts = qcensus.distinct_counts()
    r_hits = [k for k, v in rcounts.items() if v == 280]
    q_hits = [k for k, v in qcounts.items() if v == 28]
    ok = bool(r_hits) and bool(q_hits)
    detail = (
        f"r distinct counts {rcounts} (280 under: {r_hits or 'none'}); "
        f"q distinct counts {qcounts} (28 under: {q_hits or 'none'})"
    )
    return _result("7", "signature census conventions", t0, ok, detail)


# ---------------------------------------------------------------------------
# Property suites


def random_comte(rng: random.Random, nmax: int = 5, amax: int = 7) -> Comte:
    """A random valid comte: random structure, flow sampled from the
    integer kernel of the incidence matrix."""
    n = rng.randrange(1, nmax + 1)
    vs = [f"v{i}" for i in range(n)]
    na = rng.randrange(0, amax + 1)
    arrs = [(rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(na)]
    g = graph(vs, arrs)
    if na == 0:
        return Comte(g, ())
    idx = g.vertex_index()
    inc = [[0] * na for _ in range(n)]
    for j, a in enumerate(g.arrows):
        inc[idx[a.source]][j] += 1
        inc[idx[a.target]][j] -= 1
    flows = [0] * na
    for vec in integer_kernel_basis(inc, na):
        coef = rng.randrange(-2, 3)
        for j in range(na):
            flows[j] += coef * vec[j]
    return Comte(g, tuple(flows))


def _matched_linking(lk1, lk2, comp_match):
    if len(lk1.components) != len(lk2.components):
        return False
    for (i, j), v in lk1.entries.items():
        if lk2.entries.get((comp_match[i], comp_match[j])) != v:
            return False
    return True


def suite_8a_move_invariance(seed: int, cases: int = 500) -> tuple[bool, str]:
    rng = random.Random(seed)
    tetra = tetrahedron_quandle()
    done = 0
    while done < cases:
        c = random_comte(rng)
        pool = enumerate_moves(c, r3b_range=2) + inverse_instances(c, max_split_slots=6)
        if not pool:
            continue
        m = pool[rng.randrange(len(pool))]
        res = apply_move_detailed(c, m)
        c2 = res.comte
        if not validate(c2).ok:
            return False, f"validity broken by {m.kind} on {c}"
        if len(components(c.graph)) != len(components(c2.graph)):
            return False, f"component count changed by {m.kind}"
        if abelianization_rank(c.graph) != abelianization_rank(c2.graph):
            return False, f"abelianization rank changed by {m.kind}"
        if alexander_polynomial(c.graph, 1) != alexander_polynomial(c2.graph, 1):
            return False, f"Delta_1 changed by {m.kind} on {c}"
        if coloring_count(c.graph, tetra) != coloring_count(c2.graph, tetra):
            return False, f"tetrahedron coloring count changed by {m.kind}"
        # component matching induced by the vertex map
        cidx1 = {}
        for i, compi in enumerate(components(c.graph)):
            for v in compi:
                cidx1[v] = i
        cidx2 = {}
        for i, compi in enumerate(components(c2.graph)):
            for v in compi:
                cidx2[v] = i
        match = {}
        for v, w in res.vertex_map.items():
            if w is not None:
                match[cidx1[v]] = cidx2[w]
        lk1 = linking_matrix(c)
        lk2 = linking_matrix(c2)
        if len(match) == len(lk1.components):
            if not _matched_linking(lk1, lk2, match):
                return False, f"linking matrix changed by {m.kind} on {c}"
        done += 1
    return True, f"{done} randomized move applications preserved all invariants"


def _terms_of_boundary(t, dot, q_quotient):
    from .homology import _degenerate

    acc = {}
    for coeff, img in boundary_image(t, dot):
        if q_quotient and _degenerate(img):
            continue
        acc[img] = acc.get(img, 0) + coeff
    return {k: v for k, v in acc.items() if v}


def suite_8b_boundary_squares(jobs: int = 1) -> tuple[bool, str]:
    r3, q3 = _census_graphs()
    checked = 0
    for g in list(r3) + list(q3):
        dot = dot_table(g)
        for n in range(2, 6):
            for t in chain_basis(n, g):
                first = _terms_of_boundary(t, dot, False)
                acc = {}
                for img, coeff in first.items():
                    for img2, coeff2 in _terms_of_boundary(img, dot, False).items():
                        acc[img2] = acc.get(img2, 0) + coeff * coeff2
                if any(acc.values()):
                    return False, f"dd != 0 at degree {n} on {g}"
                checked += 1
    return True, f"dd = 0 on {checked} generators across the census through degree 5"


def suite_8c_q_quotient(jobs: int = 1) -> tuple[bool, str]:
    from .homology import _degenerate

    _, q3 = _census_graphs()
    checked = 0
    for g in q3:
        dot = dot_table(g)
        for n in range(2, 6):
            for t in hom_degenerates(n, g):
                terms = _terms_of_boundary(t, dot, False)
                if any(not _degenerate(img) for img in terms):
                    return False, f"boundary of a degenerate tuple leaves the subcomplex on {g}"
                checked += 1
            for t in chain_basis(n, g, q_quotient=True):
                first = _terms_of_boundary(t, dot, True)
                acc = {}
                for img, coeff in first.items():
                    for img2, coeff2 in _terms_of_boundary(img, dot, True).items():
                        acc[img2] = acc.get(img2, 0) + coeff * coeff2
                if any(acc.values()):
                    return False, f"quotient dd != 0 on {g}"
    return True, f"degenerate subcomplex closed and quotient dd = 0 on all 70 q-graphs ({checked} degenerate generators)"


def hom_degenerates(n, g):
    from .homology import _degenerate, hom_tuples

    return [t for t in hom_tuples(n, g) if _degenerate(t)]


def suite_8d_rack_agreement(jobs: int = 1) -> tuple[bool, str]:
    from itertools import product as iproduct

    from .homology import boundary_matrix

    from .racks import dihedral_quandle

    for x in (dihedral_quandle(3), tetrahedron_quandle()):
        g = graph_of_rack(x)
        for n in range(1, 5):
            basis = chain_basis(n, g)
            if len(basis) != x.n ** n:
                return False, f"basis size mismatch at degree {n}"
            direct_basis = sorted(iproduct(range(x.n), repeat=n))
            direct_prev = sorted(iproduct(range(x.n), repeat=n - 1))
            pos = {t: i for i, t in enumerate(direct_prev)}
            m_direct = [[0] * len(direct_basis) for _ in range(len(direct_prev))]
            for col, t in enumerate(direct_basis):
                for s in range(1, n):
                    sign = -1 if s % 2 else 1
                    d0 = t[: s - 1] + t[s:]
                    d1 = t[: s - 1] + tuple(x.op(t[s - 1], v) for v in t[s:])
                    m_direct[pos[d0]][col] += sign
                    m_direct[pos[d1]][col] -= sign
            if boundary_matrix(n, g) != m_direct:
                return False, f"boundary mismatch at degree {n} for a {x.n}-element rack"
    return True, "chain bases and boundaries match the direct rack complex through degree 4"


def suite_8e_coboundary_invariance(seed: int, cases: int = 500) -> tuple[bool, str]:
    rng = random.Random(seed + 1)
    x = tetrahedron_quandle()
    f = tetrahedron_cocycle()
    gt = graph_of_rack(x)
    f_base = cochain_from_cocycle2_on(x, f)
    done = 0
    while done < cases:
        c = random_comte(rng, nmax=4, amax=6)
        gvals = {v: rng.randrange(2) for v in gt.vertices}
        vals = []
        for a in range(4):
            row = []
            for b in range(4):
                e = gt.arrows[a * 4 + b]
                delta = (gvals[e.target] - gvals[e.source]) % 2
                row.append(((f.value(a, b)[0] + delta) % 2,))
            vals.append(tuple(row))
        f_pert = cochain_from_cocycle2_on(x, Cocycle2(C2, tuple(vals)))
        chain = flow_to_cycle(c)
        s1 = state_sum(c.graph, chain, gt, f_base, C2)
        s2 = state_sum(c.graph, chain, gt, f_pert, C2)
        if s1 != s2:
            return False, f"state sum moved under a coboundary on {c}"
        done += 1
    return True, f"{done} randomized coboundary perturbations left state sums unchanged"


def random_gauss_diagram(rng: random.Random):
    n_chords = rng.randrange(1, 6)
    n_circles = rng.randrange(1, 3)
    ends = []
    for k in range(1, n_chords + 1):
        sign = rng.choice("+-")
        ends.append(f"O{k}{sign}")
        ends.append(f"U{k}{sign}")
    rng.shuffle(ends)
    cut = rng.randrange(1, len(ends)) if n_circles == 2 else len(ends)
    comps = [ends[:cut], ends[cut:]]
    comps = [c for c in comps if c]
    return "/".join("".join(c) for c in comps)


def suite_8f_routes_and_swaps(seed: int, cases: int = 500) -> tuple[bool, str]:
    for code in CORPUS:
        via_gauss = comte_of_gauss(parse_gauss_code(code.gauss))
        via_pd = comte_of_diagram(parse_pd_code(code.pd))
        if canonical_key(via_gauss) != canonical_key(via_pd):
            return False, f"route disagreement on {code.name}"
        if not validate(via_pd).ok:
            return False, f"invalid comte from {code.name}"
    rng = random.Random(seed + 2)
    swaps = 0
    done = 0
    while done < cases:
        code = random_gauss_diagram(rng)
        try:
            d = parse_gauss_code(code)
        except Exception:
            continue
        c = comte_of_gauss(d)
        if not validate(c).ok:
            return False, f"invalid comte from random diagram {code}"
        key = canonical_key(c)
        for ci, circle in enumerate(d.circles):
            for i in range(len(circle)):
                j = (i + 1) % len(circle)
                if circle[i].end == "tail" and circle[j].end == "tail":
                    d2 = swap_arrowtails(d, ci, i)
                    if canonical_key(comte_of_gauss(d2)) != key:
                        return False, f"arrowtail swap changed the comte of {code}"
                    if swap_arrowtails(d2, ci, i) != d:
                        return False, f"arrowtail swap is not an involution on {code}"
                    swaps += 1
        done += 1
    return True, (
        f"corpus routes agree on {len(CORPUS)} links; {done} random diagrams valid, "
        f"{swaps} arrowtail swaps preserved the comte"
    )


def suite_8g_reidemeister(jobs: int = 1) -> tuple[bool, str]:
    lengths = []
    for name, before, after in REIDEMEISTER_PAIRS:
        cb = comte_of_gauss(parse_gauss_code(before))
        ca = comte_of_gauss(parse_gauss_code(after))
        trace = equivalent_bounded(cb, ca, SearchBudget())
        if trace is None:
            return False, f"no trace for pair {name} under the default budget"
        if canonical_key(replay_trace(cb, trace)) != canonical_key(ca):
            return False, f"trace for pair {name} does not replay"
        lengths.append(f"{name}:{len(trace)}")
    return True, "traces found for all bundled pairs (" + ", ".join(lengths) + ")"


def criterion_8_property_suites(jobs: int = 1, seed: int = DEFAULT_SEED) -> CriterionResult:
    t0 = time.time()
    parts = [
        ("a", suite_8a_move_invariance(seed)),
        ("b", suite_8b_boundary_squares(jobs)),
        ("c", suite_8c_q_quotient(jobs)),
        ("d", suite_8d_rack_agreement(jobs)),
        ("e", suite_8e_coboundary_invariance(seed)),
        ("f", suite_8f_routes_and_swaps(seed)),
        ("g", suite_8g_reidemeister(jobs)),
    ]
    ok = all(p[1][0] for p in parts)
    detail = "; ".join(f"8{tag} {'ok' if good else 'FAIL'} ({msg})" for tag, (good, msg) in parts)
    return _result("8", "property suites", t0, ok, detail)


CRITERIA = [
    criterion_1_census_counts,
    criterion_2_example_homology,
    criterion_3_noninvariance_pair,
    criterion_4_state_sums,
    criterion_5_alexander,
    criterion_6_linking,
    criterion_7_signature_census,
    criterion_8_property_suites,
]


def run_all(seed: int = DEFAULT_SEED, jobs: int = 1, only=None):
    """Run the criteria in order, or only those whose ids are in ``only``."""
    results = []
    for fn in CRITERIA:
        if only is not None and fn.__name__.split("_")[1] not in only:
            continue
        if fn is criterion_8_property_suites:
            results.append(fn(jobs=jobs, seed=seed))
        else:
            results.append(fn(jobs=jobs))
    return results
