"""Enumeration of r-graphs and q-graphs up to isomorphism, with homology
signatures.

An r-graph structure on a fixed vertex set is the same thing as one
partial injection per label vertex (sending sources to targets); q-graphs
additionally fix the label vertex itself.  Enumeration is orderly
(Read 1978; McKay 1998): a labeled structure is coded by its choice of
injection at each label, and only the structure whose code is least in
its orbit under the vertex permutations is kept and labeled, so each
isomorphism class costs one labeling.
"""

from __future__ import annotations

import os
from itertools import permutations, product
from typing import NamedTuple

from .core import (GENERAL, Comte, SelfIndexedGraph, _canonical_leaf, _index_form, _iterate, _key_bytes, _require_int,
                   _shared_graph, canonical_key, classify)
from .homology import HomologyGroup, homology_range


def partial_injections(n: int) -> list[tuple[int, ...]]:
    """All partial injections on 0..n-1 as tuples with -1 for undefined,
    in lexicographic order."""
    _require_int(n, "vertex count", 0)
    return [t for t in product(range(-1, n), repeat=n) if len(set(t) - {-1}) == n - t.count(-1)]


def _label_choices(n: int, q_only: bool) -> list[list[tuple[int, ...]]]:
    """The partial injections allowed at each label: all of them, or for
    q-graphs only those that fix the label itself."""
    injections = partial_injections(n)
    return [[inj for inj in injections if not q_only or inj[lab] == lab] for lab in range(n)]


def _conjugate(inj: tuple[int, ...], perm) -> tuple[int, ...]:
    """The partial injection ``inj`` carried along the vertex permutation
    ``perm``: each defined b -> inj[b] becomes perm[b] -> perm[inj[b]]."""
    out = [-1] * len(inj)
    for b, t in enumerate(inj):
        if t >= 0:
            out[perm[b]] = perm[t]
    return tuple(out)


def _orbit_tables(choices) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """One table per non-identity vertex permutation p.  Row k of the table
    is (label, column): the label whose injection p carries onto label
    k, and for each index into that label's choices, the index into
    ``choices[k]`` of the carried injection."""
    n = len(choices)
    index = [{inj: i for i, inj in enumerate(c)} for c in choices]
    tables = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inverse = sorted(range(n), key=perm.__getitem__)
        tables.append(tuple(
            (inverse[k], tuple(index[k][_conjugate(inj, perm)] for inj in choices[inverse[k]]))
            for k in range(n)
        ))
    return tables


def _least_codes(choices):
    """Yield, in increasing order, each code (one index into ``choices`` per
    label, the first label most significant) that is the least code of its
    orbit under the vertex permutations: exactly one labeled structure per
    isomorphism class, the first of its class that ``product(*choices)``
    meets.

    The walk fixes the digits from the most significant.  Each permutation
    not yet shown to give a larger image is compared digit by digit for as
    long as both digits are fixed; a smaller image prunes every completion
    of the prefix, a larger one drops the permutation.
    """
    n = len(choices)

    def walk(k, code, pending):
        if k == n:
            yield tuple(code)
            return
        for digit in range(len(choices[k])):
            code[k] = digit
            undecided = []
            for rows, m in pending:
                while m <= k and rows[m][0] <= k:
                    label, column = rows[m]
                    image = column[code[label]]
                    if image != code[m]:
                        break
                    m += 1
                else:
                    undecided.append((rows, m))
                    continue
                if image < code[m]:
                    break
            else:
                yield from walk(k + 1, code, undecided)

    yield from walk(0, [0] * n, [(rows, 0) for rows in _orbit_tables(choices)])


def _enumerate(n_vertices: int, q_only: bool, include_arrowless: bool) -> list[SelfIndexedGraph]:
    """The canonical graph of each least code, sorted by key.  Each code is
    labeled from its index triples, by label then source; only the canonical
    graphs are built, sharing one names tuple and one ``Arrow`` per triple,
    and each holds its key, which ``census_row`` reads back without labeling."""
    choices = _label_choices(n_vertices, q_only)
    triples = [[[(b, t, lab) for b, t in enumerate(inj) if t >= 0] for inj in c] for lab, c in enumerate(choices)]
    reps = []
    shared: dict = {}
    for code in _least_codes(choices):
        arrs = [st for at_label, i in zip(triples, code) for st in at_label[i]]
        if include_arrowless or arrs:
            arrows = _canonical_leaf(n_vertices, arrs, (0,) * len(arrs))[-1]
            reps.append(_shared_graph(n_vertices, [a[:3] for a in arrows], shared, _key_bytes(b"g", (n_vertices, arrows))))
    return sorted(reps, key=canonical_key)


def enumerate_r_graphs(n_vertices: int, include_arrowless: bool = False) -> list[SelfIndexedGraph]:
    """Canonical representatives of the r-graphs on the given vertex count,
    sorted by canonical key.  Practical through n = 3: at n = 4 there are
    79,530,352 classes (Burnside) among 209^4 labeled structures.

    By default the single arrowless class is omitted: the classical census
    figures (6663 on three vertices, 280 distinct homology signatures)
    count structures with at least one arrow.  Pass ``include_arrowless``
    for the complete enumeration, which has exactly one more class.
    """
    return _enumerate(n_vertices, q_only=False, include_arrowless=include_arrowless)


def enumerate_q_graphs(n_vertices: int, include_arrowless: bool = False) -> list[SelfIndexedGraph]:
    """Canonical representatives of the q-graphs (every vertex carries its
    self-labeled loop, so the arrowless flag only matters for n = 0).
    Practical through n = 4: the 56,185 classes there (34^4 labeled
    structures) took 1.8 to 1.9 s of processor time and 41 MiB peak
    memory on a shared 2-vCPU virtual machine with Python 3.11."""
    return _enumerate(n_vertices, q_only=True, include_arrowless=include_arrowless)


class CensusRow(NamedTuple):
    key: bytes
    graph: SelfIndexedGraph
    kind: str  # classify(graph): "r" or "q" for a census graph
    plain: tuple[HomologyGroup, ...]
    quotient: tuple[HomologyGroup, ...] | None  # q-graphs only


def _require_graph(g, what: str) -> None:
    """A ``TypeError`` naming ``what`` unless ``g`` is a ``SelfIndexedGraph``."""
    if not isinstance(g, SelfIndexedGraph):
        hint = "; pass c.graph for the graph of a comte c" if isinstance(g, Comte) else ""
        raise TypeError(f"{what} must be a SelfIndexedGraph, got {type(g).__name__}{hint}")


def _groups(g: SelfIndexedGraph, kind: str, max_degree: int):
    """The plain groups of ``g``, of kind ``kind``, through ``max_degree``,
    and its quotient groups if it is a q-graph, else None."""
    quot = homology_range(g, max_degree, q_quotient=True) if kind == "q" else None
    return homology_range(g, max_degree), quot


def census_row(g: SelfIndexedGraph, max_degree: int) -> CensusRow:
    """The row of ``g``: its plain homology and, for a q-graph, its
    quotient homology, through ``max_degree``."""
    _require_graph(g, "g")
    kind = classify(g)
    return CensusRow(canonical_key(g), g, kind, *_groups(g, kind, max_degree))


def _sig_str(groups) -> str:
    return ",".join(h.format() for h in groups)


def _betti_str(groups) -> str:
    return ",".join(str(h.betti) for h in groups)


class SignatureCensus(NamedTuple):
    rows: tuple[CensusRow, ...]
    max_degree: int

    def distinct_counts(self) -> dict[str, int]:
        """Distinct signature counts under several conventions: plain or
        q-quotient homology, torsion-inclusive or Betti-only."""
        out = {}
        out["plain/torsion"] = len({_sig_str(r.plain) for r in self.rows})
        out["plain/betti"] = len({_betti_str(r.plain) for r in self.rows})
        if all(r.quotient is not None for r in self.rows) and self.rows:
            out["quotient/torsion"] = len({_sig_str(r.quotient) for r in self.rows})
            out["quotient/betti"] = len({_betti_str(r.quotient) for r in self.rows})
        return out

    def table(self) -> str:
        lines = []
        for r in self.rows:
            cols = [r.key.decode(), r.kind, _sig_str(r.plain)]
            if r.quotient is not None:
                cols.append(_sig_str(r.quotient))
            lines.append("\t".join(cols))
        return "\n".join(lines) + "\n"


def signature_census(graphs, max_degree: int = 5, jobs: int = 1) -> SignatureCensus:
    """Homology signatures (degrees 1..max_degree) for a family of census
    representatives, by at most ``jobs`` processes and no more than the CPUs;
    deterministic row order by canonical key.  Rows with equal signatures
    share one tuple.

    The groups are computed once per pair of opposite graphs.  G^op reverses
    every arrow of G: x .op y = z exactly when x . z = y.  One scan of
    ``graphs``, in input order and before any group is computed, labels each
    r-graph whose groups are to be computed on its reversed index triples
    (t, s, l), for the key of its opposite; a later graph with that key takes
    those groups, and keeps its own key, graph and kind.

    This is exact over Z.  Let c complement each cube y_m of Y_n, sending
    the vertex S + {m} to ({1..m-1} - S) + {m}.  c sends the arrow from v to
    v + {d} labeled L to the arrow from c(v + {d}) to c(v) labeled c(L), so
    it is an isomorphism from Y_n to its opposite, and c D_s^eps =
    D_s^(1-eps) c, since complementing swaps the inserted 0 and 1.  So
    psi: h -> h c, on origin tuples psi(a_1..a_n) = (b_1..b_n) with b_m =
    a_1.(a_2.( ... a_m)), is a bijection from the homomorphisms Y_n -> G
    onto those Y_n -> G^op (c is an involution), and psi d = -d^op psi.  It
    carries cycles onto cycles and boundaries onto boundaries, so
    H_n(G^op) = H_n(G).  In a q-graph a.a = a and each a.- is injective, so
    a_i = a_(i+1) exactly when b_i = b_(i+1): psi carries the degenerate
    tuples onto the degenerate ones, and the quotient groups agree as well.
    Only r-graphs are paired: the opposite of another graph of the homology
    domain need not have distinct (label, source) pairs."""
    _require_int(max_degree, "max_degree", 0)
    jobs = min(_require_int(jobs, "jobs", 1), os.cpu_count() or 1)
    graphs = list(_iterate(graphs, "graphs", "an iterable of graphs"))
    for i, g in enumerate(graphs):
        _require_graph(g, f"graphs[{i}]")
    reps = []  # the arguments of _groups, one per graph whose groups are computed
    rows = []  # per graph: its key, itself, its kind and the index of its groups, until they are computed
    opposites = {}  # the opposite key of a representative r-graph not yet met -> its index
    for g in graphs:
        key, kind = canonical_key(g), classify(g)
        i = opposites.pop(key, None)
        if i is None:
            i = len(reps)
            reps.append((g, kind, max_degree))
            if kind != GENERAL:
                n, triples = len(g.vertices), _index_form(g)[1]
                arrows = _canonical_leaf(n, [(t, s, l) for s, t, l in triples], (0,) * len(triples))[-1]
                opposites[_key_bytes(b"g", (n, arrows))] = i
        rows.append((key, g, kind, i))
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            groups = pool.starmap(_groups, reps, chunksize=8)
    else:
        groups = (_groups(*r) for r in reps)
    sigs: dict = {}
    groups = [tuple([sigs.setdefault(s, s) for s in pair]) for pair in groups]
    for j, (key, g, kind, i) in enumerate(rows):
        rows[j] = CensusRow(key, g, kind, *groups[i])
    rows.sort(key=lambda r: r.key)
    return SignatureCensus(tuple(rows), max_degree)
