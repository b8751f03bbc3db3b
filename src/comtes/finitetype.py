"""Semi-virtual arrows and the finite-type bracket expansion.

A graph with a distinguished arrow set S expands, by inclusion-exclusion
over contractions, into a formal integer combination of isomorphism
classes of self-indexed graphs.  Invariants are maps from isomorphism
classes (canonical keys) to an abelian group; a vanishing linear extension
on all brackets with n semi-virtual arrows certifies degree < n over the
family supplied, never globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .core import SelfIndexedGraph, _require_int, canonical_form, contract


@dataclass(frozen=True)
class SemiVirtualGraph:
    """A graph with the indices of its semi-virtual arrows."""

    graph: SelfIndexedGraph
    semivirtual: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.semivirtual, frozenset):
            raise TypeError(f"semivirtual must be a frozenset of arrow indices, got {self.semivirtual!r}")
        for i in self.semivirtual:
            if not 0 <= _require_int(i, "semi-virtual arrow index") < len(self.graph.arrows):
                raise ValueError(f"semi-virtual arrow index {i} out of range")


@dataclass(frozen=True)
class GraphFormalSum:
    """Integer combination of isomorphism classes, keyed by canonical key,
    with one representative graph kept per class."""

    terms: tuple[tuple[bytes, int], ...]
    representatives: tuple[tuple[bytes, SelfIndexedGraph], ...]

    def coefficient(self, key: bytes) -> int:
        return dict(self.terms).get(key, 0)

    def representative(self, key: bytes) -> SelfIndexedGraph:
        return dict(self.representatives)[key]

    @staticmethod
    def from_dict(coeffs: dict, reps: dict) -> "GraphFormalSum":
        terms = tuple(sorted((k, v) for k, v in coeffs.items() if v))
        return GraphFormalSum(terms, tuple(sorted((k, reps[k]) for k, _ in terms)))

    def __add__(self, other: "GraphFormalSum") -> "GraphFormalSum":
        coeffs = dict(self.terms)
        reps = dict(self.representatives) | dict(other.representatives)
        for k, v in other.terms:
            coeffs[k] = coeffs.get(k, 0) + v
        return GraphFormalSum.from_dict(coeffs, reps)

    def __neg__(self) -> "GraphFormalSum":
        return GraphFormalSum(
            tuple((k, -v) for k, v in self.terms), self.representatives
        )

    def __sub__(self, other):
        return self + (-other)

    def format(self) -> str:
        return "".join(f"{v}\t{k.decode()}\n" for k, v in self.terms)


def bracket(gs: SemiVirtualGraph) -> GraphFormalSum:
    """Expand [G, S] = sum over T <= S of (-1)^|T| (G contracted along T),
    merged by canonical key."""
    coeffs: dict[bytes, int] = {}
    reps: dict[bytes, SelfIndexedGraph] = {}
    sv = sorted(gs.semivirtual)
    for r in range(len(sv) + 1):
        sign = -1 if r % 2 else 1
        for subset in combinations(sv, r):
            cf = canonical_form(contract(gs.graph, subset))
            coeffs[cf.key] = coeffs.get(cf.key, 0) + sign
            reps.setdefault(cf.key, cf.graph)
    return GraphFormalSum.from_dict(coeffs, reps)


class MissingClassError(KeyError):
    def __init__(self, key: bytes, representative: SelfIndexedGraph):
        super().__init__(key)
        self.key = key
        self.representative = representative

    def __str__(self):
        return (
            f"invariant not defined on class {self.key.decode()!r} "
            f"(representative: {self.representative})"
        )


def evaluate(nu, fs: GraphFormalSum, zero=0):
    """Linear extension of an invariant over a formal sum.

    ``nu`` is a callable or mapping from canonical keys to values in an
    abelian group (supporting + and integer *); a missing class raises
    MissingClassError naming a representative graph.
    """
    total = zero
    getter = nu.get if hasattr(nu, "get") else None
    for key, coeff in fs.terms:
        if getter is not None:
            val = getter(key)
            if val is None and key not in nu:
                raise MissingClassError(key, fs.representative(key))
        else:
            try:
                val = nu(key)
            except KeyError:
                raise MissingClassError(key, fs.representative(key)) from None
        total = total + coeff * val
    return total


class DegreeReport(NamedTuple):
    vanishes: bool
    counterexample: SemiVirtualGraph | None = None

    def __bool__(self):
        return self.vanishes


def is_degree_at_most(nu, n: int, family, zero=0) -> DegreeReport:
    """Check that the linear extension of ``nu`` vanishes on the bracket of
    every member of ``family`` with exactly n semi-virtual arrows.

    A pass certifies degree < n over this family only; the class of all
    self-indexed graphs is infinite, so no global claim is made.
    """
    _require_int(n, "semi-virtual arrow count", 0)
    for gs in family:
        if len(gs.semivirtual) != n:
            raise ValueError("family member does not have n semi-virtual arrows")
        val = evaluate(nu, bracket(gs), zero=zero)
        if val != zero:
            return DegreeReport(False, gs)
    return DegreeReport(True)
