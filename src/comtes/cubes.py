"""The labeled cube graphs y_1, ..., y_n, their union Y_n, and its faces.

y_m is the 1-skeleton of the unit cube in R^(m-1).  Vertices and arrows
carry labels that are strictly increasing integer sequences; concretely the
vertex at bit vector v in y_m is labeled by {j : v_j = 1} followed by m, so
the vertices of Y_n correspond to the nonempty subsets of {1..n}.  The
arrow leaving v in direction d is labeled by the elements of v below d,
followed by d.  Y_n is self-indexed by sending each arrow to the unique
vertex with the same label.

The 2(n-1) face embeddings D_s^0, D_s^1 : Y_{n-1} -> Y_n insert a fixed
coordinate at position s; on label subsets this shifts entries >= s up by
one and, for D_s^1, inserts s.  Cubes y_m with m < s map identically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core import Arrow, GraphHomomorphism, SelfIndexedGraph, _require_int

Word = tuple[int, ...]


def word_name(word: Word) -> str:
    return ".".join(map(str, word))


class CubeGraph(NamedTuple):
    n: int
    graph: SelfIndexedGraph
    vertex_words: tuple[Word, ...]           # aligned with graph.vertices
    arrow_data: tuple[tuple[Word, int], ...]  # (source word, direction) per arrow
    arrow_words: tuple[Word, ...]             # label word per arrow


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 miss the entry of 1
def build_Yn(n: int) -> CubeGraph:
    """Y_n = y_1 + ... + y_n with labels and self-indexed structure."""
    _require_int(n, "cube degree", 0)
    vwords: list[Word] = []
    for m in range(1, n + 1):
        layer = []
        for mask in range(1 << (m - 1)):
            word = tuple(j for j in range(1, m) if mask >> (j - 1) & 1) + (m,)
            layer.append(word)
        vwords.extend(sorted(layer))
    arrows = []
    adata = []
    awords = []
    for src in vwords:
        m = src[-1]
        in_src = set(src)
        for d in range(1, m):
            if d in in_src:
                continue
            tgt = tuple(sorted(in_src | {d}))
            lab = tuple(j for j in src if j < d) + (d,)
            arrows.append((src, d, tgt, lab))
    arrows.sort(key=lambda rec: (rec[0][-1], rec[0], rec[1]))
    arrs = []
    for src, d, tgt, lab in arrows:
        arrs.append(Arrow(word_name(src), word_name(tgt), word_name(lab)))
        adata.append((src, d))
        awords.append(lab)
    g = SelfIndexedGraph(tuple(word_name(w) for w in vwords), tuple(arrs))
    return CubeGraph(n, g, tuple(vwords), tuple(adata), tuple(awords))


def _face_word(word: Word, s: int, eps: int) -> Word:
    if word[-1] < s:
        return word
    shifted = tuple(j if j < s else j + 1 for j in word)
    if eps:
        return tuple(sorted(shifted + (s,)))
    return shifted


@lru_cache(maxsize=None, typed=True)
def face_map(n: int, s: int, eps: int) -> GraphHomomorphism:
    """The embedding D_s^eps : Y_{n-1} -> Y_n, for 1 <= s <= n-1."""
    if _require_int(eps, "face side") not in (0, 1):
        raise ValueError(f"face side eps={eps} is not 0 or 1")
    if not 1 <= _require_int(s, "face index") <= _require_int(n, "cube degree") - 1:
        raise ValueError(f"face index s={s} out of range for Y_{n}")
    lo = build_Yn(n - 1)
    hi_aindex = {rec: i for i, rec in enumerate(build_Yn(n).arrow_data)}
    vs = tuple(word_name(_face_word(w, s, eps)) for w in lo.vertex_words)
    am = []
    for src, d in lo.arrow_data:
        if src[-1] < s:
            img = (src, d)
        else:
            img = (_face_word(src, s, eps), d + 1 if d >= s else d)
        am.append(hi_aindex[img])
    return GraphHomomorphism(vs, tuple(am))
