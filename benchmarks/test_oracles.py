"""Tests of the benchmark's oracles on hand-checked values, of the speed
probe, and of the agreement between BENCHMARK.json and the metrics the
benchmark prints.

    python3 benchmarks/test_oracles.py      (or: python3 -m pytest benchmarks)

The oracles do not import comtes; these tests build their small inputs from
plain named tuples shaped like comtes' graphs and comtes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from common import SpeedProbe  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


class A(NamedTuple):
    source: str
    target: str
    label: str


class G(NamedTuple):
    vertices: tuple
    arrows: tuple
    flows: tuple = ()


def comte(vertices, arrows):
    return G(tuple(vertices.split()), tuple(A(s, t, l) for s, t, l, _ in arrows), tuple(f for *_, f in arrows))


TREFOIL = comte("a b c", [("a", "b", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
# The figure-eight knot from the Gauss code U4-O2+U3+O4-U1-O3+U2+O1-.
FIGURE_EIGHT = comte(
    "a b c d",
    [("c", "b", "d", -1), ("c", "d", "a", 1), ("a", "b", "c", 1), ("a", "d", "b", -1)],
)


def test_isomorphism_oracle():
    renamed = comte("z y x", [("z", "y", "x", 1), ("y", "x", "z", 1), ("x", "z", "y", 1)])
    assert oracles.comtes_isomorphic(TREFOIL, renamed)
    shuffled = G(TREFOIL.vertices[::-1], TREFOIL.arrows[::-1], TREFOIL.flows[::-1])
    assert oracles.comtes_isomorphic(TREFOIL, shuffled)
    mirror_flow = comte("a b c", [("a", "b", "c", -1), ("b", "c", "a", -1), ("c", "a", "b", -1)])
    assert not oracles.comtes_isomorphic(TREFOIL, mirror_flow)
    reversed_arrow = comte("a b c", [("b", "a", "c", 1), ("b", "c", "a", 1), ("c", "a", "b", 1)])
    assert not oracles.comtes_isomorphic(TREFOIL, reversed_arrow)


def test_isomorphism_onto():
    class CF(NamedTuple):
        vertex_map: dict
        arrow_perm: tuple
        graph: G
        flows: tuple

    target = comte("0 1 2", [("0", "1", "2", 1), ("1", "2", "0", 1), ("2", "0", "1", 1)])
    good = CF({"a": "0", "b": "1", "c": "2"}, (0, 1, 2), target, target.flows)
    assert oracles.is_isomorphism_onto(TREFOIL, good)
    bad = CF({"a": "1", "b": "0", "c": "2"}, (0, 1, 2), target, target.flows)
    assert not oracles.is_isomorphism_onto(TREFOIL, bad)


def test_fox_colorings():
    assert oracles.fox_colorings(TREFOIL) == 9
    assert oracles.fox_colorings(FIGURE_EIGHT) == 3
    assert oracles.fox_colorings(comte("a", [])) == 3
    assert oracles.fox_colorings(FIGURE_EIGHT, p=5) == 25


def test_torus_knot_gauss():
    assert oracles.torus_knot_gauss(3) == "O1+U2+O3+U1+O2+U3+"
    assert oracles.torus_knot_gauss(3, [7, 4, 9], 1) == "U4+O9+U7+O4+U9+O7+"


def test_torus_alexander_and_normalization():
    assert oracles.torus_alexander(3) == {0: 1, 1: -1, 2: 1}
    assert oracles.normalize_up_to_unit({-2: -1, -1: 1, 0: -1}) == {0: 1, 1: -1, 2: 1}
    assert oracles.normalize_up_to_unit({}) == {}


def test_dihedral_counts():
    assert oracles.dihedral_count_torus(3, 3) == 9
    assert oracles.dihedral_count_torus(5, 3) == 3
    assert oracles.dihedral_count_torus(5, 5) == 25
    assert oracles.dihedral_count_torus(9, 3) == 9


R3 = [[(2 * x - y) % 3 for y in range(3)] for x in range(3)]
# The tetrahedral quandle, x |> y = (1 + w) x + w y over GF(4) with elements
# ordered 0, 1, w, 1 + w; each element fixes itself and cycles the others.
S4 = [[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]]


def test_braid_transfer():
    # R_3 colourings of T(2,n) are the Fox 3-colourings: 9 on the trefoil.
    assert oracles.braid_transfer_count(R3, 3) == 9
    assert oracles.braid_transfer_count(R3, 5) == 3
    # The trefoil has 16 tetrahedral colourings (4 trivial, 12 surjective).
    assert oracles.braid_transfer_count(S4, 3) == 16
    assert oracles.braid_transfer_count(S4, 5) == 4
    # sigma_1 closes to the unknot, which has only the 4 trivial colourings.
    assert oracles.braid_transfer_count(S4, 1) == 4


def test_rack_orbits_and_betti():
    assert oracles.rack_orbits(R3) == 1
    assert oracles.rack_orbits(S4) == 1
    trivial = [[y for y in range(3)] for _ in range(3)]
    assert oracles.rack_orbits(trivial) == 3
    assert [oracles.rack_betti(3, n) for n in (1, 2)] == [3, 9]
    assert [oracles.quandle_betti(3, n) for n in (1, 2, 3)] == [3, 6, 12]
    assert [oracles.quandle_betti(1, n) for n in (1, 2)] == [1, 0]


def test_burnside():
    # One vertex: no arrow, or the loop labelled by the vertex.
    assert oracles.burnside_classes(1) == 2
    assert oracles.burnside_classes(1, q_only=True) == 1
    # Two vertices: 7 partial injections per label, 49 structures; the swap
    # fixes the 7 whose second injection is the conjugate of the first.
    assert oracles.burnside_classes(2) == (49 + 7) // 2
    assert oracles.burnside_classes(2, q_only=True) == (4 + 2) // 2


def test_small_canonical_and_kinds():
    g1 = G(("a", "b"), (A("a", "b", "a"), A("b", "a", "a")))
    g2 = G(("p", "q"), (A("p", "q", "q"), A("q", "p", "q")))
    assert oracles.small_canonical(g1) == oracles.small_canonical(g2)
    assert oracles.is_r_graph(g1)
    assert not oracles.is_q_graph(g1)
    q = G(("a", "b"), (A("a", "a", "a"), A("b", "b", "b"), A("b", "b", "a")))
    assert oracles.is_q_graph(q)
    assert not oracles.is_r_graph(G(("a", "b"), (A("a", "a", "b"), A("a", "b", "b"))))


def test_valid_coloring():
    g = G(("a", "b", "c"), TREFOIL.arrows)
    assert oracles.valid_coloring(g, R3, {"a": 0, "b": 1, "c": 2})
    assert oracles.valid_coloring(g, R3, {"a": 1, "b": 1, "c": 1})
    assert not oracles.valid_coloring(g, R3, {"a": 0, "b": 0, "c": 1})


def test_speed_probe_samples_while_started():
    import time

    probe = SpeedProbe()
    assert probe.scale() == 1.0
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
        with probe.paused():
            taken = len(probe.samples)
            time.sleep(0.12)
            assert len(probe.samples) == taken
        assert probe.running
    finally:
        probe.stop()
    assert taken >= 3 and all(t > 0 for t in probe.samples)
    assert probe.spent == sum(probe.samples) and probe.scale() > 0
    # samples slowed by work outside the reference loop do not move the scale
    probe.samples = [SpeedProbe.REFERENCE_S] * 9 + [50 * SpeedProbe.REFERENCE_S]
    assert probe.scale() == 1.0 and probe.summary()["samples"] == 10


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "cpu_s", "peak_rss_mib"]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
