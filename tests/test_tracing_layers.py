"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist, so that a refactor which moves or deletes one fails
here rather than in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import comtes

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("comtes_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_function():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for mod_name, fn_name, _span in tracing.LAYERS:
        module = importlib.import_module(f"comtes.{mod_name}")
        assert inspect.isfunction(getattr(module, fn_name, None)), f"comtes.{mod_name}.{fn_name}"


def test_install_wraps_each_layer_and_uninstall_restores_it():
    tracing = _load_tracing()
    homes = [(importlib.import_module(f"comtes.{m}"), fn) for m, fn, _ in tracing.LAYERS]
    originals = [getattr(home, fn) for home, fn in homes]
    tracer = tracing.Tracer()
    try:
        tracer.install(comtes)
        for (home, fn), original in zip(homes, originals):
            assert getattr(home, fn) is not original, f"{home.__name__}.{fn} was not wrapped"
    finally:
        tracer.uninstall()
    assert [getattr(home, fn) for home, fn in homes] == originals


def test_traced_census_counts_one_canonical_form_per_class():
    # the census counters read zero if the census stops calling
    # canonical_form through the name the tracer wraps
    census = importlib.import_module("comtes.census")
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(comtes)
        census.enumerate_r_graphs(2)
        census.enumerate_q_graphs(2)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["census.enumerate.classes"] == 27 + 3
    assert metrics["census.enumerate.canonicalized"] == metrics["census.enumerate.classes"]


def test_traced_colorings_count_one_call_and_its_colorings():
    # the coloring counters read zero if colorings stops being called
    # through the name the tracer wraps, or stops returning a list
    trefoil = comtes.comte_of_gauss(comtes.parse_gauss_code("O1+U2+O3+U1+O2+U3+"))
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(comtes)
        comtes.colorings(trefoil.graph, comtes.dihedral_quandle(3))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["coloring.colorings.calls"] == 1
    assert metrics["coloring.colorings.found"] == 9


def test_traced_homology_counts_one_smith_form_per_boundary_matrix():
    # the linalg counters read zero if homology stops calling
    # smith_normal_form through the name the tracer wraps
    # a three-vertex census q-graph; its quotient bases run out at degree
    # 4, so homology_range skips the empty matrices there.  d_2 is read
    # off a spanning forest, so the Smith forms start at d_3
    g = importlib.import_module("comtes.acceptance").EXAMPLE_QGRAPH
    homology = importlib.import_module("comtes.homology")
    top = 4
    for q in (False, True):
        sizes = [len(homology.chain_basis(n, g, q_quotient=q)) for n in range(top + 2)]
        nonempty = sum(1 for k in range(3, top + 2) if sizes[k] and sizes[k - 1])
        assert nonempty
        tracer = _load_tracing().Tracer()
        try:
            tracer.install(comtes)
            homology.homology_range(g, top, q_quotient=q)
        finally:
            tracer.uninstall()
        assert tracer.layer_metrics()["linalg.smith_normal_form.calls"] == nonempty, q
