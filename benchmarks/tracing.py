"""Span tracing of the comtes layers, installed from outside the package.

``Tracer.install`` replaces each public layer function listed in ``LAYERS``
with a wrapper in every ``comtes`` module that refers to it by name, so calls
made inside the package are traced as well as calls made by the benchmark.
``uninstall`` puts the originals back.  Nothing in the package is edited.

Spans are kept in flat arrays (name, start, end, parent) and written out at
the end of the run.  Times are read from the tracer's clock, processor time
of the benchmark process by default; self time is a span's duration minus
the durations of its direct child spans.  Counters are taken after a span
closes, so their small cost lands in the caller's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module that defines the function, function name, span name)
LAYERS = (
    ("core", "canonical_form", "core.canonical_form"),
    ("moves", "enumerate_moves", "moves.enumerate_moves"),
    ("moves", "inverse_instances", "moves.inverse_instances"),
    ("moves", "apply_move_detailed", "moves.apply_move"),
    ("moves", "equivalent_bounded", "moves.search"),
    ("census", "enumerate_r_graphs", "census.enumerate"),
    ("census", "enumerate_q_graphs", "census.enumerate"),
    ("homology", "homology_range", "homology.homology_range"),
    ("homology", "chain_basis", "homology.chain_basis"),
    ("homology", "hom_tuples", "homology.hom_tuples"),
    ("homology", "boundary_matrix", "homology.boundary_matrix"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("alexander", "minors_gcd", "alexander.minors_gcd"),
    ("laurent", "laurent_gcd", "laurent.laurent_gcd"),
    ("coloring", "colorings", "coloring.colorings"),
    ("coloring", "phi_invariant", "coloring.phi_invariant"),
    ("links", "comte_of_gauss", "links.comte_of_gauss"),
)

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = (
    ("core.canonical_form.calls", "count", "lower"),
    ("core.canonical_form.self_s", "s", "lower"),
    ("core.canonical_form.max_call_s", "s", "lower"),
    ("moves.enumerate_moves.instances", "count", "lower"),
    ("moves.enumerate_moves.self_s", "s", "lower"),
    ("moves.inverse_instances.instances", "count", "lower"),
    ("moves.inverse_instances.self_s", "s", "lower"),
    ("moves.apply_move.calls", "count", "lower"),
    ("moves.apply_move.errors", "count", "lower"),
    ("moves.apply_move.self_s", "s", "lower"),
    ("moves.search.self_s", "s", "lower"),
    ("moves.search.canonicalized", "count", "lower"),
    ("moves.search.canon_oversize", "count", "lower"),
    ("moves.search.kept_ratio", "ratio", "higher"),
    ("census.enumerate.canonicalized", "count", "lower"),
    ("census.enumerate.classes", "count", "higher"),
    ("census.enumerate.self_s", "s", "lower"),
    ("homology.homology_range.calls", "count", "lower"),
    ("homology.homology_range.self_s", "s", "lower"),
    ("homology.chain_basis.calls", "count", "lower"),
    ("homology.hom_tuples.calls", "count", "lower"),
    ("homology.hom_tuples.self_s", "s", "lower"),
    ("homology.hom_tuples.generators", "count", "lower"),
    ("homology.builds_per_basis", "ratio", "lower"),
    ("homology.boundary_matrix.calls", "count", "lower"),
    ("homology.boundary_matrix.self_s", "s", "lower"),
    ("homology.boundary_matrix.nonzeros", "count", "lower"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.self_s", "s", "lower"),
    ("linalg.smith_normal_form.nonzeros", "count", "lower"),
    ("linalg.smith_normal_form.max_cols", "count", "lower"),
    ("alexander.minors_gcd.calls", "count", "lower"),
    ("alexander.minors_gcd.self_s", "s", "lower"),
    ("alexander.minors", "count", "lower"),
    ("laurent.laurent_gcd.self_s", "s", "lower"),
    ("coloring.colorings.calls", "count", "lower"),
    ("coloring.colorings.found", "count", "higher"),
    ("coloring.colorings.self_s", "s", "lower"),
    ("coloring.phi_invariant.self_s", "s", "lower"),
    ("links.comte_of_gauss.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _nonzeros(matrix) -> int:
    return sum(1 for row in matrix for v in row if v)


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.bases: set = set()
        self.search_budgets: list = []
        self.search_kept: set = set()
        self.searches = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, fn, span: str, after):
        if span not in self.name_ids:
            self.name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self.name_ids[span]
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.active[span] = tracer.active.get(span, 0) + 1
            result = error = None
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.span_end[idx] = clock()
                tracer.stack.pop()
                tracer.active[span] -= 1
                if after is not None:
                    after(args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- per-layer counters, called after each span closes ---------------

    def _after_canonical(self, args, kwargs, cf, error):
        if error is not None:
            return
        if self.active.get("census.enumerate"):
            self._count("census.enumerate.canonicalized")
        if self.active.get("moves.search") and self.search_budgets:
            budget = self.search_budgets[-1]
            self._count("moves.search.canonicalized")
            if len(cf.graph.vertices) > budget.max_vertices or len(cf.graph.arrows) > budget.max_arrows:
                self._count("moves.search.canon_oversize")
            else:
                self.search_kept.add((self.searches, cf.key))

    def _after_apply(self, args, kwargs, res, error):
        if type(error).__name__ == "MoveError":
            self._count("moves.apply_move.errors")

    def _search_enter(self, fn, budget_cls):
        tracer = self

        def with_budget(c1, c2, budget=None, **kwargs):
            tracer.searches += 1
            tracer.search_budgets.append(budget or budget_cls())
            try:
                return fn(c1, c2, budget, **kwargs)
            finally:
                tracer.search_budgets.pop()

        return with_budget

    def _after_len(self, counter):
        def after(args, kwargs, result, error):
            if error is None:
                self._count(counter, len(result))

        return after

    def _after_chain_basis(self, args, kwargs, result, error):
        n, g = args[0], args[1]
        q = kwargs.get("q_quotient", args[2] if len(args) > 2 else False)
        self.bases.add((g, n, bool(q)))

    def _after_boundary(self, args, kwargs, m, error):
        if error is None:
            self._count("homology.boundary_matrix.nonzeros", _nonzeros(m))

    def _after_snf(self, args, kwargs, res, error):
        matrix = args[0]
        self._count("linalg.smith_normal_form.nonzeros", _nonzeros(matrix))
        ncols = len(matrix[0]) if matrix else 0
        if ncols > self.counts.get("linalg.smith_normal_form.max_cols", 0):
            self.counts["linalg.smith_normal_form.max_cols"] = ncols

    def _after_gcd(self, args, kwargs, res, error):
        if self.active.get("alexander.minors_gcd"):
            self._count("alexander.minors")

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap every function of ``LAYERS`` wherever a module of ``package``
        refers to it by name."""
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(package.__name__ + ".") and m
        ]
        after = {
            "core.canonical_form": self._after_canonical,
            "moves.apply_move": self._after_apply,
            "moves.enumerate_moves": self._after_len("moves.enumerate_moves.instances"),
            "moves.inverse_instances": self._after_len("moves.inverse_instances.instances"),
            "census.enumerate": self._after_len("census.enumerate.classes"),
            "homology.chain_basis": self._after_chain_basis,
            "homology.hom_tuples": self._after_len("homology.hom_tuples.generators"),
            "homology.boundary_matrix": self._after_boundary,
            "linalg.smith_normal_form": self._after_snf,
            "laurent.laurent_gcd": self._after_gcd,
            "coloring.colorings": self._after_len("coloring.colorings.found"),
        }
        for mod_name, fn_name, span in LAYERS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapped = self._wrap(original, span, after.get(span))
            if span == "moves.search":
                wrapped = self._search_enter(wrapped, home.SearchBudget)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    self._patched.append((m, fn_name, original))
                    setattr(m, fn_name, wrapped)

    def uninstall(self):
        for m, fn_name, original in reversed(self._patched):
            setattr(m, fn_name, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total self time and longest call per span name, plus the
        counters, under the names of ``PER_LAYER``."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        longest = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            longest[k] = max(longest[k], dur[i])
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            out[f"{name}.max_call_s"] = longest[k]
        out.update(self.counts)
        canonicalized = self.counts.get("moves.search.canonicalized", 0)
        out["moves.search.kept_ratio"] = len(self.search_kept) / canonicalized if canonicalized else 0.0
        builds = out.get("homology.hom_tuples.calls", 0)
        out["homology.builds_per_basis"] = builds / len(self.bases) if self.bases else 0.0
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\n"
                )
