"""Command-line interface.

Subcommands: import, validate, invariants, colorings, statesum, homology,
moves (enumerate/apply/search), census, bracket, paper-suite.  Exit codes:
0 success, 1 computation-level failure (including an invalid document under
``validate``, and a stdout that its reader closed early), 2 usage error.
Identical invocations produce identical stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import acceptance
from .alexander import alexander_polynomial
from .census import enumerate_q_graphs, enumerate_r_graphs, signature_census
from .coloring import coloring_count, colorings, phi_invariant
from .core import Comte, DecodeError, as_comte, classify, components, decode, encode, validate
from .finitetype import SemiVirtualGraph, bracket
from .homology import homology_range
from .invariants import abelianization_rank, group_presentation, linking_matrix, quandle_presentation
from .links import LinkCodeError, comte_of_diagram, comte_of_gauss, parse_gauss_code, parse_pd_code
from .moves import MoveError, SearchBudget, apply_move, enumerate_moves, equivalent_bounded, inverse_instances
from .racks import BUILTIN_RACKS, builtin_rack, check_cocycle, epsilon, format_group_ring, parse_cocycle, parse_rack_table, tetrahedron_cocycle


class CommandError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CommandError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise CommandError(f"cannot read {path}: not UTF-8 text") from None


def _load_comte(path: str) -> Comte:
    try:
        return as_comte(decode(_read(path)))
    except DecodeError as e:
        raise CommandError(f"{path}: {e}") from None


def _load_rack(spec: str):
    if spec in BUILTIN_RACKS:
        return builtin_rack(spec)
    try:
        return parse_rack_table(_read(spec))
    except ValueError as e:
        raise CommandError(f"bad rack table {spec!r}: {e}") from None


def cmd_import(args) -> int:
    if args.gauss is not None:
        c = comte_of_gauss(parse_gauss_code(args.gauss))
    else:
        c = comte_of_diagram(parse_pd_code(args.pd))
    sys.stdout.write(encode(c))
    return 0


def cmd_validate(args) -> int:
    c = _load_comte(args.file)
    report = validate(c)
    print(report.describe())
    return 0 if report.ok else 1


def _load_valid_comte(path: str) -> Comte:
    c = _load_comte(path)
    report = validate(c)
    if not report.ok:
        raise CommandError(f"{path}: document is not a valid comte:\n" + report.describe())
    return c


def cmd_invariants(args) -> int:
    c = _load_valid_comte(args.file)
    comps = components(c.graph)
    print(f"components: {len(comps)}")
    for i, comp in enumerate(comps):
        print(f"  L{i + 1} = {{{', '.join(comp)}}}")
    print(f"abelianization rank: {abelianization_rank(c.graph)}")
    kind = classify(c.graph)
    print(f"class: {kind}-graph" if kind != "general" else "class: general")
    lk = linking_matrix(c)
    print("linking matrix:")
    for line in lk.format().splitlines():
        print("  " + line)
    for i in range(args.delta_max + 1):
        print(f"Delta_{i} = {alexander_polynomial(c.graph, i)}")
    if args.presentations:
        print("group presentation:")
        for line in group_presentation(c.graph).format().splitlines():
            print("  " + line)
        print("quandle presentation:")
        for line in quandle_presentation(c.graph).format().splitlines():
            print("  " + line)
    return 0


def cmd_colorings(args) -> int:
    c = _load_comte(args.comte)
    x = _load_rack(args.quandle)
    if not args.list:
        print(f"{coloring_count(c.graph, x)} colorings")
        return 0
    cols = colorings(c.graph, x)
    print(f"{len(cols)} colorings")
    for col in cols:
        print("  " + " ".join(f"{v}={col[v]}" for v in c.graph.vertices))
    return 0


def cmd_statesum(args) -> int:
    c = _load_valid_comte(args.comte)
    x = _load_rack(args.quandle)
    if not x.quandle:
        raise CommandError("state sums need a quandle")
    if args.cocycle == "builtin":
        if x.n != 4:
            raise CommandError("the builtin cocycle is the tetrahedron one (4 elements)")
        f = tetrahedron_cocycle()
    else:
        try:
            f = parse_cocycle(_read(args.cocycle), x.n)
        except ValueError as e:
            raise CommandError(f"bad cocycle file {args.cocycle!r}: {e}") from None
    witness = check_cocycle(x, f)
    if witness is not None:
        raise CommandError(f"not a 2-cocycle: {witness}")
    phi = phi_invariant(c, x, f)
    print(format_group_ring(phi, f.group))
    print(f"colorings: {epsilon(phi)}")
    return 0


def cmd_homology(args) -> int:
    g = _load_comte(args.file).graph
    try:  # the homology module decides its own domain
        hs = homology_range(g, args.max_degree, q_quotient=args.q)
    except ValueError as e:
        raise CommandError(str(e)) from None
    for n, h in enumerate(hs, start=1):
        print(f"H_{n} = {h.format()}")
    return 0


def cmd_moves(args) -> int:
    # the move rules hold on comtes; zeroed flows always conserve
    load = _load_comte if args.ignore_flows else _load_valid_comte
    c = load(args.comte)
    target = load(args.target) if args.action == "search" else None
    if args.ignore_flows:  # bare-graph mode, as comtes.moves defines it
        c = as_comte(c.graph)
        target = target and as_comte(target.graph)
        args.r3b_range = args.flow_lo = args.flow_hi = 0
    budget = SearchBudget(**{f.name: getattr(args, f.name) for f in fields(SearchBudget)})
    if args.action in ("enumerate", "apply"):
        pool = enumerate_moves(c, budget)
        if args.inverse:
            pool += inverse_instances(c, budget)
        if args.action == "enumerate":
            for i, m in enumerate(pool):
                print(f"{i}\t{m.format()}")
            return 0
        if not pool:
            raise CommandError(f"move index {args.index} out of range: there are no move instances")
        if not 0 <= args.index < len(pool):
            raise CommandError(f"move index {args.index} out of range (0..{len(pool) - 1})")
        sys.stdout.write(encode(apply_move(c, pool[args.index])))
        return 0
    # search
    trace = equivalent_bounded(c, target, budget)
    if trace is None:
        print("unknown (no trace within budget; not a proof of inequivalence)")
        return 0
    print(f"equivalent ({len(trace)} moves)")
    sys.stdout.write(trace.format())
    return 0


def cmd_census(args) -> int:
    enum = enumerate_q_graphs if args.family == "q" else enumerate_r_graphs
    graphs = enum(args.vertices, include_arrowless=args.include_arrowless)
    print(f"{len(graphs)} classes")
    if args.max_degree:
        cens = signature_census(graphs, args.max_degree, jobs=args.jobs)
        if args.table:
            sys.stdout.write(cens.table())
        counts = cens.distinct_counts()
        for conv in sorted(counts):
            print(f"distinct signatures [{conv}]: {counts[conv]}")
    return 0


def cmd_bracket(args) -> int:
    c = _load_comte(args.graph)
    try:
        sv = frozenset(int(v) for v in args.semivirtual.split(",")) if args.semivirtual else frozenset()
    except ValueError:
        raise CommandError(f"bad arrow index list {args.semivirtual!r}") from None
    try:
        gs = SemiVirtualGraph(c.graph, sv)
    except ValueError as e:
        raise CommandError(str(e)) from None
    sys.stdout.write(bracket(gs).format())
    return 0


def cmd_paper_suite(args) -> int:
    only = set(args.only.split(",")) if args.only else None
    results = acceptance.run_all(seed=args.seed, only=only)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {'positive' if low else 'non-negative'}, got {value}")
    return value


_non_negative_int = partial(_int_at_least, 0)
_positive_int = partial(_int_at_least, 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="comtes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    imp = sub.add_parser("import", help="build a comte document from a link code")
    src = imp.add_mutually_exclusive_group(required=True)
    src.add_argument("--gauss", help='Gauss code, e.g. "O1+U2+O3+U1+O2+U3+"')
    src.add_argument("--pd", help='PD code, e.g. "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"')
    imp.set_defaults(fn=cmd_import)

    val = sub.add_parser("validate", help="check a comte document")
    val.add_argument("file")
    val.set_defaults(fn=cmd_validate)

    inv = sub.add_parser("invariants", help="components, ranks, linking, Alexander")
    inv.add_argument("file")
    inv.add_argument("--delta-max", type=_non_negative_int, default=1, help="compute Delta_0..Delta_k")
    inv.add_argument("--presentations", action="store_true", help="print group/quandle presentations")
    inv.set_defaults(fn=cmd_invariants)

    col = sub.add_parser("colorings", help="quandle colorings of a comte's graph")
    col.add_argument("--comte", required=True)
    col.add_argument("--quandle", required=True, help="builtin name or rack table file")
    col.add_argument("--list", action="store_true")
    col.set_defaults(fn=cmd_colorings)

    ss = sub.add_parser("statesum", help="quandle 2-cocycle state sum")
    ss.add_argument("--comte", required=True)
    ss.add_argument("--quandle", required=True)
    ss.add_argument("--cocycle", required=True, help='"builtin" or a cocycle file')
    ss.set_defaults(fn=cmd_statesum)

    hom = sub.add_parser("homology", help="cubical homology (no two arrows share label and source)")
    hom.add_argument("file")
    hom.add_argument("--max-degree", type=_non_negative_int, default=5)
    hom.add_argument("--q", action="store_true", help="use the quandle quotient complex")
    hom.set_defaults(fn=cmd_homology)

    mv = sub.add_parser("moves", help="enumerate, apply, or search moves")
    mv.add_argument("action", choices=["enumerate", "apply", "search"])
    mv.add_argument("--comte", required=True)
    mv.add_argument("--inverse", action="store_true", help="include inverse instances")
    mv.add_argument("--index", type=int, default=0, help="instance to apply")
    mv.add_argument("--target", help="target comte document (search)")
    for f in fields(SearchBudget):
        mv.add_argument("--" + f.name.replace("_", "-"), type=int if f.name in ("flow_lo", "flow_hi") else _non_negative_int,
                        default=f.default, help="skip splits of vertices with more slots" if f.name == "max_split_slots" else None)
    mv.add_argument("--ignore-flows", action="store_true", help="zero the flows first (bare-graph mode)")
    mv.set_defaults(fn=cmd_moves)

    cen = sub.add_parser("census", help="enumerate r-/q-graphs up to isomorphism")
    cen.add_argument("--vertices", type=_non_negative_int, required=True)
    cen.add_argument("--class", dest="family", choices=["r", "q"], default="r")
    cen.add_argument("--max-degree", type=_non_negative_int, default=0, help="also compute homology signatures")
    cen.add_argument("--table", action="store_true", help="print the per-graph signature table")
    cen.add_argument("--include-arrowless", action="store_true")
    cen.add_argument("--jobs", type=_positive_int, default=1)
    cen.set_defaults(fn=cmd_census)

    br = sub.add_parser("bracket", help="semi-virtual bracket expansion")
    br.add_argument("--graph", required=True, help="comte/graph document")
    br.add_argument("--semivirtual", default="", help="comma-separated arrow indices")
    br.set_defaults(fn=cmd_bracket)

    ps = sub.add_parser("paper-suite", help="run the acceptance criteria")
    ps.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    ps.add_argument("--only", default="", help="comma-separated criterion ids, e.g. 1,4,5")
    ps.set_defaults(fn=cmd_paper_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "moves":
        if args.action == "search" and not args.target:
            parser.error("moves search requires --target")
        if args.flow_lo > args.flow_hi and not args.ignore_flows:  # bare-graph mode ignores the window
            parser.error(f"empty flow window: --flow-lo {args.flow_lo} > --flow-hi {args.flow_hi}")
    if getattr(args, "command", None) == "census" and args.table and not args.max_degree:
        parser.error("census --table needs a positive --max-degree: the table lists the homology signatures")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point stdout at devnull
        # so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except acceptance.UnknownCriterionError as e:
        parser.error(str(e))
    except (CommandError, LinkCodeError, MoveError, DecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
