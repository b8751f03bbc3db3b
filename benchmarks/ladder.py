"""Size ladder: for each super-linear query, the largest rung that finishes
under a per-rung cap.  Reference only; it is not part of the gated runs.

    python3 benchmarks/ladder.py [--cap 2.0]

Each rung runs in one child process under the cap (and the child's memory
cap, see ``common.run_isolated``); a family stops at its first rung that does
not finish.  Prints one JSON line per family: every rung tried with its
processor seconds, and the largest rung finished.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from common import import_comtes, run_isolated  # noqa: E402
from workloads import canonical_key, delta_1, r5_colorings  # noqa: E402


def families(C):
    def torus(n):
        return C.comte_of_gauss(C.parse_gauss_code(oracles.torus_knot_gauss(n)))

    odd = range(3, 41, 2)
    return {
        "canonical_key T(2,n)": (canonical_key, ((n, torus(n)) for n in odd)),
        "canonical_key k isolated vertices": (
            canonical_key,
            ((k, C.comte([f"p{i}" for i in range(k)], [])) for k in range(2, 41)),
        ),
        "Delta_1 T(2,n)": (delta_1, ((n, torus(n).graph) for n in odd)),
        "R_5 colourings T(2,n)": (r5_colorings, ((n, torus(n).graph) for n in odd)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cap", type=float, default=2.0, help="seconds allowed to one rung")
    args = ap.parse_args(argv)
    C = import_comtes()
    for family, (fn, rungs) in families(C).items():
        tried, largest = [], None
        for size, arg in rungs:
            status, seconds, _ = run_isolated(fn, (arg,), args.cap)
            tried.append({"size": size, "status": status, "seconds": round(seconds, 4)})
            if status != "ok":
                break
            largest = size
        print(json.dumps({"family": family, "cap_s": args.cap, "largest_finished": largest, "rungs": tried}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
