"""Import of comtes from the checkout's sources, seeded relabeling, a probe
of the machine's speed, and operations run in a child process under a
deadline and a memory cap."""

from __future__ import annotations

import importlib
import pickle
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"


def import_comtes():
    """Import ``comtes`` afresh from ``<checkout>/src``, dropping any copy
    already imported, so that repeated calls each pay the full import."""
    package_dir = SRC / "comtes"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no comtes sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "comtes" or m.startswith("comtes.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("comtes")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"benchmark: imported comtes from {package.__file__}, not from {package_dir}")
    return package


def relabel(C, obj, rng):
    """A copy of a comte or bare graph with seeded vertex names, vertex order
    and arrow order; isomorphic to ``obj`` by construction."""
    verts = list(obj.vertices)
    names = [f"x{i}" for i in rng.sample(range(10 * len(verts) + 10), len(verts))]
    rename = dict(zip(verts, names))
    rng.shuffle(names)
    order = list(range(len(obj.arrows)))
    rng.shuffle(order)
    arrows = [obj.arrows[i] for i in order]
    triples = [(rename[a.source], rename[a.target], rename[a.label]) for a in arrows]
    if isinstance(obj, C.Comte):
        return C.comte(names, [t + (obj.flows[i],) for t, i in zip(triples, order)])
    return C.graph(names, triples)


def _reference_loop():
    """Fixed interpreter work that no change to comtes can speed up or slow
    down: integer arithmetic and dict stores, then small sorted tuples used as
    dict keys, the kind of work canonical forms and chain bases do."""
    s = 0
    d = {}
    for i in range(750):
        s = (s * 31 + i) % 1000003
        d[i & 63] = s
    keys = {}
    for i in range(60):
        t = tuple(sorted([(i * 7919 + k * 104729) % 1009 for k in range(6)]))
        keys[t] = keys.get(t, 0) + 1
    return s + len(keys)


class SpeedProbe:
    """Times ``_reference_loop`` every INTERVAL_S of wall time from a SIGALRM
    handler, while started.

    On a shared virtual machine the processor time of identical work drifts
    with the host's load, by up to 20% within minutes.  Timing a fixed loop
    alongside the work and rescaling by ``scale()`` removes most of that
    drift: the rescaled time is the processor time the work would take at the
    speed where the loop takes REFERENCE_S.  Anything else a sample absorbs (a
    garbage collection of the workload's heap, an interrupt, caches emptied by
    the workload) can only make it slower, so the scale drops the slowest
    tenth of the samples and takes the mean of the rest: a few outliers do not
    move it, and it follows the host's speed more closely than the mean or the
    median of all samples.  ``spent`` is the processor time used by the probe
    itself, which timings subtract.  A real-time timer is used because a
    profiling timer makes the kernel read process CPU time at tick
    granularity.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 250e-6

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.running = False

    def _sample(self, signum, frame):
        t0 = time.process_time()
        _reference_loop()
        dt = time.process_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextmanager
    def paused(self):
        was_running = self.running
        if was_running:
            self.stop()
        try:
            yield
        finally:
            if was_running:
                self.start()

    def scale(self) -> float:
        """REFERENCE_S over the mean probe time, the slowest tenth of the
        samples left out; 1.0 before any sample."""
        if not self.samples:
            return 1.0
        kept = sorted(self.samples)[: len(self.samples) - len(self.samples) // 10]
        return self.REFERENCE_S / statistics.fmean(kept)

    def summary(self) -> dict:
        """The scale, the number of samples and their (Q3 - Q1) / median."""
        spread = None
        if len(self.samples) >= 2:
            q1, median, q3 = statistics.quantiles(self.samples, n=4)
            spread = (q3 - q1) / median
        return {"scale": self.scale(), "samples": len(self.samples), "spread": spread}


# Time the child may take to start and read its operation, and time past the
# deadline, after which a child that has not answered is killed.
CHILD_STARTUP_S = 60.0
CHILD_GRACE_S = 1.0


def run_isolated(fn, args, seconds: float):
    """Run ``fn(*args)`` in one child process (``child.py``), which may use
    ``seconds`` of wall time and ``child.CHILD_HEADROOM_BYTES`` of fresh
    memory; ``fn`` and ``args`` must pickle by reference to a module other
    than ``__main__``.

    Returns (status, seconds used, result): status ``ok``, ``deadline``,
    ``memory`` or ``error`` (then the result is the exception's repr).  A
    pure-Python loop is stopped by the interval timer; an allocation that
    runs in native code without returning to the interpreter is stopped by
    the address-space cap, as a MemoryError.  The child has ended, and been
    waited for, when this returns or raises.
    """
    payload = pickle.dumps((fn, args, seconds))
    with subprocess.Popen([sys.executable, str(CHILD)], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            reply, _ = child.communicate(payload, timeout=CHILD_STARTUP_S + seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            return ("deadline", seconds, None)
        except BaseException:
            child.kill()
            raise
    if not reply:
        return ("error", seconds, f"child exited with code {child.returncode}")
    return pickle.loads(reply)
