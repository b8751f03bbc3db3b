"""Child process of ``common.run_isolated``: one operation under a deadline
and a memory cap.

Reads a pickled ``(fn, args, seconds)`` from standard input, caps the address
space at what the process holds after start-up plus CHILD_HEADROOM_BYTES,
runs ``fn(*args)`` under a ``seconds`` interval timer and writes a pickled
``(status, seconds used, result)`` to standard output.  Anything ``fn``
prints goes to standard error, so it cannot corrupt the reply.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

# Memory the child may allocate beyond what it holds after start-up.
CHILD_HEADROOM_BYTES = 256 << 20


class DeadlineExceeded(Exception):
    """Raised inside an operation that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def main() -> int:
    reply_to = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    fn, args, seconds = pickle.load(sys.stdin.buffer)
    with open("/proc/self/statm") as f:
        in_use = int(f.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (in_use + CHILD_HEADROOM_BYTES, resource.RLIM_INFINITY))
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        reply = ("ok", time.process_time() - t0, result)
    except DeadlineExceeded:
        reply = ("deadline", time.process_time() - t0, None)
    except MemoryError:
        reply = ("memory", time.process_time() - t0, None)
    except Exception as exc:
        reply = ("error", time.process_time() - t0, repr(exc))
    pickle.dump(reply, reply_to)
    reply_to.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
