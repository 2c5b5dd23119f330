"""Helpers shared by the benchmark workloads.

The workloads import `padic_dynamics` from the checkout's own `src`
directory (see `load_program`), build their inputs from a seed, run
whole rounds of certificates, and check the outputs of a round with the
benchmark's own integer arithmetic.  `speed_probe` times a fixed
reference loop, by which run.py scales its time metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def load_program():
    """Import padic_dynamics from <checkout>/src and nowhere else.

    Raises ImportError when the checkout holds no program, so that the
    benchmark fails instead of timing some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "padic_dynamics" / "__init__.py").is_file():
        raise ImportError(f"no padic_dynamics package under {src}")
    sys.path.insert(0, str(src))
    import padic_dynamics
    if Path(padic_dynamics.__file__).resolve().parent.parent != src:
        raise ImportError(
            f"padic_dynamics resolved to {padic_dynamics.__file__}, not {src}")


def val(m: int, p: int, cap: int) -> int:
    """p-adic valuation of m, capped at cap (m == 0 gives cap)."""
    if m == 0:
        return cap
    v = 0
    while m % p == 0 and v < cap:
        m //= p
        v += 1
    return v


def norm_key(n) -> tuple:
    """A NormValue as plain data: (prime, exponent, bound_exp).

    Outputs are compared as tuples so that two norms of different primes
    or different certified bounds never compare equal.
    """
    return (n.prime, n.exponent, n.bound_exp)


def first_failure(items, bad) -> Optional[str]:
    """The first message bad(item) returns for items, or None."""
    for item in items:
        msg = bad(item)
        if msg:
            return msg
    return None


# The speed probe: a fixed pure-Python loop in two halves, the kinds of
# work the program spends its time on.  One half does table lookups,
# integer arithmetic and dict stores; the other calls a function that
# allocates a small object and keys a dict by tuples.  Its time tracks how
# fast the shared machine runs Python right now; the two halves together
# track the program better than either alone, since the machine's slow
# phases do not slow every kind of work alike.
REF_TABLE = [(7 * i + 3) % 1024 for i in range(1024)]
REF_LOOKUPS = 30_000
REF_CALLS_PER_LOOP = 6_000
REF_REPEATS = 5
REF_S = 0.010        # nominal probe time that the time metrics are scaled to


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _make_pair(x, y):
    return _Pair(x % 7, y // 3)


def _reference_loop():
    t, seen, x, s = REF_TABLE, {}, 0, 0
    for i in range(REF_LOOKUPS):
        x = t[(x + i) & 1023]
        s += x % 3
        seen[x] = i
    keyed, recent = {}, []
    for i in range(REF_CALLS_PER_LOOP):
        q = _make_pair(i, 3 * i)
        keyed[q.a, q.b & 255] = q
        recent.append(len(keyed))
        if len(recent) > 512:
            recent.clear()
    return s, len(seen), len(keyed)


def speed_probe() -> tuple:
    """Median wall-clock and CPU seconds of one reference loop, over
    REF_REPEATS calls made now."""
    walls, cpus = [], []
    for _ in range(REF_REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        _reference_loop()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
