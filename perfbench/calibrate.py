"""Fixed reference computations that measure how fast the machine runs now.

The machine this benchmark was written on shares its cores: a fixed
pure-Python loop ran anywhere from 19.9 to 29.4 iterations per second over
one-second windows of the same minute.  Wall times taken minutes apart
therefore differ by far more than any bound a change could be held to.  The
runner times a reference between ops and scales each op's time by
nominal / (reference time around it), reporting times at a fixed machine
speed.  The references never import bilor, so a change to bilor moves the
op times and leaves the references alone.

* `kernel_seconds` does in-process what bilor does most: Bareiss
  eliminations on large integers and Fraction arithmetic.
* `child_seconds` starts a Python child that compiles a fixed module, as a
  `python -m bilor.cli` child does with bilor's sources.  A child's time
  tracked it far better than the in-process kernel: over 80 s of
  alternating runs, the spread of 20-run means of `bilor hilbert` children
  was 0.31 raw, 0.071 scaled by the kernel and 0.025 scaled by this child.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

# Each reference's time at the nominal speed: scaled times read as if every
# reference run had taken exactly this long.
NOMINAL_S = 1e-3
NOMINAL_CHILD_S = 50e-3

_CHILD_CODE = (
    "src = ''.join(f'def f{k}(a, b):\\n    return [x * a + b for x in range({k}) if x % 3]\\n'"
    " for k in range(400))\n"
    "compile(src, 'reference', 'exec')"
)

_rng = random.Random("perfbench-calibration")
_MATRICES = [[[_rng.randint(-10**12, 10**12) for _ in range(5)] for _ in range(5)]
             for _ in range(40)]
_FRACTIONS = [Fraction(_rng.randint(1, 999), _rng.randint(1, 999)) for _ in range(200)]


def _bareiss(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, n):
            a, mr, mk = m[r][k], m[r], m[k]
            for c in range(k + 1, n):
                mr[c] = (mr[c] * pivot - a * mk[c]) // prev
        prev = pivot
    return sign * m[-1][-1]


def kernel_seconds() -> float:
    """Wall time of one run of the reference computation (about 1 ms)."""
    t0 = perf_counter()
    total = 0
    for m in _MATRICES:
        total += _bareiss(m)
    acc = Fraction(total % 7)
    for x in _FRACTIONS:
        acc = acc + x * x
    return perf_counter() - t0


def child_seconds(env: dict, cwd: str) -> float:
    """Wall time of one reference child, start to exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _CHILD_CODE], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


class Gauge:
    """Kernel timings between a run's timed intervals, and the intervals
    scaled by them.

    Each interval is scaled by the median of the reference runs within
    `window` places on either side of it.  A single ~1 ms kernel run is
    itself noisy, so the in-process kernel uses a window of 3, which spans
    under a second of ops; a reference child is long enough to use only the
    runs just before and after.
    """

    def __init__(self, reference=kernel_seconds, nominal: float = NOMINAL_S, window: int = 3):
        self.reference, self.nominal, self.window = reference, nominal, window
        self.kernels = [reference()]  # kernels[i] ran just before interval i
        self.raw: list[float] = []

    def record(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.kernels.append(self.reference())

    def scaled(self) -> list[float]:
        """Every recorded interval at the nominal speed."""
        out = []
        for i, seconds in enumerate(self.raw):
            around = self.kernels[max(0, i - self.window):i + self.window + 2]
            out.append(seconds * self.nominal / median(around))
        return out
