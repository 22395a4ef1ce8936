"""Fixed calibration loops that measure the host's current speed.

The vCPU speed of the host this benchmark was tuned on drifts by up to
a factor of two over tens of seconds to minutes, the same on every
process.  The worker runs one of these loops between jobs, and
`run.py` scales every end-to-end time by `REFERENCE_S[kind]` over the
loop's median time in the same run: a time is reported as it would
read on a host where the loop takes its reference time.  The loops do
not touch antiprelie, so a change to the program leaves them as they
are.

Two kinds, matched to what a workload's jobs spend their time on:

- `interpreter`: calls, small tuples, dict updates, `Fraction`
  arithmetic and a keyed sort, like the exact checkers.
- `arrays`: a decode of 5-adic digits into an int64 table, an integer
  matrix product, a reduction mod 5 and a masked row selection over
  ~3 MB tables, like the residual scan of `brute_force_Z2`.
"""
from __future__ import annotations

from fractions import Fraction

# loop time, in seconds, of the reference host speed
REFERENCE_S = {"interpreter": 0.010, "arrays": 0.030}
# run a loop after every this much job time
EVERY_S = 0.1


def interpreter(n=1000):
    acc = Fraction(0)
    counts = {}
    rows = [[Fraction(i * 7 % 11 - 5, 1 + i % 3) for i in range(j, j + 4)]
            for j in range(n // 20)]
    for i in range(n):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
        r = rows[i % len(rows)]
        acc += r[i % 4] * r[(i + 1) % 4] - r[(i + 2) % 4]
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return acc, sum(len(str(k)) for k, _ in ordered)


def arrays(rows=50000):
    import numpy as np
    idx = np.arange(rows, dtype=np.int64)
    E = np.empty((rows, 8), dtype=np.int64)
    for k in range(8):
        E[:, k] = (idx // 5 ** k) % 5
    L = (np.arange(96, dtype=np.int64).reshape(8, 12) * 7) % 5
    ok = ~((E @ L) % 5).any(axis=1)
    S = E[ok | (idx % 3 == 0)]
    acc = np.zeros((S.shape[0], 6), dtype=np.int64)
    for a in range(4):
        acc += (S[:, a] * S[:, a + 4])[:, None] * L[a, :6][None, :]
    return int((acc % 5).sum())


LOOPS = {"interpreter": interpreter, "arrays": arrays}
