"""Calibration probe: a fixed mix of numpy row work and Python object churn.

The speed of a shared host drifts by 15 % or more over minutes, which moves
every pass time of a run together.  The runner (run.py) times this probe
between passes and scales pass times by a reference probe time over the
run's median probe time, so runs made at different host speeds compare.

Run as a script it serves run.py: for each input line "n" it prints n
probe times on one line.  Keeping the probe in its own process keeps numpy
out of run.py, whose memory a forked worker's ru_maxrss would include.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

class Probe:
    """The probe's input is built once; each call times one fixed piece of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.permuted(np.tile(np.arange(24, dtype=np.uint8), (40000, 1)), axis=1)
        self.index = self.rows[::-1].astype(np.intp)

    def __call__(self) -> float:
        start = perf_counter()
        composed = np.take_along_axis(self.rows, self.index, axis=1)
        keys = composed.view(np.dtype((np.void, composed.shape[1]))).ravel()
        np.searchsorted(np.sort(keys), keys)
        table = {(i % 97, i): (i, str(i)) for i in range(60000)}
        sorted(table.values(), key=lambda v: -v[0])
        return perf_counter() - start


def main() -> int:
    probe = Probe()
    probe()  # warm-up call, not reported
    for line in sys.stdin:
        print(" ".join(repr(probe()) for _ in range(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
