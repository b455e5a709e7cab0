"""Wall time scaled to a reference machine speed.

On a shared host the speed of a virtual CPU changes with its neighbours'
load, in steps of up to 1.7x that last from a fraction of a second to a
minute, and process CPU time moves with wall time.  A run of half a
minute can sit largely in a slow period, so raw times differ between
identical runs by more than the changes the benchmark must resolve.

``Clock`` measures that speed with a fixed probe of interpreter loops,
tuple and dict churn, ``Fraction`` sums and small LAPACK calls (the mix
of a small library op).  The probe runs in a side process pinned to the
run's CPU, every ``EVERY_S`` seconds for the whole run, so it also reads
the speed during long ops and during child processes.  A reading is the
fastest of three back-to-back probes, which drops interrupts.  The work
done in ``dt`` on a CPU whose probe takes ``d`` is that of
``dt * REF_S / d`` on the reference CPU, so an interval's scaled time is
its wall time times the mean of ``REF_S / d`` over the readings taken
within ``MARGIN_S`` of it.  The correction is partial: library code does
not slow by exactly the probe's factor.

    python3 perfbench/speed.py --side OUT PARENT_PID

runs the side process: it appends ``time duration`` lines to OUT until
it is stopped or its parent is gone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REF_S = 0.3e-3      # the probe's time on an idle CPU of the reference host
EVERY_S = 0.1
MARGIN_S = 0.2
WAIT_S = 5.0        # longest wait for a reading that covers an interval

_MATRIX = []


def probe_work() -> None:
    # numpy is imported here, not at the top, so that a run pins itself to
    # one CPU before OpenBLAS counts the CPUs and starts its threads
    import numpy as np
    if not _MATRIX:
        _MATRIX.append(np.random.RandomState(0).rand(4, 4))
    matrix = _MATRIX[0]
    acc = 0
    for i in range(600):
        acc += (i * i) % 7
    blocks = [tuple(range(i % 6)) for i in range(300)]
    index = {b + (i,): i for i, b in enumerate(blocks)}
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i, len(index) + i)
    for _ in range(4):
        np.linalg.eig(matrix)


def reading() -> tuple[float, float]:
    """(end time, fastest of three probes)."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        best = t1 - t0 if best is None else min(best, t1 - t0)
    return t1, best


def side(out: Path, parent: int) -> int:
    with open(out, "a") as f:
        while os.getppid() == parent:
            t, d = reading()
            f.write(f"{t!r} {d!r}\n")
            f.flush()
            time.sleep(EVERY_S)
    return 0


class Clock:
    """Speed readings from a side process; use as a context manager.

    Outside the context (as in the benchmark's own tests) ``scaled``
    returns raw wall time."""

    def __init__(self, path: Path | None = None):
        self.path = path
        self.proc = None
        self.readings: list[tuple[float, float]] = []
        self._offset = 0

    def __enter__(self) -> "Clock":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--side",
             str(self.path), str(os.getpid())])
        try:
            self.wait_past(time.perf_counter())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def _load(self) -> None:
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            data = f.read()
        end = data.rfind(b"\n") + 1
        self._offset += end
        for line in data[:end].decode().splitlines():
            t, d = line.split()
            self.readings.append((float(t), float(d)))

    def wait_past(self, t: float) -> None:
        """Block until a reading later than ``t`` has been written."""
        deadline = time.perf_counter() + WAIT_S
        while True:
            if self.path.exists():
                self._load()
            if self.readings and self.readings[-1][0] > t:
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the speed probe process stopped reporting")
            time.sleep(0.01)

    def scaled(self, start: float, end: float) -> float:
        if self.proc is None:
            return end - start
        self.wait_past(end + MARGIN_S)
        near = [d for t, d in self.readings
                if start - MARGIN_S <= t <= end + MARGIN_S] or \
            [min(self.readings, key=lambda r: abs(r[0] - start))[1]]
        factor = sum(REF_S / d for d in near) / len(near)
        return (end - start) * factor


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--side":
        sys.exit(__doc__)
    sys.exit(side(Path(sys.argv[2]), int(sys.argv[3])))
