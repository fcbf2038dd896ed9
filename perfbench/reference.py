"""A reference load that measures the speed of one CPU while the benchmark uses it.

    python3 perfbench/reference.py CPU OUT_FILE

On a shared host the speed of a virtual CPU changes from second to second (by
up to a factor of two here), and each CPU of the same machine changes on its
own.  Work done before or after an invocation, or on the other CPU, does not
tell how fast the invocation's CPU ran.  So this process runs beside the
invocation on the same CPU, at low priority (nice 10, about a tenth of the
CPU against one busy process), and does fixed rounds of pure-Python work of
the program's kind: small-integer tuple arithmetic, dictionary look-ups,
object creation, sorting, exact fractions.  After each round it records the
monotonic time and its own CPU time.  The scheduler interleaves the two every
few milliseconds, so the CPU seconds a round costs in a window of time tell
how fast that CPU ran in that window.

``CpuReference`` starts and stops the process and turns its marks into a
speed for any window: reference rounds per CPU second, divided by
``NOMINAL_ROUNDS_PER_S``.  A run's times are multiplied by that factor, which
expresses them at one fixed speed of the CPU.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

NICE = 10
# Reference rounds per CPU second at the speed the figures are quoted for:
# about the median this 2-CPU VM gave (single runs ranged from 550 to 1000).
NOMINAL_ROUNDS_PER_S = 700.0
# A speed is taken over at least this much time.  Narrower windows track
# the CPU better: over 40 set-up samples of about 0.12 s, a 0.2 s window left
# a spread of 4.8% between quartiles, a 1 s window 8.6%, the raw times 29%.
SPEED_WINDOW_S = 0.2


class ReferenceFailed(Exception):
    pass


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def one_round() -> int:
    """A fixed piece of work, about 1.7 ms on this machine."""
    memo: dict = {}
    cells = []
    acc = Fraction(0)
    for i in range(300):
        a = (i % 7 + 1, i % 5 + 2, i % 3)
        b = ((i * 3) % 11 + 1, (i * 5) % 7 + 1, (i * 7) % 4)
        mults = sorted((i % 4, (i >> 2) % 4, (i >> 4) % 4), reverse=True)
        value = a[0] * b[1] + a[1] * b[0] - sum(m * e for m, e in zip(mults, a))
        key = (a, tuple(mults))
        memo.setdefault(key, []).append(value)
        cells.append(_Cell(key, value))
        if i % 40 == 0:
            acc += Fraction(value, i % 9 + 1)
    cells.sort(key=lambda c: (c.value, c.key))
    return len(memo) + acc.denominator


def _serve(out: Path) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    marks = [(time.perf_counter(), time.process_time())]
    print("ready", flush=True)
    while not stop:
        one_round()
        marks.append((time.perf_counter(), time.process_time()))
    out.write_text(json.dumps(marks))


class CpuReference:
    """The reference process pinned to ``cpu``, running once it is built.

    ``stop`` ends it and reads its marks; the other methods need them.
    """

    def __init__(self, cpu: int, out: Path):
        self.out = out
        self.times: list[float] = []
        self.cpus: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu), str(out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        with self.proc.stdout:
            ready = self.proc.stdout.readline()
        if ready.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise ReferenceFailed("the reference process did not start")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ReferenceFailed("the reference process did not stop") from None
        if self.proc.returncode != 0:
            raise ReferenceFailed(f"the reference process exited {self.proc.returncode}")
        marks = json.loads(self.out.read_text())
        self.times = [m[0] for m in marks]
        self.cpus = [m[1] for m in marks]

    def _at(self, t: float) -> tuple[float, float]:
        """(rounds done, CPU seconds used) at time t, interpolated between marks."""
        if not self.times[0] <= t <= self.times[-1]:
            raise ReferenceFailed("a time outside the reference's marks")
        i = min(max(bisect.bisect_right(self.times, t), 1), len(self.times) - 1)
        t0, t1 = self.times[i - 1], self.times[i]
        share = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
        return i - 1 + share, self.cpus[i - 1] + share * (self.cpus[i] - self.cpus[i - 1])

    def cpu_used(self, start: float, end: float) -> float:
        """CPU seconds the reference took between two times."""
        return self._at(end)[1] - self._at(start)[1]

    def factor(self, start: float, end: float) -> float:
        """Speed of the CPU in [start, end] against the nominal speed.

        Windows shorter than ``SPEED_WINDOW_S`` are widened about their
        middle, within the marks.
        """
        pad = max(0.0, SPEED_WINDOW_S - (end - start)) / 2
        start = max(start - pad, self.times[0])
        end = min(end + pad, self.times[-1])
        (r0, c0), (r1, c1) = self._at(start), self._at(end)
        if c1 <= c0:
            raise ReferenceFailed("the reference got no CPU time in a window")
        return (r1 - r0) / (c1 - c0) / NOMINAL_ROUNDS_PER_S


def main(argv: list[str]) -> int:
    cpu, out = int(argv[0]), Path(argv[1])
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    _serve(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
