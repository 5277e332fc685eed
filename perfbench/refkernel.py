"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared host the same Python code runs up to twice as fast in one second
as in the next, and the slowdown is in user time: contention for the core,
its caches and memory, not scheduling.  So the benchmark samples the speed of
this kernel all through a run and reports op times at the kernel's nominal
speed, so that a figure moves when vrank's code changes and much less when a
neighbour gets busy.

``Sampler`` runs one ``chunk()`` every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, that is, inside the code being timed, between two of its
bytecodes.  ``Sampler.start()`` and ``stop()`` time a stretch of code: its
wall time without the chunks run inside it, and the slowdown those chunks
show (with the most recent earlier ones when the stretch is too short to hold
``MIN_SAMPLES``).

The kernel is frozen: it uses nothing of vrank, and its work (a memoised
branch-and-bound over bitmask rows, the kind of interpreter work the
visible-rank search does: big-int masks, a dict memo, sorts) is the same on
every call.  Changing it or ``NOMINAL_S`` changes every reported figure, so
both stay as they are for as long as figures are compared.
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque
from dataclasses import dataclass

#: Seconds one ``chunk()`` takes, run between an op's bytecodes, on the
#: 2-vCPU Xeon host the benchmark was defined on when that host was quiet;
#: figures are reported at this speed.
NOMINAL_S = 0.0015
INTERVAL_S = 0.02
MIN_SAMPLES = 8
_NODES = 300


def _rows() -> list[int]:
    rng = random.Random(20211027)
    return [sum(1 << c for c in rng.sample(range(72), rng.randint(3, 7))) for _ in range(60)]


_ROWS = _rows()


def chunk() -> int:
    """One unit of reference work; returns the number of nodes visited."""
    visited: dict[int, int] = {}
    nodes = 0
    best = 0

    def dfs(B: int, depth: int, cands: list[int]) -> None:
        nonlocal nodes, best
        if nodes >= _NODES:
            return
        nodes += 1
        best = max(best, depth)
        prev = visited.get(B)
        if prev is not None and prev >= depth:
            return
        visited[B] = depth
        live = sorted((m for m in cands if m & ~B), key=lambda m: ((m & ~B).bit_count(), m))
        for m in live[:4]:
            dfs(B | m, depth + 1, live)

    dfs(0, 0, _ROWS)
    return nodes


def timed_chunk() -> float:
    """Seconds one ``chunk()`` takes."""
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


@dataclass
class Window:
    """A timed stretch: ``elapsed`` seconds, of which the chunks run inside
    it took ``inside``, and the machine's ``slowdown`` against nominal speed
    meanwhile."""

    elapsed: float
    inside: float
    slowdown: float

    @property
    def wall(self) -> float:
        return self.elapsed - self.inside

    @property
    def nominal(self) -> float:
        return self.wall / self.slowdown


class Sampler:
    """Samples the reference kernel every ``INTERVAL_S`` while entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=MIN_SAMPLES)
        self._busy = False
        self._t0 = 0.0

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.samples.append(timed_chunk())
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        """Start a stretch."""
        self.samples = []
        self._t0 = time.perf_counter()

    def stop(self) -> Window:
        """End the stretch that ``start`` began."""
        inside, self.samples = self.samples, []
        elapsed = time.perf_counter() - self._t0
        basis = inside if len(inside) >= MIN_SAMPLES else list(self._recent) + inside
        self._recent.extend(inside)
        if not basis:  # a first stretch too short for a single sample
            basis = [timed_chunk()]
        return Window(elapsed, sum(inside), sum(basis) / len(basis) / NOMINAL_S)
