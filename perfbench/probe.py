"""The speed probe: a fixed pure-Python loop that measures how fast this
interpreter runs right now, and the clock that rescales timings by it.

On a shared virtual machine the speed of one vCPU drifts between regimes
that last from a tenth of a second to several seconds; on the 2-vCPU VM the
reference figures were taken on, one fixed loop ran up to twice as long in
some spells as in others.  CPU time drifts the same way, so neither wall nor
process time is steady.  The probe runs every SAMPLE_INTERVAL_S from a SIGALRM handler,
between two bytecodes of whatever the process is doing, and the clock turns
each stretch of program time between two probes into *normalised* time:

    normalised = stretch * NOMINAL_PROBE_S / (duration of the probe closing it)

which is the time the stretch would have taken on a machine where the probe
runs in exactly NOMINAL_PROBE_S.  Time spent inside the handler is excluded
from every timing.  Probes taken only between operations cannot follow a
regime change inside a long operation; see README.md for the measurement
that chose the in-flight sampler.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# The probe's nominal duration and size.  Never change either: every
# normalised figure ever recorded is in units of this constant.
PROBE_ITERATIONS = 100
NOMINAL_PROBE_S = 100e-6
SAMPLE_INTERVAL_S = 0.005

now = time.perf_counter


def probe() -> int:
    """Fixed pure-Python work shaped like the program's inner loops: small
    tuples, frozensets, dict updates, bit operations and calls."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        t = (i, i ^ 5, i * 3)
        s = frozenset(t)
        table[i & 63] = len(s) + (acc & 7)
        acc = (acc * 31 + sum(t)) & 0xFFFFFFFF
        if i in s:
            acc ^= 1
    return acc + len(table)


class SpeedClock:
    """Runs the probe periodically and maps wall-clock instants to
    cumulative normalised time.

    Each sample is (handler start, handler end, probe duration).  Program
    time between the end of one handler and the start of the next is
    scaled by the probe of the later handler, taken as the median of it and
    its two neighbours so that one disturbed probe does not skew a stretch.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._running = False
        self._bps: list[float] | None = None

    def _sample(self, *_args) -> None:
        # The collector stays off for the probe so that a collection the
        # program's allocations have made due never lands inside it.
        enabled = gc.isenabled()
        gc.disable()
        t0 = now()
        probe()
        t1 = now()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1, t1 - t0))
        self._bps = None

    def start(self) -> None:
        self.origin = now()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        """Stop sampling; a final probe closes the last stretch."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self._sample()

    def _build(self) -> None:
        # Breakpoints are the origin and each handler's start and end; the
        # segment after breakpoint i advances normalised time at
        # _slopes[i] and program time at 1 (0 inside a handler).
        bps = [self.origin]
        norm = [0.0]
        prog = [0.0]
        slopes: list[float] = []
        prev_end = self.origin
        samples = list(self.samples)    # the handler may append meanwhile
        durs = [d for _, _, d in samples]
        for i, (t0, t1, _) in enumerate(samples):
            gap = max(0.0, t0 - prev_end)
            slope = NOMINAL_PROBE_S / statistics.median(durs[max(0, i - 1):i + 2])
            bps += [t0, t1]
            norm += [norm[-1] + gap * slope] * 2
            prog += [prog[-1] + gap] * 2
            slopes += [slope, 0.0]
            prev_end = t1
        self._bps, self._norm, self._prog, self._slopes = bps, norm, prog, slopes

    def _at(self, t: float) -> tuple[float, float]:
        """(normalised, program) time accumulated from the origin to t."""
        if self._bps is None:
            self._build()
        bps = self._bps
        i = bisect.bisect_right(bps, t) - 1
        if i < 0:
            return 0.0, 0.0
        if i >= len(self._slopes):
            # after the last probe: no closing probe, keep the last speed
            last = self._slopes[-2] if self._slopes else 1.0
            return self._norm[i] + (t - bps[i]) * last, self._prog[i] + t - bps[i]
        inside = self._slopes[i] == 0.0
        return (self._norm[i] + (t - bps[i]) * self._slopes[i],
                self._prog[i] + (0.0 if inside else t - bps[i]))

    def normalised(self, t0: float, t1: float) -> float:
        """Normalised program time between two instants."""
        return self._at(t1)[0] - self._at(t0)[0]

    def program(self, t0: float, t1: float) -> float:
        """Wall time between two instants, less the time spent probing."""
        return self._at(t1)[1] - self._at(t0)[1]

    def first_speed(self) -> float:
        """Scale factor of the first probe, for time before the clock ran."""
        return NOMINAL_PROBE_S / self.samples[0][2] if self.samples else 1.0
