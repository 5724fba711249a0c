"""Host-speed probe: express measured wall times in reference-host time.

On the shared 2-CPU host this benchmark was built on, the speed of
pure-Python work drifts by 20-40% over minutes as other tenants load the
shared cores and caches.  Over ten 20-second runs the raw ``sim_mips``
of sim-scalar spread by 25% (interquartile range over median), far more
than any bound worth enforcing, and more work per run cannot average
out a drift that lasts minutes.

So every timed simulation, every campaign series and the campaign's
setup repetitions are bracketed by probes, taken in the process that
times them: a fixed pure-Python task of about 45 ms that calls 300 small
functions over a dict and compiles their source.  Its wall time is
scaled by ``REFERENCE_S`` over the mean of the probes just before and
just after it: the time it would have taken with the host running at
the reference speed.  In two ten-run trials on that host, bracketing
cut the spread of the simulated MIPS from 9% and 21% to 5% and 6%
(sim-scalar), 15% and 11% to 4% and 6% (sim-vector) and 18% and 10%
to 6% and 3% (sim-observed).  The probe measures the CPU its process
runs on, so it tracks work done in that process only: the campaign's
pool and cold service series, whose points run in forked workers, are
left unscaled (``campaign.FORKED_SERIES``).

The probe runs only this module and the standard library, never the
simulator, but it runs in the simulator's process, so the simulator's
state is kept out of its way.  The caller empties the compiled-block
cache before a probe wherever the next timed work starts cold anyway
(every simulation of the sim-* workloads).  The probe runs a full
collection untimed and then times its task with the garbage collector
off, so neither the simulator's live heap nor collector settings that
``src/repro`` may change can cost the probe time.  Allocator and CPU
cache state left behind by the simulator can still move it a little;
a probe in a child process of its own avoids that, but on this host it
tracked the simulations' speed worse (ten-run spreads of 8-10% against
raw 6-7%), so it is not used.  Each run's record keeps the raw values.
"""

from __future__ import annotations

import gc
import time

#: The probe's duration, in seconds, at the reference host speed: its
#: median on the development host when the benchmark was defined.
REFERENCE_S = 0.045

_FUNCTIONS = 300
_SOURCE = "\n".join(
    f"def f{i}(x, d):\n"
    f"    y = d.get(x % {97 + i}, {i})\n"
    f"    d[x % {131 + i}] = y + x\n"
    f"    return (y * {i + 3}) & 0xFFFF\n"
    for i in range(_FUNCTIONS))
_CALLS = 60_000


class HostSpeed:
    """Brackets timed work with probes and returns its scale factors."""

    def __init__(self):
        namespace: dict = {}
        exec(compile(_SOURCE, "<hostspeed>", "exec"), namespace)
        self._functions = [namespace[f"f{i}"] for i in range(_FUNCTIONS)]
        self.probes: list[float] = []
        self._last = self.probe()

    def _task(self) -> None:
        functions = self._functions
        table: dict = {}
        value = 0
        for i in range(_CALLS):
            value = functions[(i * 7 + value) % _FUNCTIONS](i, table)
        compile(_SOURCE, "<hostspeed>", "exec")

    def probe(self) -> float:
        """Seconds the probe task takes now (the faster of two tries),
        with the garbage collector off."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            best = None
            for _ in range(2):
                start = time.perf_counter()
                self._task()
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
        finally:
            if enabled:
                gc.enable()
        self.probes.append(best)
        return best

    def scale_since_last(self) -> float:
        """Probe now; returns the factor that scales wall times measured
        since the previous probe to the reference host speed."""
        after = self.probe()
        bracket = (self._last + after) / 2
        self._last = after
        return REFERENCE_S / bracket
