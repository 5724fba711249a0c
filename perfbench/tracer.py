"""Span tracer for the benchmark's per-layer run.

Every span is recorded from outside the simulator: the tracer replaces
a function on its owning class or module with a wrapper that times the
call, and puts the original back on :meth:`Tracer.uninstall`.  Wrappers
go on the *class*, not on instances, and must be installed before the
``Simulation`` is built, because the cycle loop and the memory
hierarchy hoist bound methods (``send=self.noc.route``,
``advance_cycle = scheduler.advance_cycle``) when they are constructed.

Spans nest on one stack.  A span's self time is its duration minus the
time covered by the spans it contains, so the self times of every span
sum to the duration of the top-level spans; :meth:`check_conservation`
compares that sum against a wall clock the caller took independently.

Hooks that fire once per vector element or per retired instruction are
only counted (:meth:`count`): timing them would cost more than the work
they do and distort the layer they sit in.

Forked workers record into their own copy of the tracer; they write it
to a file as they finish (:meth:`Tracer.worker`), and
:func:`load_workers` sums the files in the parent.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path

#: Largest accepted gap between the summed self times and the
#: independently measured wall time, as a share of the wall time.
CONSERVATION_TOLERANCE = 0.005


class ConservationError(RuntimeError):
    """The traced layers do not add up to the measured wall time."""


class _PipeEnd:
    """A worker's pipe end that calls ``before`` ahead of sending a
    ``("result", ...)`` message; heartbeats pass straight through."""

    def __init__(self, conn: Connection, before):
        self._conn = conn
        self._before = before

    def send(self, message) -> None:
        if message[0] == "result":
            self._before()
        self._conn.send(message)

    def __getattr__(self, attr: str):
        return getattr(self._conn, attr)


class Tracer:
    """Nested wall-time spans plus plain call counters."""

    def __init__(self):
        # One child-time accumulator per open span, innermost last.
        self._stack: list[float] = []
        # span name -> [calls, total seconds, self seconds, extra count]
        self.spans: dict[str, list] = {}
        # counter name -> [calls]
        self.counts: dict[str, list] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def _replace(self, owner, attr: str, make) -> None:
        try:
            original = vars(owner)[attr]
        except KeyError:
            raise AttributeError(
                f"{owner!r} defines no {attr!r} of its own") from None
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def time(self, owner, attr: str, name: str, hit=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``hit(result)``, when given, marks calls whose result it accepts;
        their number is the span's extra count (cache hits).
        """
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        def make(original):
            def timed(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - child
                    if stack:
                        stack[-1] += elapsed
                if hit is not None and hit(result):
                    stat[3] += 1
                return result
            timed.__wrapped__ = original
            return timed

        self._replace(owner, attr, make)

    def worker(self, owner, attr: str, name: str, directory: Path) -> None:
        """Trace ``owner.attr`` as the entry point of forked workers.

        A worker inherits the wrappers, but its spans land in its own
        copy of the tracer, and its parent may kill it as soon as the
        result has arrived.  So the entry zeroes that copy and opens span
        ``name``.  The span ends just before the worker sends its result
        (a ``("result", ...)`` message, as both campaign executors ship
        it) over a pipe passed to the entry, or when the entry returns
        without sending one.  Then the worker writes its statistics to
        ``directory/<pid>.json``, for :func:`load_workers`.
        """
        def make(original):
            def entry(*args, **kwargs):
                self.reset()
                stat = self._stat(name)
                stack = self._stack
                start = time.perf_counter()
                stack.append(0.0)
                ended = []

                def end() -> None:
                    if ended:
                        return
                    elapsed = time.perf_counter() - start
                    ended.append(elapsed)
                    child = stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - child
                    data = self.dump()
                    data["wall_s"] = elapsed
                    path = directory / f"{os.getpid()}.json"
                    partial = path.with_suffix(".partial")
                    partial.write_text(json.dumps(data))
                    os.replace(partial, path)

                args = [_PipeEnd(arg, end)
                        if isinstance(arg, Connection) else arg
                        for arg in args]
                try:
                    return original(*args, **kwargs)
                finally:
                    end()
            entry.__wrapped__ = original
            return entry

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        counter = self.counts.setdefault(name, [0])

        def make(original):
            def counted(*args, **kwargs):
                counter[0] += 1
                return original(*args, **kwargs)
            counted.__wrapped__ = original
            return counted

        self._replace(owner, attr, make)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stat = self._stat(name)
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - child
            if stack:
                stack[-1] += elapsed

    def reset(self) -> None:
        """Zero every span and counter and drop open spans.

        A forked worker calls this first: it inherits the wrappers and
        the parent's open spans, which never close in the child.  The
        wrappers hold the statistic lists, so they are zeroed in place.
        """
        self._stack.clear()
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0, 0]
        for counter in self.counts.values():
            counter[0] = 0

    def dump(self) -> dict:
        """The statistics, as JSON-ready data for :meth:`merge`."""
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, data: dict) -> None:
        """Add statistics :meth:`dump` produced, in another process."""
        for name, stat in data["spans"].items():
            mine = self._stat(name)
            for index, value in enumerate(stat):
                mine[index] += value
        for name, counter in data["counts"].items():
            self.counts.setdefault(name, [0])[0] += counter[0]

    def uninstall(self) -> None:
        """Put every replaced function back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.spans.get(name)
        if stat is not None:
            return stat[0]
        return self.counts.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0, 0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0, 0])[2]

    def hits(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0, 0])[3]

    def check_conservation(self, wall_s: float) -> float:
        """Raise unless the self times sum to ``wall_s``.

        ``wall_s`` is the wall time of the traced region measured by the
        caller, outside every span.  Returns the relative error.
        """
        if self._stack:
            raise ConservationError(
                f"{len(self._stack)} span(s) still open")
        negative = {name: stat[2] for name, stat in self.spans.items()
                    if stat[2] < -1e-6}
        if negative:
            raise ConservationError(
                f"negative self time (overlapping spans): {negative}")
        summed = sum(stat[2] for stat in self.spans.values())
        if wall_s <= 0:
            raise ConservationError(f"empty traced region ({wall_s} s)")
        error = abs(summed - wall_s) / wall_s
        if error > CONSERVATION_TOLERANCE:
            raise ConservationError(
                f"layer self times sum to {summed:.6f} s but the traced "
                f"region took {wall_s:.6f} s (error {error:.2%}, "
                f"tolerance {CONSERVATION_TOLERANCE:.2%})")
        return error


def load_workers(directory: Path) -> tuple[Tracer, int, float]:
    """Sum the statistics the workers wrote to ``directory``.

    Returns the summed tracer, the number of workers and the largest
    conservation error of one worker against its own wall time.
    """
    total = Tracer()
    error = 0.0
    paths = sorted(directory.glob("*.json"))
    for path in paths:
        data = json.loads(path.read_text())
        one = Tracer()
        one.merge(data)
        error = max(error, one.check_conservation(data["wall_s"]))
        total.merge(data)
    return total, len(paths), error
