"""Campaign-level progress and the one campaign monitor.

A sweep is a campaign of independent simulations; its progress signal
(``k/n points, ETA``) belongs to the same telemetry surface as the
per-run heartbeat, so :class:`CampaignProgress` streams through the
``repro.telemetry`` logger namespace — anything already consuming the
run heartbeat (``--progress``) sees campaign progress for free.

:class:`CampaignMonitor` is the observability of every campaign
executor: the supervised sweep pool, the durable service and the
cluster dispatcher each build one.  It keeps named counters from one
vocabulary (:data:`COUNTERS`), labelled last-value gauges, and spans on
tracks exported as Chrome trace events (``coyote-sim sweep
--chrome-trace``).  All of it is host-side: none of it enters a result
table.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, Hashable

logger = logging.getLogger("repro.telemetry.campaign")

# Every counter an executor keeps; each starts at 0 in every monitor.
COUNTERS = (
    # supervised attempts of the sweep pool
    "attempts", "heartbeats", "reaped",
    # failed attempts, and the pool's or the cluster's step-downs
    "retries", "quarantined", "degradations",
    # the service's queue, leases and result cache
    "submits", "points_submitted", "rejected", "claims", "completions",
    "cache_hits", "cache_misses", "cache_corrupt", "lease_expired",
    "released", "stale_writes",
    # the cluster dispatcher's nodes and grants
    "nodes_registered", "node_heartbeats", "nodes_dead", "rebalanced",
    "grants",
)


class CampaignProgress:
    """Streams ``k/n points, ETA`` as points of a campaign complete.

    ``clock`` is injectable so tests can drive deterministic timelines.
    The ETA is the classic remaining-work estimate: mean seconds per
    completed point times points outstanding — deliberately simple, it
    is a heartbeat, not a scheduler.
    """

    def __init__(self, total: int, label: str = "sweep",
                 clock: Callable[[], float] = time.monotonic,
                 sink: Callable[[str], None] | None = None):
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.label = label
        self.completed = 0
        self.failed = 0
        self._clock = clock
        self._sink = sink or logger.info
        self._start = clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion (None before the first point)."""
        if not self.completed:
            return None
        remaining = self.total - self.completed
        return self.elapsed / self.completed * remaining

    def point_completed(self, settings: dict[str, Any] | None = None,
                        failed: bool = False) -> str:
        """Record one finished point and emit the progress line."""
        self.completed += 1
        if failed:
            self.failed += 1
        eta = self.eta_seconds()
        percent = (100.0 * self.completed / self.total if self.total
                   else 100.0)
        parts = [f"{self.label}: {self.completed}/{self.total} points "
                 f"({percent:.0f}%)",
                 f"elapsed {self.elapsed:.1f}s"]
        if eta is not None and self.completed < self.total:
            parts.append(f"eta {eta:.1f}s")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if failed and settings is not None:
            parts.append(f"last failure {settings}")
        line = ", ".join(parts)
        self._sink(line)
        return line


class CampaignMonitor:
    """Counters, gauges and spans of one campaign executor.

    The executors report every lifecycle transition through four
    operations: :meth:`count` a named counter (optionally logging one
    line through the sink), set a labelled :meth:`gauge` (a point's
    last heartbeat, a node's liveness, the queue), and
    :meth:`open_span` / :meth:`close_span` around an attempt or a grant,
    kept as Chrome trace complete-events so a whole campaign's timeline
    opens in Perfetto.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Callable[[str], None] | None = None):
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.gauges: dict[Hashable, dict[str, float]] = {}
        self.open_spans: dict[Hashable, float] = {}
        self._clock = clock
        self._sink = sink or logger.info
        self._origin = clock()
        self._events: list[dict] = []
        self._tracks: dict[str, int] = {}

    def count(self, name: str, line: str | None = None,
              amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``; log ``line`` if given."""
        self.counters[name] += amount
        if line is not None:
            self._sink(line)

    def gauge(self, label: Hashable, **values: float) -> None:
        """Replace the last values of the gauge ``label``."""
        self.gauges[label] = values

    def _now_us(self) -> float:
        return (self._clock() - self._origin) * 1e6

    def open_span(self, key: Hashable) -> None:
        self.open_spans[key] = self._now_us()

    def close_span(self, key: Hashable, name: str, track: int | str,
                   cat: str, **args: Any) -> None:
        """End the span opened under ``key`` (a no-op if none is open).

        An ``int`` track is a bare trace thread id; a ``str`` track is
        named, and gets the next free id on first use.
        """
        start = self.open_spans.pop(key, None)
        if start is None:
            return
        if isinstance(track, str):
            track = self._tracks.setdefault(track, len(self._tracks))
        self._events.append({
            "name": name, "cat": cat, "ph": "X", "pid": 1, "tid": track,
            "ts": round(start, 3),
            "dur": round(self._now_us() - start, 3),
            "args": args,
        })

    def chrome_trace(self) -> dict:
        """The closed spans as a Chrome trace-event document."""
        names = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                  "args": {"name": track}}
                 for track, tid in self._tracks.items()]
        return {"traceEvents": names + self._events,
                "displayTimeUnit": "ms"}
