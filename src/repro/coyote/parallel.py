"""The parallel sweep execution engine, supervised.

Coyote exists for "the fast comparison of different designs", but a
cartesian campaign run serially leaves every host core but one idle.
:class:`ParallelSweep` fans sweep points out to a pool of worker
*processes* — one process per point, at most ``workers`` alive at a
time — and reassembles the results in deterministic axis order, so a
``workers=N`` table is bit-identical to a ``workers=1`` table
(``SweepTable.to_dict()`` compares equal byte for byte).

Design decisions, in the order they matter:

* **Determinism.**  Every worker rebuilds its point's full
  configuration (seeded fault injection, telemetry, watchdog) from the
  same ``base + settings`` recipe as the serial loop — the shared
  :func:`~repro.coyote.sweep.run_point` — and the parent orders
  outcomes by point index, never by completion order.  Retry backoff
  jitter is seeded (policy seed × point index × attempt), never drawn
  from wall time.
* **Crash isolation.**  One process per point means a worker that dies
  hard (segfault, ``os._exit``, OOM-kill) loses that point only: the
  parent observes the EOF on the result pipe plus the exit code, reads
  the worker's captured stderr tail, and records a
  :class:`WorkerCrash` failure, exactly like any other
  ``on_error="skip"`` failure.
* **One worker lifecycle.**  :class:`WorkerSet` starts, polls and
  reaps the workers of all three executors: this pool, the campaign
  service and the cluster node.  Every reap is SIGTERM, a grace, then
  SIGKILL, so no executor waits without bound on a worker: not on one
  that lingers after its result, not on a stopped one at cleanup.
* **Supervision.**  With a
  :class:`~repro.resilience.supervisor.SupervisorPolicy`, every
  attempt runs under the full lifecycle: workers send periodic
  ``(cycles, RSS)`` heartbeats over the result pipe, the parent
  enforces a per-point wall-clock timeout, a heartbeat deadline and an
  RSS ceiling, reaps overdue workers, re-dispatches
  with bounded seeded backoff, and quarantines a point that exhausts
  its retries as a structured
  :class:`~repro.resilience.supervisor.QuarantinedPoint`.  Repeated
  pool-level failures (fork failures, RSS trips) step the pool down
  ``N → N/2 → … → 1 → serial`` with logged
  :class:`~repro.resilience.supervisor.DegradationEvent` records
  instead of aborting.
* **Error transport.**  A worker-side exception crosses the process
  boundary only if it survives a local pickle round-trip; otherwise a
  picklable :class:`RemoteError` stand-in carries the original type
  name and message, so failure records stay identical either way.
* **Warm-start.**  With ``campaign_path`` set, every completed point is
  appended to an atomic campaign checkpoint
  (:func:`repro.resilience.checkpoint.save_campaign`); a restarted
  campaign loads it and only runs the missing points — including
  quarantined ones, which are never re-executed.  A SIGINT mid-campaign
  drains the pool and still flushes the partial checkpoint before the
  interrupt propagates.
* **Progress.**  ``progress=True`` streams ``k/n points, ETA`` through
  the ``repro.telemetry`` logger namespace
  (:class:`~repro.telemetry.campaign.CampaignProgress`); the supervised
  lifecycle reports to a
  :class:`~repro.telemetry.campaign.CampaignMonitor`, the monitor every
  executor builds (heartbeat gauges per point, retry/quarantine
  counters, per-attempt Chrome trace spans).

The engine uses the ``fork`` start method where the platform offers it
(workload factories may be closures); on spawn-only platforms the
factory must be picklable (a module-level function).
"""

from __future__ import annotations

import io
import logging
import multiprocessing
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable

from repro.coyote.errors import SimulationError
from repro.coyote.sweep import (
    Sweep,
    SweepPoint,
    SweepTable,
    _canonical_value,
    run_point,
)
from repro.resilience import supervisor as supervision
from repro.resilience.checkpoint import (
    CampaignCorruptError,
    load_campaign,
    save_campaign,
)
from repro.resilience.locking import PathLock
from repro.resilience.supervisor import Supervisor, SupervisorPolicy
from repro.telemetry.campaign import CampaignMonitor, CampaignProgress

logger = logging.getLogger("repro.coyote.parallel")

# How long an executor waits on its workers' pipes (or sleeps, with
# none running) when nothing is ready.
_WAIT_SECONDS = 0.05

# Per-thread signal masks (POSIX only); WorkerSet.spawn blocks SIGINT
# across the fork with it.
_SIGMASK = getattr(signal, "pthread_sigmask", None)


class WorkerCrash(SimulationError):
    """A sweep worker process died without reporting a result.

    ``exit_code`` and ``stderr_tail`` (the last ~2 KB the worker wrote
    to stderr) ride along as structured details so crash points are
    diagnosable from the failure record alone.
    """


class RemoteError(SimulationError):
    """Stand-in for a worker exception that could not cross the
    process boundary; ``kind`` preserves the original type name."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def __reduce__(self):
        return (RemoteError, (self.kind, str(self.args[0])))


def _portable_error(error: Exception | None) -> Exception | None:
    """The error itself if it survives pickling, else a RemoteError."""
    if error is None:
        return None
    try:
        pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RemoteError(type(error).__name__, str(error))
    return error


def _worker_main(conn, index: int, settings: dict[str, Any],
                 base_cores: int, base_overrides: dict[str, Any],
                 make_workload: Callable, require_verified: bool,
                 heartbeat_seconds: float = 0.0,
                 stderr_path: str | None = None) -> None:
    """Run one point in a child process and ship the outcome back.

    The entry of every :class:`WorkerSet` worker.  The child's stderr
    (fd 2) is redirected to ``stderr_path`` first, so whatever a dying
    worker manages to print — a traceback, an allocator complaint — is
    recoverable by the parent.  Then it unblocks SIGINT, which the
    parent blocked across the fork.  With
    ``heartbeat_seconds > 0`` a daemon thread streams ``("hb", index,
    cycles, rss_mb)`` tuples over the same pipe the result travels on;
    a lock keeps the two senders from interleaving a message.
    """
    if stderr_path is not None:
        try:
            fd = os.open(stderr_path,
                         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            os.dup2(fd, 2)
            os.close(fd)
            # Rebind sys.stderr onto the redirected fd 2: a forked child
            # inherits the parent's stderr *object*, which may not write
            # through fd 2 at all (a test harness capture, a logging
            # shim) — and writing into a parent-owned buffer from the
            # child is wrong either way.
            sys.stderr = io.TextIOWrapper(
                io.FileIO(2, "w", closefd=False), line_buffering=True)
        except OSError:
            pass
    # WorkerSet.spawn forks with SIGINT blocked; take it back here, once
    # stderr is captured, so a pending one lands in the capture file.
    if _SIGMASK is not None:
        _SIGMASK(signal.SIG_UNBLOCK, {signal.SIGINT})
    send_lock = threading.Lock()
    stop = threading.Event()
    probe: dict[str, Any] = {"simulation": None}

    def beat() -> None:
        while True:
            if not supervision.heartbeats_suppressed():
                simulation = probe["simulation"]
                cycles = 0
                if simulation is not None:
                    try:
                        cycles = (simulation.orchestrator.scheduler
                                  .current_cycle)
                    except Exception:
                        pass
                try:
                    with send_lock:
                        conn.send(("hb", index, cycles,
                                   supervision.worker_rss_mb()))
                except Exception:
                    return
            if stop.wait(heartbeat_seconds):
                return

    thread = None
    if heartbeat_seconds > 0:
        thread = threading.Thread(target=beat, daemon=True,
                                  name="coyote-heartbeat")
        thread.start()

    def observe(simulation) -> None:
        probe["simulation"] = simulation

    try:
        point = run_point(settings, base_cores, base_overrides,
                          make_workload, require_verified,
                          on_simulation=observe)
        point.error = _portable_error(point.error)
    except BaseException as exc:  # run_point never raises; belt & braces
        point = SweepPoint(settings, None, False, _portable_error(exc))
    if thread is not None:
        stop.set()
        thread.join(timeout=1.0)
    try:
        with send_lock:
            conn.send(("result", index, point))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # Results themselves must be picklable (the checkpoint subsystem
        # guarantees it); if something slipped through, degrade to a
        # failure record rather than losing the campaign slot.
        with send_lock:
            conn.send(("result", index, SweepPoint(
                settings, None, False,
                RemoteError(type(exc).__name__,
                            f"sweep point result was not picklable: "
                            f"{exc}"))))
    finally:
        conn.close()


def settings_key(settings: dict[str, Any]) -> tuple:
    """A canonical, hashable identity of one point's settings."""
    return tuple((name, _canonical_value(value))
                 for name, value in settings.items())


def axes_key(axes: dict[str, list]) -> str:
    """A canonical identity of a sweep's axes (campaign-file guard)."""
    return repr({name: [_canonical_value(value) for value in values]
                 for name, values in axes.items()})


@dataclass
class Worker:
    """One live worker; ``state`` is its executor's own bookkeeping."""

    process: Any
    conn: Any
    stderr_path: str
    index: int
    settings: dict[str, Any]
    state: Any


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# A worker's stderr capture file: "<prefix><executor pid>-<random>.stderr"
# in the temp directory.
_CAPTURE_PREFIX = "coyote-worker-"


def _sweep_orphan_captures() -> None:
    """Remove the capture files of executors that are gone (a SIGKILLed
    executor never retires its workers)."""
    with os.scandir(tempfile.gettempdir()) as entries:
        for entry in entries:
            name = entry.name
            if not (name.startswith(_CAPTURE_PREFIX)
                    and name.endswith(".stderr")):
                continue
            owner = name[len(_CAPTURE_PREFIX):].split("-", 1)[0]
            if owner.isdigit() and not _pid_alive(int(owner)):
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass


class WorkerSet:
    """The forked single-point workers of one executor (the sweep pool,
    the campaign service or a cluster node).

    Each worker runs ``target(conn, index, settings, *args,
    stderr_path)``, :func:`_worker_main`'s signature, and sends its
    ``"hb"`` and ``"result"`` messages over ``conn``.  What a message or
    a death means is the executor's business.  Building a set removes
    the stderr capture files that dead executors left behind.
    """

    def __init__(self, mp_context: str | None = None,
                 term_grace_seconds: float = 2.0):
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.context = multiprocessing.get_context(mp_context)
        self.term_grace_seconds = term_grace_seconds
        self._workers: dict[Any, Worker] = {}
        _sweep_orphan_captures()

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self):
        """The live workers, as a snapshot safe to retire from."""
        return iter(list(self._workers.values()))

    def spawn(self, target: Callable, index: int,
              settings: dict[str, Any], args: tuple,
              state: Any) -> Worker:
        """Start one worker and add it to the set.

        SIGINT is blocked while the process forks: its handler would
        otherwise run in an at-fork hook, where CPython discards the
        ``KeyboardInterrupt``.  Pending instead, it raises here once the
        worker is in the set, where the caller's cleanup finds it.
        """
        parent_conn, child_conn = self.context.Pipe(duplex=False)
        fd, stderr_path = tempfile.mkstemp(
            prefix=f"{_CAPTURE_PREFIX}{os.getpid()}-", suffix=".stderr")
        os.close(fd)
        mask = (_SIGMASK(signal.SIG_BLOCK, {signal.SIGINT})
                if _SIGMASK is not None else None)
        try:
            process = self.context.Process(
                target=target,
                args=(child_conn, index, settings, *args, stderr_path),
                daemon=True)
            process.start()
            worker = Worker(process, parent_conn, stderr_path, index,
                            settings, state)
            self._workers[parent_conn] = worker
        except BaseException:
            parent_conn.close()
            os.unlink(stderr_path)
            raise
        finally:
            child_conn.close()
            if _SIGMASK is not None:
                _SIGMASK(signal.SIG_SETMASK, mask)
        return worker

    def poll(self, timeout: float):
        """Wait up to ``timeout`` seconds on the workers' pipes.

        Yields ``(worker, message)`` for each ready worker; ``message``
        is ``None`` when the worker died (EOF before its result).
        """
        if not self._workers:
            return
        for conn in connection.wait(list(self._workers), timeout):
            worker = self._workers.get(conn)
            if worker is None:
                continue  # retired earlier in this pass
            try:
                message = conn.recv()
            except EOFError:
                message = None
            yield worker, message

    def retire(self, worker: Worker) -> str:
        """Make sure ``worker`` is dead (SIGTERM, the grace, then
        SIGKILL, which also ends a stopped process), close its pipe and
        drop it from the set; returns its stderr tail."""
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(self.term_grace_seconds)
            if process.is_alive():
                process.kill()
        process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        self._workers.pop(worker.conn, None)
        tail = supervision.read_stderr_tail(worker.stderr_path)
        try:
            os.unlink(worker.stderr_path)
        except OSError:
            pass
        return tail

    def retire_all(self) -> None:
        for worker in self:
            self.retire(worker)


@dataclass
class _Attempt:
    """The pool's bookkeeping for one in-flight attempt."""

    attempt: int
    started: float
    last_beat: float
    beats: list = field(default_factory=list)   # [(cycles, rss_mb)]


class ParallelSweep:
    """Campaign executor behind :meth:`repro.coyote.sweep.Sweep.run`.

    ``workers=1`` executes in-process (no fork overhead, but also no
    crash isolation); ``workers=N`` runs at most N single-point worker
    processes at a time.  ``on_error="skip"`` records failures and
    carries on; ``"raise"`` terminates every outstanding worker at the
    first observed failure and re-raises — prompt, but which failing
    point surfaces first is completion-order dependent, so deterministic
    campaigns should prefer ``"skip"``.

    A supervised ``policy`` always uses the worker pool (even for
    ``workers=1``): timeouts and reaping need process isolation.
    """

    def __init__(self, sweep: Sweep, *, workers: int = 1,
                 on_error: str = "raise", require_verified: bool = True,
                 progress: bool = False, campaign_path=None,
                 mp_context: str | None = None,
                 policy: SupervisorPolicy | None = None):
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.sweep = sweep
        self.workers = workers
        self.on_error = on_error
        self.require_verified = require_verified
        self.progress = progress
        self.campaign_path = campaign_path
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.policy.validate()
        self.monitor = CampaignMonitor()
        self.supervisor = Supervisor(self.policy, monitor=self.monitor)
        self._workers = WorkerSet(mp_context,
                                  self.policy.term_grace_seconds)

    # -- public entry ------------------------------------------------------

    def run(self, make_workload: Callable) -> SweepTable:
        if self.campaign_path is None:
            return self._run(make_workload)
        # Advisory lock: a second process pointed at the same campaign
        # fails fast instead of silently interleaving atomic replaces.
        with PathLock(self.campaign_path):
            return self._run(make_workload)

    def _run(self, make_workload: Callable) -> SweepTable:
        started = time.perf_counter()
        points = self.sweep.points()
        outcomes: dict[int, SweepPoint] = {}
        completed_store: dict[tuple, SweepPoint] = {}
        key = axes_key(self.sweep.axes)
        if self.campaign_path is not None:
            try:
                completed_store = load_campaign(self.campaign_path, key)
            except CampaignCorruptError as exc:
                # Damage, not misuse: warn and recompute from scratch
                # rather than refusing to run the campaign at all.
                logger.warning(
                    "campaign checkpoint %s is corrupt (%s); "
                    "starting cold", self.campaign_path, exc)
                completed_store = {}
            for index, settings in enumerate(points):
                stored = completed_store.get(settings_key(settings))
                if stored is not None:
                    outcomes[index] = stored
        pending = [(index, settings)
                   for index, settings in enumerate(points)
                   if index not in outcomes]
        reporter = CampaignProgress(len(points)) if self.progress else None
        if reporter is not None and outcomes:
            for index in sorted(outcomes):
                reporter.point_completed(points[index],
                                         failed=outcomes[index].failed)

        def record(index: int, point: SweepPoint) -> None:
            outcomes[index] = point
            if reporter is not None:
                reporter.point_completed(point.settings,
                                         failed=point.failed)
            if self.campaign_path is not None:
                completed_store[settings_key(point.settings)] = point
                save_campaign(self.campaign_path, key, completed_store)
            if point.failed and self.on_error == "raise":
                raise point.error

        try:
            self._run_pool(pending, make_workload, record)
        except KeyboardInterrupt:
            # The pool was drained by _run_pool's finally; persist what
            # the campaign already computed before the interrupt
            # propagates (the CLI maps it to exit 130).
            if self.campaign_path is not None:
                save_campaign(self.campaign_path, key, completed_store)
            raise

        table = SweepTable(
            axes=self.sweep.axes,
            points=[outcomes[index] for index in range(len(points))],
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            degradations=list(self.supervisor.degradations))
        return table

    # -- the worker pool ---------------------------------------------------

    def _spawn(self, index: int, settings: dict[str, Any],
               make_workload: Callable, attempt: int = 1) -> Worker:
        """Start one single-point worker under supervision state."""
        now = time.monotonic()
        worker = self._workers.spawn(
            _worker_main, index, settings,
            (self.sweep.base_cores, self.sweep.base_overrides,
             make_workload, self.require_verified,
             self.policy.heartbeat_interval_seconds),
            state=_Attempt(attempt, now, now))
        self.monitor.count("attempts")
        self.monitor.open_span((index, attempt))
        return worker

    def _end_attempt(self, worker: Worker, outcome: str) -> None:
        """Close the attempt's trace span, on the point's own track."""
        attempt = worker.state.attempt
        self.monitor.close_span(
            (worker.index, attempt),
            f"point[{worker.index}] attempt {attempt}", worker.index,
            "sweep", outcome=outcome, settings=str(worker.settings))

    def _run_pool(self, pending: list[tuple[int, dict[str, Any]]],
                  make_workload: Callable,
                  record: Callable[[int, SweepPoint], None]) -> None:
        policy = self.policy
        supervisor = self.supervisor
        workers = self._workers
        queue: deque = deque(pending)
        retries: list[tuple[float, int, dict[str, Any]]] = []
        current_workers = self.workers
        # One unsupervised worker: run in-process from the start.
        serial_mode = self.workers == 1 and not policy.supervised

        def on_death(worker: Worker, outcome: str) -> None:
            """One attempt died (crash observed or worker reaped):
            record the failure, then retry or quarantine."""
            tail = workers.retire(worker)
            exit_code = worker.process.exitcode
            self._end_attempt(worker, outcome)
            if not policy.supervised:
                record(worker.index, SweepPoint(
                    worker.settings, None, False,
                    WorkerCrash(
                        f"sweep worker for point {worker.settings} died "
                        f"without reporting a result "
                        f"(exit code {exit_code})",
                        exit_code=exit_code, stderr_tail=tail)))
                return
            action, payload = supervisor.record_failure(
                worker.index, worker.settings, outcome, exit_code, tail,
                worker.state.beats)
            if action == "retry":
                retries.append((time.monotonic() + payload, worker.index,
                                worker.settings))
            else:
                record(worker.index, SweepPoint(
                    worker.settings, None, False, payload))

        def reap(worker: Worker, outcome: str) -> None:
            """Kill an attempt the supervisor gave up on."""
            self.monitor.count("reaped", f"sweep point {worker.settings}: "
                                         f"worker reaped ({outcome})")
            on_death(worker, outcome)

        def degrade(reason: str) -> None:
            nonlocal current_workers, serial_mode
            stepped = supervisor.pool_failure(reason, current_workers)
            if stepped is None:
                return
            if stepped == 0:
                serial_mode = True
            else:
                current_workers = stepped

        try:
            while queue or retries or workers:
                now = time.monotonic()
                # Release retries whose backoff elapsed, in index order.
                due = sorted((item for item in retries if item[0] <= now),
                             key=lambda item: item[1])
                if due:
                    retries = [item for item in retries if item[0] > now]
                    queue.extend((index, settings)
                                 for _release, index, settings in due)

                if serial_mode and not workers:
                    # In-process execution, and the graceful-degradation
                    # floor: no isolation left, but the campaign still
                    # terminates with every point accounted for.
                    leftovers = sorted(
                        list(queue) + [(index, settings) for _release,
                                       index, settings in retries])
                    for index, settings in leftovers:
                        record(index, run_point(
                            settings, self.sweep.base_cores,
                            self.sweep.base_overrides, make_workload,
                            self.require_verified))
                    return

                while (queue and not serial_mode
                       and len(workers) < current_workers):
                    index, settings = queue.popleft()
                    attempt = supervisor.attempt_number(index)
                    try:
                        self._spawn(index, settings, make_workload,
                                    attempt)
                    except OSError as exc:
                        queue.appendleft((index, settings))
                        if not policy.degrade_after:
                            raise
                        degrade(f"worker spawn failed: {exc}")
                        break

                if not workers and (queue or retries):
                    time.sleep(_WAIT_SECONDS)

                for worker, message in workers.poll(_WAIT_SECONDS):
                    state = worker.state
                    if message is None:
                        on_death(worker, "crash")
                    elif message[0] == "hb":
                        _tag, _index, cycles, rss_mb = message
                        state.last_beat = time.monotonic()
                        state.beats.append((cycles, rss_mb))
                        del state.beats[:-supervision.HEARTBEAT_TRAIL]
                        self.monitor.count("heartbeats")
                        self.monitor.gauge(worker.index, cycles=cycles,
                                           rss_mb=rss_mb)
                        if (policy.max_rss_mb is not None
                                and rss_mb > policy.max_rss_mb):
                            reap(worker, "rss-exceeded")
                            degrade(f"worker RSS {rss_mb:.0f} MB over "
                                    f"the {policy.max_rss_mb:.0f} MB "
                                    f"ceiling")
                    else:
                        _tag, received_index, point = message
                        self._end_attempt(
                            worker, "failed" if point.failed else "ok")
                        workers.retire(worker)
                        record(received_index, point)

                now = time.monotonic()
                for worker in workers:
                    overdue = supervisor.overdue(worker.state.started,
                                                 worker.state.last_beat,
                                                 now)
                    if overdue is not None:
                        reap(worker, overdue)
        finally:
            # on_error="raise", SIGINT, or any unexpected parent-side
            # error: don't leave orphan simulations burning the host.
            workers.retire_all()
