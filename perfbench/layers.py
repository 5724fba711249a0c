"""Which calls each layer's spans wrap, and the per-layer metrics.

A layer is named after the module it lives in (``spike``, ``memhier``,
``sparta``, ``telemetry``, ``service``, ...).  Every ``.s`` / ``_s``
metric is a *self* time: the span's duration minus the spans nested in
it, so the reported seconds of one traced run add up to its wall time.

Which end-to-end metric each layer should move, and on which workload:

* ``assembler.build_s``, ``coyote.simulation.init_s``: ``setup_s``, all
  workloads.
* ``coyote.orchestrator.self_s`` (dispatch, translated-block execution,
  inline profiling code): ``sim_mips`` on sim-scalar and sim-observed.
* ``spike.translate.*``: ``sim_mips`` on sim-scalar; ``point_ms`` on
  campaign, whose pool and cold service points compile every block.
* ``spike.interp.*``, ``spike.translated_share``,
  ``spike.vector.elem_ops``, ``memhier.*``, ``sparta.scheduler.*``:
  ``sim_mips`` on sim-vector.
* ``telemetry.*``: ``sim_mips`` on sim-observed only.
* ``coyote.sweep.*``, ``coyote.parallel.*``, ``service.*``: ``point_ms``
  on campaign only.

On campaign, ``pool`` and ``service_cold`` simulate every point in a
forked worker.  The worker's entry function is traced too
(:meth:`Tracer.worker`) up to the moment the worker sends its result:
the service may kill a worker as soon as the result arrives.  Each
worker writes its spans to a file, and
``spike.translate.*``, ``coyote.sweep.run_point.s`` and
``coyote.parallel.worker_self_s`` add the workers' figures to the
parent's, so the cold compile of pool and service points is counted.

A traced run must see every metric in :data:`REQUIRED` for its
workload above zero: a wrapper that stops firing (``src`` binds the
method before the wrapper goes on, or calls it through an alias) would
otherwise read as 0.  Counts that an optimisation may rightly bring to
zero (interpreted steps, per-element vector accesses, per-instruction
profile hooks) are not required.
"""

from __future__ import annotations

import inspect
import multiprocessing.connection
import multiprocessing.process
from pathlib import Path

from tracer import Tracer

# Span names that are the benchmark's own top-level regions.
BUILD = "assembler.build"
INIT = "coyote.simulation.init"
RUN = "coyote.simulation.run"
SERIES_POOL = "campaign.pool"
SERIES_SERVICE = ("campaign.service_cold", "campaign.service_warm")
SERIES_INPROCESS = ("campaign.inprocess_cold", "campaign.inprocess_warm")
WORKER = "coyote.parallel.worker"

_SIM_REQUIRED = ("assembler.build_s", "coyote.simulation.init_s",
                 "coyote.orchestrator.self_s", "spike.translate.calls",
                 "coyote.stats.cycles", "coyote.stats.instructions")
# workload -> per-layer metrics its traced run must see above zero.
REQUIRED = {
    "sim-scalar": _SIM_REQUIRED,
    "sim-vector": _SIM_REQUIRED + (
        "memhier.submit.calls", "memhier.noc.messages",
        "memhier.l2bank.requests", "memhier.memctrl.requests",
        "sparta.scheduler.calls", "sparta.scheduler.events"),
    "sim-observed": _SIM_REQUIRED + (
        "telemetry.guestprof.finalize_s", "telemetry.chrome.events",
        "telemetry.sampler.s", "telemetry.histograms.s"),
    "campaign": (
        "spike.translate.calls", "coyote.sweep.run_point.s",
        "coyote.parallel.worker_start.count", "coyote.parallel.wait_s",
        "coyote.parallel.recv_s", "coyote.parallel.worker_self_s",
        "service.journal.appends", "service.cache.gets",
        "service.cache.hits", "service.cache.puts", "service.store.s"),
}

_TELEMETRY_CHROME = ("set_state", "halt", "counter", "observe_noc_occupancy",
                     "instant", "observe_request", "finalize")


def install_translate(tracer: Tracer) -> None:
    from repro.spike.translate import BlockTranslator

    tracer.time(BlockTranslator, "translate", "spike.translate")
    tracer.time(BlockTranslator, "translate_uop", "spike.translate")


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap every simulation layer; call before building a Simulation."""
    from repro.memhier.hierarchy import MemoryHierarchy
    from repro.memhier.l2bank import CacheBank
    from repro.memhier.memctrl import MemoryController
    from repro.memhier.noc import CrossbarNoC, MeshNoC
    from repro.sparta.scheduler import Scheduler
    from repro.spike.hart import Hart
    from repro.spike.simulator import CoreModel
    from repro.telemetry.chrome_trace import ChromeTraceBuilder
    from repro.telemetry.guestprof import CoreProfile, GuestProfiler
    from repro.telemetry.histogram import RequestLatencyRecorder
    from repro.telemetry.sampler import IntervalSampler

    install_translate(tracer)
    tracer.time(CoreModel, "step", "spike.interp")
    tracer.count(Hart, "read_velem", "spike.vector.elem_ops")
    tracer.count(Hart, "write_velem", "spike.vector.elem_ops")
    tracer.time(MemoryHierarchy, "submit", "memhier.submit")
    tracer.time(MemoryHierarchy, "submit_aggregate", "memhier.submit")
    tracer.time(CrossbarNoC, "route", "memhier.noc")
    tracer.time(MeshNoC, "route", "memhier.noc")
    tracer.time(CacheBank, "handle_request", "memhier.l2bank")
    tracer.time(CacheBank, "handle_fill", "memhier.l2bank")
    tracer.time(MemoryController, "handle_request", "memhier.memctrl")
    for attr in ("advance_cycle", "advance_to", "run_until_idle"):
        tracer.time(Scheduler, attr, "sparta.scheduler")
    for attr in ("note_miss", "note_complete", "stall_end"):
        tracer.time(GuestProfiler, attr, "telemetry.guestprof")
    tracer.time(GuestProfiler, "finalize", "telemetry.guestprof.finalize")
    tracer.count(CoreProfile, "retire", "telemetry.guestprof.retire")
    for attr in _TELEMETRY_CHROME:
        tracer.time(ChromeTraceBuilder, attr, "telemetry.chrome")
    for attr in ("start", "maybe_sample", "finalize"):
        tracer.time(IntervalSampler, attr, "telemetry.sampler")
    for attr in ("observe_request", "observe_noc", "observe_noc_queue"):
        tracer.time(RequestLatencyRecorder, attr, "telemetry.histograms")


def check_required(workload: str, values: dict[str, float]) -> None:
    """Raise unless every metric :data:`REQUIRED` names is above zero."""
    silent = [name for name in REQUIRED[workload]
              if not values.get(name, 0) > 0]
    if silent:
        raise RuntimeError(f"{workload}: traced layers recorded nothing "
                           f"for {silent}; a wrapper no longer fires")


def install_campaign_layers(tracer: Tracer, workers: Path) -> None:
    """Wrap the campaign executors' layers; call before the series.

    Forked workers write their spans to files in ``workers``.
    """
    from repro.coyote import parallel
    from repro.service import service
    from repro.service.cache import ResultCache
    from repro.service.journal import Journal
    from repro.service.store import JobStore

    install_translate(tracer)
    # Both executors name their worker entry at Process() time.
    tracer.worker(parallel, "_worker_main", WORKER, workers)
    tracer.worker(service, "_service_worker_main", WORKER, workers)
    # The executors call run_point through parallel's module global.
    tracer.time(parallel, "run_point", "coyote.sweep.run_point")
    tracer.time(multiprocessing.process.BaseProcess, "start",
                "coyote.parallel.worker_start")
    # parallel.py and service.py both call connection.wait on the module.
    tracer.time(multiprocessing.connection, "wait", "coyote.parallel.wait")
    tracer.time(multiprocessing.connection._ConnectionBase, "recv",
                "coyote.parallel.recv")
    tracer.time(Journal, "append", "service.journal.append")
    for attr in ("load", "compact", "close"):
        tracer.time(Journal, attr, "service.journal.maintain")
    tracer.time(ResultCache, "get", "service.cache.get",
                hit=lambda result: result is not None)
    tracer.time(ResultCache, "put", "service.cache.put")
    for attr, value in vars(JobStore).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            tracer.time(JobStore, attr, "service.store")


def sim_metrics(tracer: Tracer, units: int,
                instructions: int) -> dict[str, float]:
    """Per-unit layer metrics of ``units`` traced simulation units that
    retired ``instructions`` in total."""
    steps = tracer.calls("spike.interp")
    values = {
        "assembler.build_s": tracer.self_s(BUILD),
        "coyote.simulation.init_s": tracer.self_s(INIT),
        "coyote.orchestrator.self_s": tracer.self_s(RUN),
        "spike.translate.calls": tracer.calls("spike.translate"),
        "spike.translate.s": tracer.self_s("spike.translate"),
        "spike.interp.steps": steps,
        "spike.interp.s": tracer.self_s("spike.interp"),
        "spike.vector.elem_ops": tracer.calls("spike.vector.elem_ops"),
        "memhier.submit.calls": tracer.calls("memhier.submit"),
        "memhier.submit.s": tracer.self_s("memhier.submit"),
        "memhier.noc.messages": tracer.calls("memhier.noc"),
        "memhier.noc.s": tracer.self_s("memhier.noc"),
        "memhier.l2bank.requests": tracer.calls("memhier.l2bank"),
        "memhier.l2bank.s": tracer.self_s("memhier.l2bank"),
        "memhier.memctrl.requests": tracer.calls("memhier.memctrl"),
        "memhier.memctrl.s": tracer.self_s("memhier.memctrl"),
        "sparta.scheduler.calls": tracer.calls("sparta.scheduler"),
        "sparta.scheduler.self_s": tracer.self_s("sparta.scheduler"),
        "telemetry.guestprof.hook_calls":
            tracer.calls("telemetry.guestprof.retire"),
        "telemetry.guestprof.s": tracer.self_s("telemetry.guestprof"),
        "telemetry.guestprof.finalize_s":
            tracer.self_s("telemetry.guestprof.finalize"),
        "telemetry.chrome.events": tracer.calls("telemetry.chrome"),
        "telemetry.chrome.s": tracer.self_s("telemetry.chrome"),
        "telemetry.sampler.s": tracer.self_s("telemetry.sampler"),
        "telemetry.histograms.s": tracer.self_s("telemetry.histograms"),
    }
    values = {name: value / units for name, value in values.items()}
    values["spike.translated_share"] = 1.0 - steps / max(1, instructions)
    return values


def campaign_metrics(tracer: Tracer, workers: Tracer) -> dict[str, float]:
    """Layer metrics of one traced campaign round: ``tracer`` holds the
    round process's spans, ``workers`` the sum of its workers'."""
    gets = tracer.calls("service.cache.get")
    hits = tracer.hits("service.cache.get")

    def both(read, name: str) -> float:
        return read(tracer, name) + read(workers, name)

    values = {
        "spike.translate.calls": both(Tracer.calls, "spike.translate"),
        "spike.translate.s": both(Tracer.self_s, "spike.translate"),
        "coyote.sweep.run_point.s":
            both(Tracer.self_s, "coyote.sweep.run_point"),
        "coyote.parallel.worker_self_s": workers.self_s(WORKER),
        "coyote.parallel.worker_start.count":
            tracer.calls("coyote.parallel.worker_start"),
        "coyote.parallel.worker_start.s":
            tracer.self_s("coyote.parallel.worker_start"),
        "coyote.parallel.wait_s": tracer.self_s("coyote.parallel.wait"),
        "coyote.parallel.recv_s": tracer.self_s("coyote.parallel.recv"),
        "coyote.parallel.self_s": sum(
            tracer.self_s(name)
            for name in (SERIES_POOL, *SERIES_INPROCESS)),
        "service.journal.appends": tracer.calls("service.journal.append"),
        "service.journal.s": (tracer.self_s("service.journal.append")
                              + tracer.self_s("service.journal.maintain")),
        "service.cache.gets": gets,
        "service.cache.hits": hits,
        "service.cache.get_s": tracer.self_s("service.cache.get"),
        "service.cache.puts": tracer.calls("service.cache.put"),
        "service.cache.put_s": tracer.self_s("service.cache.put"),
        "service.store.s": tracer.self_s("service.store"),
        "service.self_s": sum(tracer.self_s(name)
                              for name in SERIES_SERVICE),
    }
    values["service.cache.hit_ratio"] = hits / gets if gets else 0.0
    return values
