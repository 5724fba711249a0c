"""The Coyote Orchestrator: lockstep coupling of Spike and Sparta.

Faithful to the paper's description:

    "Spike and Sparta are slaves to an Orchestrator that handles the
    simulation, keeping track of timing, and synchronizing both parts.
    Every cycle, the Orchestrator first tries to simulate an instruction
    on each of the active cores using Spike. [...] Once an instruction has
    been simulated in each of the active cores, the Orchestrator checks,
    if Sparta has any in-flight events for the current cycle. If this is
    the case, the Sparta model is advanced [...] Once an L1 miss is
    serviced, the registers that it writes to are made available [...]
    while stalled cores are set as active once again."

Two stall reasons deactivate a core: a RAW dependency against a pending
miss (re-checked each cycle via the scoreboard) and an instruction-fetch
miss (the core waits for that specific fill).  When every live core is
stalled the orchestrator fast-forwards the clock to the next scheduled
event — a pure optimisation with identical observable behaviour.

Three hot-loop optimisations keep host time proportional to simulated
work (docs/INTERNALS.md, "The hot loop & fast-forward"):

* the active-core list is kept incrementally sorted (bisect on wake,
  in-place delete on stall/halt) instead of re-sorted every cycle;
* each core dispatches translated *micro-blocks* (spike/translate.py):
  the block's one memory access runs on its exact lockstep cycle and
  the register-private tail runs ahead, the core skipping the cycles
  the tail covers;
* while no per-cycle observer is live, a *due-ring batch* visits only
  the cycles on which some core is due, up to the next scheduled event
  — for one core this is plain run-ahead, for many it skips every cycle
  on which all of them are mid-block.

``use_reference_loop = True`` selects the original straight-line
per-cycle loop; the differential tests run both and assert bit-identical
results, statistics and traces.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass

from repro.assembler.program import Program
from repro.coyote.config import SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.stats import CoreStats, SimulationResults
from repro.memhier.hierarchy import MemoryHierarchy
from repro.memhier.noc import MeshNoC
from repro.memhier.request import MemRequest, RequestKind
from repro.resilience.faults import FaultInjector
from repro.resilience.invariants import InvariantChecker
from repro.resilience.watchdog import Watchdog, deadlock_error
from repro.spike.hart import EnvironmentCall, Trap
from repro.spike.machine import BareMetalMachine
from repro.spike.scoreboard import Scoreboard
from repro.spike.translate import MAX_BLOCK, BlockTranslator
from repro.spike.simulator import (
    CLEAN_STEP,
    AccessKind,
    CoreModel,
    StepStatus,
)
from repro.sparta.scheduler import Scheduler
from repro.telemetry.chrome_trace import EXECUTING, FETCH_STALL, RAW_STALL
from repro.telemetry.hub import Telemetry


_KIND_MAP = {
    AccessKind.IFETCH: RequestKind.IFETCH,
    AccessKind.LOAD: RequestKind.LOAD,
    AccessKind.STORE: RequestKind.STORE,
    AccessKind.WRITEBACK: RequestKind.WRITEBACK,
}


class _SchedulerCycleSource:
    """Picklable ``rdcycle`` source: the Sparta scheduler's clock.

    A plain class (not a lambda) so a checkpoint can serialise harts
    together with the scheduler they read time from.
    """

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler

    def __call__(self) -> int:
        return self.scheduler.current_cycle


@dataclass
class _CoreState:
    """Orchestrator-side bookkeeping for one core."""

    raw_stall_cycles: int = 0
    fetch_stall_cycles: int = 0
    waiting_fetch_id: int | None = None
    halt_cycle: int | None = None
    stall_start: int = 0  # cycle the current stall began (if stalled)


class Orchestrator:
    """Drives the cycle loop over the functional cores and the modelled
    hierarchy."""

    def __init__(self, config: SimulationConfig, program: Program):
        self.config = config
        self.program = program
        self.scheduler = Scheduler()
        self.machine = BareMetalMachine(program, config.num_cores,
                                        vlen_bits=config.vlen_bits)
        self.cores = [CoreModel(hart, self.machine, config.l1)
                      for hart in self.machine.harts]
        cycle_source = _SchedulerCycleSource(self.scheduler)
        for hart in self.machine.harts:
            hart.cycle_source = cycle_source
        # Trace-compiled fast path: per-core translated-block caches,
        # dispatched by _cycle_loop (never by the reference loop, which
        # is what the differential tests compare against).  Each
        # translator registers itself with the machine's
        # CodeCacheRegistry for store invalidation and with its hart
        # for drop_code_caches().  With ``translate=False`` they compile
        # nothing, so every instruction runs on the interpreter.
        self.translators = [BlockTranslator(core, self.machine,
                                            enabled=config.translate)
                            for core in self.cores]
        # Per-core "skip until" cycle for the micro-block dispatch: a
        # core whose dispatched micro-block covered cycles [c, c+n)
        # already holds the architectural state of cycle c+n-1, so the
        # lockstep loop skips it until then.  Persisted across
        # pause/resume (a checkpoint can land mid-micro-block).
        self._resume_at = [0] * config.num_cores
        # Incremented by every successful _wake; the dispatch-gap jump
        # compares it across advance_cycle to prove no core became due.
        self._wake_epoch = 0
        self.hierarchy = MemoryHierarchy(config.memhier, self.scheduler)
        self.hierarchy.on_complete = self._on_request_complete
        self.scoreboard = Scoreboard(config.num_cores)
        self._states = [_CoreState() for _ in range(config.num_cores)]
        self._fetch_waits: dict[int, int] = {}  # request_id -> core_id
        # Cores ready to attempt execution; stalled cores leave and are
        # re-inserted by the completion that might unblock them
        # (event-driven wakeup: a stalled core costs nothing per cycle).
        # The list is kept sorted incrementally — bisect on wake,
        # in-place delete on stall/halt — so the cycle loop never sorts;
        # the set mirrors it for O(1) membership tests.
        self._active_list: list[int] = list(range(config.num_cores))
        self._active_set: set[int] = set(self._active_list)
        self._raw_waiting: set[int] = set()
        # cycles spent with exactly N active cores (N = 0 during
        # fast-forwarded stall periods).
        self._activity: dict[int, int] = {}
        # Differential-testing escape hatch: run the original
        # straight-line per-cycle loop instead of the optimised one.
        self.use_reference_loop = False
        # Pause/resume bookkeeping (checkpoint support): instructions
        # executed so far, wall time of earlier segments, and whether
        # the last ``run`` call stopped at a pause point.
        self._instructions_total = 0
        self._wall_accum = 0.0
        self._started = False
        self.paused = False
        # Opt-in observability: all hooks stay None when disabled so the
        # hot loop never touches them.
        self.telemetry: Telemetry | None = None
        self._chrome = None
        self._guestprof = None
        if config.telemetry.enabled:
            self.telemetry = Telemetry(config.telemetry, config.num_cores,
                                       self._collect_telemetry_values)
            sink = self.telemetry.request_sink()
            if sink is not None:
                self.hierarchy.telemetry_sink = sink
            observer = self.telemetry.noc_observer()
            if observer is not None:
                self.hierarchy.noc.latency_observer = observer
            self._chrome = self.telemetry.chrome
            noc = self.hierarchy.noc
            if isinstance(noc, MeshNoC):
                # Contention-model extras: per-hop queueing-delay
                # histogram and the Chrome in-flight counter track.
                queue_observer = self.telemetry.noc_queue_observer()
                if queue_observer is not None:
                    noc.queue_observer = queue_observer
                if self._chrome is not None:
                    noc.occupancy_sink = \
                        self._chrome.observe_noc_occupancy
            guestprof = self.telemetry.guestprof
            if guestprof is not None:
                # Retire hooks live inside CoreModel.step; the
                # submit/complete hooks below sit on miss paths only,
                # so the hot loop itself needs no extra checks.
                self._guestprof = guestprof
                for core, profile in zip(self.cores, guestprof.cores):
                    core.profile = profile

        # Resilience layer (docs/RESILIENCE.md): everything below is
        # None when the matching ResilienceConfig knob is off, so a
        # default-configured run pays nothing for it.
        resilience = config.resilience
        self.fault_injector: FaultInjector | None = None
        if resilience.faults:
            self.fault_injector = FaultInjector(
                "faults", self.hierarchy.root, resilience, self.hierarchy)
            self.fault_injector.install()
            if self._chrome is not None:
                self.fault_injector.event_sink = self._chrome.instant
        self.watchdog: Watchdog | None = None
        if resilience.watchdog_cycles:
            self.watchdog = Watchdog(resilience.watchdog_cycles, self)
        self.invariants: InvariantChecker | None = None
        if resilience.invariant_interval:
            self.invariants = InvariantChecker(
                self, resilience.invariant_interval)

    # -- completion plumbing ---------------------------------------------------

    def _on_request_complete(self, request: MemRequest) -> None:
        if request.member_ids:
            # MCPU-aggregated vector request: one response releases every
            # member scoreboard entry.
            for member_id in request.member_ids:
                self.scoreboard.complete_miss(member_id)
            core_id = request.core_id
        else:
            core_id = self.scoreboard.complete_miss(request.request_id)
        now = self.scheduler.current_cycle
        guestprof = self._guestprof
        pc = guestprof.note_complete(request) \
            if guestprof is not None else None
        waiting_core = self._fetch_waits.pop(request.request_id, None)
        if waiting_core is not None:
            wait_state = self._states[waiting_core]
            wait_state.waiting_fetch_id = None
            window = now - wait_state.stall_start
            wait_state.fetch_stall_cycles += window
            if guestprof is not None:
                guestprof.stall_end(waiting_core, pc, request.l2_hit,
                                    window, now, fetch=True)
            self._wake(waiting_core)
        elif core_id in self._raw_waiting:
            # One of this core's fills returned; let it retry its RAW
            # check on its next turn (it re-stalls if still blocked).
            self._raw_waiting.discard(core_id)
            state = self._states[core_id]
            window = now - state.stall_start
            state.raw_stall_cycles += window
            if guestprof is not None:
                guestprof.stall_end(core_id, pc, request.l2_hit,
                                    window, now, fetch=False)
            self._wake(core_id)

    def _wake(self, core_id: int) -> None:
        if not self.cores[core_id].halted \
                and core_id not in self._active_set:
            self._wake_epoch += 1
            self._active_set.add(core_id)
            insort(self._active_list, core_id)
            if self._chrome is not None:
                self._chrome.set_state(core_id, EXECUTING,
                                       self.scheduler.current_cycle)

    def _submit_misses(self, core_id: int, misses) -> int | None:
        """Send one step's misses into the hierarchy.

        Returns the request id of the IFETCH miss when present (the core
        must stall on it).
        """
        fetch_id = None
        aggregate: list = []
        aggregating = self.config.memhier.mcpu_aggregation
        guestprof = self._guestprof
        for miss in misses:
            if miss.kind is AccessKind.WRITEBACK:
                # Fire-and-forget: no completion will arrive.
                self.hierarchy.submit(-1, core_id, miss.line_address,
                                      RequestKind.WRITEBACK)
                continue
            if aggregating and miss.kind is AccessKind.LOAD:
                aggregate.append(miss)
                continue
            registers = miss.registers if miss.kind is AccessKind.LOAD \
                else ()
            miss_id = self.scoreboard.register_miss(core_id, registers)
            if guestprof is not None:
                guestprof.note_miss(miss_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            self.hierarchy.submit(miss_id, core_id, miss.line_address,
                                  _KIND_MAP[miss.kind])
            if miss.kind is AccessKind.IFETCH:
                fetch_id = miss_id
        if aggregate:
            self._submit_aggregate(core_id, aggregate)
        return fetch_id

    def _submit_aggregate(self, core_id: int, misses: list) -> None:
        """Send one instruction's load misses as an MCPU group
        (or singly when there is no group to form)."""
        guestprof = self._guestprof
        if len(misses) == 1:
            miss = misses[0]
            miss_id = self.scoreboard.register_miss(core_id,
                                                    miss.registers)
            if guestprof is not None:
                guestprof.note_miss(miss_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            self.hierarchy.submit(miss_id, core_id, miss.line_address,
                                  RequestKind.LOAD)
            return
        member_ids = []
        lines = []
        for miss in misses:
            member_id = self.scoreboard.register_miss(core_id,
                                                      miss.registers)
            if guestprof is not None:
                guestprof.note_miss(member_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            member_ids.append(member_id)
            lines.append(miss.line_address)
        self.hierarchy.submit_aggregate(tuple(member_ids), core_id,
                                        lines, RequestKind.LOAD)

    # -- the cycle loop -----------------------------------------------------------

    def run(self, pause_at: int | None = None) -> SimulationResults | None:
        """Run to completion and return the results.

        With ``pause_at`` set, the cycle loop stops at the first loop
        boundary at or after that cycle instead (no event at or after
        ``pause_at`` has fired yet), sets :attr:`paused`, and returns
        ``None``; a later ``run()`` call continues exactly where the
        paused one stopped.  This is the checkpoint hook: a paused
        orchestrator can be serialised and the resumed run is
        bit-identical to an uninterrupted one
        (tests/resilience/test_checkpoint.py).
        """
        config = self.config
        scheduler = self.scheduler
        start_wall = time.perf_counter()

        # Telemetry hooks, hoisted into locals: when telemetry is
        # disabled each stays None and the loop pays only a handful of
        # local is-None tests per cycle (no attribute lookups).
        telemetry = self.telemetry
        sampler = chrome = profiler = heartbeat = None
        if telemetry is not None:
            sampler = telemetry.sampler
            chrome = telemetry.chrome
            profiler = telemetry.profiler
            if profiler is not None and config.telemetry.progress:
                heartbeat = profiler
            if sampler is not None and not self._started:
                sampler.start(scheduler.current_cycle)
        self._started = True
        clock = time.perf_counter

        self.paused = False
        if self.use_reference_loop:
            total_instructions = self._cycle_loop_reference(
                sampler, chrome, profiler, heartbeat, pause_at)
        else:
            total_instructions = self._cycle_loop(
                sampler, chrome, profiler, heartbeat, pause_at)
        self._instructions_total = total_instructions
        if self.paused:
            self._wall_accum += time.perf_counter() - start_wall
            return None

        # Drain requests still in flight when the last core halted, so
        # the final statistics balance (submitted == completed).
        drain_start = scheduler.current_cycle
        if profiler is not None:
            section_start = clock()
        scheduler.run_until_idle()
        if profiler is not None:
            profiler.sparta_seconds += clock() - section_start
        drained = scheduler.current_cycle - drain_start
        if drained:
            self._activity[0] = self._activity.get(0, 0) + drained

        wall_seconds = self._wall_accum + time.perf_counter() - start_wall
        if profiler is not None:
            section_start = clock()
        if sampler is not None:
            sampler.finalize(scheduler.current_cycle)
        if chrome is not None:
            chrome.finalize(scheduler.current_cycle)
        results = self._build_results(total_instructions, wall_seconds)
        if profiler is not None:
            profiler.stats_seconds += clock() - section_start
            results.host_profile = profiler.to_dict()
        return results

    def _cycle_loop(self, sampler, chrome, profiler, heartbeat,
                    pause_at: int | None = None) -> int:
        """The optimised cycle loop; returns instructions executed.

        Identical observable behaviour to :meth:`_cycle_loop_reference`
        (the differential tests and the loop fuzzer assert it).  Each
        trip round the outer loop takes one of three bodies:

        * the all-stalled jump straight to the next scheduled event;
        * the due-ring batch, for any number of active cores while no
          per-cycle observer is live: it visits only the cycles on which
          some core is due, up to the next event;
        * the per-cycle pass, one cycle in the reference loop's visit
          order, followed by the dispatch-gap jump.

        Both executing bodies dispatch translated micro-blocks inline and
        share one helper, ``visit``, for everything slower: RAW checks,
        block exits that missed or halted, and interpreter steps.
        """
        config = self.config
        scheduler = self.scheduler
        cores = self.cores
        states = self._states
        machine = self.machine
        active_list = self._active_list
        active_set = self._active_set
        raw_waiting = self._raw_waiting
        fetch_waits = self._fetch_waits
        activity = self._activity
        blocks = self.scoreboard.blocks
        # Live per-core busy-register maps, hoisted once: when a core's
        # map is empty no RAW dependency can block it, so the loop skips
        # the pre-step decode entirely (the common case on hit streaks).
        busy_maps = [self.scoreboard.busy_map(core_id)
                     for core_id in range(config.num_cores)]
        # Translated-block dispatch state, hoisted per core.  The cache
        # dicts are mutated in place by invalidation, so holding their
        # ``get`` in locals is safe.
        translators = self.translators
        fn_gets = [translator.cache.get for translator in translators]
        resume = self._resume_at
        harts = [core.hart for core in cores]
        istats = [core.l1i.stats for core in cores]
        # Block functions return how many instructions they retired but
        # do not touch the pure counters (translate.py module docstring);
        # the loop accrues the counts here and flushes them wherever they
        # become observable.
        credit = [0] * config.num_cores

        def flush_credits(single: int | None = None) -> None:
            """Settle accrued instruction counts into ``hart.instret``,
            ``core.instructions``, L1I read statistics and the loop's
            running total — for one core (before its interpreter step,
            which may read ``instret`` via a CSR) or for all (telemetry
            samples, loop exits).  Dispatch paths accrue ``credit`` only;
            everything downstream of a flush point sees exact counts."""
            nonlocal total_instructions
            for cid in ((single,) if single is not None
                        else range(config.num_cores)):
                n = credit[cid]
                if n:
                    credit[cid] = 0
                    harts[cid].instret += n
                    cores[cid].instructions += n
                    istats[cid].reads += n
                    total_instructions += n

        def visit(core_id: int, now: int, result) -> int:
            """The slow half of core ``core_id``'s turn at cycle ``now``.

            ``result`` is None for a core with pending fills (RAW check,
            then a budget-1 dispatch), or the :class:`BlockExit` of a
            dispatch that did not run cleanly.  Returns the cycles the
            turn covered (the core is due again that many cycles on), or
            0 when the core left the active list.  Sets ``submitted``
            when the turn put events into the scheduler or halted the
            core; either ends a due-ring batch at this cycle.
            """
            nonlocal total_instructions, remaining_cores, submitted
            core = cores[core_id]
            # The due ring advances the clock lazily: settle it before
            # the step reads it (rdcycle) or a submission schedules.
            scheduler.current_cycle = now
            if result is None:
                # RAW check against pending misses (paper: the core is
                # inactive until the dependency is satisfied).
                try:
                    registers = core.peek_registers()
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}") from exc
                if blocks(core_id, registers):
                    active_list.remove(core_id)
                    active_set.remove(core_id)
                    raw_waiting.add(core_id)
                    states[core_id].stall_start = now
                    if chrome is not None:
                        chrome.set_state(core_id, RAW_STALL, now)
                    return 0
                # Pending fills: one instruction per cycle keeps the
                # no-RAW gate covering every instruction.
                pc = harts[core_id].pc
                fn = fn_gets[core_id](pc)
                if fn is None:
                    fn = translators[core_id].translate(pc)
                result = fn(1)
                if result.__class__ is int:
                    credit[core_id] += 1
                    return 1
            if result.executed:
                # Micro-blocks miss or halt only at instruction 0.
                credit[core_id] += 1
                misses = result.misses
            else:
                # Zero progress (fetch miss or untranslatable pc): one
                # interpreter step.  It may read instret (rdinstret CSR),
                # so settle this core's accrued count first.
                if credit[core_id]:
                    flush_credits(core_id)
                try:
                    outcome = core.step()
                except EnvironmentCall:
                    # Bare-metal convention: ecall halts the calling
                    # hart with exit code a0.
                    machine.exit_codes[core_id] = core.hart.regs[10]
                    core.halted = True
                    outcome = None
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}") from exc
                if outcome is clean_step:
                    total_instructions += 1
                    return 1
                misses = None
                if outcome is not None:
                    if outcome.status is fetch_miss:
                        fetch_id = self._submit_misses(core_id,
                                                       outcome.misses)
                        state = states[core_id]
                        state.waiting_fetch_id = fetch_id
                        state.stall_start = now
                        fetch_waits[fetch_id] = core_id
                        active_list.remove(core_id)
                        active_set.remove(core_id)
                        if chrome is not None:
                            chrome.set_state(core_id, FETCH_STALL, now)
                        submitted = True
                        return 0
                    total_instructions += 1
                    misses = outcome.misses
            if misses:
                self._submit_misses(core_id, misses)
                submitted = True
            if core.halted:
                states[core_id].halt_cycle = now
                active_list.remove(core_id)
                active_set.remove(core_id)
                remaining_cores -= 1
                if chrome is not None:
                    chrome.halt(core_id, now)
                submitted = True
                return 0
            return 1

        advance_cycle = scheduler.advance_cycle
        next_event_cycle = scheduler.next_event_cycle
        max_cycles = config.max_cycles
        clock = time.perf_counter
        # Resume-aware: cores halted before a pause stay halted and the
        # instruction count continues from the previous segment.
        remaining_cores = sum(1 for core in cores if not core.halted)
        total_instructions = self._instructions_total
        submitted = False
        watchdog = self.watchdog
        invariants = self.invariants
        # The interval sampler needs its per-cycle boundary checks, so
        # while it is live every dispatch gets a budget of one
        # instruction; otherwise every dispatch to a core without
        # pending fills gets the whole block.
        run_ahead = sampler is None
        base_limit = MAX_BLOCK if run_ahead else 1
        _FAR = 1 << 62  # "no core becomes due" sentinel for min_due
        tint = int
        ring = None  # due-ring slots, allocated by the first batch
        # One flag folds the four per-cycle telemetry checks; all of the
        # observers need the instruction credits settled first.
        tail_hooks = (sampler is not None or heartbeat is not None
                      or watchdog is not None or invariants is not None)
        fetch_miss = StepStatus.FETCH_MISS
        clean_step = CLEAN_STEP
        # With the sampler inactive nothing observes the activity
        # histogram mid-run, so the per-cycle tally accumulates in a
        # flat list (merged into the dict once, after the loop); with
        # the sampler live the shared dict is updated in place.
        activity_counts = ([0] * (config.num_cores + 1)
                           if run_ahead else None)

        while remaining_cores:
            now = scheduler.current_cycle
            if pause_at is not None and now >= pause_at:
                flush_credits()
                self.paused = True
                break
            if now >= max_cycles:
                flush_credits()
                raise SimulationError(
                    f"cycle budget exhausted ({max_cycles})",
                    current_cycle=now, max_cycles=max_cycles,
                    pending_events=scheduler.pending_events)

            if not active_list:
                # Every live core is stalled: jump to the next event (an
                # identical-behaviour fast-forward — only completions can
                # wake anyone).
                next_event = next_event_cycle()
                if next_event is None:
                    flush_credits()
                    stalled = [core.core_id for core in cores
                               if not core.halted]
                    raise deadlock_error(
                        self,
                        f"cores {stalled} stalled with no pending events")
                if pause_at is not None and next_event >= pause_at:
                    # Stop inside the gap, before the event fires; the
                    # resumed run re-enters this branch and counts the
                    # remaining ``next_event - pause_at + 1`` stalled
                    # cycles, so the split accounting matches an
                    # uninterrupted run exactly.
                    if activity_counts is not None:
                        activity_counts[0] += pause_at - now
                    else:
                        activity[0] = activity.get(0, 0) + pause_at - now
                    scheduler.advance_to(pause_at)
                    flush_credits()
                    self.paused = True
                    break
                if activity_counts is not None:
                    activity_counts[0] += next_event - now + 1
                else:
                    activity[0] = activity.get(0, 0) + next_event - now + 1
                if profiler is not None:
                    section_start = clock()
                scheduler.advance_to(next_event)
                advance_cycle()
                if profiler is not None:
                    profiler.sparta_seconds += clock() - section_start
                if tail_hooks:
                    flush_credits()
                    if sampler is not None:
                        sampler.maybe_sample(scheduler.current_cycle)
                    if heartbeat is not None:
                        heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                                  total_instructions,
                                                  scheduler.events_fired)
                    if watchdog is not None:
                        watchdog.observe(scheduler.current_cycle,
                                         total_instructions,
                                         scheduler.events_fired)
                    if invariants is not None:
                        invariants.maybe_check(scheduler.current_cycle)
                continue

            if not tail_hooks:
                next_event = next_event_cycle()
                bound = max_cycles if next_event is None \
                    else min(next_event, max_cycles)
                if pause_at is not None and pause_at < bound:
                    bound = pause_at
                if bound > now:
                    # Due-ring batch: no event, pause point or budget
                    # boundary before ``bound`` and no per-cycle observer
                    # is live, so only the cycles where some core is due
                    # need a visit.  A private due-ring (cycle -> core
                    # ids) drives those visits; between them every live
                    # core is mid-micro-block and the scheduler queue is
                    # silent, so advancing the clock is a bare assignment
                    # (same equivalence argument as the dispatch-gap
                    # jump).  With one core this is plain run-ahead.  The
                    # ring is seeded from ``resume`` and simply discarded
                    # on every exit — ``resume`` stays authoritative, so
                    # the per-cycle path picks up seamlessly.
                    if profiler is not None:
                        section_start = clock()
                    # Slot ``cycle & 127``: dispatch returns are capped
                    # at MAX_BLOCK (64) cycles ahead, so live entries
                    # occupy at most 64 consecutive slots and can never
                    # wrap onto each other.  The lists are reused across
                    # batches (allocated once per loop invocation) and
                    # left empty on every exit path.
                    if ring is None:
                        ring = [[] for _ in range(128)]
                    live = len(active_list)
                    for core_id in active_list:
                        cycle = resume[core_id]
                        if cycle < now:
                            cycle = now
                        ring[cycle & 127].append(core_id)
                    while True:
                        todo = ring[now & 127]
                        if not todo:
                            # Gap: scan the (at most 64-slot) window for
                            # the next due cycle; an empty window means
                            # every core stalled or halted mid-batch.
                            nxt = now + 1
                            stop = now + 65
                            if bound < stop:
                                stop = bound
                            while nxt < stop and not ring[nxt & 127]:
                                nxt += 1
                            if nxt >= bound:
                                activity_counts[live] += bound - now
                                now = bound
                                scheduler.current_cycle = now
                                break
                            if not ring[nxt & 127]:
                                scheduler.current_cycle = now
                                break  # ring empty; head handles it
                            activity_counts[live] += nxt - now
                            now = nxt
                            continue
                        activity_counts[live] += 1
                        # Slots fill by appends from different source
                        # cycles; restore ascending core order before
                        # dispatching (determinism).
                        if len(todo) > 1:
                            todo.sort()
                        submitted = False
                        for core_id in todo:
                            # Busy maps only change at batch exits
                            # (submissions end the batch; completions
                            # need events), so a core without pending
                            # fills stays free of RAW hazards all batch.
                            if busy_maps[core_id]:
                                ran = visit(core_id, now, None)
                            else:
                                pc = harts[core_id].pc
                                fn = fn_gets[core_id](pc)
                                if fn is None:
                                    fn = translators[core_id].translate(pc)
                                ran = fn(base_limit)
                                if ran.__class__ is tint:
                                    credit[core_id] += ran
                                else:
                                    ran = visit(core_id, now, ran)
                            if ran:
                                ring[(now + ran) & 127].append(core_id)
                            else:
                                live -= 1
                        todo.clear()
                        if submitted:
                            # End the cycle through the scheduler (a
                            # submission may complete with zero latency)
                            # and rebuild bounds at the loop head; the
                            # helper already settled the clock.
                            advance_cycle()
                            break
                        now += 1
                        if now >= bound:
                            scheduler.current_cycle = now
                            break
                    # Exit: settle ``resume`` from the ring (dispatches
                    # defer the writes — mid-batch the ring itself is
                    # the authority on who is due when) and leave every
                    # slot empty for the next batch.  Live entries all
                    # sit in [now, now + 64]: a bound break can leave
                    # an unconsumed entry at exactly ``now`` (the gap
                    # scan stops short of the bound slot), so the scan
                    # must start there, not one past it.
                    for cycle in range(now, now + 65):
                        bucket = ring[cycle & 127]
                        if bucket:
                            for core_id in bucket:
                                resume[core_id] = cycle
                            bucket.clear()
                    if profiler is not None:
                        profiler.spike_seconds += clock() - section_start
                    continue

            active_now = len(active_list)
            if activity_counts is not None:
                activity_counts[active_now] += 1
            else:
                activity[active_now] = activity.get(active_now, 0) + 1

            if profiler is not None:
                section_start = clock()
            # Per-cycle pass, in the reference loop's visit order.  A
            # dispatched micro-block's memory access (if any) is
            # instruction 0, executed this cycle — every cross-core-
            # visible effect lands on its exact lockstep cycle — and the
            # register-private tail runs ahead, the resume skip covering
            # its remaining cycles.  ``min_due`` tracks the earliest
            # cycle any surviving core becomes due again (0 = due next
            # cycle) and feeds the dispatch-gap jump after the pass.
            # Halted cores never appear here: every halt removes the core
            # and ``_wake`` refuses them.
            index = 0
            count = active_now
            min_due = _FAR
            while index < count:
                core_id = active_list[index]
                due = resume[core_id]
                if due > now:
                    # Mid-micro-block: the busy map stayed empty (the
                    # dispatch required it empty and a miss ends the
                    # micro-block), so no RAW or fetch check applies
                    # until the next dispatch.
                    if due < min_due:
                        min_due = due
                    index += 1
                    continue
                if busy_maps[core_id]:
                    ran = visit(core_id, now, None)
                else:
                    pc = harts[core_id].pc
                    fn = fn_gets[core_id](pc)
                    if fn is None:
                        fn = translators[core_id].translate(pc)
                    ran = fn(base_limit)
                    if ran.__class__ is tint:
                        credit[core_id] += ran
                    else:
                        ran = visit(core_id, now, ran)
                if not ran:
                    count -= 1  # left the list: the next core slid in
                    continue
                index += 1
                if ran > 1:
                    due = now + ran
                    resume[core_id] = due
                    if due < min_due:
                        min_due = due
                else:
                    min_due = 0
            if profiler is not None:
                now_wall = clock()
                profiler.spike_seconds += now_wall - section_start
                section_start = now_wall

            # Advance Sparta in sync with functional execution;
            # completions fired here re-activate stalled cores (bumping
            # the wake epoch, which vetoes the jump below).
            epoch = self._wake_epoch
            advance_cycle()
            if profiler is not None:
                profiler.sparta_seconds += clock() - section_start
            if tail_hooks:
                flush_credits()
                if sampler is not None:
                    sampler.maybe_sample(scheduler.current_cycle)
                if heartbeat is not None:
                    heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                              total_instructions,
                                              scheduler.events_fired)
                if watchdog is not None:
                    watchdog.observe(scheduler.current_cycle,
                                     total_instructions,
                                     scheduler.events_fired)
                if invariants is not None:
                    invariants.maybe_check(scheduler.current_cycle)
            if min_due > now + 1 and count and run_ahead \
                    and epoch == self._wake_epoch:
                # Dispatch-gap fast-forward: every surviving core is
                # inside a previously dispatched micro-block and no
                # event woke anyone, so nothing executes before the
                # earliest resume cycle — jump the clock there (bounded
                # by the next event, the pause point and the cycle
                # budget, all identical-behaviour constraints; each
                # skipped cycle would be an all-skip pass with no events
                # due, i.e. a bare clock increment).
                target = min_due
                next_event = next_event_cycle()
                if next_event is not None and next_event < target:
                    target = next_event
                if pause_at is not None and pause_at < target:
                    target = pause_at
                if max_cycles < target:
                    target = max_cycles
                here = now + 1
                if target > here:
                    activity_counts[count] += target - here
                    scheduler.current_cycle = target

        flush_credits()
        if activity_counts is not None:
            for cores_active, cycles in enumerate(activity_counts):
                if cycles:
                    activity[cores_active] = \
                        activity.get(cores_active, 0) + cycles
        return total_instructions

    def _cycle_loop_reference(self, sampler, chrome, profiler, heartbeat,
                              pause_at: int | None = None) -> int:
        """The original per-cycle loop, kept verbatim as the behavioural
        reference for the differential tests.

        It operates on ``_active_set`` with a fresh ``sorted()`` every
        cycle; ``_active_list`` is kept in sync so :meth:`_wake` keeps
        working (the optimised loop and the reference loop never run in
        the same simulation).
        """
        config = self.config
        scheduler = self.scheduler
        cores = self.cores
        states = self._states
        scoreboard = self.scoreboard
        active = self._active_set
        remaining_cores = sum(1 for core in cores if not core.halted)
        total_instructions = self._instructions_total
        watchdog = self.watchdog
        invariants = self.invariants
        clock = time.perf_counter

        def deactivate(core_id: int) -> None:
            active.discard(core_id)
            try:
                self._active_list.remove(core_id)
            except ValueError:
                pass

        while remaining_cores:
            if pause_at is not None \
                    and scheduler.current_cycle >= pause_at:
                self.paused = True
                break
            if scheduler.current_cycle >= config.max_cycles:
                raise SimulationError(
                    f"cycle budget exhausted ({config.max_cycles})",
                    current_cycle=scheduler.current_cycle,
                    max_cycles=config.max_cycles,
                    pending_events=scheduler.pending_events)

            if not active:
                next_event = scheduler.next_event_cycle()
                if next_event is None:
                    stalled = [core.core_id for core in cores
                               if not core.halted]
                    raise deadlock_error(
                        self,
                        f"cores {stalled} stalled with no pending events")
                if pause_at is not None and next_event >= pause_at:
                    skipped = pause_at - scheduler.current_cycle
                    self._activity[0] = \
                        self._activity.get(0, 0) + skipped
                    while scheduler.current_cycle < pause_at:
                        scheduler.advance_cycle()
                    self.paused = True
                    break
                skipped = next_event - scheduler.current_cycle + 1
                self._activity[0] = self._activity.get(0, 0) + skipped
                if profiler is not None:
                    section_start = clock()
                while scheduler.current_cycle < next_event:
                    scheduler.advance_cycle()
                scheduler.advance_cycle()
                if profiler is not None:
                    profiler.sparta_seconds += clock() - section_start
                if sampler is not None:
                    sampler.maybe_sample(scheduler.current_cycle)
                if heartbeat is not None:
                    heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                              total_instructions,
                                              scheduler.events_fired)
                if watchdog is not None:
                    watchdog.observe(scheduler.current_cycle,
                                     total_instructions,
                                     scheduler.events_fired)
                if invariants is not None:
                    invariants.maybe_check(scheduler.current_cycle)
                continue

            active_now = len(active)
            self._activity[active_now] = \
                self._activity.get(active_now, 0) + 1

            if profiler is not None:
                section_start = clock()
            for core_id in sorted(active):
                core = cores[core_id]
                state = states[core_id]

                try:
                    registers = core.peek_registers()
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}") from exc
                if scoreboard.blocks(core_id, registers):
                    deactivate(core_id)
                    self._raw_waiting.add(core_id)
                    state.stall_start = scheduler.current_cycle
                    if chrome is not None:
                        chrome.set_state(core_id, RAW_STALL,
                                         scheduler.current_cycle)
                    continue

                try:
                    outcome = core.step()
                except EnvironmentCall:
                    self.machine.exit_codes[core_id] = core.hart.regs[10]
                    core.halted = True
                    outcome = None
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}") from exc

                if outcome is not None:
                    if outcome.status is StepStatus.EXECUTED:
                        total_instructions += 1
                        self._submit_misses(core_id, outcome.misses)
                    elif outcome.status is StepStatus.FETCH_MISS:
                        fetch_id = self._submit_misses(core_id,
                                                       outcome.misses)
                        state.waiting_fetch_id = fetch_id
                        state.stall_start = scheduler.current_cycle
                        self._fetch_waits[fetch_id] = core_id
                        deactivate(core_id)
                        if chrome is not None:
                            chrome.set_state(core_id, FETCH_STALL,
                                             scheduler.current_cycle)

                if core.halted:
                    state.halt_cycle = scheduler.current_cycle
                    deactivate(core_id)
                    remaining_cores -= 1
                    if chrome is not None:
                        chrome.halt(core_id, scheduler.current_cycle)
            if profiler is not None:
                now_wall = clock()
                profiler.spike_seconds += now_wall - section_start
                section_start = now_wall

            scheduler.advance_cycle()
            if profiler is not None:
                profiler.sparta_seconds += clock() - section_start
            if sampler is not None:
                sampler.maybe_sample(scheduler.current_cycle)
            if heartbeat is not None:
                heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                          total_instructions,
                                          scheduler.events_fired)
            if watchdog is not None:
                watchdog.observe(scheduler.current_cycle,
                                 total_instructions,
                                 scheduler.events_fired)
            if invariants is not None:
                invariants.maybe_check(scheduler.current_cycle)
        return total_instructions

    # -- telemetry --------------------------------------------------------------

    def _collect_telemetry_values(self) -> dict[str, float]:
        """One flat snapshot of every counter the sampler tracks.

        Hierarchy counters keep their dotted unit names; functional-side
        aggregates are added under ``cores.*`` and the activity
        histogram under ``activity.<N>``.
        """
        values = self.hierarchy.collect_values()
        instructions = 0
        l1d_accesses = l1d_misses = l1i_accesses = l1i_misses = 0
        for core in self.cores:
            instructions += core.instructions
            l1d = core.l1d.stats
            l1i = core.l1i.stats
            l1d_accesses += l1d.accesses
            l1d_misses += l1d.misses
            l1i_accesses += l1i.accesses
            l1i_misses += l1i.misses
        values["cores.instructions"] = instructions
        values["cores.l1d_accesses"] = l1d_accesses
        values["cores.l1d_misses"] = l1d_misses
        values["cores.l1i_accesses"] = l1i_accesses
        values["cores.l1i_misses"] = l1i_misses
        for count, cycles in self._activity.items():
            values[f"activity.{count}"] = cycles
        return values

    # -- results ---------------------------------------------------------------

    def _build_results(self, total_instructions: int,
                       wall_seconds: float) -> SimulationResults:
        core_stats = []
        for core, state in zip(self.cores, self._states):
            core_stats.append(CoreStats(
                core_id=core.core_id,
                instructions=core.instructions,
                raw_stall_cycles=state.raw_stall_cycles,
                fetch_stall_cycles=state.fetch_stall_cycles,
                halt_cycle=state.halt_cycle,
                exit_code=self.machine.exit_codes.get(core.core_id),
                l1i=core.l1i.stats,
                l1d=core.l1d.stats))
        telemetry = self.telemetry
        guest_profile = None
        if self._guestprof is not None:
            guest_profile = self._guestprof.finalize(
                self.scheduler.current_cycle, self._states,
                memory=self.machine.memory)
        return SimulationResults(
            cycles=self.scheduler.current_cycle,
            instructions=total_instructions,
            wall_seconds=wall_seconds,
            cores=core_stats,
            hierarchy_samples=self.hierarchy.collect_stats(),
            console=self.machine.console_text(),
            exit_codes=dict(self.machine.exit_codes),
            events_fired=self.scheduler.events_fired,
            activity=dict(sorted(self._activity.items())),
            timeseries=telemetry.sampler if telemetry else None,
            latency=telemetry.latency if telemetry else None,
            guest_profile=guest_profile)
