"""Top-level GPU timing simulator.

Wires the SMs, the two interconnect directions and the memory partitions
together, assigns CTAs via a scheduling policy, and replays the warp
traces of one or more kernel launches cycle by cycle.

The main loop is event-driven (DESIGN.md, "Event-driven simulator
loop").  Every SM and partition carries ``wake_at``, the next cycle it
can change state; the loop jumps the clock to the earliest of those and
of the two networks' next deliveries, and on that cycle steps only the
components that are due, in the fixed order deliveries → partitions →
SMs (by id) that a cycle-by-cycle loop would use.  An SM woken early —
by a response, by a returned request-network credit it waits for, or by
a CTA assignment — first credits the per-cycle statistics of the cycles
it slept through, so every counter matches stepping all components on
every cycle.  After each launch, conservation checks confirm that every
instruction issued and every load completed; they catch a wrong
resident-CTA count or a lost instruction.  A wake that comes late shifts
cycles with everything still conserved: the simulator golden fixtures
(``tests/golden/fixtures/sim/``) are what guard the wake paths.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List

from ..core.classifier import ClassificationResult
from ..obs import tracing
from .config import TESLA_C2050
from .core import NEVER, HazardTable, SMCore
from .cta_scheduler import make_scheduler
from .icnt import Interconnect
from .memory_partition import MemoryPartition
from .stats import SimStats


_wake_at = attrgetter("wake_at")


class SimulationError(Exception):
    """Raised on deadlock or cycle-budget exhaustion.

    ``state`` (when set) is the structured :meth:`GPU.debug_state`
    snapshot taken at the failing cycle; the formatted dump is also
    appended to the message so plain tracebacks show where the machine
    was stuck.
    """

    def __init__(self, message, state=None):
        self.state = state
        if state is not None:
            message = "%s\n%s" % (message, _format_state(state))
        super().__init__(message)


def _format_state(state):
    """Render a :meth:`GPU.debug_state` snapshot as an indented report."""
    lines = ["simulator state at failure:"]
    for icnt in state["interconnects"]:
        lines.append("  icnt %(name)s: %(in_flight)d in flight, "
                     "credits=%(credits)s" % icnt)
    for part in state["partitions"]:
        mshr = part["l2_mshr"]
        lines.append("  partition %d: rop=%d dram_queue=%d "
                     "dram_in_flight=%d resp_wait=%d+%d "
                     "L2-MSHR %d/%d" % (
                         part["partition"], part["rop_queue"],
                         part["dram_queue"], part["dram_in_flight"],
                         part["resp_wait_latency"], part["resp_wait_credit"],
                         mshr["occupancy"], mshr["capacity"]))
    for sm in state["sms"]:
        mshr = sm["l1_mshr"]
        lines.append("  sm %d: ctas=%s stall=%s ldst=%d events=%d "
                     "L1-MSHR %d/%d" % (
                         sm["sm"], sm["resident_ctas"], sm["stall"],
                         sm["ldst_queue"], sm["pending_events"],
                         mshr["occupancy"], mshr["capacity"]))
        for w in sm["warps"][:8]:
            lines.append("    cta %s warp %s: op %s%s pending=%s" % (
                w["cta"], w["warp"], w["op"],
                " at-barrier" if w["at_barrier"] else "",
                ",".join(w["pending_regs"]) or "-"))
    if state.get("unassigned_ctas"):
        lines.append("  unassigned CTAs: %d" % state["unassigned_ctas"])
    return "\n".join(lines)


class GPU:
    """A simulated GPU that replays emulator traces."""

    def __init__(self, config=TESLA_C2050, cta_policy="round_robin",
                 max_cycles=500_000_000):
        config.validate()
        self.config = config
        self.cta_policy = cta_policy
        self.max_cycles = max_cycles
        self.stats = SimStats()
        self.now = 0
        self.req_icnt = Interconnect(
            num_sources=config.num_sms, num_dests=config.num_partitions,
            latency=config.icnt_latency,
            credits_per_source=config.icnt_credits_per_sm, name="req")
        self.resp_icnt = Interconnect(
            num_sources=config.num_partitions, num_dests=config.num_sms,
            latency=config.icnt_latency,
            credits_per_source=config.icnt_credits_per_partition, name="resp")
        self.partitions = [MemoryPartition(p, config, self.stats)
                           for p in range(config.num_partitions)]
        self.sms = [SMCore(i, config, self.stats, self.req_icnt,
                           self._cta_finished,
                           partition_map=self.partition_of)
                    for i in range(config.num_sms)]
        self._scheduler = None
        self._cta_traces: Dict[int, List] = {}
        #: CTAs resident across all SMs (recounted when a loop starts)
        self._resident = 0

    def partition_of(self, sm_id, block_addr):
        """Which memory partition serves ``block_addr`` for ``sm_id``.

        The baseline interleaves 128 B lines across all partitions,
        SM-independent.  Subclasses (e.g. the Section X.C semi-global L2
        ablation) override this to localize traffic.
        """
        return ((block_addr // self.config.l1_line_size)
                % self.config.num_partitions)

    # -- CTA flow ------------------------------------------------------------

    def _max_ctas_per_sm(self, launch_trace):
        threads = launch_trace.config.threads_per_cta
        limit = min(self.config.max_ctas_per_sm,
                    max(1, self.config.max_threads_per_sm // max(threads, 1)))
        if launch_trace.shared_size > 0:
            limit = min(limit, max(
                1, self.config.shared_mem_per_sm // launch_trace.shared_size))
        return max(1, limit)

    def _cta_finished(self, sm_id, cta_id):
        self._resident -= 1
        if self._scheduler is None:
            return
        nxt = self._scheduler.next_for(sm_id)
        if nxt is not None:
            self._resident += 1
            self.sms[sm_id].assign_cta(nxt, self._cta_traces[nxt])

    # -- launch replay ----------------------------------------------------------

    def run_launch(self, launch_trace, classification=None):
        """Replay one kernel launch to completion.

        Parameters
        ----------
        launch_trace:
            A :class:`repro.emulator.trace.KernelLaunchTrace`.
        classification:
            The kernel's :class:`ClassificationResult` (or a plain
            ``{pc: "D"/"N"}`` mapping); loads without a classification are
            tallied under the ``"other"`` class.
        """
        pc_classes = _pc_class_map(classification)
        # record traces carry no instruction table: their hazard entries
        # are built as the ops are first seen
        hazards = HazardTable(getattr(launch_trace, "instructions", ()))
        for sm in self.sms:
            sm.kernel_name = launch_trace.kernel_name
            sm.pc_classes = pc_classes
            sm.hazards = hazards

        by_cta: Dict[int, List] = {}
        for warp in launch_trace.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        cta_ids = sorted(by_cta)
        self._cta_traces = by_cta
        self._scheduler = make_scheduler(
            self.cta_policy, cta_ids, self.config.num_sms)

        start_cycle = self.now
        start_insts = self.stats.issued_warp_insts
        with tracing.span("simulate.launch",
                          kernel=launch_trace.kernel_name,
                          ctas=len(cta_ids)) as sp:
            # initial fill: deal CTAs round-robin across SMs until the
            # per-SM slot limit is reached (matching hardware launch
            # behaviour)
            slots = self._max_ctas_per_sm(launch_trace)
            for _round in range(slots):
                for sm in self.sms:
                    if self._scheduler.remaining == 0:
                        break
                    if sm.resident_ctas >= slots:
                        continue
                    nxt = self._scheduler.next_for(sm.sm_id)
                    if nxt is None:
                        break
                    sm.assign_cta(nxt, by_cta[nxt])

            self._run_until_drained()
            sp.set(cycles=self.now - start_cycle)
        self._scheduler = None
        self._cta_traces = {}
        self._check_conservation(
            launch_trace, self.stats.issued_warp_insts - start_insts)
        return self.stats

    def _check_conservation(self, launch_trace, issued):
        """Raise :class:`SimulationError` unless the drained launch issued
        every traced instruction and completed every classified load.

        Prefetches and write-through stores may still be in flight; no
        demand access may be.  This catches a wrong resident-CTA count
        (the loop ending early) or a lost instruction.  It cannot see a
        late wake-up, which shifts cycles with everything conserved; the
        simulator golden fixtures guard the wake paths.
        """
        problems = []
        expected = launch_trace.total_warp_instructions()
        if issued != expected:
            problems.append("issued %d warp insts, the trace has %d"
                            % (issued, expected))
        for sm in self.sms:
            if sm.loads_in_flight:
                problems.append("sm %d: %d classified loads never completed"
                                % (sm.sm_id, sm.loads_in_flight))
            if sm.ldst_queue or sm._events:
                problems.append("sm %d: %d LD/ST entries, %d events left"
                                % (sm.sm_id, len(sm.ldst_queue),
                                   len(sm._events)))
            waiters = sm.l1.mshr.demand_waiters()
            if waiters:
                problems.append("sm %d: L1 MSHR holds %d demand waiters"
                                % (sm.sm_id, waiters))
        if problems:
            raise SimulationError(
                "conservation check failed after launch %r: %s"
                % (launch_trace.kernel_name, "; ".join(problems)),
                state=self.debug_state())

    def run_application(self, app_trace, classifications):
        """Replay every launch of an application, in order.

        ``classifications`` maps kernel name to its
        :class:`ClassificationResult`.
        """
        for launch in app_trace.launches:
            self.run_launch(launch, classifications.get(launch.kernel_name))
        return self.stats

    # -- main loop ------------------------------------------------------------------

    def _work_pending(self):
        return self._resident > 0 or (self._scheduler is not None
                                      and self._scheduler.remaining > 0)

    def _run_until_drained(self):
        start = self.now
        sms, partitions = self.sms, self.partitions
        req_icnt, resp_icnt = self.req_icnt, self.resp_icnt
        self._resident = sum(len(sm.ctas) for sm in sms)
        while self._work_pending():
            # jump to the earliest cycle any component can change state
            t = min(min(map(_wake_at, sms)), min(map(_wake_at, partitions)))
            req_t = req_icnt.next_event_cycle()
            if req_t is not None and req_t < t:
                t = req_t
            resp_t = resp_icnt.next_event_cycle()
            if resp_t is not None and resp_t < t:
                t = resp_t
            if t >= NEVER:
                raise SimulationError(
                    "deadlock at cycle %d: no component has pending events"
                    % self.now, state=self.debug_state())
            t = max(t, self.now + 1)
            self.now = t
            if t - start > self.max_cycles:
                raise SimulationError(
                    "cycle budget exceeded (%d cycles)" % self.max_cycles,
                    state=self.debug_state())
            if req_t is not None and req_t <= t:
                for req, dst in req_icnt.deliver_ready(t):
                    partitions[dst].receive(req, t)
                    sm = sms[req.sm_id]
                    if sm.waits_for_credit:  # its credit just came back
                        sm.wake(t)
            if resp_t is not None and resp_t <= t:
                for req, dst in resp_icnt.deliver_ready(t):
                    sm = sms[dst]
                    sm.wake(t)
                    sm.receive_response(req, t)
            for partition in partitions:
                if partition.wake_at <= t:
                    partition.cycle(t, resp_icnt)
            for sm in sms:
                if sm.wake_at <= t:
                    sm.cycle(t)
        for sm in sms:
            sm.wake(self.now + 1)  # credit the cycles slept until the end
        self.stats.cycles = self.now
        self.stats.icnt_injected = (self.req_icnt.total_injected
                                    + self.resp_icnt.total_injected)
        self.stats.icnt_queue_delay = (self.req_icnt.total_queue_delay
                                       + self.resp_icnt.total_queue_delay)

    def debug_state(self):
        """Structured snapshot of every component's in-flight state, for
        deadlock and budget-exhaustion reports."""
        return {
            "cycle": self.now,
            "interconnects": [self.req_icnt.debug_state(),
                              self.resp_icnt.debug_state()],
            "partitions": [p.debug_state() for p in self.partitions],
            "sms": [sm.debug_state() for sm in self.sms],
            "unassigned_ctas": (self._scheduler.remaining
                                if self._scheduler is not None else 0),
        }

    def publish_metrics(self, registry=None, include_stats=True, **labels):
        """Publish the machine's telemetry into a metrics registry.

        Covers the aggregate :class:`SimStats` (via the
        :mod:`repro.obs.bridge` shim, when an ``app`` label is given)
        plus per-component series the aggregate cannot express:
        per-partition L2/DRAM counts, per-direction interconnect
        telemetry, and per-SM/L2 MSHR high-water marks.

        ``include_stats=False`` publishes only the per-component series
        — for callers (the experiment runner) that publish the
        aggregate separately through :func:`~repro.obs.bridge.publish_result`.
        """
        from ..obs import bridge
        from ..obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        app = labels.get("app")
        if include_stats and app is not None:
            bridge.publish_sim(app, self.stats, reg)
        self.req_icnt.publish_metrics(reg, **labels)
        self.resp_icnt.publish_metrics(reg, **labels)
        for partition in self.partitions:
            partition.publish_metrics(reg, **labels)
        for sm in self.sms:
            sm.l1.mshr.publish_metrics(reg, level="l1", sm=str(sm.sm_id),
                                       **labels)
        return reg


def _pc_class_map(classification):
    """Normalize a classification argument into ``{pc: "D"/"N"}``."""
    if classification is None:
        return {}
    if isinstance(classification, dict):
        return dict(classification)
    if isinstance(classification, ClassificationResult):
        return {load.pc: str(load.load_class) for load in classification}
    raise TypeError("classification must be None, a dict or a "
                    "ClassificationResult")
