"""The SIMT core (SM) timing model.

Replays warp traces produced by the functional emulator through a
cycle-level model of one streaming multiprocessor:

* a loose round-robin warp scheduler issuing up to ``issue_width``
  instructions per cycle, gated by a per-warp scoreboard,
* SP / SFU pipelines with initiation intervals and result latencies
  (their first-pipeline-stage occupancy is Figure 4's busy metric),
* an LD/ST unit with an in-order memory-instruction queue; the head
  instruction presents one coalesced request per cycle to the L1, and a
  request that suffers a reservation failure retries — those retry cycles
  are exactly the wasted L1 cycles of Figure 3,
* a private L1 data cache (tags + MSHRs, write-through / write-evict),
* CTA slots with ``bar.sync`` barrier tracking.

Global stores and atomics bypass L1 (Fermi behaviour): they only need an
interconnect credit, so their only reservation-failure mode is
``rsrv_fail_icnt``.

The SM is stepped only on cycles where its state can change (DESIGN.md,
"Event-driven simulator loop").  At the end of each cycle
:meth:`SMCore.cycle` asks whether the next cycle would repeat this one:
nothing can issue, and the LD/ST unit is either empty or retrying a head
that just failed its reservation (the prefetch port likewise).  If so it
sets ``wake_at`` to its own next event — the head of its event heap, or
the cycle a busy SP/SFU frees for a warp waiting on it — and sleeps.  The
per-cycle counters of the skipped cycles (SM-active cycles, the issue
stall, and for a failing head its LD/ST-busy and L1-outcome cycles) are
credited in one step when it next runs.  Anything else that can change
its state comes from outside and goes through :meth:`SMCore.wake`: a
response (:meth:`receive_response`), the request network returning a
credit it waits for, or :meth:`assign_cta`.

The issue stage checks the scoreboard with per-static-instruction
register bitmasks (:class:`HazardTable`) and caches the outcome of a
failed scan until a writeback, LD/ST pop, CTA change or unit free can
alter it, so a stalled SM pays O(1) per cycle.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from ..emulator.columnar import _PC_SHIFT, KIND_NONE
from ..ptx.isa import Space, Unit
from .cache import Cache, Outcome
from .coalescer import coalesce_addresses
from .request import MemRequest
from .stats import class_label

#: ``wake_at`` of a component that only an external event can wake.
NEVER = 1 << 62


class InflightMemInst:
    """A memory warp-instruction from LD/ST issue to last data writeback."""

    __slots__ = ("warp", "dest_mask", "pending", "requests", "outstanding",
                 "n_requests", "t_issue", "t_first_accept", "t_last_accept",
                 "l2_in_min", "l2_in_max", "back_min", "back_max",
                 "load_class", "pc", "kernel_name", "is_load", "is_store",
                 "fixed_latency", "port_cycles")

    def __init__(self, warp, dest_mask, pc, kernel_name, load_class,
                 is_load, is_store, t_issue, fixed_latency=None):
        self.warp = warp
        self.dest_mask = dest_mask
        self.pending: List[MemRequest] = []
        self.requests: List[MemRequest] = []
        self.outstanding = 0
        self.n_requests = 0
        self.t_issue = t_issue
        self.t_first_accept = -1
        self.t_last_accept = -1
        # running extrema over this instruction's requests, maintained
        # at the stamp sites so completion is O(1), not O(requests)
        self.l2_in_min = -1
        self.l2_in_max = -1
        self.back_min = -1
        self.back_max = -1
        self.load_class = load_class
        self.pc = pc
        self.kernel_name = kernel_name
        self.is_load = is_load
        self.is_store = is_store
        self.fixed_latency = fixed_latency  # shared/const/empty accesses
        #: LD/ST port cycles a fixed-latency access occupies at the head
        #: (> 1 models shared-memory bank-conflict serialization)
        self.port_cycles = 1

    def accept(self, now):
        if self.t_first_accept < 0:
            self.t_first_accept = now
        self.t_last_accept = now

    def note_l2_in(self, t):
        """One of this instruction's requests entered an L2 slice."""
        if self.l2_in_min < 0:
            self.l2_in_min = self.l2_in_max = t
        elif t < self.l2_in_min:
            self.l2_in_min = t
        elif t > self.l2_in_max:
            self.l2_in_max = t

    def note_back(self, t):
        """One of this instruction's requests got its data back."""
        if self.back_min < 0:
            self.back_min = self.back_max = t
        elif t < self.back_min:
            self.back_min = t
        elif t > self.back_max:
            self.back_max = t


class _Static:
    """Issue-stage facts about one static instruction."""

    __slots__ = ("inst", "mask", "dest_mask", "unit", "is_memory")

    def __init__(self, inst, mask, dest_mask):
        self.inst = inst
        #: registers the instruction reads or writes: it may issue only
        #: when none of them has a write in flight (RAW and WAW hazards)
        self.mask = mask
        self.dest_mask = dest_mask
        self.unit = inst.unit
        self.is_memory = inst.is_memory


class HazardTable:
    """Register bitmasks for the scoreboard, one entry per static
    instruction.

    Each register name of a launch gets one bit, so a scoreboard check is
    ``pending & mask`` instead of a set lookup per operand.  The GPU
    builds a table per launch from the kernel's instruction list;
    instructions it has not seen (record traces, hand-built tests) are
    added on first use.
    """

    def __init__(self, instructions=()):
        self._bits: Dict[str, int] = {}
        self._names: List[str] = []
        # keyed by id(); the entry holds the instruction, so the id
        # cannot be reused while the table lives
        self._by_id: Dict[int, _Static] = {}
        for inst in instructions:
            self.of(inst)

    def _mask(self, names):
        mask = 0
        for name in names:
            bit = self._bits.get(name)
            if bit is None:
                bit = self._bits[name] = len(self._names)
                self._names.append(name)
            mask |= 1 << bit
        return mask

    def of(self, inst):
        info = self._by_id.get(id(inst))
        if info is None:
            dest_mask = self._mask(inst.write_reg_names)
            info = _Static(inst, self._mask(inst.read_reg_names) | dest_mask,
                           dest_mask)
            self._by_id[id(inst)] = info
        return info

    def names(self, mask):
        """The register names whose bits are set in ``mask``."""
        return sorted(name for bit, name in enumerate(self._names)
                      if mask >> bit & 1)


class _OpView:
    """The slice of one trace op the timing model consumes."""

    __slots__ = ("inst", "pc", "addresses")

    def __init__(self, inst, pc, addresses):
        self.inst = inst
        self.pc = pc
        self.addresses = addresses


class _WarpRun:
    """One resident warp replaying its trace.

    Columnar warp traces are replayed straight off their column arrays:
    each issued op materializes one transient :class:`_OpView` (cached
    while the issue pointer sits on it) instead of the legacy path's
    up-front list of per-op record objects.  Legacy record traces fall
    back to that list.  ``info``/``op_mask`` describe the op at the issue
    pointer and are reloaded when it advances.
    """

    __slots__ = ("trace", "ptr", "n", "pending", "at_barrier",
                 "cta", "trace_done", "age", "info", "op_mask", "_hazards",
                 "_ops", "_insts", "_pc", "_kind", "_astart", "_lanes",
                 "_addrs", "_cur_idx", "_cur_op")

    def __init__(self, trace, cta, age, hazards):
        self.trace = trace
        self.ptr = 0
        #: bitmask of registers with a write in flight
        self.pending = 0
        self.at_barrier = False
        self.cta = cta
        self.age = age
        self._hazards = hazards
        self._cur_idx = -1
        self._cur_op = None
        self.info = None
        self.op_mask = 0
        if hasattr(trace, "iter_chunks"):  # ColumnarWarpTrace
            trace.seal()
            self._ops = None
            self._insts = trace._launch.instructions
            self._pc = trace.pc
            self._kind = trace.kind
            self._astart = trace.astart
            self._lanes = trace.lanes
            self._addrs = trace.addrs
            self.n = len(trace.pc)
        else:
            self._ops = trace.ops
            self.n = len(self._ops)
        self.trace_done = not self.n
        if self.n:
            self.load()

    def load(self):
        """Point ``info``/``op_mask`` at the op under the issue pointer."""
        if self._ops is not None:
            inst = self._ops[self.ptr].inst
        else:
            inst = self._insts[int(self._pc[self.ptr]) >> _PC_SHIFT]
        info = self.info = self._hazards.of(inst)
        self.op_mask = info.mask

    def op_at(self, idx):
        """The op view at trace position ``idx`` (uncached)."""
        if self._ops is not None:
            return self._ops[idx]
        pc = int(self._pc[idx])
        inst = self._insts[pc >> _PC_SHIFT]
        addresses = None
        if self._kind[idx] != KIND_NONE:
            lo, hi = int(self._astart[idx]), int(self._astart[idx + 1])
            addresses = list(zip(self._lanes[lo:hi].tolist(),
                                 self._addrs[lo:hi].tolist()))
        return _OpView(inst, pc, addresses)

    def peek(self):
        """The op at the issue pointer (cached until the warp advances)."""
        if self._cur_idx != self.ptr:
            self._cur_op = self.op_at(self.ptr)
            self._cur_idx = self.ptr
        return self._cur_op


class _CTASlot:
    """Bookkeeping for one CTA resident on the SM."""

    __slots__ = ("cta_id", "warps", "warps_not_done", "barrier_count",
                 "outstanding")

    def __init__(self, cta_id):
        self.cta_id = cta_id
        self.warps: List[_WarpRun] = []
        self.warps_not_done = 0
        self.barrier_count = 0
        self.outstanding = 0  # issued ops whose writeback is pending

    @property
    def finished(self):
        return self.warps_not_done == 0 and self.outstanding == 0

    def check_barrier_release(self):
        """Release the barrier once every live warp has arrived."""
        waiting = [w for w in self.warps if w.at_barrier]
        if waiting and len(waiting) >= self.warps_not_done:
            for w in waiting:
                w.at_barrier = False
            self.barrier_count = 0
            return True
        return False


class SMCore:
    """One streaming multiprocessor."""

    def __init__(self, sm_id, config, stats, req_icnt, on_cta_finished,
                 partition_map=None):
        self.sm_id = sm_id
        self.config = config
        self.stats = stats
        self.req_icnt = req_icnt
        self.on_cta_finished = on_cta_finished
        if partition_map is None:
            partition_map = lambda sm, block: (
                (block // config.l1_line_size) % config.num_partitions)
        self.partition_map = partition_map
        self.l1 = Cache(
            num_sets=config.l1_num_sets,
            assoc=config.l1_assoc,
            line_size=config.l1_line_size,
            mshr_entries=config.l1_mshr_entries,
            mshr_merge=config.l1_mshr_merge,
            name="L1[%d]" % sm_id,
        )
        self.ldst_queue: deque = deque()
        self.warps: List[_WarpRun] = []
        self.ctas: Dict[int, _CTASlot] = {}
        self._rr = 0
        self._greedy: Optional[_WarpRun] = None  # gto scheduler state
        self._warp_age = count()
        self._sp_busy_until = 0
        self._sfu_busy_until = 0
        self._events: List = []
        self._seq = count()
        # prefetcher state (Section X.A extension)
        self._pf_queue: deque = deque()
        self._pf_stride: Dict[int, Tuple[int, int]] = {}
        #: per-launch context, set by the GPU before simulation
        self.kernel_name = ""
        self.pc_classes: Dict[int, str] = {}
        self.hazards = HazardTable()
        #: classified loads issued whose completion is not yet recorded
        self.loads_in_flight = 0
        # -- event-driven stepping (see the module docstring) --
        #: the next cycle the GPU must step this SM
        self.wake_at = 0
        #: True while asleep on a reservation failure a returning
        #: request-network credit can clear
        self.waits_for_credit = False
        # first cycle neither stepped nor credited (the GPU clock's first
        # cycle is 1)
        self._next_cycle = 1
        # what one slept cycle adds to the stats: the issue-stall reason
        # (None without resident warps) and the failing LD/ST head's
        # (outcome, class label) (None when the unit is idle)
        self._idle_reason: Optional[str] = None
        self._idle_l1: Optional[Tuple[Outcome, str]] = None
        #: the last failed issue scan, ``(reason, retry_at)``: nothing can
        #: issue before ``retry_at`` unless the cache is dropped
        self._stall: Optional[Tuple[str, int]] = None

    # -- occupancy -----------------------------------------------------------

    @property
    def resident_ctas(self):
        return len(self.ctas)

    def assign_cta(self, cta_id, warp_traces):
        """Make a CTA resident; its warps join the scheduling pool."""
        slot = _CTASlot(cta_id)
        for trace in warp_traces:
            run = _WarpRun(trace, slot, age=next(self._warp_age),
                           hazards=self.hazards)
            slot.warps.append(run)
            if not run.trace_done:
                slot.warps_not_done += 1
            self.warps.append(run)
        self.ctas[cta_id] = slot
        self._stall = None
        self.wake_at = min(self.wake_at, self._next_cycle)
        # a CTA with only empty warp traces finishes immediately
        if slot.finished:
            self._retire_cta(slot)

    def _retire_cta(self, slot):
        del self.ctas[slot.cta_id]
        keep = [w for w in self.warps if w.cta is not slot]
        self.warps = keep
        self._rr = 0 if not keep else self._rr % len(keep)
        if self._greedy is not None and self._greedy.cta is slot:
            self._greedy = None
        self._stall = None
        self.on_cta_finished(self.sm_id, slot.cta_id)

    def _release(self, cta):
        """One of ``cta``'s issued ops completed."""
        cta.outstanding -= 1
        if cta.finished:
            self._retire_cta(cta)

    # -- responses from the memory system ------------------------------------------

    def receive_response(self, req, now):
        """A data response arrived over the response network.

        The caller wakes the SM first (:meth:`wake`), so the cycles it
        slept through are credited before the response changes its state.
        """
        if req.is_atomic:
            self._complete_request(req, now)
            return
        waiters = self.l1.fill(req.block_addr)
        if req not in waiters:
            waiters.append(req)
        for waiter in waiters:
            self._complete_request(waiter, now)

    def _complete_request(self, req, now):
        req.t_back = now
        inflight = req.inflight
        if inflight is None:
            return  # prefetch fill: no warp is waiting
        inflight.note_back(now)
        inflight.outstanding -= 1
        if inflight.outstanding == 0 and not inflight.pending:
            self._finish_inflight(inflight, now)

    def _finish_inflight(self, inflight, now):
        warp = inflight.warp
        warp.pending &= ~inflight.dest_mask
        self._stall = None
        self._record_completion(inflight, now)
        self._release(warp.cta)

    def _record_completion(self, inflight, now):
        if not inflight.is_load or inflight.load_class is None \
                or not inflight.requests:
            return
        self.loads_in_flight -= 1
        turnaround = now - inflight.t_issue
        wait_first = max(0, inflight.t_first_accept - inflight.t_issue)
        gap_l1d = max(0, inflight.t_last_accept - inflight.t_first_accept)
        # running extrema maintained at the stamp sites (note_l2_in /
        # note_back): completion stays O(1) for wide fan-out loads
        spread_l2_in = (inflight.l2_in_max - inflight.l2_in_min
                        if inflight.l2_in_min >= 0 else 0)
        spread_back = (inflight.back_max - inflight.back_min
                       if inflight.back_min >= 0 else 0)
        gap_icnt_l2 = max(0, spread_l2_in - gap_l1d)
        gap_l2_icnt = max(0, spread_back - spread_l2_in)
        self.stats.record_load_completion(
            inflight.kernel_name, inflight.pc, inflight.load_class,
            inflight.n_requests, turnaround, wait_first, gap_l1d,
            gap_icnt_l2, gap_l2_icnt)

    # -- per-cycle work ----------------------------------------------------------------

    def wake(self, now):
        """Make the SM run at cycle ``now``: an external event is about to
        change its state.  The cycles it slept through are credited first,
        with the state they repeated."""
        if now > self._next_cycle:
            self._credit_idle(now - self._next_cycle)
            self._next_cycle = now
        if self.wake_at > now:
            self.wake_at = now
        self.waits_for_credit = False

    def _credit_idle(self, cycles):
        """Add ``cycles`` slept cycles' worth of per-cycle statistics."""
        stats = self.stats
        reason = self._idle_reason
        if reason is not None:
            stats.active_sm_cycles += cycles
            stats.issue_stall[reason] += cycles
        if self._idle_l1 is not None:
            outcome, label = self._idle_l1
            stats.unit_busy["ldst"] += cycles
            stats.l1_cycles[outcome] += cycles
            stats.l1_cycles_by_class[label][outcome] += cycles

    def cycle(self, now):
        """Advance one cycle, then set ``wake_at`` to the next cycle the
        SM must be stepped at."""
        if now > self._next_cycle:
            self._credit_idle(now - self._next_cycle)
        self._next_cycle = now + 1
        events = self._events
        if events and events[0][0] <= now:
            self._pop_events(now)
        head_fail = None
        pf_blocked = False
        if self.ldst_queue:
            head_fail = self._ldst_cycle(now)
        elif self._pf_queue:
            # the L1 port is free this cycle: spend it on a prefetch
            pf_blocked = self._prefetch_cycle(now)
        issued = self._issue(now) if self.warps else False
        warps = self.warps
        if warps:
            self.stats.active_sm_cycles += 1
            if not issued:
                self.stats.issue_stall[self._stall[0]] += 1

        # Does the next cycle repeat this one?  Only if the issue stage is
        # known to be stuck past it and the LD/ST port has nothing new.
        stall = self._stall
        if warps and (stall is None or stall[1] <= now + 1):
            self.wake_at = now + 1
            return
        if self.ldst_queue:
            if head_fail is None:
                self.wake_at = now + 1
                return
            self._idle_l1 = (head_fail, class_label(
                self.ldst_queue[0].pending[0].load_class))
        elif self._pf_queue and not pf_blocked:
            self.wake_at = now + 1
            return
        else:
            self._idle_l1 = None
        self.waits_for_credit = (head_fail is Outcome.RSRV_FAIL_ICNT
                                 or pf_blocked)
        wake = NEVER
        if warps:
            self._idle_reason = stall[0]
            wake = stall[1]
        else:
            self._idle_reason = None
        if events and events[0][0] < wake:
            wake = events[0][0]
        self.wake_at = wake

    def stall_reason(self):
        """Why no instruction can issue right now (coarse, prioritized).

        The readable reference for the reason the issue stage caches in
        ``_stall`` after a failed scan.
        """
        live = [w for w in self.warps if not w.trace_done]
        if not live:
            return "drained"
        runnable = [w for w in live if not w.at_barrier]
        if not runnable:
            return "barrier"
        for warp in runnable:
            if self._scoreboard_ready(warp):
                return "unit_busy"
        return "scoreboard"

    def debug_state(self):
        """Scheduling-relevant state for deadlock reports."""
        warps = []
        for w in self.warps:
            if w.trace_done and not w.pending:
                continue
            warps.append({"cta": w.cta.cta_id, "warp": w.trace.warp_id,
                          "op": "%d/%d" % (w.ptr, w.n),
                          "at_barrier": w.at_barrier,
                          "pending_regs": self.hazards.names(w.pending)})
        return {"sm": self.sm_id,
                "resident_ctas": sorted(self.ctas),
                "stall": self.stall_reason() if self.warps else "empty",
                "ldst_queue": len(self.ldst_queue),
                "pending_events": len(self._events),
                "l1_mshr": self.l1.mshr.debug_state(),
                "warps": warps}

    def _pop_events(self, now):
        events = self._events
        while events and events[0][0] <= now:
            _t, _s, kind, payload = heapq.heappop(events)
            if kind == "wb":
                warp, dest_mask = payload
                warp.pending &= ~dest_mask
                self._stall = None
                self._release(warp.cta)
            elif kind == "hit":
                self._complete_request(payload, now)
            elif kind == "fixed":
                self._finish_inflight(payload, now)

    def _schedule(self, time, kind, payload):
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))

    # -- LD/ST unit ---------------------------------------------------------------------

    def _pop_ldst(self):
        self.ldst_queue.popleft()
        self._stall = None  # a warp may be waiting for a queue slot

    def _ldst_cycle(self, now):
        """One LD/ST port cycle on the queue head; returns the
        reservation-failure outcome when the head must retry, else None."""
        self.stats.unit_busy["ldst"] += 1
        head = self.ldst_queue[0]

        if head.fixed_latency is not None:
            # shared/const/param accesses and all-inactive loads: fixed
            # latency, no L1 traffic; bank-conflicted shared accesses
            # occupy the port for several cycles
            head.port_cycles -= 1
            if head.port_cycles > 0:
                self.stats.shared_bank_conflict_cycles += 1
                return None
            self._pop_ldst()
            if head.dest_mask:
                self._schedule(now + head.fixed_latency, "fixed", head)
            else:
                self._release(head.warp.cta)
            return None

        req = head.pending[0]
        outcome = self._access_l1(req, now)
        self.stats.record_l1_cycle(outcome, req.load_class)
        if outcome.is_fail:
            return outcome
        if not req.is_write and not req.is_atomic:
            self.stats.record_l1_result(outcome, req.load_class)
        req.t_accept = now
        head.accept(now)
        head.pending.pop(0)
        if not head.pending:
            self._pop_ldst()
            if head.is_store:
                # write-through stores complete at acceptance
                self._release(head.warp.cta)
            elif head.outstanding == 0:
                self._finish_inflight(head, now)
        return None

    def _access_l1(self, req, now):
        """Present one request to the L1 port; returns the outcome."""
        if req.is_write or req.is_atomic:
            # bypass: stores are write-through no-allocate (write-evict on
            # hit), atomics execute at the L2 — both only need a network slot
            if not self.req_icnt.can_inject(self.sm_id):
                return Outcome.RSRV_FAIL_ICNT
            if req.is_write:
                self.l1.write_touch(req.block_addr)
            self.req_icnt.inject(req, self.sm_id, req.partition, now)
            return Outcome.MISS

        outcome = self.l1.lookup(req.block_addr)
        if outcome is Outcome.HIT:
            self.l1.commit_hit(req.block_addr)
            self._schedule(now + self.config.l1_hit_latency, "hit", req)
            return outcome
        if outcome is Outcome.HIT_RESERVED:
            self.l1.commit_hit_reserved(req.block_addr, req)
            return outcome
        if outcome is Outcome.MISS:
            if not self.req_icnt.can_inject(self.sm_id):
                return Outcome.RSRV_FAIL_ICNT
            self.l1.commit_miss(req.block_addr, req)
            self.req_icnt.inject(req, self.sm_id, req.partition, now)
            return outcome
        return outcome  # a reservation failure from the cache itself

    # -- issue stage ------------------------------------------------------------------------

    @staticmethod
    def _scoreboard_ready(warp):
        return not warp.pending & warp.op_mask

    def _unit_free_at(self, info):
        """The cycle the unit that just refused ``info`` can take it
        (``NEVER`` for a full LD/ST queue: a pop drops the stall cache)."""
        if info.is_memory:
            return NEVER
        if info.unit is Unit.SP:
            return self._sp_busy_until
        return self._sfu_busy_until

    def _issue(self, now):
        """Issue up to ``issue_width`` instructions; True if any issued.

        ``lrr`` (the paper's baseline) visits warps rotating from the one
        after the last issuer; ``gto`` visits the greedy warp first, then
        the rest oldest first (``self.warps`` is kept in age order).  A
        scan that finds nothing to issue caches its stall reason and the
        earliest cycle a busy unit frees; until then, unless a state
        change drops the cache, the scan is skipped.
        """
        stall = self._stall
        if stall is not None and now < stall[1]:
            return False
        self._stall = None
        gto = self.config.warp_scheduler == "gto"
        width = self.config.issue_width
        issued = 0
        while issued < width and self.warps:
            warps = self.warps
            n = len(warps)
            if gto:
                greedy = self._greedy
                order = warps if greedy is None else (
                    [greedy] + [w for w in warps if w is not greedy])
            else:
                start = self._rr % n
                order = warps[start:] + warps[:start] if start else warps
            live = runnable = ready = False
            retry_at = NEVER
            for warp in order:
                if warp.trace_done:
                    continue
                live = True
                if warp.at_barrier:
                    continue
                runnable = True
                if warp.pending & warp.op_mask:
                    continue
                ready = True
                if self._try_issue(warp, now):
                    break
                free_at = self._unit_free_at(warp.info)
                if free_at < retry_at:
                    retry_at = free_at
            else:
                self._stall = (
                    "unit_busy" if ready else "scoreboard" if runnable
                    else "barrier" if live else "drained", retry_at)
                break
            issued += 1
            if gto:
                self._greedy = warp
            else:
                # loose round-robin: restart after the issued warp
                self._rr = (warps.index(warp) + 1) % n
            self._advance(warp)
        return issued > 0

    def _advance(self, warp):
        warp.ptr += 1
        self.stats.issued_warp_insts += 1
        if warp.ptr >= warp.n:
            warp.trace_done = True
            warp.cta.warps_not_done -= 1
            warp.cta.check_barrier_release()
            if warp.cta.finished:
                self._retire_cta(warp.cta)
        else:
            warp.load()

    def _try_issue(self, warp, now):
        info = warp.info
        if info.is_memory:
            return self._issue_memory(warp, now)

        unit = info.unit
        if unit is Unit.SP:
            if self._sp_busy_until > now:
                return False
            self._sp_busy_until = now + self.config.sp_initiation_interval
            self.stats.unit_busy["sp"] += self.config.sp_initiation_interval
            latency = self.config.sp_latency
        elif unit is Unit.SFU:
            if self._sfu_busy_until > now:
                return False
            self._sfu_busy_until = now + self.config.sfu_initiation_interval
            self.stats.unit_busy["sfu"] += self.config.sfu_initiation_interval
            latency = self.config.sfu_latency
        else:  # CTRL: bra / bar / membar / exit occupy only the issue stage
            if info.inst.is_barrier:
                warp.at_barrier = True
                warp.cta.barrier_count += 1
                warp.cta.check_barrier_release()
            return True

        if info.dest_mask:
            warp.pending |= info.dest_mask
            warp.cta.outstanding += 1
            self._schedule(now + latency, "wb", (warp, info.dest_mask))
        return True

    def _issue_memory(self, warp, now):
        if len(self.ldst_queue) >= self.config.ldst_queue_size:
            return False
        op = warp.peek()
        inst = op.inst
        dest_mask = warp.info.dest_mask
        space = inst.space

        if space is Space.GLOBAL or space is Space.TEX or space is Space.LOCAL:
            load_class = self.pc_classes.get(inst.pc) if inst.is_load else None
            if inst.is_atomic:
                load_class = self.pc_classes.get(inst.pc)
            inflight = InflightMemInst(
                warp, dest_mask, inst.pc, self.kernel_name, load_class,
                is_load=inst.is_load or inst.is_atomic,
                is_store=inst.is_store, t_issue=now)
            blocks = coalesce_addresses(
                op.addresses or (), line_size=self.config.l1_line_size,
                access_size=inst.access_bytes)
            if not blocks:
                # all lanes predicated off: trivial completion
                inflight.fixed_latency = 1
            elif inflight.is_load and load_class is not None:
                self.loads_in_flight += 1
            for block in blocks:
                req = MemRequest(
                    block_addr=block, pc=inst.pc, load_class=load_class,
                    is_write=inst.is_store, is_atomic=inst.is_atomic,
                    sm_id=self.sm_id, inflight=inflight)
                req.t_issue = now
                req.partition = self.partition_map(self.sm_id, block)
                inflight.pending.append(req)
                inflight.requests.append(req)
            inflight.n_requests = len(blocks)
            inflight.outstanding = 0 if inst.is_store else len(blocks)
            if inst.is_load:
                self.stats.global_load_insts += 1
                self.stats.record_coalescing(
                    load_class, len(blocks),
                    len(op.addresses) if op.addresses else 0)
            elif inst.is_store:
                self.stats.global_store_insts += 1
        else:
            # shared / const / param: fixed-latency path, no L1 traffic
            if space is Space.SHARED:
                latency = self.config.shared_latency
                if inst.is_shared_load:
                    self.stats.shared_load_insts += 1
            else:
                latency = self.config.const_latency
            inflight = InflightMemInst(
                warp, dest_mask if inst.is_load or inst.is_atomic else 0,
                inst.pc, self.kernel_name, None,
                is_load=inst.is_load, is_store=inst.is_store,
                t_issue=now, fixed_latency=latency)
            if space is Space.SHARED and op.addresses:
                inflight.port_cycles = self._bank_conflict_degree(
                    op.addresses)

        warp.pending |= inflight.dest_mask
        warp.cta.outstanding += 1
        self.ldst_queue.append(inflight)
        if self.config.prefetcher != "none" and inst.is_load \
                and space is Space.GLOBAL:
            self._generate_prefetches(warp, op)
        return True

    def _bank_conflict_degree(self, addresses):
        """Port cycles a shared access needs: the worst bank's count of
        *distinct* words (same-word accesses broadcast for free)."""
        banks: Dict[int, Set[int]] = {}
        width = self.config.shared_bank_width
        nbanks = self.config.shared_banks
        for _lane, addr in addresses:
            word = addr // width
            banks.setdefault(word % nbanks, set()).add(word)
        if not banks:
            return 1
        return max(len(words) for words in banks.values())

    # -- prefetcher (Section X.A extension) --------------------------------

    def _pf_push(self, block):
        if len(self._pf_queue) >= self.config.prefetch_queue_size:
            self._pf_queue.popleft()
            self.stats.prefetch_dropped += 1
        self._pf_queue.append(block)

    def _generate_prefetches(self, warp, op):
        config = self.config
        if config.prefetcher == "stride":
            # classic per-PC stride prediction on the load's first block
            blocks = coalesce_addresses(op.addresses or (),
                                        line_size=config.l1_line_size)
            if not blocks:
                return
            first = blocks[0]
            last = self._pf_stride.get(op.pc)
            if last is not None:
                stride = first - last[0]
                if stride != 0 and stride == last[1]:
                    self._pf_push(first + stride)
                self._pf_stride[op.pc] = (first, stride)
            else:
                self._pf_stride[op.pc] = (first, 0)
            return
        # indirect oracle: look ahead in this warp's trace for the next
        # non-deterministic global load and prefetch its blocks — a
        # perfect indirect-address predictor (upper bound for [16])
        lookahead = config.prefetch_lookahead
        for idx in range(warp.ptr + 1,
                         min(warp.ptr + 1 + lookahead, warp.n)):
            future = warp.op_at(idx)
            if future.addresses is None or not future.inst.is_global_load:
                continue
            if self.pc_classes.get(future.inst.pc) != "N":
                continue
            for block in coalesce_addresses(
                    future.addresses, line_size=config.l1_line_size):
                self._pf_push(block)
            break

    def _prefetch_cycle(self, now):
        """Spend a free L1-port cycle on the oldest pending prefetch;
        returns True when it has to wait for a request-network credit."""
        block = self._pf_queue.popleft()
        outcome = self.l1.lookup(block)
        if outcome is not Outcome.MISS:
            return False  # already present, in flight, or unprefetchable
        if not self.req_icnt.can_inject(self.sm_id):
            self._pf_queue.appendleft(block)
            return True
        req = MemRequest(block_addr=block, pc=0, load_class=None,
                         sm_id=self.sm_id, is_prefetch=True)
        req.t_issue = now
        req.partition = self.partition_map(self.sm_id, block)
        self.l1.commit_miss(block, req)
        self.req_icnt.inject(req, self.sm_id, req.partition, now)
        self.stats.prefetch_issued += 1
        return False
