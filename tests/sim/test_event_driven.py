"""Tests for the event-driven main loop: sleeping SMs and their wake paths.

The loop steps an SM only on cycles where its state can change, and
credits the skipped cycles' statistics when it next runs.  These tests
drive each way an SM can be woken and check, on a whole application,
that the lazily credited stall reason is the one a per-cycle evaluation
would have counted.  The exact counters themselves are pinned by the
simulator golden fixtures (``tests/golden/test_golden_sim.py``).
"""

import pytest

from repro.core import classify_kernel
from repro.sim import GPU, TINY
from repro.sim.cache import Outcome
from repro.sim.core import NEVER, SMCore
from repro.sim.gpu import SimulationError
from repro.sim.memory_partition import MemoryPartition
from repro.sim.request import MemRequest

from .test_gpu import STREAM, trace_of


def _run(run, config=TINY, gpu=None):
    gpu = gpu or GPU(config)
    gpu.run_application(run.trace, run.classifications)
    return gpu


@pytest.fixture
def stepped(monkeypatch):
    """Record every ``(cycle, sm)`` at which an SM is stepped, and every
    wake that ended a sleep (``(cycle, sm, waited_for_credit)``)."""
    log = {"steps": set(), "wakes": []}
    cycle, wake = SMCore.cycle, SMCore.wake

    def spy_cycle(self, now):
        log["steps"].add((now, self.sm_id))
        return cycle(self, now)

    def spy_wake(self, now):
        if self.wake_at > now:
            log["wakes"].append((now, self.sm_id, self.waits_for_credit))
        return wake(self, now)

    monkeypatch.setattr(SMCore, "cycle", spy_cycle)
    monkeypatch.setattr(SMCore, "wake", spy_wake)
    return log


class TestWakePaths:
    def test_response_is_handled_in_the_cycle_it_arrives(
            self, bfs_run, stepped, monkeypatch):
        arrivals = []
        receive = SMCore.receive_response

        def spy_receive(self, req, now):
            arrivals.append((now, self.sm_id, self.wake_at))
            return receive(self, req, now)

        monkeypatch.setattr(SMCore, "receive_response", spy_receive)
        _run(bfs_run)
        assert arrivals
        # the SM was woken for the response: due this cycle, and stepped
        assert all(wake_at == now for now, _sm, wake_at in arrivals)
        assert all((now, sm) in stepped["steps"] for now, sm, _ in arrivals)
        # ...and some of those responses found it asleep
        woken = {(now, sm) for now, sm, _credit in stepped["wakes"]}
        assert woken & {(now, sm) for now, sm, _ in arrivals}

    def test_credit_return_wakes_an_sm_stuck_on_icnt(self, bfs_run, stepped):
        gpu = _run(bfs_run, TINY.scaled(icnt_credits_per_sm=2))
        credit_wakes = [(now, sm) for now, sm, credit in stepped["wakes"]
                        if credit]
        assert credit_wakes, "no SM ever slept on a request-network credit"
        assert all(step in stepped["steps"] for step in credit_wakes)
        assert gpu.stats.l1_cycles[Outcome.RSRV_FAIL_ICNT] > 0

    def test_assign_cta_wakes_an_empty_sm(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        sm = gpu.sms[0]
        sm.cycle(1)
        assert sm.wake_at == NEVER  # nothing resident, nothing pending
        sm.assign_cta(trace.warps[0].cta_id, [trace.warps[0]])
        assert sm.wake_at <= 2

    def test_sleeping_sm_without_events_still_deadlocks(self, monkeypatch):
        """Requests vanish at the partitions, so every SM ends up asleep
        on the scoreboard with nothing scheduled to wake it."""
        kernel, trace = trace_of(STREAM)
        monkeypatch.setattr(MemoryPartition, "receive",
                            lambda self, req, now: None)
        gpu = GPU(TINY)
        with pytest.raises(SimulationError) as info:
            gpu.run_launch(trace, classify_kernel(kernel))
        assert "deadlock" in str(info.value)
        assert all(sm.wake_at == NEVER for sm in gpu.sms)


class TestLazyCrediting:
    def test_cached_stall_reason_matches_reference(
            self, bfs_run, monkeypatch):
        """On every stalled cycle of bfs — stepped or slept through — the
        reason the issue stage used equals ``stall_reason()``."""
        checked = {"stepped": 0, "slept": 0}
        cycle, credit = SMCore.cycle, SMCore._credit_idle

        def check_cycle(self, now):
            issued = self.stats.issued_warp_insts
            cycle(self, now)
            if self.warps and self.stats.issued_warp_insts == issued:
                assert self._stall[0] == self.stall_reason()
                checked["stepped"] += 1

        def check_credit(self, cycles):
            # credited before anything changes the state it slept in
            expected = self.stall_reason() if self.warps else None
            assert self._idle_reason == expected
            checked["slept"] += 1
            return credit(self, cycles)

        monkeypatch.setattr(SMCore, "cycle", check_cycle)
        monkeypatch.setattr(SMCore, "_credit_idle", check_credit)
        _run(bfs_run)
        assert checked["stepped"] > 0 and checked["slept"] > 0

    def test_idle_cycles_are_fully_credited(self, bfs_run):
        stats = _run(bfs_run).stats
        stalled = sum(stats.issue_stall.values())
        # every SM-active cycle either issued or stalled for a reason
        assert 0 < stalled < stats.active_sm_cycles
        assert stats.active_sm_cycles <= stats.cycles * TINY.num_sms


class TestConservation:
    def test_missing_instructions_fail_the_launch(self):
        kernel, trace = trace_of(STREAM)
        trace.total_warp_instructions = lambda: 10 ** 6
        with pytest.raises(SimulationError) as info:
            GPU(TINY).run_launch(trace, classify_kernel(kernel))
        assert "conservation check failed" in str(info.value)
        assert "the trace has 1000000" in str(info.value)

    def test_stranded_demand_miss_fails_the_launch(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stranded = MemRequest(block_addr=1 << 40, pc=0, load_class="D")
        gpu.sms[0].l1.commit_miss(stranded.block_addr, stranded)
        with pytest.raises(SimulationError) as info:
            gpu.run_launch(trace, classify_kernel(kernel))
        assert "demand waiters" in str(info.value)

    def test_in_flight_prefetch_is_allowed(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        prefetch = MemRequest(block_addr=1 << 40, pc=0, load_class=None,
                              is_prefetch=True)
        gpu.sms[0].l1.commit_miss(prefetch.block_addr, prefetch)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        assert stats.issued_warp_insts == trace.total_warp_instructions()


def test_sm_sleeps_through_stalled_cycles(bfs_run, stepped):
    gpu = _run(bfs_run)
    # far fewer SM steps than SM-cycles: the loop skips sleeping SMs
    assert len(stepped["steps"]) < gpu.stats.cycles * TINY.num_sms / 2

