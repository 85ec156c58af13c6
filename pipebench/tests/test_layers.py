import json
import os
import subprocess
import sys
import threading

import layers
from conftest import BENCH, ROOT


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_wrappers():
    clock = FakeClock()
    lc = layers.LayerClock(clock=clock)

    def inner():
        clock.now += 4

    def outer():
        clock.now += 1
        inner()
        clock.now += 2
        inner()
        clock.now += 3

    inner = lc.wrap("inner", inner)
    outer = lc.wrap("outer", outer)
    outer()
    report = lc.report()
    assert report["inclusive"] == {"outer": 14, "inner": 8}
    assert report["self"] == {"outer": 6, "inner": 8}
    assert report["calls"] == {"outer": 1, "inner": 2}
    # self times partition the wrapped interval
    assert sum(report["self"].values()) == report["inclusive"]["outer"]


def test_recursion_is_counted_once_in_inclusive_time():
    clock = FakeClock()
    lc = layers.LayerClock(clock=clock)

    def walk(depth):
        clock.now += 1
        if depth:
            walk(depth - 1)

    walk = lc.wrap("walk", walk)
    walk(2)
    report = lc.report()
    assert report["inclusive"] == {"walk": 3}
    assert report["self"] == {"walk": 3}
    assert report["calls"] == {"walk": 3}


def test_stacks_are_per_thread_and_after_hooks_see_results():
    lc = layers.LayerClock()
    seen = []
    barrier = threading.Barrier(2)

    def work(x):
        barrier.wait(timeout=5)
        return x * 2

    work = lc.wrap("work", work, after=lambda r, a, k: seen.append(r))
    threads = [threading.Thread(target=work, args=(i,)) for i in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert sorted(seen) == [2, 4]
    assert lc.report()["calls"] == {"work": 2}
    assert lc.stack() == []


def test_traced_child_reports_every_layer_of_a_job():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), "batch",
         "--traced"], cwd=ROOT, env=env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    request = {"app": "bfs", "scale": 0.05, "seed": 3, "races": "interval"}
    messages = [{"op": "job", "request": request}, {"op": "report"}]
    out, _ = proc.communicate(
        "".join(json.dumps(m) + "\n" for m in messages), timeout=120)
    assert proc.returncode == 0
    ready, answer, report = [json.loads(line) for line in out.splitlines()]
    assert ready == {"ready": True} and answer["ok"]
    assert report["problems"] == []
    calls, counts = report["calls"], report["counts"]
    for layer in ("ptx.parse", "core.classify", "workloads.setup",
                  "workloads.verify", "emulator.emulate", "sim.run_launch",
                  "sim.sm_cycle", "sim.partition_cycle", "sim.icnt",
                  "profiling.locality", "analysis.races", "experiments.app"):
        assert calls.get(layer, 0) > 0, layer
    assert calls["workloads.verify"] == 1
    sim = answer["payload"]["simulation"]
    assert counts["sim.warp_insts"] == sim["issued_warp_insts"] \
        == counts["emulator.warp_insts"] == answer["trace_warp_insts"]
    assert counts["sim.cycles"] == sim["cycles"]
    # the wrappers account for nearly all of the job's time
    assert sum(report["self"].values()) <= answer["wall_s"]
    assert sum(report["self"].values()) > 0.8 * answer["wall_s"]
