import copy
import os

import pytest

import checks


def _fresh_seed():
    # a seed no run of the benchmark was written against
    return int.from_bytes(os.urandom(3), "big") + 1


@pytest.fixture(scope="module")
def job():
    from repro.service.pipeline import execute_job

    request = {"app": "gaus", "scale": 0.05, "seed": _fresh_seed(),
               "races": "interval", "knobs": {"scheduler": "gto"}}
    return request, execute_job(dict(request), use_trace_cache=False)


def test_accepts_a_seed_never_seen(job):
    request, payload = job
    assert checks.payload_problems(request, payload) == []


@pytest.mark.parametrize("corrupt", [
    lambda p: p["simulation"]["classes"]["D"].__setitem__(
        "loads", p["simulation"]["classes"]["D"]["loads"] + 1),
    lambda p: p["classification"]["dynamic_split"].__setitem__(
        "deterministic", 0),
    lambda p: p.__setitem__("simulation", None),
    lambda p: p.__setitem__("races", None),
    lambda p: p.__setitem__("advise", {"verdict": "x"}),
    lambda p: p["request"].__setitem__("seed", p["request"]["seed"] + 1),
    lambda p: p["request"].__setitem__("knobs", {}),
])
def test_rejects_a_planted_corrupted_payload(job, corrupt):
    request, payload = job
    bad = copy.deepcopy(payload)
    corrupt(bad)
    assert checks.payload_problems(request, bad)


def test_identical_requests_must_return_identical_payloads(job):
    request, payload = job
    changed = copy.deepcopy(payload)
    changed["simulation"]["cycles"] += 1
    assert checks.repeat_problems([(request, payload), (request, payload)]) \
        == []
    assert checks.repeat_problems([(request, payload), (request, changed)])
    assert checks.outputs_digest([(request, payload)]) \
        == checks.outputs_digest([(request, payload), (request, payload)])
    assert checks.outputs_digest([(request, payload)]) \
        != checks.outputs_digest([(request, changed)])


def test_simulator_invariants_hold_and_catch_a_miscount():
    from repro.experiments.runner import ExperimentRunner

    result = ExperimentRunner(scale=0.05, seed=_fresh_seed()).result("bfs")
    insts = result.trace.total_warp_instructions()
    assert checks.sim_invariant_problems("bfs", result.stats, insts) == []
    assert checks.sim_invariant_problems("bfs", result.stats, insts + 1)
    result.stats.classes["N"].completed -= 1
    assert checks.sim_invariant_problems("bfs", result.stats, insts)
