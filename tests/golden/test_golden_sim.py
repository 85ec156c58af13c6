"""Golden simulator-output suite.

The emulation-only fixtures in ``test_golden_stats.py`` pin the traces;
these pin what the cycle-level simulator makes of them.  Each fixture is
the full :func:`repro.obs.bridge.publish_sim` snapshot, the per-component
:meth:`GPU.publish_metrics` series, and every ``SimStats.pc_buckets``
record, compared exactly.  Any change to the timing model — including a
scheduling rewrite that is meant to be behaviour-preserving — that moves
a single counter fails here.

Coverage: every Table I app on the small ``TINY`` machine with the
baseline scheduler and no prefetcher, plus a few apps on the full
14-SM ``TESLA_C2050`` across scheduler / prefetcher combinations.

Regenerate after an *intentional* timing-model change with::

    pytest -m golden --update-golden
"""

import json
import os

import pytest

from repro.obs.bridge import publish_sim
from repro.obs.metrics import MetricsRegistry
from repro.sim import GPU, TESLA_C2050, TINY
from repro.workloads import get_workload, workload_names

from .test_golden_stats import GOLDEN_SCALE

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "sim")

#: (scheduler, prefetcher) variants run on the full-size machine.
FULL_VARIANTS = (("lrr", "none"), ("gto", "none"), ("lrr", "stride"),
                 ("gto", "indirect_oracle"))
FULL_APPS = ("bfs", "spmv", "srad", "2mm", "mis")

CASES = ([("tiny", name, "lrr", "none") for name in workload_names()]
         + [("c2050", name, sched, pf) for name in FULL_APPS
            for sched, pf in FULL_VARIANTS])
CONFIGS = {"tiny": TINY, "c2050": TESLA_C2050}

pytestmark = pytest.mark.golden

_runs = {}


def _workload_run(name):
    # each app is emulated once and replayed under every variant
    if name not in _runs:
        _runs[name] = get_workload(name, scale=GOLDEN_SCALE).run(
            verify=False)
    return _runs[name]


def _case_id(case):
    return "%s-%s-%s-%s" % case


def compute_sim_snapshot(machine, name, scheduler, prefetcher):
    """The golden document for one simulated (app, machine, knobs) run."""
    run = _workload_run(name)
    config = CONFIGS[machine].scaled(warp_scheduler=scheduler,
                                     prefetcher=prefetcher)
    gpu = GPU(config)
    gpu.run_application(run.trace, run.classifications)
    reg = MetricsRegistry()
    publish_sim(name, gpu.stats, reg)
    gpu.publish_metrics(reg, include_stats=False, app=name)
    buckets = {
        "%s:%d:%d" % key: [b.count, b.turnaround_sum, b.wait_first_sum,
                           b.gap_l1d_sum, b.gap_icnt_l2_sum,
                           b.gap_l2_icnt_sum]
        for key, b in gpu.stats.pc_buckets.items()}
    return {"scale": GOLDEN_SCALE, "machine": machine,
            "warp_scheduler": scheduler, "prefetcher": prefetcher,
            "metrics": reg.snapshot(),
            "pc_buckets": dict(sorted(buckets.items()))}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sim_output_matches_golden(case, request):
    actual = compute_sim_snapshot(*case)
    path = os.path.join(FIXTURE_DIR, "%s.json" % _case_id(case))

    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)

    assert os.path.exists(path), (
        "no simulator golden fixture for %r — generate one with "
        "`pytest -m golden --update-golden`" % _case_id(case))
    with open(path) as fh:
        expected = json.load(fh)
    actual = json.loads(json.dumps(actual))
    assert actual == expected, (
        "simulator output drifted for %r; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % _case_id(case))


def test_every_sim_fixture_has_a_case():
    if not os.path.isdir(FIXTURE_DIR):
        pytest.skip("no fixtures generated yet")
    have = {f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")}
    assert have <= {_case_id(c) for c in CASES}, (
        "orphan simulator fixtures: %s"
        % sorted(have - {_case_id(c) for c in CASES}))
