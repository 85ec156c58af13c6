import json
import os

import run
import spec
from conftest import ROOT


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in bench["end_to_end"])} \
        in bench["end_to_end"]
