"""Timing-simulator benchmark: ``python benchmarks/bench_sim.py``.

Emulates every Table I workload at scale ``SCALE`` once, then replays
its trace through the timing simulator ``REPEATS`` times, each on a
fresh :class:`~repro.sim.GPU`, and records, per app:

* ``simulate_s`` — the median wall seconds of one full replay
  (``GPU.run_application``; emulation is excluded),
* ``cycles`` and ``issued_warp_insts`` — the simulator's exact,
  deterministic outputs, which the CI perf gate compares with zero
  tolerance so a speed-up can never come from simulating something
  else,
* ``warp_insts_per_s`` — issued warp instructions per simulate second.

The machine is the one a job request gets with default knobs (the
``repro simulate`` CLI defaults: 4 SMs, 2 partitions, 2 KB L1), so the
numbers track what the service and the CLI actually run.  Results go to
``BENCH_sim.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

#: workload input scale; the committed baseline's cycle counts depend on it
SCALE = 0.25
#: replays per app (the median is reported)
REPEATS = 3


def bench_app(name, scale, repeats, config):
    from repro.sim import GPU
    from repro.workloads import get_workload

    run = get_workload(name, scale=scale).run(verify=False)
    times, counts = [], set()
    for _ in range(repeats):
        gpu = GPU(config)
        t0 = time.perf_counter()
        gpu.run_application(run.trace, run.classifications)
        times.append(time.perf_counter() - t0)
        stats = gpu.stats
        counts.add((stats.cycles, stats.issued_warp_insts))
    if len(counts) > 1:
        raise SystemExit("%s: simulation is not deterministic" % name)
    seconds = statistics.median(times)
    return {
        "simulate_s": round(seconds, 4),
        "cycles": stats.cycles,
        "issued_warp_insts": stats.issued_warp_insts,
        "warp_insts_per_s": round(stats.issued_warp_insts / seconds, 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_sim.json"))
    args = parser.parse_args(argv)

    from repro.service.jobs import JobRequest
    from repro.service.pipeline import build_job_config
    from repro.workloads import workload_names

    names = workload_names()
    config = build_job_config(JobRequest(app=names[0]))
    apps = {}
    for name in names:
        apps[name] = row = bench_app(name, SCALE, REPEATS, config)
        print("%-6s simulate %7.3fs  %9d cycles  %8d warp-insts  "
              "%9.1f warp-insts/s" % (name, row["simulate_s"], row["cycles"],
                                      row["issued_warp_insts"],
                                      row["warp_insts_per_s"]))

    seconds = sum(a["simulate_s"] for a in apps.values())
    insts = sum(a["issued_warp_insts"] for a in apps.values())
    totals = {
        "simulate_s": round(seconds, 4),
        "cycles": sum(a["cycles"] for a in apps.values()),
        "issued_warp_insts": insts,
        "warp_insts_per_s": round(insts / seconds, 1),
    }
    payload = {
        "meta": {
            "scale": SCALE,
            "repeats": REPEATS,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "num_sms": config.num_sms,
            "num_partitions": config.num_partitions,
        },
        "apps": apps,
        "totals": totals,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("suite  simulate %7.3fs  %9d warp-insts  %9.1f warp-insts/s  -> %s"
          % (seconds, insts, totals["warp_insts_per_s"], args.out))


if __name__ == "__main__":
    main()
