#!/usr/bin/env python3
"""Benchmark of the repro pipeline, end to end and per layer.

Run from the root of a checkout::

    python3 pipebench/run.py --workload suite-sim --seed 1 --seconds 30 --trace 0

Workloads (``spec.py``; why each exists is in ``BENCHMARK.json``):

``suite-sim``       closed loop, 1 client: the Table I apps but mst through
                    the job pipeline at scale 0.25, trace cache off.
``trace-analysis``  closed loop, 1 client: the same apps at scale 0.5,
                    no simulation, predictive race analysis.
``service-open``    open loop at a fixed rate against
                    ``repro serve --workers 2`` on a fresh store.

The program always runs in a child process whose environment carries
no ``REPRO_*`` variable but a fresh trace-cache directory, so set-up
time, peak RSS and CPU belong to the program alone.  A batch workload
sends one batch: rounds of a job per app, as many as take about
``--seconds`` on a 2-core host.

``--trace 0`` measures the end-to-end metrics on the unmodified
program.  ``--trace 1`` runs the same jobs twice, untraced and then in
a child with layer wrappers installed (``layers.py``), and reports
per-layer self times and counts, the tracing overhead and the time no
wrapper accounts for.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an output check failed and 2 when the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time

import checks
import layers
import spec
import stats
from client import OpenLoop, run_one

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

#: child spawns per run whose set-up time is measured (median reported).
SETUP_SAMPLES = 5

#: a run that has not finished by then gives up (the limit is 180 s).
RUN_DEADLINE_S = 160.0

#: longest wait (s) for any answer of the program.  A batch job that
#: takes longer counts as failed (the slowest Table I job, sssp at scale
#: 0.25, takes about 11 s on a 2-core host).
ANSWER_LIMIT_S = 45.0

#: lines of the program's log shown when it stops answering.
LOG_TAIL_LINES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("done_ratio", "ratio"),
    ("warp_insts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("slo_met_ratio", "ratio"),
)

PER_LAYER = (
    ("sim.run_launch.self_s", "s"),
    ("sim.sm_cycle.self_s", "s"),
    ("sim.partition_cycle.self_s", "s"),
    ("sim.icnt.self_s", "s"),
    ("sim.other.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.warp_insts", "count"),
    ("sim.us_per_cycle", "us"),
    ("emulator.emulate.self_s", "s"),
    ("emulator.warp_insts", "count"),
    ("emulator.ns_per_warp_inst", "ns"),
    ("emulator.fallbacks", "count"),
    ("trace_cache.lookups", "count"),
    ("trace_cache.hit_ratio", "ratio"),
    ("trace_cache.load.self_s", "s"),
    ("trace_cache.store.self_s", "s"),
    ("workloads.setup.self_s", "s"),
    ("workloads.verify.self_s", "s"),
    ("ptx.parse.self_s", "s"),
    ("ptx.verify.self_s", "s"),
    ("core.classify.calls", "count"),
    ("core.classify.self_s", "s"),
    ("profiling.locality.self_s", "s"),
    ("analysis.races.calls", "count"),
    ("analysis.races.self_s", "s"),
    ("advise.calls", "count"),
    ("advise.self_s", "s"),
    ("advise.resimulations", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p90", "ms"),
    ("service.execute_ms.p50", "ms"),
    ("service.execute_ms.p90", "ms"),
    ("service.result_hit_ratio", "ratio"),
    ("service.store.put.self_s", "s"),
    ("service.store.get.self_s", "s"),
    ("service.http.errors", "count"),
    ("experiments.app.self_s", "s"),
    ("loadgen.lag_ms.max", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_s", "s"),
)

#: layers timed by the wrappers (each reported as ``<layer>.self_s``).
TIMED_LAYERS = tuple(name[:-len(".self_s")] for name, _unit in PER_LAYER
                     if name.endswith(".self_s"))


class ProgramError(Exception):
    """The program could not be started or stopped answering."""


class NoAnswer(ProgramError):
    """The program gave no answer within :data:`ANSWER_LIMIT_S`."""


class Outcome:
    """One workload run: jobs as ``(request, ok, payload, error)``,
    measurements, problems found by the checks and lines to print."""

    def __init__(self):
        self.jobs = []
        self.problems = []
        self.metrics = {}
        self.info = []

    @property
    def attempted(self):
        return len(self.jobs)

    @property
    def failed(self):
        return sum(1 for _request, ok, _payload, _error in self.jobs
                   if not ok)

    def check_payloads(self):
        for request, ok, payload, error in self.jobs:
            if not ok:
                self.problems.append("%s failed: %s"
                                     % (checks.canonical(request), error))
                continue
            for problem in checks.payload_problems(request, payload):
                self.problems.append("%s: %s" % (request["app"], problem))
        self.problems.extend(checks.repeat_problems(
            [(r, p) for r, ok, p, _e in self.jobs if ok]))


# -- child processes -----------------------------------------------------------


def child_env(spawn_dir):
    """The program's environment: no ``REPRO_*`` knob inherited, the
    checkout's sources on the path, a fresh trace-cache directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_TRACE_CACHE_DIR"] = os.path.join(spawn_dir, "trace-cache")
    return env


class Child:
    """One program process; stdout is read line by line on a thread."""

    def __init__(self, argv, spawn_dir, deadline, stdin=True):
        os.makedirs(spawn_dir, exist_ok=True)
        self.deadline = deadline
        self.log_path = os.path.join(spawn_dir, "child.log")
        self._log = open(self.log_path, "wb")
        self._lines = queue.Queue()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(spawn_dir),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def readline(self):
        timeout = max(0.0, min(ANSWER_LIMIT_S,
                               self.deadline - time.monotonic()))
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise NoAnswer("no answer within %.1f s" % timeout) from None
        if line is None:
            raise ProgramError("program exited (code %s); log:\n%s"
                               % (self.proc.wait(), self.log_tail()))
        return line

    def wait_ready(self, marker):
        """Seconds from spawn until a line containing ``marker``."""
        while True:
            line = self.readline()
            if marker in line:
                return time.perf_counter() - self.started, line

    def send(self, message):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def ask(self, message):
        self.send(message)
        return json.loads(self.readline())

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ProgramError("no VmHWM for the program process")

    def log_tail(self):
        self._log.flush()
        with open(self.log_path, "rb") as fh:
            return b"".join(fh.readlines()[-LOG_TAIL_LINES:]).decode(
                "utf-8", "replace")

    def stop(self, kill=False):
        """End the process (end of input for a batch worker, SIGINT for
        a server) and wait for it; kill it at once with ``kill``, or if
        it does not end in 10 s."""
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            elif self.proc.stdin is None:
                self.proc.send_signal(signal.SIGINT)
            else:
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Run:
    """Spawned children of one benchmark run, all stopped on exit."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.children = []
        self.spawns = 0

    def spawn(self, make_argv, stdin=True):
        """Start ``make_argv(spawn_dir)`` in a fresh spawn directory."""
        self.spawns += 1
        spawn_dir = os.path.join(self.run_dir, "spawn-%d" % self.spawns)
        child = Child(make_argv(spawn_dir), spawn_dir, self.deadline,
                      stdin=stdin)
        self.children.append(child)
        return child, spawn_dir

    def stop_all(self, kill=False):
        for child in self.children:
            child.stop(kill=kill)


# -- batch workloads -----------------------------------------------------------


def batch_argv(traced):
    argv = [sys.executable, os.path.join(HERE, "child.py"), "batch"]
    argv = argv + ["--traced"] if traced else argv
    return lambda _spawn_dir: argv


def closed_loop(child, requests, outcome):
    """Each of ``requests`` in turn, until a job gets no answer within
    :data:`ANSWER_LIMIT_S`: that job counts as failed, and the batch
    ends there with the worker still busy on it (``hung``).

    Returns per-job ``(request, answer, latency_s)``, the batch's
    turnaround (s) and ``hung``."""
    done = []
    hung = False
    start = time.perf_counter()
    for request in requests:
        sent = time.perf_counter()
        try:
            answer = child.ask({"op": "job", "request": request})
        except NoAnswer as exc:
            answer = {"ok": False, "error": str(exc), "trace_warp_insts": 0}
            hung = True
        done.append((request, answer, time.perf_counter() - sent))
        outcome.jobs.append((request, answer["ok"], answer.get("payload"),
                             answer.get("error")))
        if hung:
            break
    return done, time.perf_counter() - start, hung


def run_batch(run, workload, seed, seconds, traced):
    requests = spec.batch_requests(workload, seed, seconds)
    outcome = Outcome()
    setup = []
    samples = 1 if traced else SETUP_SAMPLES
    for index in range(samples):
        child, _ = run.spawn(batch_argv(False))
        setup.append(child.wait_ready('"ready"')[0])
        if index < samples - 1:
            child.stop()
    done, turnaround, hung = closed_loop(child, requests, outcome)
    ok = [(request, answer, latency) for request, answer, latency in done
          if answer["ok"]]
    if ok and not hung and not traced:
        # compute the quickest job once more, outside the timing, so the
        # check that identical requests return identical payloads has two
        # independent computations to compare
        request = min(ok, key=lambda job: job[2])[0]
        answer = child.ask({"op": "job", "request": request})
        outcome.jobs.append((request, answer["ok"], answer.get("payload"),
                             answer.get("error")))
    rss = child.peak_rss_mb()
    child.stop(kill=hung)

    for (request, answer, _latency) in done:
        sim = (answer.get("payload") or {}).get("simulation")
        if sim and sim.get("issued_warp_insts") != answer["trace_warp_insts"]:
            outcome.problems.append(
                "%s: simulated %r warp insts, trace has %r"
                % (request["app"], sim.get("issued_warp_insts"),
                   answer["trace_warp_insts"]))
    latencies = [latency for _r, _a, latency in ok]
    outcome.info.append(
        "batch of %d jobs in %.1f s; per job: p50 %.0f ms, max %.0f ms"
        % (len(requests), turnaround, 1e3 * pct(latencies, 50),
           1e3 * max(latencies or [0.0])))
    if not traced:
        # a batch is done when all its jobs are: its latency is the
        # batch's turnaround (per-job times mix apps of very different
        # sizes, so their percentiles would move with the input seeds)
        warp = sum(answer["trace_warp_insts"] for _r, answer, _l in ok)
        batch_done = len(ok) == len(requests)
        outcome.metrics = end_to_end(outcome, workload, setup, rss, 1,
                                     [turnaround] if batch_done else [],
                                     warp / max(sum(latencies), 1e-9))
        outcome.check_payloads()
        return outcome

    # traced: the jobs that ended again, in a child with the wrappers
    # installed
    child, _ = run.spawn(batch_argv(True))
    child.wait_ready('"ready"')
    traced_done = []
    for request, _answer, _latency in ok:
        answer = child.ask({"op": "job", "request": request})
        traced_done.append(answer)
        outcome.jobs.append((request, answer["ok"], answer.get("payload"),
                             answer.get("error")))
    report = child.ask({"op": "report"})
    child.stop()
    outcome.problems.extend(report["problems"])
    cold = sum(1 for answer in traced_done if answer["ok"])
    verified = report["calls"].get("workloads.verify", 0)
    if verified != cold:
        outcome.problems.append("%d cold emulations but %d functional "
                                "verifications" % (cold, verified))
    wall = sum(answer["wall_s"] for answer in traced_done)
    untraced = sum(answer["wall_s"] for _r, answer, _l in ok)
    outcome.metrics = layer_metrics(report, wall, untraced)
    outcome.check_payloads()
    return outcome


# -- the service workload ------------------------------------------------------


def serve_argv(spawn_dir, traced):
    args = ["--port", "0", "--store", os.path.join(spawn_dir, "store"),
            "--workers", "2", "--quiet"]
    if traced:
        return [sys.executable, os.path.join(HERE, "child.py"), "serve",
                "--report", os.path.join(spawn_dir, "layers.json"),
                "--"] + args
    return [sys.executable, "-m", "repro", "serve"] + args


def start_server(run, traced):
    """Spawn a server; returns ``(child, spawn_dir, url, setup_s)``."""
    child, spawn_dir = run.spawn(lambda d: serve_argv(d, traced),
                                 stdin=False)
    setup, line = child.wait_ready("serving on ")
    url = line.split("serving on ", 1)[1].split()[0]
    return child, spawn_dir, url, setup


def record_seconds(record, start, end):
    if record.get(start) is None or record.get(end) is None:
        return None
    return record[end] - record[start]


def warm_up(url, seed, outcome):
    for request in spec.warmup_requests(seed):
        answer = run_one(url, request)
        outcome.jobs.append((request, answer["status"] == "done",
                             answer.get("result"), answer.get("error")))


def open_loop(run, seed, schedule, traced, outcome, setup_samples=1):
    setup = []
    for index in range(setup_samples):
        child, spawn_dir, url, seconds = start_server(run, traced)
        setup.append(seconds)
        if index < setup_samples - 1:
            if index == 0:
                # a second, independent computation of the warm-up
                # requests, for the check that identical requests return
                # identical payloads (every repeat in the timed window is
                # a result-store hit, a copy of stored bytes)
                warm_up(url, seed, outcome)
            child.stop()
    warm_up(url, seed, outcome)
    loop = OpenLoop(url, schedule)
    jobs = loop.run()
    rss = child.peak_rss_mb()
    child.stop()
    outcome.problems.extend(loop.problems)
    for job in jobs:
        ok = job.status == "done" and job.payload is not None
        outcome.jobs.append((job.request, ok, job.payload, job.error))
    return jobs, loop, setup, rss, spawn_dir


def run_service(run, seed, seconds, traced):
    schedule = spec.service_schedule(seed, seconds)
    outcome = Outcome()
    jobs, loop, setup, rss, _ = open_loop(
        run, seed, schedule, False, outcome,
        setup_samples=1 if traced else SETUP_SAMPLES)
    lags = [job.lag for job in jobs if job.lag is not None]
    outcome.info.append("%d requests at %.2f/s; generator lag p50 %.1f ms, "
                        "max %.1f ms" % (len(jobs), spec.SERVICE_RATE,
                                         1e3 * stats.median(lags),
                                         1e3 * max(lags)))
    if not traced:
        latencies = [job.latency for job in jobs if job.latency is not None]
        # simulated warp instructions per second a worker spent on the
        # jobs it computed and simulated (result-store hits and jobs
        # without simulation left out of both sums)
        simulated = [(job.payload["simulation"]["issued_warp_insts"],
                      record_seconds(job.record, "started_at",
                                     "finished_at"))
                     for job in jobs
                     if job.record.get("result_cache") == "miss"
                     and (job.payload or {}).get("simulation")]
        busy = sum(seconds or 0.0 for _w, seconds in simulated)
        computed = sum(warp for warp, _s in simulated)
        outcome.metrics = end_to_end(outcome, "service-open", setup, rss,
                                     len(jobs), latencies,
                                     computed / busy if busy else 0.0)
        outcome.check_payloads()
        return outcome

    traced_jobs, traced_loop, _, _, spawn_dir = open_loop(
        run, seed, schedule, True, outcome)
    with open(os.path.join(spawn_dir, "layers.json")) as fh:
        report = json.load(fh)
    outcome.problems.extend(report["problems"])

    def executed(job_list):
        return {job.index: record_seconds(job.record, "started_at",
                                          "finished_at")
                for job in job_list
                if job.record.get("result_cache") == "miss"}

    before, after = executed(jobs), executed(traced_jobs)
    both = sorted(set(before) & set(after))
    metrics = layer_metrics(report, sum(after[i] for i in both),
                            sum(before[i] for i in both))
    records = [job.record for job in traced_jobs if job.record]
    waits = [record_seconds(r, "submitted_at", "started_at")
             for r in records]
    waits = [1e3 * w for w in waits if w is not None]
    runs = [1e3 * s for s in after.values()]
    done = [r for r in records if r.get("status") == "done"]
    traced_lags = [job.lag for job in traced_jobs if job.lag is not None]
    metrics.update({
        "service.queue_wait_ms.p50": pct(waits, 50),
        "service.queue_wait_ms.p90": pct(waits, 90),
        "service.execute_ms.p50": pct(runs, 50),
        "service.execute_ms.p90": pct(runs, 90),
        "service.result_hit_ratio":
            sum(1 for r in done if r.get("result_cache") == "hit")
            / max(1, len(done)),
        "service.http.errors": traced_loop.http_errors,
        "loadgen.lag_ms.max": 1e3 * max(traced_lags or [0.0]),
    })
    outcome.metrics = metrics
    outcome.check_payloads()
    return outcome


# -- metrics and reporting -----------------------------------------------------


def pct(values, p):
    return stats.percentile(values, p) if values else 0.0


def end_to_end(outcome, workload, setup, rss, attempted, latencies,
               warp_insts_per_s):
    """The end-to-end metrics of an untraced run; ``latencies`` (s) are
    those of the timed jobs that ended done, out of ``attempted``."""
    best = stats.highest_supported(len(latencies))
    outcome.info.append(
        "latency over %d samples: highest percentile with %d beyond it: %s"
        % (len(latencies), stats.MIN_BEYOND,
           "none" if best is None else "p%g" % best))
    limit = spec.SLO_MS[workload]
    return {
        "setup_s": stats.median(setup),
        "peak_rss_mb": rss,
        "done_ratio": len(latencies) / attempted,
        "warp_insts_per_s": warp_insts_per_s,
        "latency_p50_ms": 1e3 * pct(latencies, 50),
        "latency_p90_ms": 1e3 * pct(latencies, 90),
        "slo_met_ratio": sum(1 for latency in latencies
                             if 1e3 * latency <= limit) / attempted,
    }


def layer_metrics(report, traced_wall, untraced_wall):
    """The per-layer metrics from a layer report; ``traced_wall`` and
    ``untraced_wall`` are the job time of the same jobs in the traced
    and the untraced run."""
    own = report["self"]
    counts = report["counts"]
    calls = report["calls"]
    metrics = {name + ".self_s": own.get(name, 0.0)
               for name in TIMED_LAYERS}
    sim_self = sum(value for name, value in own.items()
                   if name.startswith("sim."))
    cycles = counts.get("sim.cycles", 0)
    emulated = counts.get("emulator.warp_insts", 0)
    lookups = counts.get("trace_cache.lookups", 0)
    metrics.update({
        "sim.cycles": cycles,
        "sim.warp_insts": counts.get("sim.warp_insts", 0),
        "sim.us_per_cycle": 1e6 * sim_self / cycles if cycles else 0.0,
        "emulator.warp_insts": emulated,
        "emulator.ns_per_warp_inst":
            1e9 * own.get("emulator.emulate", 0.0) / emulated
            if emulated else 0.0,
        "emulator.fallbacks": counts.get("emulator.fallbacks", 0),
        "trace_cache.lookups": lookups,
        "trace_cache.hit_ratio":
            counts.get("trace_cache.hits", 0) / lookups if lookups else 0.0,
        "core.classify.calls": calls.get("core.classify", 0),
        "analysis.races.calls": calls.get("analysis.races", 0),
        "advise.calls": calls.get("advise", 0),
        "advise.resimulations": counts.get("advise.resimulations", 0),
        "service.queue_wait_ms.p50": 0.0,
        "service.queue_wait_ms.p90": 0.0,
        "service.execute_ms.p50": 0.0,
        "service.execute_ms.p90": 0.0,
        "service.result_hit_ratio": 0.0,
        "service.http.errors": 0,
        "loadgen.lag_ms.max": 0.0,
        "trace.overhead_ratio":
            traced_wall / untraced_wall if untraced_wall else 0.0,
        "trace.unaccounted_s": own.get(layers.JOB, 0.0),
    })
    return metrics


def print_report(workload, seed, traced, outcome, units, digest):
    print("pipebench %s seed=%d %s" % (workload, seed,
                                       "traced" if traced else "untraced"))
    for line in outcome.info:
        print("  " + line)
    print("  outputs_digest %s (information only)" % digest)
    for name, unit in units:
        value = outcome.metrics[name]
        print("  %-30s %16.6g %s" % (name, value, unit))
    print("  checks: %d attempted, %d failed, %d problem(s)"
          % (outcome.attempted, outcome.failed, len(outcome.problems)))
    for problem in outcome.problems[:20]:
        print("    " + problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("pipebench: no src/repro under %s; run from the "
                         "root of a checkout\n" % ROOT)
        return 2
    runs_dir = os.path.join(ROOT, ".pipebench-runs")
    run_dir = os.path.join(runs_dir, "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    run = Run(run_dir, time.monotonic() + RUN_DEADLINE_S)
    try:
        if spec.WORKLOADS[args.workload]["kind"] == spec.SERVICE:
            outcome = run_service(run, args.seed, args.seconds, traced)
        else:
            outcome = run_batch(run, args.workload, args.seed, args.seconds,
                                traced)
    except (ProgramError, OSError) as exc:
        run.stop_all(kill=True)
        sys.stderr.write("pipebench: %s\n(run directory kept: %s)\n"
                         % (exc, run_dir))
        return 2
    finally:
        run.stop_all()
    shutil.rmtree(run_dir, ignore_errors=True)
    if not os.listdir(runs_dir):
        os.rmdir(runs_dir)

    units = PER_LAYER if traced else END_TO_END
    digest = checks.outputs_digest(
        [(r, p) for r, ok, p, _e in outcome.jobs if ok])
    print_report(args.workload, args.seed, traced, outcome, units, digest)
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
