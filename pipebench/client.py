"""The open-loop load generator for ``repro serve``, with its own HTTP client.

One process, two threads: the caller's thread submits each request when
it is due, and one poller thread lists job states every
:data:`POLL_SECONDS`.  Each job is timed from when it was *due*, so a
stalled server also charges the wait it imposes on later requests; how
late the submitter itself ran is recorded per job.  Result payloads are
fetched only after the timed window, so fetching them loads nothing
being measured.

A job is done at the ``finished_at`` its record carries, once checked
against what the client saw: not before the request was sent, not
after the client observed the job finished.  The poller alone would
add up to a poll interval of noise plus the time the server, busy on
the same interpreter, takes to answer a listing.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import urlparse

#: tenant every benchmark job is submitted under.
TENANT = "pipebench"

#: how often the poller lists job states.  Slow on purpose: every listing
#: takes the interpreter from the workers being measured.
POLL_SECONDS = 0.25

#: how long after the last due time unfinished jobs are waited for.
DRAIN_SECONDS = 30.0

#: slack (s) for comparing server and client readings of the clock.
CLOCK_SLACK = 0.005

#: socket timeout (s) of every request.
HTTP_TIMEOUT = 30.0

#: how long (s) a warm-up job may take.
WARMUP_SECONDS = 60.0


class Client:
    """JSON over one keep-alive HTTP/1.1 connection."""

    def __init__(self, url):
        parts = urlparse(url)
        self.conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                               timeout=HTTP_TIMEOUT)

    def request(self, method, path, body=None):
        """``(status, decoded JSON body)``; raises ``OSError`` or
        ``http.client.HTTPException`` on a transport failure."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()      # the next request reconnects
            raise
        return response.status, json.loads(raw.decode("utf-8"))

    def close(self):
        self.conn.close()


def run_one(url, request):
    """Submit one request and wait for it; returns the final job body
    (with its result once done).  Used for warm-up, outside any timing."""
    client = Client(url)
    try:
        status, answer = client.request("POST", "/kernels",
                                        dict(request, tenant=TENANT))
        if status != 201:
            raise OSError("warm-up submit: HTTP %d %s"
                          % (status, answer.get("error")))
        deadline = time.monotonic() + WARMUP_SECONDS
        while answer["status"] not in ("done", "failed"):
            if time.monotonic() > deadline:
                raise OSError("warm-up job %s did not finish" % answer["id"])
            time.sleep(0.02)
            status, answer = client.request(
                "GET", "/jobs/%s?result=0" % answer["id"])
        return client.request("GET", "/jobs/" + answer["id"])[1]
    finally:
        client.close()


@dataclass
class Job:
    index: int
    due: float
    request: dict
    sent: Optional[float] = None
    job_id: Optional[str] = None
    #: when the client saw the job finished (submit answer or poll).
    observed_at: Optional[float] = None
    #: when the job record says it finished.
    done_at: Optional[float] = None
    status: Optional[str] = None
    error: Optional[str] = None
    record: dict = field(default_factory=dict)
    payload: Optional[dict] = None

    @property
    def lag(self):
        return None if self.sent is None else self.sent - self.due

    @property
    def latency(self):
        if self.status != "done" or self.done_at is None:
            return None
        return self.done_at - self.due


class OpenLoop:
    """Drive one schedule against one server; see the module docstring."""

    def __init__(self, url, schedule):
        self.url = url
        self.jobs = [Job(i, due, request)
                     for i, (due, _kind, request) in enumerate(schedule)]
        self.http_errors = 0
        self.problems = []
        self._finished = {}      # job id -> (observed at, status)
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def run(self):
        """Submit on schedule, wait for every job, fetch the results."""
        self.start = time.monotonic() + 0.05
        # offset from this clock to the wall clock records are stamped in
        self.wall_offset = time.time() - time.monotonic()
        poller = threading.Thread(target=self._poll, name="pipebench-poll")
        poller.start()
        try:
            self._submit()
            self._drain()
        finally:
            self._stop.set()
            poller.join()
        with self._lock:
            finished = dict(self._finished)
        for job in self.jobs:
            if job.job_id in finished and job.status is None:
                job.observed_at, job.status = finished[job.job_id]
            if job.status is None and job.error is None:
                job.error = "not finished %.0f s after the last due time" \
                    % DRAIN_SECONDS
        self._fetch()
        return self.jobs

    def _now(self):
        return time.monotonic() - self.start

    def _error(self, job, message):
        job.error = message
        with self._lock:
            self.http_errors += 1

    def _submit(self):
        client = Client(self.url)
        try:
            for job in self.jobs:
                delay = job.due - self._now()
                if delay > 0:
                    time.sleep(delay)
                job.sent = self._now()
                body = dict(job.request, tenant=TENANT)
                try:
                    status, answer = client.request("POST", "/kernels", body)
                except (OSError, http.client.HTTPException) as exc:
                    self._error(job, "submit: %s" % exc)
                    continue
                if status != 201:
                    self._error(job, "submit: HTTP %d %s"
                                % (status, answer.get("error")))
                    continue
                job.job_id = answer["id"]
                if answer["status"] in ("done", "failed"):
                    # born finished: a result-store hit
                    job.observed_at = self._now()
                    job.status = answer["status"]
        finally:
            client.close()

    def _poll(self):
        client = Client(self.url)
        try:
            while not self._stop.is_set():
                tick = time.monotonic()
                try:
                    status, answer = client.request(
                        "GET", "/jobs?tenant=" + TENANT)
                except (OSError, http.client.HTTPException):
                    status, answer = None, None
                seen = self._now()
                if status != 200:
                    with self._lock:
                        self.http_errors += 1
                else:
                    with self._lock:
                        for record in answer["jobs"]:
                            if record["status"] in ("done", "failed") and \
                                    record["id"] not in self._finished:
                                self._finished[record["id"]] = (
                                    seen, record["status"])
                self._stop.wait(max(0.0, POLL_SECONDS
                                    - (time.monotonic() - tick)))
        finally:
            client.close()

    def _drain(self):
        deadline = self.jobs[-1].due + DRAIN_SECONDS if self.jobs else 0.0
        while self._now() < deadline:
            with self._lock:
                finished = set(self._finished)
            if all(job.job_id is None or job.status is not None
                   or job.job_id in finished for job in self.jobs):
                return
            time.sleep(POLL_SECONDS / 2)

    def _finish(self, job):
        finished = job.record.get("finished_at")
        if not isinstance(finished, (int, float)):
            self.problems.append("job %s is done without finished_at"
                                 % job.job_id)
            return
        done = finished - self.wall_offset - self.start
        if not (job.sent - CLOCK_SLACK <= done
                <= job.observed_at + CLOCK_SLACK):
            self.problems.append(
                "job %s finished_at is %.3f s, outside [sent %.3f s, seen "
                "%.3f s]" % (job.job_id, done, job.sent, job.observed_at))
            return
        job.done_at = done

    def _fetch(self):
        client = Client(self.url)
        try:
            for job in self.jobs:
                if job.job_id is None:
                    continue
                try:
                    status, answer = client.request(
                        "GET", "/jobs/" + job.job_id)
                except (OSError, http.client.HTTPException) as exc:
                    self._error(job, "fetch: %s" % exc)
                    continue
                if status != 200:
                    self._error(job, "fetch: HTTP %d" % status)
                    continue
                job.payload = answer.pop("result", None)
                job.record = answer
                if job.status == "failed" and job.error is None:
                    job.error = "job failed: %s" % answer.get("error")
                if job.status == "done":
                    self._finish(job)
        finally:
            client.close()
