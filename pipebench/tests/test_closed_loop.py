import run
import spec


class FakeWorker:
    """Answers every job at once, except those of ``hangs``, which it
    never answers."""

    def __init__(self, hangs=None):
        self.hangs = hangs

    def ask(self, message):
        if message["request"]["app"] == self.hangs:
            raise run.NoAnswer("no answer within %.1f s" % run.ANSWER_LIMIT_S)
        return {"ok": True, "payload": {}, "trace_warp_insts": 1}


def test_every_job_of_the_batch_once():
    requests = spec.batch_requests("suite-sim", 1, 30)
    outcome = run.Outcome()
    done, turnaround, hung = run.closed_loop(FakeWorker(), requests, outcome)
    assert not hung
    assert [r for r, _a, _l in done] == requests
    assert outcome.attempted == len(requests)
    assert turnaround >= sum(latency for _r, _a, latency in done)
    assert outcome.failed == 0


def test_a_job_without_answer_fails_and_ends_the_run():
    requests = spec.batch_requests("suite-sim", 1, 30)
    outcome = run.Outcome()
    done, _turnaround, hung = run.closed_loop(FakeWorker("sssp"), requests,
                                              outcome)
    assert hung
    stop = spec.BATCH_APPS.index("sssp") + 1
    assert [r["app"] for r, _a, _l in done] == list(spec.BATCH_APPS[:stop])
    assert outcome.failed == 1
    outcome.check_payloads()
    assert any(problem.startswith('{"app":"sssp"')
               and "no answer within" in problem
               for problem in outcome.problems)
