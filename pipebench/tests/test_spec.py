import collections

import spec
import stats


def _shape(schedule):
    return [(due, kind, request["app"],
             tuple(sorted((k, str(v)) for k, v in request.items()
                          if k != "seed")))
            for due, kind, request in schedule]


def test_schedule_is_reproducible_from_the_seed():
    assert spec.service_schedule(7, 30) == spec.service_schedule(7, 30)


def test_seeds_change_the_inputs_not_the_shape():
    a, b = spec.service_schedule(7, 30), spec.service_schedule(8, 30)
    assert _shape(a) == _shape(b)
    assert [r["seed"] for _d, _k, r in a] != [r["seed"] for _d, _k, r in b]


def test_schedule_mix_and_rate():
    schedule = spec.service_schedule(3, 30)
    kinds = collections.Counter(kind for _due, kind, _request in schedule)
    assert kinds == {spec.NEW: 36, spec.VARIANT: 35, spec.REPEAT: 34}
    assert schedule[-1][2]["app"] == spec.ADVISED_APP
    # a supported p90 needs at least 10 samples beyond it
    assert stats.supported(90, len(schedule))
    dues = [due for due, _kind, _request in schedule]
    assert dues == sorted(dues)
    assert dues[1] - dues[0] == 1 / spec.SERVICE_RATE


def test_every_request_refers_only_to_earlier_ones():
    for seed in range(20):
        sent = []
        news = set()
        for _due, kind, request in spec.service_schedule(seed, 30):
            base = (request["app"], request["scale"], request["seed"])
            if kind == spec.NEW:
                assert base not in news
                assert set(request) - {"app", "scale", "seed"} <= {
                    "races", "simulate", "advise"}
                news.add(base)
            elif kind == spec.VARIANT:
                assert base in news and request["knobs"]
            else:
                assert request in sent
            sent.append(request)


def test_new_requests_cover_apps_and_stages_evenly():
    schedule = spec.service_schedule(5, 30)
    pairs = collections.Counter(
        (r["app"], tuple(sorted(set(r) - {"app", "scale", "seed"})))
        for _d, kind, r in schedule if kind == spec.NEW)
    assert len(pairs) == len(spec.SERVICE_APPS) * len(spec.STAGES) + 1
    assert pairs[(spec.ADVISED_APP, ("advise",))] == 1


def test_batch_requests():
    one = spec.batch_requests("trace-analysis", 1, 30)
    assert one == spec.batch_requests("trace-analysis", 1, 30)
    apps = [a for a in spec.TABLE_I if a != "mst"]
    assert [r["app"] for r in one] == apps * 2
    assert all(r["simulate"] is False and r["races"] == "predictive"
               and r["scale"] == 0.5 for r in one)
    assert len({r["seed"] for r in one}) == len(one)
    other = spec.batch_requests("trace-analysis", 2, 30)
    assert [r["seed"] for r in one] != [r["seed"] for r in other]


def test_batch_size_follows_seconds_only():
    per_round = len(spec.BATCH_APPS)
    assert [len(spec.batch_requests("suite-sim", 1, s)) // per_round
            for s in (1, 30, 50)] == [1, 1, 2]
    assert len(spec.batch_requests("trace-analysis", 1, 30)) \
        == 2 * per_round
