"""Output checks that hold for any seed.

No recorded reference decides correctness: every check here is an
invariant the pipeline must satisfy whatever inputs it was given, so a
seed never seen before is checked as strictly as any other.  The
digest printed beside the checks is information only.
"""

from __future__ import annotations

import hashlib
import json


def canonical(obj):
    """The byte form payloads and requests are compared and hashed in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _count(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def payload_problems(request, payload):
    """Problems with one job's result payload; empty when it is correct.

    * the payload echoes the request (app, scale, seed, knobs);
    * the classification carries a dynamic D/N split of global loads;
    * when the request simulates, the loads the timing model issued per
      class equal that split: ``simulation.classes[D|N].loads ==
      classification.dynamic_split`` (a class with no loads is omitted
      from the payload and counts as 0);
    * the race and advise stages are present exactly when requested.
    """
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    problems = []
    app = request.get("app")
    if payload.get("kind") != "app" or payload.get("app") != app:
        problems.append("payload is not the app result for %r" % app)
    echo = payload.get("request") or {}
    for key in ("app", "scale", "seed"):
        if echo.get(key) != request.get(key):
            problems.append("request echo %s=%r, sent %r"
                            % (key, echo.get(key), request.get(key)))
    if (echo.get("knobs") or {}) != (request.get("knobs") or {}):
        problems.append("request echo knobs differ from those sent")

    split = ((payload.get("classification") or {}).get("dynamic_split")
             or {})
    det, nondet = split.get("deterministic"), split.get("nondeterministic")
    if not (_count(det) and _count(nondet)) or det + nondet == 0:
        problems.append("classification has no dynamic D/N split: %r"
                        % (split,))
        det = nondet = None

    sim = payload.get("simulation")
    if request.get("simulate", True):
        if not isinstance(sim, dict):
            problems.append("simulation missing")
        else:
            if not (_count(sim.get("cycles")) and sim["cycles"] > 0):
                problems.append("simulation ran no cycles")
            if not (_count(sim.get("issued_warp_insts"))
                    and sim["issued_warp_insts"] > 0):
                problems.append("simulation issued no warp instructions")
            classes = sim.get("classes") or {}
            for label, expected in (("D", det), ("N", nondet)):
                loads = (classes.get(label) or {}).get("loads", 0)
                if expected is not None and loads != expected:
                    problems.append(
                        "simulated %s loads %r != classified dynamic %s "
                        "loads %r" % (label, loads, label, expected))
    elif sim is not None:
        problems.append("simulation present although simulate=false")

    races = payload.get("races")
    if request.get("races"):
        if not isinstance(races, dict) or races.get("mode") != \
                request["races"] or not isinstance(races.get("clean"), bool):
            problems.append("race report missing or in the wrong mode")
    elif races is not None:
        problems.append("race report present although not requested")

    advise = payload.get("advise")
    if request.get("advise"):
        if not isinstance(advise, dict) or "verdict" not in advise:
            problems.append("advise verdict missing")
    elif advise is not None:
        problems.append("advise present although not requested")
    return problems


def repeat_problems(results):
    """Identical requests within a run must return byte-identical
    payloads.  ``results`` is an iterable of ``(request, payload)``."""
    seen = {}
    problems = []
    for request, payload in results:
        key = canonical(request)
        body = canonical(payload)
        if key not in seen:
            seen[key] = body
        elif seen[key] != body:
            problems.append("identical requests returned different "
                            "payloads: %s" % key)
    return problems


def outputs_digest(results):
    """SHA-256 over the distinct (request, payload) pairs of a run, in a
    fixed order.  Information only: a change meant only to make the
    program faster must leave it unchanged."""
    pairs = sorted({(canonical(r), canonical(p)) for r, p in results})
    digest = hashlib.sha256()
    for request, payload in pairs:
        digest.update(request.encode("utf-8") + b"\0")
        digest.update(payload.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


def sim_invariant_problems(app, stats, trace_warp_insts):
    """Conservation checks on one application's simulator statistics:
    every trace warp instruction issued once, every issued D/N load
    completed, and every coalesced request counted as one L1 access."""
    problems = []
    if stats.issued_warp_insts != trace_warp_insts:
        problems.append("%s: issued %d warp insts, trace has %d"
                        % (app, stats.issued_warp_insts, trace_warp_insts))
    for label in ("D", "N"):
        cls = stats.classes[label]
        if cls.completed != cls.warp_insts:
            problems.append("%s: class %s completed %d of %d loads"
                            % (app, label, cls.completed, cls.warp_insts))
        if cls.requests != cls.l1_accesses():
            problems.append("%s: class %s has %d requests but %d L1 "
                            "accesses" % (app, label, cls.requests,
                                          cls.l1_accesses()))
    return problems
