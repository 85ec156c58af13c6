"""Per-layer timing for the traced benchmark child.

:class:`LayerClock` wraps calls into each layer's public functions and
records, per layer, the calls, the inclusive time and the self time
(inclusive time minus the time of wrapped calls nested inside it).
Stacks are per thread, so the multi-threaded service child is measured
as correctly as the single-threaded batch worker.

:func:`install` patches the wrappers into a live ``repro`` process.  It
is only ever called in the traced child: the untraced runs that give
the end-to-end numbers run the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import checks

#: the layer a whole job runs in; its self time is the job time that no
#: other layer's wrapper covers.
JOB = "job"


class LayerClock:
    """Calls, inclusive and self seconds per layer, plus named counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.inclusive = {}
        self.self_time = {}
        self.counts = {}
        self.problems = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self):
        """This thread's open frames, outermost first: ``[name, child_s]``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_layer(self, name):
        return any(frame[0] == name for frame in self.stack())

    def wrap(self, name, fn, after=None):
        """``fn`` timed as layer ``name``; ``after(result, args, kwargs)``
        runs once the call returned, outside the timed interval."""
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self.stack()
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._add(name, elapsed, elapsed - frame[1], nested)
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed

    def observe(self, fn, after):
        """``fn`` untimed, with ``after(result, args, kwargs)`` run on
        every return (for counts at a boundary no layer is timed at)."""

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, kwargs)
            return result

        return observed

    def _add(self, name, elapsed, own, nested):
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            if not nested:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def problem(self, message):
        with self._lock:
            self.problems.append(message)

    def report(self):
        with self._lock:
            return {
                "calls": dict(self.calls),
                "inclusive": dict(self.inclusive),
                "self": dict(self.self_time),
                "counts": dict(self.counts),
                "problems": list(self.problems),
            }


# -- patching a live program ---------------------------------------------------


def _replace_everywhere(old, new):
    """Point every ``repro`` module attribute bound to ``old`` at ``new``
    (callers that did ``from .x import f`` hold their own binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch_function(module, attr, make):
    old = getattr(module, attr)
    _replace_everywhere(old, make(old))


def _patch_method(cls, attr, make):
    """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
    for klass in _subclasses(cls):
        if attr in vars(klass):
            setattr(klass, attr, make(vars(klass)[attr]))


def install(lc, per_cycle):
    """Wrap every layer's entry points in the running ``repro`` program.

    ``per_cycle`` also wraps the simulator's per-cycle steps
    (``SMCore.cycle``, ``MemoryPartition.cycle`` and the interconnect);
    only a single-threaded child takes it, because those wrappers run
    millions of times and their cost would land on other threads'
    latency.  Without it, all simulator time is ``sim.run_launch``.
    """
    import repro.advise
    import repro.advise.advisor
    import repro.analysis
    import repro.analysis.races as races
    import repro.core.classifier as classifier
    import repro.emulator.machine as machine
    import repro.emulator.trace_cache as trace_cache
    import repro.experiments.runner as runner
    import repro.optim.semi_global_l2  # noqa: F401 — a GPU subclass
    import repro.profiling.locality as locality
    import repro.ptx.parser as parser
    import repro.ptx.verify as verify
    import repro.resilience.fallback as fallback
    import repro.service.pipeline  # noqa: F401 — binds the names above
    import repro.service.store as store
    import repro.service.worker as worker
    import repro.sim.core as sim_core
    import repro.sim.gpu as gpu
    import repro.sim.icnt as icnt
    import repro.sim.memory_partition as partition
    import repro.workloads.registry as registry

    def timed(name, after=None):
        return lambda fn: lc.wrap(name, fn, after)

    _patch_function(parser, "parse_module", timed("ptx.parse"))
    _patch_function(verify, "verify_module", timed("ptx.verify"))
    _patch_function(classifier, "classify_kernel", timed("core.classify"))

    for cls in registry.WORKLOADS.values():
        _patch_method(cls, "setup", timed("workloads.setup"))
        _patch_method(cls, "verify", timed("workloads.verify"))

    def launched(result, args, kwargs):
        lc.count("emulator.warp_insts", result.total_warp_instructions())

    _patch_method(machine.Emulator, "launch",
                  timed("emulator.emulate", launched))

    def fell_back(result, args, kwargs):
        lc.count("emulator.fallbacks", len(result[2]))

    _patch_function(fallback, "run_with_fallback",
                    lambda fn: lc.observe(fn, fell_back))

    def looked_up(result, args, kwargs):
        lc.count("trace_cache.lookups")
        lc.count("trace_cache.hits", result is not None)

    _patch_function(trace_cache, "lookup",
                    timed("trace_cache.load", looked_up))
    _patch_function(trace_cache, "store", timed("trace_cache.store"))

    _patch_method(locality.LocalityAnalyzer, "analyze_application",
                  timed("profiling.locality"))
    _patch_function(races, "analyze_trace", timed("analysis.races"))
    _patch_function(repro.advise.advisor, "advise_app", timed("advise"))

    def counted_launch(fn):
        def run_launch(self, *args, **kwargs):
            cycles = self.stats.cycles
            insts = self.stats.issued_warp_insts
            result = fn(self, *args, **kwargs)
            lc.count("sim.cycles", self.stats.cycles - cycles)
            lc.count("sim.warp_insts", self.stats.issued_warp_insts - insts)
            return result
        return lc.wrap("sim.run_launch", functools.wraps(fn)(run_launch))

    def built(result, args, kwargs):
        # a subclass __init__ calling GPU.__init__ builds one GPU, not two
        stack = lc.stack()
        if stack and stack[-1][0] != "sim.other" and lc.in_layer("advise"):
            lc.count("advise.resimulations")

    _patch_method(gpu.GPU, "run_launch", counted_launch)
    _patch_method(gpu.GPU, "__init__", timed("sim.other", built))
    _patch_method(gpu.GPU, "publish_metrics", timed("sim.other"))
    if per_cycle:
        _patch_method(sim_core.SMCore, "cycle", timed("sim.sm_cycle"))
        _patch_method(partition.MemoryPartition, "cycle",
                      timed("sim.partition_cycle"))
        _patch_method(icnt.Interconnect, "deliver_ready", timed("sim.icnt"))
        _patch_method(icnt.Interconnect, "inject", timed("sim.icnt"))

    _patch_method(worker.WorkerPool, "process", timed(JOB))
    _patch_method(store.LocalDirStore, "put_bytes", timed("service.store.put"))
    _patch_method(store.LocalDirStore, "put_file", timed("service.store.put"))
    _patch_method(store.LocalDirStore, "get_bytes", timed("service.store.get"))

    def checked(result, args, kwargs):
        if getattr(result, "ok", False) and result.stats is not None:
            for message in checks.sim_invariant_problems(
                    result.name, result.stats,
                    result.trace.total_warp_instructions()):
                lc.problem(message)

    _patch_method(runner.ExperimentRunner, "result",
                  timed("experiments.app", checked))
    return lc
