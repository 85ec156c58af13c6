"""Miss-status holding registers.

An MSHR entry tracks one in-flight cache-line fill; requests to the same
block while the fill is outstanding merge into the entry (the paper's
*hit reserved* outcome).  Exhaustion of entries — or of merge slots —
produces the paper's *reservation fail by MSHRs*.
"""

from __future__ import annotations

from typing import Dict, List


class MSHRTable:
    """Fixed-capacity table of in-flight misses keyed by block address."""

    def __init__(self, num_entries, max_merge):
        self.num_entries = num_entries
        self.max_merge = max_merge
        self._entries: Dict[int, List[object]] = {}
        # telemetry: lifetime allocation/merge counts and the occupancy
        # high-water mark, published into the metrics registry per run
        self.total_allocations = 0
        self.total_merges = 0
        self.max_occupancy = 0

    # -- probes -----------------------------------------------------------

    def has_entry(self, block_addr):
        return block_addr in self._entries

    def can_merge(self, block_addr):
        """True when a request to an in-flight block can attach."""
        entry = self._entries.get(block_addr)
        return entry is not None and len(entry) < self.max_merge

    def can_allocate(self):
        return len(self._entries) < self.num_entries

    @property
    def occupancy(self):
        return len(self._entries)

    # -- updates ------------------------------------------------------------

    def allocate(self, block_addr, request):
        """Start tracking a new miss; the request becomes the entry's first
        waiter."""
        if block_addr in self._entries:
            raise ValueError("MSHR entry for %#x already exists" % block_addr)
        if not self.can_allocate():
            raise ValueError("MSHR table full")
        self._entries[block_addr] = [request]
        self.total_allocations += 1
        if len(self._entries) > self.max_occupancy:
            self.max_occupancy = len(self._entries)

    def merge(self, block_addr, request):
        """Attach a request to an existing in-flight miss."""
        entry = self._entries[block_addr]
        if len(entry) >= self.max_merge:
            raise ValueError("MSHR merge capacity exceeded for %#x"
                             % block_addr)
        entry.append(request)
        self.total_merges += 1

    def fill(self, block_addr):
        """The fill returned: pop and return every waiting request."""
        return self._entries.pop(block_addr, [])

    def waiting(self, block_addr):
        return list(self._entries.get(block_addr, ()))

    def demand_waiters(self):
        """Waiting requests that are not prefetches (a warp needs them)."""
        return sum(1 for waiters in self._entries.values()
                   for req in waiters if not req.is_prefetch)

    def reset(self):
        """Drop all in-flight entries, keeping lifetime telemetry.

        Callers (``Cache.reset``) must reset *in place*: obs
        instrumentation publishes per-instance gauges, so rebinding to a
        fresh table would leave those holders reading a dead object.
        """
        self._entries.clear()

    # -- observability ------------------------------------------------------

    def publish_metrics(self, registry, **labels):
        """Publish lifetime telemetry into a metrics registry.

        ``labels`` typically carry ``app`` plus the owning unit
        (``sm=3`` or ``partition=1``) and ``level`` (``l1``/``l2``).
        """
        registry.counter(
            "sim.mshr.allocations",
            "MSHR entries allocated (one per tracked miss)").inc(
            self.total_allocations, **labels)
        registry.counter(
            "sim.mshr.merges",
            "requests merged into an in-flight MSHR entry "
            "(the paper's hit-reserved path)").inc(
            self.total_merges, **labels)
        registry.gauge(
            "sim.mshr.max_occupancy",
            "high-water mark of simultaneously tracked misses").set(
            self.max_occupancy, **labels)

    # -- diagnostics --------------------------------------------------------

    def debug_state(self, max_entries=8):
        """In-flight misses for deadlock reports: occupancy plus the first
        few ``block_addr: waiter_count`` pairs."""
        entries = {"%#x" % addr: len(waiters)
                   for addr, waiters in list(self._entries.items())
                   [:max_entries]}
        return {"occupancy": len(self._entries),
                "capacity": self.num_entries,
                "entries": entries}
