"""Set-associative cache with reservation semantics.

Models exactly the access outcomes the paper measures for the L1 data
cache (Section VI, Figure 3):

* **hit** — a valid line holds the block;
* **hit reserved** — the block's tag is present but its data is still in
  flight from a previous miss; the request merges into the MSHR entry;
* **miss** — a line and an MSHR entry are reserved and a fill request can
  be sent on;
* **reservation fail by tags** — every line in the set is itself waiting
  for in-flight data, so no line can be evicted;
* **reservation fail by MSHRs** — no MSHR entry (or merge slot) available;
* *reservation fail by interconnect* is decided by the caller, which owns
  the downstream port — the cache exposes a two-phase ``lookup`` /
  ``commit_*`` API so the caller can check the interconnect before
  committing a miss.

On a failed reservation the request is retried on a later cycle; the
caller counts the wasted cycles (that is Figure 3's data).

Writes use Fermi's L1 policy: write-through, no write-allocate, and
write-evict on a write hit.
"""

from __future__ import annotations

import enum
from typing import List

from .mshr import MSHRTable


class Outcome(enum.Enum):
    """Result of presenting one request to the cache on one cycle."""

    HIT = "hit"
    HIT_RESERVED = "hit_reserved"
    MISS = "miss"
    RSRV_FAIL_TAGS = "rsrv_fail_tags"
    RSRV_FAIL_MSHR = "rsrv_fail_mshr"
    RSRV_FAIL_ICNT = "rsrv_fail_icnt"

    # members are singletons: identity hashing keeps the per-cycle
    # Outcome-keyed stats dicts off Enum's Python-level __hash__
    __hash__ = object.__hash__

    @property
    def is_fail(self):
        return self in RESERVATION_FAILS


#: the outcomes after which the request must retry on a later cycle.
RESERVATION_FAILS = frozenset({Outcome.RSRV_FAIL_TAGS, Outcome.RSRV_FAIL_MSHR,
                               Outcome.RSRV_FAIL_ICNT})


class _State(enum.Enum):
    INVALID = 0
    RESERVED = 1   # tag allocated, fill in flight
    VALID = 2


class _Line:
    __slots__ = ("tag", "state", "last_use")

    def __init__(self):
        self.tag = -1
        self.state = _State.INVALID
        self.last_use = 0


class Cache:
    """A single cache instance (one SM's L1, or one L2 slice)."""

    def __init__(self, num_sets, assoc, line_size, mshr_entries, mshr_merge,
                 name="cache"):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_size = line_size
        self.name = name
        self.mshr = MSHRTable(mshr_entries, mshr_merge)
        self._sets: List[List[_Line]] = [
            [_Line() for _ in range(assoc)] for _ in range(num_sets)]
        self._tick = 0

    # -- geometry ------------------------------------------------------------

    def _index(self, block_addr):
        return (block_addr // self.line_size) % self.num_sets

    def _tag(self, block_addr):
        return block_addr // self.line_size

    def _find(self, block_addr):
        tag = self._tag(block_addr)
        for line in self._sets[self._index(block_addr)]:
            if line.tag == tag and line.state is not _State.INVALID:
                return line
        return None

    # -- two-phase access ---------------------------------------------------------

    def lookup(self, block_addr):
        """Classify what an access would do, without side effects.

        Returns :class:`Outcome` — one of HIT, HIT_RESERVED, MISS (meaning a
        miss *can* be reserved), RSRV_FAIL_TAGS, RSRV_FAIL_MSHR.
        """
        line = self._find(block_addr)
        if line is not None:
            if line.state is _State.VALID:
                return Outcome.HIT
            # reserved: data in flight — merge if the MSHR entry has room
            if self.mshr.can_merge(block_addr):
                return Outcome.HIT_RESERVED
            return Outcome.RSRV_FAIL_MSHR
        if self._victim(block_addr) is None:
            return Outcome.RSRV_FAIL_TAGS
        if not self.mshr.can_allocate():
            return Outcome.RSRV_FAIL_MSHR
        return Outcome.MISS

    def _victim(self, block_addr):
        """The line a miss would evict: an invalid line, else the LRU valid
        line; ``None`` when every line in the set is reserved."""
        candidates = self._sets[self._index(block_addr)]
        best = None
        for line in candidates:
            if line.state is _State.INVALID:
                return line
            if line.state is _State.VALID:
                if best is None or line.last_use < best.last_use:
                    best = line
        return best

    def commit_hit(self, block_addr):
        self._tick += 1
        line = self._find(block_addr)
        line.last_use = self._tick

    def commit_hit_reserved(self, block_addr, request):
        self.mshr.merge(block_addr, request)

    def commit_miss(self, block_addr, request):
        """Reserve a line + MSHR entry for a fill; caller sends the request
        downstream."""
        self._tick += 1
        line = self._victim(block_addr)
        line.tag = self._tag(block_addr)
        line.state = _State.RESERVED
        line.last_use = self._tick
        self.mshr.allocate(block_addr, request)

    # -- fills / writes --------------------------------------------------------------

    def fill(self, block_addr):
        """A fill arrived: validate the line, return the waiting requests."""
        line = self._find(block_addr)
        if line is not None and line.state is _State.RESERVED:
            line.state = _State.VALID
            self._tick += 1
            line.last_use = self._tick
        return self.mshr.fill(block_addr)

    def write_touch(self, block_addr):
        """Apply write-evict semantics for a write-through store: a write
        that hits a valid line invalidates it (Fermi L1 behaviour)."""
        line = self._find(block_addr)
        if line is not None and line.state is _State.VALID:
            line.state = _State.INVALID
            line.tag = -1

    def contains_valid(self, block_addr):
        line = self._find(block_addr)
        return line is not None and line.state is _State.VALID

    def reserved_count(self):
        return sum(1 for s in self._sets for line in s
                   if line.state is _State.RESERVED)

    def reset(self):
        for s in self._sets:
            for line in s:
                line.tag = -1
                line.state = _State.INVALID
                line.last_use = 0
        # reset in place: obs instrumentation holds a reference to this
        # table, so rebinding would silently detach its metrics
        self.mshr.reset()
