"""Miss-status holding registers (MSHRs).

Each in-flight L1 miss occupies one MSHR entry; further misses to the
same line merge into the entry up to a merge limit.  When every entry is
busy the LD/ST unit refuses the access and the warp replays — nvprof's
``memory_throttle`` stall, which the paper shows dominating
fully-connected layers (Figure 7).
"""

from __future__ import annotations

import heapq


class MshrFile:
    """A fixed pool of miss-status holding registers."""

    def __init__(self, entries: int, max_merges: int = 8) -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = entries
        self.max_merges = max_merges
        self._inflight: dict[int, int] = {}  # line -> merge count
        self._releases: list[tuple[int, int]] = []  # (ready_cycle, line) heap
        self._hold_until = 0
        self._held = False

    def hold_until(self, cycle: int) -> None:
        """Keep one entry logically busy until *cycle*.

        Models an access wider than the file being replayed in waves:
        the LSU stays occupied with it until the final wave completes.
        """
        self._hold_until = max(self._hold_until, cycle)

    def drain(self, now: int) -> None:
        """Release every entry whose fill completed by *now*."""
        self._held = now < self._hold_until
        while self._releases and self._releases[0][0] <= now:
            _, line = heapq.heappop(self._releases)
            count = self._inflight.get(line, 0)
            if count <= 1:
                self._inflight.pop(line, None)
            else:
                self._inflight[line] = count - 1

    def refuses(self, now: int, missing: int) -> bool:
        """The admission rule: must a global load at *now* whose L1 lacks
        *missing* of its lines throttle and replay?

        Releases every fill due by *now* first, and refreshes the hold of
        a wide access (:meth:`hold_until` defers that to the next drain);
        most calls find nothing due and skip :meth:`drain`'s heap walk.
        Then the load is refused when the file is busy and cannot take
        that many more entries: ``in_use > 0 and in_use + missing >
        capacity``.  An empty file admits any access: one wider than the
        whole file (e.g. a 32-transaction FC load on a 16-entry file) is
        replayed in waves by the LSU, and would otherwise never issue.
        Refusing a lower bound on *missing* refuses the exact count too.
        """
        releases = self._releases
        if releases and releases[0][0] <= now:
            self.drain(now)
        else:
            self._held = now < self._hold_until
        in_use = len(self._inflight) + (1 if self._held else 0)
        return in_use > 0 and in_use + missing > self.capacity

    def reserve(self, line: int, ready_cycle: int, now: int) -> bool:
        """Try to track a miss to *line*; False means throttled.

        A miss to a line already in flight merges into its entry (if the
        merge limit allows); otherwise a free entry is required.
        """
        self.drain(now)
        if line in self._inflight:
            if self._inflight[line] >= self.max_merges:
                return False
            self._inflight[line] += 1
            heapq.heappush(self._releases, (ready_cycle, line))
            return True
        if len(self._inflight) >= self.capacity:
            return False
        self._inflight[line] = 1
        heapq.heappush(self._releases, (ready_cycle, line))
        return True

    @property
    def in_use(self) -> int:
        """Entries currently allocated (including a held wide access)."""
        return len(self._inflight) + (1 if self._held else 0)

    def next_release(self) -> int | None:
        """Cycle at which the next entry frees, if any are in flight."""
        if self._releases:
            return self._releases[0][0]
        if self._held:
            return self._hold_until
        return None
