"""Shared message/queue primitives for the memory hierarchy."""

from __future__ import annotations

from collections import deque

#: Access outcomes returned by cache ``access`` methods.
HIT = 0
MISS = 1
BLOCKED = 2  # no MSHR / bank busy — retry next cycle


class DelayQueue:
    """A FIFO whose items become visible only after a fixed delay.

    Models pipelined buses and response networks: ``push`` at time ``t``
    makes the item poppable at ``t + delay``. Items stay FIFO even if pushed
    with the same timestamp.
    """

    __slots__ = ("_q", "delay")

    def __init__(self, delay=1):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._q = deque()
        self.delay = delay

    def push(self, item, now):
        self._q.append((now + self.delay, item))

    def push_at(self, item, ready_time):
        """Push with an explicit ready time (must be monotonic)."""
        self._q.append((ready_time, item))

    def pop_ready(self, now):
        """Pop the oldest item whose delay has elapsed, else None."""
        if self._q and self._q[0][0] <= now:
            return self._q.popleft()[1]
        return None

    def next_time(self):
        """Ready time of the head entry, or None when empty. Pure — the
        quiescence-skipping scheduler uses it to bound skips by the next
        response without popping anything."""
        return self._q[0][0] if self._q else None

    def __len__(self):
        return len(self._q)

    def __bool__(self):
        return bool(self._q)


class MemRequest:
    """A line-granularity request traveling through the hierarchy."""

    __slots__ = ("line", "is_write", "src_id", "token", "needs_data", "issue_time")

    def __init__(self, line, is_write, src_id, token=None, needs_data=True, issue_time=0):
        self.line = line
        self.is_write = is_write
        self.src_id = src_id
        self.token = token
        self.needs_data = needs_data
        self.issue_time = issue_time

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return f"<MemReq {kind} {self.line:#x} from {self.src_id}>"
