"""Level-one cache model (used for both L1I and L1D).

Write-back, write-allocate, set-associative with true-LRU replacement, a
finite MSHR file with same-line merge, and MSI-style share states:

* ``M`` — modified/exclusive (writes allowed)
* ``S`` — shared clean (writes need an ownership upgrade through the L2)

The cache is driven synchronously by its core (``access``), fills
asynchronously from the L2 through a response queue (``tick``), and is probed
synchronously by the L2 directory (``invalidate`` / ``downgrade``) — charging
all protocol latency to the requester keeps the model free of transient
protocol races while preserving the timing effects the paper relies on
(dirty-line migration between banks after a mode switch, sharer invalidation
in task-parallel runs).

Set indexing is mode-dependent (paper §III-E): ``set_banked_mode`` switches
the index function so the cache behaves as one slice of a bank-interleaved
shared cache; lines cached under the other mode stay resident and reachable
(full tags) and migrate lazily via coherence.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.message import BLOCKED, HIT, MISS, DelayQueue
from repro.utils import is_pow2, log2i

STATE_M = 2
STATE_S = 1


class _Mshr:
    __slots__ = ("line", "is_write", "waiters", "issue_time")

    def __init__(self, line, is_write, issue_time):
        self.line = line
        self.is_write = is_write
        self.waiters = []
        self.issue_time = issue_time


class L1Cache:
    """One private L1 (instruction or data)."""

    __slots__ = ("cache_id", "l2", "assoc", "line_bytes", "hit_latency",
                 "n_mshrs", "period", "_off_bits", "_nsets", "_set_mask",
                 "_bank_shift", "_state", "_dirty", "_lru", "_mshrs",
                 "resp_queue", "accesses", "hits", "misses", "upgrades",
                 "writebacks", "invalidations_received", "mshr_blocked",
                 "obs", "_obs_track", "_obs_fill_hist")

    def __init__(
        self,
        cache_id,
        l2=None,
        size_bytes=32 * 1024,
        assoc=2,
        line_bytes=64,
        hit_latency=2,
        n_mshrs=8,
        resp_delay=2,
        period=1,
    ):
        if not (is_pow2(size_bytes) and is_pow2(line_bytes)):
            raise ConfigError("cache size and line size must be powers of two")
        nsets = size_bytes // (assoc * line_bytes)
        if nsets < 1 or not is_pow2(nsets):
            raise ConfigError(f"bad geometry: {size_bytes}B / {assoc}-way / {line_bytes}B line")
        self.cache_id = cache_id
        self.l2 = l2
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.n_mshrs = n_mshrs
        self.period = period
        self._off_bits = log2i(line_bytes)
        self._nsets = nsets
        self._set_mask = nsets - 1
        self._bank_shift = 0  # extra index shift in banked mode

        self._state = {}  # line -> STATE_M | STATE_S
        self._dirty = set()  # lines with locally modified data
        self._lru = {}  # set idx -> list of lines, MRU last
        self._mshrs = {}  # line -> _Mshr
        self.resp_queue = DelayQueue(resp_delay * period)

        # counters
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.upgrades = 0
        self.writebacks = 0
        self.invalidations_received = 0
        self.mshr_blocked = 0

        self.obs = None  # off the hit path entirely: hooks fire only on fills

    # --------------------------------------------------------- observability

    def attach_obs(self, obs, fill_hist):
        self.obs = obs
        self._obs_track = obs.tracer.track(self.cache_id, process="mem")
        self._obs_fill_hist = fill_hist

    # ------------------------------------------------------------- geometry

    def line_of(self, addr):
        return addr >> self._off_bits << self._off_bits

    def _set_of(self, line):
        return (line >> (self._off_bits + self._bank_shift)) & self._set_mask

    def set_banked_mode(self, nbanks):
        """Index as one slice of an ``nbanks``-interleaved shared cache."""
        self._bank_shift = log2i(nbanks)

    def set_private_mode(self):
        self._bank_shift = 0

    # --------------------------------------------------------------- access

    def access(self, addr, is_write, now, waiter=None):
        """Core-side access. Returns ``(HIT, ready_cycle)``, ``(MISS, None)``
        (waiter will be called as ``waiter(line, ready_cycle)`` on fill), or
        ``(BLOCKED, None)`` when no MSHR is available (retry next cycle)."""
        self.accesses += 1
        line = addr >> self._off_bits << self._off_bits
        st = self._state.get(line)
        if st is not None and (not is_write or st == STATE_M):
            self.hits += 1
            if is_write:
                self._dirty.add(line)
            self._touch(line)
            return HIT, now + self.hit_latency * self.period

        mshr = self._mshrs.get(line)
        if mshr is not None:
            if is_write and not mshr.is_write:
                # a write joining an outstanding read miss: let the fill land
                # first, then take the upgrade path on retry
                self.mshr_blocked += 1
                return BLOCKED, None
            if waiter is not None:
                mshr.waiters.append(waiter)
            return MISS, None

        if len(self._mshrs) >= self.n_mshrs:
            self.mshr_blocked += 1
            return BLOCKED, None

        if st is not None and is_write:
            self.upgrades += 1
        else:
            self.misses += 1
        mshr = _Mshr(line, is_write, now)
        if waiter is not None:
            mshr.waiters.append(waiter)
        self._mshrs[line] = mshr
        self.l2.request(self.cache_id, line, is_write, now)
        return MISS, None

    def _touch(self, line):
        s = self._lru.get(self._set_of(line))
        if s is None or line not in s:
            # resident under the other indexing mode's set; leave LRU as-is
            return
        if s[-1] != line:
            s.remove(line)
            s.append(line)

    # ----------------------------------------------------------------- fill

    def tick(self, now):
        """Drain ready fill responses; wake waiters."""
        while True:
            resp = self.resp_queue.pop_ready(now)
            if resp is None:
                return
            line, granted = resp
            self._install(line, granted, now)

    def _install(self, line, granted, now):
        mshr = self._mshrs.pop(line, None)
        if self.obs is not None and mshr is not None:
            # miss-to-fill latency as seen by this cache's requester
            self._obs_fill_hist.observe(now - mshr.issue_time)
        if line not in self._state:
            sidx = self._set_of(line)
            s = self._lru.setdefault(sidx, [])
            if len(s) >= self.assoc:
                victim = s.pop(0)
                self._state.pop(victim)
                if victim in self._dirty:
                    self._dirty.discard(victim)
                    self.writebacks += 1
                    self.l2.writeback(self.cache_id, victim, now)
                    if self.obs is not None:
                        self.obs.tracer.instant(self._obs_track, "writeback", now)
                else:
                    self.l2.drop_sharer(self.cache_id, victim)
            s.append(line)
        else:
            self._touch(line)
        self._state[line] = granted
        if mshr is not None:
            if mshr.is_write:
                self._dirty.add(line)
            ready = now + self.period
            for w in mshr.waiters:
                w(line, ready)

    # ------------------------------------------------------- coherence side

    def invalidate(self, line):
        """Directory-initiated invalidation. Returns True if line was dirty."""
        st = self._state.pop(line, None)
        if st is None:
            return False
        self.invalidations_received += 1
        s = self._lru.get(self._set_of(line))
        if s is not None and line in s:
            s.remove(line)
        else:
            # line may have been installed under the other indexing mode
            for lst in self._lru.values():
                if line in lst:
                    lst.remove(line)
                    break
        was_dirty = line in self._dirty
        self._dirty.discard(line)
        return was_dirty

    def downgrade(self, line):
        """M -> S; dirty data migrates to the L2. Returns True if dirty."""
        if self._state.get(line) == STATE_M:
            self._state[line] = STATE_S
            if line in self._dirty:
                self._dirty.discard(line)
                return True
        return False

    def probe(self, line):
        return self._state.get(line)

    @property
    def resident_lines(self):
        return len(self._state)

    def stats(self):
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "upgrades": self.upgrades,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations_received,
            "mshr_blocked": self.mshr_blocked,
        }
