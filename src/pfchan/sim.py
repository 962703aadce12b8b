"""Deterministic page-cache and scheduler model.

Time is integer ticks. The model tracks one shared page cache (an LRU set
with bounded capacity) plus a per-process view of which pages are mapped,
which is what separates soft from hard faults. The receiver's two threads
share a single core: a hard fault suspends the faulting thread for
disk_latency ticks, charges switch_cost, and hands the core to the other
thread, which is the whole reason completion order leaks the bit. Soft
faults and plain hits complete in mem_latency ticks and never yield.

Nothing in here uses randomness or wall time, so identical inputs replay
identical transcripts. run_channel_sim maps slot deadlines onto ticks with
tick_ns; when a sender's modeled work has not finished by the receiver's
probe deadline, the probe simply runs against the older cache state, which
is how shrinking the sync period degrades the channel.
"""
from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum

from .config import ChannelConfig
from .errors import ConfigError
from .protocol import (
    FaultKind,
    ObservedOrder,
    PagePair,
    Residency,
    decode_from_order,
    encode_target,
    page_pair_for_slot,
)
from .report import SlotRecord, TransmissionReport

SPY_PROCESS = "spy"
SPY_THREADS = ("t1", "t2")


class EvictionBehavior(Enum):
    """How faithfully the modeled kernel honors eviction advice.

    ALWAYS is the ideal channel. FIRST_WRAP honors advice only until the
    page schedule wraps around the region, after which previously touched
    pages stay cached; this reproduces the accuracy loss of small regions,
    where long payloads revisit warm pages.
    """

    ALWAYS = "always"
    FIRST_WRAP = "first-wrap"


@dataclass(frozen=True)
class SimParams:
    cache_capacity: int = 1 << 20
    disk_latency: int = 1000
    mem_latency: int = 1
    switch_cost: int = 10
    readahead: int = 1
    tick_ns: int = 1
    eviction_behavior: EvictionBehavior = EvictionBehavior.ALWAYS

    def __post_init__(self) -> None:
        if self.cache_capacity < 2:
            raise ConfigError(
                f"cache_capacity must be at least 2, got {self.cache_capacity}"
            )
        if self.mem_latency < 1:
            raise ConfigError(f"mem_latency must be at least 1, got {self.mem_latency}")
        if self.disk_latency <= self.mem_latency:
            raise ConfigError(
                f"disk_latency ({self.disk_latency}) must exceed mem_latency "
                f"({self.mem_latency})"
            )
        if self.switch_cost < 0:
            raise ConfigError(f"switch_cost must be >= 0, got {self.switch_cost}")
        if self.readahead < 1:
            raise ConfigError(
                f"readahead counts pages fetched per hard fault and must be "
                f">= 1, got {self.readahead}"
            )
        if self.tick_ns < 1:
            raise ConfigError(f"tick_ns must be at least 1, got {self.tick_ns}")


@dataclass(frozen=True)
class AccessRecord:
    """One page access: when it started, who issued it, what it cost."""

    tick: int
    thread: str
    page: int
    fault: FaultKind


def render_trace(trace: list[AccessRecord]) -> str:
    """Line-oriented export, one access per line: tick,thread,page,fault_kind.

    Records are emitted in tick order regardless of the order in which the
    model applied them.
    """
    ordered = sorted(trace, key=lambda rec: rec.tick)
    return "\n".join(
        f"{rec.tick},{rec.thread},{rec.page},{rec.fault.value}" for rec in ordered
    )


class CacheSchedSim:
    """Mutable model state: LRU cache, per-process mappings, a tick clock."""

    def __init__(self, params: SimParams, region_pages: int) -> None:
        if region_pages < 2:
            raise ConfigError(f"region needs at least 2 pages, got {region_pages}")
        self.params = params
        self.region_pages = region_pages
        self.clock = 0
        self._cache: OrderedDict[int, None] = OrderedDict()
        self._mapped: dict[str, set[int]] = {}
        self.trace: list[AccessRecord] = []

    # -- bookkeeping -------------------------------------------------------

    def _process_of(self, thread: str) -> str:
        return SPY_PROCESS if thread in SPY_THREADS else thread

    def _map_table(self, process: str) -> set[int]:
        return self._mapped.setdefault(process, set())

    def residency(self, page: int) -> Residency:
        return Residency.RESIDENT if page in self._cache else Residency.EVICTED

    def resident_pages(self) -> set[int]:
        return set(self._cache)

    def is_mapped(self, process: str, page: int) -> bool:
        return page in self._mapped.get(process, ())

    def classify_access(self, page: int, mapped: bool) -> FaultKind:
        """Fault taken by an access given current residency and the caller's
        mapping state. Pages outside the region are a usage error."""
        if not (0 <= page < self.region_pages):
            raise ConfigError(
                f"page {page} outside region of {self.region_pages} pages"
            )
        if page not in self._cache:
            return FaultKind.HARD
        if not mapped:
            return FaultKind.SOFT
        return FaultKind.NONE

    def evict(self, pages) -> None:
        """Drop pages from the cache and invalidate every mapping of them.

        Absent pages are ignored, mirroring advisory eviction.
        """
        for page in pages:
            self._cache.pop(page, None)
            for table in self._mapped.values():
                table.discard(page)

    def mark_resident(self, pages, process: str | None = None) -> None:
        """Test and setup hook: force pages into the cache, optionally with a
        mapping, without consuming modeled time."""
        for page in pages:
            self._install_page(page)
            if process is not None:
                self._map_table(process).add(page)

    def _install_page(self, page: int) -> None:
        if page in self._cache:
            self._cache.move_to_end(page)
            return
        self._cache[page] = None
        while len(self._cache) > self.params.cache_capacity:
            victim, _ = self._cache.popitem(last=False)
            for table in self._mapped.values():
                table.discard(victim)

    def _fetch(self, page: int, process: str) -> None:
        # Demand page plus sequential readahead, clamped to the region end.
        last = min(self.region_pages, page + self.params.readahead)
        for fetched in range(page, last):
            self._install_page(fetched)
        self._map_table(process).add(page)

    def _hit(self, page: int, process: str) -> None:
        self._cache.move_to_end(page)
        self._map_table(process).add(page)

    def _record(self, tick: int, thread: str, page: int, fault: FaultKind) -> AccessRecord:
        rec = AccessRecord(tick=tick, thread=thread, page=page, fault=fault)
        self.trace.append(rec)
        return rec

    # -- single access (used by the sender and by standalone callers) ------

    def plan_access(
        self, thread: str, page: int, start_tick: int
    ) -> tuple[FaultKind, int]:
        """Classify and trace an access starting at start_tick.

        Returns (fault, completion_tick) and leaves the cache untouched until
        land_access applies the access, so a probe that runs before the
        completion tick still sees the pre-access state.
        """
        p = self.params
        process = self._process_of(thread)
        fault = self.classify_access(page, self.is_mapped(process, page))
        self._record(start_tick, thread, page, fault)
        if fault is FaultKind.HARD:
            # The fetch completes after disk_latency; the retried access then
            # needs the core back, which the yield released at +switch_cost.
            resume = max(start_tick + p.disk_latency, start_tick + p.switch_cost)
            return fault, resume + p.mem_latency
        return fault, start_tick + p.mem_latency

    def land_access(self, thread: str, page: int, fault: FaultKind) -> None:
        """Apply the cache effect of an access that plan_access classified."""
        if fault is FaultKind.HARD:
            self._fetch(page, self._process_of(thread))
        else:
            self._hit(page, self._process_of(thread))

    def touch(self, thread: str, page: int) -> tuple[FaultKind, int]:
        """Run one access to completion at the current clock.

        NONE and SOFT finish in mem_latency and keep the core. HARD parks the
        thread on a disk fetch, yields, and finishes one mem_latency after the
        fetch lands.
        """
        fault, completion = self.plan_access(thread, page, self.clock)
        self.land_access(thread, page, fault)
        self.clock = completion
        return fault, completion

    def probe_at(self, tick: int, pair: PagePair) -> ObservedOrder:
        """Run the receiver's slot on pair starting at tick."""
        self.clock = tick
        order, _ = self.run_spy_slot(pair)
        return order

    # -- the receiver's two-thread slot ------------------------------------

    def run_spy_slot(self, pair: PagePair) -> tuple[ObservedOrder, list[AccessRecord]]:
        """Probe one pair with threads t1 -> p1 and t2 -> p2 on a single core.

        t1 is scheduled first. The order is AMBIGUOUS unless exactly one
        thread hard-faulted, because with zero or two hard faults completion
        order reflects start order, not residency.
        """
        p = self.params
        start = self.clock
        # (available_tick, arrival_seq, thread, page, is_retry)
        arrivals: list[tuple[int, int, str, int, bool]] = []
        seq = 0
        for thread, page in zip(SPY_THREADS, pair.pages):
            heapq.heappush(arrivals, (start, seq, thread, page, False))
            seq += 1
        runq: deque[tuple[str, int, bool]] = deque()
        pending_fetches: list[tuple[int, int, str]] = []  # (ready_tick, page, process)
        core_free = start
        completions: dict[str, int] = {}
        hard_faulted: dict[str, bool] = {t: False for t in SPY_THREADS}
        slot_trace: list[AccessRecord] = []

        def commit_fetches(up_to: int) -> None:
            remaining = []
            for ready, page, process in pending_fetches:
                if ready <= up_to:
                    self._fetch(page, process)
                else:
                    remaining.append((ready, page, process))
            pending_fetches[:] = remaining

        while arrivals or runq:
            while arrivals and arrivals[0][0] <= core_free:
                _, _, thread, page, is_retry = heapq.heappop(arrivals)
                runq.append((thread, page, is_retry))
            if not runq:
                core_free = arrivals[0][0]
                continue
            thread, page, is_retry = runq.popleft()
            commit_fetches(core_free)
            if is_retry:
                # The faulting access resumes; its page landed with the fetch.
                self._cache.move_to_end(page)
                completions[thread] = core_free + p.mem_latency
                core_free = completions[thread]
                continue
            process = self._process_of(thread)
            fault = self.classify_access(page, self.is_mapped(process, page))
            slot_trace.append(self._record(core_free, thread, page, fault))
            if fault is FaultKind.HARD:
                hard_faulted[thread] = True
                wake = core_free + p.disk_latency
                pending_fetches.append((wake, page, process))
                heapq.heappush(arrivals, (wake, seq, thread, page, True))
                seq += 1
                core_free = core_free + p.switch_cost
            else:
                self._hit(page, process)
                completions[thread] = core_free + p.mem_latency
                core_free = completions[thread]

        commit_fetches(core_free)
        self.clock = max(completions.values())

        if sum(hard_faulted.values()) != 1:
            return ObservedOrder.AMBIGUOUS, slot_trace
        t1_last = completions["t1"] > completions["t2"]
        return (
            ObservedOrder.T1_LAST if t1_last else ObservedOrder.T2_LAST,
            slot_trace,
        )


def run_channel_sim(
    cfg: ChannelConfig,
    params: SimParams,
    payload: list[int],
    trace_out: list[AccessRecord] | None = None,
) -> TransmissionReport:
    """Drive a full transmission through the model and report on it.

    Per slot, in tick order: the sender evicts the pair (when the modeled
    kernel honors the advice) and starts touching the encode target, and the
    receiver probes at its guard deadline. Deadlines convert to ticks via
    tick_ns. The sender may drift past its deadline when a slot's work
    exceeds the period. The touch lands in the cache only at its completion
    tick, and a probe that runs before then observes the pre-touch state,
    which is what makes aggressive bit rates lossy.

    Reported bandwidth uses the nominal channel time of one period per bit,
    not the modeled work time.
    """
    for bit in payload:
        if bit not in (0, 1):
            raise ConfigError(f"payload must contain only bits, got {bit!r}")
    if not payload:
        raise ConfigError("payload must contain at least one bit")

    sim = CacheSchedSim(params, cfg.region_pages)
    period_ticks = max(1, cfg.sync_period_ns // params.tick_ns)
    guard_ticks = cfg.guard_ns // params.tick_ns
    always_honor = params.eviction_behavior is EvictionBehavior.ALWAYS
    sender_free = 0
    slots: list[SlotRecord] = []

    for k, bit in enumerate(payload):
        pair = page_pair_for_slot(cfg, k)
        target = encode_target(bit, pair)
        sender_start = max(k * period_ticks, sender_free)
        probe_tick = k * period_ticks + guard_ticks

        order = None
        if probe_tick < sender_start:
            order = sim.probe_at(probe_tick, pair)
        # Eviction advice and the touch go back to back at sender_start.
        if always_honor or k < cfg.slots_per_wrap:
            sim.evict(pair.pages)
        fault, encode_done = sim.plan_access("trojan", target, sender_start)
        # The touch lands at encode_done; a probe mid-encode sees it missing.
        if order is None and probe_tick < encode_done:
            order = sim.probe_at(probe_tick, pair)
        sim.land_access("trojan", target, fault)
        if order is None:
            order = sim.probe_at(probe_tick, pair)
        sender_free = encode_done
        slots.append(
            SlotRecord(slot=k, pair=pair, order=order, decoded=decode_from_order(order))
        )

    elapsed_ns = len(payload) * cfg.sync_period_ns
    report = TransmissionReport.build(payload, slots, elapsed_ns)
    if trace_out is not None:
        trace_out.extend(sorted(sim.trace, key=lambda rec: rec.tick))
    return report
