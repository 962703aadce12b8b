"""Deterministic page-cache and scheduler model.

Time is integer ticks. The model tracks one shared page cache (a plain set:
the live backend switches readahead off and evicts only by advice, on a
region far smaller than the cache, so loading a page moves no other page)
plus a per-process view of which pages are mapped, which is what separates
soft from hard faults. The receiver's two threads share a single core: a
hard fault suspends the faulting thread for disk_latency ticks, charges
switch_cost, and hands the core to the other thread, which is the whole
reason completion order leaks the bit. Soft faults and plain hits complete
in mem_latency ticks and never yield.

A slot makes exactly two accesses, so its schedule needs no event queue:
t1 starts, t2 takes the core when t1 finishes or yields, and each thread
that hard-faulted then resumes, t1 first, once its fetch is due and the
core is free.

Nothing in here uses randomness or wall time, so identical inputs replay
identical transcripts. run_channel_sim maps slot deadlines onto ticks with
tick_ns; when a sender's modeled work has not finished by the receiver's
probe deadline, the probe simply runs against the older cache state, which
is how shrinking the sync period degrades the channel. No access trace is
kept unless run_channel_sim is given trace_out.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .config import ChannelConfig
from .errors import ConfigError
from .protocol import (
    FaultKind,
    ObservedOrder,
    PagePair,
    check_bits,
    decode_from_order,
    page_pair_for_slot,
)
from .report import TransmissionReport

SPY_PROCESS = "spy"
SPY_THREADS = ("t1", "t2")
_T1, _T2 = SPY_THREADS

# The spy slot builds its AccessRecords through the C tuple constructor, as
# protocol.page_pair_for_slot builds its PagePair, skipping the Python-level
# __new__ that NamedTuple generates.
_new_tuple = tuple.__new__

# The slot path reads these members as module globals: before CPython 3.12
# every FaultKind.HARD-style lookup goes through EnumType.__getattr__, which
# costs several times a global read.
_HARD, _SOFT, _NONE = FaultKind.HARD, FaultKind.SOFT, FaultKind.NONE
_T1_LAST, _T2_LAST = ObservedOrder.T1_LAST, ObservedOrder.T2_LAST
_AMBIGUOUS = ObservedOrder.AMBIGUOUS


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
    disk_latency: int = 1000
    mem_latency: int = 1
    switch_cost: int = 10
    tick_ns: int = 1
    eviction_behavior: EvictionBehavior = EvictionBehavior.ALWAYS

    def __post_init__(self) -> None:
        if self.mem_latency < 1:
            raise ConfigError(f"mem_latency must be at least 1, got {self.mem_latency}")
        if self.disk_latency <= self.mem_latency:
            raise ConfigError(
                f"disk_latency ({self.disk_latency}) must exceed mem_latency "
                f"({self.mem_latency})"
            )
        if self.switch_cost < 0:
            raise ConfigError(f"switch_cost must be >= 0, got {self.switch_cost}")
        if self.tick_ns < 1:
            raise ConfigError(f"tick_ns must be at least 1, got {self.tick_ns}")
        # run_channel_sim tests the member by identity, so anything else,
        # even its value string, would silently run as FIRST_WRAP
        if not isinstance(self.eviction_behavior, EvictionBehavior):
            legal = ", ".join(repr(b.value) for b in EvictionBehavior)
            raise ConfigError(
                f"eviction_behavior must be an EvictionBehavior member "
                f"({legal}), got {self.eviction_behavior!r}"
            )


class AccessRecord(NamedTuple):
    """One page access: when it started, who issued it, what it cost."""

    tick: int
    thread: str
    page: int
    fault: FaultKind


def render_trace(trace: list[AccessRecord]) -> str:
    """Line-oriented export, one access per line: tick,thread,page,fault_kind.

    Records are emitted in the order given; run_channel_sim's trace_out is
    already in tick order.
    """
    return "\n".join(
        f"{rec.tick},{rec.thread},{rec.page},{rec.fault.value}" for rec in trace
    )


class CacheSchedSim:
    """Mutable model state: cached pages, per-process mappings, a tick clock."""

    def __init__(self, params: SimParams, region_pages: int) -> None:
        if region_pages < 2:
            raise ConfigError(f"region needs at least 2 pages, got {region_pages}")
        self.params = params
        self.region_pages = region_pages
        self.clock = 0
        self._cache: set[int] = set()
        self._mapped: defaultdict[str, set[int]] = defaultdict(set)

    # -- bookkeeping -------------------------------------------------------

    def _outside(self, page: int) -> ConfigError:
        return ConfigError(f"page {page} outside region of {self.region_pages} pages")

    def evict(self, pages) -> None:
        """Drop pages from the cache and invalidate every mapping of them.

        Absent pages are ignored, mirroring advisory eviction; no table
        names an uncached page, so only cached ones need the table scan.
        """
        cache = self._cache
        for page in pages:
            if page in cache:
                cache.discard(page)
                for table in self._mapped.values():
                    table.discard(page)

    # -- the sender's single access ----------------------------------------

    def plan_access(
        self, process: str, page: int, start_tick: int
    ) -> tuple[FaultKind, int]:
        """Classify process's access starting at start_tick.

        An uncached page takes a HARD fault; a cached page is a plain hit
        (NONE) when process maps it and a SOFT fault otherwise. Returns
        (fault, completion_tick) and leaves the cache untouched until
        land_access applies the access, so a probe that runs before the
        completion tick still sees the pre-access state.
        """
        if not 0 <= page < self.region_pages:
            raise self._outside(page)
        p = self.params
        if page not in self._cache:
            # The fetch completes after disk_latency; the retried access then
            # needs the core back, which the yield released at +switch_cost.
            disk, switch = p.disk_latency, p.switch_cost
            resume = disk if disk > switch else switch
            return _HARD, start_tick + resume + p.mem_latency
        fault = _NONE if page in self._mapped[process] else _SOFT
        return fault, start_tick + p.mem_latency

    def land_access(self, process: str, page: int) -> None:
        """Apply the cache effect of a completed access: the page is cached
        and mapped for process. A hard fault, a soft fault and a hit all land
        this way, since loading a page moves no other page."""
        self._cache.add(page)
        self._mapped[process].add(page)

    # -- the receiver's two-thread slot ------------------------------------

    def run_spy_slot(self, pair: PagePair) -> tuple[ObservedOrder, list[AccessRecord]]:
        """Probe one pair with threads t1 -> p1 and t2 -> p2 on a single core.

        t1 accesses p1 at the current clock. A hard fault starts a fetch due
        disk_latency later and frees the core after switch_cost; a hit or
        soft fault finishes after mem_latency. t2 then accesses p2. Each
        thread that hard-faulted resumes, t1 before t2, once the core is free
        and its fetch is due, and finishes mem_latency later. Both pages end
        the slot cached and mapped for the spy.

        The order is AMBIGUOUS unless exactly one thread hard-faulted,
        because with zero or two hard faults completion order reflects start
        order, not residency. Returns the order and the two accesses.
        """
        p = self.params
        cache, spy = self._cache, self._mapped[SPY_PROCESS]
        p1, p2, _ = pair
        pages = self.region_pages
        if not (0 <= p1 < pages and 0 <= p2 < pages):
            raise self._outside(p2 if 0 <= p1 < pages else p1)
        if p1 == p2:
            raise ConfigError(f"a spy slot needs two pages, got page {p1} twice")
        start = self.clock
        hard1 = p1 not in cache
        if hard1:
            fault1 = _HARD
            t2_start = start + p.switch_cost
        else:
            fault1 = _NONE if p1 in spy else _SOFT
            t2_start = start + p.mem_latency
        hard2 = p2 not in cache
        if hard2:
            fault2 = _HARD
            core = t2_start + p.switch_cost
        else:
            fault2 = _NONE if p2 in spy else _SOFT
            core = t2_start + p.mem_latency
        if hard1:
            due = start + p.disk_latency
            core = (due if due > core else core) + p.mem_latency
        if hard2:
            due = t2_start + p.disk_latency
            core = (due if due > core else core) + p.mem_latency
        self.clock = core
        cache.add(p1)
        cache.add(p2)
        spy.add(p1)
        spy.add(p2)

        slot_trace = [
            _new_tuple(AccessRecord, (start, _T1, p1, fault1)),
            _new_tuple(AccessRecord, (t2_start, _T2, p2, fault2)),
        ]
        if hard1 == hard2:
            return _AMBIGUOUS, slot_trace
        # the one thread that hard-faulted resumes after its sibling is done
        return (_T1_LAST if hard1 else _T2_LAST), slot_trace


_BIT_OF_ORDER = {order: decode_from_order(order) for order in ObservedOrder}


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
    not the modeled work time. Only when trace_out is given are the modeled
    accesses kept; they are appended to it in tick order, regardless of the
    order in which the model applied them.
    """
    check_bits(payload)

    sim = CacheSchedSim(params, cfg.region_pages)
    spy_slot, evict = sim.run_spy_slot, sim.evict
    plan, land = sim.plan_access, sim.land_access
    period_ticks = max(1, cfg.sync_period_ns // params.tick_ns)
    guard_ticks = cfg.guard_ns // params.tick_ns
    always = params.eviction_behavior is EvictionBehavior.ALWAYS
    honored = len(payload) if always else cfg.slots_per_wrap  # slots with advice kept
    slot_tick = sender_free = 0
    decoded: list[int | None] = []
    append = decoded.append
    records: list[AccessRecord] | None = None if trace_out is None else []

    for k, bit in enumerate(payload):
        pair = page_pair_for_slot(cfg, k)
        p1, p2, _ = pair
        target = p2 if bit else p1
        sender_start = slot_tick if slot_tick > sender_free else sender_free
        # The probe starts at the clock, which nothing else in a slot moves.
        probe_tick = sim.clock = slot_tick + guard_ticks
        slot_tick += period_ticks

        if probe_tick < sender_start:
            order, spy_trace = spy_slot(pair)
        # Eviction advice and the touch go back to back at sender_start.
        if k < honored:
            evict((p1, p2))
        fault, sender_free = plan("trojan", target, sender_start)
        # The touch lands at sender_free; a probe mid-encode sees it missing.
        if sender_start <= probe_tick < sender_free:
            order, spy_trace = spy_slot(pair)
        land("trojan", target)
        if probe_tick >= sender_free:
            order, spy_trace = spy_slot(pair)
        append(_BIT_OF_ORDER[order])
        if records is not None:
            sent = AccessRecord(sender_start, "trojan", target, fault)
            early = probe_tick < sender_start
            records += [*spy_trace, sent] if early else [sent, *spy_trace]

    elapsed_ns = len(payload) * cfg.sync_period_ns
    report = TransmissionReport.build(payload, decoded, elapsed_ns)
    if records is not None:
        trace_out.extend(sorted(records, key=lambda rec: rec.tick))
    return report
