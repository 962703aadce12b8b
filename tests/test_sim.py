"""Model checks: fault classification, LRU bounds, scheduling, round trips.

The spy-slot timings below were worked out by hand from the rules (hard
fault: fetch lands after disk_latency, core yields after switch_cost;
otherwise the access completes after mem_latency and keeps the core) and
then frozen.
"""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError
from pfchan.protocol import FaultKind, ObservedOrder, PagePair, Residency
from pfchan.report import random_payload
from pfchan.sim import (
    CacheSchedSim,
    EvictionBehavior,
    SimParams,
    render_trace,
    run_channel_sim,
)

MIB = 1024 * 1024


def make_sim(region_pages=1024, **kw) -> CacheSchedSim:
    defaults = dict(disk_latency=100, mem_latency=1, switch_cost=10)
    defaults.update(kw)
    return CacheSchedSim(SimParams(**defaults), region_pages)


def test_params_validation():
    with pytest.raises(ConfigError):
        SimParams(cache_capacity=1)
    with pytest.raises(ConfigError):
        SimParams(disk_latency=1, mem_latency=1)
    with pytest.raises(ConfigError):
        SimParams(switch_cost=-1)
    with pytest.raises(ConfigError):
        SimParams(readahead=0)
    with pytest.raises(ConfigError):
        SimParams(tick_ns=0)


def test_classify_access_cases():
    sim = make_sim()
    assert sim.classify_access(5, mapped=False) is FaultKind.HARD
    sim.mark_resident([5])
    assert sim.classify_access(5, mapped=False) is FaultKind.SOFT
    assert sim.classify_access(5, mapped=True) is FaultKind.NONE
    with pytest.raises(ConfigError):
        sim.classify_access(4096, mapped=False)


def test_evict_is_advisory_and_invalidates_mappings():
    sim = make_sim()
    sim.mark_resident([1, 2], process="spy")
    assert sim.is_mapped("spy", 1)
    sim.evict([1, 7])  # 7 absent: ignored
    assert sim.residency(1) is Residency.EVICTED
    assert sim.residency(2) is Residency.RESIDENT
    assert not sim.is_mapped("spy", 1)
    assert sim.is_mapped("spy", 2)


def test_touch_resident_keeps_core_and_costs_mem_latency():
    sim = make_sim()
    sim.mark_resident([3], process="trojan")
    fault, completion = sim.touch("trojan", 3)
    assert fault is FaultKind.NONE
    assert completion == 1  # mem_latency from tick 0


def test_touch_evicted_waits_for_disk():
    sim = make_sim()
    fault, completion = sim.touch("trojan", 3)
    assert fault is FaultKind.HARD
    # fetch lands at 100, retry costs one mem_latency
    assert completion == 101
    assert sim.residency(3) is Residency.RESIDENT


def test_lru_capacity_and_eviction_order():
    sim = make_sim(cache_capacity=2)
    sim.mark_resident([1])
    sim.mark_resident([2])
    sim.mark_resident([1])  # refresh recency of 1
    sim.mark_resident([3])  # capacity eviction hits 2
    assert sim.resident_pages() == {1, 3}


def test_capacity_eviction_invalidates_mappings():
    sim = make_sim(cache_capacity=2)
    sim.mark_resident([1], process="spy")
    sim.mark_resident([2])
    sim.mark_resident([3])
    assert not sim.is_mapped("spy", 1)


def test_readahead_pulls_following_pages():
    sim = make_sim(readahead=4)
    sim.touch("trojan", 10)
    assert {10, 11, 12, 13} <= sim.resident_pages()
    # clamped at the region end
    sim2 = make_sim(readahead=4, region_pages=16)
    sim2.touch("trojan", 14)
    assert sim2.resident_pages() == {14, 15}


# -- spy slot: frozen hand-traced timings ----------------------------------

def spy_slot(sim, p1=10, p2=20):
    return sim.run_spy_slot(PagePair(p1=p1, p2=p2, slot=0))


def test_spy_slot_p1_evicted_means_t1_last():
    sim = make_sim()
    sim.mark_resident([20], process="spy")
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.T1_LAST
    assert [rec.fault for rec in trace] == [FaultKind.HARD, FaultKind.NONE]
    # t1 faults at 0 and yields; t2 starts at switch_cost and finishes at 11;
    # t1 resumes when the fetch lands at 100 and finishes at 101.
    assert [rec.tick for rec in trace] == [0, 10]
    assert sim.clock == 101


def test_spy_slot_p2_evicted_means_t2_last():
    sim = make_sim()
    sim.mark_resident([10], process="spy")
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.T2_LAST
    assert [rec.fault for rec in trace] == [FaultKind.NONE, FaultKind.HARD]
    # t1 finishes at 1, t2 faults at 1, fetch lands at 101, retry ends 102.
    assert [rec.tick for rec in trace] == [0, 1]
    assert sim.clock == 102


def test_spy_slot_soft_fault_never_yields():
    sim = make_sim()
    sim.mark_resident([10, 20])  # resident but unmapped for the spy
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.AMBIGUOUS
    assert [rec.fault for rec in trace] == [FaultKind.SOFT, FaultKind.SOFT]
    # no yield: t2 starts right after t1 completes
    assert [rec.tick for rec in trace] == [0, 1]


def test_spy_slot_both_evicted_ambiguous():
    sim = make_sim()
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.AMBIGUOUS
    assert [rec.fault for rec in trace] == [FaultKind.HARD, FaultKind.HARD]
    # t1 faults at 0, t2 gets the core at 10 and faults too
    assert [rec.tick for rec in trace] == [0, 10]
    # after the slot both pages are cached and mapped by the spy
    assert sim.residency(10) is Residency.RESIDENT
    assert sim.residency(20) is Residency.RESIDENT
    assert sim.is_mapped("spy", 10) and sim.is_mapped("spy", 20)


def test_sender_readahead_can_erase_the_signal():
    # With the pair adjacent and readahead spanning it, the sender's touch
    # of p1 drags p2 into the cache, so by the time the probe arrives both
    # reads miss the disk and the order says nothing. This is why the
    # default pair offset keeps the pages half a gap apart.
    sim = make_sim(readahead=2)
    sim.touch("trojan", 10)  # encode a 0: touch p1 only
    order, trace = sim.run_spy_slot(PagePair(p1=10, p2=11, slot=0))
    assert [rec.fault for rec in trace] == [FaultKind.SOFT, FaultKind.SOFT]
    assert order is ObservedOrder.AMBIGUOUS
    sim2 = make_sim(readahead=1)
    sim2.touch("trojan", 10)
    order2, trace2 = sim2.run_spy_slot(PagePair(p1=10, p2=11, slot=0))
    assert [rec.fault for rec in trace2] == [FaultKind.SOFT, FaultKind.HARD]
    assert order2 is ObservedOrder.T2_LAST


residency_state = st.sampled_from(["evicted", "cached", "mapped"])


@given(
    residency_state,
    residency_state,
    st.integers(min_value=2, max_value=2000),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=300)
def test_hard_faults_yield_and_soft_faults_do_not(s1, s2, disk, mem, switch):
    if disk <= mem:
        disk = mem + 1
    sim = CacheSchedSim(
        SimParams(disk_latency=disk, mem_latency=mem, switch_cost=switch), 64
    )
    for state, page in ((s1, 10), (s2, 20)):
        if state == "cached":
            sim.mark_resident([page])
        elif state == "mapped":
            sim.mark_resident([page], process="spy")
    order, trace = spy_slot(sim)
    assert len(trace) == 2
    first, second = trace
    assert first.thread == "t1" and second.thread == "t2"
    assert first.tick == 0
    if first.fault is FaultKind.HARD:
        # yield: the sibling runs after the context switch charge
        assert second.tick == switch
    else:
        # no yield on soft faults or hits: sibling waits for completion
        assert second.tick == mem
    # capacity is never exceeded
    assert len(sim.resident_pages()) <= sim.params.cache_capacity
    # ordering theorem: one evicted page plus the latency gap identifies it
    evicted = [s == "evicted" for s in (s1, s2)]
    if sum(evicted) == 1 and disk > mem + switch:
        expected = ObservedOrder.T1_LAST if evicted[0] else ObservedOrder.T2_LAST
        assert order is expected
    if sum(evicted) != 1:
        assert order is ObservedOrder.AMBIGUOUS


# -- whole transmissions ----------------------------------------------------

def ideal_params(**kw) -> SimParams:
    base = dict(disk_latency=1000, mem_latency=1, switch_cost=10)
    base.update(kw)
    return SimParams(**base)


def test_round_trip_small_payload():
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    payload = random_payload(7, 64)
    report = run_channel_sim(cfg, ideal_params(), payload)
    assert report.ber == 0.0
    assert report.received == payload
    assert [rec.decoded for rec in report.per_slot] == payload
    assert report.elapsed_ns == 64 * cfg.sync_period_ns


def test_sim_bandwidth_uses_nominal_slot_time():
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=1_000_000)
    report = run_channel_sim(cfg, ideal_params(), [1, 0, 1, 1])
    assert report.bandwidth_bps == 4 * 1_000_000_000 / (4 * 1_000_000)


def test_sender_touches_one_page_receiver_two():
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    payload = random_payload(3, 32)
    trace = []
    run_channel_sim(cfg, ideal_params(), payload, trace_out=trace)
    trojan = [rec for rec in trace if rec.thread == "trojan"]
    spy = [rec for rec in trace if rec.thread in ("t1", "t2")]
    assert len(trojan) == len(payload)
    assert len(spy) == 2 * len(payload)


def test_run_channel_sim_deterministic():
    cfg = ChannelConfig(region_size=2 * MIB, page_gap=32, sync_period_ns=5_000_000)
    payload = random_payload(11, 128)
    t1, t2 = [], []
    r1 = run_channel_sim(cfg, ideal_params(), payload, trace_out=t1)
    r2 = run_channel_sim(cfg, ideal_params(), payload, trace_out=t2)
    assert r1 == r2
    assert t1 == t2


def test_wrap_retention_breaks_late_slots():
    # 16-page region, stride 4: the schedule wraps after 4 slots. Once the
    # modeled kernel stops honoring advice, revisited pages stay cached and
    # those slots decode to nothing.
    cfg = ChannelConfig(
        region_size=16 * 4096, page_gap=4, sync_period_ns=10_000_000
    )
    payload = [1, 0, 1, 0, 1, 0, 1, 0]
    report = run_channel_sim(
        cfg,
        ideal_params(eviction_behavior=EvictionBehavior.FIRST_WRAP),
        payload,
    )
    for rec in report.per_slot[:4]:
        assert rec.decoded == payload[rec.slot]
    for rec in report.per_slot[4:]:
        assert rec.decoded is None
    assert report.ber == 0.5
    assert report.indeterminate_slots == 4


def test_overrun_probe_sees_unencoded_state():
    # Guard of half a period gives the sender 5 ms of modeled time; with
    # tick_ns high enough the encode cannot finish and every probe fires
    # early, so nothing decodes.
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    params = ideal_params(tick_ns=100_000)  # encode needs 1001 ticks = 100.1 ms
    payload = [1, 0, 1, 1]
    report = run_channel_sim(cfg, params, payload)
    assert report.indeterminate_slots == len(payload)
    assert report.ber == 1.0


def test_trace_render_format_and_order():
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    trace = []
    run_channel_sim(cfg, ideal_params(), [1, 0], trace_out=trace)
    text = render_trace(trace)
    lines = text.splitlines()
    assert len(lines) == 6  # 1 sender + 2 receiver accesses per slot
    pattern = re.compile(r"^\d+,(trojan|t1|t2),\d+,(none|soft|hard)$")
    for line in lines:
        assert pattern.match(line), line
    ticks = [int(line.split(",")[0]) for line in lines]
    assert ticks == sorted(ticks)


def test_run_channel_sim_rejects_bad_payload():
    cfg = ChannelConfig(region_size=MIB, page_gap=16)
    with pytest.raises(ConfigError):
        run_channel_sim(cfg, ideal_params(), [])
    with pytest.raises(ConfigError):
        run_channel_sim(cfg, ideal_params(), [0, 2])
