"""Model checks: fault classification, eviction, scheduling, round trips.

The spy-slot timings below were worked out by hand from the rules (hard
fault: fetch lands after disk_latency, core yields after switch_cost;
otherwise the access completes after mem_latency and keeps the core) and
then frozen.
"""
from __future__ import annotations

import hashlib
import heapq
import pickle
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfchan import sim as sim_module
from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError
from pfchan.protocol import (
    FaultKind,
    ObservedOrder,
    PagePair,
    decode_from_order,
    encode_target,
    page_pair_for_slot,
)
from pfchan.report import random_payload
from pfchan.sim import (
    SPY_PROCESS,
    SPY_THREADS,
    AccessRecord,
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


def touch(sim, process, page):
    """One access run to completion at the sim's clock, the way
    run_channel_sim drives the sender: plan it, land it, advance the clock."""
    fault, completion = sim.plan_access(process, page, sim.clock)
    sim.land_access(process, page)
    sim.clock = completion
    return fault, completion


def test_params_validation():
    with pytest.raises(ConfigError):
        SimParams(disk_latency=1, mem_latency=1)
    with pytest.raises(ConfigError, match="mem_latency must be at least 1, got 0"):
        SimParams(mem_latency=0)
    with pytest.raises(ConfigError):
        SimParams(switch_cost=-1)
    with pytest.raises(ConfigError):
        SimParams(tick_ns=0)
    for setting, value in (
        ("disk_latency", 1000.0), ("mem_latency", True), ("switch_cost", 2.5),
        ("tick_ns", "3"),
    ):
        with pytest.raises(ConfigError, match=f"^{setting} must be an integer, got "):
            SimParams(**{setting: value})
    # run_channel_sim tests the member by identity: its value string, a typo
    # or None would otherwise run silently as first-wrap
    for behavior in ("always", "first-wrap", "alwyas", None):
        with pytest.raises(ConfigError, match="'always', 'first-wrap'"):
            SimParams(eviction_behavior=behavior)


def test_classify_access_cases():
    # plan_access and the tests' own fault rule agree on every case
    sim = make_sim()
    assert sim.plan_access("spy", 5, 0)[0] is FaultKind.HARD
    assert reference_fault(sim, "spy", 5) is FaultKind.HARD
    sim._cache.add(5)
    assert sim.plan_access("spy", 5, 0)[0] is FaultKind.SOFT
    assert reference_fault(sim, "spy", 5) is FaultKind.SOFT
    sim.land_access("spy", 5)
    assert sim.plan_access("spy", 5, 0)[0] is FaultKind.NONE
    assert reference_fault(sim, "spy", 5) is FaultKind.NONE
    with pytest.raises(ConfigError):
        sim.plan_access("spy", 4096, 0)


def test_evict_is_advisory_and_invalidates_mappings():
    sim = make_sim()
    sim.land_access("spy", 1)
    sim.land_access("spy", 2)
    assert 1 in sim._mapped["spy"]
    sim.evict([1, 7])  # 7 absent: ignored
    assert 1 not in sim._cache
    assert 2 in sim._cache
    assert 1 not in sim._mapped["spy"]
    assert 2 in sim._mapped["spy"]


def test_plan_access_rejects_a_page_outside_the_region():
    sim = make_sim()
    with pytest.raises(ConfigError, match="page -1 outside"):
        sim.plan_access("trojan", -1, 0)
    with pytest.raises(ConfigError, match=f"page {sim.region_pages} outside"):
        sim.plan_access("trojan", sim.region_pages, 0)


def test_touch_resident_keeps_core_and_costs_mem_latency():
    sim = make_sim()
    sim.land_access("trojan", 3)
    fault, completion = touch(sim, "trojan", 3)
    assert fault is FaultKind.NONE
    assert completion == 1  # mem_latency from tick 0


def test_touch_evicted_waits_for_disk():
    sim = make_sim()
    fault, completion = touch(sim, "trojan", 3)
    assert fault is FaultKind.HARD
    # fetch lands at 100, retry costs one mem_latency
    assert completion == 101
    assert 3 in sim._cache


# -- spy slot: frozen hand-traced timings ----------------------------------

def spy_slot(sim, p1=10, p2=20):
    return sim.run_spy_slot(PagePair(p1=p1, p2=p2, slot=0))


def test_spy_slot_rejects_a_page_outside_the_region():
    sim = make_sim()
    with pytest.raises(ConfigError, match="page -1 outside"):
        spy_slot(sim, p1=-1, p2=3)
    with pytest.raises(ConfigError, match=f"page {sim.region_pages} outside"):
        spy_slot(sim, p1=3, p2=sim.region_pages)


def test_spy_slot_rejects_a_pair_of_one_page():
    # page_pair_for_slot never builds one; a hand-built pair is a usage error
    with pytest.raises(ConfigError, match="got page 5 twice"):
        spy_slot(make_sim(), p1=5, p2=5)
    # nor can a region of one page hold a pair
    with pytest.raises(ConfigError, match="at least 2 pages, got 1"):
        CacheSchedSim(SimParams(), 1)


def test_spy_slot_p1_evicted_means_t1_last():
    sim = make_sim()
    sim.land_access("spy", 20)
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.T1_LAST
    assert [rec.fault for rec in trace] == [FaultKind.HARD, FaultKind.NONE]
    # t1 faults at 0 and yields; t2 starts at switch_cost and finishes at 11;
    # t1 resumes when the fetch lands at 100 and finishes at 101.
    assert [rec.tick for rec in trace] == [0, 10]
    assert sim.clock == 101


def test_spy_slot_p2_evicted_means_t2_last():
    sim = make_sim()
    sim.land_access("spy", 10)
    order, trace = spy_slot(sim)
    assert order is ObservedOrder.T2_LAST
    assert [rec.fault for rec in trace] == [FaultKind.NONE, FaultKind.HARD]
    # t1 finishes at 1, t2 faults at 1, fetch lands at 101, retry ends 102.
    assert [rec.tick for rec in trace] == [0, 1]
    assert sim.clock == 102


def test_spy_slot_soft_fault_never_yields():
    sim = make_sim()
    sim._cache.update((10, 20))  # resident but unmapped for the spy
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
    assert 10 in sim._cache
    assert 20 in sim._cache
    assert {10, 20} <= sim._mapped["spy"]


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
            sim._cache.add(page)
        elif state == "mapped":
            sim.land_access("spy", page)
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
    # ordering theorem: one evicted page plus the latency gap identifies it
    evicted = [s == "evicted" for s in (s1, s2)]
    if sum(evicted) == 1 and disk > mem + switch:
        expected = ObservedOrder.T1_LAST if evicted[0] else ObservedOrder.T2_LAST
        assert order is expected
    if sum(evicted) != 1:
        assert order is ObservedOrder.AMBIGUOUS


# -- reference scheduler ----------------------------------------------------

def reference_fault(sim, process, page):
    """The fault rule, written apart from the slot path: an uncached page
    takes a hard fault; a cached one is a plain hit when process maps it and
    a soft fault otherwise."""
    if page not in sim._cache:
        return FaultKind.HARD
    return FaultKind.NONE if page in sim._mapped.get(process, ()) else FaultKind.SOFT


def reference_spy_slot(sim, pair):
    """A general event-loop scheduler for the spy slot, kept as the oracle
    for CacheSchedSim.run_spy_slot.

    Threads arrive on a heap ordered by (tick, arrival), wait in a FIFO run
    queue for the core, and a hard fault re-arrives its thread when the fetch
    is due. Queued fetches land whenever the core picks a thread at or after
    their ready tick. A resumed access maps its page for the spy, like any
    completed access.
    """
    p = sim.params
    start = sim.clock
    arrivals = []  # (available_tick, arrival_seq, thread, page, is_retry)
    seq = 0
    for thread, page in zip(SPY_THREADS, (pair.p1, pair.p2)):
        heapq.heappush(arrivals, (start, seq, thread, page, False))
        seq += 1
    runq = deque()
    pending = []  # (ready_tick, page)
    core_free = start
    completions = {}
    hard_faulted = {t: False for t in SPY_THREADS}
    slot_trace = []

    def commit_fetches(up_to):
        remaining = []
        for ready, page in pending:
            if ready <= up_to:
                sim.land_access(SPY_PROCESS, page)
            else:
                remaining.append((ready, page))
        pending[:] = remaining

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
            sim.land_access(SPY_PROCESS, page)
            completions[thread] = core_free + p.mem_latency
            core_free = completions[thread]
            continue
        fault = reference_fault(sim, SPY_PROCESS, page)
        slot_trace.append(AccessRecord(core_free, thread, page, fault))
        if fault is FaultKind.HARD:
            hard_faulted[thread] = True
            wake = core_free + p.disk_latency
            pending.append((wake, page))
            heapq.heappush(arrivals, (wake, seq, thread, page, True))
            seq += 1
            core_free = core_free + p.switch_cost
        else:
            sim.land_access(SPY_PROCESS, page)
            completions[thread] = core_free + p.mem_latency
            core_free = completions[thread]

    commit_fetches(core_free)
    sim.clock = max(completions.values())
    if sum(hard_faulted.values()) != 1:
        return ObservedOrder.AMBIGUOUS, slot_trace
    if completions["t1"] > completions["t2"]:
        return ObservedOrder.T1_LAST, slot_trace
    return ObservedOrder.T2_LAST, slot_trace


def reference_channel_sim(cfg, params, payload):
    """The per-slot sequence run_channel_sim had before its hot path was
    inlined, kept as the oracle for whole transmissions.

    Each slot probes with reference_spy_slot before the sender starts, or
    while its access is in flight, or after it lands; eviction advice scans
    every mapping table; the sender's access is classified and landed
    through the model's primitives. Returns the decoded bits and the
    tick-ordered access trace.
    """
    p = params
    sim = CacheSchedSim(params, cfg.region_pages)
    period_ticks = max(1, cfg.sync_period_ns // p.tick_ns)
    guard_ticks = cfg.guard_ns // p.tick_ns
    always_honor = p.eviction_behavior is EvictionBehavior.ALWAYS
    sender_free = 0
    decoded, records = [], []

    def probe_at(tick, pair):
        sim.clock = tick
        order, slot_trace = reference_spy_slot(sim, pair)
        records.extend(slot_trace)
        return order

    for k, bit in enumerate(payload):
        pair = page_pair_for_slot(cfg, k)
        target = encode_target(bit, pair)
        sender_start = max(k * period_ticks, sender_free)
        probe_tick = k * period_ticks + guard_ticks
        order = None
        if probe_tick < sender_start:
            order = probe_at(probe_tick, pair)
        if always_honor or k < cfg.slots_per_wrap:
            for page in (pair.p1, pair.p2):
                sim._cache.discard(page)
                for table in sim._mapped.values():
                    table.discard(page)
        fault = reference_fault(sim, "trojan", target)
        encode_done = sender_start + p.mem_latency
        if fault is FaultKind.HARD:
            encode_done += max(p.disk_latency, p.switch_cost)
        records.append(AccessRecord(sender_start, "trojan", target, fault))
        if order is None and probe_tick < encode_done:
            order = probe_at(probe_tick, pair)
        sim.land_access("trojan", target)
        if order is None:
            order = probe_at(probe_tick, pair)
        sender_free = encode_done
        decoded.append(decode_from_order(order))
    return decoded, sorted(records, key=lambda rec: rec.tick)


ORACLE_PAGES = 12
oracle_page = st.integers(min_value=0, max_value=ORACLE_PAGES - 1)
pre_state_op = st.tuples(
    st.sampled_from(["mark", "mark-mapped", "evict", "touch"]), oracle_page
)


@st.composite
def oracle_params(draw):
    disk = draw(st.integers(min_value=2, max_value=40))
    mem = draw(st.integers(min_value=1, max_value=disk - 1))
    # negative offsets put switch_cost below disk_latency, the rest at or above
    offset = draw(st.integers(min_value=-40, max_value=40))
    return SimParams(
        disk_latency=disk, mem_latency=mem, switch_cost=max(0, disk + offset)
    )


def sim_from_ops(params, ops):
    sim = CacheSchedSim(params, ORACLE_PAGES)
    for op, page in ops:
        if op == "mark":
            sim._cache.add(page)
        elif op == "mark-mapped":
            sim.land_access(SPY_PROCESS, page)
        elif op == "evict":
            sim.evict([page])
        else:
            touch(sim, "trojan", page)
    return sim


@given(
    oracle_params(),
    st.lists(pre_state_op, max_size=12),
    st.lists(
        st.tuples(oracle_page, oracle_page).filter(lambda pp: pp[0] != pp[1]),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=600, deadline=None)
def test_run_spy_slot_matches_the_reference_scheduler(params, ops, pairs):
    sim, ref = sim_from_ops(params, ops), sim_from_ops(params, ops)
    for slot, (p1, p2) in enumerate(pairs):
        pair = PagePair(p1=p1, p2=p2, slot=slot)
        assert sim.run_spy_slot(pair) == reference_spy_slot(ref, pair)
        assert sim.clock == ref.clock
        assert sim._cache == ref._cache
        assert sim._mapped == ref._mapped


@st.composite
def small_region_runs(draw):
    disk = draw(st.integers(min_value=2, max_value=60))
    params = SimParams(
        disk_latency=disk,
        mem_latency=draw(st.integers(min_value=1, max_value=disk - 1)),
        switch_cost=draw(st.integers(min_value=0, max_value=80)),
        tick_ns=draw(st.integers(min_value=1, max_value=4)),
        eviction_behavior=draw(st.sampled_from(EvictionBehavior)),
    )
    pages = draw(st.integers(min_value=4, max_value=32))
    cfg = ChannelConfig(
        region_size=pages * 4096,
        page_gap=draw(st.integers(min_value=2, max_value=pages)),
        sync_period_ns=draw(st.integers(min_value=2, max_value=400)),
    )
    return cfg, params


@given(small_region_runs(), st.lists(st.integers(0, 1), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_run_channel_sim_matches_the_reference_slot_sequence(run, payload):
    cfg, params = run
    trace = []
    report = run_channel_sim(cfg, params, payload, trace_out=trace)
    decoded, ref_trace = reference_channel_sim(cfg, params, payload)
    assert report.decoded == decoded
    assert render_trace(trace) == render_trace(ref_trace)


def test_every_slot_goes_through_the_probe_and_sender_hooks(monkeypatch):
    # perfbench counts the golden run's faults by patching these two methods
    # on the class, and times the pair through the module's global; name the
    # hook a slot path bypasses, not just a count.
    calls = {"run_spy_slot": 0, "plan_access": 0, "page_pair_for_slot": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in ("run_spy_slot", "plan_access"):
        monkeypatch.setattr(
            CacheSchedSim, name, counted(name, getattr(CacheSchedSim, name))
        )
    monkeypatch.setattr(
        sim_module,
        "page_pair_for_slot",
        counted("page_pair_for_slot", sim_module.page_pair_for_slot),
    )
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    run_channel_sim(cfg, ideal_params(), random_payload(13, 100))
    assert calls == {"run_spy_slot": 100, "plan_access": 100, "page_pair_for_slot": 100}


def test_slot_path_reads_no_enum_class_attribute():
    # Before CPython 3.12 each FaultKind.X or ObservedOrder.X lookup runs
    # EnumType.__getattr__; the slot path reads module-level members instead.
    for function in (CacheSchedSim.run_spy_slot, CacheSchedSim.plan_access):
        names = function.__code__.co_names
        assert "FaultKind" not in names and "ObservedOrder" not in names, function


def test_slot_path_builds_its_tuples_without_the_namedtuple_constructor(monkeypatch):
    # NamedTuple's generated __new__ is a Python-level frame; the untraced
    # slot path builds PagePair and AccessRecord through tuple.__new__, and
    # the hooks must still see the named types, not plain tuples.
    calls = {"PagePair": 0, "AccessRecord": 0}

    def counted(name, new):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return new(*args, **kwargs)
        return staticmethod(wrapper)

    for cls in (PagePair, AccessRecord):
        monkeypatch.setattr(cls, "__new__", counted(cls.__name__, cls.__new__))
    seen = []
    spy_slot = CacheSchedSim.run_spy_slot

    def watched(self, pair):
        order, slot_trace = spy_slot(self, pair)
        seen.append((pair, slot_trace))
        return order, slot_trace

    monkeypatch.setattr(CacheSchedSim, "run_spy_slot", watched)
    cfg = ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000)
    run_channel_sim(cfg, ideal_params(), random_payload(13, 100))
    assert calls == {"PagePair": 0, "AccessRecord": 0}
    assert len(seen) == 100
    for k, (pair, slot_trace) in enumerate(seen):
        assert type(pair) is PagePair
        assert (pair.p1, pair.p2, pair.slot) == page_pair_for_slot(cfg, k)
        assert [type(rec) for rec in slot_trace] == [AccessRecord, AccessRecord]
        assert [(rec.thread, rec.page) for rec in slot_trace] == [
            ("t1", pair.p1), ("t2", pair.p2)
        ]
        assert all(isinstance(rec.fault, FaultKind) for rec in slot_trace)
        assert slot_trace[0].tick <= slot_trace[1].tick


def test_observed_order_survives_pickling_as_the_same_member():
    # ObservedOrder hashes by identity, so a copy that was not the member
    # itself would miss the decode table
    for order in ObservedOrder:
        copy = pickle.loads(pickle.dumps(order))
        assert copy is order
        assert sim_module._BIT_OF_ORDER[copy] == decode_from_order(order)


def assert_only_cached_pages_are_mapped(sim):
    for process, table in sim._mapped.items():
        assert table <= sim._cache, process


model_op = st.one_of(
    st.tuples(st.just("touch"), st.sampled_from(["trojan", "spy"]), oracle_page),
    st.tuples(st.just("evict"), oracle_page),
    st.tuples(st.just("slot"), oracle_page, oracle_page).filter(
        lambda op: op[1] != op[2]
    ),
)


@given(oracle_params(), st.lists(model_op, min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_every_mapped_page_is_cached(params, ops):
    sim = CacheSchedSim(params, ORACLE_PAGES)
    for slot, op in enumerate(ops):
        if op[0] == "touch":
            touch(sim, op[1], op[2])
        elif op[0] == "evict":
            sim.evict([op[1]])
        else:
            sim.run_spy_slot(PagePair(p1=op[1], p2=op[2], slot=slot))
        assert_only_cached_pages_are_mapped(sim)


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
    assert report.decoded == payload
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
    assert report.decoded == payload[:4] + [None] * 4
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


# The trace_out export, frozen as SHA-256 of render_trace: the golden sweep
# CSV pins decoded bits only, so these pin every access's tick and fault.
TRACE_CASES = {
    "ideal": (
        ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000),
        ideal_params(),
        random_payload(3, 32),
        "0990749b7ab0bc97836e8bd3cbf5d2b4f5eb5ce5242e3d9cd5071174f43a52de",
    ),
    "first-wrap-16-pages": (
        ChannelConfig(region_size=16 * 4096, page_gap=4, sync_period_ns=10_000_000),
        ideal_params(eviction_behavior=EvictionBehavior.FIRST_WRAP),
        random_payload(5, 24),
        "ffa062dc4a90d3f49d9f20cebc3f8a6b66a8229f288d9739b76e5a65833a5d0a",
    ),
    "tick-overrun": (
        ChannelConfig(region_size=MIB, page_gap=16, sync_period_ns=10_000_000),
        ideal_params(tick_ns=100_000),
        random_payload(7, 16),
        "248662e5231d95c477b1068e4a0cfab9b0a589e6591cb574411c976bbebcf257",
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_out_is_frozen(case):
    cfg, params, payload, digest = TRACE_CASES[case]
    trace = []
    run_channel_sim(cfg, params, payload, trace_out=trace)
    assert len(trace) == 3 * len(payload)
    assert hashlib.sha256(render_trace(trace).encode()).hexdigest() == digest
