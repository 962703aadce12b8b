"""Schedule, codec, and timing checks for the protocol core.

The schedule tests compare the closed-form pair computation against an
iterative oracle that advances page by page and wraps explicitly, so the
two code paths share no arithmetic.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError
from pfchan.protocol import (
    ObservedOrder,
    PagePair,
    check_bits,
    decode_from_order,
    encode_target,
    page_pair_for_slot,
    slot_deadline,
)

MIB = 1024 * 1024


def make_cfg(**kw) -> ChannelConfig:
    base = dict(region_size=32 * MIB, page_gap=128)
    base.update(kw)
    return ChannelConfig(**base)


def iterative_pair_oracle(cfg: ChannelConfig, k: int) -> tuple[int, int]:
    """Walk the schedule one stride at a time with explicit wraparound."""
    pages = cfg.region_pages
    p1 = 0
    for _ in range(k):
        p1 += cfg.page_gap
        if p1 >= pages:
            p1 -= pages * (p1 // pages)
    p2 = p1 + cfg.pair_offset_pages
    if p2 >= pages:
        p2 -= pages
    return p1, p2


def test_first_slot_pair():
    cfg = make_cfg()
    pair = page_pair_for_slot(cfg, 0)
    assert (pair.p1, pair.p2) == (0, 64)
    assert pair.slot == 0
    with pytest.raises(ConfigError, match="non-negative, got -1"):
        page_pair_for_slot(cfg, -1)


def test_slot_two_pair_matches_oracle():
    cfg = make_cfg()
    pair = page_pair_for_slot(cfg, 2)
    assert (pair.p1, pair.p2) == (256, 320)
    assert (pair.p1, pair.p2) == iterative_pair_oracle(cfg, 2)


def test_wraparound_pair_matches_oracle():
    # 64 strides of 128 pages cover the 8192-page region exactly once.
    cfg = make_cfg()
    pair = page_pair_for_slot(cfg, 64)
    assert (pair.p1, pair.p2) == (0, 64)
    assert (pair.p1, pair.p2) == iterative_pair_oracle(cfg, 64)


def test_schedule_against_iterative_oracle_sampled():
    # an odd gap that does not divide the 8192-page region
    cfg = make_cfg(page_gap=97)
    for k in (0, 1, 7, 84, 85, 1000, 4096):
        pair = page_pair_for_slot(cfg, k)
        assert (pair.p1, pair.p2) == iterative_pair_oracle(cfg, k)


def test_page_pair_is_an_immutable_tuple():
    pair = page_pair_for_slot(make_cfg(), 2)
    with pytest.raises(AttributeError):
        pair.p1 = 0
    assert (pair.p1, pair.p2) == (256, 320)
    assert pair == (256, 320, 2)
    assert repr(PagePair(p1=2, p2=3, slot=0)) == "PagePair(p1=2, p2=3, slot=0)"


def test_encode_target_picks_pair_side():
    pair = PagePair(p1=0, p2=64, slot=0)
    assert encode_target(1, pair) == 64
    assert encode_target(0, pair) == 0
    other = PagePair(p1=256, p2=320, slot=2)
    assert encode_target(1, other) == 320


def test_check_bits_rejects_non_bits():
    # the one bit test: encode_target takes a bit that has passed it
    for payload in ([2], [0, 1, -1], [1, "1"], [0, None]):
        with pytest.raises(ConfigError, match="payload must contain only bits"):
            check_bits(payload)
    check_bits([0, 1, 1, 0])
    check_bits([])


def test_decode_mapping():
    assert decode_from_order(ObservedOrder.T1_LAST) == 1
    assert decode_from_order(ObservedOrder.T2_LAST) == 0
    assert decode_from_order(ObservedOrder.AMBIGUOUS) is None


def test_deadlines_from_summation_oracle():
    cfg = make_cfg(sync_period_ns=10_000_000)  # probes half a period in
    epoch = 1_700_000_000_000_000_000
    assert slot_deadline(cfg, epoch, 0, "sender") == epoch
    assert slot_deadline(cfg, epoch, 3, "receiver") == epoch + 35_000_000
    assert slot_deadline(cfg, epoch, 1, "receiver") - slot_deadline(
        cfg, epoch, 1, "sender"
    ) == 5_000_000
    # Oracle: add the period k times instead of multiplying.
    acc = epoch
    for _ in range(3):
        acc += cfg.sync_period_ns
    assert slot_deadline(cfg, epoch, 3, "sender") == acc


def test_deadline_rejects_unknown_role():
    cfg = make_cfg()
    with pytest.raises(ConfigError):
        slot_deadline(cfg, 0, 0, "observer")


# --- configuration invariants -------------------------------------------

def test_config_defaults_derive_offsets():
    cfg = ChannelConfig(region_size=32 * MIB, page_gap=64, sync_period_ns=20_000_000)
    assert cfg.pair_offset_pages == 32
    assert cfg.guard_ns == 10_000_000
    assert cfg.region_pages == 8192


def test_config_rejects_unaligned_region():
    with pytest.raises(ConfigError):
        ChannelConfig(region_size=4096 * 3 + 1)


def test_config_rejects_a_gap_that_leaves_p2_no_room():
    # P2 sits page_gap // 2 after P1, which is P1 itself for a gap of 1
    with pytest.raises(ConfigError, match="page_gap"):
        ChannelConfig(page_gap=1)
    assert ChannelConfig(page_gap=2).pair_offset_pages == 1


def test_config_names_a_region_too_small_for_a_pair():
    # one page once failed naming page_gap and the empty range [2, 1]
    with pytest.raises(ConfigError) as raised:
        ChannelConfig(region_size=4096, page_gap=2)
    assert str(raised.value) == (
        "region_size must be at least 8192 bytes, two pages for a page pair, got 4096"
    )
    assert ChannelConfig(region_size=8192, page_gap=2).region_pages == 2


def test_config_rejects_gap_beyond_region():
    with pytest.raises(ConfigError):
        ChannelConfig(region_size=1 * MIB, page_gap=512)  # 256 pages only


def test_config_rejects_bad_guard():
    with pytest.raises(ConfigError):
        ChannelConfig(sync_period_ns=0)
    with pytest.raises(ConfigError, match="payload_bits must be at least 1, got 0"):
        ChannelConfig(payload_bits=0)
    # the half-period guard of a 1 ns period is 0, so the probe would run
    # at the sender's deadline
    with pytest.raises(ConfigError, match=r"sync_period_ns \(1\) is too short"):
        ChannelConfig(sync_period_ns=1)
    assert ChannelConfig(sync_period_ns=2).guard_ns == 1


# --- quantified schedule properties --------------------------------------

config_strategy = st.tuples(
    st.integers(min_value=2, max_value=256),
    st.integers(min_value=1, max_value=64),
)


@given(config_strategy)
@settings(max_examples=200)
def test_pairs_stay_in_bounds_and_distinct(args):
    gap, wraps_hint = args
    region_pages = gap * wraps_hint
    cfg = ChannelConfig(region_size=region_pages * 4096, page_gap=gap)
    for k in range(0, 3 * region_pages // gap + 2):
        pair = page_pair_for_slot(cfg, k)
        assert 0 <= pair.p1 < region_pages
        assert 0 <= pair.p2 < region_pages
        assert pair.p1 != pair.p2


@given(config_strategy)
@settings(max_examples=200)
def test_pairs_disjoint_within_one_wrap(args):
    # Holds when the stride divides the region evenly, which the standard
    # configurations guarantee.
    gap, wraps_hint = args
    region_pages = gap * wraps_hint
    cfg = ChannelConfig(region_size=region_pages * 4096, page_gap=gap)
    seen: set[int] = set()
    for k in range(region_pages // gap):
        pair = page_pair_for_slot(cfg, k)
        assert pair.p1 not in seen
        assert pair.p2 not in seen
        seen.update((pair.p1, pair.p2))


@given(config_strategy)
@settings(max_examples=100)
def test_schedule_periodicity(args):
    gap, wraps_hint = args
    region_pages = gap * wraps_hint
    cfg = ChannelConfig(region_size=region_pages * 4096, page_gap=gap)
    period = region_pages // math.gcd(region_pages, gap)
    for k in (0, 1, 5):
        a = page_pair_for_slot(cfg, k)
        b = page_pair_for_slot(cfg, k + period)
        assert (a.p1, a.p2) == (b.p1, b.p2)


@given(
    st.integers(min_value=2, max_value=10**9),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=100)
def test_deadlines_strictly_increase(period, k):
    cfg = ChannelConfig(sync_period_ns=period, page_gap=64)
    epoch = 10**18
    assert slot_deadline(cfg, epoch, k + 1, "sender") > slot_deadline(
        cfg, epoch, k, "sender"
    )
    assert slot_deadline(cfg, epoch, k + 1, "receiver") > slot_deadline(
        cfg, epoch, k, "receiver"
    )
