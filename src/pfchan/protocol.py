"""Backend-independent channel protocol.

One bit travels per time slot. For slot k the endpoints agree on a pair of
pages (P1, P2) inside the shared region. The sender evicts both pages and
then touches exactly one of them, leaving the other on disk. The receiver
reads both pages from two threads pinned to one core; the thread whose page
has to come from disk takes a hard fault, loses the core, and therefore
finishes last. Completion order alone carries the bit, so both sides only
need these schedule and codec rules plus a shared epoch.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .config import ChannelConfig
from .errors import ConfigError


class FaultKind(Enum):
    """Outcome of touching one page.

    NONE: cached and mapped, plain load. SOFT: cached but not mapped by the
    accessing process, mapping update only. HARD: not cached, needs a disk
    fetch and suspends the accessor.
    """

    NONE = "none"
    SOFT = "soft"
    HARD = "hard"


class ObservedOrder(Enum):
    """Which receiver thread finished last in a slot.

    AMBIGUOUS is reported when completion order cannot identify an evicted
    page, which happens exactly when neither thread hard-faulted or both did.
    """

    T1_LAST = "t1-last"
    T2_LAST = "t2-last"
    AMBIGUOUS = "ambiguous"

    # Members are singletons and Enum compares them by identity, so the
    # identity hash agrees with equality and spares the simulator's decode
    # table a Python-level Enum.__hash__ call per slot.
    __hash__ = object.__hash__


class PagePair(NamedTuple):
    """The two page indices probed during one slot. page_pair_for_slot keeps
    them distinct and inside the region; the backends reject any other page.

    A pair is a tuple, so it also compares equal to the plain (p1, p2, slot).
    """

    p1: int
    p2: int
    slot: int


# NamedTuple generates a Python-level __new__; building through the C tuple
# constructor gives the same PagePair (type, fields, repr, equality) without
# that extra interpreter frame on every slot.
_new_tuple = tuple.__new__


def page_pair_for_slot(cfg: ChannelConfig, k: int) -> PagePair:
    """Pair for slot k: P1 is k page gaps from page 0, wrapping at the
    region end, and P2 sits half a gap after P1 (also wrapping).

    Wrapping keeps long payloads inside the region at the cost of revisiting
    pages once k exceeds region_pages / page_gap.
    """
    if k < 0:
        raise ConfigError(f"slot index must be non-negative, got {k}")
    pages = cfg.region_pages
    p1 = k * cfg.page_gap % pages
    p2 = (p1 + cfg.pair_offset_pages) % pages
    return _new_tuple(PagePair, (p1, p2, k))


def encode_target(bit: int, pair: PagePair) -> int:
    """Page the sender must touch: P2 for a 1, P1 for a 0.

    The touched page becomes resident, so the complementary page is the one
    left on disk for the receiver to trip over. The bit is one check_bits
    has passed; it is not tested again here, once per slot.
    """
    return pair.p2 if bit == 1 else pair.p1


def check_bits(payload: list[int]) -> None:
    """Refuse, before any slot, a payload of anything but 0 and 1; [] passes."""
    for bit in payload:
        if bit not in (0, 1):
            raise ConfigError(f"payload must contain only bits, got {bit!r}")


def decode_from_order(order: ObservedOrder) -> int | None:
    """Bit recovered from completion order, or None when undecodable.

    t1 reads P1. If t1 finished last then P1 was the evicted page, so the
    sender touched P2, which encodes a 1. T2_LAST is the mirror image.
    None marks an indeterminate slot; reports count it as a bit error.
    """
    if order is ObservedOrder.T1_LAST:
        return 1
    if order is ObservedOrder.T2_LAST:
        return 0
    return None


def slot_deadline(cfg: ChannelConfig, epoch_ns: int, k: int, role: str) -> int:
    """Absolute wall-clock instant at which the given side acts in slot k.

    The sender fires at epoch + k periods; the receiver probes guard_ns,
    half a period, later so the eviction and touch have settled.
    """
    if role == "sender":
        return epoch_ns + k * cfg.sync_period_ns
    if role == "receiver":
        return epoch_ns + k * cfg.sync_period_ns + cfg.guard_ns
    raise ConfigError(f"role must be 'sender' or 'receiver', got {role!r}")
