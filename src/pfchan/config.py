"""Channel configuration shared by every backend.

All sizes are bytes, all times are nanoseconds, and pages are indices into
the shared region (region offset // PAGE_SIZE). A config is immutable and
validated on construction; anything invalid raises ConfigError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError

MIB = 1024 * 1024
# One page per access, on every backend. A constant rather than the host's
# size, so simulator results do not depend on the host; the live backend
# refuses a host whose pages differ.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of one covert-channel deployment.

    Slot k probes pages k * page_gap and half a gap after it, so page_gap
    must leave P2 room: at least 2. The receiver probes half a period into
    each slot (guard_ns), so the period must be at least 2 ns.
    """

    region_size: int = 32 * MIB
    page_gap: int = 64
    sync_period_ns: int = 20_000_000
    payload_bits: int = 100

    def __post_init__(self) -> None:
        if self.region_size <= 0 or self.region_size % PAGE_SIZE != 0:
            raise ConfigError(
                f"region_size must be a positive multiple of the page size "
                f"({PAGE_SIZE}), got {self.region_size}"
            )
        pages = self.region_size // PAGE_SIZE
        if not (2 <= self.page_gap <= pages):
            raise ConfigError(
                f"page_gap must lie in [2, {pages}] for this region, got {self.page_gap}"
            )
        if self.sync_period_ns < 2:
            raise ConfigError(
                f"sync_period_ns ({self.sync_period_ns}) is too short for the "
                f"half-period guard: it needs at least 2 ns"
            )
        if self.payload_bits < 1:
            raise ConfigError(
                f"payload_bits must be at least 1, got {self.payload_bits}"
            )

    # Computed once per config: the slot paths read these for every slot.
    # cached_property stores into the instance __dict__ directly, which a
    # frozen dataclass allows.
    @cached_property
    def region_pages(self) -> int:
        return self.region_size // PAGE_SIZE

    @cached_property
    def pair_offset_pages(self) -> int:
        """Pages from P1 to P2: half a gap, at least 1."""
        return self.page_gap // 2

    @cached_property
    def guard_ns(self) -> int:
        """Receiver lag after the sender's deadline: half a period."""
        return self.sync_period_ns // 2

    @property
    def slots_per_wrap(self) -> int:
        """Slots before the schedule revisits the start of the region."""
        return max(1, self.region_pages // self.page_gap)
