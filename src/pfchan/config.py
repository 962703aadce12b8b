"""Channel configuration shared by every backend.

All sizes are bytes, all times are nanoseconds, and pages are indices into
the shared region (region offset // page_size). A config is immutable and
validated on construction; anything invalid raises ConfigError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError

MIB = 1024 * 1024


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of one covert-channel deployment.

    Slot k probes pages k * page_gap and half a gap after it, so page_gap
    must leave P2 room: at least 2. guard_offset_ns may be left as None, in
    which case it resolves to half the sync period. The raw field keeps the
    None so that derived copies (for example a sweep that rewrites the bit
    rate) re-derive the guard instead of inheriting a stale one. Use
    guard_ns for the resolved value.
    """

    page_size: int = 4096
    region_size: int = 32 * MIB
    page_gap: int = 64
    sync_period_ns: int = 20_000_000
    guard_offset_ns: int | None = None
    payload_bits: int = 100

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {self.page_size}")
        if self.region_size <= 0 or self.region_size % self.page_size != 0:
            raise ConfigError(
                f"region_size must be a positive multiple of page_size "
                f"({self.page_size}), got {self.region_size}"
            )
        pages = self.region_size // self.page_size
        if not (2 <= self.page_gap <= pages):
            raise ConfigError(
                f"page_gap must lie in [2, {pages}] for this region, got {self.page_gap}"
            )
        if self.sync_period_ns <= 0:
            raise ConfigError(
                f"sync_period_ns must be positive, got {self.sync_period_ns}"
            )
        guard = self.guard_ns
        if self.guard_offset_ns is None and guard == 0:
            raise ConfigError(
                f"sync_period_ns ({self.sync_period_ns}) is too short for the "
                f"default half-period guard: it needs at least 2 ns"
            )
        if not (0 < guard < self.sync_period_ns):
            raise ConfigError(
                f"guard_offset_ns must lie strictly between 0 and the sync "
                f"period ({self.sync_period_ns}), got {guard}"
            )
        if self.payload_bits < 1:
            raise ConfigError(
                f"payload_bits must be at least 1, got {self.payload_bits}"
            )

    # Computed once per config: the slot path reads both for every slot.
    # cached_property stores into the instance __dict__ directly, which a
    # frozen dataclass allows.
    @cached_property
    def region_pages(self) -> int:
        return self.region_size // self.page_size

    @cached_property
    def pair_offset_pages(self) -> int:
        """Pages from P1 to P2: half a gap, at least 1."""
        return self.page_gap // 2

    @property
    def guard_ns(self) -> int:
        if self.guard_offset_ns is not None:
            return self.guard_offset_ns
        return self.sync_period_ns // 2

    @property
    def slots_per_wrap(self) -> int:
        """Slots before the schedule revisits the start of the region."""
        return max(1, self.region_pages // self.page_gap)
