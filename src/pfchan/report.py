"""Payload handling and per-transmission reporting."""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError


def random_payload(seed: int, n_bits: int) -> list[int]:
    """Deterministic pseudo-random bit vector; experiments replay from the seed."""
    if n_bits < 1:
        raise ConfigError(f"n_bits must be at least 1, got {n_bits}")
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n_bits)]


def bits_from_string(text: str) -> list[int]:
    """Parse a literal bit string such as '10110'."""
    if not text or any(c not in "01" for c in text):
        raise ConfigError(f"expected a string of 0s and 1s, got {text!r}")
    return [int(c) for c in text]


def bits_from_hex(text: str) -> list[int]:
    """Parse hex digits into bits, most significant bit of each nibble first."""
    if not text:
        raise ConfigError("empty hex payload")
    try:
        value = int(text, 16)
    except ValueError:
        raise ConfigError(f"invalid hex payload {text!r}") from None
    width = 4 * len(text)
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def compute_metrics(
    sent: list[int], received: list[int], elapsed_ns: int
) -> tuple[float, float]:
    """Bit error rate and bits per second for one transmission.

    BER is the fraction of positions where the two vectors differ. Bandwidth
    divides the payload size by the elapsed time, scaled to seconds.
    """
    if len(sent) != len(received):
        raise ConfigError(
            f"sent and received lengths differ: {len(sent)} vs {len(received)}"
        )
    if not sent:
        raise ConfigError("cannot compute metrics for an empty payload")
    if elapsed_ns <= 0:
        raise ConfigError(f"elapsed_ns must be positive, got {elapsed_ns}")
    differing = sum(1 for a, b in zip(sent, received) if a != b)
    ber = differing / len(sent)
    bandwidth_bps = len(sent) * 1_000_000_000 / elapsed_ns
    return ber, bandwidth_bps


@dataclass(frozen=True)
class TransmissionReport:
    """Aggregate outcome of one transmission.

    decoded holds what the receiver made of each slot: the bit, or None when
    the slot's order was ambiguous. received always has one bit per slot;
    for an ambiguous slot with a known payload the recorded bit is the
    complement of the sent one, so plain Hamming distance charges the slot
    as an error.
    """

    sent: list[int]
    received: list[int]
    decoded: list[int | None] = field(repr=False)
    elapsed_ns: int
    ber: float
    bandwidth_bps: float

    @property
    def payload_bits(self) -> int:
        return len(self.sent)

    @property
    def indeterminate_slots(self) -> int:
        return self.decoded.count(None)

    @classmethod
    def build(
        cls, sent: list[int], decoded: list[int | None], elapsed_ns: int
    ) -> "TransmissionReport":
        """Report against a known payload; indeterminate slots count as errors."""
        if len(sent) != len(decoded):
            raise ConfigError(
                f"payload has {len(sent)} bits but {len(decoded)} slots were observed"
            )
        received = [
            bit if bit is not None else 1 - sent[k] for k, bit in enumerate(decoded)
        ]
        ber, bandwidth = compute_metrics(sent, received, elapsed_ns)
        return cls(
            sent=list(sent),
            received=received,
            decoded=list(decoded),
            elapsed_ns=elapsed_ns,
            ber=ber,
            bandwidth_bps=bandwidth,
        )

    @classmethod
    def build_blind(
        cls, decoded: list[int | None], elapsed_ns: int
    ) -> "TransmissionReport":
        """Report with no ground truth: sent mirrors received and BER is 0.

        Used when the receiver runs without knowing the payload. Indeterminate
        slots are still visible through indeterminate_slots; an undecodable
        slot is recorded as 0.
        """
        received = [bit if bit is not None else 0 for bit in decoded]
        ber, bandwidth = compute_metrics(received, received, elapsed_ns)
        return cls(
            sent=list(received),
            received=received,
            decoded=list(decoded),
            elapsed_ns=elapsed_ns,
            ber=ber,
            bandwidth_bps=bandwidth,
        )
