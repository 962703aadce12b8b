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
    """What one transmission observed.

    decoded holds what the receiver made of each slot: the bit, or None when
    the slot's order was ambiguous. sent is the payload, or None when the
    receiver ran without ground truth; ber is then None too, since there is
    nothing to count errors against.
    """

    sent: list[int] | None
    decoded: list[int | None] = field(repr=False)
    elapsed_ns: int
    ber: float | None
    bandwidth_bps: float

    @property
    def received(self) -> list[int]:
        return _received(self.sent, self.decoded)

    @property
    def payload_bits(self) -> int:
        return len(self.decoded)

    @property
    def indeterminate_slots(self) -> int:
        return self.decoded.count(None)

    @classmethod
    def build(
        cls, sent: list[int] | None, decoded: list[int | None], elapsed_ns: int
    ) -> "TransmissionReport":
        """Report on a transmission; indeterminate slots count as errors.
        With sent=None, for a receiver without ground truth, ber is None."""
        if sent is not None and len(sent) != len(decoded):
            raise ConfigError(
                f"payload has {len(sent)} bits but {len(decoded)} slots were observed"
            )
        received = _received(sent, decoded)
        ber, bandwidth = compute_metrics(
            received if sent is None else sent, received, elapsed_ns
        )
        return cls(
            sent=None if sent is None else list(sent),
            decoded=list(decoded),
            elapsed_ns=elapsed_ns,
            ber=None if sent is None else ber,
            bandwidth_bps=bandwidth,
        )


def _received(sent: list[int] | None, decoded: list[int | None]) -> list[int]:
    """One bit per slot. An ambiguous slot reads as the complement of the sent
    bit, so plain Hamming distance charges it as an error, or as 0 when the
    payload is unknown."""
    if sent is None:
        return [0 if bit is None else bit for bit in decoded]
    return [1 - s if bit is None else bit for s, bit in zip(sent, decoded)]
