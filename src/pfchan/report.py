"""Payload handling and per-transmission reporting."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import ne

from .errors import ConfigError


def random_payload(seed: int, n_bits: int) -> list[int]:
    """Deterministic pseudo-random bit vector; experiments replay from the seed."""
    if n_bits < 1:
        raise ConfigError(f"n_bits must be at least 1, got {n_bits}")
    # randint(0, 1) draws getrandbits(2) until the draw is below 2; doing
    # that here yields the same bits without its three frames per bit.
    draw = random.Random(seed).getrandbits
    bits: list[int] = []
    while len(bits) < n_bits:
        r = draw(2)
        if r < 2:
            bits.append(r)
    return bits


def bits_from_string(text: str) -> list[int]:
    """Parse a literal bit string such as '10110'."""
    if not text or any(c not in "01" for c in text):
        raise ConfigError(f"expected a string of 0s and 1s, got {text!r}")
    return [int(c) for c in text]


def bits_from_hex(text: str) -> list[int]:
    """Parse hex digits into bits, most significant bit of each nibble first."""
    if not text:
        raise ConfigError("empty hex payload")
    # int(text, 16) alone would also take a 0x prefix, a sign, underscores
    # and surrounding whitespace, and the width below would count them.
    if any(c not in "0123456789abcdefABCDEF" for c in text):
        raise ConfigError(f"invalid hex payload {text!r}")
    value = int(text, 16)
    width = 4 * len(text)
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


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
        """One bit per slot. An ambiguous slot reads as the complement of the
        sent bit, or as 0 when the payload is unknown."""
        if self.sent is None:
            return [0 if bit is None else bit for bit in self.decoded]
        return [
            1 - s if bit is None else bit for s, bit in zip(self.sent, self.decoded)
        ]

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
        """Report on a transmission; the one place a BER is computed.

        A slot is wrong when its decoded entry differs from the sent bit, so
        an indeterminate slot (None) is always an error. With sent=None, for
        a receiver without ground truth, ber is None. Bandwidth divides the
        slot count by the elapsed time, scaled to seconds.
        """
        n = len(decoded)
        if sent is not None and len(sent) != n:
            raise ConfigError(
                f"payload has {len(sent)} bits but {n} slots were observed"
            )
        if not n:
            raise ConfigError("cannot compute metrics for an empty payload")
        if elapsed_ns <= 0:
            raise ConfigError(f"elapsed_ns must be positive, got {elapsed_ns}")
        return cls(
            sent=None if sent is None else list(sent),
            decoded=list(decoded),
            elapsed_ns=elapsed_ns,
            ber=None if sent is None else sum(map(ne, sent, decoded)) / n,
            bandwidth_bps=n * 1_000_000_000 / elapsed_ns,
        )
