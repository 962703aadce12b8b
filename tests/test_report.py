"""Metric and payload checks, with a brute-force comparison oracle."""
from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfchan.errors import ConfigError
from pfchan.report import (
    TransmissionReport,
    bits_from_hex,
    bits_from_string,
    compute_metrics,
    random_payload,
)


def brute_force_metrics(sent, received, elapsed_ns):
    differing = 0
    for i in range(len(sent)):
        if sent[i] != received[i]:
            differing += 1
    return differing / len(sent), len(sent) * 1_000_000_000 / elapsed_ns


def test_metrics_worked_example():
    ber, bw = compute_metrics([1, 0, 1, 0], [1, 0, 0, 0], 1_000_000_000)
    assert ber == 0.25
    assert bw == 4.0


def test_metrics_identity_and_complement():
    sent = [1, 0, 1, 1, 0]
    ber, _ = compute_metrics(sent, list(sent), 5)
    assert ber == 0.0
    flipped = [1 - b for b in sent]
    ber, _ = compute_metrics(sent, flipped, 5)
    assert ber == 1.0


def test_metrics_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        compute_metrics([1, 0], [1], 10)
    with pytest.raises(ConfigError):
        compute_metrics([], [], 10)
    with pytest.raises(ConfigError):
        compute_metrics([1], [1], 0)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64),
    st.randoms(),
    st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200)
def test_metrics_bounds_and_symmetry(sent, rng, elapsed):
    received = [rng.randint(0, 1) for _ in sent]
    ber, bw = compute_metrics(sent, received, elapsed)
    assert 0.0 <= ber <= 1.0
    assert bw > 0
    ber_swapped, _ = compute_metrics(received, sent, elapsed)
    assert ber == ber_swapped
    assert (ber, bw) == brute_force_metrics(sent, received, elapsed)


def test_random_payload_deterministic():
    a = random_payload(1234, 256)
    b = random_payload(1234, 256)
    assert a == b
    assert set(a) <= {0, 1}
    assert len(a) == 256
    assert random_payload(1235, 256) != a


@given(
    st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**80)),
    st.integers(1, 600),
)
@settings(max_examples=200, deadline=None)
def test_random_payload_matches_randint_reference(seed, n_bits):
    # the generator draws bits without randint; the stream must not change
    rng = random.Random(seed)
    assert random_payload(seed, n_bits) == [rng.randint(0, 1) for _ in range(n_bits)]


def test_random_payload_literal_bits():
    # pins generation without a golden run: a change here moves every CSV
    bits = "".join(map(str, random_payload(1234, 32)))
    assert bits == "10000001000011100000100100010111"


def test_random_payload_single_bit_and_validation():
    assert random_payload(7, 1)[0] in (0, 1)
    with pytest.raises(ConfigError):
        random_payload(7, 0)


def test_bits_parsing_helpers():
    assert bits_from_string("10110") == [1, 0, 1, 1, 0]
    assert bits_from_hex("a5") == [1, 0, 1, 0, 0, 1, 0, 1]
    with pytest.raises(ConfigError):
        bits_from_string("10120")
    with pytest.raises(ConfigError):
        bits_from_hex("xz")
    assert bits_from_hex("1F") == [0, 0, 0, 1, 1, 1, 1, 1]
    # int(text, 16) takes each of these as 0x1f, and 4 bits per character
    # would send 8 or 12 bits of it
    for text in ("0x1f", "1_f", " 1f", "1f ", "+1f", "-1f", "0X1F"):
        with pytest.raises(ConfigError, match="invalid hex payload"):
            bits_from_hex(text)


def test_report_counts_indeterminate_as_error():
    sent = [1, 1, 0, 0]
    report = TransmissionReport.build(sent, [1, None, 0, None], elapsed_ns=4)
    assert report.indeterminate_slots == 2
    assert report.ber == 0.5
    # The recorded bit for an undecodable slot must disagree with the sent one.
    assert report.received[1] != sent[1]
    assert report.received[3] != sent[3]


def test_report_survives_pickling():
    # the live receiver hands its report to the parent through a
    # multiprocessing pipe, which pickles it
    sent = [1, 0, 1]
    report = TransmissionReport.build(sent, [1, None, 1], elapsed_ns=30)
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report
    assert clone.indeterminate_slots == 1


def test_blind_report_has_no_error_claim():
    report = TransmissionReport.build(None, [1, None, 0], elapsed_ns=3)
    assert report.sent is None
    assert report.ber is None
    assert report.received == [1, 0, 0]
    assert report.payload_bits == 3
    assert report.indeterminate_slots == 1
    assert report.bandwidth_bps == 1e9


def test_report_rejects_slot_count_mismatch():
    with pytest.raises(ConfigError):
        TransmissionReport.build([1, 0], [1], elapsed_ns=10)


def test_metrics_against_bruteforce_many_random_pairs():
    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randint(1, 48)
        sent = [rng.randint(0, 1) for _ in range(n)]
        received = [rng.randint(0, 1) for _ in range(n)]
        elapsed = rng.randint(1, 10**12)
        assert compute_metrics(sent, received, elapsed) == brute_force_metrics(
            sent, received, elapsed
        )
