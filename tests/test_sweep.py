"""Harness checks: reproducibility, grid mechanics, calibration choice."""
from __future__ import annotations

import os
import time

import pytest

import pfchan.live
from pfchan import sweep
from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError, RunAbort, SetupError
from pfchan.live import BackendCapabilities
from pfchan.sim import EvictionBehavior, SimParams, run_channel_sim
from pfchan.sweep import (
    CSV_HEADER,
    SweepSpec,
    apply_variable,
    calibrate_page_gap,
    cell_seed,
    emit_report,
    render_csv,
    run_sweep,
    summary_table,
)

MIB = 1024 * 1024


def sim_params(**kw) -> SimParams:
    base = dict(disk_latency=1000, mem_latency=1, switch_cost=10)
    base.update(kw)
    return SimParams(**base)


def small_spec(**kw) -> SweepSpec:
    base = dict(
        variable="page_gap",
        values=(8, 16),
        repetitions=2,
        cfg=ChannelConfig(
            region_size=MIB, payload_bits=40, sync_period_ns=10_000_000
        ),
        params=sim_params(),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(variable="piglet")
    with pytest.raises(ConfigError):
        small_spec(values=())
    with pytest.raises(ConfigError):
        small_spec(repetitions=0)
    with pytest.raises(ConfigError):
        small_spec(backend="hardware")


def test_cell_seed_is_a_stable_hash():
    # frozen from sha256("0:page_gap:64:0"), first 8 bytes big endian
    assert cell_seed(0, "page_gap", 64, 0) == 15871542800661094038
    assert cell_seed(7, "bit_rate", 50, 3) == 11268616258504260156
    assert cell_seed(0, "page_gap", 64, 1) != cell_seed(0, "page_gap", 64, 0)


def test_apply_variable_rewrites_one_knob():
    cfg = ChannelConfig(region_size=MIB, page_gap=64)
    assert apply_variable(cfg, "payload_bits", 17).payload_bits == 17
    widened = apply_variable(cfg, "page_gap", 32)
    assert widened.page_gap == 32
    assert widened.pair_offset_pages == 16  # dependent default re-derives
    assert apply_variable(cfg, "region_size", 2 * MIB).region_size == 2 * MIB
    assert apply_variable(cfg, "bit_rate", 50).sync_period_ns == 20_000_000
    assert apply_variable(cfg, "bit_rate", 1000).sync_period_ns == 1_000_000
    with pytest.raises(ConfigError):
        apply_variable(cfg, "bit_rate", 0)


def test_sweep_rows_cover_grid_in_order():
    result = run_sweep(small_spec(values=(8, 16), repetitions=3))
    assert [(r.value, r.repetition) for r in result.rows] == [
        (8, 0), (8, 1), (8, 2), (16, 0), (16, 1), (16, 2),
    ]
    for row in result.rows:
        assert row.seed == cell_seed(0, "page_gap", row.value, row.repetition)
        assert row.page_gap == row.value
        assert row.payload_bits == 40


def test_sweep_csv_is_byte_identical_across_runs():
    spec = small_spec()
    assert render_csv(run_sweep(spec)) == render_csv(run_sweep(spec))


def test_csv_shape():
    text = render_csv(run_sweep(small_spec(values=(8,), repetitions=1)))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "page_gap"


def test_ideal_sim_sweep_has_zero_error():
    result = run_sweep(small_spec(variable="payload_bits", values=(20, 50)))
    assert all(row.ber == 0.0 for row in result.rows)
    assert all(row.indeterminate_slots == 0 for row in result.rows)


def test_bit_rate_sweep_converts_rate_to_period():
    result = run_sweep(small_spec(variable="bit_rate", values=(50, 1000)))
    by_value = {row.value: row for row in result.rows if row.repetition == 0}
    assert by_value[50].sync_period_ns == 20_000_000
    assert by_value[1000].sync_period_ns == 1_000_000


def test_aggregates_are_means_in_grid_order():
    result = run_sweep(small_spec(repetitions=3))
    aggs = result.aggregates()
    assert [value for value, _, _ in aggs] == [8, 16]
    for value, ber, bw in aggs:
        cells = result.rows_for_value(value)
        assert ber == pytest.approx(sum(c.ber for c in cells) / 3)
        assert bw == pytest.approx(sum(c.bandwidth_bps for c in cells) / 3)


def test_calibration_breaks_ties_toward_larger_gap():
    cal = calibrate_page_gap(
        ChannelConfig(region_size=MIB, payload_bits=30, sync_period_ns=10_000_000),
        sim_params(),
        values=(8, 16, 32),
        repetitions=2,
    )
    assert all(ber == 0.0 for _, ber in cal.by_gap)
    assert cal.best_gap == 32


def test_calibration_default_grid_ideal_ties_at_256():
    # the full grid with ideal parameters: every gap decodes perfectly, so
    # the tie-break settles on the widest stride; 7 gaps x 7 repetitions
    cal = calibrate_page_gap(
        ChannelConfig(payload_bits=100), sim_params()
    )
    assert len(cal.sweep.rows) == 49
    assert all(ber == 0.0 for _, ber in cal.by_gap)
    assert cal.best_gap == 256


def test_calibration_prefers_lower_error_over_width():
    # Under wrap retention a wide gap exhausts its fresh pages sooner, so
    # the narrow gap genuinely wins and the tie-break must not override it.
    cal = calibrate_page_gap(
        ChannelConfig(region_size=MIB, payload_bits=100, sync_period_ns=10_000_000),
        sim_params(eviction_behavior=EvictionBehavior.FIRST_WRAP),
        values=(4, 64),
        repetitions=2,
    )
    errors = dict(cal.by_gap)
    assert errors[4] < errors[64]
    assert cal.best_gap == 4


def test_live_sweep_refuses_without_capabilities(monkeypatch, tmp_path):
    broken = BackendCapabilities(
        shared_readonly_mapping=True,
        cache_advice_eviction=False,
        cpu_affinity=True,
        switch_on_hard_fault=True,
        notes=("advice probe failed",),
    )
    monkeypatch.setattr(pfchan.live, "probe_capabilities", lambda *a, **k: broken)
    spec = small_spec(backend="live", region_file=str(tmp_path / "r.bin"))
    with pytest.raises(SetupError, match="lacks required"):
        run_sweep(spec)


def test_live_sweep_requires_region_file(monkeypatch):
    ready = BackendCapabilities(
        shared_readonly_mapping=True,
        cache_advice_eviction=True,
        cpu_affinity=True,
        switch_on_hard_fault=True,
    )
    monkeypatch.setattr(pfchan.live, "probe_capabilities", lambda *a, **k: ready)
    with pytest.raises(ConfigError, match="region_file"):
        run_sweep(small_spec(backend="live"))


def test_emit_report_writes_csv_and_summarizes(tmp_path):
    result = run_sweep(small_spec())
    out = tmp_path / "sweep.csv"
    summary = emit_report(result, str(out))
    assert out.read_text() == render_csv(result)
    assert summary == summary_table(result)
    lines = summary.splitlines()
    assert "page_gap" in lines[0] and "sim" in lines[0]
    assert len(lines) == 2 + len(result.spec.values)


# -- live cell orchestration, with the child entry points replaced ----------
# The children are forked, so they run the monkeypatched entry points.

READY = BackendCapabilities(
    shared_readonly_mapping=True,
    cache_advice_eviction=True,
    cpu_affinity=True,
    switch_on_hard_fault=True,
)
TINY = ChannelConfig(
    region_size=64 * 1024, page_gap=4, payload_bits=8, sync_period_ns=1_000_000
)


def _healthy_sender(region_path, cfg, payload, epoch_ns, capabilities):
    if capabilities is not READY:
        os._exit(9)


def _healthy_receiver(region_path, cfg, payload, epoch_ns, capabilities, queue):
    if capabilities is not READY:
        os._exit(9)
    queue.put(run_channel_sim(cfg, SimParams(), payload))


def _run_tiny_cell(tmp_path):
    return sweep._run_live_cell(TINY, 7, str(tmp_path / "r.bin"), 10_000_000, READY)


def test_live_cell_children_reuse_the_parents_probe(monkeypatch, tmp_path):
    monkeypatch.setattr(pfchan.live, "probe_capabilities", lambda *a, **k: READY)
    monkeypatch.setattr(sweep, "_live_sender_entry", _healthy_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", _healthy_receiver)
    spec = SweepSpec(
        variable="payload_bits", values=(8,), repetitions=1, cfg=TINY,
        params=SimParams(), backend="live", region_file=str(tmp_path / "r.bin"),
        live_lead_ns=10_000_000,
    )
    (row,) = run_sweep(spec).rows
    assert (row.payload_bits, row.ber) == (8, 0.0)


def test_live_cell_with_a_dead_sender_aborts(monkeypatch, tmp_path):
    # the receiver still reports, as one decoding noise would
    def dying_sender(*args):
        raise SetupError("region vanished")

    monkeypatch.setattr(sweep, "_live_sender_entry", dying_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", _healthy_receiver)
    with pytest.raises(RunAbort, match="sender child exited with code 1"):
        _run_tiny_cell(tmp_path)


@pytest.mark.parametrize(
    "exit_code,message",
    [(5, "receiver child exited with code 5"), (0, "receiver child exited without a report")],
)
def test_live_cell_with_a_dead_receiver_aborts_fast(
    monkeypatch, tmp_path, exit_code, message
):
    def dead_receiver(*args):
        os._exit(exit_code)

    monkeypatch.setattr(sweep, "_live_sender_entry", _healthy_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", dead_receiver)
    start = time.monotonic()
    with pytest.raises(RunAbort, match=message):
        _run_tiny_cell(tmp_path)
    # the report budget is over 30 s; a dead receiver must not wait it out
    assert time.monotonic() - start < 5
