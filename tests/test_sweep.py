"""Harness checks: reproducibility, grid mechanics, best-value choice."""
from __future__ import annotations

import multiprocessing.process
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import READY, TINY, healthy_receiver, healthy_sender

import pfchan.live
from pfchan import sweep
from pfchan.cli import main
from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError, RunAbort, SetupError
from pfchan.live import BackendCapabilities
from pfchan.sim import EvictionBehavior, SimParams
from pfchan.sweep import (
    CellResult,
    RateHeadline,
    SweepResult,
    SweepSpec,
    apply_variable,
    cell_seed,
    render_csv,
    run_sweep,
    summary_table,
)

MIB = 1024 * 1024
# the CSV's columns, in order: CellResult's fields
CSV_HEADER = (
    "variable,value,repetition,seed,payload_bits,page_gap,region_bytes,"
    "sync_period_ns,ber,bandwidth_bps,indeterminate_slots"
)


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
    with pytest.raises(ConfigError, match="unknown sweep variable 'piglet'"):
        small_spec(variable="piglet")
    with pytest.raises(ConfigError):
        small_spec(values=())
    with pytest.raises(ConfigError):
        small_spec(repetitions=0)
    with pytest.raises(ConfigError):
        small_spec(backend="hardware")
    with pytest.raises(ConfigError, match="distinct"):
        small_spec(values=(8, 16, 8))
    with pytest.raises(ConfigError, match="region_file"):
        small_spec(backend="live")
    with pytest.raises(ConfigError, match="live_lead_ns"):
        small_spec(live_lead_ns=-5_000_000_000)
    assert small_spec(live_lead_ns=0).live_lead_ns == 0


def test_a_bad_grid_value_fails_before_any_cell_runs(monkeypatch, capsys):
    ran = []
    real = sweep.run_channel_sim
    monkeypatch.setattr(sweep, "run_channel_sim", lambda *a: ran.append(a) or real(*a))
    cfg = ChannelConfig(region_size=MIB, payload_bits=40)
    # gap 1 leaves P2 no room; gap 64 is fine, and must not run first
    with pytest.raises(ConfigError, match="page_gap"):
        run_sweep(small_spec(values=(64, 1), cfg=cfg))
    assert main(["sweep", "--variable", "page_gap", "--values", "64,1"]) == 1
    assert "page_gap" in capsys.readouterr().err
    # a rate too fast for any period names the rate, not the period it sets
    assert main(["sweep", "--variable", "bit_rate", "--values", "50,600000000"]) == 1
    assert capsys.readouterr().err == (
        "error: bit_rate must lie in [1, 500000000] bit/s, got 600000000\n"
    )
    assert ran == []


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
    # the probe moves with the period: no guard is carried over by the copy
    assert cfg.guard_ns == 10_000_000
    assert apply_variable(cfg, "bit_rate", 1000).guard_ns == 500_000
    assert apply_variable(cfg, "bit_rate", 500_000_000).sync_period_ns == 2
    with pytest.raises(ConfigError, match=r"bit_rate must lie in \[1, 500000000\]"):
        apply_variable(cfg, "bit_rate", 500_000_001)
    with pytest.raises(ConfigError):
        apply_variable(cfg, "bit_rate", 0)
    with pytest.raises(ConfigError, match=r"'piglet', expected one of \('payload_bits', "):
        apply_variable(cfg, "piglet", 1)


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
    result = run_sweep(small_spec(
        values=(8, 16, 32),
        cfg=ChannelConfig(region_size=MIB, payload_bits=30, sync_period_ns=10_000_000),
    ))
    assert all(ber == 0.0 for _, ber, _ in result.aggregates())
    assert result.best_value() == 32


def test_calibration_default_grid_ideal_ties_at_256():
    # the full grid with ideal parameters: every gap decodes perfectly, so
    # the tie-break settles on the widest stride; 7 gaps x 7 repetitions
    result = run_sweep(small_spec(
        values=sweep.DEFAULT_GRIDS["page_gap"],
        repetitions=7,
        cfg=ChannelConfig(payload_bits=100),
    ))
    assert len(result.rows) == 49
    assert all(ber == 0.0 for _, ber, _ in result.aggregates())
    assert result.best_value() == 256


def test_calibration_prefers_lower_error_over_width():
    # Under wrap retention a wide gap exhausts its fresh pages sooner, so
    # the narrow gap genuinely wins and the tie-break must not override it.
    result = run_sweep(small_spec(
        values=(4, 64),
        cfg=ChannelConfig(region_size=MIB, payload_bits=100, sync_period_ns=10_000_000),
        params=sim_params(eviction_behavior=EvictionBehavior.FIRST_WRAP),
    ))
    errors = {value: ber for value, ber, _ in result.aggregates()}
    assert errors[4] < errors[64]
    assert result.best_value() == 4


def test_live_sweep_refuses_without_capabilities(monkeypatch, tmp_path):
    broken = BackendCapabilities(
        shared_readonly_mapping=True,
        cache_advice_eviction=False,
        cpu_affinity=True,
        notes=("advice probe failed",),
    )
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: broken)
    spec = small_spec(backend="live", region_file=str(tmp_path / "r.bin"))
    with pytest.raises(SetupError, match="lacks required"):
        run_sweep(spec)


@pytest.mark.parametrize("command", ["sweep", "send", "receive"])
def test_a_live_sweep_probes_the_filesystem_its_region_file_is_on(
    monkeypatch, tmp_path, capsys, command
):
    # a region on tmpfs with a disk-backed temp dir would otherwise pass a
    # probe of the wrong filesystem and then read noise as a plausible BER;
    # a live sweep and either endpoint's command probe the region file itself
    probed = []

    def probe(path, *notes):
        probed.append(path)
        return BackendCapabilities(False, False, True)

    monkeypatch.setattr(pfchan.live, "_probe_file", probe)
    monkeypatch.chdir(tmp_path)
    os.mkdir("regions")
    region = os.path.join("regions", "r.bin")
    if command == "sweep":
        with pytest.raises(SetupError, match="lacks required"):
            run_sweep(small_spec(backend="live", region_file=region))
    else:
        argv = [command, "--region-file", region, "--region-size", str(MIB)]
        if command == "send":
            argv.append("--create-region")
        else:
            pfchan.live.create_backing_file(region, MIB)
        assert main([*argv, "--epoch", "+1", "--bits", "01"]) == 2
        assert "lacks required capabilities" in capsys.readouterr().err
    assert probed == [region]


def test_live_sweep_requires_region_file(monkeypatch):
    ready = BackendCapabilities(
        shared_readonly_mapping=True,
        cache_advice_eviction=True,
        cpu_affinity=True,
    )
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: ready)
    with pytest.raises(ConfigError, match="region_file"):
        run_sweep(small_spec(backend="live"))


# -- a one-cell live sweep, with the forked children's entry points replaced -
# The children are forked, so they run the monkeypatched entry points.

def _run_tiny_live_sweep(monkeypatch, tmp_path):
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: READY)
    return run_sweep(SweepSpec(
        variable="payload_bits", values=(8,), repetitions=1, cfg=TINY,
        params=SimParams(), backend="live", region_file=str(tmp_path / "r.bin"),
        live_lead_ns=10_000_000,
    ))


def test_each_live_cell_checks_its_host_before_it_forks(monkeypatch, tmp_path):
    # the sweep only writes the region file; each cell's run_pair probes it
    # once, before that cell forks, and hands its own result to both children
    started_before = []  # the children already started at each probe

    def probe(path, *notes):
        started_before.append(sorted(p.name for p in tmp_path.glob("*-cell*")))
        return replace(READY, notes=(f"cell{len(started_before)}",))

    def recording(role, healthy):
        def entry(region_path, cfg, payload, capabilities, cpu, conn):
            (tmp_path / f"{role}-{capabilities.notes[0]}").touch()
            return healthy(region_path, cfg, payload, READY, cpu, conn)

        return entry

    monkeypatch.setattr(pfchan.live, "_probe_file", probe)
    monkeypatch.setattr(pfchan.live, "_sender_entry", recording("sender", healthy_sender))
    monkeypatch.setattr(
        pfchan.live, "_receiver_entry", recording("receiver", healthy_receiver)
    )
    spec = SweepSpec(
        variable="payload_bits", values=(8, 16), repetitions=1, cfg=TINY,
        params=SimParams(), backend="live", region_file=str(tmp_path / "r.bin"),
        live_lead_ns=10_000_000,
    )
    rows = run_sweep(spec).rows
    assert [(row.payload_bits, row.ber) for row in rows] == [(8, 0.0), (16, 0.0)]
    assert started_before == [[], ["receiver-cell1", "sender-cell1"]]
    assert sorted(p.name for p in tmp_path.glob("*-cell*")) == [
        "receiver-cell1", "receiver-cell2", "sender-cell1", "sender-cell2",
    ]

    # a failing check stops the cell before it starts any child
    broken = replace(READY, cache_advice_eviction=False)
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: broken)
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("forked")
    )
    with pytest.raises(SetupError, match="lacks required capabilities"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "exit_code,message",
    [(5, "receiver child exited with code 5"), (0, "receiver child exited without a report")],
)
def test_live_cell_with_a_dead_receiver_aborts_fast(
    monkeypatch, tmp_path, exit_code, message
):
    def dead_receiver(*args):
        pfchan.live._ready(args[-1])
        os._exit(exit_code)

    monkeypatch.setattr(pfchan.live, "_sender_entry", healthy_sender)
    monkeypatch.setattr(pfchan.live, "_receiver_entry", dead_receiver)
    start = time.monotonic()
    with pytest.raises(RunAbort, match=message):
        _run_tiny_live_sweep(monkeypatch, tmp_path)
    # the report budget is over 30 s; a dead receiver must not wait it out
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize(
    "failure,message",
    [
        ("raise", r"child exited with code 1: RunAbort\('no region for me'\)"),
        ("exit 0", "child exited without reporting ready"),
    ],
)
def test_live_cell_with_a_child_that_dies_before_ready_aborts_fast(
    monkeypatch, tmp_path, role, failure, message
):
    def unready(*args):
        if failure == "raise":
            raise RunAbort("no region for me")
        os._exit(0)

    monkeypatch.setattr(pfchan.live, "_sender_entry", healthy_sender)
    monkeypatch.setattr(pfchan.live, "_receiver_entry", healthy_receiver)
    monkeypatch.setattr(pfchan.live, f"_{role}_entry", unready)
    start = time.monotonic()
    with pytest.raises(RunAbort, match=f"live {role} {message}"):
        _run_tiny_live_sweep(monkeypatch, tmp_path)
    # the healthy partner is left waiting for an epoch and must not hold
    # the cell open until the budget runs out
    assert time.monotonic() - start < 5


def test_a_sim_sweep_loads_no_executor_or_logging():
    # a simulator sweep, set-up and cells alike, pays for neither an
    # executor nor logging
    src = str(Path(sweep.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pfchan as pf; "
        "pf.run_sweep(pf.SweepSpec(variable='page_gap', values=(8,), repetitions=1, "
        "cfg=pf.ChannelConfig(payload_bits=20), params=pf.SimParams())); "
        "print(' '.join(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""


def test_summary_table_has_a_header_and_a_line_per_value():
    result = run_sweep(small_spec())
    lines = summary_table(result).splitlines()
    assert "page_gap" in lines[0] and "sim" in lines[0]
    assert len(lines) == 2 + len(result.spec.values)


def rate_result(cells: dict[int, list[tuple[float, float]]]) -> SweepResult:
    """A bit_rate sweep built by hand: per rate, in the order given, each
    repetition's (ber, bandwidth_bps)."""
    spec = SweepSpec(
        variable="bit_rate", values=tuple(cells), repetitions=1,
        cfg=ChannelConfig(), params=SimParams(),
    )
    rows = tuple(
        CellResult(
            variable="bit_rate", value=rate, repetition=rep, seed=0,
            payload_bits=1000, page_gap=64, region_bytes=32 * MIB,
            sync_period_ns=1_000_000_000 // rate, ber=ber, bandwidth_bps=bw,
            indeterminate_slots=0,
        )
        for rate, reps in cells.items()
        for rep, (ber, bw) in enumerate(reps)
    )
    return SweepResult(spec=spec, rows=rows)


# table E's sweep 3 in the roadmap: 12000 bit/s fails and 15000 passes again
NON_MONOTONE = {
    8000: [(0.0304, 8000.0)],
    10000: [(0.0278, 10000.0)],
    12000: [(0.0968, 12000.0)],
    15000: [(0.0098, 13888.0)],
}


def test_rate_headline_stops_the_unbroken_rate_at_the_first_failure():
    assert rate_result(NON_MONOTONE).rate_headline() == RateHeadline(
        reliable_bps=15000,
        unbroken_bps=10000,
        unbroken_carried_bps=10000.0,
        unbroken_in_full=True,
    )


def test_rate_headline_reads_a_descending_grid_as_an_ascending_one():
    descending = dict(sorted(NON_MONOTONE.items(), reverse=True))
    assert tuple(descending) == (15000, 12000, 10000, 8000)
    assert (
        rate_result(descending).rate_headline()
        == rate_result(NON_MONOTONE).rate_headline()
    )


def test_rate_headline_flags_a_passing_rate_that_carries_short():
    # both rates pass on BER; 12000 bit/s carries a mean of 11850 bit/s,
    # under 99% of nominal (11880), though one of its cells reached 11900
    result = rate_result({
        10000: [(0.0, 9990.0), (0.01, 10050.0)],
        12000: [(0.0, 11900.0), (0.02, 11800.0)],
    })
    assert result.rate_headline() == RateHeadline(12000, 12000, 11850.0, False)
    # within 1% either way of nominal counts as carried in full
    assert rate_result({10000: [(0.0, 9990.0), (0.01, 10050.0)]}).rate_headline() == (
        RateHeadline(10000, 10000, 10020.0, True)
    )


def test_rate_headline_of_a_grid_where_no_rate_passes():
    failing = rate_result({1000: [(0.06, 1000.0)], 2000: [(0.5, 2000.0)]})
    assert failing.rate_headline() == RateHeadline(None, None, None, None)
    # a pass above a failing lowest rate is the north star's figure only
    assert rate_result({1000: [(0.06, 1000.0)], 2000: [(0.05, 2000.0)]}).rate_headline() == (
        RateHeadline(2000, None, None, None)
    )


def test_rate_headline_needs_a_bit_rate_sweep():
    with pytest.raises(ConfigError, match="needs a bit_rate sweep, not page_gap"):
        run_sweep(small_spec(repetitions=1)).rate_headline()


def test_only_a_bit_rate_sweep_prints_the_headline(capsys):
    small = ["--region-size", str(MIB), "--payload-bits", "20", "--repetitions", "1"]
    assert main(["sweep", "--variable", "bit_rate", "--values", "200,100", *small]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "highest rate with mean BER <= 0.05: 200 bit/s",
        "highest rate with no failing rate below it: 200 bit/s, carrying 200.0 "
        "bit/s (within 1% of nominal)",
    ]
    assert main(["sweep", "--variable", "page_gap", "--values", "8,16", *small]) == 0
    assert "highest rate" not in capsys.readouterr().out


def test_sweep_prints_a_short_carrying_or_missing_headline(monkeypatch, capsys):
    cases = [
        (NON_MONOTONE, "10000 bit/s, carrying 10000.0 bit/s (within 1% of nominal)"),
        ({12000: [(0.0, 11800.0)]}, "12000 bit/s, carrying 11800.0 bit/s (not within"),
        ({1000: [(0.5, 1000.0)]}, "none"),
    ]
    for cells, unbroken in cases:
        monkeypatch.setattr("pfchan.cli.run_sweep", lambda spec: rate_result(cells))
        assert main(["sweep", "--variable", "bit_rate", "--values", "1000"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(f"highest rate with no failing rate below it: {unbroken}")
