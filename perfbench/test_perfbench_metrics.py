"""Tests for the benchmark's own arithmetic, its metric declarations, its
live readiness guard and its accounting of failed cells.

They need no live host: python3 -m pytest perfbench
"""
import json
import math
import statistics
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import metrics
import run

ROOT = Path(__file__).resolve().parent.parent


def test_h2_edges():
    assert metrics.h2(0.0) == 0.0
    assert metrics.h2(1.0) == 0.0
    assert metrics.h2(0.5) == 1.0
    assert metrics.h2(0.11) == pytest.approx(0.4999, abs=1e-3)
    with pytest.raises(ValueError):
        metrics.h2(1.5)


def test_capacity_is_symmetric_above_half():
    assert metrics.bsc_capacity_bps(200, 0.9) == pytest.approx(
        metrics.bsc_capacity_bps(200, 0.1)
    )
    assert metrics.bsc_capacity_bps(200, 1.0) == 200.0
    assert metrics.bsc_capacity_bps(200, 0.5) == 0.0
    # the best rate wins even when a faster one has most bits inverted
    assert metrics.capacity_bps({100: 0.0, 1000: 0.7}) == pytest.approx(
        1000 * (1 - metrics.h2(0.7))
    )


def test_ber_is_pooled_over_bits_not_averaged_over_cells():
    by_rate = metrics.ber_by_rate([(200, 10, 100), (200, 0, 300), (50, 1, 100)])
    assert list(by_rate) == [50, 200]
    assert by_rate[200] == 10 / 400
    assert metrics.pooled_ber([(10, 100), (0, 300)]) == 10 / 400


def test_max_reliable_rate_on_a_synthetic_ladder():
    ladder = {50: 0.0, 100: 0.05, 200: 0.36, 500: 0.04, 1000: 0.5}
    # the highest qualifying rate, even past a failing one
    assert metrics.max_reliable_rate(ladder) == 500
    assert metrics.max_reliable_rate({50: 0.0, 100: 0.051}) == 50
    assert metrics.max_reliable_rate({50: 0.2, 100: 0.4}) is None


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.beyond(100, 0.9) == 10
    assert metrics.beyond(99, 0.9) == 9
    full = metrics.summarize(range(1, 101))
    assert full == {"p50": 50, "n": 100, "p90": 90}
    short = metrics.summarize(range(1, 100))
    assert short == {"p50": 50, "n": 99}
    assert metrics.summarize([]) == {"p50": 0.0, "p90": 0.0, "n": 0}


def test_summary_scales_units_and_counts_samples():
    summary = metrics.summarize([3000.0] * 5, scale=1e-3)
    assert summary == {"p50": 3.0, "n": 5}


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert math.isinf(metrics.quartile_spread([0, 0, 0, 1, 2]))


def test_benchmark_json_declares_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.fixture()
def pf(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import pfchan
    import pfchan.live  # noqa: F401

    return pfchan


def test_golden_record_matches_this_source_tree(pf):
    recorded = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert run.golden_batch(pf, run.Tracer(full=False)) == recorded


def test_tracer_times_the_sim_layers_and_puts_everything_back(pf):
    before = (pf.sweep.run_channel_sim, pf.sim.page_pair_for_slot,
              vars(pf.report.TransmissionReport)["build"], pf.live.trojan_send)
    tracer = run.Tracer(full=True)
    with tracer.installed(pf, live=False):
        spec = pf.SweepSpec(variable="bit_rate", values=(100, 1000), repetitions=1,
                            cfg=pf.ChannelConfig(payload_bits=20), params=pf.SimParams())
        rows = pf.run_sweep(spec).rows
    after = (pf.sweep.run_channel_sim, pf.sim.page_pair_for_slot,
             vars(pf.report.TransmissionReport)["build"], pf.live.trojan_send)
    assert after == before
    assert [row.ber for row in rows] == [0.0, 0.0]
    assert len(tracer.rec.get("sim.run_spy_slot")) == 40
    assert len(tracer.rec.get("protocol.page_pair_for_slot")) == 40
    assert len(tracer.rec.get("report.build")) == 2
    assert len(tracer.rec.get("sim.per_slot")) == 2


def test_median_of_group_medians_lets_each_group_count_once():
    pairs = [(50, 1), (50, 1), (50, 1), (50, 1), (100, 5), (200, 9)]
    assert metrics.median_of_group_medians(pairs) == 5
    assert metrics.median([v for _, v in pairs]) == 1


def test_traced_output_has_every_declared_per_layer_metric():
    # a workload that never calls a function still reports it, with n = 0
    out = run.Outcome(figures={key: 1.0 for key in run.TRACED_FIGURES})
    values = run.per_layer_values(run.Tracer(full=True), out)
    assert list(values) == [name for name, _ in run.per_layer_spec()]
    assert values["live.residency_us.n"] == 0
    assert values["sim.hard_faults"] == 0


def test_live_guard_skips_memory_backed_filesystems(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "filesystem_type", lambda path: "tmpfs")
    with pytest.raises(run.Skip, match="tmpfs"):
        run.live_guard(None, tmp_path)


def test_live_guard_skips_when_the_probe_is_not_ready(monkeypatch, tmp_path):
    caps = SimpleNamespace(transmission_ready=lambda: False, summary=lambda: "no pinning")
    pf = SimpleNamespace(live=SimpleNamespace(probe_capabilities=lambda scratch_dir: caps))
    monkeypatch.setattr(run, "filesystem_type", lambda path: "ext4")
    with pytest.raises(run.Skip, match="no pinning"):
        run.live_guard(pf, tmp_path)


def _fake_live(pf, run_sweep):
    return SimpleNamespace(SweepSpec=pf.SweepSpec, SimParams=pf.SimParams, sweep=pf.sweep,
                           RunAbort=pf.RunAbort, SetupError=pf.SetupError,
                           run_sweep=run_sweep)


def test_a_cell_whose_sender_never_returned_counts_as_failed(pf, tmp_path):
    # run_sweep hands back a plausible row, but no sender completion file
    # was written: the sender child died inside trojan_send
    fake = _fake_live(pf, lambda spec: pf.run_sweep(replace(spec, backend="sim")))
    cell = run.run_live_cell(fake, run.Tracer(full=False), pf.ChannelConfig(payload_bits=20),
                             200, 1, tmp_path / "region.bin", tmp_path / "cell")
    assert cell.errors is None
    assert "never returned" in cell.reason


def test_a_cell_that_aborts_counts_as_failed(pf, tmp_path):
    def abort(spec):
        raise pf.RunAbort("live cell produced no report within 31s")

    cell = run.run_live_cell(_fake_live(pf, abort), run.Tracer(full=False),
                             pf.ChannelConfig(payload_bits=20), 200, 1,
                             tmp_path / "region.bin", tmp_path / "cell")
    assert cell.errors is None
    assert cell.reason.startswith("RunAbort")


def test_a_cell_whose_endpoints_finished_counts_its_errors(pf, tmp_path):
    tracer = run.Tracer(full=False)

    def sweep_with_sender(spec):
        (tracer.cell_dir / "sender.json").write_text('{"series": {}, "slots": 20}')
        return pf.run_sweep(replace(spec, backend="sim"))

    cell = run.run_live_cell(_fake_live(pf, sweep_with_sender), tracer,
                             pf.ChannelConfig(payload_bits=20), 200, 1,
                             tmp_path / "region.bin", tmp_path / "cell")
    assert (cell.errors, cell.reason) == (0, "")
    assert not (tmp_path / "cell").exists()
