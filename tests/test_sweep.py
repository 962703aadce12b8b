"""Harness checks: reproducibility, grid mechanics, best-value choice."""
from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pfchan.live
from pfchan import sweep
from pfchan.cli import main
from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError, RunAbort, SetupError
from pfchan.live import BackendCapabilities
from pfchan.sim import EvictionBehavior, SimParams, run_channel_sim
from pfchan.sweep import (
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
    real = sweep._run_sim_cell
    monkeypatch.setattr(sweep, "_run_sim_cell", lambda *a: ran.append(a) or real(*a))
    cfg = ChannelConfig(region_size=MIB, payload_bits=40)
    # gap 1 leaves P2 no room; gap 64 is fine, and must not run first
    with pytest.raises(ConfigError, match="page_gap"):
        run_sweep(small_spec(values=(64, 1), cfg=cfg))
    assert main(["sweep", "--variable", "page_gap", "--values", "64,1"]) == 1
    assert "page_gap" in capsys.readouterr().err
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
    with pytest.raises(ConfigError, match=r"sync_period_ns \(1\) is too short"):
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
    monkeypatch.setattr(pfchan.live, "probe_capabilities", lambda *a, **k: broken)
    spec = small_spec(backend="live", region_file=str(tmp_path / "r.bin"))
    with pytest.raises(SetupError, match="lacks required"):
        run_sweep(spec)


def test_a_live_sweep_probes_the_filesystem_its_region_file_is_on(
    monkeypatch, tmp_path
):
    # a region on tmpfs with a disk-backed temp dir would otherwise pass a
    # probe of the wrong filesystem and then read noise as a plausible BER
    scratch_dirs = []

    def probe(scratch_dir=None):
        scratch_dirs.append(scratch_dir)
        return BackendCapabilities(False, False, True)

    monkeypatch.setattr(pfchan.live, "probe_capabilities", probe)
    monkeypatch.chdir(tmp_path)
    os.mkdir("regions")
    spec = small_spec(backend="live", region_file=os.path.join("regions", "r.bin"))
    with pytest.raises(SetupError, match="lacks required"):
        run_sweep(spec)
    assert scratch_dirs == [os.path.join(os.getcwd(), "regions")]


def test_live_sweep_requires_region_file(monkeypatch):
    ready = BackendCapabilities(
        shared_readonly_mapping=True,
        cache_advice_eviction=True,
        cpu_affinity=True,
    )
    monkeypatch.setattr(pfchan.live, "probe_capabilities", lambda *a, **k: ready)
    with pytest.raises(ConfigError, match="region_file"):
        run_sweep(small_spec(backend="live"))


def test_a_sim_sweep_loads_no_executor_or_logging():
    # only a live sweep's parent loads the receiver's executor; a simulator
    # sweep, set-up and cells alike, pays for neither it nor logging
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


# -- live cell orchestration, with the child entry points replaced ----------
# The children are forked, so they run the monkeypatched entry points.

READY = BackendCapabilities(
    shared_readonly_mapping=True,
    cache_advice_eviction=True,
    cpu_affinity=True,
)
TINY = ChannelConfig(
    region_size=64 * 1024, page_gap=4, payload_bits=8, sync_period_ns=1_000_000
)


def _healthy_sender(region_path, cfg, payload, capabilities, cpu, conn):
    if capabilities is not READY:
        os._exit(9)
    sweep._ready(conn)


def _healthy_receiver(region_path, cfg, payload, capabilities, cpu, conn):
    if capabilities is not READY:
        os._exit(9)
    sweep._ready(conn)
    return run_channel_sim(cfg, SimParams(), payload)


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


def test_live_cell_starts_lead_ns_after_both_children_are_ready(monkeypatch, tmp_path):
    # the sender is slower to get ready; slot 0 must still come lead_ns
    # after the later of the two, and both must get the same epoch
    real_ready = sweep._ready

    def recording_ready(conn):
        ready_ns = time.clock_gettime_ns(time.CLOCK_REALTIME)
        epoch_ns = real_ready(conn)
        (tmp_path / f"ready-{os.getpid()}").write_text(f"{ready_ns} {epoch_ns}")
        return epoch_ns

    def slow_sender(*args):
        time.sleep(0.3)
        _healthy_sender(*args)

    monkeypatch.setattr(sweep, "_ready", recording_ready)
    monkeypatch.setattr(sweep, "_live_sender_entry", slow_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", _healthy_receiver)
    _run_tiny_cell(tmp_path)
    records = [tuple(map(int, p.read_text().split())) for p in tmp_path.glob("ready-*")]
    assert len(records) == 2
    (ready_a, epoch_a), (ready_b, epoch_b) = records
    assert epoch_a == epoch_b >= max(ready_a, ready_b) + 10_000_000


def test_live_cell_with_a_dead_sender_aborts(monkeypatch, tmp_path):
    # the sender dies after slot 0 has been fixed; the receiver still
    # reports, as one decoding noise would
    def dying_sender(*args):
        sweep._ready(args[-1])
        raise SetupError("region vanished")

    monkeypatch.setattr(sweep, "_live_sender_entry", dying_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", _healthy_receiver)
    message = r"sender child exited with code 1: SetupError\('region vanished'\)"
    with pytest.raises(RunAbort, match=message):
        _run_tiny_cell(tmp_path)


@pytest.mark.parametrize(
    "exit_code,message",
    [(5, "receiver child exited with code 5"), (0, "receiver child exited without a report")],
)
def test_live_cell_with_a_dead_receiver_aborts_fast(
    monkeypatch, tmp_path, exit_code, message
):
    def dead_receiver(*args):
        sweep._ready(args[-1])
        os._exit(exit_code)

    monkeypatch.setattr(sweep, "_live_sender_entry", _healthy_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", dead_receiver)
    start = time.monotonic()
    with pytest.raises(RunAbort, match=message):
        _run_tiny_cell(tmp_path)
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

    monkeypatch.setattr(sweep, "_live_sender_entry", _healthy_sender)
    monkeypatch.setattr(sweep, "_live_receiver_entry", _healthy_receiver)
    monkeypatch.setattr(sweep, f"_live_{role}_entry", unready)
    start = time.monotonic()
    with pytest.raises(RunAbort, match=f"live {role} {message}"):
        _run_tiny_cell(tmp_path)
    # the healthy partner is left waiting for an epoch and must not hold
    # the cell open until the budget runs out
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("usable,expected", [({0, 1}, "0 1"), ({0}, "0 None")])
def test_live_cell_pins_the_endpoints_to_distinct_cores(
    monkeypatch, tmp_path, usable, expected
):
    def recording(name, entry):
        def wrapped(region_path, cfg, payload, capabilities, cpu, conn):
            (tmp_path / name).write_text(str(cpu))
            return entry(region_path, cfg, payload, capabilities, cpu, conn)

        return wrapped

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable))
    for name, entry in (("sender", _healthy_sender), ("receiver", _healthy_receiver)):
        monkeypatch.setattr(sweep, f"_live_{name}_entry", recording(name, entry))
    _run_tiny_cell(tmp_path)
    cores = " ".join((tmp_path / name).read_text() for name in ("receiver", "sender"))
    assert cores == expected


def test_live_children_start_with_the_receivers_executor_loaded(
    monkeypatch, tmp_path
):
    # the receiver starts its accessor pool once the epoch is fixed; had it
    # to import the executor then, the import would eat into the lead. The
    # cell's parent loads it before forking, so both children inherit it.
    # This process unloads it for the cell and gets its own modules back
    def family():
        return [m for m in sys.modules if m.split(".")[0] == "concurrent"]

    def recording(name, entry):
        def wrapped(*args):
            loaded = "concurrent.futures.thread" in sys.modules
            (tmp_path / name).write_text(str(loaded))
            return entry(*args)

        return wrapped

    for name, entry in (("sender", _healthy_sender), ("receiver", _healthy_receiver)):
        monkeypatch.setattr(sweep, f"_live_{name}_entry", recording(name, entry))
    saved = {name: sys.modules.pop(name) for name in family()}
    try:
        _run_tiny_cell(tmp_path)
    finally:
        for name in family():
            del sys.modules[name]
        sys.modules.update(saved)
    loaded = [(tmp_path / name).read_text() for name in ("receiver", "sender")]
    assert loaded == ["True", "True"]


def _wait_for(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_live_children_exit_when_the_parent_dies_before_the_epoch(
    monkeypatch, tmp_path
):
    # the cell's parent is killed after both children are ready but before
    # it sends the epoch; each child must see end of file on its pipe rather
    # than wait forever on an end that it or its partner also holds
    def waiting_child(*args):
        (tmp_path / f"child-{os.getpid()}").touch()
        try:
            sweep._ready(args[-1])
        except EOFError:
            (tmp_path / f"eof-{os.getpid()}").touch()
            raise

    real_collect = sweep._collect

    def collect_then_hang(children, kind, deadline):
        got = real_collect(children, kind, deadline)
        (tmp_path / "all-ready").touch()
        time.sleep(60)
        return got

    monkeypatch.setattr(sweep, "_live_sender_entry", waiting_child)
    monkeypatch.setattr(sweep, "_live_receiver_entry", waiting_child)
    monkeypatch.setattr(sweep, "_collect", collect_then_hang)
    parent = multiprocessing.get_context("fork").Process(
        target=_run_tiny_cell, args=(tmp_path,)
    )
    parent.start()
    try:
        _wait_for((tmp_path / "all-ready").exists)
        parent.kill()
        parent.join()
        _wait_for(lambda: len(list(tmp_path.glob("eof-*"))) == 2)
        # an orphan still exiting could print its traceback after the test
        children = [int(m.name.split("-")[1]) for m in tmp_path.glob("child-*")]
        _wait_for(lambda: not any(map(_alive, children)))
    finally:
        parent.kill()
        parent.join()
        for marker in tmp_path.glob("child-*"):
            pid = int(marker.name.split("-")[1])
            if not (tmp_path / f"eof-{pid}").exists():
                os.kill(pid, signal.SIGKILL)
