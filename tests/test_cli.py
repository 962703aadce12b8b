"""End-to-end CLI runs, in process, checking exit codes and artifacts."""
from __future__ import annotations

import argparse
import errno
import os
import threading
from contextlib import nullcontext
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from conftest import READY

import pfchan.cli
import pfchan.live
import pfchan.sweep
from pfchan.cli import build_parser, main, parse_setting
from pfchan.config import ChannelConfig
from pfchan.errors import ConfigError, RunAbort
from pfchan.live import BackendCapabilities, SenderSlotLog
from pfchan.report import TransmissionReport
from pfchan.sim import SimParams

MIB = 1024 * 1024
# the CSV's columns, in order: CellResult's fields
CSV_HEADER = (
    "variable,value,repetition,seed,payload_bits,page_gap,region_bytes,"
    "sync_period_ns,ber,bandwidth_bps,indeterminate_slots"
)

SMALL = ["--region-size", str(MIB), "--sync-period-ns", "10000000"]


def fake_live_setup(monkeypatch) -> None:
    """Stand in for the region and its host check: send and receive open
    the region, here a stand-in that carries check_host's mark, then check
    it, here a check that passes. receive's set-up pins and starts its two
    workers for real; the tests stand in for the endpoints, so no worker
    ever reads the stand-in."""
    region = SimpleNamespace(host_checked=True)
    monkeypatch.setattr(pfchan.live, "open_region", lambda *a: nullcontext(region))
    monkeypatch.setattr(pfchan.live, "check_host", lambda region: None)


def run_cli(*argv) -> int:
    return main(list(argv))


def test_simulate_clean_channel(capsys):
    code = run_cli("simulate", *SMALL, "--payload-bits", "32")
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated 32 bits" in out
    assert "ber=0.0000" in out


def test_simulate_writes_csv_and_trace(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    out_trace = tmp_path / "trace.txt"
    code = run_cli(
        "simulate", *SMALL, "--payload-bits", "8",
        "--out", str(out_csv), "--trace", str(out_trace),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    trace_lines = out_trace.read_text().splitlines()
    assert len(trace_lines) == 3 * 8  # one sender, two receiver rows per slot


def test_simulate_refuses_one_file_for_out_and_trace(tmp_path, monkeypatch, capsys):
    # the trace once overwrote the CSV while both were reported as written
    monkeypatch.setattr(pfchan.cli, "run_channel_sim", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "x"
    trace = os.path.join(str(tmp_path), ".", "x")
    assert run_cli("simulate", "--bits", "01", "--out", str(out), "--trace", trace) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out and --trace name the same file")
    assert not out.exists()


def test_simulate_refuses_an_out_that_names_its_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pfchan.cli, "run_channel_sim", lambda *a, **k: pytest.fail("ran"))
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("page_gap = 8\n")
    link = tmp_path / "link.cfg"  # a second name for the same file
    link.symlink_to(cfg_file)
    argv = ["simulate", "--bits", "01", "--config", str(cfg_file), "--out", str(link)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --config and --out name the same file")
    assert cfg_file.read_text() == "page_gap = 8\n"


def test_simulate_refuses_an_out_hard_linked_to_its_config(tmp_path, monkeypatch, capsys):
    # a hard link shares no path with the config, only its inode; simulate
    # once exited 0 and replaced the config with its CSV
    monkeypatch.setattr(pfchan.cli, "run_channel_sim", lambda *a, **k: pytest.fail("ran"))
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("page_gap = 8\n")
    link = tmp_path / "out.csv"
    os.link(cfg_file, link)
    argv = ["simulate", "--bits", "01", "--config", str(cfg_file), "--out", str(link)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: --config and --out name the same file {str(link)!r}\n"
    assert cfg_file.read_text() == "page_gap = 8\n"


@pytest.mark.parametrize("command", ["send", "receive"])
def test_an_out_hard_linked_to_the_region_file_exits_1_before_any_set_up(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setattr(pfchan.live, "open_region", lambda *a: pytest.fail("opened"))
    region = tmp_path / "r.bin"
    region.write_bytes(b"short")
    os.link(region, tmp_path / "out.csv")
    argv = [command, "--epoch", "+0.2", "--bits", "01", *SMALL]
    if command == "send":
        argv.append("--create-region")
    argv += ["--region-file", str(region), "--out", str(tmp_path / "out.csv")]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: --region-file and --out name the same file")
    assert region.read_bytes() == b"short"


def test_an_out_through_a_dangling_symlink_is_left_as_it_was(tmp_path, monkeypatch, capsys):
    # the output check creates the link's target to see that it can write
    # there; a send that then fails must not leave that empty file behind
    monkeypatch.chdir(tmp_path)
    os.mkdir("missing")
    os.symlink(os.path.join("missing", "target.csv"), "dang.csv")
    argv = ["send", "--region-file", "nope/r.bin", "--epoch", "+1", "--bits", "01"]
    assert run_cli(*argv, "--out", "dang.csv") == 2
    assert "cannot open backing file 'nope/r.bin'" in capsys.readouterr().err
    assert os.readlink("dang.csv") == os.path.join("missing", "target.csv")
    assert os.listdir("missing") == []


@pytest.mark.parametrize("command", ["send", "receive", "sweep"])
def test_an_out_that_names_the_region_file_exits_1_before_any_set_up(
    tmp_path, monkeypatch, capsys, command
):
    # send once replaced its region with its CSV log, and the next receive
    # on that file exited 2 for a region too short
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: pytest.fail("probed"))
    monkeypatch.chdir(tmp_path)
    region = tmp_path / "r.bin"
    region.write_bytes(b"short")  # --create-region and a live sweep would rewrite it
    if command == "sweep":
        argv = ["sweep", "--variable", "page_gap", "--values", "8"]
    else:
        argv = [command, "--epoch", "+0.2", "--bits", "01"]
    if command == "send":
        argv.append("--create-region")
    assert run_cli(*argv, *SMALL, "--region-file", "r.bin", "--out", "./r.bin") == 1
    err = capsys.readouterr().err
    assert err == "error: --region-file and --out name the same file './r.bin'\n"
    assert region.read_bytes() == b"short"


def test_config_file_feeds_settings(tmp_path):
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text(
        "# comment line\n"
        f"region_size = {MIB}\n"
        "page_gap = 32  # trailing comment\n"
        "sync_period_ns = 10000000\n"
    )
    out_csv = tmp_path / "r.csv"
    code = run_cli(
        "simulate", "--config", str(cfg_file), "--payload-bits", "8",
        "--out", str(out_csv),
    )
    assert code == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert row[5] == "32"  # page_gap column


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text(f"region_size = {MIB}\npage_gap = 32\n")
    out_csv = tmp_path / "r.csv"
    code = run_cli(
        "simulate", "--config", str(cfg_file), "--page-gap", "16",
        "--sync-period-ns", "10000000", "--payload-bits", "8",
        "--out", str(out_csv),
    )
    assert code == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert row[5] == "16"


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("piglets = 3\n", "unknown config key"),
        ("page_gap\n", "expected key=value"),
        ("page_gap = wide\n", "expects an integer"),
        ("eviction_behavior = sometimes\n", "bad.cfg:1: eviction_behavior must be one of"),
        ("# removed knob\neviction_policy = lru\n", "bad.cfg:2: unknown config key"),
        ("page_gap = 8\nreadahead = 1\n", "bad.cfg:2: unknown config key 'readahead'"),
        ("page_gap = 8\npair_offset = 8\n", "bad.cfg:2: unknown config key 'pair_offset'"),
        ("base_page = 0\n", "bad.cfg:1: unknown config key 'base_page'"),
        ("guard_offset_ns = 5\n", "bad.cfg:1: unknown config key 'guard_offset_ns'"),
        ("page_size = 4096\n", "bad.cfg:1: unknown config key 'page_size'"),
        (None, "cannot read config file"),  # bad.cfg is a directory
        (b"\xff\xfepage_gap = 8\n", "bad.cfg': not UTF-8 text"),
    ],
)
def test_bad_config_file_exits_1(tmp_path, capsys, content, fragment):
    cfg_file = tmp_path / "bad.cfg"
    if content is None:
        cfg_file.mkdir()
    elif isinstance(content, bytes):
        cfg_file.write_bytes(content)
    else:
        cfg_file.write_text(content)
    assert run_cli("simulate", "--config", str(cfg_file)) == 1
    assert fragment in capsys.readouterr().err


def test_every_setting_has_an_override_flag():
    for f in fields(ChannelConfig) + fields(SimParams):
        text = "first-wrap" if f.name == "eviction_behavior" else "3"
        args = build_parser().parse_args(
            ["simulate", f"--{f.name.replace('_', '-')}", text]
        )
        assert getattr(args, f.name) == parse_setting(f.name, text)


def test_unknown_flag_exits_1(capsys):
    assert run_cli("simulate", "--bogus", "1") == 1
    assert "error:" in capsys.readouterr().err
    # removed along with their settings
    for flag, value in [
        ("--eviction-policy", "lru"), ("--readahead", "2"), ("--cache-capacity", "2"),
        ("--base-page", "0"), ("--pair-offset", "8"), ("--guard-offset-ns", "5"),
        ("--page-size", "4096"),
    ]:
        assert run_cli("simulate", flag, value) == 1
        assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_1():
    assert run_cli() == 1


def test_invalid_channel_geometry_exits_1(capsys):
    # a gap of 1 leaves P2 no room: a config error, not a crash
    assert run_cli("simulate", *SMALL, "--page-gap", "1") == 1
    assert "page_gap" in capsys.readouterr().err


def test_a_region_of_one_page_exits_1_naming_region_size(capsys):
    assert run_cli("simulate", "--bits", "01", "--region-size", "4096") == 1
    assert capsys.readouterr().err == (
        "error: region_size must be at least 8192 bytes, two pages for a page "
        "pair, got 4096\n"
    )


def test_literal_bit_payload(capsys):
    assert run_cli("simulate", *SMALL, "--bits", "1011") == 0
    assert "simulated 4 bits" in capsys.readouterr().out


def test_hex_payload(capsys):
    assert run_cli("simulate", *SMALL, "--payload-hex", "a5") == 0
    assert "simulated 8 bits" in capsys.readouterr().out


def test_malformed_bit_payload_exits_1(capsys):
    assert run_cli("simulate", *SMALL, "--bits", "10romeo") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--bits", ""],
        ["simulate", "--payload-hex", ""],
        ["sweep", "--variable", "page_gap", "--values", ""],
    ],
    ids=["bits", "payload-hex", "values"],
)
def test_an_empty_payload_or_grid_exits_1(monkeypatch, capsys, argv):
    # an empty flag must not fall back to a random payload or the default grid
    ran = []
    monkeypatch.setattr(pfchan.sweep, "run_channel_sim", lambda *a: ran.append(a))
    assert run_cli(*argv, *SMALL) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "simulated" not in captured.out
    assert ran == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--bits", "01", "--out"],
        ["simulate", "--bits", "01", "--trace"],
        ["sweep", "--variable", "page_gap", "--values", "8", "--out"],
    ],
    ids=["simulate-out", "simulate-trace", "sweep-out"],
)
def test_an_unwritable_output_path_exits_2_before_the_run(
    tmp_path, monkeypatch, capsys, argv
):
    ran = []
    monkeypatch.setattr(pfchan.cli, "run_channel_sim", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(pfchan.sweep, "run_channel_sim", lambda *a: ran.append(a))
    path = str(tmp_path / "absent" / "out.txt")
    assert run_cli(*argv, path, *SMALL) == 2
    err = capsys.readouterr().err
    assert err.startswith("setup error:") and path in err
    assert "Traceback" not in err
    assert ran == []


def test_the_output_check_leaves_files_as_it_found_them(tmp_path):
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    args = argparse.Namespace(config=None, out=str(fresh), trace=str(kept))
    pfchan.cli._check_writable(args, "out", "trace")
    assert not fresh.exists()
    assert kept.read_text() == "old\n"


def test_eviction_behavior_flag(capsys):
    assert run_cli(
        "simulate", *SMALL, "--payload-bits", "8",
        "--eviction-behavior", "first-wrap",
    ) == 0
    assert run_cli("simulate", *SMALL, "--eviction-behavior", "sometimes") == 1
    assert "eviction_behavior must be one of" in capsys.readouterr().err


def test_sweep_writes_grid_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--variable", "page_gap", "--values", "8,16",
        "--repetitions", "2", *SMALL, "--payload-bits", "20",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    out = capsys.readouterr().out
    assert "sweep over page_gap" in out
    assert f"wrote {out_csv}" in out


def test_sweep_bad_values_exit_1(capsys):
    assert run_cli(
        "sweep", "--variable", "page_gap", "--values", "8,none", *SMALL
    ) == 1
    # a repeated value would rerun the same cells under the same seeds
    assert run_cli(
        "sweep", "--variable", "page_gap", "--values", "8,16,8", *SMALL
    ) == 1
    assert "distinct" in capsys.readouterr().err


def test_sweep_live_without_capabilities_exits_2(tmp_path, monkeypatch, capsys):
    broken = BackendCapabilities(
        cache_advice_eviction=False,
        cpu_affinity=False,
        notes=("scratch mapping failed",),
    )
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: broken)
    code = run_cli(
        "sweep", "--variable", "page_gap", "--values", "8",
        "--region-file", str(tmp_path / "r.bin"), *SMALL,
    )
    assert code == 2
    assert "setup error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--variable", "page_gap", "--values", "8"],
        ["send", "--create-region", "--epoch", "+0", "--bits", "01"],
        ["receive", "--epoch", "+0", "--bits", "01"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_region_file_in_a_missing_directory_exits_2(tmp_path, capsys, argv):
    region = tmp_path / "absent" / "r.bin"
    assert run_cli(*argv, *SMALL, "--region-file", str(region)) == 2
    err = capsys.readouterr().err
    assert err.startswith("setup error:") and str(region) in err
    assert "lacks required capabilities" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize(
    "flag, value", [("--disk-latency", "5"), ("--eviction-behavior", "first-wrap")]
)
def test_a_live_sweep_refuses_simulator_flags(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    def no_probe(*args, **kwargs):
        raise AssertionError("probed before refusing the flag")

    monkeypatch.setattr(pfchan.live, "_probe_file", no_probe)
    argv = [command, "--variable", "page_gap", "--values", "8", "--repetitions", "1"]
    code = run_cli(*argv, flag, value, *SMALL, "--region-file", str(tmp_path / "r.bin"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert "Traceback" not in err


def test_a_page_gap_sweep_takes_its_gap_from_the_grid(tmp_path, capsys):
    # the base config takes its gap from the grid: the default gap, 64, does
    # not fit this 4-page region, and a --page-gap the sweep would ignore is
    # refused by name
    small = ["--region-size", "16384", "--payload-bits", "8"]
    argv = ["sweep", "--variable", "page_gap", "--values", "2,4", *small]
    assert run_cli(*argv) == 0
    assert "sweep over page_gap" in capsys.readouterr().out
    assert run_cli(*argv, "--page-gap", "2") == 1
    assert capsys.readouterr().err == (
        "error: --page-gap is the swept setting; --values gives it\n"
    )
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("page_gap = 64\n")  # a config file may still hold it
    assert run_cli(*argv, "--config", str(cfg_file)) == 0


def test_a_bit_rate_sweep_takes_its_period_from_the_grid(tmp_path, capsys):
    # a rate sets each cell's period, so a period flag is refused by name and
    # a config file's is passed over, even one, as here, that no config takes
    argv = ["sweep", "--variable", "bit_rate", "--values", "100", *SMALL[:2]]
    assert run_cli(*argv, "--payload-bits", "8", "--sync-period-ns", "1") == 1
    assert capsys.readouterr().err == (
        "error: --sync-period-ns is the swept setting; --values gives it\n"
    )
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("sync_period_ns = 1\npayload_bits = 8\n")
    assert run_cli(*argv, "--config", str(cfg_file)) == 0
    assert capsys.readouterr().out.splitlines()[2].split() == ["100", "0.0000", "100.0"]


def test_calibrate_reports_best_gap(capsys):
    # calibrating is a page_gap sweep; no other variable names a best value
    code = run_cli(
        "sweep", "--variable", "page_gap", "--values", "8,16", "--repetitions", "1",
        *SMALL, "--payload-bits", "20",
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "best page_gap: 16"
    assert run_cli("sweep", "--variable", "payload_bits", "--values", "20", *SMALL) == 0
    assert "best" not in capsys.readouterr().out


def test_the_calibrate_subcommand_is_gone(capsys):
    assert run_cli("calibrate", "--values", "8,16") == 1
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


UNPINNED_NOTE = "note: one usable core, so the live sender shared the receiver's core"


@pytest.mark.parametrize("command", ["sweep", "send"])
@pytest.mark.parametrize(
    "backend, cores, notes", [("live", {0}, 1), ("live", {0, 1}, 0), ("sim", {0}, 0)]
)
def test_live_runs_say_when_the_sender_shared_the_receivers_core(
    tmp_path, monkeypatch, capsys, command, backend, cores, notes
):
    # the live cells run as sim cells and send's slots are stood in for, so
    # no live host is needed. A send given --cpu takes the place of a sim
    # sweep: no core of pfchan's choosing to note
    run_sim = pfchan.sweep.run_sweep

    def fake_run_sweep(spec):
        return run_sim(replace(spec, backend="sim"))

    monkeypatch.setattr(pfchan.cli, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(pfchan.sweep, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", lambda *a, **kw: [])
    if command == "send":
        argv = [command, "--region-file", "unused", "--epoch", "+0"]
        if backend == "sim":
            argv += ["--cpu", "0"]
    else:
        argv = [command, "--variable", "page_gap", "--values", "8,16", "--repetitions", "1"]
        if backend == "live":
            argv += ["--region-file", str(tmp_path / "r.bin")]
    code = run_cli(*argv, *SMALL, "--payload-bits", "20")
    assert code == 0
    assert capsys.readouterr().out.splitlines().count(UNPINNED_NOTE) == notes


def test_probe_prints_capability_report(capsys):
    code = run_cli("probe")
    assert code in (0, 2)
    out = capsys.readouterr().out
    flags = [line.split(":")[0] for line in out.splitlines()[:2]]
    assert flags == ["cache_advice_eviction", "cpu_affinity"]
    assert all(line.startswith("note: ") for line in out.splitlines()[2:])
    assert "assumed" not in out


def test_report_csv_reflects_actual_payload(tmp_path):
    # an explicit 4-bit payload must show up as 4 in the row, not as the
    # configured default payload size
    out_csv = tmp_path / "r.csv"
    assert run_cli(
        "simulate", *SMALL, "--bits", "1011", "--out", str(out_csv)
    ) == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert row[1] == "4"  # value column
    assert row[4] == "4"  # payload_bits column


@pytest.mark.parametrize(
    "command, payload, seed",
    [
        ("simulate", ["--payload-bits", "4"], "7"),
        ("simulate", ["--bits", "0110"], ""),
        ("simulate", ["--payload-hex", "6"], ""),
        ("receive", ["--blind", "--payload-bits", "4"], ""),
    ],
    ids=["drawn", "literal", "hex", "blind"],
)
def test_a_report_row_names_its_seed_only_when_its_payload_was_drawn_from_it(
    tmp_path, monkeypatch, command, payload, seed
):
    # random_payload(7, 4) is [1, 0, 1, 0], so a seed cell of 7 beside the
    # payload 0110 would name a seed that does not reproduce it
    fake_live_setup(monkeypatch)
    report = TransmissionReport.build(None, [0, 1, 1, 0], 4_000_000)
    monkeypatch.setattr(pfchan.live, "spy_receive", lambda *a, **kw: report)
    out_csv = tmp_path / "r.csv"
    argv = [command, *payload, "--seed", "7", "--out", str(out_csv)]
    if command == "receive":
        argv += ["--region-file", "unused", "--epoch", "+0"]
    assert run_cli(*argv) == 0
    row = dict(zip(CSV_HEADER.split(","), out_csv.read_text().splitlines()[1].split(",")))
    assert (row["payload_bits"], row["seed"]) == ("4", seed)


def test_send_creates_region_on_request(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pfchan.live, "_probe_file", lambda *a, **k: READY)
    region = tmp_path / "region.bin"
    code = run_cli(
        "send", *SMALL, "--page-gap", "8",
        "--region-file", str(region), "--create-region",
        "--epoch", "+0.05", "--bits", "10110100",
        "--sync-period-ns", "5000000",
    )
    assert code == 0
    assert region.stat().st_size == MIB
    assert "sent 8 bits" in capsys.readouterr().out


def test_send_rejects_bad_epoch(tmp_path, capsys):
    code = run_cli(
        "send", *SMALL, "--region-file", str(tmp_path / "r.bin"),
        "--epoch", "teatime",
    )
    assert code == 1
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["send", "receive"])
@pytest.mark.parametrize("epoch", ["+nan", "+inf", "+1e400", "+-5"])
def test_an_epoch_offset_with_no_integer_value_exits_1(tmp_path, capsys, command, epoch):
    code = run_cli(
        command, "--region-file", str(tmp_path / "r.bin"), "--epoch", epoch,
        "--bits", "01",
    )
    assert code == 1
    assert f"got {epoch!r}" in capsys.readouterr().err


def test_epoch_offsets_count_from_the_live_endpoints_clock(monkeypatch):
    monkeypatch.setattr(pfchan.live, "_now_ns", lambda: 5)
    assert pfchan.cli._parse_epoch("+2") == 2_000_000_005
    assert pfchan.cli._parse_epoch("17") == 17
    assert pfchan.cli._parse_epoch("5") == 5
    # an epoch in the past would make every slot overrun and still report
    with pytest.raises(ConfigError, match="epoch offset must be >= 0"):
        pfchan.cli._parse_epoch("+-5")
    with pytest.raises(ConfigError, match="epoch '4' has already passed"):
        pfchan.cli._parse_epoch("4")


@pytest.mark.parametrize("command", ["send", "receive"])
@pytest.mark.parametrize("epoch", ["+1e30", str(10**30)])
def test_an_epoch_further_than_the_platform_can_wait_exits_1(
    tmp_path, monkeypatch, capsys, command, epoch
):
    # it once wrote the region, probed and pinned, and then died in the wait
    # with an OverflowError traceback and exit code 1
    monkeypatch.setattr(pfchan.live, "open_region", lambda *a: pytest.fail("opened"))
    monkeypatch.setattr(
        pfchan.live, "_probe_file", lambda *a, **k: pytest.fail("probed")
    )
    region = tmp_path / "r.bin"
    argv = [command, "--region-file", str(region), "--epoch", epoch, "--bits", "01"]
    if command == "send":
        argv.append("--create-region")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: epoch {epoch!r} is more than")
    assert "further than this platform can wait" in err
    assert not region.exists()


def test_the_furthest_epoch_is_the_platforms_longest_wait(monkeypatch):
    monkeypatch.setattr(pfchan.live, "_now_ns", lambda: 5)
    furthest = 5 + int(threading.TIMEOUT_MAX * 1e9)
    assert pfchan.cli._parse_epoch(str(furthest)) == furthest
    assert pfchan.cli._parse_epoch(f"+{threading.TIMEOUT_MAX}") == furthest
    with pytest.raises(ConfigError, match="further than this platform can wait"):
        pfchan.cli._parse_epoch(str(furthest + 1))


@pytest.mark.parametrize("command", ["send", "receive"])
def test_an_absolute_epoch_that_has_passed_exits_1(monkeypatch, capsys, command):
    # a receive against a stale epoch once printed a BER and exited 0
    endpoint = "trojan_send" if command == "send" else "spy_receive"
    monkeypatch.setattr(pfchan.live, "open_region", lambda *a: pytest.fail("opened"))
    monkeypatch.setattr(pfchan.live, endpoint, lambda *a, **kw: pytest.fail("ran"))
    code = run_cli(
        command, "--region-file", "unused", "--epoch", "1", "--bits", "0110"
    )
    assert code == 1
    assert "epoch '1' has already passed" in capsys.readouterr().err


def _sim_flag(f) -> list[str]:
    return [
        f"--{f.name.replace('_', '-')}",
        "first-wrap" if f.name == "eviction_behavior" else "3",
    ]


@pytest.mark.parametrize(
    "argv",
    [[command, *_sim_flag(f)] for command in ("send", "receive") for f in fields(SimParams)]
    + [
        ["probe", "--seed", "3"],
        ["probe", "--config", "x"],
        ["probe", "--out", "x"],
        ["receive", "--blind", "--n-bits", "4"],
        ["sweep", "--variable", "page_gap", "--backend", "live"],
    ],
    ids=" ".join,
)
def test_a_flag_the_subcommand_would_ignore_exits_1(capsys, argv):
    # the live endpoints read no simulator setting, probe takes no flag; a blind
    # receive is --payload-bits long, and a sweep with --region-file is live
    if argv[0] in ("send", "receive"):
        argv = [*argv, "--region-file", "unused", "--epoch", "0"]
    assert run_cli(*argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [["--bits", "0101"], ["--payload-hex", "5"]])
def test_a_blind_receive_takes_no_payload_flag(capsys, payload):
    # a blind receive is --payload-bits long; a payload would be a second length
    code = run_cli(
        "receive", "--region-file", "unused", "--epoch", "0", "--blind", *payload
    )
    assert code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "send", "receive"])
@pytest.mark.parametrize("payload", [["--bits", "0110"], ["--payload-hex", "6"]])
def test_payload_bits_next_to_a_payload_flag_exits_1(monkeypatch, capsys, command, payload):
    # the payload fixes the length; the flag used to be dropped without a word
    monkeypatch.setattr(pfchan.cli, "run_channel_sim", lambda *a, **k: pytest.fail("ran"))
    monkeypatch.setattr(pfchan.live, "open_region", lambda *a: pytest.fail("opened"))
    argv = [command, *payload, "--payload-bits", "50"]
    if command != "simulate":
        argv += ["--region-file", "unused", "--epoch", "+0"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --payload-bits: not allowed with argument {payload[0]}\n"
    )


def test_a_config_file_may_set_payload_bits_next_to_bits(tmp_path, capsys):
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("payload_bits = 50\n")
    assert run_cli("simulate", *SMALL, "--config", str(cfg_file), "--bits", "0110") == 0
    assert "simulated 4 bits" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["send", "receive", "sweep"])
def test_a_system_call_that_fails_during_a_run_exits_3(
    tmp_path, monkeypatch, capsys, command
):
    # a failed advice, madvise, fork or pipe call raises OSError; it once
    # escaped main as a traceback with exit code 1, the usage-error code
    def fail(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", fail)
    monkeypatch.setattr(pfchan.live, "spy_receive", fail)
    monkeypatch.setattr(pfchan.live, "run_pair", fail)
    region = str(tmp_path / "r.bin")
    if command == "sweep":
        argv = ["sweep", "--variable", "page_gap", "--values", "8", *SMALL]
    else:
        argv = [command, "--epoch", "+0", "--bits", "01"]
    assert run_cli(*argv, "--region-file", region) == 3
    assert capsys.readouterr().err == "aborted: [Errno 5] Input/output error\n"


def test_send_reads_a_config_file_that_also_holds_sim_keys(tmp_path, monkeypatch, capsys):
    # a live command reads no simulator setting, so one the simulator would
    # refuse stops only simulate; it once stopped send, receive and a live
    # sweep before any set-up
    cfg_file = tmp_path / "chan.cfg"
    cfg_file.write_text("page_gap = 32\ndisk_latency = 5\nmem_latency = 0\n")
    gaps = []
    report = TransmissionReport.build([0, 1], [0, 1], 1)

    def ran(cfg, result):
        gaps.append(cfg.page_gap)
        return result

    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", lambda region, cfg, *a: ran(cfg, []))
    monkeypatch.setattr(pfchan.live, "spy_receive", lambda acc, cfg, *a: ran(cfg, report))
    monkeypatch.setattr(pfchan.live, "run_pair", lambda cfg, *a: ran(cfg, report))
    monkeypatch.setattr(pfchan.live, "create_backing_file", lambda *a: None)
    region = ["--region-file", "unused", "--config", str(cfg_file)]
    endpoint = [*region, "--epoch", "+0", "--bits", "01"]
    for argv in (
        ["send", *endpoint],
        ["receive", *endpoint],
        ["sweep", "--variable", "payload_bits", "--values", "2", *region],
    ):
        assert run_cli(*argv) == 0
    assert gaps == [32, 32, 32]
    capsys.readouterr()
    assert run_cli("simulate", "--config", str(cfg_file), "--bits", "01") == 1
    assert capsys.readouterr().err == "error: mem_latency must be at least 1, got 0\n"


def test_send_without_region_file_exits_2(tmp_path, capsys):
    code = run_cli(
        "send", *SMALL, "--region-file", str(tmp_path / "absent.bin"),
        "--epoch", "+0.1",
    )
    assert code == 2
    assert "setup error" in capsys.readouterr().err


def test_send_log_csv_has_one_column_per_log_field(tmp_path, monkeypatch):
    log = [
        SenderSlotLog(0, 0, 32, 32, 10, 11, 12, None, False),
        SenderSlotLog(1, 64, 96, 64, 20, 25, 29, False, True),
    ]
    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", lambda *a, **kw: log)
    out_csv = tmp_path / "sender.csv"
    code = run_cli(
        "send", "--region-file", "unused", "--epoch", "+0", "--bits", "01",
        "--out", str(out_csv),
    )
    assert code == 0
    assert out_csv.read_text().splitlines() == [
        "slot,p1,p2,target,deadline_ns,start_ns,end_ns,evict_confirmed,overrun",
        "0,0,32,32,10,11,12,,0",
        "1,64,96,64,20,25,29,0,1",
    ]


@pytest.mark.parametrize(
    "confirmed, evictions",
    [
        ((True, False, False), "2 unconfirmed evictions"),
        ((True, True, True), "0 unconfirmed evictions"),
        ((None, None, None), "evictions not verified (mincore cannot report on this file)"),
    ],
)
def test_send_counts_unconfirmed_evictions_only_where_mincore_reports(
    monkeypatch, capsys, confirmed, evictions
):
    log = [
        SenderSlotLog(k, 0, 32, 32, 10, 11, 12, ok, k == 0)
        for k, ok in enumerate(confirmed)
    ]
    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", lambda *a, **kw: log)
    assert run_cli("send", "--region-file", "unused", "--epoch", "+0", "--bits", "011") == 0
    assert capsys.readouterr().out == f"sent 3 bits: 1 deadline overruns, {evictions}\n"


def _endpoint_masks(monkeypatch, command, *runs) -> list[set[int]]:
    """The affinity mask the endpoint found in each run of the command, one
    run per list of extra flags."""
    masks = []

    def endpoint(*args, **kwargs):
        masks.append(os.sched_getaffinity(0))
        return [] if command == "send" else TransmissionReport.build([0, 1], [0, 1], 1)

    fake_live_setup(monkeypatch)
    endpoint_name = "trojan_send" if command == "send" else "spy_receive"
    monkeypatch.setattr(pfchan.live, endpoint_name, endpoint)
    argv = [command, "--region-file", "unused", "--epoch", "+0", "--bits", "01"]
    for flags in runs:
        assert run_cli(*argv, *flags) == 0
    return masks


def test_send_cpu_flag_pins_the_sender(monkeypatch, three_cores):
    # with no --cpu the sender runs where a sweep's sender runs, on the
    # second usable core, off the receiver's
    mask, _ = three_cores
    masks = _endpoint_masks(monkeypatch, "send", [], ["--cpu", "2"])
    assert masks == [{1}, {2}]
    assert mask == {0, 1, 2}


def test_receive_pins_to_its_cpu_flag_or_the_lowest_usable_core(
    monkeypatch, three_cores
):
    mask, _ = three_cores
    masks = _endpoint_masks(monkeypatch, "receive", [], ["--cpu", "2"])
    assert masks == [{pfchan.live.live_cpus()[0]}, {2}]
    assert mask == {0, 1, 2}


@pytest.mark.parametrize("command", ["send", "receive"])
def test_an_endpoint_that_aborts_leaves_the_mask_as_it_found_it(
    monkeypatch, capsys, three_cores, command
):
    mask, pins = three_cores

    def abort(*args, **kwargs):
        raise RunAbort("stopped in slot 3")

    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", abort)
    monkeypatch.setattr(pfchan.live, "spy_receive", abort)
    argv = [command, "--region-file", "unused", "--epoch", "+0", "--bits", "01"]
    assert run_cli(*argv, "--cpu", "1") == 3
    assert capsys.readouterr().err == "aborted: stopped in slot 3\n"
    assert pins == [{1}, {0, 1, 2}] and mask == {0, 1, 2}


@pytest.mark.parametrize("command", ["send", "receive"])
def test_a_cpu_flag_naming_no_core_exits_2(monkeypatch, capsys, three_cores, command):
    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "trojan_send", lambda *a, **kw: pytest.fail("sent"))
    monkeypatch.setattr(pfchan.live, "spy_receive", lambda *a, **kw: pytest.fail("ran"))
    argv = [command, "--region-file", "unused", "--epoch", "+0", "--bits", "01"]
    assert run_cli(*argv, "--cpu", "4095") == 2
    who = "sender" if command == "send" else "receiver"
    assert capsys.readouterr().err.startswith(f"setup error: cannot pin {who} to one core")


def receive_csv(tmp_path, monkeypatch, report, *argv) -> list[str]:
    fake_live_setup(monkeypatch)
    monkeypatch.setattr(pfchan.live, "spy_receive", lambda *a, **kw: report)
    out_csv = tmp_path / "receiver.csv"
    code = run_cli(
        "receive", "--region-file", "unused", "--epoch", "+0", *argv,
        "--out", str(out_csv),
    )
    assert code == 0
    return out_csv.read_text().splitlines()


def test_blind_receive_leaves_the_ber_cell_empty(tmp_path, monkeypatch):
    report = TransmissionReport.build(None, [1, 0, None, 1], 4_000_000)
    assert receive_csv(
        tmp_path, monkeypatch, report, "--blind", "--payload-bits", "4"
    ) == [CSV_HEADER, "payload_bits,4,0,,4,64,33554432,20000000,,1000.0,1"]


def test_receive_with_ground_truth_writes_its_ber(tmp_path, monkeypatch):
    report = TransmissionReport.build([1, 0, 1, 1], [1, 0, None, 1], 4_000_000)
    assert receive_csv(tmp_path, monkeypatch, report, "--bits", "1011") == [
        CSV_HEADER,
        "payload_bits,4,0,,4,64,33554432,20000000,0.25,1000.0,1",
    ]


def test_probe_and_send_exit_2_without_posix_fadvise(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "posix_fadvise")
    assert run_cli("probe") == 2
    captured = capsys.readouterr()
    assert "cache_advice_eviction:   False" in captured.out
    assert "posix_fadvise" in captured.out
    assert "Traceback" not in captured.err
    code = run_cli(
        "send", *SMALL, "--region-file", str(tmp_path / "r.bin"), "--create-region",
        "--epoch", "+0", "--bits", "01",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("setup error:") and "posix_fadvise" in err
    assert "Traceback" not in err
