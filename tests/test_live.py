"""OS backend: region mapping, capability probing, schedule discipline and
the forked sender/receiver pair.

Everything here runs on any Linux box without special privileges. Timing
assertions are deliberately loose; correctness of the decode logic itself
is covered by the simulator tests, which share the protocol code.
"""
from __future__ import annotations

import ctypes
import errno
import fcntl
import inspect
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import resource
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock

import pytest
from conftest import READY, TINY, checked, healthy_receiver, healthy_sender

from pfchan import live
from pfchan.config import PAGE_SIZE, ChannelConfig
from pfchan.cli import main
from pfchan.errors import ConfigError, RunAbort, SetupError
from pfchan.live import (
    BackendCapabilities,
    SharedRegion,
    create_backing_file,
    evict_pair,
    live_cpus,
    open_region,
    probe_capabilities,
    spy_receive,
    trojan_send,
)
from pfchan.protocol import ObservedOrder, PagePair, encode_target, page_pair_for_slot
from pfchan.report import random_payload
from pfchan.sim import SimParams, run_channel_sim
from pfchan.sweep import SweepSpec, run_sweep

NOT_READY = BackendCapabilities(
    cache_advice_eviction=False,
    cpu_affinity=True,
    notes=("advice probe failed",),
)


def small_cfg(pages=64, **kw) -> ChannelConfig:
    defaults = dict(
        region_size=pages * PAGE_SIZE, page_gap=8, sync_period_ns=5_000_000
    )
    defaults.update(kw)
    return ChannelConfig(**defaults)


@pytest.fixture
def region_file(tmp_path):
    path = str(tmp_path / "region.bin")
    create_backing_file(path, 64 * PAGE_SIZE)
    return path


@pytest.fixture
def one_core():
    """The test's thread pinned to one core, as the receiver's caller must be."""
    with live._pinned(live_cpus()[0], "test"):
        yield


def receive(region, cfg, epoch_ns, expected=None):
    """spy_receive on the workers of _accessors(region), opened here as
    every receiver's caller opens them, before the receive."""
    with live._accessors(region) as accessors:
        return spy_receive(region, accessors, cfg, epoch_ns, expected=expected)


def test_create_backing_file_size_and_pattern(tmp_path):
    path = str(tmp_path / "r.bin")
    create_backing_file(path, 10 * PAGE_SIZE)
    assert os.path.getsize(path) == 10 * PAGE_SIZE
    with open(path, "rb") as fh:
        data = fh.read(512)
    assert data == bytes(i % 256 for i in range(512))


def test_create_backing_file_is_idempotent(region_file):
    before = os.path.getmtime(region_file)
    assert create_backing_file(region_file, 64 * PAGE_SIZE) == region_file
    assert os.path.getmtime(region_file) == before


@pytest.mark.parametrize("making", ["truncate", "fallocate", "half-written", "short"])
def test_create_backing_file_writes_over_a_file_with_a_hole(tmp_path, making):
    # a file long enough but with a hole in it was once kept as it was, so
    # send --create-region and a live sweep never repaired it; SEEK_HOLE
    # reads the end of a file too short as a hole as well
    size = 16 * PAGE_SIZE
    path = str(tmp_path / "r.bin")
    with open(path, "wb") as fh:
        if making in ("half-written", "short"):
            fh.write(bytes(size // 2))
        if making != "short":
            fh.truncate(2 * size)
        if making == "fallocate":
            os.posix_fallocate(fh.fileno(), 0, 2 * size)
    fd = os.open(path, os.O_RDONLY)
    hole = os.lseek(fd, 0, os.SEEK_HOLE)
    os.close(fd)
    if hole >= size:
        pytest.skip("this filesystem reports no hole in the file")
    assert create_backing_file(path, size) == path
    assert os.path.getsize(path) == size
    fd = os.open(path, os.O_RDONLY)
    try:
        assert os.lseek(fd, 0, os.SEEK_HOLE) >= size
        assert os.pread(fd, 512, 0) == bytes(i % 256 for i in range(512))
    finally:
        os.close(fd)
    with open_region(path, small_cfg(pages=16)) as region:
        assert region.page_count == 16


def test_create_backing_file_in_a_missing_directory_is_a_setup_error(tmp_path):
    path = str(tmp_path / "absent" / "r.bin")
    with pytest.raises(SetupError, match=f"cannot write backing file {path!r}"):
        create_backing_file(path, PAGE_SIZE)


def test_create_backing_file_rejects_bad_size(tmp_path):
    with pytest.raises(ConfigError):
        create_backing_file(str(tmp_path / "r.bin"), 0)


def test_open_region_missing_file(tmp_path):
    with pytest.raises(SetupError, match="backing file"):
        open_region(str(tmp_path / "absent.bin"), small_cfg())


def test_open_region_unreadable_file(region_file, monkeypatch):
    # root reads any file, so the refusal is driven through os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: mode != os.R_OK)
    with pytest.raises(SetupError, match="not readable by this process"):
        open_region(region_file, small_cfg())


def test_open_region_too_small(tmp_path, region_file):
    with pytest.raises(SetupError, match="grow the file"):
        open_region(region_file, small_cfg(pages=128))


def test_open_region_page_count(region_file):
    cfg = small_cfg()
    with open_region(region_file, cfg) as region:
        assert region.page_count == 64
        assert region.page_count == cfg.region_pages


def test_read_byte_matches_file_content(region_file):
    with open_region(region_file, small_cfg()) as region:
        # the backing pattern cycles every 256 bytes, so page k starts at
        # byte value (k * PAGE_SIZE) % 256 == 0
        assert region.read_byte(0) == 0
        assert region.read_byte(5) == 0
        with pytest.raises(ConfigError):
            region.read_byte(64)


def test_region_close_is_reentrant(region_file):
    region = open_region(region_file, small_cfg())
    region.close()
    region.close()


def test_every_page_access_on_a_closed_region_is_a_config_error(region_file):
    # read_byte on a closed region once read the unmapped address and killed
    # the interpreter, and the other calls each failed their own way; a child
    # runs them, so a crash fails this test instead of the run
    src = str(Path(live.__file__).resolve().parents[1])
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        from pfchan import live
        from pfchan.config import ChannelConfig
        from pfchan.errors import ConfigError
        region = live.open_region({region_file!r}, ChannelConfig(region_size=65536, page_gap=8))
        region.close()
        for call in (region.read_byte, region.load_byte, region.drop_mapping,
                     region.advise_dontneed, region.residency):
            try:
                call(1)
            except ConfigError as exc:
                print(call.__name__, exc)
    """)
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    names = ("read_byte", "load_byte", "drop_mapping", "advise_dontneed", "residency")
    assert result.stdout.splitlines() == [
        f"{name} cannot reach page 1: the region is closed" for name in names
    ]


@pytest.mark.parametrize("making", ["truncate", "fallocate", "half-written"])
def test_a_region_file_with_a_hole_is_refused_naming_the_hole(
    tmp_path, monkeypatch, capsys, making
):
    # a read of a hole or an unwritten extent takes no disk fetch, yet the
    # probe's mapped read still counts one major fault: such a file once
    # passed the host check and read BER 0.54 through run_pair
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: pytest.fail("probed"))
    size = 16 * PAGE_SIZE
    path = str(tmp_path / "r.bin")
    with open(path, "wb") as fh:
        if making == "half-written":
            fh.write(bytes(size // 2))
        fh.truncate(size)
        if making == "fallocate":
            os.posix_fallocate(fh.fileno(), 0, size)
    fd = os.open(path, os.O_RDONLY)
    hole = os.lseek(fd, 0, os.SEEK_HOLE)
    os.close(fd)
    if hole >= size:
        pytest.skip("this filesystem reports no hole in the file")
    message = f"backing file {path!r} has a hole at byte {hole}"
    with pytest.raises(SetupError, match=message):
        open_region(path, small_cfg(pages=16))
    argv = ["send", "--region-file", path, "--region-size", str(size), "--page-gap", "8"]
    assert main([*argv, "--epoch", "+1", "--bits", "01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"setup error: {message}") and "write the file out in full" in err
    # --create-region writes the file out in full, so the host check is
    # what runs next, here one that refuses
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: NOT_READY)
    assert main([*argv, "--create-region", "--epoch", "+1", "--bits", "01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("setup error: live backend lacks required capabilities")
    fd = os.open(path, os.O_RDONLY)
    assert os.lseek(fd, 0, os.SEEK_HOLE) >= size
    os.close(fd)


def test_residency_where_mincore_cannot_report_still_checks_the_page(region_file):
    # it once returned None before any check, so a closed region or a page
    # outside the region read as "cannot report" instead of a usage error
    region = open_region(region_file, small_cfg(pages=16))
    region._mincore_reports = False
    assert region.residency(3, 15) is None
    with pytest.raises(ConfigError, match="page 999 outside region of 16 pages"):
        region.residency(3, 999)
    region.close()
    with pytest.raises(ConfigError, match="cannot reach page 1: the region is closed"):
        region.residency(1)


def test_region_set_up_failure_releases_the_fd_and_mapping(region_file, monkeypatch):
    # probe_capabilities catches set-up errors and keeps running, so a
    # failure after the mapping exists must not leak it
    def refuse(*args):
        raise OSError(22, "advice refused")

    monkeypatch.setattr(os, "posix_fadvise", refuse)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="advice refused"):
        open_region(region_file, small_cfg())
    assert len(os.listdir("/proc/self/fd")) == fds
    with open("/proc/self/maps") as maps:
        assert region_file not in maps.read()


def test_load_byte_past_the_end_of_a_file_truncated_after_open_is_an_abort(region_file):
    with open_region(region_file, small_cfg()) as region:
        os.truncate(region_file, 10 * PAGE_SIZE)
        assert region.load_byte(9) == 0
        with pytest.raises(RunAbort, match="short read at page 10"):
            region.load_byte(10)


def test_evict_pair_shape(region_file):
    with open_region(region_file, small_cfg()) as region:
        region.read_byte(3)
        region.read_byte(11)
        confirmed = evict_pair(region, PagePair(p1=3, p2=11, slot=0))
    # confirmation depends on the filesystem honoring the advice; tmpfs
    # ignores it. The test owns the file, so mincore reports: never None
    assert confirmed in (True, False)


def test_residency_sees_a_page_arrive_and_leave(tmp_path, region_file):
    if not probe_capabilities(scratch_dir=str(tmp_path)).transmission_ready():
        pytest.skip("eviction advice is not honored on this filesystem")
    with open_region(region_file, small_cfg()) as region:
        region.load_byte(5)
        region.load_byte(9)
        assert region.residency(5, 9) == [True, True]
        region.advise_dontneed(9)
        assert region.residency(5, 9) == [True, False]
        # a check that started readahead would have brought the page back
        # by now and made the eviction it confirms untrue
        time.sleep(0.05)
        assert region.residency(9) == [False]
        with pytest.raises(ConfigError):
            region.residency(64)


def test_probe_capabilities_never_raises(tmp_path):
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert isinstance(caps, BackendCapabilities)
    assert isinstance(caps.transmission_ready(), bool)
    assert all(isinstance(n, str) for n in caps.notes)
    text = caps.summary()
    for key in ("cache_advice_eviction", "cpu_affinity"):
        assert key in text


def test_probe_capabilities_on_unwritable_scratch():
    caps = probe_capabilities(scratch_dir="/nonexistent/nowhere")
    assert caps.cache_advice_eviction is False
    assert caps.transmission_ready() is False
    assert any(n.startswith("scratch file setup failed:") for n in caps.notes)


def test_probe_capabilities_survives_a_scratch_file_it_cannot_write(
    tmp_path, monkeypatch
):
    def refuse(path, size):
        raise SetupError(f"cannot write backing file {path!r}: No space left")

    monkeypatch.setattr(live, "create_backing_file", refuse)
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert caps.transmission_ready() is False
    assert any(n.startswith("scratch file setup failed: cannot write") for n in caps.notes)


def test_the_probe_leaves_affinity_as_it_found_it(tmp_path, three_cores):
    mask, pins = three_cores
    assert probe_capabilities(scratch_dir=str(tmp_path)).cpu_affinity is True
    assert pins == [{0}, {0, 1, 2}]
    assert mask == {0, 1, 2}


def test_a_probe_that_cannot_pin_reports_it_and_does_not_raise(tmp_path, monkeypatch):
    def refuse(pid, cpus):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert caps.cpu_affinity is False
    assert caps.transmission_ready() is False
    assert any(n.startswith("cpu affinity control failed:") for n in caps.notes)


def test_the_probe_locks_the_file_between_its_advice_and_its_read(
    region_file, monkeypatch
):
    # a second probe of the same file, a sender's and a receiver's started
    # together, must not read page 0 back between this probe's advice and
    # its read; it waits on the lock instead
    other = os.open(region_file, os.O_RDONLY)

    def try_lock():
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(other, fcntl.LOCK_UN)

    def faults():
        with pytest.raises(BlockingIOError):
            try_lock()
        blocked.append(True)
        return 0

    blocked = []
    monkeypatch.setattr(live, "_major_faults", faults)
    try:
        with open_region(region_file, small_cfg()) as region:
            live._probe_file(region)
            assert blocked == [True, True]
            # the region stays open for the transmission, but the lock is
            # released: a kept lock would hold the other endpoint's probe
            # off until this process exits
            try_lock()
    finally:
        os.close(other)


def test_a_probe_that_cannot_lock_the_file_notes_it_and_goes_on(
    region_file, monkeypatch
):
    def refuse(fd, op):
        raise OSError(errno.ENOLCK, "No locks available")

    monkeypatch.setattr(fcntl, "flock", refuse)
    monkeypatch.setattr(live, "_major_faults", Mock(side_effect=[0, 1]))
    with open_region(region_file, small_cfg()) as region:
        caps = live._probe_file(region)
    assert caps.cache_advice_eviction
    assert any(n.startswith("cannot lock the file against another probe:") for n in caps.notes)


def test_capabilities_state_two_observed_flags_and_need_each():
    flags = ("cache_advice_eviction", "cpu_affinity")
    assert tuple(f.name for f in fields(BackendCapabilities)) == (*flags, "notes")
    assert READY.transmission_ready() is True
    for flag in flags:
        assert replace(READY, **{flag: False}).transmission_ready() is False
    lines = READY.summary().splitlines()
    assert [line.split(":")[0] for line in lines] == list(flags)
    assert "assumed" not in READY.summary()


@pytest.mark.parametrize("failing", ["t1", "t2"])
def test_a_dead_accessor_aborts_the_probe_naming_its_slot(
    region_file, monkeypatch, one_core, failing
):
    # a read that never finishes leaves no order to decode; its worker
    # reports the error in its place, so the probe returns either way
    bad_page = {"t1": 4, "t2": 8}[failing]

    def read_byte(self, page):
        if page == bad_page:
            raise OSError(14, "bad address")
        return 0

    monkeypatch.setattr(SharedRegion, "read_byte", read_byte)
    before = threading.enumerate()
    with checked(open_region(region_file, small_cfg())) as region:
        with live._accessors(region) as accessors:
            with pytest.raises(RunAbort, match="accessor read failed in slot 7") as raised:
                live._probe_pair(accessors, PagePair(p1=4, p2=8, slot=7))
            assert isinstance(raised.value.__cause__, OSError)
            # the error is per slot: the next probe starts clean
            monkeypatch.setattr(SharedRegion, "read_byte", lambda self, page: 0)
            order = live._probe_pair(accessors, PagePair(p1=4, p2=8, slot=8))
            assert order in (ObservedOrder.T1_LAST, ObservedOrder.T2_LAST)
    assert threading.enumerate() == before


def test_decode_path_reads_no_clock():
    # The receiver decides bits from completion order alone. Hold the probe
    # routine and the worker that serves its reads to that: no clock or
    # timer call appears in either's source.
    source = inspect.getsource(live._probe_pair) + inspect.getsource(live._accessor)
    assert "read_byte(page)" in source
    for token in ("time.", "_now_ns", "clock_gettime", "perf_counter", "monotonic"):
        assert token not in source, token


def test_importing_the_live_backend_loads_no_executor_or_logging(tmp_path):
    """Every importer of pfchan.live pays for what it imports, a process
    that never receives included, and a receive imports nothing: its caller
    starts the workers, plain threads, before the epoch. One line each,
    after the import and after a two-slot receive."""
    src = str(Path(live.__file__).resolve().parents[1])
    loaded = "print(' '.join(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import pfchan.live as live
        {loaded}
        from pfchan.config import ChannelConfig
        cfg = ChannelConfig(
            region_size=65536, page_gap=4, payload_bits=2, sync_period_ns=1_000_000
        )
        live._probe_file = lambda region: live.BackendCapabilities(True, True)
        path = live.create_backing_file({str(tmp_path / "r.bin")!r}, cfg.region_size)
        with live.open_region(path, cfg) as region, live._pinned(live.live_cpus()[0], "t"):
            live.check_host(region)
            with live._accessors(region) as accessors:
                report = live.spy_receive(region, accessors, cfg, live._now_ns())
        assert report.payload_bits == 2
        {loaded}
    """)
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == ["", ""]


class FakeClock:
    """A clock that moves 1 us per read; a sleep moves it by the time slept
    plus whatever the next entry of steps adds (negative: a backward step)."""

    def __init__(self, now_ns: int, steps=()) -> None:
        self.now_ns = now_ns
        self.steps = list(steps)
        self.reads = 0
        self.sleeps: list[float] = []

    def read(self) -> int:
        self.reads += 1
        self.now_ns += 1_000
        return self.now_ns

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now_ns += round(seconds * 1e9) + (self.steps.pop(0) if self.steps else 0)


@pytest.fixture
def fake_clock(monkeypatch):
    def install(now_ns: int, steps=()) -> FakeClock:
        clock = FakeClock(now_ns, steps)
        monkeypatch.setattr(live, "_now_ns", clock.read)
        monkeypatch.setattr(live.time, "sleep", clock.sleep)
        return clock

    return install


def test_a_past_deadline_does_not_sleep(fake_clock):
    clock = fake_clock(10_000_000)
    assert live._wait_until_ns(5_000_000) == clock.now_ns
    assert clock.sleeps == []
    assert clock.reads == 1


@pytest.mark.parametrize(
    "steps, sleeps",
    [
        ((), 1),
        # the sleep returned 2 ms short: sleep again for what is left
        ((-2_000_000,), 2),
        # the clock stepped back 50 ms while asleep: no early return
        ((-50_000_000,), 2),
    ],
)
def test_the_wait_sleeps_until_the_clock_reaches_the_deadline(
    fake_clock, steps, sleeps
):
    clock = fake_clock(10_000_000, steps)
    deadline = 15_000_000
    # the wait hands back the reading that ended it, so no caller reads again
    assert live._wait_until_ns(deadline) == clock.now_ns >= deadline
    assert len(clock.sleeps) == sleeps
    # one clock read per sleep, and a spin over the last _SPIN_NS only
    assert clock.reads <= len(clock.sleeps) + live._SPIN_NS // 1_000 + 1


def refuses_an_unchecked_region(tmp_path, region_file, monkeypatch, run) -> None:
    """Run an endpoint, run(region, cfg), on a region check_host never ran
    on, then on one whose check failed, while the scratch probe is ready.
    Each run must raise a SetupError naming check_host before any wait,
    eviction, advice, read, worker start or probe."""
    monkeypatch.setattr(live, "_probe_file", Mock(side_effect=[READY, NOT_READY]))
    assert probe_capabilities(scratch_dir=str(tmp_path)).transmission_ready() is True
    for name in ("_wait_until_ns", "evict_pair"):
        monkeypatch.setattr(live, name, Mock(side_effect=AssertionError(name)))
    no_thread = Mock(side_effect=AssertionError("worker start"))
    monkeypatch.setattr(live, "threading", SimpleNamespace(Thread=no_thread))
    for name in ("advise_dontneed", "read_byte", "load_byte", "drop_mapping"):
        monkeypatch.setattr(SharedRegion, name, Mock(side_effect=AssertionError(name)))
    cfg = small_cfg(payload_bits=2)
    unchecked = r"has not passed check_host\(region\)"
    with open_region(region_file, cfg) as region:
        with pytest.raises(SetupError, match=unchecked):
            run(region, cfg)
        with pytest.raises(SetupError, match="lacks required capabilities"):
            live.check_host(region)
        assert region.host_checked is False
        with pytest.raises(SetupError, match=unchecked):
            run(region, cfg)


# once, a region on tmpfs handed the scratch probe's ready result from a
# disk-backed temp dir ran every slot and read noise as BER 0.45

def test_send_requires_capabilities(tmp_path, region_file, monkeypatch):
    refuses_an_unchecked_region(
        tmp_path, region_file, monkeypatch,
        lambda region, cfg: trojan_send(region, cfg, [1, 0], live._now_ns()),
    )


def test_receive_requires_capabilities(tmp_path, region_file, monkeypatch, one_core):
    refuses_an_unchecked_region(
        tmp_path, region_file, monkeypatch,
        lambda region, cfg: receive(region, cfg, live._now_ns(), expected=[1, 0]),
    )


def test_both_endpoints_run_on_a_region_check_host_passed_and_never_probe(
    region_file, monkeypatch, one_core
):
    probe = Mock(return_value=READY)
    monkeypatch.setattr(live, "_probe_file", probe)
    monkeypatch.setattr(live, "_probe_pair", lambda accessors, pair: ObservedOrder.T1_LAST)
    cfg = small_cfg(payload_bits=2, sync_period_ns=1_000_000)
    with open_region(region_file, cfg) as region:
        assert live.check_host(region) is None
        probe.assert_called_once_with(region)
        assert region.host_checked is True
        monkeypatch.setattr(live, "_probe_file", Mock(side_effect=AssertionError))
        assert len(trojan_send(region, cfg, [1, 0], live._now_ns())) == 2
        report = receive(region, cfg, live._now_ns())
    assert report.decoded == [1, 1]
    # the mark belongs to that open region: another open of the file has none
    with open_region(region_file, cfg) as other:
        assert other.host_checked is False


@pytest.mark.parametrize("command", ["send", "receive"])
def test_send_and_receive_probe_once_and_hand_the_result_on(
    region_file, monkeypatch, command
):
    probe = Mock(return_value=READY)
    monkeypatch.setattr(live, "_probe_file", probe)
    monkeypatch.setattr(live, "_probe_pair", lambda accessors, pair: ObservedOrder.T2_LAST)
    opened = []
    real_open = live.open_region

    def counting_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    monkeypatch.setattr(live, "open_region", counting_open)
    endpoint = "trojan_send" if command == "send" else "spy_receive"
    real_endpoint = getattr(live, endpoint)
    ran_on = []

    def recording(region, *args, **kwargs):
        ran_on.append(region)
        return real_endpoint(region, *args, **kwargs)

    monkeypatch.setattr(live, endpoint, recording)
    assert main([
        command, "--region-file", region_file, "--epoch", "+0", "--bits", "0110",
        "--region-size", str(64 * PAGE_SIZE), "--page-gap", "8",
        "--sync-period-ns", "1000000",
    ]) == 0
    # the region file is opened once; the check probes that open region in
    # place, and the endpoint runs on it
    assert len(opened) == 1 and ran_on == opened
    probe.assert_called_once_with(opened[0])


def test_receive_zero_bits_is_a_config_error(region_file, monkeypatch, one_core):
    # a report over no bits would claim an error rate it never measured; the
    # receive refuses it with the other input checks, before any slot waits
    # or probes
    monkeypatch.setattr(live, "_wait_until_ns", lambda *a: pytest.fail("waited"))
    monkeypatch.setattr(live, "_probe_pair", lambda *a: pytest.fail("probed"))
    with checked(open_region(region_file, small_cfg())) as region:
        with pytest.raises(ConfigError, match="cannot receive an empty payload"):
            receive(region, small_cfg(), live._now_ns(), expected=[])


def test_blind_receive_reports_no_ber(region_file, monkeypatch, one_core):
    orders = iter([ObservedOrder.T1_LAST, ObservedOrder.T2_LAST, ObservedOrder.AMBIGUOUS])
    monkeypatch.setattr(live, "_probe_pair", lambda accessors, pair: next(orders))
    cfg = small_cfg(payload_bits=3)  # a blind receive is as long as the payload
    with checked(open_region(region_file, cfg)) as region:
        report = receive(region, cfg, live._now_ns())
    assert report.sent is None and report.ber is None
    assert report.decoded == [1, 0, None]
    assert report.received == [1, 0, 0]
    # whole slots: the last probe, half a slot before the end, does not count
    assert 0 < report.bandwidth_bps <= 1e9 / cfg.sync_period_ns


@pytest.mark.parametrize("late_periods", [0, 3], ids=["on-time", "behind"])
def test_the_receiver_carries_whole_slots_unless_it_falls_behind_them(
    region_file, monkeypatch, fake_clock, one_core, late_periods
):
    # on time, the last probe ends half a slot before the channel does and the
    # bandwidth is exactly nominal; a receiver whose last probe ends past the
    # last slot carried its bits over the time it really took
    cfg = small_cfg(payload_bits=4)
    epoch = 1_000_000_000
    clock = fake_clock(epoch)
    probes = []

    def probe_pair(accessors, pair):
        probes.append(pair.slot)
        if pair.slot == cfg.payload_bits - 1:
            clock.now_ns += late_periods * cfg.sync_period_ns
        return ObservedOrder.T1_LAST

    monkeypatch.setattr(live, "_probe_pair", probe_pair)
    with checked(open_region(region_file, cfg)) as region:
        report = receive(region, cfg, epoch)
    assert probes == [0, 1, 2, 3]
    end = clock.now_ns  # the receive's last clock reading
    n = cfg.payload_bits
    if late_periods:
        assert end - epoch > n * cfg.sync_period_ns
        assert report.elapsed_ns == end - epoch
        assert report.bandwidth_bps == n * 1e9 / (end - epoch)
    else:
        assert end - epoch < n * cfg.sync_period_ns
        assert report.elapsed_ns == n * cfg.sync_period_ns
        assert report.bandwidth_bps == 1e9 / cfg.sync_period_ns


def test_sender_follows_shared_schedule(region_file):
    # The sender's per-slot log must agree page for page with the schedule
    # the receiver derives independently.
    cfg = small_cfg()
    payload = [1, 0, 1, 1, 0, 0, 1, 0]
    epoch = live._now_ns() + 20_000_000
    with checked(open_region(region_file, cfg)) as region:
        log = trojan_send(region, cfg, payload, epoch)
    assert [rec.slot for rec in log] == list(range(8))
    for k, rec in enumerate(log):
        pair = page_pair_for_slot(cfg, k)
        assert (rec.p1, rec.p2) == (pair.p1, pair.p2)
        assert rec.target == encode_target(payload[k], pair)
        assert rec.deadline_ns == epoch + k * cfg.sync_period_ns
        assert rec.start_ns >= rec.deadline_ns
        assert rec.end_ns >= rec.start_ns


def test_failed_eviction_advice_ends_the_transmission(region_file, monkeypatch):
    # the pair's state is unknown after a failed advice call, so no slot may
    # go on to touch a page and leave a plausible bit behind
    def refuse(self, page):
        raise OSError(22, "bad")

    loaded = []
    monkeypatch.setattr(SharedRegion, "advise_dontneed", refuse)
    monkeypatch.setattr(SharedRegion, "load_byte", lambda self, page: loaded.append(page))
    with checked(open_region(region_file, small_cfg())) as region:
        with pytest.raises(OSError, match="bad"):
            trojan_send(region, small_cfg(), [1, 0], live._now_ns())
    assert loaded == []


def test_a_receiver_allowed_two_cores_is_refused(region_file, monkeypatch, three_cores):
    # the caller pins; a receive whose workers could spread over two cores
    # would report a BER of a channel it never ran, so it starts none
    seen = []

    def probe(accessors, pair):
        seen.append(os.sched_getaffinity(0))
        return ObservedOrder.T1_LAST

    monkeypatch.setattr(live, "_probe_pair", probe)
    cfg = small_cfg(payload_bits=2)
    os.sched_setaffinity(0, {1, 2})
    before = threading.enumerate()
    with checked(open_region(region_file, cfg)) as region:
        with pytest.raises(SetupError, match=r"cores \[1, 2\]; its caller must pin"):
            receive(region, cfg, live._now_ns())
        assert threading.enumerate() == before and seen == []
        os.sched_setaffinity(0, {1})
        receive(region, cfg, live._now_ns())
    assert seen == [{1}, {1}]


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt in the main thread, as in a terminal,
    even under a runner that started the tests with SIGINT ignored."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


@pytest.mark.parametrize(
    "ending, raised",
    [
        ("normal", None),
        ("dead accessor", RunAbort),
        ("interrupted", KeyboardInterrupt),  # between slots
        ("interrupted mid-probe", KeyboardInterrupt),
    ],
)
def test_no_accessor_worker_outlives_a_receive(
    region_file, monkeypatch, sigint_raises, one_core, ending, raised
):
    # the workers are joined on every way out of the receive,
    # including an interrupt that lands between two slots and one that
    # lands while both reads are in flight
    readers = set()
    real_read, real_wait = SharedRegion.read_byte, live._wait_until_ns
    in_flight = threading.Barrier(2, timeout=5)

    def read_byte(self, page):
        readers.add(threading.current_thread())
        if ending == "dead accessor":
            raise OSError(14, "bad address")
        if ending == "interrupted mid-probe":
            if in_flight.wait() == 0:  # both reads of slot 0 have begun
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.05)  # still reading when the receiver is interrupted
        return real_read(self, page)

    def wait(deadline_ns):
        if ending == "interrupted" and readers:  # slot 1, after slot 0's probe
            raise KeyboardInterrupt
        return real_wait(deadline_ns)

    monkeypatch.setattr(SharedRegion, "read_byte", read_byte)
    monkeypatch.setattr(live, "_wait_until_ns", wait)
    cfg = small_cfg(payload_bits=3, sync_period_ns=1_000_000)
    before = threading.enumerate()
    with checked(open_region(region_file, cfg)) as region:
        with pytest.raises(raised) if raised else nullcontext():
            receive(region, cfg, live._now_ns())
    assert threading.enumerate() == before
    assert readers and threading.main_thread() not in readers


def test_an_interrupt_in_a_workers_start_leaves_no_worker_running(
    region_file, monkeypatch, one_core
):
    # an interrupt can land in Thread.start once the thread exists, before
    # the receive knows it started; that worker too must end, and read
    # nothing, by the time the receive has raised
    reads, started = [], []
    real_start = threading.Thread.start

    def start(self):
        real_start(self)
        started.append(self)
        if len(started) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(SharedRegion, "read_byte", lambda self, page: reads.append(page))
    cfg = small_cfg(payload_bits=3, sync_period_ns=1_000_000)
    before = threading.enumerate()
    with checked(open_region(region_file, cfg)) as region:
        with pytest.raises(KeyboardInterrupt):
            receive(region, cfg, live._now_ns())
    assert len(started) == 2 and not any(w.is_alive() for w in started)
    assert threading.enumerate() == before
    time.sleep(0.02)
    assert reads == []


def test_both_accessor_workers_run_on_the_receivers_core(region_file, monkeypatch):
    # workers started outside the pin would read on any core, and a worker
    # started inside a probe could be left unjoined
    readers, masks, alive = set(), [], []
    real_read = SharedRegion.read_byte

    def read_byte(self, page):
        readers.add(threading.current_thread())
        masks.append(os.sched_getaffinity(0))
        alive.append(set(threading.enumerate()))
        return real_read(self, page)

    monkeypatch.setattr(SharedRegion, "read_byte", read_byte)
    cfg = small_cfg(payload_bits=8, sync_period_ns=1_000_000)
    core = live_cpus()[0]
    with checked(open_region(region_file, cfg)) as region, live._pinned(core, "receiver"):
        receive(region, cfg, live._now_ns())
    assert len(readers) == 2 and threading.main_thread() not in readers
    assert readers <= alive[0]  # both started before slot 0's first read
    assert masks == [{core}] * 16


def test_sender_empty_payload(region_file):
    with checked(open_region(region_file, small_cfg())) as region:
        assert trojan_send(region, small_cfg(), [], live._now_ns()) == []


def test_a_payload_that_is_not_bits_runs_no_slot(region_file, monkeypatch, one_core):
    # both endpoints refuse it before the first wait, so no slot evicts,
    # touches or probes a pair
    monkeypatch.setattr(live, "_wait_until_ns", lambda *a: pytest.fail("waited"))
    monkeypatch.setattr(live, "evict_pair", lambda *a: pytest.fail("evicted"))
    monkeypatch.setattr(live, "_probe_pair", lambda *a: pytest.fail("probed"))
    cfg = small_cfg()
    with checked(open_region(region_file, cfg)) as region:
        with pytest.raises(ConfigError, match="only bits, got 2"):
            trojan_send(region, cfg, [0, 1, 2], live._now_ns())
        with pytest.raises(ConfigError, match="only bits, got 2"):
            receive(region, cfg, live._now_ns(), expected=[0, 2, 0])


def test_open_region_refuses_a_host_without_posix_fadvise(monkeypatch, region_file):
    monkeypatch.delattr(os, "posix_fadvise")
    with pytest.raises(SetupError, match="posix_fadvise"):
        open_region(region_file, small_cfg())


def test_probe_without_posix_fadvise_is_not_ready_and_says_why(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "posix_fadvise")
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert caps.transmission_ready() is False
    assert any("posix_fadvise" in note for note in caps.notes)
    assert not any("private mapping failed" in note for note in caps.notes)


def test_a_host_whose_pages_are_not_4_kib_is_refused_and_not_ready(
    tmp_path, region_file, monkeypatch
):
    monkeypatch.setattr(live, "PAGESIZE", 16384)
    with pytest.raises(SetupError, match="4096.*16384"):
        open_region(region_file, small_cfg())
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert caps.transmission_ready() is False
    assert any("4096" in note and "16384" in note for note in caps.notes)


def major_fault_counts(monkeypatch, delta: int, events: list | None = None) -> None:
    """Stand in for getrusage: the probe's two readings of this thread's
    major faults differ by delta. Each reading must ask about the calling
    thread, and is logged in events as "count"."""
    counts = iter([40, 40 + delta])

    def getrusage(who):
        assert who == resource.RUSAGE_THREAD
        if events is not None:
            events.append("count")
        return SimpleNamespace(ru_majflt=next(counts))

    monkeypatch.setattr(live.resource, "getrusage", getrusage)


@pytest.mark.parametrize(
    "delta, eviction_ok, note",
    [
        (1, True, None),
        (0, False, "a read after eviction advice took 0 major faults, not 1"),
        (2, False, "a read after eviction advice took 2 major faults, not 1"),
        (None, False, "eviction advice or its check failed: [Errno 22] bad"),
    ],
    ids=["one-fault", "no-fault", "two-faults", "advice-fails"],
)
def test_probe_takes_its_eviction_verdict_from_a_major_fault(
    tmp_path, monkeypatch, delta, eviction_ok, note
):
    # the mapped read right after advice must take exactly one major fault;
    # mincore, which sees only files the caller owns or can write, has no say
    events = []

    def recording(name, method):
        def wrapped(region, page):
            events.append(f"{name} {page}")
            if name == "advise" and delta is None:
                raise OSError(22, "bad")
            return method(region, page)

        return wrapped

    for name, method in (
        ("read", "read_byte"), ("drop", "drop_mapping"), ("advise", "advise_dontneed")
    ):
        monkeypatch.setattr(
            SharedRegion, method, recording(name, getattr(SharedRegion, method))
        )
    major_fault_counts(monkeypatch, delta or 0, events)
    monkeypatch.setattr(live, "evict_pair", lambda *a: pytest.fail("evict_pair"))
    monkeypatch.setattr(live._libc, "mincore", lambda *a: pytest.fail("mincore"))
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    checked = ["count", "read 0", "count", "drop 0", "advise 0"]
    assert events == ["read 0", "drop 0", "advise 0", *([] if delta is None else checked)]
    assert caps.cache_advice_eviction is eviction_ok
    assert [n for n in caps.notes if "eviction" in n] == ([note] if note else [])


def test_check_host_probes_the_region_in_place_and_writes_nothing(
    region_file, monkeypatch
):
    # a region whose directory the caller cannot write is checked where it
    # is: no temp directory, no scratch file, no fsync
    def refuse(*args, **kwargs):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(tempfile, "TemporaryDirectory", refuse)
    monkeypatch.setattr(live, "create_backing_file", refuse)
    monkeypatch.setattr(os, "fsync", refuse)
    major_fault_counts(monkeypatch, 1)
    region_dir = os.path.dirname(region_file)
    listing = sorted(os.listdir(region_dir))
    with open_region(region_file, small_cfg()) as region:
        monkeypatch.setattr(live, "open_region", lambda *a: pytest.fail("opened"))
        assert live.check_host(region) is None
        assert region.host_checked is True
    assert sorted(os.listdir(region_dir)) == listing
    # the scratch probe is the one that needs a writable directory
    assert probe_capabilities(scratch_dir=region_dir).transmission_ready() is False


def advice_evicts_after_a_flush(tmp_path) -> bool:
    """Whether page-sized advice evicts on this filesystem once a file's
    write-time cache is gone. The probe would not do as a gate here: it
    relies on open_region's flush, which the caller is testing."""
    path = create_backing_file(str(tmp_path / "gate.bin"), 16 * PAGE_SIZE)
    fd = os.open(path, os.O_RDONLY)
    os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    os.close(fd)
    with open_region(path, small_cfg(pages=16)) as region:
        region.load_byte(2)
        return evict_pair(region, PagePair(p1=2, p2=3, slot=0)) is True


def test_open_region_flushes_a_freshly_written_file(tmp_path):
    # create_backing_file leaves its writes cached; opening the region must
    # drop them, since page-sized advice cannot split a bulk-written folio
    if not advice_evicts_after_a_flush(tmp_path):
        pytest.skip("eviction advice is not honored on this filesystem")
    cfg = ChannelConfig(region_size=32 * 1024 * 1024)
    path = create_backing_file(str(tmp_path / "fresh.bin"), cfg.region_size)
    with open_region(path, cfg) as region:
        sampled = range(0, region.page_count, 97)
        assert region.residency(*sampled) == [False] * len(sampled)


def failing_mincore(*args):
    ctypes.set_errno(errno.ENOMEM)
    return -1


def test_a_failing_mincore_raises_and_ends_the_transmission(
    tmp_path, region_file, monkeypatch
):
    # None means only "cannot report on this file"; a failed call is an error
    monkeypatch.setattr(live._libc, "mincore", failing_mincore)
    with checked(open_region(region_file, small_cfg())) as region:
        with pytest.raises(OSError, match="mincore on page 5") as info:
            region.residency(5)
        assert info.value.errno == errno.ENOMEM
        loaded = []
        monkeypatch.setattr(region, "load_byte", loaded.append)
        with pytest.raises(OSError, match="mincore"):
            trojan_send(region, small_cfg(), [1, 0], live._now_ns())
        assert loaded == []
    # the probe's verdict is a major fault, not mincore's word, so a mincore
    # that fails ends a transmission but not the host check
    major_fault_counts(monkeypatch, 1)
    caps = probe_capabilities(scratch_dir=str(tmp_path))
    assert caps.cache_advice_eviction is True
    assert not any("mincore" in n for n in caps.notes)


def test_evictions_on_a_file_mincore_cannot_report_on_are_unverified(
    region_file, monkeypatch, capsys
):
    # mincore reports every page of a file the caller neither owns nor can
    # write as resident, so there no call is made and nothing is confirmed
    owner = os.stat(region_file).st_uid
    monkeypatch.setattr(os, "geteuid", lambda: owner + 1)
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: mode != os.W_OK)
    mincore = Mock()
    monkeypatch.setattr(live._libc, "mincore", mincore)
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: READY)
    cfg = small_cfg()
    with checked(open_region(region_file, cfg)) as region:
        assert region.residency(2, 3) is None
        assert evict_pair(region, PagePair(p1=2, p2=3, slot=0)) is None
        log = trojan_send(region, cfg, [1, 0], live._now_ns())
    assert [rec.evict_confirmed for rec in log] == [None, None]
    assert main([
        "send", "--region-file", region_file, "--epoch", "+0", "--bits", "0110",
        "--region-size", str(cfg.region_size), "--page-gap", "8",
        "--sync-period-ns", "1000000",
    ]) == 0
    out = capsys.readouterr().out
    assert "sent 4 bits" in out
    assert "evictions not verified (mincore cannot report on this file)" in out
    assert "unconfirmed" not in out
    assert mincore.call_count == 0


# -- forked sender/receiver pair, with the child entry points replaced ------
# The children are forked, so they run the monkeypatched entry points.

def _run_tiny_cell(monkeypatch, tmp_path):
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: READY)
    payload = random_payload(7, TINY.payload_bits)
    region = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    return live.run_pair(TINY, payload, region, 10_000_000)


def test_live_cell_children_reuse_the_parents_probe(monkeypatch, tmp_path):
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: READY)
    monkeypatch.setattr(live, "_sender_entry", healthy_sender)
    monkeypatch.setattr(live, "_receiver_entry", healthy_receiver)
    spec = SweepSpec(
        variable="payload_bits", values=(8,), repetitions=1, cfg=TINY,
        params=SimParams(), backend="live", region_file=str(tmp_path / "r.bin"),
        live_lead_ns=10_000_000,
    )
    (row,) = run_sweep(spec).rows
    assert (row.payload_bits, row.ber) == (8, 0.0)


def test_a_live_pair_transmits_on_the_parents_checked_region_and_never_probes_again(
    monkeypatch, tmp_path
):
    # the real entries and endpoints run in the children: each is handed no
    # verdict, finds the region the parent's check marked, and transmits on
    # it; a child that probed would fail its cell
    parent = os.getpid()
    probed = []

    def probe(region, *notes):
        if os.getpid() != parent:
            os._exit(9)
        probed.append(region)
        return READY

    monkeypatch.setattr(live, "_probe_file", probe)
    payload = random_payload(7, TINY.payload_bits)
    path = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    report = live.run_pair(TINY, payload, path, 10_000_000)
    assert report.sent == payload and len(report.received) == len(payload)
    assert len(probed) == 1 and probed[0].host_checked is True


@pytest.mark.parametrize(
    "payload, message",
    [([], "cannot send an empty payload"), ([2, 0], "only bits, got 2")],
    ids=["empty", "non-bit"],
)
def test_a_live_pair_refuses_a_payload_of_no_bits_before_it_probes_or_forks(
    monkeypatch, tmp_path, payload, message
):
    # both children once started and printed tracebacks, and the parent
    # raised RunAbort with the receiver's ConfigError as its text
    monkeypatch.setattr(live, "open_region", lambda *a: pytest.fail("opened"))
    monkeypatch.setattr(live, "check_host", lambda *a: pytest.fail("probed"))
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("forked")
    )
    with pytest.raises(ConfigError, match=message):
        live.run_pair(TINY, payload, str(tmp_path / "r.bin"), 10_000_000)


def test_a_live_pair_refuses_a_negative_lead_before_it_opens_probes_or_forks(
    monkeypatch, tmp_path
):
    # every slot would already be past its deadline, and the report would
    # still carry a plausible error rate and bandwidth
    monkeypatch.setattr(live, "open_region", lambda *a: pytest.fail("opened"))
    monkeypatch.setattr(live, "check_host", lambda *a: pytest.fail("probed"))
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("forked")
    )
    payload = random_payload(7, TINY.payload_bits)
    with pytest.raises(ConfigError, match="lead_ns must be >= 0, got -1000000000"):
        live.run_pair(TINY, payload, str(tmp_path / "r.bin"), -1_000_000_000)


def test_a_region_too_short_for_the_config_is_a_setup_error_before_any_fork(
    monkeypatch, tmp_path
):
    # the probe once mapped only two pages, passed, and both children then
    # failed to open the region: a set-up fault reported as a RunAbort
    monkeypatch.setattr(live, "_probe_file", lambda *a, **k: READY)
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("forked")
    )
    short = TINY.region_size - PAGE_SIZE
    region = create_backing_file(str(tmp_path / "r.bin"), short)
    payload = random_payload(7, TINY.payload_bits)
    sizes = f"holds {short} bytes but the region needs {TINY.region_size}"
    with pytest.raises(SetupError, match=sizes):
        live.run_pair(TINY, payload, region, 10_000_000)


def test_a_region_that_cannot_be_mapped_is_a_setup_error_naming_the_file(
    monkeypatch, tmp_path, capsys
):
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(live, "_mmap", refuse)
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("forked")
    )
    region = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    payload = random_payload(7, TINY.payload_bits)
    with pytest.raises(SetupError, match=f"cannot map backing file {region!r}"):
        live.run_pair(TINY, payload, region, 10_000_000)
    argv = ["send", "--region-file", region, "--epoch", "+1", "--bits", "01"]
    assert main([*argv, "--region-size", str(TINY.region_size), "--page-gap", "4"]) == 2
    assert capsys.readouterr().err.startswith(
        f"setup error: cannot map backing file {region!r}: [Errno 12]"
    )


def test_live_cell_starts_lead_ns_after_both_children_are_ready(monkeypatch, tmp_path):
    # the sender is slower to get ready; slot 0 must still come lead_ns
    # after the later of the two, and both must get the same epoch
    real_ready = live._ready

    def recording_ready(conn):
        ready_ns = time.clock_gettime_ns(time.CLOCK_REALTIME)
        epoch_ns = real_ready(conn)
        (tmp_path / f"ready-{os.getpid()}").write_text(f"{ready_ns} {epoch_ns}")
        return epoch_ns

    def slow_sender(*args):
        time.sleep(0.3)
        healthy_sender(*args)

    monkeypatch.setattr(live, "_ready", recording_ready)
    monkeypatch.setattr(live, "_sender_entry", slow_sender)
    monkeypatch.setattr(live, "_receiver_entry", healthy_receiver)
    _run_tiny_cell(monkeypatch, tmp_path)
    records = [tuple(map(int, p.read_text().split())) for p in tmp_path.glob("ready-*")]
    assert len(records) == 2
    (ready_a, epoch_a), (ready_b, epoch_b) = records
    assert epoch_a == epoch_b >= max(ready_a, ready_b) + 10_000_000


def test_the_sender_gets_the_epoch_before_the_receiver(monkeypatch, tmp_path):
    # the sender's deadline comes first in every slot, slot 0's included
    names, sent = {}, []
    real_collect = live._collect
    real_send = multiprocessing.connection.Connection.send

    def collect(children, kind, deadline):
        names.update({id(conn): name for name, _, conn in children})
        return real_collect(children, kind, deadline)

    def send(conn, obj):
        if isinstance(obj, int):  # only the parent sends a bare number
            sent.append(names[id(conn)])
        return real_send(conn, obj)

    monkeypatch.setattr(live, "_collect", collect)
    monkeypatch.setattr(multiprocessing.connection.Connection, "send", send)
    monkeypatch.setattr(live, "_sender_entry", healthy_sender)
    monkeypatch.setattr(live, "_receiver_entry", healthy_receiver)
    _run_tiny_cell(monkeypatch, tmp_path)
    assert sent == ["sender", "receiver"]


def test_live_cell_with_a_dead_sender_aborts(monkeypatch, tmp_path):
    # the sender dies after slot 0 has been fixed; the receiver still
    # reports, as one decoding noise would
    def dying_sender(*args):
        live._ready(args[-1])
        raise SetupError("region vanished")

    monkeypatch.setattr(live, "_sender_entry", dying_sender)
    monkeypatch.setattr(live, "_receiver_entry", healthy_receiver)
    message = r"sender child exited with code 1: SetupError\('region vanished'\)"
    with pytest.raises(RunAbort, match=message):
        _run_tiny_cell(monkeypatch, tmp_path)


def test_live_cell_whose_receiver_fails_after_its_report_aborts(monkeypatch, tmp_path):
    # the report arrives, then the child exits 7: a thread it left behind
    # outlives the entry and ends the process once the main thread is done
    def failing_late(*args):
        def exit_7():
            threading.main_thread().join()
            os._exit(7)

        threading.Thread(target=exit_7).start()
        return healthy_receiver(*args)

    monkeypatch.setattr(live, "_sender_entry", healthy_sender)
    monkeypatch.setattr(live, "_receiver_entry", failing_late)
    start = time.monotonic()
    with pytest.raises(RunAbort, match="live receiver child exited with code 7$"):
        _run_tiny_cell(monkeypatch, tmp_path)
    assert time.monotonic() - start < 1


def test_collect_past_its_deadline_names_every_silent_child():
    receiver, receiver_end = multiprocessing.Pipe()
    sender, sender_end = multiprocessing.Pipe()
    with receiver, receiver_end, sender, sender_end:
        children = [("receiver", None, receiver), ("sender", None, sender)]
        with pytest.raises(RunAbort, match="live receiver and sender sent no ready"):
            live._collect(children, "ready", time.monotonic() - 1)


@pytest.mark.parametrize("usable,expected", [({0, 1}, "0 1"), ({0}, "0 None")])
def test_live_cell_pins_the_endpoints_to_distinct_cores(
    monkeypatch, tmp_path, usable, expected
):
    def recording(name, entry):
        def wrapped(region, cfg, payload, cpu, conn):
            (tmp_path / name).write_text(str(cpu))
            return entry(region, cfg, payload, cpu, conn)

        return wrapped

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable))
    for name, entry in (("sender", healthy_sender), ("receiver", healthy_receiver)):
        monkeypatch.setattr(live, f"_{name}_entry", recording(name, entry))
    _run_tiny_cell(monkeypatch, tmp_path)
    cores = " ".join((tmp_path / name).read_text() for name in ("receiver", "sender"))
    assert cores == expected


def test_both_real_entries_are_pinned_when_they_report_ready(monkeypatch, tmp_path):
    # each endpoint pins its core, on the region it inherited, before it
    # reports ready, so the epoch finds it with only its wait left. The real
    # entries run; their slot loops are stood in for, and each records the epoch
    real_ready = live._ready

    def recording_ready(conn):
        mask = " ".join(map(str, sorted(os.sched_getaffinity(0))))
        (tmp_path / f"mask-{os.getpid()}").write_text(mask)
        return real_ready(conn)

    def fake_send(region, cfg, payload, epoch_ns, **kwargs):
        (tmp_path / "sender-epoch").write_text(repr(epoch_ns))
        return []

    def fake_receive(region, accessors, cfg, epoch_ns, expected=None):
        (tmp_path / "receiver-epoch").write_text(repr(epoch_ns))
        return run_channel_sim(cfg, SimParams(), expected)

    monkeypatch.setattr(live, "_ready", recording_ready)
    monkeypatch.setattr(live, "trojan_send", fake_send)
    monkeypatch.setattr(live, "spy_receive", fake_receive)
    receiver_cpu, sender_cpu = live_cpus()
    unpinned = " ".join(map(str, sorted(os.sched_getaffinity(0))))
    _run_tiny_cell(monkeypatch, tmp_path)
    masks = sorted(p.read_text() for p in tmp_path.glob("mask-*"))
    expected = [str(receiver_cpu), unpinned if sender_cpu is None else str(sender_cpu)]
    assert masks == sorted(expected)
    epochs = {(tmp_path / f"{name}-epoch").read_text() for name in ("sender", "receiver")}
    assert len(epochs) == 1 and epochs.pop().isdigit()


def test_the_receiver_entry_sets_no_affinity_once_the_epoch_is_handed_over(
    monkeypatch, tmp_path
):
    # the entry pins and starts its workers before it reports ready; after
    # the epoch the receiver has only its slots to run, and the one
    # affinity call left is the entry's restore on the way out
    events = []
    real_set = os.sched_setaffinity

    def recording_set(pid, cpus):
        events.append(("set", set(cpus)))
        real_set(pid, cpus)

    class Parent:
        def send(self, message):
            events.append(message)

        def recv(self):
            events.append("epoch")
            return live._now_ns()

    monkeypatch.setattr(os, "sched_setaffinity", recording_set)
    path = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    original = os.sched_getaffinity(0)
    core = live_cpus()[0]
    payload = random_payload(0, TINY.payload_bits)
    with checked(open_region(path, TINY)) as region:
        report = live._receiver_entry(region, TINY, payload, core, Parent())
    assert report.payload_bits == TINY.payload_bits
    assert events == [("set", {core}), ("ready", None), "epoch", ("set", original)]


class EntryParent:
    """The parent's end of a receiver child's pipe, for a _receiver_entry
    run in this process: it records, when the entry reports ready, each
    thread started since it was made, whether it runs and on which cores,
    then hands the epoch over, or raises EOFError as a parent that died
    before sending one would."""

    def __init__(self, epoch_comes: bool = True) -> None:
        self.before = set(threading.enumerate())
        self.epoch_comes = epoch_comes
        self.at_ready = []

    def send(self, message):
        started = set(threading.enumerate()) - self.before
        self.at_ready.append(
            (message, [(t.is_alive(), os.sched_getaffinity(t.native_id)) for t in started])
        )

    def recv(self):
        if not self.epoch_comes:
            raise EOFError
        return live._now_ns()


def test_the_receiver_entry_has_both_workers_running_when_it_reports_ready(tmp_path):
    # the first thread start in a fresh fork is the slowest step of a
    # receiver's set-up; made before ready, it stays out of the lead
    path = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    core = live_cpus()[0]
    payload = random_payload(0, TINY.payload_bits)
    parent = EntryParent()
    with checked(open_region(path, TINY)) as region:
        report = live._receiver_entry(region, TINY, payload, core, parent)
    assert report.payload_bits == TINY.payload_bits
    assert parent.at_ready == [(("ready", None), [(True, {core}), (True, {core})])]
    assert set(threading.enumerate()) == parent.before


def test_an_epoch_that_never_comes_leaves_no_worker_running(tmp_path, monkeypatch):
    # the parent died after the receiver reported ready: its workers were
    # running, and the entry's way out joins both
    monkeypatch.setattr(live, "spy_receive", lambda *a, **kw: pytest.fail("received"))
    path = create_backing_file(str(tmp_path / "r.bin"), TINY.region_size)
    payload = random_payload(0, TINY.payload_bits)
    parent = EntryParent(epoch_comes=False)
    with checked(open_region(path, TINY)) as region:
        with pytest.raises(EOFError):
            live._receiver_entry(region, TINY, payload, live_cpus()[0], parent)
    (message, started), = parent.at_ready
    assert message == ("ready", None) and [alive for alive, _ in started] == [True, True]
    assert set(threading.enumerate()) == parent.before


def test_spy_receive_starts_no_thread(region_file, monkeypatch, one_core):
    # its caller started the workers before the epoch; the receive itself
    # only waits, probes on them and decodes
    cfg = small_cfg(payload_bits=3, sync_period_ns=1_000_000)
    with checked(open_region(region_file, cfg)) as region:
        with live._accessors(region) as accessors:
            running = threading.enumerate()
            monkeypatch.setattr(
                threading.Thread, "start", lambda self: pytest.fail("thread started")
            )
            report = spy_receive(region, accessors, cfg, live._now_ns())
            assert threading.enumerate() == running
    assert report.payload_bits == 3


def test_the_workers_refuse_an_unmarked_region_and_a_two_core_thread_before_starting(
    region_file, monkeypatch, three_cores
):
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: pytest.fail("worker started")
    )
    with open_region(region_file, small_cfg()) as region:
        os.sched_setaffinity(0, {1})
        with pytest.raises(SetupError, match=r"has not passed check_host\(region\)"):
            with live._accessors(region):
                pass
        checked(region)
        os.sched_setaffinity(0, {1, 2})
        with pytest.raises(SetupError, match=r"cores \[1, 2\]; its caller must pin"):
            with live._accessors(region):
                pass


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
            live._ready(args[-1])
        except EOFError:
            (tmp_path / f"eof-{os.getpid()}").touch()
            raise

    real_collect = live._collect

    def collect_then_hang(children, kind, deadline):
        got = real_collect(children, kind, deadline)
        (tmp_path / "all-ready").touch()
        time.sleep(60)
        return got

    monkeypatch.setattr(live, "_sender_entry", waiting_child)
    monkeypatch.setattr(live, "_receiver_entry", waiting_child)
    monkeypatch.setattr(live, "_collect", collect_then_hang)
    parent = multiprocessing.get_context("fork").Process(
        target=_run_tiny_cell, args=(monkeypatch, tmp_path)
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
