"""Fakes shared by the live and CLI tests: capabilities that pass the ready
check, a region marked as check_host marks one that passed, a tiny channel,
a stand-in affinity mask, and healthy stand-ins for the forked children's
entry points. The children are forked, so they run whatever entry a test
monkeypatches into pfchan.live."""
from __future__ import annotations

import errno
import os
from unittest.mock import patch

import pytest

from pfchan import live
from pfchan.config import ChannelConfig
from pfchan.live import BackendCapabilities
from pfchan.sim import SimParams, run_channel_sim

READY = BackendCapabilities(cache_advice_eviction=True, cpu_affinity=True)
TINY = ChannelConfig(
    region_size=64 * 1024, page_gap=4, payload_bits=8, sync_period_ns=1_000_000
)


def checked(region):
    """The open region, after check_host passed it with the probe standing
    in as READY; the endpoints transmit only on such a region."""
    with patch.object(live, "_probe_file", lambda region: READY):
        live.check_host(region)
    return region


def healthy_sender(region, cfg, payload, conn):
    if not region.host_checked:
        os._exit(9)
    live._ready(conn)


def healthy_receiver(region, cfg, payload, conn):
    if not region.host_checked:
        os._exit(9)
    live._ready(conn)
    return run_channel_sim(cfg, SimParams(), payload)


@pytest.fixture
def three_cores(monkeypatch):
    """A stand-in affinity mask of cores 0-2, and the masks set on it. The
    process's real mask may already be one core, after an earlier test
    pinned it, and then a one-core pin that was never undone would not show.
    Like the real call, it refuses a negative core with ValueError and a
    core outside the machine with OSError."""
    mask = {0, 1, 2}
    pins = []

    def set_mask(pid, cpus):
        if min(cpus) < 0:
            raise ValueError("negative CPU number")
        if not set(cpus) <= {0, 1, 2}:
            raise OSError(errno.EINVAL, "Invalid argument")
        pins.append(set(cpus))
        mask.clear()
        mask.update(cpus)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
    monkeypatch.setattr(os, "sched_setaffinity", set_mask)
    return mask, pins
