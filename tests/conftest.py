"""Fakes shared by the live tests: capabilities that pass the ready check,
a tiny channel, and healthy stand-ins for the forked children's entry
points. The children are forked, so they run whatever entry a test
monkeypatches into pfchan.live."""
from __future__ import annotations

import os

from pfchan import live
from pfchan.config import ChannelConfig
from pfchan.live import BackendCapabilities
from pfchan.sim import SimParams, run_channel_sim

READY = BackendCapabilities(
    shared_readonly_mapping=True,
    cache_advice_eviction=True,
    cpu_affinity=True,
)
TINY = ChannelConfig(
    region_size=64 * 1024, page_gap=4, payload_bits=8, sync_period_ns=1_000_000
)


def healthy_sender(region_path, cfg, payload, capabilities, cpu, conn):
    if capabilities is not READY:
        os._exit(9)
    live._ready(conn)


def healthy_receiver(region_path, cfg, payload, capabilities, cpu, conn):
    if capabilities is not READY:
        os._exit(9)
    live._ready(conn)
    return run_channel_sim(cfg, SimParams(), payload)
