"""Page-fault covert channel toolkit.

A sender and a receiver share a read-only mapped file and never exchange
data directly. The sender controls which of two agreed pages is resident in
the page cache; the receiver reads both pages from two threads on one core
and recovers the bit from which thread finished last. The package provides
the protocol core, a deterministic simulator of the cache and scheduler
mechanics, a live Linux backend, and a sweep harness for calibration and
sensitivity experiments.
"""
from .config import ChannelConfig
from .errors import ChannelError, ConfigError, RunAbort, SetupError
from .protocol import (
    FaultKind,
    ObservedOrder,
    PagePair,
    Residency,
    decode_from_order,
    encode_target,
    page_pair_for_slot,
    slot_deadline,
)
from .report import (
    TransmissionReport,
    compute_metrics,
    random_payload,
)
from .sim import (
    AccessRecord,
    CacheSchedSim,
    EvictionBehavior,
    SimParams,
    render_trace,
    run_channel_sim,
)
from .sweep import (
    SweepResult,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "AccessRecord",
    "CacheSchedSim",
    "ChannelConfig",
    "ChannelError",
    "ConfigError",
    "EvictionBehavior",
    "FaultKind",
    "ObservedOrder",
    "PagePair",
    "Residency",
    "RunAbort",
    "SetupError",
    "SimParams",
    "SweepResult",
    "SweepSpec",
    "TransmissionReport",
    "compute_metrics",
    "decode_from_order",
    "encode_target",
    "page_pair_for_slot",
    "random_payload",
    "render_trace",
    "run_channel_sim",
    "run_sweep",
    "slot_deadline",
]

__version__ = "0.1.0"
