"""Experiment harness: parameter sweeps and their CSV rows.

A sweep varies exactly one knob over a list of values, repeats each cell,
and records error rate and bandwidth per cell. Cell seeds are derived from
the sweep seed with a stable hash, so a sweep is reproducible byte for byte
from its spec alone. Each cell's payload comes from its seed and goes to the
simulator or, in a live sweep, to pfchan.live, which returns the cell's
report.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from .config import LIVE_LEAD_NS, MIB, ChannelConfig, check_int
from .errors import ConfigError
from .report import random_payload
from .sim import SimParams, run_channel_sim

BACKENDS = ("sim", "live")

# The variables a sweep can vary, with their default grids. bit_rate values
# are bits per second; a cell runs with sync_period_ns = 1e9 / rate at fixed
# payload size. Every other variable is a ChannelConfig field.
DEFAULT_GRIDS: dict[str, tuple[int, ...]] = {
    "payload_bits": (20, 50, 100, 200, 300, 400, 500),
    "page_gap": (4, 8, 16, 32, 64, 128, 256),
    "region_size": tuple(m * MIB for m in (1, 2, 4, 8, 16, 32)),
    "bit_rate": (10, 20, 50, 100, 200, 500, 1000),
}
VARIABLES = tuple(DEFAULT_GRIDS)

# the north star's reliability rule: a rate passes when its mean BER is at
# most this
BER_LIMIT = 0.05


class RateHeadline(NamedTuple):
    """A bit_rate sweep's headline, in bit/s; a rate field is None when no
    rate qualifies, and so are the two fields that describe it.

    reliable_bps is the highest rate whose mean BER is at most BER_LIMIT.
    unbroken_bps is the highest rate that passes with every lower rate in
    the grid passing too, so a failure below it cannot hide. Its mean
    carried bandwidth is unbroken_carried_bps, and unbroken_in_full says
    whether that lies within 1% of the rate: a receiver that carries less
    is falling behind, and a longer cell at that rate would fail.
    """

    reliable_bps: int | None
    unbroken_bps: int | None
    unbroken_carried_bps: float | None
    unbroken_in_full: bool | None


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: vary `variable` over `values`, each cell `repetitions` times.

    values are in the variable's own unit: bit/s for bit_rate, bytes for
    region_size, bits for payload_bits and pages for page_gap. cfg and
    params hold every other setting; params is read only by the simulator.
    backend is "sim" or "live", and a live sweep maps region_file. seed is
    the master seed every cell seed derives from. live_lead_ns is always
    config.LIVE_LEAD_NS, the margin from both live endpoints reporting
    ready to slot 0; no caller sets it.
    """

    variable: str
    values: tuple[int, ...]
    repetitions: int
    cfg: ChannelConfig
    params: SimParams
    backend: str = "sim"
    seed: int = 0
    region_file: str | None = None  # live backend only
    live_lead_ns: int = field(default=LIVE_LEAD_NS, init=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        check_int("repetitions", self.repetitions)
        if self.repetitions < 1:
            raise ConfigError(
                f"repetitions must be at least 1, got {self.repetitions}"
            )
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"sweep values must be distinct, got {self.values}")
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}, expected one of {BACKENDS}"
            )
        if self.backend == "live" and not self.region_file:
            raise ConfigError("live sweeps need a region_file")
        # an unknown variable or a bad value fails here, before any cell runs
        for value in self.values:
            apply_variable(self.cfg, self.variable, value)


@dataclass(frozen=True)
class CellResult:
    """One row of a sweep, or of one report written by simulate or receive;
    its fields are the CSV columns. A report's seed is None unless its
    payload was drawn from that seed."""

    variable: str
    value: int
    repetition: int
    seed: int | None
    payload_bits: int
    page_gap: int
    region_bytes: int
    sync_period_ns: int
    ber: float | None
    bandwidth_bps: float
    indeterminate_slots: int

    @classmethod
    def from_report(
        cls, variable: str, value: int, repetition: int, seed: int | None, cfg, report
    ) -> "CellResult":
        return cls(
            variable=variable,
            value=value,
            repetition=repetition,
            seed=seed,
            payload_bits=report.payload_bits,
            page_gap=cfg.page_gap,
            region_bytes=cfg.region_size,
            sync_period_ns=cfg.sync_period_ns,
            ber=report.ber,
            bandwidth_bps=report.bandwidth_bps,
            indeterminate_slots=report.indeterminate_slots,
        )


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep: its spec and one row per cell, in grid order, each
    value's repetitions together."""

    spec: SweepSpec
    rows: tuple[CellResult, ...]

    def rows_for_value(self, value: int) -> list[CellResult]:
        return [row for row in self.rows if row.value == value]

    def aggregates(self) -> list[tuple[int, float, float]]:
        """(value, mean ber, mean bandwidth) in the order values were given."""
        out = []
        for value in self.spec.values:
            cells = self.rows_for_value(value)
            out.append(
                (
                    value,
                    sum(c.ber for c in cells) / len(cells),
                    sum(c.bandwidth_bps for c in cells) / len(cells),
                )
            )
        return out

    def best_value(self) -> int:
        """The value with the lowest mean error rate; calibrating the page
        gap is a page_gap sweep read this way.

        Ties break toward the larger value: a wider page gap costs nothing
        in the model and is more robust to prefetching on real hosts.
        """
        best, _, _ = min(self.aggregates(), key=lambda agg: (agg[1], -agg[0]))
        return best

    def rate_headline(self) -> RateHeadline:
        """The headline of a bit_rate sweep, whatever order its grid was
        given in."""
        if self.spec.variable != "bit_rate":
            raise ConfigError(
                f"a rate headline needs a bit_rate sweep, not {self.spec.variable}"
            )
        by_rate = sorted(self.aggregates())
        passing = [rate for rate, ber, _ in by_rate if ber <= BER_LIMIT]
        unbroken = carried = in_full = None
        for rate, ber, bw in by_rate:
            if ber > BER_LIMIT:
                break
            unbroken, carried = rate, bw
        if unbroken is not None:
            in_full = abs(carried - unbroken) <= unbroken / 100
        return RateHeadline(max(passing, default=None), unbroken, carried, in_full)


def cell_seed(master_seed: int, variable: str, value: int, repetition: int) -> int:
    """Stable per-cell seed so any cell can be replayed in isolation."""
    import hashlib

    key = f"{master_seed}:{variable}:{value}:{repetition}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def apply_variable(cfg: ChannelConfig, variable: str, value: int) -> ChannelConfig:
    """Rewrite one knob of the config. Derived values (pair offset, guard)
    follow automatically."""
    if variable not in VARIABLES:
        raise ConfigError(
            f"unknown sweep variable {variable!r}, expected one of {VARIABLES}"
        )
    if variable != "bit_rate":
        return replace(cfg, **{variable: value})
    check_int(variable, value)  # by the rate's name, not as sync_period_ns
    if not 1 <= value <= 500_000_000:
        raise ConfigError(f"bit_rate must lie in [1, 500000000] bit/s, got {value}")
    return replace(cfg, sync_period_ns=1_000_000_000 // value)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell of the sweep and collect rows in grid order. Each
    cell's payload is drawn from its seed here, whichever backend runs it."""
    if spec.backend == "live":
        from . import live

        # every cell maps the start of one file, written here for the largest
        # region in the grid, so a path that cannot be written fails by name
        cfgs = [apply_variable(spec.cfg, spec.variable, v) for v in spec.values]
        live.create_backing_file(spec.region_file, max(c.region_size for c in cfgs))

    rows: list[CellResult] = []
    for value in spec.values:
        cfg = apply_variable(spec.cfg, spec.variable, value)
        for rep in range(spec.repetitions):
            seed = cell_seed(spec.seed, spec.variable, value, rep)
            payload = random_payload(seed, cfg.payload_bits)
            if spec.backend == "sim":
                report = run_channel_sim(cfg, spec.params, payload)
            else:
                report = live.run_pair(cfg, payload, spec.region_file)
            rows.append(
                CellResult.from_report(spec.variable, value, rep, seed, cfg, report)
            )
    return SweepResult(spec=spec, rows=tuple(rows))


def write_csv(fh, row_type, rows) -> None:
    """Write a header of the dataclass row_type's field names, then one line
    per row. Floats keep the csv module's repr, bools are written as 0/1 and
    None as an empty cell."""
    import csv

    names = [f.name for f in fields(row_type)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        values = [getattr(row, name) for name in names]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in values])


def render_csv(result: SweepResult) -> str:
    """The sweep as CSV text, stable across reruns of the same spec."""
    buf = io.StringIO()
    write_csv(buf, CellResult, result.rows)
    return buf.getvalue()


def summary_table(result: SweepResult) -> str:
    spec = result.spec
    lines = [
        f"sweep over {spec.variable} ({spec.backend} backend, seed {spec.seed}, "
        f"{spec.repetitions} repetition(s) per value)",
        f"{spec.variable:>14} {'mean_ber':>10} {'mean_bw_bps':>14}",
    ]
    for value, ber, bw in result.aggregates():
        lines.append(f"{value:>14} {ber:>10.4f} {bw:>14.1f}")
    return "\n".join(lines)
