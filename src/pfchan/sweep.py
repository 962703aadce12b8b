"""Experiment harness: parameter sweeps and their CSV rows.

A sweep varies exactly one knob over a list of values, repeats each cell,
and records error rate and bandwidth per cell. Cell seeds are derived from
the sweep seed with a stable hash, so a sweep is reproducible byte for byte
from its spec alone. Simulator cells are self-contained; a live cell runs
one sender and one receiver process at the same time, and the cells run one
after another.
"""
from __future__ import annotations

import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, fields, replace

from .config import MIB, ChannelConfig
from .errors import ConfigError, RunAbort
from .report import TransmissionReport, random_payload
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


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple[int, ...]
    repetitions: int
    cfg: ChannelConfig
    params: SimParams
    backend: str = "sim"
    seed: int = 0
    region_file: str | None = None  # live backend only
    # margin from both live endpoints reporting ready to slot 0
    live_lead_ns: int = 20_000_000

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("sweep needs at least one value")
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
        if self.live_lead_ns < 0:
            raise ConfigError(
                f"live_lead_ns must be >= 0, got {self.live_lead_ns}: a negative "
                f"lead puts slot 0 in the past, so every slot overruns"
            )
        # an unknown variable or a bad value fails here, before any cell runs
        for value in self.values:
            apply_variable(self.cfg, self.variable, value)


@dataclass(frozen=True)
class CellResult:
    """One row of a sweep; its fields are the CSV columns."""

    variable: str
    value: int
    repetition: int
    seed: int
    payload_bits: int
    page_gap: int
    region_bytes: int
    sync_period_ns: int
    ber: float | None
    bandwidth_bps: float
    indeterminate_slots: int

    @classmethod
    def from_report(
        cls, variable: str, value: int, repetition: int, seed: int, cfg, report
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


def cell_seed(master_seed: int, variable: str, value: int, repetition: int) -> int:
    """Stable per-cell seed so any cell can be replayed in isolation."""
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
    if value <= 0:
        raise ConfigError(f"bit_rate must be positive, got {value}")
    return replace(cfg, sync_period_ns=max(1, 1_000_000_000 // value))


def _run_sim_cell(
    cfg: ChannelConfig, params: SimParams, seed: int
) -> TransmissionReport:
    payload = random_payload(seed, cfg.payload_bits)
    return run_channel_sim(cfg, params, payload)


# -- live orchestration ----------------------------------------------------
# Entry points are module level so forked children can run them directly.
# Each child talks to the parent over its own pipe: ("ready", None) once its
# region is open, then ("result", value) when it is done, or ("error", text)
# from whatever step failed. The parent answers "ready" with the epoch. A
# child that exits closes its end, so the parent sees the exit at once as
# end of file on the pipe.


def _ready(conn) -> int:
    """Tell the parent this endpoint is set up; return the epoch it sends."""
    conn.send(("ready", None))
    return conn.recv()


def _live_sender_entry(region_path, cfg, payload, capabilities, cpu, conn):
    from . import live

    with live.open_region(region_path, cfg) as region:
        live.trojan_send(
            region, cfg, payload, _ready(conn), capabilities=capabilities, cpu=cpu
        )


def _live_receiver_entry(region_path, cfg, payload, capabilities, cpu, conn):
    from . import live

    with live.open_region(region_path, cfg) as region:
        return live.spy_receive(
            region, cfg, _ready(conn), expected=payload, cpu=cpu,
            capabilities=capabilities,
        )


def _child_main(entry, conn, parent_ends, *args) -> None:
    """Run one endpoint in a forked child and send its result, or the text
    of the exception that stopped it before the child exits non-zero.

    The fork copies the parent's ends of every pipe made so far. Closing
    them first leaves the parent their only holder, so a parent that dies
    shows here as end of file instead of a wait for an epoch that never
    comes."""
    for parent_end in parent_ends:
        parent_end.close()
    try:
        result = entry(*args, conn)
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc)))
        except OSError:
            pass
        raise
    conn.send(("result", result))


def _abort_if_any_failed(children) -> None:
    for name, proc, _ in children:
        if proc.exitcode not in (None, 0):
            raise RunAbort(f"live {name} child exited with code {proc.exitcode}")


def _collect(children, kind: str, deadline: float) -> dict[str, object]:
    """One message of this kind from every child, by name. A child that
    sends an error, or closes its pipe by exiting, aborts the cell."""
    from multiprocessing.connection import wait

    waiting = {conn: (name, proc) for name, proc, conn in children}
    got: dict[str, object] = {}
    while waiting:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            names = " and ".join(name for name, _ in waiting.values())
            raise RunAbort(f"live {names} sent no {kind} before the cell's deadline")
        for conn in wait(list(waiting), timeout=remaining):
            name, proc = waiting.pop(conn)
            try:
                got_kind, value = conn.recv()
            except EOFError:
                got_kind, value = "exit", None
            if got_kind == kind:
                got[name] = value
                continue
            proc.join(timeout=10)
            if proc.exitcode == 0:
                missing = "reporting ready" if kind == "ready" else "a report"
                raise RunAbort(f"live {name} child exited without {missing}")
            detail = f": {value}" if got_kind == "error" else ""
            raise RunAbort(f"live {name} child exited with code {proc.exitcode}{detail}")
    return got


def _run_live_cell(
    cfg: ChannelConfig, seed: int, region_file: str, lead_ns: int, capabilities
) -> TransmissionReport:
    """One sender/receiver process pair on region_file, which must already
    hold cfg.region_size bytes. Slot 0 starts lead_ns after both children
    have opened the region and reported ready. A child that fails
    or exits early aborts the cell, with its error text when it sent one,
    instead of leaving a row."""
    import multiprocessing

    from . import live

    payload = random_payload(seed, cfg.payload_bits)
    ctx = multiprocessing.get_context("fork")
    receiver_cpu, sender_cpu = live.live_cpus()
    budget = (lead_ns + (len(payload) + 5) * cfg.sync_period_ns) / 1e9 + 30.0
    deadline = time.monotonic() + budget
    children = []
    try:
        for name, entry, cpu in (
            ("receiver", _live_receiver_entry, receiver_cpu),
            ("sender", _live_sender_entry, sender_cpu),
        ):
            conn, child_conn = ctx.Pipe()
            parent_ends = [c for _, _, c in children] + [conn]
            proc = ctx.Process(
                target=_child_main,
                args=(
                    entry, child_conn, parent_ends, region_file, cfg, payload,
                    capabilities, cpu,
                ),
            )
            proc.start()
            # only the child may hold its end, or its exit would not read as
            # end of file here; closing before the next fork keeps it so
            child_conn.close()
            children.append((name, proc, conn))
        _collect(children, "ready", deadline)
        epoch = live._now_ns() + lead_ns
        for _, _, conn in children:
            try:
                conn.send(epoch)
            except OSError:
                pass  # that child has exited; collecting its result says how
        report = _collect(children, "result", deadline)["receiver"]
        for _, proc, _ in children:
            proc.join(timeout=10)
    finally:
        for _, proc, conn in children:
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()
    _abort_if_any_failed(children)
    return report


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell of the sweep and collect rows in grid order."""
    caps = None
    if spec.backend == "live":
        from . import live

        # every cell maps the start of one file, written here for the largest
        # region in the grid, so a path that cannot be written fails by name
        cfgs = [apply_variable(spec.cfg, spec.variable, v) for v in spec.values]
        live.create_backing_file(spec.region_file, max(c.region_size for c in cfgs))
        # eviction advice works or not per filesystem: probe the region's
        region_dir = os.path.dirname(os.path.abspath(spec.region_file))
        caps = live._require_ready(live.probe_capabilities(region_dir))

    rows: list[CellResult] = []
    for value in spec.values:
        cfg = apply_variable(spec.cfg, spec.variable, value)
        for rep in range(spec.repetitions):
            seed = cell_seed(spec.seed, spec.variable, value, rep)
            if spec.backend == "sim":
                report = _run_sim_cell(cfg, spec.params, seed)
            else:
                report = _run_live_cell(
                    cfg, seed, spec.region_file, spec.live_lead_ns, caps
                )
            rows.append(
                CellResult.from_report(spec.variable, value, rep, seed, cfg, report)
            )
    return SweepResult(spec=spec, rows=tuple(rows))


def write_csv(fh, row_type, rows) -> None:
    """Write a header of the dataclass row_type's field names, then one line
    per row. Floats keep the csv module's repr, bools are written as 0/1 and
    None as an empty cell."""
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
