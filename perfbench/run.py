#!/usr/bin/env python3
"""pfchan benchmark: live channel capacity and simulator throughput.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 20 --trace 0

It imports pfchan from ./src and drives it only through its public API
(run_sweep, run_channel_sim, pfchan.live). --trace 0 measures the
end-to-end metrics with nothing timed inside pfchan; --trace 1 repeats the
same plan with wrappers around the public functions of every module and
reports per-layer metrics instead. Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every run also writes a fuller record, with
its host context, under perfbench/out/results/.

Exit codes: 0 success, 1 wrong output (e.g. a sim_grid golden mismatch),
2 no pfchan source to import, 3 live workload skipped on this host.
"""
from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN_FILE = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("sim_grid", "live_ladder", "live_wrap")

# (name, unit, better): the metrics of --trace 0, on every workload. Only
# figures that stay steady from run to run on a shared host are here.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("slots_per_s", "1/s", "higher"),
)

# (name, unit): figures printed and recorded with them but not in the JSON
# line. Live channel quality shifts by tens of percent between runs with the
# host's state, and cell overhead with its disk and scheduler; see README.
REPORTED = (
    ("capacity_bps", "bit/s"),
    ("ber", "ratio"),
    ("max_rate_bps", "bit/s"),
    ("cell_overhead_s", "s"),
    ("failed_ratio", "ratio"),
)

# (series recorded in ns, reported name, unit, with p90). p90 is declared
# only for series that have hundreds of samples on every workload that
# exercises them at the standard run length.
TIMINGS = (
    ("setup.import", "setup.import_ms", "ms", False),
    ("protocol.page_pair_for_slot", "protocol.page_pair_for_slot_us", "us", True),
    ("sim.run_spy_slot", "sim.run_spy_slot_us", "us", True),
    ("sim.per_slot", "sim.us_per_slot", "us", True),
    ("report.build", "report.build_us", "us", False),
    ("report.random_payload", "report.random_payload_us", "us", False),
    ("sweep.sim_cell", "sweep.sim_cell_ms", "ms", False),
    ("sweep.live_cell", "sweep.live_cell_s", "s", False),
    ("live.advise_dontneed", "live.advise_dontneed_us", "us", True),
    ("live.residency", "live.residency_us", "us", True),
    ("live.evict_pair", "live.evict_pair_us", "us", True),
    ("live.load_byte", "live.load_byte_us", "us", True),
    ("live.sender_work", "live.sender_work_us", "us", True),
    ("live.sender_lateness", "live.sender_lateness_us", "us", True),
    ("live.read_evicted", "live.read_evicted_us", "us", True),
    ("live.read_resident", "live.read_resident_us", "us", True),
    ("live.probe_lateness", "live.probe_lateness_us", "us", True),
    ("live.probe_span", "live.probe_span_us", "us", True),
    ("live.drop_mapping", "live.drop_mapping_us", "us", True),
    ("live.probe_capabilities", "live.probe_capabilities_ms", "ms", False),
    ("live.create_backing_file", "live.create_backing_file_ms", "ms", False),
    ("live.open_region", "live.open_region_ms", "ms", False),
)
NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}

# (name, unit) of the single-valued per-layer metrics.
SCALARS = (
    ("sim.hard_faults", "count"),
    ("sim.soft_faults", "count"),
    ("sim.ambiguous_slots", "count"),
    ("live.sender_overrun_ratio", "ratio"),
    ("live.evict_confirmed_ratio", "ratio"),
    # The traced run's own figures; compared with an untraced run of the
    # same workload they give the tracing overhead.
    ("trace.slots_per_s", "1/s"),
    ("trace.capacity_bps", "bit/s"),
    ("trace.ber", "ratio"),
    ("trace.cell_overhead_s", "s"),
)
TRACED_FIGURES = ("slots_per_s", "capacity_bps", "ber", "cell_overhead_s")


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every --trace 1 metric, in output order."""
    out = []
    for _, name, unit, with_p90 in TIMINGS:
        out.append((f"{name}.p50", unit))
        if with_p90:
            out.append((f"{name}.p90", unit))
        out.append((f"{name}.n", "count"))
    out.extend(SCALARS)
    return out


# -- workload definitions ---------------------------------------------------

GOLDEN_SEED = 0
SETUP_REPS = 7
LADDER_RATES = (50, 100, 200, 500, 1000)
LADDER_BITS = 100
WRAP_RATE = 200
WRAP_REGION = 1024 * 1024
WRAP_CELLS = 3  # long transmissions per run, so cell_overhead_s is a median
CELL_SLACK_S = 0.05  # allowance per live cell when sizing the plan
# Nominal time of calibration_loop() on the reference host (2 vCPUs, an idle
# moment). Simulator timings are scaled by nominal / measured.
CALIBRATION_NOMINAL_S = 0.025
MEMORY_FILESYSTEMS = {"tmpfs", "ramfs", "devtmpfs", "hugetlbfs"}
# A live run is wrong when even its slowest rate decodes this badly: a
# working channel stays near 0 there, a broken one (say, a sender that
# never touches its pages) near 0.5.
LIVE_SANITY_BER = 0.25


def sim_params(pf):
    """The three simulator hosts of sim_grid: ideal, advice ignored after
    the schedule wraps, and a slow clock that makes fast slots overrun."""
    return (
        ("ideal", pf.SimParams()),
        ("first-wrap", pf.SimParams(eviction_behavior=pf.EvictionBehavior.FIRST_WRAP)),
        ("tick3000", pf.SimParams(tick_ns=3000)),
    )


def derive_seed(*parts) -> int:
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass
class Outcome:
    """What a workload run produced, before formatting."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    figures: dict[str, float | None] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def wrong(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)


class Skip(Exception):
    """The live workload cannot run on this host; never report numbers."""


# -- set-up time ------------------------------------------------------------

SETUP_CODE = r"""
import json, os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pfchan
steps = {"setup.import": time.perf_counter() - t0}
cfg = pfchan.ChannelConfig(region_size=int(sys.argv[3]))
if sys.argv[2]:
    from pfchan import live
    t = time.perf_counter()
    live.probe_capabilities(scratch_dir=os.path.dirname(sys.argv[2]))
    steps["live.probe_capabilities"] = time.perf_counter() - t
    t = time.perf_counter()
    live.create_backing_file(sys.argv[2], cfg.region_size)
    steps["live.create_backing_file"] = time.perf_counter() - t
    t = time.perf_counter()
    live.open_region(sys.argv[2], cfg).close()
    steps["live.open_region"] = time.perf_counter() - t
    os.remove(sys.argv[2])
print(json.dumps(steps))
"""


def measure_setup(region_size: int, live: bool, scratch: Path) -> list[dict[str, float]]:
    """Set up SETUP_REPS times, each in a fresh interpreter: import pfchan
    and, for live workloads, probe, create an absent region file, open it."""
    runs = []
    for rep in range(SETUP_REPS):
        region = scratch / f"setup-{rep}.bin" if live else ""
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), str(region),
             str(region_size)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "TMPDIR": str(scratch)},
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


# -- sim_grid ---------------------------------------------------------------

def sim_batch(pf, seed: int):
    """Every default-grid sweep under each simulator host, one run_sweep
    call per sweep. Yields (host, spec, result or None, wall seconds)."""
    for host, params in sim_params(pf):
        for variable, values in pf.sweep.DEFAULT_GRIDS.items():
            spec = pf.SweepSpec(
                variable=variable,
                values=values,
                repetitions=1,
                cfg=pf.ChannelConfig(),
                params=params,
                seed=seed,
            )
            t0 = time.perf_counter()
            try:
                result = pf.run_sweep(spec)
            except pf.ChannelError:
                result = None
            yield host, spec, result, time.perf_counter() - t0


def row_errors(row) -> int:
    errors = row.ber * row.payload_bits
    if not 0.0 <= row.ber <= 1.0 or abs(errors - round(errors)) > 1e-6:
        raise ValueError(f"BER {row.ber!r} is not a bit count over {row.payload_bits}")
    return round(errors)


def check_sim_rows(pf, host: str, spec, rows) -> list[str]:
    """Shape and arithmetic of a sim sweep, and a perfect ideal channel."""
    problems = []
    if [r.value for r in rows] != list(spec.values):
        return [f"{host}/{spec.variable}: rows {len(rows)} for {len(spec.values)} values"]
    for row in rows:
        cfg = pf.sweep.apply_variable(spec.cfg, spec.variable, row.value)
        where = f"{host}/{spec.variable}={row.value}"
        if (row.payload_bits, row.page_gap, row.region_bytes, row.sync_period_ns) != (
            cfg.payload_bits, cfg.page_gap, cfg.region_size, cfg.sync_period_ns
        ):
            problems.append(f"{where}: row does not echo its config")
        try:
            row_errors(row)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
        if not 0 <= row.indeterminate_slots <= row.payload_bits:
            problems.append(f"{where}: {row.indeterminate_slots} indeterminate slots")
        if host == "ideal" and (row.ber != 0.0 or row.indeterminate_slots != 0):
            problems.append(f"{where}: ideal channel has BER {row.ber}")
    return problems


def golden_batch(pf, tracer: Tracer) -> dict:
    """The fixed-seed batch whose CSV bytes and fault counts are golden."""
    counts: dict[str, int] = {}
    digest = hashlib.sha256()
    cells = slots = 0
    with tracer.counting_faults(pf, counts):
        for host, spec, result, _ in sim_batch(pf, GOLDEN_SEED):
            if result is None:  # spoils the digest, so the check fails
                digest.update(f"{host}/{spec.variable} raised".encode())
                continue
            digest.update(pf.sweep.render_csv(result).encode())
            cells += len(result.rows)
            slots += sum(row.payload_bits for row in result.rows)
    return {"seed": GOLDEN_SEED, "csv_sha256": digest.hexdigest(), "cells": cells,
            "slots": slots, **counts}


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like the
    simulator's inner loop (ordered dict, heap, deque and set operations).

    The host's CPU speed drifts by tens of percent between runs on a shared
    machine. Timing this loop between simulator batches measures that drift
    so it can be divided out; no pfchan code runs inside it.
    """
    t0 = time.perf_counter()
    lru: OrderedDict[int, int] = OrderedDict()
    heap: list[tuple[int, int]] = []
    runq: deque[int] = deque()
    mapped: set[int] = set()
    for i in range(20_000):
        lru[i & 1023] = i
        lru.move_to_end(i & 1023)
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        runq.append(i)
        if len(runq) > 16:
            runq.popleft()
        mapped.add(i & 255)
        mapped.discard((i + 7) & 255)
    return time.perf_counter() - t0


def run_sim_grid(pf, seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome()
    got = golden_batch(pf, tracer)
    want = json.loads(GOLDEN_FILE.read_text())
    for key, value in want.items():
        if got.get(key) != value:
            out.wrong(f"golden {key}: expected {value}, got {got.get(key)}")
    out.counts = {f"sim.{k}": got[k] for k in ("hard_faults", "soft_faults", "ambiguous_slots")}

    batch_rates, cell_costs, pooled, by_rate, slowdowns = [], [], [], [], []
    start = time.perf_counter()
    calibration = calibration_loop()
    with tracer.installed(pf, live=False):
        batch = 0
        while batch < 2 or time.perf_counter() - start < seconds:
            batch_seed = derive_seed(seed, "sim_grid", batch)
            batch_slots, batch_wall, sweep_costs = 0, 0.0, []
            for host, spec, result, wall in sim_batch(pf, batch_seed):
                cells = len(spec.values)
                out.attempted += cells
                batch_wall += wall
                if result is None:
                    out.failed += cells
                    continue
                problems = check_sim_rows(pf, host, spec, result.rows)
                if problems:
                    for problem in problems:
                        out.wrong(f"seed {batch_seed}: {problem}")
                    continue
                sweep_costs.append(wall / cells)
                for row in result.rows:
                    batch_slots += row.payload_bits
                    pooled.append((row_errors(row), row.payload_bits))
                    if spec.variable == "bit_rate":
                        by_rate.append((row.value, row_errors(row), row.payload_bits))
            # how much slower than nominal the host ran over the batch, from
            # the calibrations either side of it
            before, calibration = calibration, calibration_loop()
            slowdown = (before + calibration) / 2 / CALIBRATION_NOMINAL_S
            slowdowns.append(slowdown)
            batch_rates.append(batch_slots / batch_wall * slowdown)
            for cost in sweep_costs:
                cell_costs.append(cost / slowdown)
                tracer.rec.add("sweep.sim_cell", cost / slowdown * 1e9)
            batch += 1

    if not pooled:
        out.wrong("no simulator sweep succeeded")
        return out
    rates = metrics.ber_by_rate(by_rate)
    out.figures = {
        "slots_per_s": metrics.median(batch_rates),
        "capacity_bps": metrics.capacity_bps(rates),
        "ber": metrics.pooled_ber(pooled),
        "max_rate_bps": metrics.max_reliable_rate(rates),
        "cell_overhead_s": metrics.median(cell_costs),
    }
    out.extra = {
        "batches": batch,
        "host_slowdown": metrics.median(slowdowns),
        "ber_by_rate": rates,
    }
    return out


# -- live workloads ---------------------------------------------------------

def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, from this process's mount table."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4].replace("\\040", " ")
                inside = target == mount_point or target.startswith(
                    mount_point.rstrip("/") + "/"
                )
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, right.split()[0]
    except OSError:
        pass
    return fstype


def live_guard(pf, region_dir: Path) -> None:
    """Raise Skip unless the live channel can run on the region's filesystem."""
    fstype = filesystem_type(region_dir)
    if fstype in MEMORY_FILESYSTEMS:
        raise Skip(f"region directory {region_dir} is on {fstype}, which ignores eviction advice")
    caps = pf.live.probe_capabilities(scratch_dir=str(region_dir))
    if not caps.transmission_ready():
        raise Skip("probe_capabilities() is not transmission-ready:\n" + caps.summary())


@dataclass
class LiveCell:
    rate: int
    bits: int
    wall_s: float
    nominal_s: float
    errors: int | None  # None when the cell failed
    reason: str = ""


def run_live_cell(pf, tracer: Tracer, cfg, rate: int, spec_seed: int,
                  region_file: Path, cell_dir: Path) -> LiveCell:
    """One fresh sender/receiver pair through run_sweep, judged from outside."""
    spec = pf.SweepSpec(
        variable="bit_rate",
        values=(rate,),
        repetitions=1,
        cfg=cfg,
        params=pf.SimParams(),
        backend="live",
        seed=spec_seed,
        region_file=str(region_file),
    )
    cell_cfg = pf.sweep.apply_variable(cfg, "bit_rate", rate)
    nominal_ns = (spec.live_lead_ns + (cfg.payload_bits - 1) * cell_cfg.sync_period_ns
                  + cell_cfg.guard_ns)
    cell_dir.mkdir(parents=True)
    tracer.cell_dir = cell_dir
    t0 = time.perf_counter()
    try:
        result = pf.run_sweep(spec)
        reason = ""
    except (pf.RunAbort, pf.SetupError) as exc:
        result, reason = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    sender, receiver = tracer.collect(cell_dir)
    shutil.rmtree(cell_dir)
    tracer.rec.add("sweep.live_cell", wall * 1e9)
    cell = LiveCell(rate, cfg.payload_bits, wall, nominal_ns / 1e9, None, reason)
    if result is None:
        return cell
    if sender is None:
        cell.reason = "sender child never returned from trojan_send"
        return cell
    if sender["slots"] != cfg.payload_bits or (
        receiver is not None and receiver["bits"] != cfg.payload_bits
    ):
        cell.reason = "an endpoint handled the wrong number of slots"
        return cell
    rows = result.rows
    if len(rows) != 1 or rows[0].payload_bits != cfg.payload_bits or (
        rows[0].sync_period_ns != cell_cfg.sync_period_ns
    ):
        cell.reason = f"report of the wrong shape: {rows}"
        return cell
    try:
        cell.errors = row_errors(rows[0])
    except ValueError as exc:
        cell.reason = str(exc)
    return cell


def live_plan(workload: str, seconds: float, pf) -> tuple[object, list[tuple[int, int]]]:
    """Channel config and the (pass, rate) cells to run, sized to seconds."""
    lead_s = next(f.default for f in fields(pf.SweepSpec) if f.name == "live_lead_ns") / 1e9
    if workload == "live_ladder":
        cfg = pf.ChannelConfig(payload_bits=LADDER_BITS)
        pass_s = sum(lead_s + CELL_SLACK_S + LADDER_BITS / r for r in LADDER_RATES)
        passes = max(1, int(seconds // pass_s))
        return cfg, [(p, r) for p in range(passes) for r in LADDER_RATES]
    bits = max(200, int((seconds / WRAP_CELLS - lead_s - CELL_SLACK_S) * WRAP_RATE))
    cfg = pf.ChannelConfig(region_size=WRAP_REGION, payload_bits=bits)
    return cfg, [(p, WRAP_RATE) for p in range(WRAP_CELLS)]


def run_live(pf, workload: str, seed: int, seconds: float, tracer: Tracer,
             work: Path) -> Outcome:
    out = Outcome()
    cfg, plan = live_plan(workload, seconds, pf)
    region_file = work / f"region-{cfg.region_size}.bin"
    pf.live.create_backing_file(str(region_file), cfg.region_size)
    cells: list[LiveCell] = []
    with tracer.installed(pf, live=True):
        for index, (pass_no, rate) in enumerate(plan):
            spec_seed = derive_seed(seed, workload, pass_no)
            cells.append(run_live_cell(pf, tracer, cfg, rate, spec_seed, region_file,
                                       work / f"cell-{index}"))
    region_file.unlink()

    ok = [c for c in cells if c.errors is not None]
    out.attempted, out.failed = len(cells), len(cells) - len(ok)
    out.extra["failures"] = [f"{c.rate} bit/s: {c.reason}" for c in cells if c.errors is None]
    if not ok:
        out.wrong("every live cell failed")
        return out
    rates = metrics.ber_by_rate([(c.rate, c.errors, c.bits) for c in ok])
    out.figures = {
        "slots_per_s": sum(c.bits for c in ok) / sum(c.wall_s for c in ok),
        "capacity_bps": metrics.capacity_bps(rates),
        "ber": metrics.pooled_ber([(c.errors, c.bits) for c in ok]),
        "max_rate_bps": metrics.max_reliable_rate(rates),
        "cell_overhead_s": metrics.median_of_group_medians(
            (c.rate, c.wall_s - c.nominal_s) for c in ok
        ),
    }
    slowest = min(rates)
    if rates[slowest] > LIVE_SANITY_BER:
        out.wrong(f"the channel carries no payload: BER {rates[slowest]:.3f} "
                  f"at {slowest} bit/s, the slowest rate run")
    out.extra.update(
        cells=len(cells),
        bits_per_cell=cfg.payload_bits,
        region_bytes=cfg.region_size,
        ber_by_rate=rates,
        per_cell=[(c.rate, c.errors, round(c.wall_s - c.nominal_s, 6)) for c in cells],
    )
    return out


# -- reporting --------------------------------------------------------------

def host_context(workload: str, seed: int, args, work: Path, pf) -> dict:
    """Enough about the host and the code to keep numbers apart."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfchan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "region_fs": filesystem_type(work),
        "page_size": os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "pfchan_version": pf.__version__,
    }


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def per_layer_values(tracer: Tracer, out: Outcome) -> dict[str, float]:
    values: dict[str, float] = {}
    for series, name, unit, with_p90 in TIMINGS:
        summary = metrics.summarize(tracer.rec.get(series), scale=1.0 / NS_PER[unit])
        values[f"{name}.p50"] = summary["p50"]
        if with_p90 and "p90" in summary:
            values[f"{name}.p90"] = summary["p90"]
        values[f"{name}.n"] = summary["n"]
    for name in ("sim.hard_faults", "sim.soft_faults", "sim.ambiguous_slots"):
        values[name] = out.counts.get(name, 0)  # 0 where no simulator runs
    for series, name in (
        ("live.sender_overrun", "live.sender_overrun_ratio"),
        ("live.evict_confirmed", "live.evict_confirmed_ratio"),
    ):
        flags = tracer.rec.get(series)
        values[name] = sum(flags) / len(flags) if flags else 0.0
    for key in TRACED_FIGURES:
        values[f"trace.{key}"] = out.figures[key]
    return {name: values[name] for name, _ in per_layer_spec() if name in values}


def tracing_overhead(workload: str, traced: dict) -> dict | None:
    """Relative change of this traced run's figures against the newest
    untraced run of the same workload in this checkout, if there is one."""
    runs = sorted((OUT / "results").glob(f"{workload}-seed*-trace0.json"),
                  key=lambda p: p.stat().st_mtime)
    if not runs:
        return None
    base = json.loads(runs[-1].read_text()).get("figures") or {}
    return {
        "against": runs[-1].name,
        **{key: traced[key] / base[key] - 1.0
           for key in ("setup_s", *TRACED_FIGURES)
           if base.get(key) and traced.get(key) is not None},
    }


def fmt(value) -> str:
    if value is None:
        return "none"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-golden", action="store_true",
                        help="print the sim_grid golden record of this source tree and exit")
    args = parser.parse_args(argv)
    if not args.print_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "pfchan" / "__init__.py").is_file():
        print(f"perfbench: no pfchan source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pfchan as pf
    import pfchan.live  # noqa: F401 - bound as pf.live
    if Path(pf.__file__).resolve().parent != (src / "pfchan").resolve():
        print(f"perfbench: imported pfchan from {pf.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.print_golden:
        print(json.dumps(golden_batch(pf, Tracer(full=False)), indent=2))
        return 0

    # Keep every file pfchan and this script make, the library's own
    # capability probes included, inside the checkout.
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    context = host_context(args.workload, args.seed, args, work, pf)
    record: dict = {"context": context}
    tracer = Tracer(full=bool(args.trace))
    live = args.workload != "sim_grid"
    try:
        if live:
            live_guard(pf, work)
        region_size = WRAP_REGION if args.workload == "live_wrap" else pf.ChannelConfig().region_size
        setups = measure_setup(region_size, live, work)
        if live:
            out = run_live(pf, args.workload, args.seed, args.seconds, tracer, work)
        else:
            out = run_sim_grid(pf, args.seed, args.seconds, tracer)
    except Skip as exc:
        record["skipped"] = str(exc)
        result_file.write_text(json.dumps(record, indent=2))
        print(f"perfbench: {args.workload} skipped: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run in setups:
        for step, seconds in run.items():
            tracer.rec.add(step, seconds * 1e9)
    if out.figures:
        out.figures["setup_s"] = metrics.median([sum(run.values()) for run in setups])
        out.figures["peak_rss_mib"] = peak_rss_mib()
        out.figures["failed_ratio"] = out.failed / out.attempted

    for key, value in context.items():
        print(f"context {key}: {value}")
    for problem in out.problems[:20]:
        print(f"WRONG: {problem}")
    if len(out.problems) > 20:
        print(f"WRONG: ... and {len(out.problems) - 20} more")
    for failure in out.extra.get("failures", []):
        print(f"failed cell: {failure}")
    print(f"cells attempted {out.attempted}, failed {out.failed}")
    for name, unit in [(n, u) for n, u, _ in END_TO_END] + list(REPORTED):
        if name in out.figures:
            print(f"{name:<18} {fmt(out.figures[name]):>14} {unit}")
    for rate, ber in out.extra.get("ber_by_rate", {}).items():
        print(f"  {rate:>5} bit/s  BER {ber:.4f}  capacity "
              f"{metrics.bsc_capacity_bps(rate, ber):.2f} bit/s")

    if not out.figures:
        values, units = {}, {}
    elif args.trace:
        values, units = per_layer_values(tracer, out), dict(per_layer_spec())
        overhead = tracing_overhead(args.workload, out.figures)
        if overhead:
            record["tracing_overhead"] = overhead
            print("tracing overhead vs " + overhead.pop("against") + ": " + ", ".join(
                f"{k} {v:+.1%}" for k, v in overhead.items()))
    else:
        values = {name: out.figures[name] for name, _, _ in END_TO_END}
        units = {name: unit for name, unit, _ in END_TO_END}
    record.update(figures=out.figures, extra=out.extra, problems=out.problems,
                  attempted=out.attempted, failed=out.failed, metrics=values)
    result_file.write_text(json.dumps(record, indent=2, default=str))

    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
