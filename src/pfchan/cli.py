"""Command line front end.

Subcommands: simulate, send, receive, sweep, probe. Settings
resolve with CLI flags overriding the config file overriding built-in
defaults. Each subcommand has override flags only for the settings it
reads (send and receive: the channel's; a sweep given a region file
refuses the simulator's; probe takes no flag at all), while one config
file may hold every key. Exit codes: 0 success, 1 usage or config error,
2 missing capability or setup failure, 3 runtime abort, including a
system call that fails during a run.
"""
from __future__ import annotations

import argparse
import os
import sys
import threading
from dataclasses import fields
from enum import Enum
from functools import partial

from .config import ChannelConfig
from .errors import ConfigError, RunAbort, SetupError
from .report import bits_from_hex, bits_from_string, random_payload
from .sim import SimParams, render_trace, run_channel_sim
from .sweep import (
    BER_LIMIT,
    DEFAULT_GRIDS,
    CellResult,
    SweepSpec,
    run_sweep,
    summary_table,
    write_csv,
)

CHANNEL_KEYS = tuple(f.name for f in fields(ChannelConfig))
SIM_KEYS = tuple(f.name for f in fields(SimParams))
# Fields whose default is an enum member take that enum's values as text.
_ENUM_TYPES = {
    f.name: type(f.default)
    for f in fields(ChannelConfig) + fields(SimParams)
    if isinstance(f.default, Enum)
}


def parse_setting(key: str, text: str):
    """Convert one setting from text: an enum field takes one of its enum's
    values, every other field an integer."""
    if key not in CHANNEL_KEYS and key not in SIM_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    enum_type = _ENUM_TYPES.get(key)
    if enum_type is not None:
        try:
            return enum_type(text)
        except ValueError:
            choices = ", ".join(member.value for member in enum_type)
            raise ConfigError(f"{key} must be one of {choices}, got {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for capability failures; route usage problems through ConfigError.
    def error(self, message):
        raise ConfigError(message)


def load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path!r}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            values[key] = parse_setting(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_settings(args) -> tuple[ChannelConfig, dict]:
    """Settings from the config file, overridden by the flags the subcommand
    has: the ChannelConfig, and the simulator's settings unchecked until a
    command that simulates builds its SimParams from them. A config file may
    hold every key, whichever subcommand reads it."""
    merged: dict = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for key in CHANNEL_KEYS + SIM_KEYS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    channel_kwargs = {k: v for k, v in merged.items() if k in CHANNEL_KEYS}
    sim_kwargs = {k: v for k, v in merged.items() if k in SIM_KEYS}
    return ChannelConfig(**channel_kwargs), sim_kwargs


def _parse_epoch(text: str) -> int:
    """Absolute unix nanoseconds, or '+SECONDS' relative to now, read from
    the same clock the live endpoints keep their deadlines by. A negative
    offset or a past absolute epoch puts slot 0 in the past, so every slot
    would overrun and the run would still report a BER. An epoch further
    off than threading.TIMEOUT_MAX seconds is one the endpoints cannot
    sleep until, so it fails here, before any set-up."""
    from . import live

    now = live._now_ns()
    try:
        if text.startswith("+"):
            offset = float(text[1:])
            if offset < 0:
                raise ConfigError(f"epoch offset must be >= 0 seconds, got {text!r}")
            # nan and inf pass float() and fail int()
            epoch = now + int(offset * 1e9)
        else:
            epoch = int(text)
    except (ValueError, OverflowError):
        raise ConfigError(
            f"epoch must be integer nanoseconds or +SECONDS, got {text!r}"
        ) from None
    if epoch < now:
        raise ConfigError(f"epoch {text!r} has already passed")
    if epoch - now > threading.TIMEOUT_MAX * 1e9:
        raise ConfigError(
            f"epoch {text!r} is more than {threading.TIMEOUT_MAX:.0f} s away, "
            f"further than this platform can wait"
        )
    return epoch


def _parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _payload_from_args(args, cfg: ChannelConfig) -> list[int]:
    if args.payload_hex is None and args.bits is None:
        return random_payload(args.seed, cfg.payload_bits)
    if args.payload_bits is not None:  # the payload already fixes the length
        flag = "--bits" if args.payload_hex is None else "--payload-hex"
        raise ConfigError(f"argument --payload-bits: not allowed with argument {flag}")
    # an empty flag is an empty payload, which the parsers refuse
    if args.payload_hex is not None:
        return bits_from_hex(args.payload_hex)
    return bits_from_string(args.bits)


def _check_writable(args, *outputs: str) -> None:
    """Fail before any set-up when an output file, given as the dest of its
    flag, cannot be written, or is the same file, by device and inode, as
    one the command reads (--config, --region-file) or as another output.
    Each output is opened for append first, which creates an absent one
    where the kernel would, through any symlink; a file created here is
    removed again by the path it was created at."""
    opened: dict[str, os.stat_result] = {}
    created: list[str] = []
    try:
        for dest in outputs:
            path = getattr(args, dest)
            if path is None:
                continue
            target = os.path.realpath(path)
            existed = os.path.exists(target)
            try:
                with open(target, "a") as fh:
                    opened[dest] = os.fstat(fh.fileno())
            except OSError as exc:
                raise SetupError(f"cannot write output file {path!r}: {exc.strerror}") from None
            if not existed:
                created.append(target)
        claimed: dict[tuple[int, int], str] = {}
        for dest in ("config", "region_file", *opened):
            path = getattr(args, dest, None)
            if dest not in opened and (path is None or not os.path.exists(path)):
                continue  # an input not given, or not written yet
            st = opened[dest] if dest in opened else os.stat(path)
            flag, key = "--" + dest.replace("_", "-"), (st.st_dev, st.st_ino)
            if dest in opened and key in claimed:
                raise ConfigError(f"{claimed[key]} and {flag} name the same file {path!r}")
            claimed.setdefault(key, flag)
    finally:
        for target in created:
            os.remove(target)


def _write_csv(path: str, row_type, rows) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, row_type, rows)


def _write_report_csv(path: str, seed: int, cfg: ChannelConfig, report) -> None:
    """One result row; a report without ground truth leaves its ber cell empty."""
    row = CellResult.from_report("payload_bits", report.payload_bits, 0, seed, cfg, report)
    _write_csv(path, CellResult, [row])


# -- subcommand bodies ------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, sim_kwargs = resolve_settings(args)
    params = SimParams(**sim_kwargs)
    payload = _payload_from_args(args, cfg)
    _check_writable(args, "out", "trace")
    trace = [] if args.trace else None
    report = run_channel_sim(cfg, params, payload, trace_out=trace)
    print(
        f"simulated {report.payload_bits} bits: ber={report.ber:.4f} "
        f"bandwidth={report.bandwidth_bps:.1f} bit/s "
        f"indeterminate={report.indeterminate_slots}"
    )
    if args.out:
        _write_report_csv(args.out, args.seed, cfg, report)
        print(f"wrote {args.out}")
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(render_trace(trace) + "\n")
        print(f"wrote {args.trace}")
    return 0


def cmd_send(args) -> int:
    from . import live

    cfg, _ = resolve_settings(args)
    payload = _payload_from_args(args, cfg)
    epoch = _parse_epoch(args.epoch)
    _check_writable(args, "out")
    if args.create_region:
        live.create_backing_file(args.region_file, cfg.region_size)
    with live.open_region(args.region_file, cfg) as region:
        live.check_host(region)
        with live._pinned(args.cpu, "sender"):
            log = live.trojan_send(region, cfg, payload, epoch)
    overruns = sum(1 for rec in log if rec.overrun)
    if any(rec.evict_confirmed is None for rec in log):
        evictions = "evictions not verified (mincore cannot report on this file)"
    else:
        unconfirmed = sum(1 for rec in log if not rec.evict_confirmed)
        evictions = f"{unconfirmed} unconfirmed evictions"
    print(f"sent {len(log)} bits: {overruns} deadline overruns, {evictions}")
    if args.out:
        _write_csv(args.out, live.SenderSlotLog, log)
        print(f"wrote {args.out}")
    return 0


def cmd_receive(args) -> int:
    from . import live

    cfg, _ = resolve_settings(args)
    expected = None if args.blind else _payload_from_args(args, cfg)
    epoch = _parse_epoch(args.epoch)
    _check_writable(args, "out")
    with live.open_region(args.region_file, cfg) as region:
        live.check_host(region)
        with live._accessors(region, args.cpu) as accessors:
            report = live.spy_receive(accessors, cfg, epoch, expected)
    if expected is None:
        print(
            f"received {report.payload_bits} bits blind "
            f"(no ground truth, ber not meaningful); "
            f"indeterminate={report.indeterminate_slots}"
        )
    else:
        print(
            f"received {report.payload_bits} bits: ber={report.ber:.4f} "
            f"bandwidth={report.bandwidth_bps:.1f} bit/s "
            f"indeterminate={report.indeterminate_slots}"
        )
    if args.out:
        _write_report_csv(args.out, args.seed, cfg, report)
        print(f"wrote {args.out}")
    return 0


def _note_unpinned_sender(spec: SweepSpec) -> None:
    if spec.backend != "live":
        return
    from .live import live_cpus

    if live_cpus()[1] is None:
        print("note: one usable core, so the live sender shared the receiver's core")


def _print_rate_headline(headline) -> None:
    def rate(bps):
        return "none" if bps is None else f"{bps} bit/s"

    print(f"highest rate with mean BER <= {BER_LIMIT}: {rate(headline.reliable_bps)}")
    line = f"highest rate with no failing rate below it: {rate(headline.unbroken_bps)}"
    if headline.unbroken_bps is not None:
        within = "within" if headline.unbroken_in_full else "not within"
        line += (
            f", carrying {headline.unbroken_carried_bps:.1f} bit/s"
            f" ({within} 1% of nominal)"
        )
    print(line)


def cmd_sweep(args) -> int:
    """Run a sweep; a page_gap sweep also names the gap with the lowest mean
    error rate, which is how the gap is calibrated."""
    if args.region_file is not None:
        # live cells read no simulator setting; a config file may still hold them
        for key in SIM_KEYS:
            if getattr(args, key) is not None:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{flag} is a simulator setting; this sweep is live")
    cfg, sim_kwargs = resolve_settings(args)
    params = SimParams(**sim_kwargs) if args.region_file is None else SimParams()
    if args.values is not None:
        values = _parse_values(args.values)
    else:
        values = DEFAULT_GRIDS[args.variable]
    spec = SweepSpec(
        variable=args.variable,
        values=values,
        repetitions=args.repetitions,
        cfg=cfg,
        params=params,
        backend="sim" if args.region_file is None else "live",
        seed=args.seed,
        region_file=args.region_file,
    )
    _check_writable(args, "out")
    result = run_sweep(spec)
    print(summary_table(result))
    if args.variable == "page_gap":
        print(f"best page_gap: {result.best_value()}")
    if args.variable == "bit_rate":
        _print_rate_headline(result.rate_headline())
    if args.out:
        _write_csv(args.out, CellResult, result.rows)
        print(f"wrote {args.out}")
    _note_unpinned_sender(spec)
    return 0


def cmd_probe(args) -> int:
    from . import live

    caps = live.probe_capabilities()
    print(caps.summary())
    return 0 if caps.transmission_ready() else 2


# -- parser wiring ----------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """The config file, the seed, the CSV output and one override flag per
    setting in keys."""
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="payload/sweep seed")
    parser.add_argument("--out", help="write CSV output here")
    group = parser.add_argument_group("config overrides")
    for key in keys:
        group.add_argument(
            f"--{key.replace('_', '-')}", type=partial(parse_setting, key), dest=key
        )


def _add_payload(parser: argparse.ArgumentParser):
    payload = parser.add_mutually_exclusive_group()
    payload.add_argument("--payload-hex", help="payload as hex digits, 4 bits each")
    payload.add_argument("--bits", help="payload as a literal bit string")
    return payload


def _add_live_common(parser: argparse.ArgumentParser):
    parser.add_argument("--region-file", required=True, help="shared backing file")
    parser.add_argument(
        "--epoch",
        required=True,
        help="shared epoch: unix nanoseconds, or +SECONDS from now",
    )
    return _add_payload(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pfchan",
        description="Page-fault covert channel: simulator, live backend, harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one transmission on the simulator")
    _add_common(p, CHANNEL_KEYS + SIM_KEYS)
    _add_payload(p)
    p.add_argument("--trace", help="write the access trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("send", help="run the live sender (trojan)")
    _add_common(p, CHANNEL_KEYS)
    _add_live_common(p)
    p.add_argument(
        "--create-region",
        action="store_true",
        help="write the backing file first if it is missing or too small",
    )
    p.add_argument(
        "--cpu", type=int, help="core to pin the sender to (default: unpinned)"
    )
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("receive", help="run the live receiver (spy)")
    _add_common(p, CHANNEL_KEYS)
    payload = _add_live_common(p)
    p.add_argument("--cpu", type=int, help="core to pin the receiver to")
    payload.add_argument(
        "--blind",
        action="store_true",
        help="receive --payload-bits bits, no ground truth (empty ber in --out)",
    )
    p.set_defaults(func=cmd_receive)

    p = sub.add_parser("sweep", help="sweep one variable over a grid")
    _add_common(p, CHANNEL_KEYS + SIM_KEYS)
    p.add_argument("--variable", required=True, choices=list(DEFAULT_GRIDS))
    p.add_argument("--values", help="comma-separated values (default: built-in grid)")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--region-file", help="backing file; run the cells live")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe", help="report live backend capabilities")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2
    except (RunAbort, OSError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
