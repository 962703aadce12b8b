"""Wrappers that time and count pfchan's public functions from outside.

A Tracer replaces module attributes and class methods of the imported
package with thin wrappers and puts the originals back on exit. It is
installed before run_sweep forks, so the sender and receiver children of a
live cell inherit it. Each child starts an empty Recorder when its wrapped
trojan_send or spy_receive begins and writes it to the cell directory when
that call returns: forked multiprocessing children exit without running
atexit handlers, so nothing later would flush it. A sender that never
returns from trojan_send leaves no file behind, which is how a dead sender
is detected.

With full=False only that completion file is written; nothing is timed.
"""
from __future__ import annotations

import inspect
import json
import os
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

SENDER_FILE = "sender.json"
RECEIVER_FILE = "receiver.json"
PROBE_ALLOWANCE_NS = 1_000_000  # a probed slot takes a few hundred us


def _now_rt() -> int:
    # The live endpoints schedule slots on CLOCK_REALTIME deadlines.
    return time.clock_gettime_ns(time.CLOCK_REALTIME)


class Recorder:
    """Named series of numbers, kept compact in memory."""

    def __init__(self) -> None:
        self.series: dict[str, array] = {}

    def add(self, name: str, value: float) -> None:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = array("d")
        series.append(value)

    def merge(self, data: dict[str, list[float]]) -> None:
        for name, values in data.items():
            self.series.setdefault(name, array("d")).extend(values)

    def get(self, name: str) -> array:
        return self.series.get(name, array("d"))

    def to_json(self) -> dict[str, list[float]]:
        return {name: list(values) for name, values in self.series.items()}


class _Slot:
    """What the receiver did in one slot, for the probe timing series."""

    def __init__(self, deadline_ns: int, target: int) -> None:
        self.deadline_ns = deadline_ns
        self.target = target
        self.reads: list[tuple[int, int, int]] = []  # (page, start, end)


class Tracer:
    def __init__(self, full: bool) -> None:
        self.full = full
        self.rec = Recorder()
        self.cell_dir: Path | None = None
        self._saved: list[tuple[object, str, object]] = []
        # Child-side state, meaningful only inside a forked endpoint.
        self._role: str | None = None
        self._in_slots = False
        self._slot: _Slot | None = None
        self._epoch_ns = 0
        self._expected: list[int] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self, keep: int = 0) -> None:
        """Undo patches, newest first, down to the first keep of them."""
        while len(self._saved) > keep:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rec.add(name, time.perf_counter_ns() - t0)

        return wrapper

    def _timed_channel_sim(self, fn):
        def run_channel_sim(cfg, params, payload, *args, **kwargs):
            t0 = time.perf_counter_ns()
            report = fn(cfg, params, payload, *args, **kwargs)
            elapsed = time.perf_counter_ns() - t0
            self.rec.add("sim.run_channel_sim", elapsed)
            self.rec.add("sim.per_slot", elapsed / len(payload))
            return report

        return run_channel_sim

    def _live_timed(self, name: str, fn):
        """Time a live-backend call only inside an endpoint's slot loop, so
        the capability probe each endpoint runs first is left out."""

        def wrapper(*args, **kwargs):
            if not self._in_slots:
                return fn(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rec.add(name, time.perf_counter_ns() - t0)

        return wrapper

    @contextmanager
    def installed(self, pf, live: bool):
        """Wrap the package's public entry points for the duration."""
        try:
            if live:
                self._install_live(pf)
            if self.full:
                self._install_timing(pf, live)
            yield self
        finally:
            self.restore()

    def _install_timing(self, pf, live: bool) -> None:
        protocol, sim, report, sweep = pf.protocol, pf.sim, pf.report, pf.sweep
        original_pair = vars(protocol)["page_pair_for_slot"]
        timed_pair = self._timed("protocol.page_pair_for_slot", original_pair)
        for module in (protocol, sim):
            self._patch(module, "page_pair_for_slot", timed_pair)
        self._patch(
            sweep,
            "run_channel_sim",
            self._timed_channel_sim(vars(sweep)["run_channel_sim"]),
        )
        self._patch(
            sim.CacheSchedSim,
            "run_spy_slot",
            self._timed("sim.run_spy_slot", vars(sim.CacheSchedSim)["run_spy_slot"]),
        )
        build = vars(report.TransmissionReport)["build"].__func__
        self._patch(
            report.TransmissionReport,
            "build",
            classmethod(self._timed("report.build", build)),
        )
        self._patch(
            sweep,
            "random_payload",
            self._timed("report.random_payload", vars(sweep)["random_payload"]),
        )
        if live:
            region = pf.live.SharedRegion
            for method in (
                "advise_dontneed",
                "residency",
                "load_byte",
                "drop_mapping",
            ):
                self._patch(
                    region, method, self._live_timed(f"live.{method}", vars(region)[method])
                )
            self._patch(region, "read_byte", self._read_byte(vars(region)["read_byte"]))
            self._patch(
                pf.live,
                "evict_pair",
                self._live_timed("live.evict_pair", vars(pf.live)["evict_pair"]),
            )

    def _install_live(self, pf) -> None:
        live = pf.live
        self._patch(live, "trojan_send", self._trojan_send(vars(live)["trojan_send"]))
        if self.full:
            self._patch(
                live, "spy_receive", self._spy_receive(vars(live)["spy_receive"])
            )
            self._patch(
                live,
                "page_pair_for_slot",
                self._live_pair(vars(live)["page_pair_for_slot"], pf.protocol),
            )

    # -- sim fault counts --------------------------------------------------

    @contextmanager
    def counting_faults(self, pf, counts: dict[str, int]):
        """Count modeled faults and ambiguous slots while the block runs."""
        sim, protocol = pf.sim, pf.protocol
        hard, soft = protocol.FaultKind.HARD, protocol.FaultKind.SOFT
        ambiguous = protocol.ObservedOrder.AMBIGUOUS
        for key in ("hard_faults", "soft_faults", "ambiguous_slots"):
            counts.setdefault(key, 0)

        def tally(fault) -> None:
            if fault is hard:
                counts["hard_faults"] += 1
            elif fault is soft:
                counts["soft_faults"] += 1

        spy_slot = vars(sim.CacheSchedSim)["run_spy_slot"]
        plan_access = vars(sim.CacheSchedSim)["plan_access"]

        def run_spy_slot(self_sim, pair):
            order, slot_trace = spy_slot(self_sim, pair)
            for rec in slot_trace:
                tally(rec.fault)
            if order is ambiguous:
                counts["ambiguous_slots"] += 1
            return order, slot_trace

        def plan(self_sim, thread, page, start_tick):
            result = plan_access(self_sim, thread, page, start_tick)
            tally(result[0])
            return result

        mark = len(self._saved)
        self._patch(sim.CacheSchedSim, "run_spy_slot", run_spy_slot)
        self._patch(sim.CacheSchedSim, "plan_access", plan)
        try:
            yield counts
        finally:
            self.restore(keep=mark)

    # -- live endpoints (these run in the forked children) -----------------

    def _enter_child(self, role: str) -> None:
        self.rec = Recorder()
        self._role = role
        self._in_slots = False
        self._slot = None

    def _dump(self, filename: str, extra: dict) -> None:
        path = self.cell_dir / filename
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"series": self.rec.to_json(), **extra}, fh)
        os.replace(tmp, path)

    def _trojan_send(self, fn):
        signature = inspect.signature(fn)

        def trojan_send(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self._enter_child("sender")
            log = fn(*args, **kwargs)
            # Write only once the receiver's last probe is due and done, so
            # the file write cannot disturb a measured slot.
            cfg, epoch_ns = bound.arguments["cfg"], bound.arguments["epoch_ns"]
            last_probe_ns = epoch_ns + (len(log) - 1) * cfg.sync_period_ns + cfg.guard_ns
            time.sleep(max(0.0, (last_probe_ns + PROBE_ALLOWANCE_NS - _now_rt()) / 1e9))
            if self.full:
                for entry in log:
                    self.rec.add("live.sender_work", entry.end_ns - entry.start_ns)
                    self.rec.add("live.sender_lateness", entry.start_ns - entry.deadline_ns)
                    self.rec.add("live.sender_overrun", float(entry.overrun))
                    self.rec.add("live.evict_confirmed", float(entry.evict_confirmed is True))
            self._dump(SENDER_FILE, {"slots": len(log)})
            return log

        return trojan_send

    def _spy_receive(self, fn):
        signature = inspect.signature(fn)

        def spy_receive(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self._enter_child("receiver")
            self._epoch_ns = bound.arguments["epoch_ns"]
            self._expected = bound.arguments.get("expected") or []
            report = fn(*args, **kwargs)
            self._close_slot()
            self._dump(RECEIVER_FILE, {"bits": len(report.received)})
            return report

        return spy_receive

    def _live_pair(self, fn, protocol):
        def page_pair_for_slot(cfg, k):
            t0 = time.perf_counter_ns()
            pair = fn(cfg, k)
            self.rec.add("protocol.page_pair_for_slot", time.perf_counter_ns() - t0)
            if self._role is not None:
                self._in_slots = True
            if self._role == "receiver" and k < len(self._expected):
                self._close_slot()
                self._slot = _Slot(
                    protocol.slot_deadline(cfg, self._epoch_ns, k, "receiver"),
                    protocol.encode_target(self._expected[k], pair),
                )
            return pair

        return page_pair_for_slot

    def _read_byte(self, fn):
        def read_byte(region, page):
            slot = self._slot
            if slot is None:
                return fn(region, page)
            start = _now_rt()
            try:
                return fn(region, page)
            finally:
                # list.append is atomic, and both accessor threads have
                # joined before the receiver closes the slot
                slot.reads.append((page, start, _now_rt()))

        return read_byte

    def _close_slot(self) -> None:
        slot, self._slot = self._slot, None
        if slot is None or not slot.reads:
            return
        first = min(start for _, start, _ in slot.reads)
        last = max(end for _, _, end in slot.reads)
        self.rec.add("live.probe_lateness", first - slot.deadline_ns)
        self.rec.add("live.probe_span", last - first)
        for page, start, end in slot.reads:
            name = "live.read_resident" if page == slot.target else "live.read_evicted"
            self.rec.add(name, end - start)

    # -- parent side -------------------------------------------------------

    def collect(self, cell_dir: Path) -> tuple[dict | None, dict | None]:
        """Load and merge what the cell's children wrote. Returns the raw
        sender and receiver records, None for a file that is missing."""
        found = []
        for filename in (SENDER_FILE, RECEIVER_FILE):
            path = cell_dir / filename
            if not path.exists():
                found.append(None)
                continue
            with open(path) as fh:
                data = json.load(fh)
            self.rec.merge(data["series"])
            found.append(data)
        return found[0], found[1]
