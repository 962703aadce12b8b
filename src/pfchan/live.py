"""Live Linux backend.

The backend is Linux-only, and that is checked in one place: importing this
module needs mmap's MAP_PRIVATE and MADV_* and libc's memcpy and mincore,
and open_region refuses a host without posix_fadvise, or whose pages are
not PAGE_SIZE bytes, with a SetupError. No call falls back to a quieter
channel that would still print an error rate.

The sender and receiver share a read-only file mapped MAP_PRIVATE. Eviction
uses posix_fadvise(DONTNEED), which is advisory: the host check confirms at
startup that advice really evicts, by counting the major fault a mapped read
takes right after it, and the sender reports per-slot confirmation from
mincore as a diagnostic, or None on a file mincore cannot report on. The
channel itself never depends on that confirmation.

DONTNEED refuses to drop a page that any process still has in its page
tables, so both endpoints are careful about what they map. The sender
populates its target page with pread, which fills the page cache without
creating a mapping; the receiver does fault through its mapping (the fault
is the observable) but releases its page table entries with
madvise(DONTNEED) right after each probe. By the time the schedule wraps
back to a page, nobody maps it and the advice works again. Kernel
readahead is switched off on both paths (FADV_RANDOM, MADV_RANDOM) so a
touch of one page cannot drag its partner into the cache.

The receiver's two accessors are two plain threads, started once per
receive by its caller inside its one-core pin, which both inherit. They
take reads from one queue, and each reads one byte of a page through libc
memcpy. That detour matters: a ctypes call releases the interpreter lock
for its duration, so a worker stuck in a hard fault lets its sibling run,
which is the scheduling behavior the channel measures. A plain index into
the mmap object would hold the lock across the fault and serialize them.

A live process opens its region once, then checks, pins and runs:
check_host probes the caller's open region in place and marks it if the
host is ready, and both endpoints refuse an unmarked region. run_pair
opens and checks before it forks; its sender and receiver inherit the
marked region and pin their cores before they report ready, and the
receiver starts its two workers inside that pin, so once the epoch is fixed
each has only its first wait left.

Decoding uses only the order in which the two reads finished: each read
reports its name, t1 for the read of p1 and t2 for that of p2, once its
page is in, and the last name reported decides the bit. No clock is read
anywhere on the decode path.
"""
from __future__ import annotations

import ctypes
import fcntl
import os
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from mmap import MADV_DONTNEED, MADV_RANDOM, MAP_PRIVATE, PAGESIZE, PROT_READ, PROT_WRITE
from mmap import mmap as _mmap
from queue import SimpleQueue

from .config import PAGE_SIZE, ChannelConfig
from .errors import ConfigError, RunAbort, SetupError
from .protocol import (
    ObservedOrder,
    PagePair,
    check_bits,
    decode_from_order,
    encode_target,
    page_pair_for_slot,
    slot_deadline,
)
from .report import TransmissionReport

_libc = ctypes.CDLL(None, use_errno=True)
_libc.memcpy.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t]
_libc.memcpy.restype = ctypes.c_void_p
_libc.mincore.argtypes = [
    ctypes.c_void_p,
    ctypes.c_size_t,
    ctypes.POINTER(ctypes.c_ubyte),
]
_libc.mincore.restype = ctypes.c_int


@dataclass(frozen=True)
class BackendCapabilities:
    """What the host verifiably offers; check_host passes a region only
    when every flag is true."""

    cache_advice_eviction: bool
    cpu_affinity: bool
    notes: tuple[str, ...] = ()

    def _flags(self) -> dict[str, bool]:
        """The flags by name, in order: every field before notes, the last."""
        return {f.name: getattr(self, f.name) for f in fields(self)[:-1]}

    def transmission_ready(self) -> bool:
        return all(self._flags().values())

    def summary(self) -> str:
        lines = [f"{name + ':':<24} {value}" for name, value in self._flags().items()]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class SenderSlotLog:
    """What the sender did in one slot; its fields are the CSV columns of
    `pfchan send --out`.

    slot is the slot index, p1 and p2 the pair's page indices and target the
    page touched for the bit. deadline_ns, start_ns and end_ns are
    CLOCK_REALTIME readings in ns: the slot's sender deadline, the end of
    the wait for it, and the end of the slot's work. evict_confirmed is
    whether mincore saw both pages leave the cache, or None when it cannot
    report on the file. overrun is whether the sender reached the slot
    only after its deadline had passed.
    """

    slot: int
    p1: int
    p2: int
    target: int
    deadline_ns: int
    start_ns: int
    end_ns: int
    evict_confirmed: bool | None
    overrun: bool


class SharedRegion:
    """A file mapped copy-on-write and only ever read.

    The mapping is never written, so every page stays backed by the page
    cache and remains evictable through fadvise on the backing file. A file
    with a hole in the mapped length is refused: a read there takes no disk
    fetch, so the channel would read noise. Only check_host sets
    host_checked, and only a checked region transmits.
    """

    def __init__(self, path: str, length: int) -> None:
        self.length = length
        self.host_checked = False
        self._fd = os.open(path, os.O_RDONLY)
        # a failure past this point releases whatever was set up, since
        # probe_capabilities catches set-up errors and keeps running
        try:
            hole = _first_hole(self._fd)
            if hole < length:
                raise SetupError(
                    f"backing file {path!r} has a hole at byte {hole}, where a "
                    f"read takes no disk fetch; write the file out in full"
                )
            # the kernel's rule for when mincore reports page-cache state
            self._mincore_reports = os.fstat(self._fd).st_uid == os.geteuid() or (
                os.access(path, os.W_OK, effective_ids=True)
            )
            # PROT_WRITE is needed only so ctypes can take the buffer's
            # address; MAP_PRIVATE makes any write a private copy and no
            # code path writes.
            try:
                self._mm = _mmap(self._fd, length, MAP_PRIVATE, PROT_READ | PROT_WRITE)
            except (OSError, ValueError) as exc:
                raise SetupError(f"cannot map backing file {path!r}: {exc}") from exc
            self._view = (ctypes.c_char * length).from_buffer(self._mm)
            self._addr = ctypes.addressof(self._view)
            # readahead off on both access paths, or touching one page of a
            # pair would pull its partner into the cache
            os.posix_fadvise(self._fd, 0, 0, os.POSIX_FADV_RANDOM)
            self._mm.madvise(MADV_RANDOM)
            # flush whatever bulk writes or copies left behind: kernels cache
            # large writes as multi-page folios, and page-sized eviction
            # advice cannot split one. After this flush, pages re-enter one
            # at a time through the channel's own reads.
            os.posix_fadvise(self._fd, 0, 0, os.POSIX_FADV_DONTNEED)
        except BaseException:
            self.close()
            raise

    @property
    def page_count(self) -> int:
        return self.length // PAGE_SIZE

    def _offset(self, page: int) -> int:
        """Byte offset of the page; a page outside the region, or any page
        of a closed one, is a usage error."""
        if self._mm is None:
            raise ConfigError(f"cannot reach page {page}: the region is closed")
        if not (0 <= page < self.page_count):
            raise ConfigError(f"page {page} outside region of {self.page_count} pages")
        return page * PAGE_SIZE

    def read_byte(self, page: int) -> int:
        """Touch one byte of the page and return it. The read goes through
        libc so the interpreter lock is dropped while a fault is serviced."""
        buf = ctypes.c_ubyte(0)
        addr = self._addr + self._offset(page)
        _libc.memcpy(ctypes.byref(buf), ctypes.c_void_p(addr), 1)
        return buf.value

    def load_byte(self, page: int) -> int:
        """Pull one byte of the page through the file descriptor.

        This fills the page cache like read_byte does but leaves no page
        table entry behind, so the page remains evictable by advice. The
        sender encodes with this; a mapped touch would pin its target
        against eviction for the rest of the process lifetime.
        """
        data = os.pread(self._fd, 1, self._offset(page))
        if len(data) != 1:  # the file shrank after open_region checked its size
            raise RunAbort(f"short read at page {page}")
        return data[0]

    def drop_mapping(self, page: int) -> None:
        """Release this process's page table entry for the page, keeping the
        page cache untouched. The next mapped read faults again."""
        offset = self._offset(page)  # before the lookup of a closed region's _mm
        self._mm.madvise(MADV_DONTNEED, offset, PAGE_SIZE)

    def advise_dontneed(self, page: int) -> None:
        os.posix_fadvise(self._fd, self._offset(page), PAGE_SIZE, os.POSIX_FADV_DONTNEED)

    def residency(self, *pages: int) -> list[bool] | None:
        """Page-cache residency of the given pages, in order, or None when
        mincore cannot report on this file. Diagnostics only; a failed
        mincore call raises its OSError.

        Each page is checked with its own one-page mincore call, so the cost
        does not grow with the region. Since Linux 5.0, mincore reports
        page-cache state only on a file the caller owns or can write; on
        any other file every page reads as resident, even right after
        eviction advice, so no call is made there. Confirmation therefore
        stays a diagnostic and never steers the channel. A non-blocking read
        (preadv with RWF_NOWAIT) is no substitute: reading an evicted page
        that way starts readahead, which brings the page back into the
        cache and undoes the eviction it was meant to check.
        """
        offsets = [self._offset(page) for page in pages]
        if not self._mincore_reports:
            return None
        vec = (ctypes.c_ubyte * 1)()
        resident = []
        for page, offset in zip(pages, offsets):
            if _libc.mincore(self._addr + offset, PAGE_SIZE, vec):
                err = ctypes.get_errno()
                raise OSError(err, f"mincore on page {page}: {os.strerror(err)}")
            resident.append(bool(vec[0] & 1))
        return resident

    def close(self) -> None:
        self._view = None
        if getattr(self, "_mm", None) is not None:
            self._mm.close()
            self._mm = None
        if getattr(self, "_fd", -1) >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "SharedRegion":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_region(path: str, cfg: ChannelConfig) -> SharedRegion:
    """Map cfg.region_size bytes of an existing readable file.

    No page is touched here; first access happens inside a timed slot.
    This is the backend's one platform gate: every page-sized eviction and
    the readahead switch-off need posix_fadvise, and every page-sized call
    needs the host's pages to be PAGE_SIZE bytes.
    """
    if not hasattr(os, "posix_fadvise"):
        raise SetupError(
            "the live backend is Linux-only and needs os.posix_fadvise, "
            "which this platform lacks"
        )
    if PAGESIZE != PAGE_SIZE:
        raise SetupError(
            f"the live backend moves {PAGE_SIZE}-byte pages, but this host's "
            f"pages are {PAGESIZE} bytes"
        )
    if not os.path.exists(path):
        raise SetupError(
            f"backing file {path!r} does not exist; create one at least "
            f"{cfg.region_size} bytes long with 'pfchan send --create-region' "
            f"or create_backing_file()"
        )
    if not os.access(path, os.R_OK):
        raise SetupError(f"backing file {path!r} is not readable by this process")
    size = os.path.getsize(path)
    if size < cfg.region_size:
        raise SetupError(
            f"backing file {path!r} holds {size} bytes but the region needs "
            f"{cfg.region_size}; grow the file or shrink region_size"
        )
    return SharedRegion(path, cfg.region_size)


def _first_hole(fd: int) -> int:
    """Byte offset of the file's first hole, or its size when it has none.
    A sparse or fallocated file reads its holes and unwritten extents as
    zeroes without a disk fetch."""
    return os.lseek(fd, 0, os.SEEK_HOLE)


def create_backing_file(path: str, size: int) -> str:
    """Write a patterned file of the given size for use as a shared region,
    unless the file is already at least that long with no hole in its first
    size bytes.

    Blocks are written explicitly so the file is not sparse; reads from
    holes would never hit the disk and the channel would starve. A file
    that is too short or has such a hole is written over. The write-time
    cache state is left for open_region, which flushes it.
    """
    if size <= 0:
        raise ConfigError(f"size must be positive, got {size}")
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            whole = os.fstat(fd).st_size >= size and _first_hole(fd) >= size
        finally:
            os.close(fd)
    except OSError:
        whole = False  # absent or unreadable: the write creates it or says why
    if whole:
        return path
    block = bytes(range(256)) * 4096  # 1 MiB
    try:
        with open(path, "wb") as fh:
            remaining = size
            while remaining > 0:
                fh.write(block[: min(len(block), remaining)])
                remaining -= len(block)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise SetupError(f"cannot write backing file {path!r}: {exc.strerror}") from exc
    return path


def evict_pair(region: SharedRegion, pair: PagePair) -> bool | None:
    """Advise both pages of the pair out of the page cache and return
    whether both left it, or None when mincore cannot report on the file.

    Advisory semantics: absent pages are a no-op, and an unconfirmed
    eviction is a warning, not a failure. A failed advice or mincore call
    raises its OSError.
    """
    region.advise_dontneed(pair.p1)
    region.advise_dontneed(pair.p2)
    residency = region.residency(pair.p1, pair.p2)
    return None if residency is None else not any(residency)


def _major_faults() -> int:
    """Major faults the calling thread has taken so far."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_majflt


# the first two pages of a file, the smallest region a config describes
_PROBE_CFG = ChannelConfig(region_size=2 * PAGE_SIZE, page_gap=2)


def _probe_file(region: SharedRegion | None, *notes: str) -> BackendCapabilities:
    """The host probe: evict and re-read page 0 of the open region, whose
    mapping open_region made, then pin to one core. With no region, the
    eviction flag is off and notes say why. Never raises; a failed step
    turns its flag off and adds a note.

    Eviction is confirmed by its effect, one major fault on the mapped read
    right after the advice, which unlike mincore works on a file the caller
    neither owns nor can write. The page is cached and unmapped before the
    advice, as the sender leaves its target, and advised out at the end, as
    open_region leaves every page. An exclusive flock over that span, then
    released, as the region stays open, keeps a second probe of the file,
    the other endpoint's, from reading page 0 back in between.
    """
    notes = list(notes)
    eviction_ok = False
    affinity_ok = False

    if region is not None:
        locked = True
        try:
            fcntl.flock(region._fd, fcntl.LOCK_EX)
        except OSError as exc:
            locked = False
            notes.append(f"cannot lock the file against another probe: {exc}")
        try:
            region.read_byte(0)
            region.drop_mapping(0)
            region.advise_dontneed(0)
            before = _major_faults()
            region.read_byte(0)
            faults = _major_faults() - before
            region.drop_mapping(0)
            region.advise_dontneed(0)
        except OSError as exc:
            notes.append(f"eviction advice or its check failed: {exc}")
        else:
            eviction_ok = faults == 1
            if not eviction_ok:
                notes.append(
                    f"a read after eviction advice took {faults} major faults, not 1"
                )
        if locked:
            fcntl.flock(region._fd, fcntl.LOCK_UN)

    try:
        with _pinned(live_cpus()[0], "probe"):
            affinity_ok = True
    except (OSError, SetupError) as exc:
        notes.append(f"cpu affinity control failed: {exc}")

    return BackendCapabilities(
        cache_advice_eviction=eviction_ok,
        cpu_affinity=affinity_ok,
        notes=tuple(notes),
    )


def probe_capabilities(scratch_dir: str | None = None) -> BackendCapabilities:
    """Run the host probe on a scratch file that it writes in scratch_dir,
    the temp directory by default, and opens, and report what worked. Never
    raises: a scratch file it cannot write, open or map is a note."""
    import tempfile

    try:
        with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
            scratch = os.path.join(tmp, "probe.bin")
            create_backing_file(scratch, _PROBE_CFG.region_size)
            with open_region(scratch, _PROBE_CFG) as region:
                return _probe_file(region)
    except (OSError, SetupError) as exc:
        return _probe_file(None, f"scratch file setup failed: {exc}")


def check_host(region: SharedRegion) -> None:
    """Run the host probe on the caller's open region, in place, and mark
    the region as checked, or raise SetupError unless the probe's result is
    transmission_ready(). Only a marked region transmits.

    Eviction advice works or not per filesystem, and the region's own pages
    show it. The check opens and writes no file, so the region's directory
    need not be writable, and it confirms advice on a file the caller
    neither owns nor can write as well as on its own."""
    caps = _probe_file(region)
    if not caps.transmission_ready():
        raise SetupError("live backend lacks required capabilities:\n" + caps.summary())
    region.host_checked = True


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_REALTIME)


def live_cpus() -> tuple[int, int | None]:
    """Cores for a live (receiver, sender) pair: the lowest usable core and
    the next one, so the sender's syscalls stay off the receiver's core. With
    a single usable core the sender is None and stays unpinned."""
    usable = sorted(os.sched_getaffinity(0))
    return usable[0], (usable[1] if len(usable) > 1 else None)


_SPIN_NS = 1_000_000


def _wait_until_ns(deadline_ns: int) -> int:
    """Sleep coarsely, then spin the last stretch for ms-scale precision.
    Returns the clock reading at or past the deadline that ended the wait."""
    while True:
        now = _now_ns()
        delta = deadline_ns - now
        if delta <= 0:
            return now
        if delta > _SPIN_NS:
            time.sleep((delta - _SPIN_NS) / 1e9)


@contextmanager
def _pinned(cpu: int | None, who: str):
    """Run the block with the calling thread on core cpu, or unpinned when
    cpu is None; threads it starts inside the block inherit the pin. The
    original affinity comes back on exit, and a core that cannot be pinned
    is a startup failure."""
    if cpu is None:
        yield
        return
    try:
        original = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError) as exc:  # ValueError: a negative core
        raise SetupError(f"cannot pin {who} to one core: {exc}") from exc
    try:
        yield
    finally:
        try:
            os.sched_setaffinity(0, original)
        except OSError:  # pragma: no cover
            pass


def trojan_send(
    region: SharedRegion,
    cfg: ChannelConfig,
    payload: list[int],
    epoch_ns: int,
) -> list[SenderSlotLog]:
    """Transmit the payload: per slot, evict the pair then touch the encode
    target at the sender deadline, on whatever cores the caller allows.

    A missed deadline is logged and the slot still runs, since skipping
    would desynchronize every later slot. A failed eviction advice or
    mincore call raises its OSError and ends the transmission; a non-bit
    payload fails before the first slot, and so does a region that has not
    passed check_host. The caller checks the host; this only checks the mark.
    """
    check_bits(payload)
    if not region.host_checked:
        raise SetupError("this region has not passed check_host(region)")
    log: list[SenderSlotLog] = []
    for k, bit in enumerate(payload):
        pair = page_pair_for_slot(cfg, k)
        target = encode_target(bit, pair)
        deadline = slot_deadline(cfg, epoch_ns, k, "sender")
        arrived = _now_ns()
        start = _wait_until_ns(deadline)
        confirmed = evict_pair(region, pair)
        # pread, not a mapped touch: a page table entry would pin the
        # target against the next wrap's eviction advice
        region.load_byte(target)
        log.append(
            SenderSlotLog(
                slot=k,
                p1=pair.p1,
                p2=pair.p2,
                target=target,
                deadline_ns=deadline,
                start_ns=start,
                end_ns=_now_ns(),
                evict_confirmed=confirmed,
                overrun=arrived > deadline,
            )
        )
    return log


def _accessor(region: SharedRegion, reads: SimpleQueue, done: SimpleQueue) -> None:
    """One accessor worker on region: for each (name, page) read taken from
    reads, touch the page, then put the name on done, or the exception the
    read raised. A None ends the worker. Nothing here reads a clock."""
    while (read := reads.get()) is not None:
        name, page = read
        try:
            region.read_byte(page)
        except BaseException as exc:  # unreported, it would hang the receiver
            name = exc
        done.put(name)


@contextmanager
def _accessors(region: SharedRegion):
    """The (reads, done) queues of two workers started here to read region,
    inside the caller's one-core pin, which both inherit, so they contend
    for that core. A region that has not passed check_host, or a thread
    allowed more than one core, is a SetupError before any worker starts;
    the caller checks the host, this only checks the mark. Leaving the
    block ends and joins every running worker; one caught starting finds
    only ends queued."""
    if not region.host_checked:
        raise SetupError("this region has not passed check_host(region)")
    if len(mask := os.sched_getaffinity(0)) > 1:
        raise SetupError(
            f"the receiver may run on cores {sorted(mask)}; its caller must "
            f"pin it to one core, which both accessor workers share"
        )
    reads, done = SimpleQueue(), SimpleQueue()
    args = (region, reads, done)
    workers = [threading.Thread(target=_accessor, args=args) for _ in range(2)]
    try:
        for worker in workers:
            worker.start()
        yield reads, done
    finally:
        for worker in workers:
            reads.put(None)
        for worker in workers:
            if worker.is_alive():
                worker.join()


def _probe_pair(accessors, pair: PagePair) -> ObservedOrder:
    """Read both pages on the two workers and observe completion order:
    either worker may take either read, and each reports the read's name
    once its page is in, so the last name marks the page that came from
    disk. Nothing here reads a clock."""
    reads, done = accessors
    reads.put(("t1", pair.p1))
    reads.put(("t2", pair.p2))
    finished = (done.get(), done.get())
    for name in finished:
        if isinstance(name, BaseException):
            raise RunAbort(f"accessor read failed in slot {pair.slot}") from name
    return ObservedOrder.T1_LAST if finished[-1] == "t1" else ObservedOrder.T2_LAST


def spy_receive(
    region: SharedRegion,
    accessors,
    cfg: ChannelConfig,
    epoch_ns: int,
    expected: list[int] | None = None,
) -> TransmissionReport:
    """Receive one bit per slot, probing each slot at its guard deadline:
    len(expected) bits, or cfg.payload_bits without the expected payload.

    accessors are the running workers of the caller's _accessors(region),
    opened inside its one-core pin before the epoch, so a receive starts
    no thread and has only its first wait left. Per slot each worker reads
    one page of the pair and reports its name; the last name decides the
    bit, and a read that raised aborts naming its slot. Without the
    expected payload the report's sent and ber are None. Bandwidth counts
    whole slots, as on the simulator, unless the receiver fell behind them.
    An expected payload that is empty, or holds anything but bits, is a
    ConfigError before the first wait: there is nothing to report on.
    """
    if expected is not None:
        if not expected:
            raise ConfigError("cannot receive an empty payload: expected holds no bits")
        check_bits(expected)
    n_bits = cfg.payload_bits if expected is None else len(expected)
    decoded: list[int | None] = []
    for k in range(n_bits):
        pair = page_pair_for_slot(cfg, k)
        _wait_until_ns(slot_deadline(cfg, epoch_ns, k, "receiver"))
        order = _probe_pair(accessors, pair)
        # release our page table entries so the pair stays evictable
        # when the schedule wraps back to it
        region.drop_mapping(pair.p1)
        region.drop_mapping(pair.p2)
        decoded.append(decode_from_order(order))
    end_ns = _now_ns()

    # the last probe comes half a slot before the channel's last slot ends
    elapsed_ns = max(end_ns - epoch_ns, n_bits * cfg.sync_period_ns)
    return TransmissionReport.build(expected, decoded, elapsed_ns)


# -- forked sender/receiver pair ---------------------------------------------
# Entry points are module level so forked children can run them directly.
# Each child talks to the parent over its own pipe: ("ready", None) once its
# core is pinned, and for the receiver its two workers started, then
# ("result", value) when it is done, or ("error", text)
# from whatever step failed. The parent answers "ready" with the epoch. A
# child that exits closes its end, so the parent sees the exit at once as
# end of file on the pipe.


def _ready(conn) -> int:
    """Tell the parent this endpoint is set up; return the epoch it sends."""
    conn.send(("ready", None))
    return conn.recv()


def _sender_entry(region, cfg, payload, cpu, conn):
    with _pinned(cpu, "sender"):
        trojan_send(region, cfg, payload, _ready(conn))


def _receiver_entry(region, cfg, payload, cpu, conn):
    """Pin, start both workers inside the pin, then report ready: once the
    epoch comes the receive has only its first wait left. Every way out, an
    epoch that never comes included, joins both workers."""
    with _pinned(cpu, "receiver"), _accessors(region) as accessors:
        return spy_receive(region, accessors, cfg, _ready(conn), expected=payload)


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


def _collect(children, kind: str, deadline: float) -> dict[str, object]:
    """One message of this kind from every child, by name. A child that
    sends an error, or closes its pipe by exiting, aborts the pair."""
    from multiprocessing.connection import wait

    waiting = {conn: (name, proc) for name, proc, conn in children}
    got: dict[str, object] = {}
    while waiting:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            names = " and ".join(name for name, _ in waiting.values())
            raise RunAbort(f"live {names} sent no {kind} before the deadline")
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


def run_pair(
    cfg: ChannelConfig, payload: list[int], region_file: str, lead_ns: int
) -> TransmissionReport:
    """Send the payload from a forked sender to a forked receiver on
    region_file, which must hold cfg.region_size bytes, and return the
    receiver's report. An empty or non-bit payload, or a negative lead_ns,
    is a ConfigError; then the region is opened and check_host(region)
    runs, all before any fork. Both children inherit the region, marked by
    that check, and slot 0 starts lead_ns after both have pinned their
    cores, the receiver has started its workers, and both have reported
    ready. A child that fails or exits early raises RunAbort, with its
    error text when it sent one."""
    import multiprocessing

    if not payload:
        raise ConfigError("cannot send an empty payload: it holds no bits")
    check_bits(payload)
    if lead_ns < 0:
        raise ConfigError(
            f"lead_ns must be >= 0, got {lead_ns}: a negative lead puts slot 0 "
            f"in the past, so every slot overruns"
        )
    ctx = multiprocessing.get_context("fork")
    receiver_cpu, sender_cpu = live_cpus()
    budget = (lead_ns + (len(payload) + 5) * cfg.sync_period_ns) / 1e9 + 30.0
    with open_region(region_file, cfg) as region:
        check_host(region)
        deadline = time.monotonic() + budget
        children = []
        try:
            for name, entry, cpu in (
                ("receiver", _receiver_entry, receiver_cpu),
                ("sender", _sender_entry, sender_cpu),
            ):
                conn, child_conn = ctx.Pipe()
                parent_ends = [c for _, _, c in children] + [conn]
                proc = ctx.Process(
                    target=_child_main,
                    args=(entry, child_conn, parent_ends, region, cfg, payload, cpu),
                )
                proc.start()
                # only the child may hold its end, or its exit would not read
                # as end of file here; closing before the next fork keeps it so
                child_conn.close()
                children.append((name, proc, conn))
            _collect(children, "ready", deadline)
            epoch = _now_ns() + lead_ns
            # the sender first: its deadline in every slot, slot 0's
            # included, comes before the receiver's probe
            for _, _, conn in reversed(children):
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
    for name, proc, _ in children:
        if proc.exitcode not in (None, 0):
            raise RunAbort(f"live {name} child exited with code {proc.exitcode}")
    return report
