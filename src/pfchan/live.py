"""Live Linux backend.

The backend is Linux-only, and that is checked in one place: importing this
module needs mmap's MAP_PRIVATE and MADV_*, ctypes.memmove and libc's
mincore, and open_region refuses a host without posix_fadvise, or whose
pages are not PAGE_SIZE bytes, with a SetupError. No call falls back to a
quieter channel that would still print an error rate.

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
is the observable) but releases, with madvise(DONTNEED) right after each
probe, every page table entry its reads can have made. A mapped read also
maps the cached pages around it, MADV_RANDOM or not: those of its
fault-around block, 64 KiB, the kernel's default fault_around_bytes, which
only debugfs can change and pfchan never touches. So drop_mapping releases
the whole block around each page read, and at every page_gap nobody maps a
page by the time the schedule wraps back to it. Kernel readahead is
switched off on both paths (FADV_RANDOM, MADV_RANDOM) so a touch of one
page cannot drag its partner into the cache.

The receiver's two accessors are plain threads that _accessors starts once
per receive, pinned to one core. They take reads from one queue, and each
reads one byte of a page through ctypes.memmove. That detour matters: a
foreign call releases the interpreter lock for its duration, so a worker
stuck in a hard fault lets its sibling run, which is the scheduling
behavior the channel measures. A plain index into the mmap object would
hold the lock across the fault and serialize them.

A live process opens its region once, then checks, sets up and runs:
check_host probes the caller's open region in place and marks it if the
host is ready, and both endpoints refuse an unmarked region. One function,
_pinned(who, cpu), turns a role into a core: the receiver and the probe
take the lowest usable core and the sender the next, unless the caller
names one. A receiver is set up by one call, _accessors(region, cpu),
which pins it and starts both workers; spy_receive keeps only the
schedule. run_pair opens and checks before it forks; its children inherit
the marked region and no core, and the sender pins its role's core and
the receiver sets up before each reports ready, so once the epoch is
fixed each has only its first wait left.

Decoding uses only the order in which the two reads finished: each read
reports the order it stands for, T1_LAST for the read of p1 and T2_LAST
for that of p2, once its page is in, and the last one reported decides the
bit. No clock is read anywhere on the decode path.
"""
from __future__ import annotations

import ctypes
import fcntl
import os
import resource
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from mmap import MADV_DONTNEED, MADV_RANDOM, MAP_PRIVATE, PAGESIZE, PROT_READ, PROT_WRITE
from mmap import mmap as _mmap
from queue import SimpleQueue

from .config import LIVE_LEAD_NS, PAGE_SIZE, ChannelConfig
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

# the kernel's default fault_around_bytes: a mapped read of a file page
# also maps the cached pages of the block this long around it
_FAULT_AROUND_BYTES = 16 * PAGE_SIZE

_libc = ctypes.CDLL(None, use_errno=True)
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
    cache and remains evictable through fadvise on the backing file, which
    must open and pass _judge_region_file. Only check_host sets
    host_checked, and only a checked region transmits.
    """

    def __init__(self, path: str, length: int) -> None:
        self.length = length
        self.host_checked = False
        try:
            self._fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        except OSError as exc:
            raise SetupError(f"cannot open backing file {path!r}: {exc.strerror}") from exc
        # a failure past this point releases whatever was set up, since
        # probe_capabilities catches set-up errors and keeps running
        try:
            st, defect = _judge_region_file(self._fd, path, length)
            if defect is not None:
                raise SetupError(defect)
            # the kernel's rule for when mincore reports page-cache state
            self._mincore_reports = st.st_uid == os.geteuid() or (
                os.access(path, os.W_OK, effective_ids=True)
            )
            # PROT_WRITE is needed only so ctypes can take the buffer's
            # address; MAP_PRIVATE makes any write a private copy and no
            # code path writes.
            try:
                self._mm = _mmap(self._fd, length, MAP_PRIVATE, PROT_READ | PROT_WRITE)
            except (OSError, ValueError) as exc:
                raise SetupError(f"cannot map backing file {path!r}: {exc}") from exc
            self._addr = ctypes.addressof(ctypes.c_char.from_buffer(self._mm))
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
        """Touch one byte of the page and return it. The read is a foreign
        call, ctypes.memmove, so the interpreter lock is dropped while a
        fault is serviced."""
        buf = ctypes.c_ubyte(0)
        addr = self._addr + self._offset(page)
        ctypes.memmove(ctypes.byref(buf), addr, 1)
        return buf.value

    def load_byte(self, page: int) -> int:
        """Pull one byte of the page through the file descriptor.

        This fills the page cache like read_byte does but leaves no page
        table entry behind, so the page remains evictable by advice. The
        sender encodes with this; a mapped touch would pin its target
        against eviction for the rest of the process lifetime.
        """
        data = os.pread(self._fd, 1, self._offset(page))
        if len(data) != 1:  # the file shrank after it was judged
            raise RunAbort(f"short read at page {page}")
        return data[0]

    def drop_mapping(self, page: int) -> None:
        """Release this process's page table entries for every page a mapped
        read of the page can have mapped, keeping the page cache untouched.

        That is the page's fault-around block: _FAULT_AROUND_BYTES aligned on
        the page's address, or, where that block would start before the
        region, the same length from the region's first page, as the kernel
        clamps it to the mapping; either way cut off at the region's end.
        The next mapped read of any page in it faults again."""
        offset = self._offset(page)  # before the lookup of a closed region's _mm
        start = max(offset - (self._addr + offset) % _FAULT_AROUND_BYTES, 0)
        self._mm.madvise(MADV_DONTNEED, start, min(_FAULT_AROUND_BYTES, self.length - start))

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
    """Map cfg.region_size bytes of a file, which SharedRegion opens and
    judges. No page is touched here; first access happens inside a timed
    slot. The checks here are the backend's one platform gate: every
    page-sized eviction and the readahead switch-off need posix_fadvise,
    and every page-sized call needs the host's pages to be PAGE_SIZE bytes.
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
    return SharedRegion(path, cfg.region_size)


def _judge_region_file(fd: int, path: str, size: int) -> tuple[os.stat_result, str | None]:
    """The stat of the file open on fd, and why it cannot back size bytes
    of a region, or None. Any kind of file but a regular one, which no
    write mends, raises SetupError instead. Callers open with O_NONBLOCK,
    so a FIFO opens at once, to be refused; a regular file ignores it."""
    import stat  # loaded at interpreter start

    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        raise SetupError(f"backing file {path!r} is not a regular file")
    if st.st_size < size:
        return st, (
            f"backing file {path!r} holds {st.st_size} bytes but the region "
            f"needs {size}; grow the file or shrink region_size"
        )
    if (hole := os.lseek(fd, 0, os.SEEK_HOLE)) < size:
        return st, (
            f"backing file {path!r} has a hole at byte {hole}, where a read "
            f"takes no disk fetch; write the file out in full"
        )
    return st, None


def create_backing_file(path: str, size: int) -> str:
    """Write a patterned file of the given size for use as a shared region,
    unless the path holds a regular file that _judge_region_file passes.

    The file is written block by block, never sparse, over a regular file
    too short or with a hole; any other existing path, or one this process
    cannot read, is refused unwritten. open_region flushes the write's cache.
    """
    if size <= 0:
        raise ConfigError(f"size must be positive, got {size}")
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        pass  # the write below creates it, or says why it cannot
    except OSError as exc:
        raise SetupError(f"cannot open backing file {path!r}: {exc.strerror}") from exc
    else:
        try:
            if _judge_region_file(fd, path, size)[1] is None:
                return path
        finally:
            os.close(fd)
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
        with _pinned("probe"):
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
def _pinned(who: str, cpu: int | None = None):
    """Run the block with the calling thread on core cpu, or with no cpu on
    its role's core, the one place a role becomes a core: the sender takes
    live_cpus()[1], and stays unpinned on a one-core host, and every other
    role live_cpus()[0]. Threads started inside the block inherit the pin.
    The original affinity comes back on exit, and a core that cannot be
    pinned is a startup failure."""
    if cpu is None:
        cpu = live_cpus()[1 if who == "sender" else 0]
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
    """One accessor worker on region: for each (order, page) read taken from
    reads, touch the page, then put the order on done, or the exception the
    read raised. A None ends the worker. Nothing here reads a clock."""
    while (read := reads.get()) is not None:
        order, page = read
        try:
            region.read_byte(page)
        except BaseException as exc:  # unreported, it would hang the receiver
            order = exc
        done.put(order)


@contextmanager
def _accessors(region: SharedRegion, cpu: int | None = None):
    """Set up a receiver on region: pin the calling thread to core cpu, or
    to the receiver's core when cpu is None, and start two workers there, which
    inherit the pin and contend for that core; yield their handle (region,
    reads, done). An unmarked region is a SetupError before any pin or
    start; the caller checks the host, this only checks the mark. Every way
    out joins the workers, one caught starting too, then restores the pin."""
    if not region.host_checked:
        raise SetupError("this region has not passed check_host(region)")
    reads, done = SimpleQueue(), SimpleQueue()
    args = (region, reads, done)
    workers = [threading.Thread(target=_accessor, args=args) for _ in range(2)]
    with _pinned("receiver", cpu):
        try:
            for worker in workers:
                worker.start()
            yield args
        finally:
            for worker in workers:
                reads.put(None)
            for worker in workers:
                if worker.is_alive():
                    worker.join()


def _probe_pair(accessors, pair: PagePair) -> ObservedOrder:
    """Read both pages on the workers and observe completion order: either
    worker may take either read, and each reports the order its read stands
    for, T1_LAST for p1 and T2_LAST for p2, once its page is in: the last
    report names the page that came from disk. Once both reads succeed, p1's
    then p2's fault-around blocks are released (drop_mapping), so no read
    leaves this or another slot's pages mapped, and a wrap finds them
    evictable at every page_gap. Nothing reads a clock."""
    region, reads, done = accessors
    reads.put((ObservedOrder.T1_LAST, pair.p1))
    reads.put((ObservedOrder.T2_LAST, pair.p2))
    finished = (done.get(), done.get())
    for order in finished:
        if isinstance(order, BaseException):
            raise RunAbort(f"accessor read failed in slot {pair.slot}") from order
    region.drop_mapping(pair.p1)
    region.drop_mapping(pair.p2)
    return finished[-1]


def spy_receive(
    accessors,
    cfg: ChannelConfig,
    epoch_ns: int,
    expected: list[int] | None = None,
) -> TransmissionReport:
    """Receive one bit per slot, probing each slot at its guard deadline:
    len(expected) bits, or cfg.payload_bits without the expected payload.

    accessors is the handle of the caller's _accessors, whose workers run
    before the epoch, so a receive keeps only the schedule: per slot it
    waits, probes and decodes the last read's order, and a read that raised
    aborts naming its slot. Without the expected payload the report's sent
    and ber are None. Bandwidth counts whole slots, as on the simulator,
    unless the receiver fell behind them. An expected payload that is empty,
    or holds anything but bits, is a ConfigError before the first wait:
    there is nothing to report on.
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
        decoded.append(decode_from_order(_probe_pair(accessors, pair)))
    end_ns = _now_ns()

    # the last probe comes half a slot before the channel's last slot ends
    elapsed_ns = max(end_ns - epoch_ns, n_bits * cfg.sync_period_ns)
    return TransmissionReport.build(expected, decoded, elapsed_ns)


# -- forked sender/receiver pair ---------------------------------------------
# Each child is a bare os.fork that runs _child_main to its os._exit. It
# talks to the parent over its own pipe: ("ready", None) once its core is
# pinned, and for the receiver its two workers started, then ("result",
# value) when it is done, or ("error", text) from whatever step failed. The
# parent answers "ready" with the epoch. A child that exits closes its end,
# so the parent sees the exit at once as end of file on the pipe, and _reap
# waits on its pidfd.


def _ready(conn) -> int:
    """Tell the parent this endpoint is set up; return the epoch it sends."""
    conn.send(("ready", None))
    return conn.recv()


def _sender_entry(region, cfg, payload, conn):
    with _pinned("sender"):
        trojan_send(region, cfg, payload, _ready(conn))


def _receiver_entry(region, cfg, payload, conn):
    """Set up the receiver, then report ready: once the epoch comes the
    receive has only its first wait left. Every way out, an epoch that never
    comes included, joins both workers and restores the affinity."""
    with _accessors(region) as accessors:
        return spy_receive(accessors, cfg, _ready(conn), expected=payload)


def _child_main(entry, conn, parent_ends, *args) -> None:
    """Run one endpoint in a forked child and send its result, or the text
    of the exception that stopped it, then exit 0, or 1 after its traceback.

    The fork copies the parent's ends of every pipe made so far. Closing
    them first leaves the parent their only holder, so a parent that dies
    shows here as end of file instead of a wait for an epoch that never
    comes. As multiprocessing's children do, the exit waits for every
    non-daemon thread, one that ends the process itself included, and runs
    no atexit handler."""
    from multiprocessing.util import _flush_std_streams

    code = 1
    try:
        try:
            for parent_end in parent_ends:
                parent_end.close()
            conn.send(("result", entry(*args, conn)))
            code = 0
        except BaseException as exc:
            with suppress(OSError):
                conn.send(("error", repr(exc)))
            import traceback
            traceback.print_exc()
        threading._shutdown()
        _flush_std_streams()
    finally:
        os._exit(code)


_REAP_S = 10.0  # the longest wait for a child to exit before it is killed


def _reap(pidfd: int, deadline: float) -> int:
    """The exit code of the child open on pidfd, negative for a signal, once
    reaped; killed if it runs past deadline or _REAP_S, whichever is first."""
    import signal  # loaded with multiprocessing.connection
    from multiprocessing.connection import wait

    if not wait([pidfd], min(deadline - time.monotonic(), _REAP_S)):
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    info = os.waitid(os.P_PIDFD, pidfd, os.WEXITED)
    return info.si_status if info.si_code == os.CLD_EXITED else -info.si_status


def _collect(children, kind: str, deadline: float) -> dict[str, object]:
    """One message of this kind from every child, by name. A child that
    sends an error, or closes its pipe by exiting, aborts the pair."""
    from multiprocessing.connection import wait

    waiting = {conn: (name, pidfd) for name, pidfd, conn in children}
    got: dict[str, object] = {}
    while waiting:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            names = " and ".join(name for name, _ in waiting.values())
            raise RunAbort(f"live {names} sent no {kind} before the deadline")
        for conn in wait(list(waiting), timeout=remaining):
            name, pidfd = waiting.pop(conn)
            try:
                got_kind, value = conn.recv()
            except EOFError:
                got_kind, value = "exit", None
            if got_kind == kind:
                got[name] = value
                continue
            code = _reap(pidfd, deadline)
            if code == 0:
                missing = "reporting ready" if kind == "ready" else "a report"
                raise RunAbort(f"live {name} child exited without {missing}")
            detail = f": {value}" if got_kind == "error" else ""
            raise RunAbort(f"live {name} child exited with code {code}{detail}")
    return got


def run_pair(cfg: ChannelConfig, payload: list[int], region_file: str) -> TransmissionReport:
    """Send the payload from a forked sender to a forked receiver on
    region_file, which must hold cfg.region_size bytes, and return the
    receiver's report. An empty or non-bit payload is a ConfigError; then
    the region is opened and check_host(region) runs, all before any fork.
    Both children inherit the region, marked by that check, and no core:
    each pins its role's core, which _pinned picks, and slot 0 starts
    LIVE_LEAD_NS after both have pinned, the receiver has started its
    workers, and both have reported ready. A child that
    fails or exits early raises RunAbort, with its error text when it sent
    one. Every child is reaped before this returns or raises, killed first
    if it still runs after a failure or _reap's bound."""
    from multiprocessing import connection, util

    if not payload:
        raise ConfigError("cannot send an empty payload: it holds no bits")
    check_bits(payload)
    budget = (LIVE_LEAD_NS + (len(payload) + 5) * cfg.sync_period_ns) / 1e9 + 30.0
    with open_region(region_file, cfg) as region:
        check_host(region)
        deadline = time.monotonic() + budget
        children = []
        try:
            for name, entry in (("receiver", _receiver_entry), ("sender", _sender_entry)):
                conn, child_conn = connection.Pipe()
                parent_ends = [c for _, _, c in children] + [conn]
                util._flush_std_streams()  # or the child writes them out again
                if (pid := os.fork()) == 0:
                    _child_main(entry, child_conn, parent_ends, region, cfg, payload)
                # only the child may hold its end, or its exit would not read
                # as end of file here; closing before the next fork keeps it so
                child_conn.close()
                children.append((name, os.pidfd_open(pid), conn))
            _collect(children, "ready", deadline)
            epoch = _now_ns() + LIVE_LEAD_NS
            # the sender first: its deadline in every slot, slot 0's
            # included, comes before the receiver's probe
            for _, _, conn in reversed(children):
                try:
                    conn.send(epoch)
                except OSError:
                    pass  # that child has exited; collecting its result says how
            report = _collect(children, "result", deadline)["receiver"]
            for name, pidfd, _ in children:
                if (code := _reap(pidfd, deadline)) != 0:
                    raise RunAbort(f"live {name} child exited with code {code}")
        finally:
            for _, pidfd, conn in children:
                with suppress(ChildProcessError):  # reaped already
                    _reap(pidfd, 0.0)  # killed before its pipe closes under it
                os.close(pidfd)
                conn.close()
    return report
