"""Loop kernels declared as data streams plus per-cache-line uop groups.

A kernel is normalized to one cache line (64 B) of per-stream progress: uop
counts are per cache line of work, so with 8-byte elements and 32-byte vector
memory operations a unit-stride stream contributes two loads or stores per
line. Ships the built-in streaming benchmark set, whose loads and stores
are the ones this rule gives, as the consistency check expects of a file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from ._schema import fields, read_json, require_bool, require_number
from .errors import SchemaError
from .machine import CACHE_LINE_BYTES, kept

ACCESS_KINDS = ("read", "write", "readwrite")
UOP_CLASSES = ("load", "store", "fma", "add", "mul", "lea")
MEMORY_CLASSES = ("load", "store")
ADDRESSING_MODES = ("base-index-offset", "offset-only")

VECTOR_OP_BYTES = 32  # width of a vector memory op, as _implied_memory_uops assumes
# the core timing's cost grows with the uop count, so a kernel may have no more
MAX_UOPS_PER_LINE = 10_000


@dataclass(frozen=True)
class Stream:
    """One array touched by the loop."""

    array_name: str
    access: str
    nontemporal: bool = False

    def __post_init__(self):
        require_bool(self.nontemporal, "stream {!r}: nontemporal", self.array_name)
        if self.access not in ACCESS_KINDS:
            raise SchemaError(f"stream {self.array_name!r}: access must be one of {ACCESS_KINDS}")
        if self.nontemporal and self.access != "write":
            raise SchemaError(f"stream {self.array_name!r}: nontemporal is only valid with access='write'")


@dataclass(frozen=True)
class UopGroup:
    """A number of identical uops issued per cache line of work."""

    count: int
    uop_class: str
    addressing: str | None = None

    def __post_init__(self):
        require_number(self.count, "uop group: count")
        if self.count < 1:
            raise SchemaError(f"uop group: count must be >= 1, got {self.count}")
        if self.uop_class not in UOP_CLASSES:
            raise SchemaError(f"uop group: class must be one of {UOP_CLASSES}, got {self.uop_class!r}")
        if self.uop_class in MEMORY_CLASSES:
            if self.addressing not in ADDRESSING_MODES:
                raise SchemaError(f"uop group ({self.uop_class}): addressing must be one of {ADDRESSING_MODES}")
        elif self.addressing is not None:
            raise SchemaError(f"uop group ({self.uop_class}): addressing only applies to load/store uops")


@dataclass(frozen=True)
class KernelModel:
    name: str
    streams: tuple[Stream, ...]
    element_bytes: int
    uops: tuple[UopGroup, ...]
    flops_per_iteration: int = 0  # reporting only, feeds no prediction

    def __post_init__(self):
        # tuple copies of a caller's lists, which it may change later
        object.__setattr__(self, "streams", tuple(self.streams))
        object.__setattr__(self, "uops", tuple(self.uops))
        require_number(self.element_bytes, "kernel {!r}: element_bytes", self.name)
        require_number(self.flops_per_iteration, "kernel {!r}: flops_per_iteration", self.name)
        if self.element_bytes < 1 or CACHE_LINE_BYTES % self.element_bytes != 0:
            raise SchemaError(f"kernel {self.name!r}: element_bytes must divide {CACHE_LINE_BYTES}")
        names = [s.array_name for s in self.streams]
        if len(names) != len(set(names)):
            raise SchemaError(f"kernel {self.name!r}: stream array names must be unique")
        uops = 0
        for group in self.uops:
            uops += group.count
        if uops > MAX_UOPS_PER_LINE:
            raise SchemaError(f"kernel {self.name!r}: {uops} uops per cache line, more than {MAX_UOPS_PER_LINE}")

    def uop_count(self, uop_class: str) -> int:
        return sum(group.count for group in self.uops if group.uop_class == uop_class)

    @kept
    def _tally(self) -> tuple[int, int, int, int]:
        """_stream_tally of the streams, counted once per kernel object.
        Other streams make a new object, and the kept value is no field, so
        it takes no part in ==, hash or repr."""
        return _stream_tally(self.streams)


def _stream_tally(streams) -> tuple[int, int, int, int]:
    """(reads, read-modify-writes, writes, non-temporal writes) among `streams`,
    in one pass: any other stream is a write, as `Stream` allows no other
    access and a non-temporal flag on writes only."""
    reads = readwrites = writes = nt_writes = 0
    for stream in streams:
        if stream.access == "read":
            reads += 1
        elif stream.access == "readwrite":
            readwrites += 1
        elif stream.nontemporal:
            nt_writes += 1
        else:
            writes += 1
    return reads, readwrites, writes, nt_writes


class StreamCounts(NamedTuple):
    """Stream tally as reported for a kernel: explicit loads, implicit
    write-allocate loads, and written streams."""

    explicit_loads: int
    rfo_streams: int
    write_streams: int


def stream_signature(kernel: KernelModel) -> tuple[int, int, int]:
    """Reporting signature (explicit load streams, store streams, NT store streams).

    A read-modify-write stream appears on both sides: its load is explicit
    and its line is stored to.
    """
    reads, readwrites, writes, nt_writes = kernel._tally
    return (reads + readwrites, writes + readwrites, nt_writes)


def bandwidth_signature(kernel: KernelModel) -> tuple[int, int, int]:
    """Access-pattern key used to pick a sustained-bandwidth table entry.

    Unlike stream_signature, a read-modify-write stream counts on the store
    side only: its memory-boundary traffic (line in, dirty line out) matches a
    plain store stream's pattern, and bandwidth is measured per pattern.
    """
    reads, readwrites, writes, nt_writes = kernel._tally
    return (reads, writes + readwrites, nt_writes)


def stream_counts(kernel: KernelModel) -> StreamCounts:
    reads, readwrites, writes, nt_writes = kernel._tally
    return StreamCounts(
        explicit_loads=reads + readwrites,
        rfo_streams=writes,
        write_streams=writes + nt_writes + readwrites,
    )


def load_streams_with_rfo(kernel: KernelModel) -> int:
    """Streams that load cache lines: explicit reads, read-modify-writes and
    write-allocate misses."""
    reads, readwrites, writes, _nt_writes = kernel._tally
    return reads + readwrites + writes


def with_nt_stores(kernel: KernelModel, nontemporal: bool = True) -> KernelModel:
    """Variant of `kernel` with every write stream's non-temporal flag set/cleared."""
    streams = tuple(
        replace(s, nontemporal=nontemporal) if s.access == "write" else s for s in kernel.streams
    )
    return replace(kernel, streams=streams)


def _implied_memory_uops(tally: tuple[int, int, int, int]) -> tuple[int, int]:
    """(loads, stores) per cache line that streams with this _stream_tally
    imply: a vector op per VECTOR_OP_BYTES of each line a stream loads, and
    of each line it stores."""
    ops_per_cl = CACHE_LINE_BYTES // VECTOR_OP_BYTES
    reads, readwrites, writes, nt_writes = tally
    return ops_per_cl * (reads + readwrites), ops_per_cl * (writes + nt_writes + readwrites)


def consistency_warnings(kernel: KernelModel) -> list[str]:
    """Mismatches between declared uops and what the streams imply.

    Only meaningful for 8-byte elements with 32-byte vector memory ops (two
    per cache line and stream); a kernel of any other element size is not
    checked and gets no warning.
    """
    if kernel.element_bytes != 8:
        return []
    return [
        f"kernel {kernel.name!r}: {actual} {uop_class} uops per cache line, "
        f"but streams imply {expected}"
        for uop_class, expected in zip(MEMORY_CLASSES, _implied_memory_uops(kernel._tally))
        if (actual := kernel.uop_count(uop_class)) != expected
    ]


def _kernel(name, streams, uops=(), flops=0, store_addressing="base-index-offset") -> KernelModel:
    """A built-in kernel: the load and store groups its streams imply
    (_implied_memory_uops), stores with `store_addressing`, then `uops`."""
    streams = tuple(streams)
    memory = zip(_implied_memory_uops(_stream_tally(streams)), MEMORY_CLASSES, ("base-index-offset", store_addressing))
    uops = (*(UopGroup(*group) for group in memory if group[0]), *uops)
    return KernelModel(name=name, streams=streams, element_bytes=8, uops=uops, flops_per_iteration=flops)


def builtin_kernels() -> dict[str, KernelModel]:
    """The built-in streaming kernels, double precision, one cache line of work.

    Includes the base set (ddot, load, store, update, copy, stream_triad,
    schoenauer_triad), the simple-AGU/LEA addressing variant of the Schoenauer
    triad, and non-temporal-store variants of both triads.
    """
    kernels = [
        _kernel(
            "ddot",
            [Stream("A", "read"), Stream("B", "read")],
            [UopGroup(2, "fma")],
            flops=2,
        ),
        _kernel(
            "load",
            [Stream("A", "read")],
            [UopGroup(2, "add")],
            flops=1,
        ),
        _kernel(
            "store",
            [Stream("A", "write")],
        ),
        _kernel(
            "update",
            [Stream("A", "readwrite")],
            [UopGroup(2, "mul")],
            flops=1,
        ),
        _kernel(
            "copy",
            [Stream("B", "read"), Stream("A", "write")],
        ),
        _kernel(
            "stream_triad",
            [Stream("B", "read"), Stream("C", "read"), Stream("A", "write")],
            [UopGroup(2, "fma")],
            flops=2,
        ),
        _kernel(
            "schoenauer_triad",
            [Stream("B", "read"), Stream("C", "read"), Stream("D", "read"), Stream("A", "write")],
            [UopGroup(2, "fma")],
            flops=2,
        ),
        _kernel(
            "schoenauer_triad_opt",
            [Stream("B", "read"), Stream("C", "read"), Stream("D", "read"), Stream("A", "write")],
            [UopGroup(1, "lea"), UopGroup(2, "fma")],
            flops=2,
            store_addressing="offset-only",
        ),
    ]
    by_name = {k.name: k for k in kernels}
    for base in ("stream_triad", "schoenauer_triad"):
        nt = with_nt_stores(by_name[base])
        by_name[f"{base}_nt"] = replace(nt, name=f"{base}_nt")
    return by_name


# ---------------------------------------------------------------------------
# file schema

_STREAM = {"array": str, "access": object, "nontemporal": (bool, False)}
_UOP_GROUP = {"count": int, "class": object, "addressing": (object, None)}
_KERNEL = {"name": str, "streams": [Stream, _STREAM], "element_bytes": int, "uops": [UopGroup, _UOP_GROUP],
           "flops_per_iteration": (int, 0)}  # in KernelModel's field order


def kernel_from_dict(data: dict, context: object = "kernel") -> KernelModel:
    """Build and validate a KernelModel from a parsed kernel file, read once
    by `fields`; a fault raises SchemaError with `context` (a str or a
    path, formatted only then) in front."""
    try:
        return fields(data, _KERNEL, KernelModel)
    except SchemaError as exc:
        raise SchemaError(f"{context}{exc}") from None


def load_kernel(path) -> KernelModel:
    """Load and validate a kernel file. Uop counts that do not match the
    streams load all the same; consistency_warnings(kernel) lists them."""
    return kernel_from_dict(read_json(path), context=path)
