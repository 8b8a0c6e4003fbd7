"""Machine descriptions: issue-port inventory, cache-boundary widths, sustained
memory bandwidths and NUMA layout, plus the built-in Haswell reference model.

All types are immutable after construction and safe to share across threads;
a MemoryModel holds a read-only copy of the bandwidth table it is given, and
a MachineModel tuple copies of its ports and boundaries.
A MachineModel memoizes four things on use: its core layout, its model
inputs and their transfer cells (model.ecm_input) and its scaling curves
(scaling.scale); the cycles per line (an int when the boundary's width
divides the line, see `quotient`) and the bandwidths behind them are
computed on a miss. A machine file is read by one `_schema.fields` call,
each object once, by the specs at the end; as in a kernel file, its first
fault in spec order is reported before a duplicate table signature or a
record's invariant. The memos key on what a query adds to the machine and
never on the machine itself, which is sound because the machine cannot
change. Each is a `Memo`, which states its bound and how concurrent
queries fare.
"""

from __future__ import annotations

import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from ._schema import fields, read_json, require_bool, require_number, require_positive
from .errors import SchemaError

CACHE_LINE_BYTES = 64

PORT_CAPABILITIES = frozenset(
    {
        "load-agu-full",
        "agu-simple",
        "store-data",
        "fma",
        "mul",
        "add",
        "lea",
        "branch",
        "shuffle",
    }
)

BOUNDARY_NAMES = ("L1L2", "L2L3")
# bandwidth interpretations: per NUMA domain (cluster on die) or full chip
MODES = ("cod", "noncod")
# a scaling curve has a point per core, so a chip may have no more
MAX_CORES = 4096

# stream-signature key of a bandwidth table entry
Signature = tuple[int, int, int]
# the entries a machine's input and transfer memos and its layout's span memo may each hold
MEMO_ENTRIES = 1024
# the points a machine's curve memo may hold; a curve has one per core
CURVE_MEMO_POINTS = 16384


def quotient(n: int, d: int) -> int | Fraction:
    """n / d exactly, for ints with d > 0: an int when d divides n, else a Fraction."""
    whole, rest = divmod(n, d)
    return Fraction(n, d) if rest else whole


class kept:
    """A value derived from a record's fields, computed by the decorated
    method on first use and kept in the instance `__dict__` under its name,
    where every later read finds it without running Python code (this is a
    non-data descriptor). It is no field, so ==, hash and repr ignore it.
    Unlike Python 3.11's `functools.cached_property`, a miss takes no lock:
    threads that miss together may each compute the value, and the last one
    stored is kept, so a memo kept this way may lose the others' entries."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.func(record)
        return value


class Memo(dict):
    """A memo of at most `limit` answers: `put(key, value)` clears a full memo
    first, then stores the value and returns it, counting the answers stored
    (`misses`) and the clears (`clears`); a lookup is the dict's own `get`,
    not counted. An entry is only ever the answer for its key, so concurrent
    queries get equal results (two threads that miss on one key both compute
    it), but concurrent puts may lose a count: counts are exact in one thread."""

    __slots__ = ("limit", "misses", "clears")

    def __init__(self, limit: int):
        self.limit, self.misses, self.clears = limit, 0, 0

    def put(self, key, value):
        if len(self) >= self.limit:
            self.clear()
            self.clears += 1
        self[key] = value
        self.misses += 1
        return value


@dataclass(frozen=True)
class PortSpec:
    """One issue port and the uop classes it can execute."""

    id: int
    capabilities: frozenset[str]

    def __post_init__(self):
        require_number(self.id, "port id")
        if self.id < 0:
            raise SchemaError(f"port id must be non-negative, got {self.id}")
        capabilities = frozenset(self.capabilities)
        if not capabilities:
            raise SchemaError(f"port {self.id}: capabilities must be non-empty")
        unknown = capabilities - PORT_CAPABILITIES
        if unknown:
            raise SchemaError(f"port {self.id}: unknown capabilities {sorted(unknown)}")
        object.__setattr__(self, "capabilities", capabilities)

    def __repr__(self):  # sorted: a frozenset's own order follows the string hash seed of the process
        listed = ", ".join(map(repr, sorted(self.capabilities)))
        return f"PortSpec(id={self.id!r}, capabilities=frozenset({{{listed}}}))"


@dataclass(frozen=True)
class CacheBoundary:
    """Width of one cache-hierarchy boundary in bytes per core cycle."""

    name: str
    bytes_per_cycle: int

    def __post_init__(self):
        if self.name not in BOUNDARY_NAMES:
            raise SchemaError(f"CacheBoundary: name must be one of {BOUNDARY_NAMES}, got {self.name!r}")
        b = self.bytes_per_cycle
        require_positive(b, "CacheBoundary {}: bytes_per_cycle", self.name)
        # cycles per cache line must be an exact small rational
        if CACHE_LINE_BYTES % b != 0 and b % CACHE_LINE_BYTES != 0:
            raise SchemaError(
                f"CacheBoundary {self.name}: bytes_per_cycle {b} must divide "
                f"{CACHE_LINE_BYTES} or be a multiple of it"
            )


@dataclass(frozen=True)
class MemoryModel:
    """Sustained-bandwidth table keyed by stream signature.

    Keys are (load streams, store streams, non-temporal store streams); values
    are GB/s, per NUMA domain when the machine runs with domain clustering
    enabled. Lookups never fail: unknown signatures fall back to the default.
    The table is stored as a read-only copy, so the caller's dict may change
    later without changing the model; a copy or pickle rebuilds it from a dict.
    """

    default_bandwidth_gbs: Fraction
    bandwidth_table: Mapping[Signature, Fraction] = field(default_factory=dict)
    # non-clustered chip bandwidth = n_domains * per-domain * derating
    noncod_derating: Fraction = Fraction(1)

    def __post_init__(self):
        require_positive(self.default_bandwidth_gbs, "memory: default_bandwidth_gbs", exact=True)
        for sig, gbs in self.bandwidth_table.items():
            require_positive(gbs, "memory: bandwidth for signature {}", sig, exact=True)
        object.__setattr__(self, "bandwidth_table", MappingProxyType(dict(self.bandwidth_table)))
        require_positive(self.noncod_derating, "memory: noncod_derating", exact=True)

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return MemoryModel, (self.default_bandwidth_gbs, dict(self.bandwidth_table), self.noncod_derating)

    def lookup(self, signature: Signature) -> Fraction:
        return self.bandwidth_table.get(tuple(signature), self.default_bandwidth_gbs)


@dataclass(frozen=True)
class NumaConfig:
    """NUMA domain layout of one chip."""

    n_domains: int
    cores_per_domain: int
    cod_enabled: bool

    def __post_init__(self):
        require_positive(self.n_domains, "numa: domains")
        require_positive(self.cores_per_domain, "numa: cores_per_domain")
        require_bool(self.cod_enabled, "numa: cod")
        if self.total_cores > MAX_CORES:
            raise SchemaError(f"numa: domains x cores_per_domain is {self.total_cores}, more than {MAX_CORES}")

    @property
    def total_cores(self) -> int:
        return self.n_domains * self.cores_per_domain


@dataclass(frozen=True)
class MachineModel:
    """Everything the model needs to know about one processor."""

    name: str
    frequency_ghz: Fraction
    retire_width: int
    store_uop_weight: int
    ports: tuple[PortSpec, ...]
    boundaries: tuple[CacheBoundary, ...]
    memory: MemoryModel
    numa: NumaConfig

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(self.ports))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        require_positive(self.frequency_ghz, "frequency_ghz", exact=True)
        require_positive(self.retire_width, "retire_width")
        require_positive(self.store_uop_weight, "store_uop_weight")
        ids = [p.id for p in self.ports]
        if len(ids) != len(set(ids)):
            raise SchemaError("port ids must be unique")
        names = [b.name for b in self.boundaries]
        if sorted(names) != sorted(BOUNDARY_NAMES):
            raise SchemaError(f"boundaries must contain exactly one of each of {BOUNDARY_NAMES}")

    def cycles_per_cl(self, boundary_name: str) -> int | Fraction:
        """Cycles to move one cache line over the boundary: an int when its
        width divides the line, as Haswell's 64 and 32 B/cycle do."""
        widths = {b.name: b.bytes_per_cycle for b in self.boundaries}
        return quotient(CACHE_LINE_BYTES, widths[boundary_name])

    def ports_with(self, capability: str) -> frozenset[int]:
        return frozenset(p.id for p in self.ports if capability in p.capabilities)

    @kept
    def _core_layout(self):
        """scheduler.CoreLayout of this machine, built on first use; like the
        other kept values, not part of ==, repr or serialization."""
        from .scheduler import CoreLayout  # the scheduler imports this module
        return CoreLayout(self)

    @kept
    def _inputs(self) -> Memo:
        """The model inputs ecm_input has built on this machine, keyed by
        the core timing, the stream tally and the resolved mode (see
        ecmkit.model), at most MEMO_ENTRIES of them; like the layout, not
        part of ==, repr or serialization."""
        return Memo(MEMO_ENTRIES)

    @kept
    def _transfers(self) -> Memo:
        """The transfer cells (t_l1l2, t_l2l3, t_l3mem) an `_inputs` miss takes,
        keyed by the stream tally and the resolved mode; bounded and kept as `_inputs` is."""
        return Memo(MEMO_ENTRIES)

    @kept
    def _curves(self) -> Memo:
        """The scaling curves scale has built on this machine, keyed by the
        values each depends on besides the machine (see ecmkit.scaling), at
        most CURVE_MEMO_POINTS points in all; like the layout, not part of
        ==, repr or serialization."""
        return Memo(CURVE_MEMO_POINTS // self.numa.total_cores)

    def resolve_mode(self, mode: str | None) -> str:
        """The bandwidth interpretation a query runs in: `mode` itself, or the
        machine's configured mode when it is None."""
        if mode is None:
            return "cod" if self.numa.cod_enabled else "noncod"
        if mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
        return mode

    def bandwidth(self, signature: Signature, mode: str | None = None) -> Fraction:
        """Sustained GB/s for a stream signature: per-domain in clustered mode,
        full chip otherwise."""
        per_domain = self.memory.lookup(signature)
        if self.resolve_mode(mode) == "cod":
            return per_domain
        return Fraction(per_domain) * self.numa.n_domains * self.memory.noncod_derating


def builtin_haswell() -> MachineModel:
    """Embedded 14-core dual-domain Haswell server model (Xeon E5-2695 v3 class).

    Port layout: FMA units on ports 0 and 1, the single vector add unit on
    port 1, multiply on 0 and 1, full address generation on 2 and 3, store
    data on 4, the offset-only address unit on 7, fast LEA on 1 and 5
    (overridable via a machine file), branches on 0 and 6, shuffle on 5.
    Bandwidths are per-domain sustained values for each measured access
    pattern; non-temporal signatures reuse their regular counterpart since
    only the transferred volume changes.
    """
    table = {
        (1, 0, 0): "32.4",
        (2, 0, 0): "32.4",
        (0, 1, 0): "23.6",
        (1, 1, 0): "26.3",
        (2, 1, 0): "27.1",
        (3, 1, 0): "27.8",
        (0, 0, 1): "23.6",
        (2, 0, 1): "27.1",
        (3, 0, 1): "27.8",
    }
    return MachineModel(
        name="haswell",
        frequency_ghz=Fraction("2.3"),
        retire_width=4,
        store_uop_weight=2,
        ports=(
            PortSpec(0, frozenset({"fma", "mul", "branch"})),
            PortSpec(1, frozenset({"fma", "mul", "add", "lea"})),
            PortSpec(2, frozenset({"load-agu-full"})),
            PortSpec(3, frozenset({"load-agu-full"})),
            PortSpec(4, frozenset({"store-data"})),
            PortSpec(5, frozenset({"shuffle", "lea"})),
            PortSpec(6, frozenset({"branch"})),
            PortSpec(7, frozenset({"agu-simple"})),
        ),
        boundaries=(
            CacheBoundary("L1L2", 64),
            CacheBoundary("L2L3", 32),
        ),
        memory=MemoryModel(
            default_bandwidth_gbs=Fraction("27.1"),
            bandwidth_table={sig: Fraction(gbs) for sig, gbs in table.items()},
        ),
        numa=NumaConfig(n_domains=2, cores_per_domain=7, cod_enabled=True),
    )


# ---------------------------------------------------------------------------
# file schema

_PORT = {"id": int, "capabilities": [str]}
_BOUNDARY = {"name": object, "bytes_per_cycle": int}
_TABLE_ROW = {"loads": int, "stores": int, "nt_stores": int, "gbs": Fraction}
_NUMA = {"domains": int, "cores_per_domain": int, "cod": bool}


def _table_row(loads: int, stores: int, nt_stores: int, gbs: Fraction) -> tuple[Signature, Fraction]:
    """A row of a machine file's bandwidth table as (signature, GB/s)."""
    return (loads, stores, nt_stores), gbs


_MEMORY = {"default_bandwidth_gbs": Fraction, "table": ([_table_row, _TABLE_ROW], ()),
           "noncod_derating": (Fraction, Fraction(1))}
_MACHINE = {"name": str, "frequency_ghz": Fraction, "retire_width": int, "store_uop_weight": int,
            "ports": [PortSpec, _PORT], "boundaries": [CacheBoundary, _BOUNDARY], "memory": _MEMORY, "numa": _NUMA}


def machine_from_dict(data: dict, context: object = "machine") -> MachineModel:
    """Build and validate a MachineModel from a parsed machine file, read once
    by `fields`; a fault raises SchemaError with `context` (a str or a
    path, formatted only then) in front. Of
    several faults the first is reported: in the file, depth first in spec
    order; then a duplicate table signature; then the invariants of the
    memory model, the NUMA layout and the machine, in that order."""
    try:
        *head, (default_gbs, rows, derating), numa = fields(data, _MACHINE)  # in MachineModel's field order
        try:
            table: dict[Signature, Fraction] = {}
            for i, (signature, gbs) in enumerate(rows):
                if signature in table:
                    raise SchemaError(f"memory: table[{i}]: duplicate signature {signature}")
                table[signature] = gbs
            memory = MemoryModel(default_bandwidth_gbs=default_gbs, bandwidth_table=table, noncod_derating=derating)
            return MachineModel(*head, memory, NumaConfig(*numa))  # numa in NumaConfig's field order
        except SchemaError as exc:
            raise SchemaError(f": {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"{context}{exc}") from None


def load_machine(path) -> MachineModel:
    """Load and validate a machine file (JSON, schema above)."""
    return machine_from_dict(read_json(path), context=path)


def _json_number(value: Fraction, context: str):
    """`value` as an int, or as the float that the file reader, which reads a
    float by its str, reads back as exactly `value`; a ValueError naming
    `context` when there is no such float, as for 7/3."""
    if value.denominator == 1:
        return int(value)
    try:
        number = float(value)
        if Fraction(str(number)) == value:
            return number
    except OverflowError:  # too large for a float
        pass
    raise ValueError(f"{context}: {reprlib.repr(value)} does not read back exactly from a machine file")


def serialize_machine(machine: MachineModel) -> dict:
    """Schema-shaped dict for a machine; json.dump of it reloads field-identically.
    A number that a file cannot hold exactly raises ValueError naming its field."""
    memory = machine.memory
    out = {
        "name": machine.name,
        "frequency_ghz": _json_number(machine.frequency_ghz, "frequency_ghz"),
        "retire_width": machine.retire_width,
        "store_uop_weight": machine.store_uop_weight,
        "ports": [{"id": p.id, "capabilities": sorted(p.capabilities)} for p in machine.ports],
        "boundaries": [{"name": b.name, "bytes_per_cycle": b.bytes_per_cycle} for b in machine.boundaries],
        "memory": {
            "default_bandwidth_gbs": _json_number(memory.default_bandwidth_gbs, "memory: default_bandwidth_gbs"),
            "table": [
                {"loads": sig[0], "stores": sig[1], "nt_stores": sig[2],
                 "gbs": _json_number(gbs, f"memory: bandwidth for signature {sig}")}
                for sig, gbs in sorted(memory.bandwidth_table.items())
            ],
        },
        "numa": {
            "domains": machine.numa.n_domains,
            "cores_per_domain": machine.numa.cores_per_domain,
            "cod": machine.numa.cod_enabled,
        },
    }
    if memory.noncod_derating != 1:
        out["memory"]["noncod_derating"] = _json_number(memory.noncod_derating, "memory: noncod_derating")
    return out
