"""In-core cycle counts per cache line from minimum-makespan uop-to-port
assignment, joint retire pairing and the frontend retirement bound.

The core time splits into two components: cycles spent on loads and stores,
which block concurrent L1-L2 traffic, and cycles spent on arithmetic, which
overlaps with it. Each component starts from the minimum number of cycles
needed to place its uops on allowed issue ports at one uop per port and
cycle. The arithmetic component then grows to its pairing span: in the
first cycle count T, counting up from the port and frontend makespans, that
fits a joint schedule of all uops under the per-cycle port and retire
limits, the fewest cycles the arithmetic can be confined to. An exact
solver over per-cycle patterns finds T and the span. The retirement
frontend caps total throughput and, when it binds, the deficit is charged
to the arithmetic component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

from ._pairing import Unit, least_span, port_set_unions
from .errors import CapabilityError, SchemaError
from .kernels import KernelModel
from .machine import MachineModel

# arithmetic uop class -> port capability that executes it
_ARITH_CAPABILITY = {"fma": "fma", "add": "add", "mul": "mul", "lea": "lea"}


@dataclass(frozen=True)
class SchedItem:
    """`multiplicity` identical uops, each needing one of the allowed ports."""

    label: str
    ports: frozenset[int]
    multiplicity: int = 1

    def __post_init__(self):
        if not self.ports:
            raise SchemaError(f"uop {self.label!r}: allowed-port set must be non-empty")
        if self.multiplicity < 1:
            raise SchemaError(f"uop {self.label!r}: multiplicity must be >= 1")


@dataclass(frozen=True)
class SchedulingProblem:
    items: tuple[SchedItem, ...]

    def total_uops(self) -> int:
        return sum(it.multiplicity for it in self.items)


@dataclass(frozen=True)
class CoreTiming:
    """Cycles per cache line of work for the two in-core components."""

    t_ol: int
    t_nol: int
    frontend_cycles: int
    bottleneck: str


def min_cycles(problem: SchedulingProblem) -> int:
    """Minimum T such that every uop fits on an allowed port with no port
    receiving more than T uops."""
    cycles, _ = _binding_bound(problem)
    return cycles


def _binding_bound(problem: SchedulingProblem) -> tuple[int, frozenset[int] | None]:
    """Makespan and the port subset that forces it.

    By a Hall-condition argument the optimum equals the maximum over port
    subsets S of ceil(load(S) / |S|), where load(S) counts uops whose whole
    allowed set lies inside S. Only unions of the distinct allowed sets can
    attain the maximum, so enumerating that closure suffices. Ties break
    toward the smallest subset, then lexicographic port ids.
    """
    items = [(it.ports, it.multiplicity) for it in problem.items]
    if not items:
        return 0, None

    best_cycles = 0
    best_subset: frozenset[int] | None = None
    for subset in _unions_in_order(frozenset(ports for ports, _ in items)):
        load = sum(mult for ports, mult in items if ports <= subset)
        bound = ceil(load / len(subset))
        if bound > best_cycles:
            best_cycles, best_subset = bound, subset
    return best_cycles, best_subset


@lru_cache(maxsize=64)
def _unions_in_order(sets: frozenset[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """The unions of the port sets, smallest first, then by port ids;
    memoized, since every core_timing call for a kernel asks for the same."""
    return tuple(sorted(port_set_unions(sets), key=lambda s: (len(s), sorted(s))))


def _address_ports(machine: MachineModel) -> dict[str, frozenset[int]]:
    """Store-address ports by addressing mode: full address generation, plus
    the simple unit for offset-only addresses."""
    full = machine.ports_with("load-agu-full")
    return {"base-index-offset": full, "offset-only": full | machine.ports_with("agu-simple")}


def build_nol_problem(kernel: KernelModel, machine: MachineModel) -> SchedulingProblem:
    """Load/store uops only. A load occupies one full address-generation port
    (the offset-only unit serves store addresses, not loads); a store splits
    into an address uop and a data uop."""
    full = machine.ports_with("load-agu-full")
    data = machine.ports_with("store-data")
    address = _address_ports(machine)
    items = []
    for g in kernel.uops:
        if g.uop_class == "load":
            if not full:
                raise CapabilityError(f"kernel {kernel.name!r} needs load-agu-full ports")
            items.append(SchedItem(f"load[{g.addressing}]", full, g.count))
        elif g.uop_class == "store":
            addr = address[g.addressing]
            if not addr:
                raise CapabilityError(f"kernel {kernel.name!r} needs address-generation ports")
            if not data:
                raise CapabilityError(f"kernel {kernel.name!r} needs store-data ports")
            items.append(SchedItem(f"store-address[{g.addressing}]", addr, g.count))
            items.append(SchedItem("store-data", data, g.count))
    return SchedulingProblem(tuple(items))


def build_ol_problem(kernel: KernelModel, machine: MachineModel) -> SchedulingProblem:
    """Arithmetic uops only (fma, add, mul, lea)."""
    items = []
    for g in kernel.uops:
        capability = _ARITH_CAPABILITY.get(g.uop_class)
        if capability is None:
            continue
        ports = machine.ports_with(capability)
        if not ports:
            raise CapabilityError(f"kernel {kernel.name!r} needs {capability} ports")
        items.append(SchedItem(g.uop_class, ports, g.count))
    return SchedulingProblem(tuple(items))


def frontend_bound(kernel: KernelModel, machine: MachineModel) -> int:
    """Cycles the retirement frontend needs: stores weigh store_uop_weight
    retire slots, everything else one."""
    slots = 0
    for g in kernel.uops:
        weight = machine.store_uop_weight if g.uop_class == "store" else 1
        slots += g.count * weight
    return ceil(slots / machine.retire_width)


# ---------------------------------------------------------------------------
# joint retire/port pairing
#
# The arithmetic component can exceed its pure port makespan: every cycle
# retires at most retire_width slots, so arithmetic uops must share retire
# groups with the load/store traffic and may be forced apart. A joint
# schedule places every unit in a cycle: one uop per port and cycle, at most
# retire_width retire slots per cycle, and a store's address, data and
# retire slots all in one cycle. The pairing takes the first cycle count T,
# counting up from the makespan, that fits a joint schedule, and then the
# least span s >= raw_ol such that a schedule in T cycles confines the
# arithmetic to s of them.
#
# The units fall into at most 7 kinds: loads, stores per addressing mode,
# and the arithmetic classes, where classes with equal port needs share a
# kind. The _pairing module finds T and the span exactly, with no budget and
# no fallback, by a search over per-cycle patterns of these kinds; its
# pattern table is cached per port layout, retire width, store weight and
# kind set. Building a table costs the same at any retire width, since each
# kind's count stops at the first that does not fit a cycle, and the table
# memoizes each search state's branch list by the state's counts clamped to
# the most units of each kind one cycle can hold, so a cold solve does not
# rebuild that list per state. Each solve is memoized by pattern table,
# count vector and starting bounds in a bounded least-recently-used cache,
# so repeated queries, and kernels or machines that reduce to equal unit
# counts, run the search once; the port and frontend bounds are still
# computed per call, from port sets the machine maps once per capability
# and unions of them that are memoized.


@lru_cache(maxsize=256)
def _unit(port_choices: tuple[frozenset[int], ...], weight: int, overlapping: bool) -> Unit:
    """One Unit object per kind, so that its sort order is derived once."""
    return Unit(port_choices, weight, overlapping)


def _joint_units(kernel: KernelModel, machine: MachineModel) -> dict[Unit, int]:
    """Count of each unit kind; uop classes with the same port needs share one."""
    full = machine.ports_with("load-agu-full")
    data = machine.ports_with("store-data")
    address = _address_ports(machine)
    counts: dict[Unit, int] = {}
    for g in kernel.uops:
        if g.uop_class == "load":
            unit = _unit((full,), 1, False)
        elif g.uop_class == "store":
            unit = _unit((address[g.addressing], data), machine.store_uop_weight, False)
        else:
            unit = _unit((machine.ports_with(_ARITH_CAPABILITY[g.uop_class]),), 1, True)
        counts[unit] = counts.get(unit, 0) + g.count
    return counts


def _pairing_span(kernel: KernelModel, machine: MachineModel, t_nol: int, raw_ol: int, fe: int) -> tuple[int, int]:
    """The pairing span and the number of search states visited to find it.

    T is the first cycle count, counting up from max(t_nol, raw_ol, fe),
    that fits a joint schedule; the span is the least s >= raw_ol such that
    a schedule in T cycles confines the arithmetic to s of them. Both are
    exact. raw_ol is returned as it is when the kernel has no memory unit,
    or when some unit cannot fit a cycle on its own.
    """
    units = _joint_units(kernel, machine)
    if all(u.overlapping for u in units):
        return raw_ol, 0
    return least_span(units, machine.retire_width, max(t_nol, raw_ol, fe), raw_ol)


def _ports_label(ports: frozenset[int]) -> str:
    ids = ",".join(str(p) for p in sorted(ports))
    return f"port {ids}" if len(ports) == 1 else f"ports {ids}"


def core_timing(kernel: KernelModel, machine: MachineModel) -> CoreTiming:
    """Both in-core cycle components plus the binding constraint.

    t_nol is the load/store port makespan. t_ol starts from the arithmetic
    port makespan and grows to the pairing span when retire pairing forces
    the arithmetic uops across more cycles: the least number of cycles the
    arithmetic can be confined to in the first cycle count that fits a
    joint schedule of all uops. It then absorbs any remaining frontend
    deficit so that max(t_ol, t_nol) never undercuts the retirement bound.
    """
    t_nol, nol_subset = _binding_bound(build_nol_problem(kernel, machine))
    raw_ol, ol_subset = _binding_bound(build_ol_problem(kernel, machine))
    fe = frontend_bound(kernel, machine)

    t_ol = raw_ol
    retire_limited = False
    if raw_ol > 0:
        span, _states = _pairing_span(kernel, machine, t_nol, raw_ol, fe)
        if span > raw_ol:
            t_ol = span
            retire_limited = True
    if max(t_ol, t_nol) < fe:
        t_ol = fe
        retire_limited = True

    t_core = max(t_ol, t_nol)
    candidates = []
    if t_core > 0:
        if t_nol == t_core and nol_subset is not None:
            candidates.append(nol_subset)
        if t_ol == t_core and not retire_limited and ol_subset is not None:
            candidates.append(ol_subset)
    if candidates:
        bottleneck = _ports_label(min(candidates, key=lambda s: (len(s), sorted(s))))
    elif t_core > 0:
        bottleneck = "frontend"
    else:
        bottleneck = "none"
    return CoreTiming(t_ol=t_ol, t_nol=t_nol, frontend_cycles=fe, bottleneck=bottleneck)
