"""In-core cycle counts per cache line from minimum-makespan uop-to-port
assignment, joint retire pairing and the frontend retirement bound.

The core time splits into two components: cycles spent on loads and stores,
which block concurrent L1-L2 traffic, and cycles spent on arithmetic, which
overlaps with it. Each component starts from the minimum number of cycles
needed to place its uops on allowed issue ports at one uop per port and
cycle. The arithmetic component then grows to its pairing span: in the
first cycle count T, counting up from the port and frontend makespans, that
fits a joint schedule of all uops under the per-cycle port and retire
limits, the fewest cycles the arithmetic can be confined to. The retirement
frontend caps total throughput; when it binds (it exceeds the load/store
makespan) the span is sought from the frontend bound up, so its deficit is
charged to the arithmetic component. An exact solver over per-cycle
patterns finds T and the span, unless one builder, placing the units in
runs of equal cycles, fits T at its lower bound with the span at its start
or at the first span that root bounds leave (they fit no schedule below).

core_timing reads the machine through its CoreLayout, compiled once per
MachineModel: the unit kinds, their Hall bounds (hall_bounds, the one form
of every port bound here and in the pattern tables), the packed fit rule,
the root bounds, the pattern tables the solver needs, and the solves.
core_timing returns the two cycle counts only.
build_nol_problem and build_ol_problem give the two port problems as
{allowed ports: uop count} maps for min_cycles, with the port sets taken from
the machine's capabilities, not its CoreLayout, to check core_timing's bounds.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from ._pairing import PatternTable, Unit, _caps, fit_rule, hall_bounds, least_span, maximal_patterns, pattern_table
from .errors import CapabilityError, SchemaError
from .kernels import MEMORY_CLASSES, UOP_CLASSES, KernelModel
from .machine import MEMO_ENTRIES, MachineModel, Memo


class CoreTiming(NamedTuple):
    """Cycles per cache line of work for the two in-core components, as the
    pair (t_ol, t_nol)."""

    t_ol: int
    t_nol: int


def _port_bounds(choices) -> tuple:
    """hall_bounds(choices) in Hall order less the empty union, as (union, size, kind indices, one per choice inside)."""
    return tuple(
        (union, len(union), tuple(j for j, n in enumerate(needs) for _ in range(n)))
        for needs, union in hall_bounds(choices).items() if union
    )


def min_cycles(problem: dict[frozenset[int], int]) -> int:
    """Minimum T such that every uop fits on an allowed port with no port
    receiving more than T uops, for `problem[ports]` uops that may each
    issue on any one of `ports`: each set is a kind of one port choice."""
    if not all(problem) or min(problem.values(), default=1) < 1:
        raise SchemaError("every allowed-port set must be non-empty and every uop count >= 1")
    return _binding_bound(_port_bounds([(ports,) for ports in problem]), list(problem.values()))[0]


def _binding_bound(bounds: tuple, counts: list[int]) -> tuple[int, frozenset[int] | None]:
    """Makespan and the port subset that forces it, for `counts[j]` units of
    kind j and the kinds' Hall bounds from _port_bounds.

    By a Hall-condition argument the optimum equals the maximum over port
    subsets S of ceil(load(S) / |S|), where load(S) counts each unit once
    per port choice of it inside S. The union of the loaded choices inside S
    has S's load on no more ports, and of unions with equal needs the first
    in Hall order (kept by hall_bounds) bounds highest. Ties break toward
    the first bound: the binding union is the first maximizer in Hall order
    among all unions, the same over the machine's kinds as a kernel's own."""
    best_cycles = 0
    best_subset: frozenset[int] | None = None
    for subset, size, members in bounds:
        load = 0
        for j in members:
            load += counts[j]
        bound = -(-load // size)
        if bound > best_cycles:
            best_cycles, best_subset = bound, subset
    return best_cycles, best_subset


class CoreLayout:
    """A machine's issue ports compiled for core_timing, once per MachineModel.

    `needs` maps (uop class, addressing) to (missing load/store capability,
    missing arithmetic capability, index of its kind in `units`). `units` is
    in pattern table order (memory kinds first, heavier first, then by port
    ids), `order` in _place's, `nol_bounds` and `ol_bounds` the memory and
    the arithmetic kinds' _port_bounds over `units`; then the fit rule and
    three `Memo`s: `tables` and `caps` map flags over `units` to tables and
    to root bounds and are never cleared, and `spans` holds span's answers,
    at most MEMO_ENTRIES, so equal unit counts share a solve for life."""

    def __init__(self, machine: MachineModel):
        full = machine.ports_with("load-agu-full")
        data = machine.ports_with("store-data")
        rows = []  # (key, missing capabilities as in needs, unit)
        for addressing, address in (("base-index-offset", full), ("offset-only", full | machine.ports_with("agu-simple"))):
            rows.append((("load", addressing), None if full else "load-agu-full", None, Unit((full,), 1, False)))
            missing = "address-generation" if not address else None if data else "store-data"
            unit = Unit((address, data), machine.store_uop_weight, False)
            rows.append((("store", addressing), missing, None, unit))
        for uop_class in UOP_CLASSES:
            if uop_class not in MEMORY_CLASSES:
                ports = machine.ports_with(uop_class)
                rows.append(((uop_class, None), None, None if ports else uop_class, Unit((ports,), 1, True)))
        kinds = dict.fromkeys(row[3] for row in rows)
        self.units = tuple(sorted(kinds, key=lambda u: (u.overlapping, -u.weight, [sorted(p) for p in u.port_choices])))
        self.needs = {key: (*missing, self.units.index(unit)) for key, *missing, unit in rows}
        self.nol_bounds, self.ol_bounds = (  # a kind of the other component has no port choice
            _port_bounds([u.port_choices if u.overlapping is side else () for u in self.units]) for side in (False, True)
        )
        self.width = machine.retire_width
        # the fit rule over every kind: a union no kind set of a pattern uses
        # only repeats a Hall condition its units must meet anyway
        _, self.bits, self.columns, self.top, self.limit, self.guard = fit_rule(self.units, self.width)
        self.tables: Memo[tuple[bool, ...], PatternTable | None] = Memo(2 ** len(self.units))
        self.arithmetic = tuple(j for j, unit in enumerate(self.units) if unit.overlapping)
        # (kind index, column, weight, overlapping) in _place's order: memory kinds first, heavier first, then the fewest ports
        self.order = sorted(((j, self.columns[j], u.weight, u.overlapping) for j, u in enumerate(self.units)),
                            key=lambda kind: (kind[3], -kind[2], len(frozenset().union(*self.units[kind[0]].port_choices))))
        self.maximal: list[tuple[int, ...]] | None = None  # each kind's count in every maximal pattern
        self.caps: Memo[tuple[bool, ...], tuple[tuple[tuple[bool | int, ...], int, int], ...]] = Memo(2 ** len(self.units))
        self.spans: Memo[tuple[tuple[int, ...], int, int], tuple[int, int]] = Memo(MEMO_ENTRIES)

    def span(self, counts: list[int], lower: int, start: int) -> tuple[int, int]:
        """(span, search states) for unit counts in `units` order: the least
        span s >= start of the arithmetic in the first cycle count T >= lower
        that fits a joint schedule, or `start` as it is when some unit cannot
        fit a cycle on its own; lower >= start.
        A miss tries _place at T = lower and s = start, then, if _unrefuted
        refutes start, at the first s it leaves, answering (s, 0 states) if
        one fits; else the table and the search answer. A unit that fits no
        cycle fits no group of _place, and pattern_table gives None."""
        key = (tuple(counts), lower, start)
        answer = self.spans.get(key)
        if answer is not None:
            return answer
        if start:
            if self._place(counts, lower, start):
                return self.spans.put(key, (start, 0))
            span = self._unrefuted(counts, lower, start)
            if start < span <= lower and self._place(counts, lower, span):
                return self.spans.put(key, (span, 0))
        present = tuple(map(bool, counts))
        if present not in self.tables:  # a stored None is an answer: some unit fits no cycle
            self.tables.put(present, pattern_table(tuple(compress(self.units, present)), self.width))
        table = self.tables[present]
        return self.spans.put(key, (start, 0) if table is None else least_span(table, tuple(filter(None, counts)), lower, start))

    def _place(self, counts: list[int], lower: int, span: int) -> list[tuple[int, list[int]]] | None:
        """A schedule of `lower` cycles with the arithmetic in the first
        `span`, as runs (cycles, count vector) in cycle order, or None where
        this builder finds none. It places the kinds in `order`, one unit per
        cycle of a group of equal cycles at a time, in the group of least
        rank it fits; a group with more cycles than units left splits. Each
        addition passes the fit rule, so a schedule returned is sound."""
        top, limit, guard, width = self.top, self.limit, self.guard, self.width
        # [cycles, packed load, rank, count vector] of each group, in cycle order; the rank is the retire
        # weight, plus width + 1 where arithmetic is allowed, so a memory unit takes a memory-only group first
        groups = [[n, 0, rank, [0] * len(counts)] for n, rank in ((span, width + 1), (lower - span, 0)) if n]
        for j, column, weight, overlapping in self.order:
            left, floor = counts[j], width if overlapping else -1  # the kind's groups rank above floor
            while left:
                best, least = None, 2 * width + 2  # above every rank
                for group in groups:
                    if floor < group[2] < least:
                        v = group[1] + column
                        if v < top and (limit - v) & guard == guard:
                            best, least = group, group[2]
                if best is None:
                    return None
                cycles = best[0]
                if left < cycles:  # the units left take that many of its cycles, the rest stay as they are
                    best[0] = left
                    groups.insert(groups.index(best) + 1, [cycles - left, best[1], best[2], best[3][:]])
                best[1] += column
                best[2] += weight
                best[3][j] += 1
                left -= best[0]
        return [(group[0], group[3]) for group in groups]

    def _unrefuted(self, counts: list[int], lower: int, start: int) -> int:
        """The least span s >= start in `lower` cycles that no root bound
        refutes, or lower + 1: y refutes s, and every span below (cap_any >=
        cap_memory), if y . counts > cap_any * s + cap_memory * (lower - s).
        The y are the present kinds' retire weights and unit counts, capped
        over the machine's maximal patterns, as over the kind set's own."""
        present = tuple(map(bool, counts))
        bounds = self.caps.get(present)
        if bounds is None:
            if self.maximal is None:  # the first refutation enumerates them
                self.maximal = list(zip(*maximal_patterns(self.bits, self.columns, self.top, self.limit, self.guard)))
            weights = tuple(unit.weight * p for unit, p in zip(self.units, present))
            bounds = self.caps.put(present, tuple(_caps((weights, present), self.maximal, self.arithmetic)))
        span = start
        for y, cap_any, cap_memory in bounds:
            load = sum(a * b for a, b in zip(y, counts))
            while span <= lower and load > cap_any * span + cap_memory * (lower - span):
                span += 1
        return span


def build_nol_problem(kernel: KernelModel, machine: MachineModel) -> dict[frozenset[int], int]:
    """Load/store uops only, as {allowed ports: uop count} for min_cycles. A
    load occupies one full address-generation port (the offset-only unit
    serves store addresses, not loads); a store splits into an address uop
    and a data uop."""
    full = machine.ports_with("load-agu-full")
    data = machine.ports_with("store-data")
    problem: dict[frozenset[int], int] = {}
    for g in kernel.uops:
        if g.uop_class == "load":
            if not full:
                raise CapabilityError(f"kernel {kernel.name!r} needs load-agu-full ports")
            problem[full] = problem.get(full, 0) + g.count
        elif g.uop_class == "store":
            addr = full | machine.ports_with("agu-simple") if g.addressing == "offset-only" else full
            if not addr:
                raise CapabilityError(f"kernel {kernel.name!r} needs address-generation ports")
            if not data:
                raise CapabilityError(f"kernel {kernel.name!r} needs store-data ports")
            for ports in (addr, data):
                problem[ports] = problem.get(ports, 0) + g.count
    return problem


def build_ol_problem(kernel: KernelModel, machine: MachineModel) -> dict[frozenset[int], int]:
    """Arithmetic uops only (fma, add, mul, lea), each on the ports with the
    capability of its class's name, as {allowed ports: uop count}."""
    problem: dict[frozenset[int], int] = {}
    for g in kernel.uops:
        if g.uop_class in MEMORY_CLASSES:
            continue
        ports = machine.ports_with(g.uop_class)
        if not ports:
            raise CapabilityError(f"kernel {kernel.name!r} needs {g.uop_class} ports")
        problem[ports] = problem.get(ports, 0) + g.count
    return problem


def frontend_bound(kernel: KernelModel, machine: MachineModel) -> int:
    """Cycles the retirement frontend needs: stores weigh store_uop_weight
    retire slots, everything else one."""
    slots = 0
    for g in kernel.uops:
        weight = machine.store_uop_weight if g.uop_class == "store" else 1
        slots += g.count * weight
    return -(-slots // machine.retire_width)


def core_timing(kernel: KernelModel, machine: MachineModel) -> CoreTiming:
    """Both in-core cycle components.

    t_nol is the load/store port makespan. t_ol is the pairing span: the
    least number of cycles, at least `start`, that the arithmetic can be
    confined to in the first cycle count that fits a joint schedule of all
    uops. `start` is the arithmetic port makespan, raised to the frontend
    bound when that exceeds t_nol, so max(t_ol, t_nol) never undercuts the
    retirement bound. A fit at one span also fits at a larger one in the
    same cycle count, so the start leaves that count unchanged. A kernel
    without arithmetic or without a memory unit pairs nothing: t_ol = start.
    A missing load/store capability is reported before an arithmetic one.
    """
    layout = machine._core_layout
    units = [0] * len(layout.units)
    ol_missing = None
    for g in kernel.uops:
        nol_missing, missing, unit = layout.needs[g.uop_class, g.addressing]
        if nol_missing:
            raise CapabilityError(f"kernel {kernel.name!r} needs {nol_missing} ports")
        ol_missing = ol_missing or missing
        units[unit] += g.count
    if ol_missing:
        raise CapabilityError(f"kernel {kernel.name!r} needs {ol_missing} ports")
    t_nol = _binding_bound(layout.nol_bounds, units)[0]
    raw_ol = _binding_bound(layout.ol_bounds, units)[0]
    fe = frontend_bound(kernel, machine)

    start = max(raw_ol, fe) if fe > t_nol else raw_ol
    t_ol = layout.span(units, max(t_nol, start), start)[0] if raw_ol and t_nol else start
    return CoreTiming(t_ol, t_nol)
