"""Exact joint port and retire scheduling over per-cycle patterns.

A unit takes one port from each of its port choice sets, all distinct
within its cycle, and `weight` of the cycle's retire slots. Overlapping
units are the arithmetic ones, the others the memory units. Cycles are
interchangeable, so a schedule is a multiset of per-cycle patterns: count
vectors over the unit kinds whose units get distinct ports (by the Hall
bounds of hall_bounds, which the scheduler's port makespans read too) and
whose weight fits the retire width. A pattern table is enumerated one kind
at a time, each kind's count stopping at the first that does not fit, so
its cost depends on the port layout and not on the width; the caller holds
each table it builds (a machine's scheduler.CoreLayout keeps one per kind set).
Its bounds come from column sums: y . pattern over all maximal patterns at
once adds one column per nonzero entry of y. It keeps every bound, in no
set order: a state is pruned when any bound fails (see pattern_table).

Whether all units fit in T cycles with the arithmetic in s of them is then
decided by a memoized search that fills one cycle at a time, branches on
every maximal pattern truncated to the counts still to place, and prunes a
state when a port (Hall) or retire-slot bound shows the rest cannot fit. A
state carries the slack of every bound, and a child's slack is its parent's
plus a delta stored with its step. The table holds its vectors packed into
integers with a field per entry, wide enough for any slack of at most
MAX_UOPS_PER_LINE units, so a child costs a subtraction, its slack an
addition and its pruning test a mask. The table memoizes its packed step
list and the deltas per count vector clamped to the largest count of each
kind in a maximal pattern. The search is exact and has no budget; it keeps
its path on an explicit stack, so its depth is not bounded by recursion.
This module keeps no solve: the caller that owns the table memoizes
least_span's answers (CoreLayout.span does, per machine, and first tries,
with no table, a built schedule and root bounds over maximal_patterns).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, product
from operator import add, mul
from typing import NamedTuple

from .kernels import MAX_UOPS_PER_LINE


class Unit(NamedTuple):
    """What issues and retires in one cycle: a load, a store's address and
    data, or an arithmetic uop."""

    port_choices: tuple[frozenset[int], ...]  # one port from each set, all in the same cycle
    weight: int
    overlapping: bool


def port_set_unions(sets) -> list[frozenset[int]]:
    """Every union of one or more of the given port sets, in Hall order: by
    size, then by sorted port ids. Each set joins the closure so far."""
    closure: set[frozenset[int]] = set()
    for s in sets:
        closure |= {s | u for u in closure}
        closure.add(s)
    return sorted(closure, key=lambda union: (len(union), sorted(union)))


def hall_bounds(choices) -> dict[tuple[int, ...], frozenset[int]]:
    """The kinds' Hall bounds: for each union of their port choice sets, the
    needs of each kind (its choices inside the union), mapped to the first
    union in Hall order with those needs."""
    bounds: dict[tuple[int, ...], frozenset[int]] = {}
    for union in port_set_unions(p for c in choices for p in c):
        bounds.setdefault(tuple(sum(map(union.issuperset, c)) for c in choices), union)
    return bounds


class PatternTable:
    """Single-cycle patterns of one kind set, the bounds they put on the
    counts that fit a number of cycles (every bound pattern_table derives,
    in an order that does not matter), and their packed form, which every
    search on the table reads. A machine's CoreLayout.tables holds it.

    The packed form holds vectors in integers, `width` bits per field, the
    top (guard) bit above any value a search on the table needs. No entry of
    a bound's y exceeds its cap_any, so the slack of at most MAX_UOPS_PER_LINE
    units in at most as many cycles is smaller than top * MAX_UOPS_PER_LINE
    in size, where top is the largest cap_any or peak count. Counts keep the
    guard bits clear: counts minus a step they contain stay in their fields,
    and counts plus the guard bits minus the peak keep a field's guard bit
    iff the count reaches the peak. A slack is stored with the guard bits
    added, so a field's stays set while its slack is not negative. Packing is
    linear: the bounds' y . counts is the sum of counts[j] times column j,
    the packed y[j] of every bound.

    A search state branches on the maximal patterns truncated to the counts
    it has left. Every maximal pattern lies under `peak`, so the truncation
    depends on the counts only through clamp = min(counts, peak), and the
    table memoizes the packed step list per packed clamp.
    """

    def __init__(self, weights, arithmetic, maximal, bounds, peak):
        self.weights: tuple[int, ...] = weights
        self.arithmetic: tuple[int, ...] = arithmetic  # indices of the overlapping kinds
        self.maximal: tuple[tuple[int, ...], ...] = maximal  # patterns no unit can be added to
        # (y, cap_any, cap_memory): see pattern_table
        self.bounds: tuple[tuple[tuple[int, ...], int, int], ...] = bounds
        self.peak: tuple[int, ...] = peak  # the largest count of each kind in a maximal pattern
        top = max(max(cap_any for _, cap_any, _ in bounds), *peak)
        self.width = width = (top * MAX_UOPS_PER_LINE).bit_length() + 1
        self.field = field = (1 << width - 1) - 1
        self.units = tuple(1 << width * j for j in range(len(peak)))  # packed counts = sum(counts[j] * units[j])
        self.guard = (field + 1) * sum(self.units)
        self.packed_peak = self.pack(peak)
        self.arithmetic_fields = field * sum(self.units[j] for j in arithmetic)  # the arithmetic kinds' fields
        self.offset = _pack((field + 1,) * len(bounds), width)  # every slack field's top bit
        self.columns = tuple(_pack((y[j] for y, _, _ in bounds), width) for j in range(len(peak)))
        self.cap_any = _pack((cap_any for _, cap_any, _ in bounds), width)
        self.cap_memory = _pack((cap_memory for _, _, cap_memory in bounds), width)
        self.gap = self.cap_any - self.cap_memory
        # packed clamp -> steps(clamp)
        self.memo: dict[int, tuple[tuple[int, int, int], ...]] = {}

    def pack(self, counts: tuple[int, ...]) -> int:
        return sum(map(mul, counts, self.units))

    def slack(self, counts: tuple[int, ...], arith_cycles: int, memory_cycles: int) -> int:
        """The packed slack of every bound, top bits added."""
        load = sum(map(mul, counts, self.columns))
        return self.cap_any * arith_cycles + self.cap_memory * memory_cycles - load + self.offset

    def steps(self, clamp: int) -> tuple[tuple[int, int, int], ...]:
        """The distinct maximal patterns truncated to the packed `clamp`,
        heaviest first, each as (packed step, packed delta in an arithmetic
        cycle, packed delta in a memory-only cycle), kept in `memo`, which a
        search reads first. A step that another contains stays: it is a
        redundant but sound child, so no search answer depends on it."""
        counts = tuple(clamp >> self.width * j & self.field for j in range(len(self.units)))
        truncated = {tuple(map(min, pattern, counts)) for pattern in self.maximal}
        steps = []
        for step in sorted(truncated, key=lambda v: (-sum(map(mul, v, self.weights)), v)):
            load = sum(map(mul, step, self.columns))
            steps.append((self.pack(step), load - self.cap_any, load - self.cap_memory))
        self.memo[clamp] = result = tuple(steps)
        return result


def maximal_patterns(bits: int, columns: tuple[int, ...], top: int, limit: int, guard: int) -> tuple[tuple[int, ...], ...]:
    """The patterns no unit can be added to under a fit_rule (bits, columns,
    top, limit, guard), as count vectors, enumerated one kind at a time.
    Each partial pattern carries its retire weight and its port needs inside
    each union, and a kind's count stops at the first count that does not
    fit: adding a unit never makes a pattern fit, and a kind cannot
    outnumber the ports of its own port sets, so the cost depends on the
    port layout, not on the width. A kind that fits no cycle alone is 0."""
    # (pattern so far, one count per `bits`-bit field; its packed needs and weight)
    partial = [(0, 0)]
    for j, column in enumerate(columns):
        unit = 1 << bits * j
        grown = []
        for v, load in partial:
            while True:
                grown.append((v, load))
                load += column
                if load >= top or (limit - load) & guard != guard:
                    break
                v += unit
        partial = grown
    feasible = {v for v, _ in partial}
    # v has a feasible successor iff v = f - unit for some feasible f
    grows = set().union(*({f - (1 << bits * j) for f in feasible} for j in range(len(columns))))
    field = (1 << bits - 1) - 1
    return tuple(tuple(v >> bits * j & field for j in range(len(columns))) for v, _ in partial if v not in grows)


def pattern_table(kinds: tuple[Unit, ...], width: int) -> PatternTable | None:
    """The pattern table, or None if some unit cannot fit a cycle on its own.

    A cycle holds at most cap_any of y . pattern, and a cycle without
    arithmetic at most cap_memory, so counts that fit a cycles and m more
    memory-only cycles have y . counts <= cap_any * a + cap_memory * m.
    The table keeps that bound for y over the needs of each Hall bound
    (hall_bounds), and over the unit count and the retire weight of each
    subset of kinds. The retire weight of all kinds gives the retire-slot
    bound and the memory-weight bound: the memory weight that the
    memory-only cycles cannot take must fit in the slots the arithmetic
    leaves free. Every bound is kept: a search state is pruned when any
    slack is negative, so a bound that others imply prunes nothing they do
    not, and the order of the bounds does not matter.
    """
    n = len(kinds)
    weights = tuple(k.weight for k in kinds)
    hall, *rule = fit_rule(kinds, width)
    if any(w > width for w in weights) or any(y[j] > size for y, size in hall.items() for j in range(n)):
        return None
    maximal = maximal_patterns(*rule)
    arithmetic = tuple(j for j, k in enumerate(kinds) if k.overlapping)
    ys = set(hall)
    for mask in islice(product((0, 1), repeat=n), 1, None):
        ones = mask[::-1]  # the subset of kinds with bit j of 1, 2, ..., 2**n - 1
        ys.add(ones)
        ys.add(tuple(map(mul, ones, weights)))
    columns = list(zip(*maximal))  # each kind's count in every maximal pattern
    peak = tuple(map(max, columns))
    bounds = tuple(_caps(ys, columns, arithmetic))
    return PatternTable(weights, arithmetic, maximal, bounds, peak)


def fit_rule(kinds: tuple[Unit, ...], width: int) -> tuple[dict[tuple[int, ...], int], int, tuple[int, ...], int, int, int]:
    """(hall, bits, columns, top, limit, guard): `hall` maps each Hall
    bound's needs (hall_bounds) to its union's size; a pattern's units get
    distinct ports iff no union holds more needs than it has ports. Kind
    j's column packs its needs in `bits`-bit fields, a guard bit on each,
    and its retire weight above them: a pattern c fits a cycle iff v =
    sum(c[j] * columns[j]) is below `top` (its weight fits) and limit - v
    keeps every guard bit. As every weight is at least 1, the fields hold
    any count of one kind, and the needs, of a pattern whose weight fits."""
    hall = {y: len(union) for y, union in hall_bounds([k.port_choices for k in kinds]).items()}
    sizes = tuple(hall.values())
    bits = max(width * max(map(max, hall)), *sizes).bit_length() + 1
    guard = _pack((1 << bits - 1,) * len(sizes), bits)
    above = bits * len(sizes)  # where the retire weight goes
    columns = tuple(_pack((y[j] for y in hall), bits) + (k.weight << above) for j, k in enumerate(kinds))
    return hall, bits, columns, (width + 1) << above, _pack(sizes, bits) + guard, guard


def _pack(vector, bits: int) -> int:
    """The entries of `vector` in `bits`-bit fields of one integer, the first
    entry lowest."""
    return sum(c << bits * i for i, c in enumerate(vector))


def _caps(ys, columns: list[tuple[int, ...]], arithmetic: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(y, cap_any, cap_memory) for every nonzero y, in the order of `ys`.

    y . pattern over all maximal patterns at once is the sum of y[j] times
    kind j's column. The memory-only patterns are the maximal ones with their
    arithmetic dropped (every memory-only pattern lies under one), so
    cap_memory is the largest sum over the memory kinds alone."""
    memory = [j for j in range(len(columns)) if j not in arithmetic]
    for y in filter(any, ys):
        total, maxima = (0,) * len(columns[0]), []
        for kinds in (memory, arithmetic):
            for j in kinds:
                if y[j]:
                    total = tuple(map(add, total, columns[j] if y[j] == 1 else [y[j] * c for c in columns[j]]))
            maxima.append(max(total))
        yield y, maxima[1], maxima[0]


class PackingSearch:
    """Decides whether counts fit a number of cycles with the arithmetic
    confined to some of them, on a table's packed form and step lists;
    remembers failed states and counts the states it visits.

    A state carries the slack of every bound, cap_any * arithmetic cycles +
    cap_memory * memory-only cycles - y . counts, and is pruned when one is
    negative. A child adds the delta stored with its step, y . step - cap_any
    or y . step - cap_memory; where the arithmetic runs out, each arithmetic
    cycle left turns memory-only and takes cap_any - cap_memory off. Only
    the root's slack is computed from the bounds.
    """

    def __init__(self, table: PatternTable):
        self.table = table
        # (packed counts, arithmetic cycles) -> most memory-only cycles known to be too few
        self.failed: dict[tuple[int, int], int] = {}
        self.states = 0

    def fits(self, counts: tuple[int, ...], arith_cycles: int, memory_cycles: int) -> bool:
        """Whether `counts` fit arith_cycles + memory_cycles cycles with the
        arithmetic confined to arith_cycles of them. The table's fields hold
        the slack of at most MAX_UOPS_PER_LINE units in at most as many cycles."""
        # depth-first over one cycle per level, with an explicit stack so
        # that the depth (the cycle count) is not bounded by recursion
        table = self.table
        failed, memo, width, gap = self.failed, table.memo, table.width, table.gap
        guard, peak, arithmetic, offset = table.guard, table.packed_peak, table.arithmetic_fields, table.offset
        slack = table.slack(counts, arith_cycles, memory_cycles)
        counts, delta = table.pack(counts), 0
        # frames: (memo key, memory-only cycles, counts, arithmetic cycles, slack, steps left)
        stack = []
        while True:
            # visit (counts, arith_cycles, memory_cycles), whose slack is slack + delta
            if not counts & arithmetic:
                # with the arithmetic placed, every cycle left is memory-only
                if not counts:
                    return True
                if arith_cycles:
                    arith_cycles, memory_cycles, delta = 0, memory_cycles + arith_cycles, delta - arith_cycles * gap
                branch = True
            else:
                branch = arith_cycles > 0
            if branch:
                key = (counts, arith_cycles)
                if failed.get(key, -1) < memory_cycles:
                    self.states += 1
                    slack += delta
                    if slack & offset == offset:  # a negative slack clears its field's top bit
                        # min(counts, peak) field by field: a guard bit survives
                        # the subtraction where the count reaches the peak
                        fill = (counts + guard - peak) & guard
                        fill -= fill >> width - 1
                        clamp = counts ^ ((counts ^ peak) & fill)
                        steps = memo.get(clamp)
                        if steps is None:
                            steps = table.steps(clamp)
                        stack.append((key, memory_cycles, counts, arith_cycles, slack, iter(steps)))
            # go to the next child of the deepest state that has one left
            while stack:
                frame = stack[-1]
                step = next(frame[5], None)
                if step is not None:
                    break
                failed[frame[0]] = frame[1]
                stack.pop()
            else:
                return False
            _, memory_cycles, parent, arith_cycles, slack, _ = frame
            step, to_arithmetic, to_memory = step
            counts = parent - step
            if arith_cycles:
                arith_cycles, delta = arith_cycles - 1, to_arithmetic
            else:
                # once the arithmetic is placed, the steps truncate to memory-only patterns
                memory_cycles, delta = memory_cycles - 1, to_memory


def least_span(table: PatternTable, counts: tuple[int, ...], lower: int, start: int) -> tuple[int, int]:
    """The least span s >= start of the arithmetic in the first cycle count
    T >= lower that fits `counts` of the table's kinds, and the search states
    visited; lower >= start. More than MAX_UOPS_PER_LINE units would overflow
    the table's packed fields, so they raise ValueError."""
    if sum(counts) > MAX_UOPS_PER_LINE:
        raise ValueError(f"{sum(counts)} units per cache line, more than {MAX_UOPS_PER_LINE}")
    search = PackingSearch(table)
    # The first try, span `start` at the lowest total, is the common answer.
    # A fit at span s also fits at s + 1 in the same total (an arithmetic
    # cycle may hold any memory-only pattern), so span = total fits whenever
    # the total does, the first total with a fit is T whatever the start,
    # and the answer is the larger of the start and the least span in T.
    for total in range(lower, sum(counts) + 1):
        for span in range(start, total + 1):
            if search.fits(counts, span, total - span):
                return span, search.states
    raise AssertionError("unreachable: a cycle per unit always fits")
