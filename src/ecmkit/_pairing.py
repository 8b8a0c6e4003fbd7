"""Exact joint port and retire scheduling over per-cycle patterns.

A unit takes one port from each of its port choice sets, all distinct
within its cycle, and `weight` of the cycle's retire slots. Overlapping
units are the arithmetic ones, the others the memory units. Cycles are
interchangeable, so a schedule is a multiset of per-cycle patterns: count
vectors over the unit kinds whose units get distinct ports and whose weight
fits the retire width. The pattern table is enumerated once per kind set
and retire width, one kind at a time, each kind's count stopping at the
first that does not fit, so its cost depends on the port layout and not on
the width. Whether all units fit in T cycles with the arithmetic in s of
them is then decided by a memoized search that fills one cycle at a time,
branches only on the patterns maximal under the counts still to place, and
prunes a state when a port (Hall) or retire-slot bound shows the rest
cannot fit. The table memoizes that branch list per count vector clamped
to the largest count of each kind in a maximal pattern, so states with
equal clamped counts share one list. The search is exact and has no
budget; it keeps its path on an explicit stack, so its depth is not bounded
by recursion. Solves are memoized by pattern table (kind set and retire
width), count vector and starting bounds in a bounded least-recently-used
cache, so repeated queries and kernels with equal unit counts run the
search once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add, ge, gt, mul, sub
from typing import Iterator


@dataclass(frozen=True)
class Unit:
    """What issues and retires in one cycle: a load, a store's address and
    data, or an arithmetic uop."""

    port_choices: tuple[frozenset[int], ...]  # one port from each set, all in the same cycle
    weight: int
    overlapping: bool

    @cached_property
    def order(self) -> tuple:
        """The kind's place in a pattern table: memory kinds first, heavier
        first, then by port ids. Derived once per Unit object."""
        return (self.overlapping, -self.weight, [sorted(p) for p in self.port_choices])


def port_set_unions(sets) -> set[frozenset[int]]:
    """Every union of one or more of the given port sets."""
    closure = set(sets)
    frontier = list(closure)
    while frontier:
        s = frontier.pop()
        for t in list(closure):
            u = s | t
            if u not in closure:
                closure.add(u)
                frontier.append(u)
    return closure


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(mul, a, b))


@dataclass(frozen=True, eq=False)
class PatternTable:
    """Single-cycle patterns of one kind set, and the bounds they put on the
    counts that fit a number of cycles. Tables are cached and compare by
    identity.

    A search state branches on the maximal patterns truncated to the counts
    it has left. Every maximal pattern lies under `peak`, so the truncation
    depends on the counts only through clamp = min(counts, peak), and the
    step list is memoized per clamp on the table; the cache that bounds the
    tables bounds these lists too.
    """

    weights: tuple[int, ...]
    arithmetic: tuple[int, ...]  # indices of the overlapping kinds
    maximal: tuple[tuple[int, ...], ...]  # patterns no unit can be added to
    # (y, cap_any, cap_memory): see pattern_table
    bounds: tuple[tuple[tuple[int, ...], int, int], ...]
    peak: tuple[int, ...]  # the largest count of each kind in a maximal pattern
    _steps: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = field(default_factory=dict, init=False, repr=False)

    def steps(self, counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The distinct maximal patterns truncated to `counts`, heaviest
        first, without those another one contains."""
        clamp = tuple(map(min, counts, self.peak))
        steps = self._steps.get(clamp)
        if steps is None:
            taken: list[tuple[int, ...]] = []
            # heaviest first, so a step that contains another is kept before it
            truncated = {tuple(map(min, pattern, clamp)) for pattern in self.maximal}
            for step in sorted(truncated, key=lambda v: (-_dot(v, self.weights), v)):
                if not any(all(map(ge, big, step)) for big in taken):
                    taken.append(step)
            steps = self._steps[clamp] = tuple(taken)
        return steps


@lru_cache(maxsize=32)
def pattern_table(kinds: tuple[Unit, ...], width: int) -> PatternTable | None:
    """The pattern table, or None if some unit cannot fit a cycle on its own.

    The patterns are enumerated one kind at a time. Each partial pattern
    carries its retire weight and its port needs inside each union, and a
    kind's count stops at the first count that does not fit: adding a unit
    never makes a pattern fit, and a kind cannot outnumber the ports of its
    own port sets, so the cost depends on the port layout, not on `width`.

    A cycle holds at most cap_any of y . pattern, and a cycle without
    arithmetic at most cap_memory, so counts that fit a cycles and m more
    memory-only cycles have y . counts <= cap_any * a + cap_memory * m.
    The table keeps that bound for y over the port needs inside each union
    of the kinds' port sets (Hall bounds), and over the unit count and the
    retire weight of each subset of kinds. The retire weight of all kinds
    gives the retire-slot bound and the memory-weight bound: the memory
    weight that the memory-only cycles cannot take must fit in the slots the
    arithmetic leaves free. Bounds implied by one or two others are dropped.
    """
    n = len(kinds)
    weights = tuple(k.weight for k in kinds)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    # needs of each kind inside each union of port sets, with the smallest
    # union per need vector; by Hall's theorem the units of a pattern get
    # distinct ports iff no union holds more needs than it has ports
    hall = {
        tuple(sum(ports <= subset for ports in k.port_choices) for k in kinds): len(subset)
        for subset in sorted(port_set_unions(p for k in kinds for p in k.port_choices), key=len, reverse=True)
    }
    sizes = tuple(hall.values())
    if any(w > width for w in weights) or any(y[j] > size for y, size in hall.items() for j in range(n)):
        return None
    # (pattern so far, its retire weight, its needs inside each union)
    partial = [((), 0, (0,) * len(hall))]
    for j, w in enumerate(weights):
        column = tuple(y[j] for y in hall)
        grown = []
        for v, weight, needs in partial:
            count = 0
            while True:
                grown.append((v + (count,), weight, needs))
                weight += w
                needs = tuple(map(add, needs, column))
                if weight > width or any(map(gt, needs, sizes)):
                    break
                count += 1
        partial = grown
    vectors = [v for v, _, _ in partial]
    feasible = set(vectors)
    arithmetic = tuple(j for j, k in enumerate(kinds) if k.overlapping)
    maximal = tuple(v for v in vectors if not any(tuple(map(add, v, u)) in feasible for u in unit))
    # every memory-only pattern lies under a maximal one with its arithmetic
    # dropped, so these give the memory-only maxima of any y >= 0
    memory = {tuple(0 if j in arithmetic else c for j, c in enumerate(v)) for v in maximal}
    ys = set(hall)
    for mask in range(1, 2**n):
        ys.add(tuple(mask >> j & 1 for j in range(n)))
        ys.add(tuple(w * (mask >> j & 1) for j, w in enumerate(weights)))
    caps = {y: (max(_dot(y, p) for p in maximal), max(_dot(y, p) for p in memory)) for y in ys if any(y)}

    def implied(y, cap_any, cap_memory) -> bool:
        for other, (other_any, other_memory) in caps.items():
            difference = tuple(map(sub, y, other))
            if max(difference) <= 0:  # other >= y
                if other_any <= cap_any and other_memory <= cap_memory:
                    return True
            else:  # y = other + rest with rest in the table
                rest = caps.get(difference)
                if rest and other_any + rest[0] <= cap_any and other_memory + rest[1] <= cap_memory:
                    return True
        return False

    for y in sorted(caps, key=sum, reverse=True):
        cap = caps.pop(y)
        if not implied(y, *cap):
            caps[y] = cap
    peak = tuple(max(p[j] for p in maximal) for j in range(n))
    return PatternTable(weights, arithmetic, maximal, tuple((y, *cap) for y, cap in caps.items()), peak)


class PackingSearch:
    """Decides whether counts fit a number of cycles with the arithmetic
    confined to some of them; remembers failed states and counts the states
    it visits."""

    def __init__(self, table: PatternTable):
        self.table = table
        # (counts, arithmetic cycles) -> most memory-only cycles known to be too few
        self.failed: dict[tuple[tuple[int, ...], int], int] = {}
        self.states = 0

    def fits(self, counts: tuple[int, ...], arith_cycles: int, memory_cycles: int) -> bool:
        # depth-first over one cycle per level, with an explicit stack so
        # that the depth (the cycle count) is not bounded by recursion
        stack = []
        state = self._visit(counts, arith_cycles, memory_cycles)
        while state is not True:
            if state is not False:
                stack.append(state)
            while stack:
                key, memory, children = stack[-1]
                child = next(children, None)
                if child is not None:
                    state = self._visit(*child)
                    break
                self.failed[key] = memory
                stack.pop()
            else:
                return False
        return True

    def _visit(self, counts: tuple[int, ...], arith_cycles: int, memory_cycles: int):
        """True or False when the state is decided without branching, else
        its memo key, its memory-only cycles and the states one cycle on."""
        t = self.table
        if not any(counts[j] for j in t.arithmetic):
            # with the arithmetic placed, every cycle left is memory-only
            if not any(counts):
                return True
            arith_cycles, memory_cycles = 0, memory_cycles + arith_cycles
        elif not arith_cycles:
            return False
        key = (counts, arith_cycles)
        if self.failed.get(key, -1) >= memory_cycles:
            return False
        self.states += 1
        for y, cap_any, cap_memory in t.bounds:
            if _dot(y, counts) > cap_any * arith_cycles + cap_memory * memory_cycles:
                return False
        return key, memory_cycles, self._children(counts, arith_cycles, memory_cycles)

    def _children(self, counts: tuple[int, ...], arith_cycles: int, memory_cycles: int) -> Iterator:
        # once the arithmetic is placed, the steps truncate to memory-only patterns
        for step in self.table.steps(counts):
            rest = tuple(map(sub, counts, step))
            if arith_cycles:
                yield rest, arith_cycles - 1, memory_cycles
            else:
                yield rest, 0, memory_cycles - 1


@lru_cache(maxsize=1024)
def _least_span(table: PatternTable, counts: tuple[int, ...], lower: int, raw_ol: int) -> tuple[int, int]:
    """The least span s >= raw_ol of the arithmetic in the first cycle count
    T >= lower that fits `counts` of the table's kinds, and the search states
    visited. The cached table stands for its kind set and retire width and
    is keyed by identity, so kernels with equal unit counts share a solve and
    an entry holds no units of its own."""
    search = PackingSearch(table)
    # The first try, span raw_ol at the lowest total, is the common answer.
    # A fit at any span means the total fits, and span = total fits whenever
    # the total does, so the first total with a fit is T.
    for total in range(lower, sum(counts) + 1):
        for span in range(raw_ol, total + 1):
            if search.fits(counts, span, total - span):
                return span, search.states
    raise AssertionError("unreachable: a cycle per unit always fits")
