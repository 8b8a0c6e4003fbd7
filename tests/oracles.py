"""Independent reference computations the test suite checks the package
against. Deliberately slow and simple; kept free of any package scheduling or
traffic code paths."""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations, count


def brute_force_min_cycles(uop_port_sets: list[frozenset[int]]) -> int:
    """Smallest T for which an exhaustive assignment search places every uop
    on an allowed port with at most T uops per port."""
    uops = sorted(uop_port_sets, key=lambda s: (len(s), sorted(s)))
    if not uops:
        return 0

    def feasible(limit: int) -> bool:
        load: dict[int, int] = {}

        def place(i: int, min_port: int) -> bool:
            if i == len(uops):
                return True
            ports = uops[i]
            # identical consecutive sets are interchangeable: non-decreasing ports
            start = min_port if i > 0 and uops[i - 1] == ports else -1
            for p in sorted(ports):
                if p < start:
                    continue
                if load.get(p, 0) < limit:
                    load[p] = load.get(p, 0) + 1
                    if place(i + 1, p):
                        return True
                    load[p] -= 1
            return False

        return place(0, -1)

    for limit in range(1, len(uops) + 1):
        if feasible(limit):
            return limit
    raise AssertionError("unreachable: T = number of uops is always feasible")


def matching_min_cycles(uop_port_sets: list[frozenset[int]]) -> int:
    """Same quantity via bipartite matching: with T slots per port, a full
    matching of uops to slots must exist."""
    uops = list(uop_port_sets)
    if not uops:
        return 0
    ports = sorted(set().union(*uops))

    def full_matching_exists(limit: int) -> bool:
        slots = [(p, k) for p in ports for k in range(limit)]
        slot_index = {s: i for i, s in enumerate(slots)}
        matched: list[int | None] = [None] * len(slots)

        def augment(u: int, seen: set[int]) -> bool:
            for p in sorted(uops[u]):
                for k in range(limit):
                    s = slot_index[(p, k)]
                    if s in seen:
                        continue
                    seen.add(s)
                    if matched[s] is None or augment(matched[s], seen):
                        matched[s] = u
                        return True
            return False

        return all(augment(u, set()) for u in range(len(uops)))

    for limit in range(1, len(uops) + 1):
        if full_matching_exists(limit):
            return limit
    raise AssertionError("unreachable")


def _port_choices(requirements, used: set[int]):
    if len(requirements) == 1:
        for p in sorted(requirements[0] - used):
            yield (p,)
        return
    first, second = requirements
    for a in sorted(first - used):
        for b in sorted(second - used):
            if a != b:
                yield (a, b)


def _co_schedulable(units, n_cycles: int, ol_window: int, width: int) -> bool:
    """Can all units be placed, overlapping ones within cycles < ol_window?"""
    ports_used: list[set[int]] = [set() for _ in range(n_cycles)]
    slots_used = [0] * n_cycles

    def place(i: int, min_cycle: int) -> bool:
        if i == len(units):
            return True
        choices, weight, overlapping = units[i]
        limit = ol_window if overlapping else n_cycles
        # identical neighbours are interchangeable; force non-decreasing cycles
        start = min_cycle if i > 0 and units[i - 1] == units[i] else 0
        for c in range(start, limit):
            if slots_used[c] + weight > width:
                continue
            for combo in _port_choices(choices, ports_used[c]):
                ports_used[c].update(combo)
                slots_used[c] += weight
                if place(i + 1, c):
                    return True
                slots_used[c] -= weight
                ports_used[c].difference_update(combo)
        return False

    return place(0, 0)


def backtracking_pairing_span(units: list[tuple[tuple[frozenset[int], ...], int, bool]], width: int, raw_ol: int) -> int:
    """Fewest cycles, at least raw_ol, that the overlapping units can span in
    the first cycle count that fits a joint schedule, by placing the units
    one by one into cycles (exponential; small instances only).

    A unit is (port choices, retire weight, overlapping): it takes one port
    from each choice set, all distinct, in one cycle, and weight of the
    cycle's `width` retire slots. Returns raw_ol when a unit cannot fit a
    cycle on its own.
    """
    if any(weight > width or not any(_port_choices(choices, set())) for choices, weight, _ in units):
        return raw_ol
    # stores first, then loads, then arithmetic: most constrained first
    ordered = sorted(units, key=lambda u: (u[2], -u[1], -len(u[0]), [sorted(p) for p in u[0]]))
    lower = max(raw_ol, 1, -(-sum(weight for _, weight, _ in units) // width))
    for total in count(lower):
        for span in range(raw_ol, total + 1):
            if _co_schedulable(ordered, total, span, width):
                return span
    raise AssertionError("unreachable: a cycle per unit always fits")


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def truncated_steps(maximal, weights, counts) -> list[tuple[int, ...]]:
    """The steps a pairing search state with `counts` left branches on,
    recomputed on every call: the distinct maximal patterns truncated to the
    counts, heaviest first, those that another one contains included."""
    steps = {tuple(map(min, pattern, counts)) for pattern in maximal}
    return sorted(steps, key=lambda v: (-_dot(v, weights), v))


def enumerated_pattern_table(kinds, width: int):
    """(maximal patterns, set of bounds) of a kind set, or None if some unit
    cannot fit a cycle on its own, by testing every count 0..width of each
    kind against the retire width and every Hall union of port sets.

    A kind is (port choices, retire weight, overlapping). The bounds are
    (y, cap_any, cap_memory) as the pairing module defines them, every one
    of them. They come back as a set: a search state is pruned when any bound
    fails, so their order is not part of the result.
    """
    n = len(kinds)
    weights = tuple(weight for _, weight, _ in kinds)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    port_sets = sorted({ports for choices, _, _ in kinds for ports in choices}, key=sorted)
    unions = {frozenset().union(*group) for r in range(1, len(port_sets) + 1) for group in combinations(port_sets, r)}
    hall = {}
    for subset in sorted(unions, key=len, reverse=True):
        hall[tuple(sum(ports <= subset for ports in choices) for choices, _, _ in kinds)] = len(subset)

    def fits(vector) -> bool:
        return _dot(vector, weights) <= width and all(_dot(y, vector) <= size for y, size in hall.items())

    if not all(fits(u) for u in unit):
        return None
    vectors = [()]
    for j in range(n):
        vectors = [v + (c,) for v in vectors for c in range(width + 1) if fits(v + (c,) + (0,) * (n - j - 1))]
    feasible = set(vectors)
    arithmetic = [j for j, (_, _, overlapping) in enumerate(kinds) if overlapping]
    memory = [v for v in vectors if not any(v[j] for j in arithmetic)]
    maximal = tuple(v for v in vectors if not any(tuple(a + b for a, b in zip(v, u)) in feasible for u in unit))
    ys = set(hall)
    for mask in range(1, 2**n):
        ys.add(tuple(mask >> j & 1 for j in range(n)))
        ys.add(tuple(w * (mask >> j & 1) for j, w in enumerate(weights)))
    return maximal, {(y, max(_dot(y, p) for p in maximal), max(_dot(y, p) for p in memory)) for y in ys if any(y)}


def independent_bounds(bounds):
    """The bounds that no other bound left, nor the sum of two, implies, by
    the rule pattern tables once pruned their bounds with: in order of
    decreasing sum of y, a bound goes when another with y' >= y has caps no
    larger, or y = y' + y'' for two others whose caps add to no more."""
    live = {y: (cap_any, cap_memory) for y, cap_any, cap_memory in bounds}

    def implied(y, cap_any, cap_memory) -> bool:
        for other, (other_any, other_memory) in live.items():
            if all(o >= v for o, v in zip(other, y)) and other_any <= cap_any and other_memory <= cap_memory:
                return True
            rest = live.get(tuple(v - o for v, o in zip(y, other)))
            if rest and other_any + rest[0] <= cap_any and other_memory + rest[1] <= cap_memory:
                return True
        return False

    kept = []
    for y, cap_any, cap_memory in sorted(bounds, key=lambda bound: sum(bound[0]), reverse=True):
        del live[y]
        if not implied(y, cap_any, cap_memory):
            live[y] = (cap_any, cap_memory)
            kept.append((y, cap_any, cap_memory))
    return tuple(kept)


# ---------------------------------------------------------------------------
# the pairing search as the package ran it before its states carried their
# bounds' slack: every bound's dot product recomputed at each state, children
# from a generator, counts as tuples. It reads a table's bounds, arithmetic
# kinds and maximal patterns, so it searches the package's tables as they
# are, and truncates the patterns itself (truncated_steps), so it shares no
# step code with the search it checks.


class ReferenceSearch:
    """Decides whether counts fit a number of cycles with the arithmetic
    confined to some of them; remembers failed states and counts the states
    it visits."""

    def __init__(self, table):
        self.table = table
        # (counts, arithmetic cycles) -> most memory-only cycles known to be too few
        self.failed = {}
        self.states = 0

    def fits(self, counts, arith_cycles: int, memory_cycles: int) -> bool:
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

    def _visit(self, counts, arith_cycles: int, memory_cycles: int):
        """True or False when the state is decided without branching, else
        its memo key, its memory-only cycles and the states one cycle on."""
        t = self.table
        if not any(counts[j] for j in t.arithmetic):
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

    def _children(self, counts, arith_cycles: int, memory_cycles: int):
        t = self.table
        for step in truncated_steps(t.maximal, t.weights, counts):
            rest = tuple(c - s for c, s in zip(counts, step))
            if arith_cycles:
                yield rest, arith_cycles - 1, memory_cycles
            else:
                yield rest, 0, memory_cycles - 1


def reference_least_span(table, counts, lower: int, raw_ol: int) -> tuple[int, int]:
    """(the least span >= raw_ol in the first total >= lower that fits, the
    search states visited), by ReferenceSearch."""
    search = ReferenceSearch(table)
    for total in range(lower, sum(counts) + 1):
        for span in range(raw_ol, total + 1):
            if search.fits(counts, span, total - span):
                return span, search.states
    raise AssertionError("unreachable: a cycle per unit always fits")


class _Cache:
    """Fully-associative LRU cache level with write-allocate and dirty eviction."""

    def __init__(self, capacity_lines: int):
        self.capacity = capacity_lines
        self.lines: OrderedDict[tuple, bool] = OrderedDict()  # line -> dirty


def cache_replay_traffic(stream_kinds: list[str], n_lines: int = 256) -> tuple[int, int, int]:
    """Event-driven replay of a streaming loop through a three-level inclusive
    write-allocate hierarchy; returns cache lines moved per cache line of work
    at each boundary (innermost first).

    `stream_kinds` entries: 'read', 'write', 'readwrite', 'nt' (non-temporal
    write). Each stream walks its own n_lines distinct lines; totals divide
    n_lines exactly once cold-stop dirty lines are flushed.
    """
    levels = [_Cache(8), _Cache(32), _Cache(128)]
    transfers = [0, 0, 0]  # L1L2, L2L3, L3MEM

    def fetch(level: int, line) -> None:
        """Ensure `line` is resident at `level`, pulling through lower levels."""
        if level == len(levels):
            return  # backing memory
        cache = levels[level].lines
        if line in cache:
            cache.move_to_end(line)
            return
        fetch(level + 1, line)
        transfers[level] += 1  # line crosses into this level
        cache[line] = False
        if len(cache) > levels[level].capacity:
            evicted, dirty = cache.popitem(last=False)
            if dirty:
                writeback(level, evicted)

    def writeback(level: int, line) -> None:
        """Dirty line leaves `level` across its lower boundary."""
        transfers[level] += 1
        if level + 1 == len(levels):
            return
        below = levels[level + 1].lines
        if line in below:
            below[line] = True
            below.move_to_end(line)
        else:  # inclusive hierarchies keep it resident, but stay safe
            below[line] = True
            if len(below) > levels[level + 1].capacity:
                evicted, dirty = below.popitem(last=False)
                if dirty:
                    writeback(level + 1, evicted)

    def access(line, write: bool) -> None:
        fetch(0, line)
        if write:
            levels[0].lines[line] = True

    for i in range(n_lines):
        for s, kind in enumerate(stream_kinds):
            line = (s, i)
            if kind == "read":
                access(line, write=False)
            elif kind == "write":
                access(line, write=True)  # write-allocate then dirty
            elif kind == "readwrite":
                access(line, write=False)
                access(line, write=True)
            elif kind == "nt":
                transfers[2] += 1  # bypasses the caches entirely
            else:
                raise ValueError(kind)

    # cold-stop flush: every dirty line still resident must travel down to
    # memory; flushing inner levels first lets the dirt cascade naturally
    for level in range(len(levels)):
        for line, dirty in list(levels[level].lines.items()):
            if dirty:
                levels[level].lines[line] = False
                writeback(level, line)

    assert all(t % n_lines == 0 for t in transfers), transfers
    return tuple(t // n_lines for t in transfers)


def rational_format_cycles(value: Fraction) -> str:
    """The shorthand cell display by Fraction rounding: one decimal, halves
    away from zero, integers without a decimal point."""

    def round_half_away(v: Fraction) -> Fraction:
        if v < 0:
            return -round_half_away(-v)
        scaled = v * 10
        return Fraction((2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator), 10)

    r = round_half_away(Fraction(value))
    if r.denominator == 1:
        return str(r.numerator)
    tenths = r * 10
    sign = "-" if tenths < 0 else ""
    n = abs(tenths.numerator)
    return f"{sign}{n // 10}.{n % 10}"


def decimal_fraction(text: str) -> Fraction:
    """A decimal literal read by Fraction's own string parser."""
    return Fraction(text)


# ---------------------------------------------------------------------------
# The model arithmetic on Fraction operators, one step at a time, and the
# token-by-token shorthand scanner. The package also runs this arithmetic on
# Fraction operators, behind its memos, keeping integer numerators for its
# warm keys and the formatter; these stay independent
# restatements of predict, the penalty, the memory cycles, the single-core
# figure, the capped-linear curve and its saturation, and parse_ecm.


def fraction_predict(t_ol, t_nol, t_l1l2, t_l2l3, t_l3mem) -> tuple:
    """Per-level cycles: max(t_ol, t_nol + the transfers down to the level)."""
    data = Fraction(0)
    levels = []
    for transfer in (Fraction(0), t_l1l2, t_l2l3, t_l3mem):
        data += transfer
        levels.append(max(t_ol, t_nol + data))
    return tuple(levels)


def fraction_penalty(cells, load_streams: int, cycles_per_stream) -> tuple:
    """The cells with the per-stream cycles added once at L3 and twice at
    memory; ValueError, with the package's message, if they then decrease."""
    core, l2, l3, mem = cells
    per_level = load_streams * Fraction(cycles_per_stream)
    adjusted = (core, l2, l3 + per_level, mem + 2 * per_level)
    if not adjusted[0] <= adjusted[1] <= adjusted[2] <= adjusted[3]:
        shown = ", ".join(str(c) for c in adjusted)
        raise ValueError(f"penalized prediction cells must not decrease from L1 to memory, got {shown}")
    return adjusted


def fraction_mem_cycles_per_cl(bandwidth_gbs, frequency_ghz) -> Fraction:
    """64 B * f / b."""
    return Fraction(64) * Fraction(frequency_ghz) / Fraction(bandwidth_gbs)


def fraction_single_core_performance(t_mem, frequency_ghz, iterations_per_line: int) -> Fraction:
    """MUp/s of one core: f * 1000 * iterations per line / t_mem."""
    return Fraction(frequency_ghz) * 1000 * iterations_per_line / t_mem


def fraction_model_error(predicted: dict, measured: dict) -> tuple[dict, dict]:
    """(absolute, signed) percent errors (predicted - measured) / measured
    of the levels both hold, each rounded by floor(|x| + 1/2) with the sign
    put back, so halves go away from zero."""
    absolute, signed = {}, {}
    for level in predicted.keys() & measured.keys():
        rel = (Fraction(predicted[level]) - measured[level]) / measured[level] * 100
        absolute[level] = math.floor(abs(rel) + Fraction(1, 2))
        signed[level] = absolute[level] if rel >= 0 else -absolute[level]
    return absolute, signed


def capped_linear_points(p1, cap_of_cores, max_cores: int) -> list[tuple[int, Fraction, bool]]:
    """(cores, MUp/s, bandwidth bound) for 1..max_cores: n * p1 until it
    reaches the cap of n cores, then the cap; None caps nothing."""
    points = []
    for n in range(1, max_cores + 1):
        linear = n * p1
        cap = cap_of_cores(n)
        bound = cap is not None and linear >= cap
        points.append((n, cap if bound else linear, bound))
    return points


def saturation_of(points: list[tuple[int, Fraction, bool]]) -> int | None:
    """The first core count from which every point is bandwidth bound, or
    None if the last point is not."""
    for n, _, _ in points:
        if all(bound for _, _, bound in points[n - 1:]):
            return n
    return None


def scan_ecm(text: str) -> tuple:
    """("input", cells) or ("prediction", cells) for shorthand text, else
    ("error", message, position) with the message as the package states it."""
    pos = 0

    class Fail(Exception):
        pass

    def fail(message):
        raise Fail(message)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(token):
        nonlocal pos
        skip_ws()
        if not text.startswith(token, pos):
            fail(f"expected {token!r}")
        pos += len(token)

    def digit(at):
        return at < len(text) and text[at] in "0123456789"  # ASCII only, not str.isdecimal

    def number():
        nonlocal pos
        skip_ws()
        start = pos
        while digit(pos):
            pos += 1
        if pos == start:
            fail("expected a number")
        whole, frac = text[start:pos], ""
        if pos < len(text) and text[pos] == "." and digit(pos + 1):
            pos += 1
            begin = pos
            while digit(pos):
                pos += 1
            frac = text[begin:pos]
        return Fraction(int(whole + frac), 10 ** len(frac))

    try:
        expect("{")
        values = [number()]
        separators = []
        while True:
            skip_ws()
            if pos >= len(text):
                fail("unterminated value, expected '}'")
            if text[pos] == "}":
                pos += 1
                break
            for sep in ("||", "|", "\\"):
                if text.startswith(sep, pos):
                    separators.append(sep)
                    pos += len(sep)
                    break
            else:
                fail("expected '||', '|', '\\' or '}'")
            values.append(number())
        skip_ws()
        if pos != len(text):
            fail("trailing characters after '}'")
    except Fail as exc:
        return ("error", f"{exc} (at position {pos})", pos)
    if separators == ["||", "|", "|", "|"]:
        return ("input", tuple(values))
    if separators == ["\\", "\\", "\\"]:
        return ("prediction", tuple(values))
    position = len(text) - 1
    message = "malformed shorthand: expected {a || b | c | d | e} or {a \\ b \\ c \\ d}"
    return ("error", f"{message} (at position {position})", position)


# ---------------------------------------------------------------------------
# core_timing as the package computed it before it compiled a port layout per
# machine: per-call port-set lists for the load/store and the arithmetic
# problems, the Hall bound over the unions of the kernel's own port sets, and
# pairing units built from the machine's capabilities. The pairing solve is
# the package's exact one (ecmkit._pairing), which the layout leaves alone.


def _problem_binding_bound(items: list[tuple[frozenset[int], int]]) -> int:
    """max over unions S of the items' port sets of ceil(load(S) / |S|)."""
    closure = {ports for ports, _ in items}
    grown = True
    while grown:
        new = {a | b for a in closure for b in closure} - closure
        closure |= new
        grown = bool(new)
    loads = [sum(mult for ports, mult in items if ports <= union) for union in closure]
    return max((-(-load // len(union)) for load, union in zip(loads, closure)), default=0)


def problem_core_timing(kernel, machine) -> tuple[int, int]:
    """(t_ol, t_nol), raising the package's
    CapabilityError with its messages: load/store checks in uop order first,
    then the arithmetic ones. The span is sought from the arithmetic port
    makespan up and raised to the frontend bound afterwards, where that
    exceeds both components: the rule core_timing replaced with a search that
    starts at the frontend bound, kept here as the independent reference."""
    from ecmkit._pairing import Unit, least_span, pattern_table
    from ecmkit.errors import CapabilityError

    full = machine.ports_with("load-agu-full")
    data = machine.ports_with("store-data")
    nol, ol, units = [], [], {}
    for g in kernel.uops:
        if g.uop_class == "load":
            if not full:
                raise CapabilityError(f"kernel {kernel.name!r} needs load-agu-full ports")
            nol.append((full, g.count))
            unit = Unit((full,), 1, False)
        elif g.uop_class == "store":
            address = full | machine.ports_with("agu-simple") if g.addressing == "offset-only" else full
            if not address:
                raise CapabilityError(f"kernel {kernel.name!r} needs address-generation ports")
            if not data:
                raise CapabilityError(f"kernel {kernel.name!r} needs store-data ports")
            nol += [(address, g.count), (data, g.count)]
            unit = Unit((address, data), machine.store_uop_weight, False)
        else:
            unit = Unit((machine.ports_with(g.uop_class),), 1, True)
        units[unit] = units.get(unit, 0) + g.count
    for g in kernel.uops:
        if g.uop_class not in ("load", "store"):
            ports = machine.ports_with(g.uop_class)
            if not ports:
                raise CapabilityError(f"kernel {kernel.name!r} needs {g.uop_class} ports")
            ol.append((ports, g.count))

    t_nol = _problem_binding_bound(nol)
    raw_ol = _problem_binding_bound(ol)
    slots = sum(g.count * (machine.store_uop_weight if g.uop_class == "store" else 1) for g in kernel.uops)
    fe = -(-slots // machine.retire_width)

    t_ol = raw_ol
    if raw_ol > 0 and not all(u.overlapping for u in units):
        kinds = tuple(sorted(units, key=lambda u: (u.overlapping, -u.weight, [sorted(p) for p in u.port_choices])))
        table = pattern_table(kinds, machine.retire_width)
        if table is not None:
            span, _ = least_span(table, tuple(units[k] for k in kinds), max(t_nol, raw_ol, fe), raw_ol)
            if span > raw_ol:
                t_ol = span
    if max(t_ol, t_nol) < fe:
        t_ol = fe
    return t_ol, t_nol


# ---------------------------------------------------------------------------
# loader messages of a parsed file with one fault, from a test-side statement
# of what each place of the file holds

# a value of another type for each kind a file reader names
WRONG_VALUE = {"a string": 5, "an integer": True, "a finite number": [], "a boolean": 0, "a list": {}, "an object": []}


def _places(value, path=()):
    """(path, value) for `value` and every value nested in it, a path being
    its keys and list positions from the top."""
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from _places(item, (*path, key))
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _places(item, (*path, i))


def place_name(path, pattern: bool = False) -> str:
    """A path as a loader message names it, keys joined by ": " and positions
    as "[i]" ("[]" if `pattern`), as in "ports[3]: capabilities[0]"."""
    name = ""
    for step in path:
        if type(step) is int:
            name += "[]" if pattern else f"[{step}]"
        else:
            name += f": {step}" if name else step
    return name


def _message(path, text: str) -> str:
    """A loader message after the file's name for a fault at `path`."""
    return f"{place_name(path)}: {text}" if path else text


def _with(data, path, value=None, delete: bool = False):
    """A deep copy of `data` with `value` at `path`, or without the key there."""
    if not path:
        return value
    data = copy.deepcopy(data)
    holder = data
    for step in path[:-1]:
        holder = holder[step]
    if delete:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return data


def type_fault_cases(data, kinds: dict) -> list[tuple[object, str]]:
    """(faulty file, message after the file's name) for each place of `data`
    whose pattern (`place_name(path, pattern=True)`) `kinds` maps to the kind
    the message names, with a value of another type there. A pattern mapped
    to None takes any value in the reader; one not in `kinds` raises
    KeyError, so `kinds` states every place of the file."""
    cases = []
    for path, _ in _places(data):
        kind = kinds[place_name(path, pattern=True)]
        if kind is not None:
            cases.append((_with(data, path, WRONG_VALUE[kind]), _message(path, f"expected {kind}, got {WRONG_VALUE[kind]!r}")))
    return cases


def key_fault_cases(data) -> list[tuple[object, str]]:
    """(faulty file, message after the file's name) for each object of
    `data`: once without its first key, which must be a required one, and
    once with the unknown key "surplus"."""
    cases = []
    for path, value in _places(data):
        if type(value) is dict:
            first = next(iter(value))
            cases.append((_with(data, (*path, first), delete=True), _message(path, f"missing key(s) [{first!r}]")))
            cases.append((_with(data, (*path, "surplus"), 1), _message(path, "unknown key(s) ['surplus']")))
    return cases


def unknown_key_first_cases(data, kinds: dict) -> list[tuple[object, str]]:
    """(faulty file, message after the file's name) for each object of
    `data` with the unknown key "surplus" and one more fault: its first key
    dropped, or a value of another type at a place below it (as in
    type_fault_cases). An unknown key is the first fault of its object, so
    each message names it."""
    cases = []
    for path, value in _places(data):
        if type(value) is dict:
            surplus = _with(data, (*path, "surplus"), 1)
            faults = [_with(surplus, (*path, next(iter(value))), delete=True)]
            for place, _ in _places(value, path):
                kind = kinds[place_name(place, pattern=True)]
                if place != path and kind is not None:
                    faults.append(_with(surplus, place, WRONG_VALUE[kind]))
            cases += [(fault, _message(path, "unknown key(s) ['surplus']")) for fault in faults]
    return cases
