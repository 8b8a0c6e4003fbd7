"""Model core: assembles inputs from core timing and traffic, predicts
per-level runtimes via the max-overlap rule, applies the off-core penalty
heuristic, formats and parses the shorthand notation by one token grammar,
and scores predictions against measurements.

All cycle values are exact rationals; rounding happens only in the formatter
(one decimal, halves away from zero). Functions and records here take ints
and Fractions only. `Measurement` and `PenaltyConfig` refuse anything else
on construction; `ECMInput` and `ECMPrediction`, which `parse_ecm` and the
memos build, refuse it with a TypeError on first use (`_check_cells`). Only
the file reader turns a float into a number. A cell is an int when it is
whole by construction: core cells, whole decimals read from text, whole
cycles per line and penalty cycles (`machine.quotient`), and sums of those.
Every other cell is a Fraction, run once behind the memos and kept values
(`machine.kept`). The prediction and the penalty take the memory cell, the
one Fraction of an input `ecm_input` builds on Haswell, as numerator and
denominator and sum and compare over its denominator in ints, so a new
input's memory level builds at most one Fraction and runs no Fraction
operator; the penalty key, the formatter and `model_error` read numerators
too.
"""

from __future__ import annotations

import csv
import io
import re
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from ._schema import read_text, require_number, require_positive
from .errors import ECMParseError, SchemaError
from .kernels import KernelModel, bandwidth_signature, load_streams_with_rfo
from .machine import CACHE_LINE_BYTES, MachineModel, Memo, kept, quotient
from .scheduler import core_timing
from .traffic import traffic

LEVELS = ("L1", "L2", "L3", "MEM")
# the penalized predictions a prediction may keep
PENALTY_MEMO_ENTRIES = 16
# the types a record's cells may have
_EXACT = frozenset((int, Fraction))


def _check_cells(record: ECMInput | ECMPrediction) -> None:
    """Raise TypeError naming the record and its first cell that is not an
    int or a Fraction (a bool is neither): a record checks its cells on first
    use, not on construction, so parse_ecm and the memos build it unchecked."""
    if not set(map(type, record)) <= _EXACT:
        field, cell = next((f, c) for f, c in zip(record._fields, record) if type(c) not in _EXACT)
        raise TypeError(f"{type(record).__name__}: {field} must be an int or a Fraction, got {reprlib.repr(cell)}")


class _InputCells(NamedTuple):
    t_ol: int | Fraction
    t_nol: int | Fraction
    t_l1l2: int | Fraction
    t_l2l3: int | Fraction
    t_l3mem: int | Fraction


class ECMInput(_InputCells):
    """Five-component model input, cycles per cache line of work.

    The input keeps its prediction and its shorthand once asked for them
    (`predict`, `format_ecm`); they are no fields, so ==, hash and repr
    ignore them, and a copy, an unpickled input or one made by `_replace`
    starts without them.
    """

    def cells(self) -> tuple[int | Fraction, ...]:
        """The five cells in shorthand order: the input itself, already that tuple."""
        return self

    def __getstate__(self) -> None:
        """Nothing but the cells: pickling and copying drop the kept values."""
        return None

    @kept
    def _prediction(self) -> ECMPrediction:
        """The per-level prediction, see `predict`: a cell is an int when the
        term `max` picks is a sum of ints, else a Fraction. The memory level
        takes the memory cell as n / d and compares and sums over d."""
        _check_cells(self)
        ol, nol, l1l2, l2l3, l3mem = self
        to_l2 = nol + l1l2
        to_l3 = to_l2 + l2l3
        n, d = l3mem.numerator, l3mem.denominator
        to_mem = to_l3 * d + n  # (to_l3 + l3mem) * d
        mem = _over(l3mem, to_mem, d) if to_mem > ol * d else ol  # max(ol, to_l3 + l3mem)
        return ECMPrediction(max(ol, nol), max(ol, to_l2), max(ol, to_l3), mem)

    @kept
    def _shorthand(self) -> str:
        _check_cells(self)
        ol, nol, l1l2, l2l3, l3mem = map(format_cycles, self)
        return f"{{{ol} || {nol} | {l1l2} | {l2l3} | {l3mem}}}"


def _over(cell, numerator, d):
    """numerator / d, a sum that takes in `cell` = n / d, in the type the sum
    would have: a Fraction if `cell` is one, whole or not; else `numerator`
    itself, as d is then 1 and `numerator` the sum of `cell` and the rest."""
    return Fraction(numerator, d) if type(cell) is Fraction else numerator


class _PredictionCells(NamedTuple):
    t_core: int | Fraction
    t_l2: int | Fraction
    t_l3: int | Fraction
    t_mem: int | Fraction


class ECMPrediction(_PredictionCells):
    """Predicted cycles per cache line with data held at each hierarchy level.

    The prediction keeps its shorthand and its penalized predictions, by the
    penalty's `penalty_cycles`, once asked for them (`format_ecm`,
    `apply_penalty`), on the terms `ECMInput` keeps its values.
    """

    def cells(self) -> tuple[int | Fraction, ...]:
        """The four levels from L1 to memory: the prediction itself, already that tuple."""
        return self

    __getstate__ = ECMInput.__getstate__

    @kept
    def _shorthand(self) -> str:
        _check_cells(self)
        cells = " \\ ".join(map(format_cycles, self))
        return f"{{{cells}}}"

    @kept
    def _penalized(self) -> Memo:
        """Penalized predictions by penalty cycles (extra, d), at most
        PENALTY_MEMO_ENTRIES; `apply_penalty` fills it."""
        return Memo(PENALTY_MEMO_ENTRIES)

    def _penalize(self, extra: int, per: int) -> ECMPrediction:
        """The prediction with extra / per cycles added at L3 and twice that at
        memory, an int if per divides it; ValueError if the cells then
        decrease. The memory cell is taken as n / d, as `predict` takes it."""
        _check_cells(self)
        core, l2, l3, mem = self
        n, d = mem.numerator, mem.denominator
        l3 = l3 + quotient(extra, per)
        to_mem = n + quotient(2 * extra, per) * d  # (mem + 2 extra / per) * d
        mem = _over(mem, to_mem, d)
        if not (core <= l2 <= l3 and l3 * d <= to_mem):
            cells = ", ".join(str(c) for c in (core, l2, l3, mem))
            raise ValueError(f"penalized prediction cells must not decrease from L1 to memory, got {cells}")
        return ECMPrediction(core, l2, l3, mem)


@dataclass(frozen=True)
class Measurement:
    """Measured cycles per cache line, each an int or a Fraction, keyed by
    hierarchy level. The levels are stored as a read-only copy, so the
    caller's dict may change later without changing the measurement; pickle
    and copy rebuild a measurement from a dict of its levels."""

    kernel: str
    levels: Mapping[str, int | Fraction]

    def __post_init__(self):
        object.__setattr__(self, "levels", MappingProxyType(dict(self.levels)))
        for name, value in self.levels.items():
            if name not in LEVELS:
                raise SchemaError(f"measurement {self.kernel!r}: unknown level {name!r}")
            require_positive(value, "measurement {!r}: {}", self.kernel, name, exact=True)

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return Measurement, (self.kernel, dict(self.levels))


@dataclass(frozen=True)
class PenaltyConfig:
    """Empirical off-core transfer penalty: extra cycles per loading stream and
    cache level beyond L2, for kernels with low core cycle counts. The cycles
    are an int or a Fraction; anything else raises SchemaError here, not in
    a later query."""

    cycles_per_load_stream_per_level: Fraction = Fraction(1)

    def __post_init__(self):
        require_number(self.cycles_per_load_stream_per_level, "PenaltyConfig: cycles_per_load_stream_per_level", exact=True)


def mem_cycles_per_cl(bandwidth_gbs, frequency_ghz) -> Fraction:
    """Cycles to move one cache line over the memory interface:
    64 B * f / b, exact. Both arguments are positive ints or Fractions; a
    SchemaError (a ValueError) names the first that is not."""
    require_positive(bandwidth_gbs, "bandwidth_gbs", exact=True)
    require_positive(frequency_ghz, "frequency_ghz", exact=True)
    return CACHE_LINE_BYTES * Fraction(frequency_ghz) / bandwidth_gbs


def ecm_input(kernel: KernelModel, machine: MachineModel, mode: str | None = None) -> ECMInput:
    """Model input for a kernel on a machine.

    `mode` selects the bandwidth interpretation ('cod' per-domain, 'noncod'
    full chip); default is the machine's configured mode.

    Every call runs core_timing. The input is then looked up in the
    machine's memo (MachineModel._inputs) by the timing, the kernel's stream
    tally and the resolved mode, which fix every cell on a given machine. A
    miss takes the transfer cells from MachineModel._transfers, keyed by the
    tally and the mode alone: the line counts of traffic and the bandwidth
    signature are functions of the tally, and the element size enters no
    cell. Only a miss there calls traffic and reads the bandwidth.
    """
    timing = core_timing(kernel, machine)
    mode = machine.resolve_mode(mode)
    key = (timing, kernel._tally, mode)
    inp = machine._inputs.get(key)
    if inp is None:
        cells = machine._transfers.get(key[1:])
        if cells is None:
            prof = traffic(kernel)
            bandwidth = machine.bandwidth(bandwidth_signature(kernel), mode)
            cells = machine._transfers.put(key[1:], (
                prof.cls_l1l2 * machine.cycles_per_cl("L1L2"),
                prof.cls_l2l3 * machine.cycles_per_cl("L2L3"),
                prof.cls_l3mem * mem_cycles_per_cl(bandwidth, machine.frequency_ghz),
            ))
        inp = machine._inputs.put(key, ECMInput(*timing, *cells))
    return inp


def predict(inp: ECMInput) -> ECMPrediction:
    """Per-level prediction: the slower of the overlapping component and the
    non-overlapping component plus all transfers down to that level.

    The input keeps its prediction (ECMInput._prediction): the first call
    computes it, and every later call returns the same object.
    """
    return inp._prediction


def apply_penalty(pred: ECMPrediction, kernel: KernelModel, config: PenaltyConfig | None = None) -> ECMPrediction:
    """Add the off-core penalty to the L3 and memory levels.

    Each stream that loads lines (explicit reads, read-modify-writes and
    write-allocates) costs the configured cycles once at L3 and twice at
    memory; L1 and L2 are unchanged. The cells must not decrease from L1 to
    memory afterwards (ValueError otherwise).

    The penalized prediction depends on the kernel and the config only
    through penalty_cycles, so the prediction keeps it under those cycles,
    in a `Memo` (ECMPrediction._penalized). A ValueError is stored nowhere
    and is raised again by the next call.
    """
    key = penalty_cycles(kernel, config or PenaltyConfig())
    shown = pred._penalized.get(key)
    if shown is None:
        shown = pred._penalized.put(key, pred._penalize(*key))
    return shown


def penalty_cycles(kernel: KernelModel, config: PenaltyConfig) -> tuple[int, int]:
    """The cycles the penalty adds at L3, twice at memory, as (numerator,
    denominator): the kernel's loading streams times the configured cycles."""
    cycles = config.cycles_per_load_stream_per_level
    return load_streams_with_rfo(kernel) * cycles.numerator, cycles.denominator


# ---------------------------------------------------------------------------
# shorthand notation


def _rounded_magnitude(n: int, d: int) -> int:
    """|n / d| rounded half away from zero, for d > 0: floor((2 |n| + d) / 2d)."""
    return (2 * abs(n) + d) // (2 * d)


def format_cycles(value) -> str:
    """Canonical cycle display of an int or a Fraction: minimum digits,
    fractional values to one decimal, halves away from zero."""
    n, d = value.numerator, value.denominator
    if d == 1:  # whole: an int's own str
        return str(n)
    tenths = _rounded_magnitude(10 * n, d)  # |value| in tenths
    sign = "-" if n < 0 and tenths else ""
    whole, tenth = divmod(tenths, 10)
    return f"{sign}{whole}" if not tenth else f"{sign}{whole}.{tenth}"


def format_ecm(value: ECMInput | ECMPrediction) -> str:
    """Shorthand of an input, {ol || nol | l1l2 | l2l3 | l3mem}, or of a
    prediction, {core \\ l2 \\ l3 \\ mem}, each cell by format_cycles. The
    record keeps its shorthand: only the first call renders it."""
    if isinstance(value, (ECMInput, ECMPrediction)):
        return value._shorthand
    raise TypeError(f"cannot format {type(value).__name__}")


_DECIMAL = r"([0-9]+)(?:\.([0-9]+))?"  # groups (whole, fraction); ASCII digits: \d takes any Unicode digit
_NUMBER = re.compile(_DECIMAL)


@cache
def _shapes() -> tuple[re.Pattern, re.Pattern]:
    """The input and the prediction shape, whitespace allowed around every
    token; compiled on the first parse rather than at import."""
    cell = rf"\s*{_DECIMAL}\s*"
    return (
        re.compile(rf"\s*\{{{cell}\|\|{cell}\|{cell}\|{cell}\|{cell}\}}\s*"),
        re.compile(rf"\s*\{{{cell}\\{cell}\\{cell}\\{cell}\}}\s*"),
    )


@cache
def _token() -> re.Pattern:
    """Optional whitespace, then group 1: a decimal cell (groups 2 and 3), a
    '{', '}', '||', '|' or '\\', or nothing; compiled on the first malformed text."""
    return re.compile(rf"\s*({_DECIMAL}|\|\||[{{}}|\\])?")


def parse_ecm(text: str) -> ECMInput | ECMPrediction:
    """Parse shorthand notation back into a value; inverse of format_ecm on
    canonical strings.

    A value is read from one full match of one shape, each cell an exact
    decimal (`_decimals`: an int if whole): the input shape if the text holds
    '||', else the prediction shape, as only input text holds '||'.
    Text that does not match is read again by the token loop of `_reject`
    only to report where it goes wrong.
    """
    input_shape, prediction_shape = _shapes()
    record, shape = (ECMInput, input_shape) if "||" in text else (ECMPrediction, prediction_shape)
    match = shape.fullmatch(text)
    if match is None:
        _reject(text)
    return record(*_decimals(match))


def _decimals(match: re.Match) -> list[int | Fraction]:
    """Exact values of the matched (whole, fraction digits) group pairs, an int
    if whole; a cell too long for int() raises ECMParseError at the cell."""
    groups = match.groups()
    values = []
    for i in range(0, len(groups), 2):
        whole, frac = groups[i], groups[i + 1]
        try:
            values.append(int(whole) if frac is None else Fraction(int(whole + frac), 10 ** len(frac)))
        except ValueError:  # more digits than int() converts
            raise ECMParseError("number has too many digits", match.start(i + 1)) from None
    return values


# per token, the tokens the notation allows next ("end": the end of the text) and the error if another follows
_FOLLOWERS = {
    "start": ({"{"}, "expected '{'"),
    **dict.fromkeys(("{", "||", "|", "\\"), ({"number"}, "expected a number")),
    "number": ({"||", "|", "\\", "}"}, "expected '||', '|', '\\' or '}'"),
    "}": ({"end"}, "trailing characters after '}'"),
}


def _reject(text: str) -> NoReturn:
    """Raise the ECMParseError at the first token the notation does not allow
    where it stands or, if there is none, for separators that fit no shape."""
    token, pos = "start", 0
    while token != "end":
        allowed, error = _FOLLOWERS[token]
        match = _token().match(text, pos)
        pos = match.end()
        token = "number" if match[2] else match[1] or ("end" if pos == len(text) else None)
        if token not in allowed:
            if token == "end" and "}" in allowed:
                error = "unterminated value, expected '}'"
            raise ECMParseError(error, pos - len(match[1] or ""))
    # every token is well formed, but the separators fit neither shape
    raise ECMParseError("malformed shorthand: expected {a || b | c | d | e} or {a \\ b \\ c \\ d}", len(text) - 1)


# ---------------------------------------------------------------------------
# measurement comparison


class ModelError(NamedTuple):
    """Per-level relative error in percent, rounded to integers.

    `signed_pct` is (predicted - measured) / measured: positive means the
    model predicts more cycles than were measured.
    """

    absolute_pct: dict[str, int]
    signed_pct: dict[str, int]


def model_error(pred: ECMPrediction, measurement: Measurement) -> ModelError:
    _check_cells(pred)
    absolute: dict[str, int] = {}
    signed: dict[str, int] = {}
    for name, predicted in zip(LEVELS, pred.cells()):
        measured = measurement.levels.get(name)
        if measured is None:
            continue
        # rel = n / d = (predicted - measured) / measured * 100, d > 0
        n = 100 * (predicted.numerator * measured.denominator - measured.numerator * predicted.denominator)
        d = predicted.denominator * measured.numerator
        absolute[name] = _rounded_magnitude(n, d)
        signed[name] = -absolute[name] if n < 0 else absolute[name]
    return ModelError(absolute_pct=absolute, signed_pct=signed)


def read_measurements(path) -> dict[str, Measurement]:
    """Read a measurement CSV (header kernel,level,cycles_per_cl) into
    Measurement values keyed by kernel name. A cycle count is a plain decimal
    such as 2 or 17.08, read exactly as `_decimals` reads a shorthand cell."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows: dict[str, dict[str, int | Fraction]] = {}
    try:
        if next(reader, None) != ["kernel", "level", "cycles_per_cl"]:
            raise SchemaError(f"{path}: header must be 'kernel,level,cycles_per_cl'")
        for row in reader:
            where = f"{path}: row {reader.line_num}"
            if not row:
                continue
            if len(row) != 3:
                raise SchemaError(f"{where}: expected 3 columns, got {len(row)}")
            kernel, level, cycles = row
            if level not in LEVELS:
                raise SchemaError(f"{where}: level must be one of {LEVELS}, got {level!r}")
            match = _NUMBER.fullmatch(cycles)
            try:
                value = _decimals(match)[0] if match else 0
            except ECMParseError:  # more digits than int() converts
                value = 0
            if value <= 0:
                raise SchemaError(f"{where}: cycles_per_cl must be a positive plain decimal, got {cycles!r}")
            per_kernel = rows.setdefault(kernel, {})
            if level in per_kernel:
                raise SchemaError(f"{where}: duplicate row for ({kernel}, {level})")
            per_kernel[level] = value
    except csv.Error as exc:
        raise SchemaError(f"{path}: row {reader.line_num}: {exc}") from None
    return {name: Measurement(kernel=name, levels=levels) for name, levels in rows.items()}
