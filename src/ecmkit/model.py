"""Model core: assembles inputs from core timing and traffic, predicts
per-level runtimes via the max-overlap rule, applies the off-core penalty
heuristic, formats/parses the shorthand notation, and scores predictions
against measurements.

All cycle values are exact rationals; rounding happens only in the formatter
(one decimal, halves away from zero).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from ._num import as_fraction, round_half_away
from .errors import ECMParseError, SchemaError
from .kernels import KernelModel, bandwidth_signature, load_streams_with_rfo
from .machine import CACHE_LINE_BYTES, MachineModel
from .scheduler import core_timing
from .traffic import traffic

LEVELS = ("L1", "L2", "L3", "MEM")


@dataclass(frozen=True)
class ECMInput:
    """Five-component model input, cycles per cache line of work."""

    t_ol: Fraction
    t_nol: Fraction
    t_l1l2: Fraction
    t_l2l3: Fraction
    t_l3mem: Fraction

    def cells(self) -> tuple[Fraction, ...]:
        return (self.t_ol, self.t_nol, self.t_l1l2, self.t_l2l3, self.t_l3mem)


@dataclass(frozen=True)
class ECMPrediction:
    """Predicted cycles per cache line with data held at each hierarchy level."""

    t_core: Fraction
    t_l2: Fraction
    t_l3: Fraction
    t_mem: Fraction
    penalty_applied: bool = False

    def cells(self) -> tuple[Fraction, ...]:
        return (self.t_core, self.t_l2, self.t_l3, self.t_mem)

    def level(self, name: str) -> Fraction:
        return dict(zip(LEVELS, self.cells()))[name]


@dataclass(frozen=True)
class Measurement:
    """Measured cycles per cache line, keyed by hierarchy level."""

    kernel: str
    levels: dict[str, Fraction]

    def __post_init__(self):
        for name, value in self.levels.items():
            if name not in LEVELS:
                raise SchemaError(f"measurement {self.kernel!r}: unknown level {name!r}")
            if value <= 0:
                raise SchemaError(f"measurement {self.kernel!r}: {name} must be > 0")


@dataclass(frozen=True)
class PenaltyConfig:
    """Empirical off-core transfer penalty: extra cycles per loading stream and
    cache level beyond L2, for kernels with low core cycle counts."""

    enabled: bool = True
    cycles_per_load_stream_per_level: Fraction = Fraction(1)
    # apply only when the core prediction is below this; None = always
    low_cycle_threshold: Fraction | None = None


def mem_cycles_per_cl(bandwidth_gbs, frequency_ghz) -> Fraction:
    """Cycles to move one cache line over the memory interface:
    64 B * f / b, exact."""
    bandwidth = as_fraction(bandwidth_gbs)
    frequency = as_fraction(frequency_ghz)
    if bandwidth <= 0 or frequency <= 0:
        raise ValueError("bandwidth and frequency must be > 0")
    return Fraction(CACHE_LINE_BYTES) * frequency / bandwidth


def ecm_input(kernel: KernelModel, machine: MachineModel, mode: str | None = None) -> ECMInput:
    """Model input for a kernel on a machine.

    `mode` selects the bandwidth interpretation ('cod' per-domain, 'noncod'
    full chip); default is the machine's configured mode.
    """
    timing = core_timing(kernel, machine)
    prof = traffic(kernel)
    bandwidth = machine.bandwidth(bandwidth_signature(kernel), mode)
    return ECMInput(
        t_ol=Fraction(timing.t_ol),
        t_nol=Fraction(timing.t_nol),
        t_l1l2=prof.cls_l1l2 * machine.cycles_per_cl("L1L2"),
        t_l2l3=prof.cls_l2l3 * machine.cycles_per_cl("L2L3"),
        t_l3mem=prof.cls_l3mem * mem_cycles_per_cl(bandwidth, machine.frequency_ghz),
    )


def predict(inp: ECMInput) -> ECMPrediction:
    """Per-level prediction: the slower of the overlapping component and the
    non-overlapping component plus all transfers down to that level."""
    data = Fraction(0)
    levels = []
    for transfer in (Fraction(0), inp.t_l1l2, inp.t_l2l3, inp.t_l3mem):
        data += transfer
        levels.append(max(inp.t_ol, inp.t_nol + data))
    return ECMPrediction(*levels)


def apply_penalty(pred: ECMPrediction, kernel: KernelModel, config: PenaltyConfig | None = None) -> ECMPrediction:
    """Add the off-core penalty to the L3 and memory levels.

    Each stream that loads lines (explicit reads, read-modify-writes and
    write-allocates) costs the configured cycles once at L3 and twice at
    memory; L1 and L2 are unchanged.
    """
    config = config or PenaltyConfig()
    if not config.enabled:
        return pred
    if config.low_cycle_threshold is not None and pred.t_core >= config.low_cycle_threshold:
        return pred
    per_level = load_streams_with_rfo(kernel) * as_fraction(config.cycles_per_load_stream_per_level)
    adjusted = replace(
        pred,
        t_l3=pred.t_l3 + per_level,
        t_mem=pred.t_mem + 2 * per_level,
        penalty_applied=True,
    )
    if not adjusted.t_core <= adjusted.t_l2 <= adjusted.t_l3 <= adjusted.t_mem:
        cells = ", ".join(str(c) for c in adjusted.cells())
        raise ValueError(f"penalized prediction cells must not decrease from L1 to memory, got {cells}")
    return adjusted


# ---------------------------------------------------------------------------
# shorthand notation


def format_cycles(value) -> str:
    """Canonical cycle display: minimum digits, fractional values to one
    decimal, halves away from zero."""
    v = as_fraction(value)
    n, d = v.numerator, v.denominator
    # |v| in tenths, rounded half up: floor((20 |n| + d) / 2d)
    tenths = (20 * abs(n) + d) // (2 * d)
    sign = "-" if n < 0 and tenths else ""
    whole, tenth = divmod(tenths, 10)
    return f"{sign}{whole}" if not tenth else f"{sign}{whole}.{tenth}"


def format_ecm(value: ECMInput | ECMPrediction) -> str:
    if isinstance(value, ECMInput):
        ol, nol, l1l2, l2l3, l3mem = (format_cycles(c) for c in value.cells())
        return f"{{{ol} || {nol} | {l1l2} | {l2l3} | {l3mem}}}"
    if isinstance(value, ECMPrediction):
        cells = " \\ ".join(format_cycles(c) for c in value.cells())
        return f"{{{cells}}}"
    raise TypeError(f"cannot format {type(value).__name__}")


_NUMBER = re.compile(r"(\d+)(?:\.(\d+))?")


def parse_ecm(text: str) -> ECMInput | ECMPrediction:
    """Parse shorthand notation back into a value; inverse of format_ecm on
    canonical strings."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(token: str):
        nonlocal pos
        skip_ws()
        if not text.startswith(token, pos):
            raise ECMParseError(f"expected {token!r}", pos)
        pos += len(token)

    def number() -> Fraction:
        nonlocal pos
        skip_ws()
        match = _NUMBER.match(text, pos)
        if not match:
            raise ECMParseError("expected a number", pos)
        pos = match.end()
        whole, frac = match.group(1), match.group(2) or ""
        return Fraction(int(whole + frac), 10 ** len(frac))

    expect("{")
    values = [number()]
    separators = []
    while True:
        skip_ws()
        if pos >= len(text):
            raise ECMParseError("unterminated value, expected '}'", pos)
        if text[pos] == "}":
            pos += 1
            break
        for sep in ("||", "|", "\\"):
            if text.startswith(sep, pos):
                separators.append(sep)
                pos += len(sep)
                break
        else:
            raise ECMParseError("expected '||', '|', '\\' or '}'", pos)
        values.append(number())
    skip_ws()
    if pos != len(text):
        raise ECMParseError("trailing characters after '}'", pos)

    if separators == ["||", "|", "|", "|"]:
        return ECMInput(*values)
    if separators == ["\\", "\\", "\\"]:
        return ECMPrediction(*values)
    raise ECMParseError(
        "malformed shorthand: expected {a || b | c | d | e} or {a \\ b \\ c \\ d}", len(text) - 1
    )


# ---------------------------------------------------------------------------
# measurement comparison


@dataclass(frozen=True)
class ModelError:
    """Per-level relative error in percent, rounded to integers.

    `signed_pct` is (predicted - measured) / measured: positive means the
    model predicts more cycles than were measured.
    """

    absolute_pct: dict[str, int]
    signed_pct: dict[str, int]


def model_error(pred: ECMPrediction, measurement: Measurement) -> ModelError:
    absolute: dict[str, int] = {}
    signed: dict[str, int] = {}
    for name, predicted in zip(LEVELS, pred.cells()):
        measured = measurement.levels.get(name)
        if measured is None:
            continue
        if measured == 0:
            raise ValueError(f"measured value for {name} is zero")
        rel = (predicted - measured) / measured * 100
        signed[name] = int(round_half_away(rel))
        absolute[name] = int(round_half_away(abs(rel)))
    return ModelError(absolute_pct=absolute, signed_pct=signed)


def read_measurements(source) -> dict[str, Measurement]:
    """Read a measurement CSV (header kernel,level,cycles_per_cl) into
    Measurement values keyed by kernel name."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            try:
                return read_measurements(fh)
            except UnicodeDecodeError as exc:
                raise SchemaError(f"measurement CSV {source}: not UTF-8 text: {exc}") from exc

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("measurement CSV: empty file") from None
    if header != ["kernel", "level", "cycles_per_cl"]:
        raise SchemaError("measurement CSV: header must be 'kernel,level,cycles_per_cl'")

    rows: dict[str, dict[str, Fraction]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise SchemaError(f"measurement CSV row {line_no}: expected 3 columns, got {len(row)}")
        kernel, level, cycles = row
        if level not in LEVELS:
            raise SchemaError(f"measurement CSV row {line_no}: level must be one of {LEVELS}, got {level!r}")
        try:
            value = Fraction(cycles)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"measurement CSV row {line_no}: bad cycles_per_cl {cycles!r}") from None
        if value <= 0:
            raise SchemaError(f"measurement CSV row {line_no}: cycles_per_cl must be > 0")
        per_kernel = rows.setdefault(kernel, {})
        if level in per_kernel:
            raise SchemaError(f"measurement CSV row {line_no}: duplicate row for ({kernel}, {level})")
        per_kernel[level] = value
    return {name: Measurement(kernel=name, levels=levels) for name, levels in rows.items()}
