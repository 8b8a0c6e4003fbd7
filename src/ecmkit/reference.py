"""Access to the embedded reference data: golden single-core model values and
measured cycles for the built-in kernels on the built-in Haswell model."""

from __future__ import annotations

from functools import cache
from importlib import resources

from ._schema import read_json
from .model import Measurement, read_measurements

REFERENCE_KERNELS = ("ddot", "load", "store", "update", "copy", "stream_triad", "schoenauer_triad")


@cache
def reference_table() -> dict:
    """Parsed reference data file: per kernel the expected input/prediction
    cells (canonical strings) and rounded error percentages."""
    return read_json(resources.files("ecmkit.data") / "reference_haswell.json")


def reference_measurements() -> dict[str, Measurement]:
    """Embedded measured cycles per cache line, as Measurement values."""
    return read_measurements(resources.files("ecmkit.data") / "measurements_haswell.csv")


def reference_cells(kernel: str) -> tuple[list[str], list[str]]:
    """(input cells, prediction cells) as canonical display strings."""
    entry = reference_table()["kernels"][kernel]
    return list(entry["input"]), list(entry["prediction"])


def nt_reference() -> dict:
    """Measured regular vs non-temporal performance (MUp/s) for the triads.

    Reference data only: the model's own estimate is the volume ratio, which
    is smaller than these measured speedups.
    """
    return reference_table()["nt_reference"]
