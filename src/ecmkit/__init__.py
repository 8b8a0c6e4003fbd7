"""Analytic runtime prediction for streaming loop kernels.

Loop runtime per cache line of work decomposes into in-core execution and
per-level data-transfer cycles, combined by an overlap rule; multi-core
performance scales the single-core prediction up to the memory-bandwidth
ceiling. Machines and kernels are declarative (built-in or JSON files).

Records follow one rule: a record built from user input is a
`_schema.Record` whose fields are its own `__init__`'s parameters, which
that `__init__` checks; the base records them as dataclass fields without
generating a method, gives it a frozen dataclass's ==, hash, repr and
immutability, and copies and pickles it through its `__init__`. A record
that a query computes is a `typing.NamedTuple`, which prints, hashes and
refuses assignment as an input record does, is cheaper to build, and also
equals the plain tuple of its fields. Either may keep values derived from
its fields as a `machine.kept` attribute, computed on first use and stored
in the instance `__dict__`, from which every later read takes it without
running Python code; it is no field, so ==, hash and repr ignore it, and it
lives as long as its record. Of the query records only `ECMInput` (its
prediction and shorthand) and `ECMPrediction` (its shorthand and its
penalized predictions by penalty cycles) do: each subclasses the named
tuple of its fields to get an instance `__dict__`, and a record made by
`_replace`, `parse_ecm`, copying or unpickling starts without kept values.

Numbers follow one rule: records and public functions take ints and
Fractions only, and a float is read nowhere but in the file reader, by its
decimal repr. A whole value stays an int: a core cycle count, the cycles per
line of a boundary whose width divides the line, a whole number read from
text, whole penalty cycles, and any sum of ints in `predict`'s cells. Every
other value is a Fraction built behind the memos. `ECMInput` and
`ECMPrediction` check their cells on first use, not on construction. The
prediction and the penalty read the memory cell's numerator and
denominator and sum and compare over it in ints; the penalty key and the
formatter read numerators too, and `model_error` uses Fraction operators.
"""

from .errors import ECMParseError, SchemaError
from .kernels import (
    UopGroup,
    bandwidth_signature,
    builtin_kernels,
    load_kernel,
    stream_counts,
    stream_signature,
    with_nt_stores,
)
from .machine import (
    builtin_haswell,
    load_machine,
    serialize_machine,
)
from .model import (
    ECMInput,
    ECMPrediction,
    Measurement,
    PenaltyConfig,
    apply_penalty,
    ecm_input,
    format_cycles,
    format_ecm,
    mem_cycles_per_cl,
    model_error,
    parse_ecm,
    predict,
    read_measurements,
)
from .scaling import (
    bandwidth_ceiling,
    nt_speedup,
    scale,
    single_core_performance,
)
from .scheduler import (
    build_nol_problem,
    build_ol_problem,
    core_timing,
    frontend_bound,
    min_cycles,
)
from .traffic import nt_volume_ratio, traffic

__version__ = "0.1.0"

__all__ = [
    "ECMInput",
    "ECMParseError",
    "ECMPrediction",
    "Measurement",
    "PenaltyConfig",
    "SchemaError",
    "UopGroup",
    "apply_penalty",
    "bandwidth_ceiling",
    "bandwidth_signature",
    "build_nol_problem",
    "build_ol_problem",
    "builtin_haswell",
    "builtin_kernels",
    "core_timing",
    "ecm_input",
    "format_cycles",
    "format_ecm",
    "frontend_bound",
    "load_kernel",
    "load_machine",
    "mem_cycles_per_cl",
    "min_cycles",
    "model_error",
    "nt_speedup",
    "nt_volume_ratio",
    "parse_ecm",
    "predict",
    "read_measurements",
    "scale",
    "serialize_machine",
    "single_core_performance",
    "stream_counts",
    "stream_signature",
    "traffic",
    "with_nt_stores",
]
