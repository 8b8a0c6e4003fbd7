"""Analytic runtime prediction for streaming loop kernels.

Loop runtime per cache line of work decomposes into in-core execution and
per-level data-transfer cycles, combined by an overlap rule; multi-core
performance scales the single-core prediction up to the memory-bandwidth
ceiling. Machines and kernels are declarative (built-in or JSON files).

Records follow one rule: a record built from user input, checked on
construction (`__post_init__`) or holding a `cached_property` is a frozen
dataclass; a record that a query computes is a `typing.NamedTuple`, which
prints, hashes and refuses assignment as the dataclass would, is cheaper to
build, and also equals the plain tuple of its fields. Numbers follow one rule:
records and public functions take ints and Fractions only, and a float is
read nowhere but in `_schema.check`, by its decimal repr.
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
