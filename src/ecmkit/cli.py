"""Command-line frontend: predict, traffic, scale, compare, validate,
list-kernels, show-machine, nt-estimate. Warnings go to stderr as `warning:`
lines, before the output or the `error:` line. Exit codes: 0 success, 1
validation failure, 2 usage or input error."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .kernels import KernelModel, builtin_kernels, consistency_warnings, load_kernel, stream_counts, stream_signature
from .machine import MODES, MachineModel, builtin_haswell, load_machine, serialize_machine
from .model import (
    LEVELS, PenaltyConfig, apply_penalty, ecm_input, format_cycles, format_ecm, model_error, predict, read_measurements
)
from .reference import REFERENCE_KERNELS, nt_reference, reference_cells, reference_measurements
from .scaling import PINNING_POLICIES, nt_speedup, scale, single_core_performance
from .traffic import traffic

BUILTIN_MACHINES = {"haswell": builtin_haswell}

_INPUT_CELLS = ("T_OL", "T_nOL", "T_L1L2", "T_L2L3", "T_L3Mem")


class CliError(ValueError):
    """Input problem reported to the user; maps to exit code 2."""


class Report(NamedTuple):
    """One command's result. `payload` is the JSON document and `rows` the
    table and CSV body; a table frames the rows with `header` and `footer`.
    A report without rows prints `header` and `footer` as its text in both
    table and CSV. `code` is the exit code."""

    payload: object
    rows: list
    header: str = ""
    footer: str = ""
    code: int = 0


def _resolve_machine(spec: str | None) -> MachineModel:
    spec = spec or "haswell"
    if spec in BUILTIN_MACHINES:
        return BUILTIN_MACHINES[spec]()
    candidates = [Path(spec)]
    for directory in os.environ.get("ECM_MACHINE_PATH", "").split(os.pathsep):
        if directory:
            candidates.append(Path(directory) / spec)
            candidates.append(Path(directory) / f"{spec}.json")
    for path in candidates:
        if path.is_file():
            return load_machine(path)
    raise CliError(
        f"unknown machine {spec!r}; built-in machines: {', '.join(sorted(BUILTIN_MACHINES))} "
        f"(or pass a machine file path, searched also under ECM_MACHINE_PATH)"
    )


def _resolve_kernel(spec: str, warned: list[str]) -> KernelModel:
    """The built-in kernel `spec`, or the kernel file at that path with its consistency findings added to `warned`."""
    builtins = builtin_kernels()
    if spec in builtins:
        return builtins[spec]
    path = Path(spec)
    if path.is_file():
        kernel = load_kernel(path)
        warned += consistency_warnings(kernel)
        return kernel
    raise CliError(f"unknown kernel {spec!r}; built-in kernels: {', '.join(sorted(builtins))}")


def _display(value, precise: bool, name: str):
    """Canonical numeric display value of the quantity `name`: the
    shorthand's one-decimal rounding unless --precise, an int if whole, else
    a float (an OverflowError naming the quantity if too large for one).
    None stays None."""
    if value is None:
        return None
    if not precise:
        value = Fraction(format_cycles(value))
    if value.denominator == 1:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(f"{name} is too large for a float") from None


def _render(report: Report, fmt: str) -> str:
    """A report's text in the selected format; all formats carry identical values."""
    if fmt == "json":
        return json.dumps(report.payload, indent=2) + "\n"
    if not report.rows:
        return report.header + report.footer
    columns = list(report.rows[0])
    lines = [columns] + [[str(row[c]) for c in columns] for row in report.rows]
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(lines)
        return out.getvalue()
    widths = [max(len(line[i]) for line in lines) for i in range(len(columns))]
    body = "".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip() + "\n" for line in lines)
    return report.header + body + report.footer


def cmd_predict(args) -> Report:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel, args.warned)
    inp = ecm_input(kernel, machine, args.mode)
    pred = predict(inp)
    adjusted = apply_penalty(pred, kernel, PenaltyConfig()) if args.penalty else None
    shown = adjusted or pred
    prof = traffic(kernel)
    mups = single_core_performance(shown, kernel, machine)
    rows = []
    for level, cycles in zip(LEVELS, shown.cells()):
        level_mups = _display(mups * shown.t_mem / cycles, args.precise, f"{level} mups") if cycles else ""
        rows.append({"level": level, "cycles_per_cl": _display(cycles, args.precise, f"{level} cycles_per_cl"), "mups": level_mups})
    memory_mups = _display(mups, args.precise, "memory_mups")
    gbs_write_allocate = _display(mups * prof.mem_bytes_per_iteration / 1000, args.precise, "memory_gbs_write_allocate")
    gbs_explicit = _display(mups * prof.payload_bytes_per_iteration / 1000, args.precise, "memory_gbs_explicit")
    payload = {"kernel": kernel.name, "machine": machine.name, "input": format_ecm(inp), "prediction": format_ecm(pred),
               "levels": rows, "memory_mups": memory_mups, "memory_gbs_write_allocate": gbs_write_allocate,
               "memory_gbs_explicit": gbs_explicit}
    header = (
        f"kernel:     {kernel.name}\n"
        f"machine:    {machine.name}\n"
        f"input:      {format_ecm(inp)}\n"
        f"prediction: {format_ecm(pred)}\n"
    )
    if adjusted:
        payload["prediction_with_penalty"] = format_ecm(adjusted)
        header += f"with off-core penalty: {format_ecm(adjusted)}\n"
    footer = f"\nmemory level: {memory_mups} MUp/s, {gbs_write_allocate} GB/s with write-allocate "
    footer += f"({gbs_explicit} GB/s explicit)\n"
    return Report(payload, rows, header + "\n", footer)


def cmd_traffic(args) -> Report:
    kernel = _resolve_kernel(args.kernel, args.warned)
    prof = traffic(kernel)
    rows = [
        {"boundary": "L1L2", "cachelines_per_cl": prof.cls_l1l2},
        {"boundary": "L2L3", "cachelines_per_cl": prof.cls_l2l3},
        {"boundary": "L3MEM", "cachelines_per_cl": prof.cls_l3mem},
    ]
    payload = {"kernel": kernel.name, "boundaries": rows, "mem_bytes_per_iteration": prof.mem_bytes_per_iteration,
               "payload_bytes_per_iteration": prof.payload_bytes_per_iteration}
    footer = f"\nmemory volume per iteration: {prof.mem_bytes_per_iteration} B with write-allocate, "
    footer += f"{prof.payload_bytes_per_iteration} B explicit\n"
    return Report(payload, rows, f"kernel: {kernel.name}\n", footer)


def cmd_scale(args) -> Report:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel, args.warned)
    penalty = PenaltyConfig() if args.penalty else None
    curve = scale(kernel, machine, mode=args.mode, max_cores=args.cores, pinning=args.pinning, penalty=penalty)
    rows = []
    for p in curve.points:
        bound = "bandwidth" if p.bandwidth_bound else "core"
        rows.append({"cores": p.cores, "mups": _display(p.performance_mups, args.precise, f"mups at {p.cores} cores"),
                     "bound": bound})
    ceiling = _display(curve.ceiling_mups, args.precise, "ceiling_mups")
    payload = {"kernel": kernel.name, "machine": machine.name, "mode": curve.mode, "points": rows,
               "saturation_cores": curve.saturation_cores, "ceiling_mups": ceiling}
    if ceiling is None:
        footer = "\ncompute bound: no bandwidth ceiling\n"
    else:
        saturation = curve.saturation_cores if curve.saturation_cores is not None else "never"
        footer = f"\nceiling: {ceiling} MUp/s, saturates at {saturation} cores\n"
    return Report(payload, rows, f"kernel: {kernel.name}  machine: {machine.name}  mode: {curve.mode}\n", footer)


def cmd_compare(args) -> Report:
    machine = _resolve_machine(args.machine)
    measurements = read_measurements(args.measurements) if args.measurements else reference_measurements()
    # a kernel named twice is compared once, in the order first named
    kernel_names = list(dict.fromkeys(args.kernel)) if args.kernel else sorted(measurements)
    penalty = None if args.no_penalty else PenaltyConfig()

    rows = []
    for name in kernel_names:
        if name not in measurements:
            args.warned.append(f"no measurement rows for kernel {name!r}; skipped")
            continue
        try:
            kernel = _resolve_kernel(name, args.warned)
        except CliError:
            args.warned.append(f"unknown kernel {name!r}; skipped")
            continue
        pred = predict(ecm_input(kernel, machine, args.mode))
        adjusted = apply_penalty(pred, kernel, penalty) if penalty else None
        measurement = measurements[name]
        errors = model_error(pred, measurement)
        adj_errors = model_error(adjusted, measurement) if adjusted else None
        for level, predicted, with_penalty in zip(LEVELS, pred.cells(), (adjusted or pred).cells()):
            if level not in measurement.levels:
                args.warned.append(f"kernel {name!r} has no {level} measurement; skipped")
                continue
            cell = f"{name} {level}"
            row = {"kernel": name, "level": level, "predicted": _display(predicted, args.precise, f"{cell} predicted"),
                   "measured": _display(measurement.levels[level], args.precise, f"{cell} measured"),
                   "signed_error_pct": errors.signed_pct[level], "abs_error_pct": errors.absolute_pct[level]}
            if adjusted:
                row["predicted_penalty"] = _display(with_penalty, args.precise, f"{cell} predicted_penalty")
                row["abs_error_penalty_pct"] = adj_errors.absolute_pct[level]
            rows.append(row)
    return Report(rows, rows)


def cmd_validate(args) -> Report:
    machine = _resolve_machine(args.machine)
    builtins = builtin_kernels()
    # per unit, (kernel, cell, expected, computed) of every reference cell
    checked = {"input": [], "prediction": []}
    for name in REFERENCE_KERNELS:
        expected_input, expected_pred = reference_cells(name)
        inp = ecm_input(builtins[name], machine, "cod")
        pred = predict(inp)
        for cell, computed, expected in zip(_INPUT_CELLS, inp.cells(), expected_input):
            checked["input"].append((name, cell, expected, format_cycles(computed)))
        for cell, computed, expected in zip(LEVELS, pred.cells(), expected_pred):
            checked["prediction"].append((name, cell, expected, format_cycles(computed)))

    payload = {"machine": machine.name}
    mismatch_lines = counts = ""
    for unit, cells in checked.items():
        mismatches = [{"kernel": k, "cell": c, "expected": e, "computed": got} for k, c, e, got in cells if got != e]
        matched = len(cells) - len(mismatches)
        payload[f"{unit}s"] = {"total": len(cells), "matched": matched, "mismatches": mismatches}
        for m in mismatches:
            mismatch_lines += f"MISMATCH {m['kernel']} {unit} {m['cell']}: expected {m['expected']}, computed {m['computed']}\n"
        counts += f"{matched}/{len(cells)} {unit} cells match\n"
    payload["ok"] = ok = not mismatch_lines
    return Report(payload, [], header=mismatch_lines + counts, code=0 if ok else 1)


def cmd_list_kernels(args) -> Report:
    rows = []
    for name, kernel in builtin_kernels().items():
        counts = stream_counts(kernel)
        uops = " ".join(f"{g.count}x{g.uop_class}" for g in kernel.uops)
        signature = "/".join(str(n) for n in stream_signature(kernel))
        rows.append({"kernel": name, "loads": counts.explicit_loads, "rfo": counts.rfo_streams,
                     "writes": counts.write_streams, "signature": signature, "uops": uops,
                     "flops_per_it": kernel.flops_per_iteration})
    return Report(rows, rows)


def cmd_show_machine(args) -> Report:
    if args.machine_name and args.machine:
        raise CliError("show-machine takes a machine name or -m, not both")
    machine = _resolve_machine(args.machine_name or args.machine)
    document = serialize_machine(machine)  # exact numbers for every format, so --precise changes none
    memory = document["memory"]
    rows = [
        {"parameter": "name", "value": machine.name},
        {"parameter": "frequency_ghz", "value": document["frequency_ghz"]},
        {"parameter": "retire_width", "value": machine.retire_width},
        {"parameter": "store_uop_weight", "value": machine.store_uop_weight},
    ]
    for b in machine.boundaries:
        rows.append({"parameter": f"{b.name} B/c", "value": b.bytes_per_cycle})
    rows.append({"parameter": "numa", "value": f"{machine.numa.n_domains}x{machine.numa.cores_per_domain} cores, cod={'on' if machine.numa.cod_enabled else 'off'}"})
    for p in machine.ports:
        rows.append({"parameter": f"port {p.id}", "value": ",".join(sorted(p.capabilities))})
    rows.append({"parameter": "default GB/s", "value": memory["default_bandwidth_gbs"]})
    for entry in memory["table"]:
        rows.append({"parameter": f"GB/s {entry['loads']}/{entry['stores']}/{entry['nt_stores']} (loads/stores/nt)", "value": entry["gbs"]})
    if "noncod_derating" in memory:
        rows.append({"parameter": "noncod derating", "value": memory["noncod_derating"]})
    return Report(document, rows)


def cmd_nt(args) -> Report:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel, args.warned)
    estimate = nt_speedup(kernel, machine, args.mode)
    quantities = {
        "volume_ratio": estimate.volume_ratio,
        "regular_domain_mups": estimate.regular.per_domain_mups,
        "nt_domain_mups": estimate.nontemporal.per_domain_mups,
        "regular_chip_mups": estimate.regular.per_chip_mups,
        "nt_chip_mups": estimate.nontemporal.per_chip_mups,
    }
    quantities = {key: _display(value, args.precise, key) for key, value in quantities.items()}
    reference = nt_reference().get(kernel.name)
    rows = [{"quantity": "kernel", "value": kernel.name}]
    rows += [{"quantity": key, "value": value if value is not None else ""} for key, value in quantities.items()]
    footer = f"\nmeasured reference (MUp/s): {json.dumps(reference)}\n" if reference else ""
    return Report({"kernel": kernel.name, **quantities, "measured_reference": reference}, rows, footer=footer)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecmkit", description="Analytic runtime prediction for streaming loop kernels.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-m", "--machine", default=None, help="built-in machine name or machine file path")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    display = argparse.ArgumentParser(add_help=False)
    display.add_argument("--precise", action="store_true", help="print unrounded values")
    display.add_argument("--mode", choices=MODES, default=None, help="bandwidth interpretation")
    kernel_arg = argparse.ArgumentParser(add_help=False)
    kernel_arg.add_argument("-k", "--kernel", required=True, help="built-in kernel name or kernel file path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common, display, kernel_arg], help="single-core model input and prediction")
    p.add_argument("--penalty", action="store_true", help="apply the off-core transfer penalty")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("traffic", parents=[common, kernel_arg], help="cache-line traffic per boundary")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("scale", parents=[common, display, kernel_arg], help="multi-core scaling curve")
    p.add_argument("--cores", type=int, default=None, help="core counts to evaluate (1..N)")
    p.add_argument("--pinning", choices=PINNING_POLICIES, default="domain-sequential")
    p.add_argument("--penalty", action="store_true", help="scale the penalty-adjusted prediction")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("compare", parents=[common, display], help="prediction vs measured cycles")
    p.add_argument("-k", "--kernel", action="append", default=None, help="kernel(s) to compare; default: all measured")
    p.add_argument("--measurements", default=None, help="measurement CSV; default: embedded reference data")
    p.add_argument("--no-penalty", action="store_true", help="drop the penalty-adjusted columns")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", parents=[common], help="recompute the reference kernels and diff against golden data")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("list-kernels", parents=[common], help="built-in kernel inventory")
    p.set_defaults(func=cmd_list_kernels)

    p = sub.add_parser("show-machine", parents=[common], help="machine parameters")
    p.add_argument("--precise", action="store_true", help="print unrounded values")
    p.add_argument("machine_name", nargs="?", default=None)
    p.set_defaults(func=cmd_show_machine)

    p = sub.add_parser("nt-estimate", parents=[common, display, kernel_arg], help="non-temporal-store speedup estimate")
    p.set_defaults(func=cmd_nt)

    return parser


def run(argv=None, out=None) -> int:
    """Run one command and write its report to `out` (default stdout). The
    command adds its warnings to one list, `args.warned`, which is printed to
    stderr as `warning:` lines in the order they arrived, before the output
    or the error. A ValueError, the base of every package error, an OSError
    or an OverflowError, also from rendering, is one `error:` line and exit 2."""
    args = build_parser().parse_args(argv)
    args.warned = []
    try:
        report = args.func(args)
        text = _render(report, args.format)
    except (ValueError, OSError, OverflowError) as exc:
        report, text = None, f"error: {exc}"
    for message in args.warned:
        print(f"warning: {message}", file=sys.stderr)
    if report is None:
        print(text, file=sys.stderr)
        return 2
    (out or sys.stdout).write(text)
    return report.code


def main() -> None:
    sys.exit(run())
