"""Command-line frontend: predict, traffic, scale, compare, validate,
list-kernels, show-machine. Exit codes: 0 success, 1 validation/comparison
failure, 2 usage or input error."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from ._num import as_fraction, round_half_away
from .errors import CapabilityError, ECMParseError, SchemaError
from .kernels import (
    KernelModel,
    builtin_kernels,
    load_kernel,
    stream_counts,
    stream_signature,
)
from .machine import MachineModel, builtin_haswell, load_machine, serialize_machine
from .model import (
    LEVELS,
    PenaltyConfig,
    apply_penalty,
    ecm_input,
    format_cycles,
    format_ecm,
    model_error,
    predict,
    read_measurements,
)
from .reference import REFERENCE_KERNELS, nt_reference, reference_cells, reference_measurements
from .scaling import iterations_per_cacheline, nt_speedup, scale, single_core_performance
from .traffic import nt_volume_ratio, traffic

BUILTIN_MACHINES = {"haswell": builtin_haswell}

_INPUT_CELLS = ("T_OL", "T_nOL", "T_L1L2", "T_L2L3", "T_L3Mem")
_PREDICTION_CELLS = ("L1", "L2", "L3", "MEM")


class CliError(Exception):
    """Input problem reported to the user; maps to exit code 2."""


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


def _resolve_kernel(spec: str) -> KernelModel:
    builtins = builtin_kernels()
    if spec in builtins:
        return builtins[spec]
    path = Path(spec)
    if path.is_file():
        return load_kernel(path)
    raise CliError(f"unknown kernel {spec!r}; built-in kernels: {', '.join(sorted(builtins))}")


def _display(value, precise: bool):
    """Canonical numeric display value: one-decimal rounding unless --precise."""
    v = as_fraction(value)
    if precise:
        return int(v) if v.denominator == 1 else float(v)
    r = round_half_away(v, 1)
    return int(r) if r.denominator == 1 else float(r)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    """Render rows in the selected format; all formats carry identical values."""
    if not rows:
        return
    columns = list(rows[0])
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    else:
        lines = [columns] + [[str(row[c]) for c in columns] for row in rows]
        widths = [max(len(line[i]) for line in lines) for i in range(len(columns))]
        for line in lines:
            out.write("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip() + "\n")


def _penalty_config(args) -> PenaltyConfig | None:
    return PenaltyConfig() if getattr(args, "penalty", False) else None


def cmd_predict(args, out) -> int:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel)
    inp = ecm_input(kernel, machine, args.mode)
    pred = predict(inp)
    penalty = _penalty_config(args)
    adjusted = apply_penalty(pred, kernel, penalty) if penalty else None
    shown = adjusted or pred

    prof = traffic(kernel)
    try:
        mups = single_core_performance(shown, kernel, machine)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rows = []
    for level, cycles in zip(_PREDICTION_CELLS, shown.cells()):
        level_mups = machine.frequency_ghz * 1000 * iterations_per_cacheline(kernel) / cycles if cycles else None
        rows.append(
            {
                "level": level,
                "cycles_per_cl": _display(cycles, args.precise),
                "mups": _display(level_mups, args.precise) if level_mups is not None else "",
            }
        )

    if args.format == "json":
        payload = {
            "kernel": kernel.name,
            "machine": machine.name,
            "input": format_ecm(inp),
            "prediction": format_ecm(pred),
            "levels": rows,
            "memory_mups": _display(mups, args.precise),
            "memory_gbs_write_allocate": _display(mups * prof.mem_bytes_per_iteration / 1000, args.precise),
            "memory_gbs_explicit": _display(mups * prof.payload_bytes_per_iteration / 1000, args.precise),
        }
        if adjusted:
            payload["prediction_with_penalty"] = format_ecm(adjusted)
        json.dump(payload, out, indent=2)
        out.write("\n")
        return 0

    if args.format == "table":
        out.write(f"kernel:     {kernel.name}\n")
        out.write(f"machine:    {machine.name}\n")
        out.write(f"input:      {format_ecm(inp)}\n")
        out.write(f"prediction: {format_ecm(pred)}\n")
        if adjusted:
            out.write(f"with off-core penalty: {format_ecm(adjusted)}\n")
        out.write("\n")
    _emit_rows(rows, args.format, out)
    if args.format == "table":
        out.write(
            f"\nmemory level: {_display(mups, args.precise)} MUp/s, "
            f"{_display(mups * prof.mem_bytes_per_iteration / 1000, args.precise)} GB/s with write-allocate "
            f"({_display(mups * prof.payload_bytes_per_iteration / 1000, args.precise)} GB/s explicit)\n"
        )
    return 0


def cmd_traffic(args, out) -> int:
    kernel = _resolve_kernel(args.kernel)
    prof = traffic(kernel)
    rows = [
        {"boundary": "L1L2", "cachelines_per_cl": prof.cls_l1l2},
        {"boundary": "L2L3", "cachelines_per_cl": prof.cls_l2l3},
        {"boundary": "L3MEM", "cachelines_per_cl": prof.cls_l3mem},
    ]
    if args.format == "json":
        json.dump(
            {
                "kernel": kernel.name,
                "boundaries": rows,
                "mem_bytes_per_iteration": prof.mem_bytes_per_iteration,
                "payload_bytes_per_iteration": prof.payload_bytes_per_iteration,
            },
            out,
            indent=2,
        )
        out.write("\n")
        return 0
    if args.format == "table":
        out.write(f"kernel: {kernel.name}\n")
    _emit_rows(rows, args.format, out)
    if args.format == "table":
        out.write(
            f"\nmemory volume per iteration: {prof.mem_bytes_per_iteration} B with write-allocate, "
            f"{prof.payload_bytes_per_iteration} B explicit\n"
        )
    return 0


def cmd_scale(args, out) -> int:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel)
    try:
        curve = scale(
            kernel,
            machine,
            mode=args.mode,
            max_cores=args.cores,
            pinning=args.pinning,
            penalty=_penalty_config(args),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rows = [
        {
            "cores": p.cores,
            "mups": _display(p.performance_mups, args.precise),
            "bound": "bandwidth" if p.bandwidth_bound else "core",
        }
        for p in curve.points
    ]
    if args.format == "json":
        json.dump(
            {
                "kernel": kernel.name,
                "machine": machine.name,
                "mode": curve.mode,
                "points": rows,
                "saturation_cores": curve.saturation_cores,
                "ceiling_mups": _display(curve.ceiling_mups, args.precise) if curve.ceiling_mups is not None else None,
            },
            out,
            indent=2,
        )
        out.write("\n")
        return 0
    if args.format == "table":
        out.write(f"kernel: {kernel.name}  machine: {machine.name}  mode: {curve.mode}\n")
    _emit_rows(rows, args.format, out)
    if args.format == "table":
        if curve.ceiling_mups is None:
            out.write("\ncompute bound: no bandwidth ceiling\n")
        else:
            saturation = curve.saturation_cores if curve.saturation_cores is not None else "never"
            out.write(
                f"\nceiling: {_display(curve.ceiling_mups, args.precise)} MUp/s, "
                f"saturates at {saturation} cores\n"
            )
    return 0


def cmd_compare(args, out) -> int:
    machine = _resolve_machine(args.machine)
    if args.measurements:
        measurements = read_measurements(args.measurements)
    else:
        measurements = reference_measurements()
    kernel_names = args.kernel or sorted(measurements)
    penalty = None if args.no_penalty else PenaltyConfig()

    rows = []
    for name in kernel_names:
        if name not in measurements:
            print(f"warning: no measurement rows for kernel {name!r}; skipped", file=sys.stderr)
            continue
        kernel = _resolve_kernel(name)
        pred = predict(ecm_input(kernel, machine, args.mode))
        adjusted = apply_penalty(pred, kernel, penalty) if penalty else None
        measurement = measurements[name]
        errors = model_error(pred, measurement)
        adj_errors = model_error(adjusted, measurement) if adjusted else None
        for level, predicted in zip(LEVELS, pred.cells()):
            if level not in measurement.levels:
                print(f"warning: kernel {name!r} has no {level} measurement; skipped", file=sys.stderr)
                continue
            row = {
                "kernel": name,
                "level": level,
                "predicted": _display(predicted, args.precise),
                "measured": _display(measurement.levels[level], args.precise),
                "signed_error_pct": errors.signed_pct[level],
                "abs_error_pct": errors.absolute_pct[level],
            }
            if adjusted:
                row["predicted_penalty"] = _display(adjusted.level(level), args.precise)
                row["abs_error_penalty_pct"] = adj_errors.absolute_pct[level]
            rows.append(row)
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        _emit_rows(rows, args.format, out)
    return 0


def cmd_validate(args, out) -> int:
    machine = _resolve_machine(args.machine)
    builtins = builtin_kernels()
    input_mismatches = []
    prediction_mismatches = []
    input_total = prediction_total = 0
    for name in REFERENCE_KERNELS:
        kernel = builtins[name]
        expected_input, expected_pred = reference_cells(name)
        inp = ecm_input(kernel, machine, "cod")
        pred = predict(inp)
        for cell, computed, expected in zip(_INPUT_CELLS, inp.cells(), expected_input):
            input_total += 1
            if format_cycles(computed) != expected:
                input_mismatches.append(
                    {"kernel": name, "cell": cell, "expected": expected, "computed": format_cycles(computed)}
                )
        for cell, computed, expected in zip(_PREDICTION_CELLS, pred.cells(), expected_pred):
            prediction_total += 1
            if format_cycles(computed) != expected:
                prediction_mismatches.append(
                    {"kernel": name, "cell": cell, "expected": expected, "computed": format_cycles(computed)}
                )

    ok = not input_mismatches and not prediction_mismatches
    if args.format == "json":
        json.dump(
            {
                "machine": machine.name,
                "inputs": {"total": input_total, "matched": input_total - len(input_mismatches), "mismatches": input_mismatches},
                "predictions": {
                    "total": prediction_total,
                    "matched": prediction_total - len(prediction_mismatches),
                    "mismatches": prediction_mismatches,
                },
                "ok": ok,
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        for unit, mismatches in (("input", input_mismatches), ("prediction", prediction_mismatches)):
            for m in mismatches:
                out.write(
                    f"MISMATCH {m['kernel']} {unit} {m['cell']}: expected {m['expected']}, computed {m['computed']}\n"
                )
        out.write(f"{input_total - len(input_mismatches)}/{input_total} input cells match\n")
        out.write(f"{prediction_total - len(prediction_mismatches)}/{prediction_total} prediction cells match\n")
    return 0 if ok else 1


def cmd_list_kernels(args, out) -> int:
    rows = []
    for name, kernel in builtin_kernels().items():
        counts = stream_counts(kernel)
        uops = " ".join(f"{g.count}x{g.uop_class}" for g in kernel.uops)
        rows.append(
            {
                "kernel": name,
                "loads": counts.explicit_loads,
                "rfo": counts.rfo_streams,
                "writes": counts.write_streams,
                "signature": "/".join(str(n) for n in stream_signature(kernel)),
                "uops": uops,
                "flops_per_it": kernel.flops_per_iteration,
            }
        )
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        _emit_rows(rows, args.format, out)
    return 0


def cmd_show_machine(args, out) -> int:
    machine = _resolve_machine(args.machine_name or args.machine)
    if args.format == "json":
        json.dump(serialize_machine(machine), out, indent=2)
        out.write("\n")
        return 0
    rows = [
        {"parameter": "name", "value": machine.name},
        {"parameter": "frequency_ghz", "value": _display(machine.frequency_ghz, args.precise)},
        {"parameter": "retire_width", "value": machine.retire_width},
        {"parameter": "store_uop_weight", "value": machine.store_uop_weight},
    ]
    for b in machine.boundaries:
        rows.append({"parameter": f"{b.name} B/c", "value": b.bytes_per_cycle})
    rows.append({"parameter": "numa", "value": f"{machine.numa.n_domains}x{machine.numa.cores_per_domain} cores, cod={'on' if machine.numa.cod_enabled else 'off'}"})
    for p in machine.ports:
        rows.append({"parameter": f"port {p.id}", "value": ",".join(sorted(p.capabilities))})
    rows.append({"parameter": "default GB/s", "value": _display(machine.memory.default_bandwidth_gbs, args.precise)})
    for sig, gbs in sorted(machine.memory.bandwidth_table.items()):
        rows.append({"parameter": f"GB/s {sig[0]}/{sig[1]}/{sig[2]} (loads/stores/nt)", "value": _display(gbs, args.precise)})
    _emit_rows(rows, args.format, out)
    return 0


def cmd_nt(args, out) -> int:
    machine = _resolve_machine(args.machine)
    kernel = _resolve_kernel(args.kernel)
    try:
        estimate = nt_speedup(kernel, machine, args.mode)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "kernel": kernel.name,
        "volume_ratio": _display(estimate.volume_ratio, args.precise),
        "regular_domain_mups": _display(estimate.regular.per_domain_mups, args.precise)
        if estimate.regular.per_domain_mups is not None
        else None,
        "nt_domain_mups": _display(estimate.nontemporal.per_domain_mups, args.precise)
        if estimate.nontemporal.per_domain_mups is not None
        else None,
        "regular_chip_mups": _display(estimate.regular.per_chip_mups, args.precise)
        if estimate.regular.per_chip_mups is not None
        else None,
        "nt_chip_mups": _display(estimate.nontemporal.per_chip_mups, args.precise)
        if estimate.nontemporal.per_chip_mups is not None
        else None,
        "measured_reference": nt_reference().get(kernel.name),
    }
    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
        return 0
    rows = [{"quantity": key, "value": value if value is not None else ""} for key, value in payload.items() if key != "measured_reference"]
    _emit_rows(rows, args.format, out)
    reference = payload["measured_reference"]
    if reference and args.format == "table":
        out.write(f"\nmeasured reference (MUp/s): {json.dumps(reference)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecmkit",
        description="Analytic runtime prediction for streaming loop kernels.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-m", "--machine", default=None, help="built-in machine name or machine file path")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--precise", action="store_true", help="print unrounded values")
    common.add_argument("--mode", choices=("cod", "noncod"), default=None, help="bandwidth interpretation")
    kernel_arg = argparse.ArgumentParser(add_help=False)
    kernel_arg.add_argument("-k", "--kernel", required=True, help="built-in kernel name or kernel file path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common, kernel_arg], help="single-core model input and prediction")
    p.add_argument("--penalty", action="store_true", help="apply the off-core transfer penalty")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("traffic", parents=[common, kernel_arg], help="cache-line traffic per boundary")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("scale", parents=[common, kernel_arg], help="multi-core scaling curve")
    p.add_argument("--cores", type=int, default=None, help="core counts to evaluate (1..N)")
    p.add_argument("--pinning", choices=("domain-sequential", "round-robin"), default="domain-sequential")
    p.add_argument("--penalty", action="store_true", help="scale the penalty-adjusted prediction")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("compare", parents=[common], help="prediction vs measured cycles")
    p.add_argument("-k", "--kernel", action="append", default=None, help="kernel(s) to compare; default: all measured")
    p.add_argument("--measurements", default=None, help="measurement CSV; default: embedded reference data")
    p.add_argument("--no-penalty", action="store_true", help="drop the penalty-adjusted columns")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", parents=[common], help="recompute the reference kernels and diff against golden data")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("list-kernels", parents=[common], help="built-in kernel inventory")
    p.set_defaults(func=cmd_list_kernels)

    p = sub.add_parser("show-machine", parents=[common], help="machine parameters")
    p.add_argument("machine_name", nargs="?", default=None)
    p.set_defaults(func=cmd_show_machine)

    p = sub.add_parser("nt-estimate", parents=[common, kernel_arg], help="non-temporal-store speedup estimate")
    p.set_defaults(func=cmd_nt)

    return parser


def run(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, CapabilityError, ECMParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
