"""The benchmark's two workloads: what one op is, how the op set is drawn
from the seed, and how every op's output is checked; and the CLI probe that
every traced run makes.

Each workload exposes the same interface to ``run.py``:

* ``warmup_keys()``: ops run during set-up and discarded;
* ``draw(rng)``: the op keys of one pass, in seeded order;
* ``label(key)``: a name for an op key that does not depend on the run;
* ``new_pass()``, where present: called before every pass after the first;
* ``run_op(key)``: the timed op, returning its output;
* ``check(key, output)``: error messages for an output, empty when correct;
* ``cells(key, output)``: the formatted model cells the digest is built from;
* ``counters(key, output)``: the work the op did, independent of timing;
* ``expected_layers``: traced layers that must record calls on this workload;
* ``pass_seconds``: run seconds per pass, which sets how many whole passes
  a run of a given length makes. Each is chosen on a 2-vCPU host so that a
  40 s run of each workload fits the benchmark's time, with fresh given the
  larger share: its ops are few and long, sweep's many and short.

Ops call the library through module attributes (``self.ek.scale`` and so
on) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

SWEEP_MODES = ("cod", "noncod")
SWEEP_PINNINGS = ("domain-sequential", "round-robin")
SWEEP_MAX_CORES = 14
SWEEP_WARMUP = 10

FRESH_FACTORS = (1, 2, 4, 8)
# 0-2 extra arithmetic uops appended to the scaled kernel
FRESH_EXTRAS = ((), ("add",), ("mul",), ("lea",), ("add", "lea"))

CLI_COMMANDS = ("predict", "traffic", "scale", "compare", "validate", "list-kernels", "show-machine", "nt-estimate")
CLI_FORMATS = ("table", "csv", "json")
CLI_KERNEL_COMMANDS = ("predict", "traffic", "scale", "nt-estimate")


def child_env(src: Path) -> dict:
    """Environment for ``python`` children: this checkout's package on the
    path and no machine search path."""
    env = {k: v for k, v in os.environ.items() if k not in ("ECM_MACHINE_PATH", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    return env


def _kernel_dict(kernel) -> dict:
    """Kernel file contents in the schema ``load_kernel`` reads."""
    streams = []
    for s in kernel.streams:
        entry = {"array": s.array_name, "access": s.access}
        if s.nontemporal:
            entry["nontemporal"] = True
        streams.append(entry)
    uops = []
    for g in kernel.uops:
        entry = {"count": g.count, "class": g.uop_class}
        if g.addressing is not None:
            entry["addressing"] = g.addressing
        uops.append(entry)
    return {
        "name": kernel.name,
        "element_bytes": kernel.element_bytes,
        "streams": streams,
        "uops": uops,
        "flops_per_iteration": kernel.flops_per_iteration,
    }


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def _penalty_streams(kernel) -> int:
    """Streams that load lines (reads, read-modify-writes, write-allocates),
    counted from the stream list without the library's helpers."""
    return sum(1 for s in kernel.streams if s.access != "write" or not s.nontemporal)


def _non_decreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _abs_errors(ek, pred, measurement) -> list[int]:
    return list(ek.model_error(pred, measurement).absolute_pct.values())


class Sweep:
    """Repeated queries that share work: every op reuses one of the 10
    built-in kernels on the one built-in machine, so a per-(kernel, machine)
    memo would hit on all but the first op of each kernel."""

    name = "sweep"
    # one pass of 80 ops takes about 0.6 s; a 40 s run makes 31 passes
    pass_seconds = 1.3
    expected_layers = (
        "scheduler.core_timing",
        "scheduler.min_cycles",
        "scheduler.frontend_bound",
        "model.ecm_input",
        "model.predict",
        "model.apply_penalty",
        "model.format_ecm",
        "model.parse_ecm",
        "scaling.scale",
        "scaling.bandwidth_ceiling",
        "traffic.traffic",
        "machine.bandwidth",
    )

    def __init__(self, ek, workdir: Path):
        self.ek = ek
        self.machine = ek.builtin_haswell()
        self.kernels = ek.builtin_kernels()
        self.penalty = ek.PenaltyConfig()
        from ecmkit import reference

        self.reference = {name: reference.reference_cells(name) for name in reference.REFERENCE_KERNELS}
        self.measurements = reference.reference_measurements()
        self.keys = [
            (kernel, mode, penalty, pinning)
            for kernel in sorted(self.kernels)
            for mode in SWEEP_MODES
            for penalty in (False, True)
            for pinning in SWEEP_PINNINGS
        ]

    def warmup_keys(self):
        """One op per kernel."""
        return self.keys[:: len(self.keys) // SWEEP_WARMUP]

    def draw(self, rng):
        keys = list(self.keys)
        rng.shuffle(keys)
        return keys

    def label(self, key):
        name, mode, penalty, pinning = key
        return f"{name}/{mode}/{'penalty' if penalty else 'plain'}/{pinning}"

    def run_op(self, key):
        ek = self.ek
        name, mode, penalty, pinning = key
        kernel = self.kernels[name]
        config = self.penalty if penalty else None
        curve = ek.scale(kernel, self.machine, mode=mode, max_cores=SWEEP_MAX_CORES, pinning=pinning, penalty=config)
        inp = ek.ecm_input(kernel, self.machine, mode)
        pred = ek.predict(inp)
        shown = ek.apply_penalty(pred, kernel, config) if penalty else pred
        texts = (ek.format_ecm(inp), ek.format_ecm(pred), ek.format_ecm(shown))
        parsed = tuple(ek.parse_ecm(text) for text in texts)
        return curve, inp, pred, shown, texts, parsed

    def check(self, key, output):
        ek = self.ek
        name, mode, penalty, pinning = key
        curve, inp, pred, shown, texts, parsed = output
        errors = []
        for text, value in zip(texts, parsed):
            if ek.format_ecm(value) != text:
                errors.append(f"{key}: {text} does not survive parse_ecm/format_ecm")
        if name in self.reference and mode == "cod":
            want_input, want_pred = self.reference[name]
            got_input = [ek.format_cycles(c) for c in inp.cells()]
            got_pred = [ek.format_cycles(c) for c in pred.cells()]
            if got_input != want_input:
                errors.append(f"{key}: input cells {got_input} != reference {want_input}")
            if got_pred != want_pred:
                errors.append(f"{key}: prediction cells {got_pred} != reference {want_pred}")
        perf = [p.performance_mups for p in curve.points]
        if [p.cores for p in curve.points] != list(range(1, SWEEP_MAX_CORES + 1)):
            errors.append(f"{key}: curve covers cores {[p.cores for p in curve.points]}")
        if not _non_decreasing(perf):
            errors.append(f"{key}: scaling curve decreases")
        ceiling = ek.bandwidth_ceiling(self.kernels[name], self.machine, mode)
        if not ceiling.compute_bound and max(perf) > ceiling.per_chip_mups:
            errors.append(f"{key}: curve exceeds the bandwidth ceiling {ceiling.per_chip_mups}")
        return errors

    def cells(self, key, output):
        curve, _inp, _pred, _shown, texts, _parsed = output
        points = " ".join(self.ek.format_cycles(p.performance_mups) for p in curve.points)
        return " ".join(texts) + " " + points

    def counters(self, key, output):
        kernel = self.kernels[key[0]]
        return {"kernel_uops": sum(g.count for g in kernel.uops), "scale_points": len(output[0].points)}

    def model_error(self, outputs):
        """Mean absolute error in percent of the unpenalized cod prediction
        over the measured kernels, across the distinct combinations run."""
        errors = []
        for key, output in outputs.items():
            name, mode, _penalty, _pinning = key
            if mode == "cod" and name in self.measurements:
                errors += _abs_errors(self.ek, output[2], self.measurements[name])
        return sum(errors) / len(errors) if errors else None


@dataclass(frozen=True)
class FreshKernel:
    base: str
    factor: int
    extras: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.base}-x{self.factor}-{'+'.join(self.extras) or 'none'}"


class Fresh:
    """Distinct user kernel files that share no work: unrolled and padded
    variants of the non-temporal-free built-ins. Each input runs once per
    pass, and every pass after the first starts from a freshly imported
    package, so no op can reuse a result computed by an earlier op."""

    name = "fresh"
    # one pass of 160 ops takes about 20 s, nearly all of it in the pairing
    # search's worst cases; a 40 s run makes 3 passes
    pass_seconds = 13.0
    expected_layers = (
        "scheduler.core_timing",
        "scheduler.min_cycles",
        "scheduler.frontend_bound",
        "model.ecm_input",
        "model.predict",
        "model.apply_penalty",
        "model.format_ecm",
        "traffic.traffic",
        "kernels.load_kernel",
        "machine.bandwidth",
    )

    def __init__(self, ek, workdir: Path):
        self.ek = ek
        self.machine = ek.builtin_haswell()
        self.penalty = ek.PenaltyConfig()
        builtins = ek.builtin_kernels()
        from ecmkit import reference

        self.measurements = reference.reference_measurements()
        self.paths = {}
        kernel_dir = workdir / "kernels"
        kernel_dir.mkdir()
        bases = sorted(name for name, k in builtins.items() if not any(s.nontemporal for s in k.streams))
        self.keys = [FreshKernel(base, f, extras) for base in bases for f in FRESH_FACTORS for extras in FRESH_EXTRAS]
        # the non-temporal built-ins are outside the draw, so warming up on
        # them fills no cache an op could hit
        self.warmups = [name for name, k in sorted(builtins.items()) if any(s.nontemporal for s in k.streams)]
        for key in self.keys:
            kernel = builtins[key.base]
            uops = tuple(replace(g, count=g.count * key.factor) for g in kernel.uops)
            uops += tuple(ek.UopGroup(1, extra) for extra in key.extras)
            self.paths[key] = kernel_dir / f"{key.name}.json"
            _write_json(self.paths[key], _kernel_dict(replace(kernel, name=key.name, uops=uops)))
        for name in self.warmups:
            self.paths[name] = kernel_dir / f"{name}.json"
            _write_json(self.paths[name], _kernel_dict(builtins[name]))

    def warmup_keys(self):
        return list(self.warmups)

    def new_pass(self):
        """Drop every loaded ecmkit module, import the package again and
        warm it up on the kernels outside the draw."""
        for name in [n for n in sys.modules if n == "ecmkit" or n.startswith("ecmkit.")]:
            del sys.modules[name]
        self.ek = importlib.import_module("ecmkit")
        self.machine = self.ek.builtin_haswell()
        self.penalty = self.ek.PenaltyConfig()
        for key in self.warmups:
            self.run_op(key)

    def draw(self, rng):
        """All combinations, each once, with the unroll factors interleaved so
        that every prefix of the draw holds the same factor mix."""
        by_factor = []
        for factor in FRESH_FACTORS:
            group = [key for key in self.keys if key.factor == factor]
            rng.shuffle(group)
            by_factor.append(group)
        return [key for column in zip(*by_factor) for key in column]

    def label(self, key):
        return key.name

    def run_op(self, key):
        ek = self.ek
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernel = ek.load_kernel(self.paths[key])
        inp = ek.ecm_input(kernel, self.machine)
        pred = ek.predict(inp)
        adjusted = ek.apply_penalty(pred, kernel, self.penalty)
        texts = (ek.format_ecm(inp), ek.format_ecm(pred), ek.format_ecm(adjusted))
        return kernel, inp, pred, adjusted, texts, len(caught)

    def check(self, key, output):
        """Invariants any correct scheduler keeps; today's T_OL on scaled
        kernels is not compared with an exact value."""
        ek = self.ek
        kernel, inp, pred, adjusted, _texts, _warned = output
        machine = self.machine
        errors = []
        t_nol = ek.min_cycles(ek.build_nol_problem(kernel, machine))
        if inp.t_nol != t_nol:
            errors.append(f"{key.name}: T_nOL {inp.t_nol} != port bound {t_nol}")
        ol_bound = ek.min_cycles(ek.build_ol_problem(kernel, machine))
        if inp.t_ol < ol_bound:
            errors.append(f"{key.name}: T_OL {inp.t_ol} below port bound {ol_bound}")
        frontend = ek.frontend_bound(kernel, machine)
        if max(inp.t_ol, inp.t_nol) < frontend:
            errors.append(f"{key.name}: core time below frontend bound {frontend}")
        prof = ek.traffic(kernel)
        bandwidth = machine.bandwidth(ek.bandwidth_signature(kernel))
        transfers = (
            prof.cls_l1l2 * machine.cycles_per_cl("L1L2"),
            prof.cls_l2l3 * machine.cycles_per_cl("L2L3"),
            prof.cls_l3mem * ek.mem_cycles_per_cl(bandwidth, machine.frequency_ghz),
        )
        if (inp.t_l1l2, inp.t_l2l3, inp.t_l3mem) != transfers:
            errors.append(f"{key.name}: transfer cells {inp.cells()[2:]} != traffic x cycles per line {transfers}")
        for label, value in (("prediction", pred), ("penalized prediction", adjusted)):
            if not _non_decreasing(value.cells()):
                errors.append(f"{key.name}: {label} cells decrease: {value.cells()}")
        extra = _penalty_streams(kernel) * Fraction(self.penalty.cycles_per_load_stream_per_level)
        deltas = tuple(a - p for a, p in zip(adjusted.cells(), pred.cells()))
        if deltas != (0, 0, extra, 2 * extra):
            errors.append(f"{key.name}: penalty added {deltas}, expected (0, 0, {extra}, {2 * extra})")
        return errors

    def cells(self, key, output):
        return " ".join(output[4])

    def counters(self, key, output):
        kernel = output[0]
        return {"kernel_uops": sum(g.count for g in kernel.uops), "load_warnings": output[5]}

    def model_error(self, outputs):
        """Mean absolute error in percent over the unscaled, unpadded
        variants of measured kernels, which equal those built-ins."""
        errors = []
        for key, output in outputs.items():
            if key.factor == 1 and not key.extras and key.base in self.measurements:
                errors += _abs_errors(self.ek, output[2], self.measurements[key.base])
        return sum(errors) / len(errors) if errors else None


class CliProbe:
    """The ``ecmkit`` CLI over all 8 subcommands x 3 formats, half of the
    argvs with machine and kernel files written here. Each argv runs once
    as a ``python -m ecmkit`` subprocess, which must exit 0, and once
    through the in-process ``cli.run``, whose stdout the subprocess's must
    equal byte for byte. A traced run records spans of the in-process calls,
    so the layers only the CLI reaches (argument files, the reference
    table, the built-in registries) are measured on every workload."""

    expected_layers = (
        "cli.run",
        "kernels.load_kernel",
        "kernels.builtin_kernels",
        "machine.load_machine",
        "machine.builtin_haswell",
        "reference.load",
    )

    def __init__(self, ek, workdir: Path):
        import ecmkit.cli

        self.cli = ecmkit.cli
        self.workdir = workdir
        workdir.mkdir()
        self.machine_path = workdir / "machine.json"
        _write_json(self.machine_path, ek.serialize_machine(ek.builtin_haswell()))
        builtins = ek.builtin_kernels()
        self.kernel_paths = {}
        for name, kernel in builtins.items():
            self.kernel_paths[name] = workdir / f"{name}.json"
            _write_json(self.kernel_paths[name], _kernel_dict(kernel))
        with_writes = sorted(n for n, k in builtins.items() if any(s.access == "write" for s in k.streams))
        names = sorted(builtins)
        self.argvs = []
        for i, (command, fmt) in enumerate((c, f) for c in CLI_COMMANDS for f in CLI_FORMATS):
            pool = with_writes if command == "nt-estimate" else names
            kernel = pool[i % len(pool)]
            for from_files in (False, True):
                self.argvs.append(self._argv(command, fmt, kernel, from_files))
        self.env = child_env(Path(ek.__file__).resolve().parent.parent)

    def _argv(self, command, fmt, kernel, from_files) -> tuple[str, ...]:
        argv = [command, "--format", fmt]
        if command in CLI_KERNEL_COMMANDS:
            argv += ["-k", str(self.kernel_paths[kernel]) if from_files else kernel]
        if from_files:
            argv += ["-m", str(self.machine_path)]
        if command in ("predict", "scale") and fmt != "csv":
            argv.append("--penalty")
        if command == "compare" and from_files:
            argv.append("--no-penalty")
        return tuple(argv)

    def label(self, argv) -> str:
        return " ".join(argv).replace(str(self.workdir), "<work>")

    def run(self, tracer) -> tuple[list[str], int]:
        """Every argv, the in-process call under ``tracer`` with the argv's
        index as op id; returns error messages and the stdout bytes."""
        errors = []
        output_bytes = 0
        for op, argv in enumerate(self.argvs):
            proc = subprocess.run(
                [sys.executable, "-m", "ecmkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env
            )
            out = io.StringIO()
            tracer.op, tracer.enabled = op, True
            try:
                code = self.cli.run(list(argv), out=out)
            finally:
                tracer.enabled = False
            output_bytes += len(proc.stdout)
            if proc.returncode != 0 or code != 0:
                errors.append(f"cli {self.label(argv)}: exit code {proc.returncode}, in process {code}")
            elif proc.stdout != out.getvalue().encode():
                errors.append(f"cli {self.label(argv)}: stdout differs from in-process cli.run")
        return errors, output_bytes


WORKLOADS = {"sweep": Sweep, "fresh": Fresh}
