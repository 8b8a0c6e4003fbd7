"""ecmkit benchmark: a closed-loop, single-client load generator over two
workloads (sweep, fresh) that checks every op's output.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are per-layer figures from a run
with spans at every layer boundary, plus the tracing overhead against an
untraced run of the same seed in a child process. A traced run also drives
the ``ecmkit`` CLI (see ``workloads.CliProbe``), checks its output and
times the layers only the CLI reaches. The full result (run stamp, digest,
model error, per-input timings and work counters, every per-layer figure)
goes to ``bench/results/``; spans of a traced run go next to it.

Each run makes a fixed number of whole passes over its workload's inputs,
set by ``--seconds`` and the workload's seconds per pass, so every run times
the same inputs the same number of times (fresh re-imports the package
before every pass, so a repeat is never a cache hit). Latencies are each
input's mean op time over the run.

The host this was written on is shared: other tenants slow this process by
up to 2x, flipping within milliseconds and holding a level for seconds to
minutes, so raw wall times of the same code spread by a third between runs.
Between ops the benchmark therefore runs a fixed pure-Python probe loop that
the program never touches, for a set share of each op's time, and scales
every op time by the probe's speed over the same run (see ``HostSpeed``);
set-up samples are scaled likewise by probes run after each of them.
Reported times are those of a host on which one probe unit takes
``REFERENCE_UNIT_NS``: a change to the program moves them as it moves wall
time, a change in the host's load does not. The results file keeps the raw
times and both scale factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from math import exp, log
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

from tracing import LayerError, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, CliProbe, child_env  # noqa: E402

# set-up is timed this many times per run (this process plus children) and
# the median reported
SETUP_SAMPLES = 9
# interpreter start-up and import probes per traced run
PROBE_SAMPLES = 5
# a tail percentile is reported only where this many samples lie beyond it
TAIL_SAMPLES = 10
# failed ops kept in full in the result
FAILURES_KEPT = 20
# probe time run between ops, as a share of the ops' time, and after each
# set-up sample, as a share of its time
OP_PROBE_SHARE = 0.1
SETUP_PROBE_SHARE = 1.0
# one probe unit's time on the host reported times are scaled to, about its
# mean on the 2-vCPU host the benchmark was defined on
REFERENCE_UNIT_NS = 1_000_000
PROBE_ITERATIONS = 5000

PER_LAYER_MS = (
    ("scheduler.core_timing.self_ms", "scheduler.core_timing", "self_ns"),
    ("scheduler.min_cycles.ms", "scheduler.min_cycles", "ns"),
    ("scheduler.frontend_bound.ms", "scheduler.frontend_bound", "ns"),
    ("model.ecm_input.self_ms", "model.ecm_input", "self_ns"),
    ("model.predict.ms", "model.predict", "ns"),
    ("model.apply_penalty.ms", "model.apply_penalty", "ns"),
    ("model.format_ecm.ms", "model.format_ecm", "ns"),
    ("model.parse_ecm.ms", "model.parse_ecm", "ns"),
    ("scaling.scale.self_ms", "scaling.scale", "self_ns"),
    ("scaling.bandwidth_ceiling.ms", "scaling.bandwidth_ceiling", "ns"),
    ("traffic.traffic.ms", "traffic.traffic", "ns"),
    ("kernels.load_kernel.ms", "kernels.load_kernel", "ns"),
    ("machine.bandwidth.ms", "machine.bandwidth", "ns"),
)
# layers only the CLI reaches, per in-process call of the traced run's CLI probe
CLI_LAYER_MS = (
    ("cli.run.ms", "cli.run", "ns"),
    ("kernels.builtin_kernels.ms", "kernels.builtin_kernels", "ns"),
    ("machine.load_machine.ms", "machine.load_machine", "ns"),
    ("machine.builtin_haswell.ms", "machine.builtin_haswell", "ns"),
    ("reference.load.ms", "reference.load", "ns"),
)
PER_LAYER_COUNTS = (
    ("scheduler.core_timing.calls", ("scheduler.core_timing",), "calls"),
    ("scheduler.uops_scheduled", ("scheduler.core_timing",), "work"),
    ("scaling.points", ("scaling.scale",), "work"),
    ("traffic.calls", ("traffic.traffic",), "calls"),
    ("kernels.calls", ("kernels.load_kernel", "kernels.builtin_kernels"), "calls"),
)


END_TO_END = ("setup_s", "ops_per_s", "latency_ms_p50", "latency_ms_p90", "peak_rss_mb")
# the per-layer figures every traced run reaches, so none reads zero on any
# workload; the rest, zero on some workload, are in the results file
PER_LAYER_REPORTED = (
    "scheduler.core_timing.self_ms",
    "scheduler.min_cycles.ms",
    "scheduler.frontend_bound.ms",
    "scheduler.core_timing.calls",
    "scheduler.uops_scheduled",
    "model.ecm_input.self_ms",
    "model.predict.ms",
    "model.apply_penalty.ms",
    "model.format_ecm.ms",
    "traffic.traffic.ms",
    "traffic.calls",
    "machine.bandwidth.ms",
    "machine.load_machine.ms",
    "machine.builtin_haswell.ms",
    "kernels.builtin_kernels.ms",
    "reference.load.ms",
    "cli.run.ms",
    "cli.output_bytes",
    "cli.interp_start_ms",
    "cli.import_ms",
    "trace.overhead",
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_ecmkit():
    """The package from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ecmkit

    if Path(ecmkit.__file__).resolve().parent != SRC / "ecmkit":
        raise BenchError(f"ecmkit imported from {ecmkit.__file__}, not from {SRC}")
    return ecmkit


def set_up(name: str, workdir: Path):
    """Import the library, build the workload's machine and input files and
    run its warm-up ops. Returns the workload and the seconds it took."""
    start = perf_counter()
    ek = import_ecmkit()
    workload = WORKLOADS[name](ek, workdir)
    for key in workload.warmup_keys():
        workload.run_op(key)
    return workload, perf_counter() - start


_PROBE_TABLE = {i: (i * 40503) & 0xFFFF for i in range(256)}


def _probe_step(x: int, table: dict) -> int:
    return table[x & 255] + (x >> 3)


def probe_unit() -> int:
    """The host-speed probe: calls, dict lookups and int arithmetic, like
    the interpreter work the program does, but allocating nothing the
    garbage collector tracks and touching no program state."""
    table = _PROBE_TABLE
    total = 0
    for i in range(PROBE_ITERATIONS):
        total = _probe_step(total ^ i, table) & 0xFFFFF
    return total


class HostSpeed:
    """The host's speed over a run, sampled by probe units run after each
    timed piece of work for ``share`` of its time, so the probe sees the
    host's load in proportion to the time the work saw it. Work time times
    ``factor()`` is the time on a host where one unit takes
    REFERENCE_UNIT_NS; over a run the probe's mean slows as the work's mean
    does, which a probe next to each single op would not track."""

    def __init__(self, share: float):
        self.share = share
        self.owed_ns = 0.0
        self.units = 0
        self.unit_ns = 0

    def after(self, elapsed_ns: float) -> None:
        self.owed_ns += self.share * elapsed_ns
        while self.owed_ns > 0 or not self.units:
            start = perf_counter_ns()
            probe_unit()
            spent = perf_counter_ns() - start
            self.owed_ns -= spent
            self.units += 1
            self.unit_ns += spent

    def factor(self) -> float:
        return REFERENCE_UNIT_NS * self.units / self.unit_ns


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    the order statistics around rank q/100 * (n + 1). The latency of the one
    op that lands on a rank carries that op's own noise; the weighted mean
    spreads it over its neighbours. Weights are the Beta density at each
    rank's midpoint, normalised to sum to one."""
    data = sorted(values)
    n = len(data)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    logs = [(a - 1) * log((i + 0.5) / n) + (b - 1) * log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, data)) / sum(weights)


def tail_percentile(n: int) -> float:
    """90, or the highest whole percentile with TAIL_SAMPLES samples beyond it."""
    if n * 0.1 >= TAIL_SAMPLES:
        return 90.0
    return max(50.0, float(int(100 * (1 - TAIL_SAMPLES / n)))) if n else 50.0


@dataclass
class InputStats:
    """What a run keeps of one input: its timings over every op that ran it,
    its work counters and its output, stored once. Failed ops are kept in
    full apart from these, so the benchmark's memory does not grow with the
    number of ops the program gets through."""

    label: str
    runs: int = 0
    total_ms: float = 0.0
    counters: dict | None = None
    cells: str | None = None
    output: object = None
    layer_calls: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        entry = {"op": self.label, "runs": self.runs, "mean_ms": self.total_ms / self.runs, "counters": self.counters}
        if self.layer_calls:
            entry["layer_calls"] = self.layer_calls
        return entry


def passes_for(workload, seconds: float) -> int:
    """Whole passes for a run of ``seconds``. The count comes from the
    workload and the run length, not from the clock, so every run of a
    workload times the same inputs the same number of times, however fast
    the program is."""
    return max(1, round(seconds / workload.pass_seconds))


def run_phase(workload, seed: int, passes: int, max_ops=None, tracer=None):
    """The timed closed loop: ``passes`` passes over the workload's inputs,
    each in a fresh seeded order, or only the first ``max_ops`` ops. Checks
    and the host-speed probe run between ops, off the clock. Returns the
    per-input stats, the failed ops, the ops attempted, their total
    nanoseconds and the host's speed over them."""
    rng = random.Random(seed)
    stats: dict = {}
    failures = []
    attempted = op_ns = 0
    speed = HostSpeed(OP_PROBE_SHARE)
    run_op = workload.run_op if tracer is None else tracer.wrap("op", workload.run_op)
    for n in range(passes):
        if n and hasattr(workload, "new_pass"):
            if tracer is not None:
                tracer.uninstall()
            workload.new_pass()
            if tracer is not None:
                tracer.install()
        for key in workload.draw(rng):
            if attempted == max_ops:
                break
            if tracer is not None:
                tracer.op = attempted
                tracer.enabled = True
            error = output = None
            start = perf_counter_ns()
            try:
                output = run_op(key)
            except Exception:
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            elapsed = perf_counter_ns() - start
            op_ns += elapsed
            attempted += 1
            if tracer is not None:
                tracer.enabled = False
                tracer.ops.append((key, elapsed))
            entry = stats.setdefault(key, InputStats(workload.label(key)))
            entry.runs += 1
            entry.total_ms += elapsed / 1e6
            errors = [error] if error else check_op(workload, key, output, entry)
            if errors:
                failures.append({"op": entry.label, "ms": elapsed / 1e6, "errors": errors})
            speed.after(elapsed)
    return stats, failures, attempted, op_ns, speed


def check_op(workload, key, output, entry: InputStats) -> list[str]:
    """Errors in one op's output. Its cells and counters must equal those
    of every earlier op on the same input."""
    try:
        errors = workload.check(key, output)
        cells = workload.cells(key, output)
        counters = workload.counters(key, output)
    except Exception:
        return [f"{entry.label}: check raised {traceback.format_exc(limit=3).strip().splitlines()[-1]}"]
    if entry.cells is None:
        entry.cells, entry.counters, entry.output = cells, counters, output
        return errors
    if entry.cells != cells:
        errors.append(f"{entry.label}: output differs from an earlier op with the same input")
    if entry.counters != counters:
        errors.append(f"{entry.label}: counters {counters} differ from an earlier op's {entry.counters}")
    return errors


def timing_figures(stats, factor: float) -> dict:
    """Throughput and latency over each input's mean op time in the run,
    scaled by the host-speed ``factor``: ops per second of those means, and
    percentiles over them."""
    means = [entry.total_ms / entry.runs * factor for entry in stats.values()]
    tail_q = tail_percentile(len(means))
    return {
        "ops_per_s": len(means) / sum(means) * 1e3,
        "latency_ms_p50": percentile(means, 50),
        "latency_ms_p90": percentile(means, tail_q),
        "latency_samples": len(means),
        "latency_ms_p90_is_percentile": tail_q,
    }


def digest(stats) -> str:
    """SHA-256 over the formatted cells of every input run, in label
    order, so it does not depend on the seed's order."""
    lines = sorted(f"{entry.label}\t{entry.cells}" for entry in stats.values() if entry.cells is not None)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def child_run(args, trace: int, extra=(), seconds=None) -> dict:
    """This script in a child process; returns its result line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(seconds or args.seconds), "--trace", str(trace), *extra]
    if args.ops is not None:
        argv += ["--ops", str(args.ops)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"child run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_children(args, count: int, speed: HostSpeed) -> list[float]:
    """Set-up times of ``count`` child processes that only set up, each
    followed by the host-speed probe."""
    samples = []
    for _ in range(count):
        samples.append(child_run(args, 0, ("--setup-only",))["setup_s"])
        speed.after(samples[-1] * 1e9)
    return samples


def probe_ms(code: str) -> float:
    """Median wall time of ``python -c code`` over PROBE_SAMPLES runs."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=child_env(SRC), check=True)
        samples.append((perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def per_layer_metrics(spans, attempted: int, cli_spans, cli_calls: int, cli_bytes: int, overhead: float) -> dict:
    """Per-op means of each layer's time and work over the traced ops, the
    CLI probe's per-call figures, the start-up probes and the tracing
    overhead."""
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "work": 0}
    figures = {}
    for table, span_list, calls in ((PER_LAYER_MS, spans, attempted), (CLI_LAYER_MS, cli_spans, cli_calls)):
        totals = layer_totals(span_list)
        for metric, layer, kind in table:
            figures[metric] = (totals.get(layer, empty)[kind] / calls / 1e6, "ms")
    totals = layer_totals(spans)
    for metric, layers, kind in PER_LAYER_COUNTS:
        figures[metric] = (sum(totals.get(layer, empty)[kind] for layer in layers) / attempted, "count")
    figures["cli.output_bytes"] = (cli_bytes / cli_calls, "count")
    interp = probe_ms("pass")
    figures["cli.interp_start_ms"] = (interp, "ms")
    figures["cli.import_ms"] = (probe_ms("import ecmkit.cli") - interp, "ms")
    figures["trace.overhead"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def attach_trace(stats, tracer) -> None:
    """Per input: calls into each layer, summed over the input's ops."""
    for name, _start, _end, _parent, op, _work in tracer.spans:
        calls = stats[tracer.ops[op][0]].layer_calls
        calls[name] = calls.get(name, 0) + 1


def run_stamp(args, warmup: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "commit": commit,
        "seed": args.seed,
        "warmup_ops": warmup,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one process, one client, closed loop, no worker pool",
    }


def benchmark(args) -> dict:
    """One run; the full result, including the lines printed and the spans."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    try:
        workload, setup_s = set_up(args.workload, workdir)
        if args.setup_only:
            return {"setup_s": setup_s}
        # a traced run spends half its time on the untraced run it is
        # compared with
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = passes_for(workload, seconds) if args.ops is None else -(-args.ops // len(workload.keys))
        # half the set-up samples are taken before the timed phase and half
        # after, so that one slow spell of the host does not hold them all
        extra = 0 if args.trace else args.setup_samples - 1
        setup_speed = HostSpeed(SETUP_PROBE_SHARE)
        setup_speed.after(setup_s * 1e9)
        setup_samples = [setup_s] + setup_children(args, extra // 2, setup_speed)
        if args.trace:
            # the traced phase repeats the untraced child's ops, so the ratio
            # of their rates is the tracing overhead
            untraced = child_run(args, 0, ("--setup-samples", "1"), seconds)
            tracer = Tracer()
            tracer.install()
        try:
            stats, failures, attempted, op_ns, speed = run_phase(workload, args.seed, passes, args.ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            cli = CliProbe(workload.ek, workdir / "cli")
            cli_tracer = Tracer()
            cli_tracer.install()
            try:
                cli_errors, cli_bytes = cli.run(cli_tracer)
            finally:
                cli_tracer.uninstall()
        setup_samples += setup_children(args, extra - extra // 2, setup_speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    timing = timing_figures(stats, speed.factor())
    result = {
        "stamp": run_stamp(args, len(workload.warmup_keys())),
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else None,
        "errors": [e for f in failures[:FAILURES_KEPT] for e in f["errors"]],
        "passes": passes,
        "latency_samples": timing["latency_samples"],
        "latency_ms_p90_is_percentile": timing["latency_ms_p90_is_percentile"],
        "setup_s_samples": setup_samples,
        "setup_speed_factor": setup_speed.factor(),
        "op_speed_factor": speed.factor(),
        "digest": digest(stats),
        "distinct_ops": len(stats),
        "model_error_abs_pct": workload.model_error(
            {key: entry.output for key, entry in stats.items() if entry.cells is not None}
        ),
        "end_to_end": {
            "setup_s": {"value": statistics.median(setup_samples) * setup_speed.factor(), "unit": "s"},
            "ops_per_s": {"value": timing["ops_per_s"], "unit": "ops/s"},
            "latency_ms_p50": {"value": timing["latency_ms_p50"], "unit": "ms"},
            "latency_ms_p90": {"value": timing["latency_ms_p90"], "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        },
        # wall-clock throughput over every op of the run, not scaled
        "all_ops_per_s": attempted / (op_ns / 1e9),
        "draw": [workload.label(key) for key in workload.draw(random.Random(args.seed))],
        "failures": failures[:FAILURES_KEPT],
    }
    if tracer is not None:
        untraced_ops_per_s = untraced["metrics"]["ops_per_s"]["value"]
        result["untraced_ops_per_s"] = untraced_ops_per_s
        overhead = untraced_ops_per_s / timing["ops_per_s"]
        result["per_layer"] = per_layer_metrics(
            tracer.spans, attempted, cli_tracer.spans, len(cli.argvs), cli_bytes, overhead
        )
        attach_trace(stats, tracer)
        result["errors"] += cli_errors
        for spans, expected in ((tracer.spans, workload.expected_layers), (cli_tracer.spans, cli.expected_layers)):
            seen = layer_totals(spans)
            missing = [layer for layer in expected if layer not in seen]
            if missing:
                result["errors"].append(f"traced layers recorded no calls: {missing}")
        result["correct"] = result["correct"] and not result["errors"]
        result["spans"] = tracer.spans
        result["op_ns"] = [elapsed for _key, elapsed in tracer.ops]
    result["inputs"] = [entry.as_json() for entry in sorted(stats.values(), key=lambda e: e.label)]
    return result


def write_results(result) -> Path:
    stamp = result["stamp"]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{stamp['workload']}-seed{stamp['seed']}-trace{stamp['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def summary(result, path: Path) -> str:
    lines = [f"{result['stamp']['workload']}: {result['attempted']} ops in {result['passes']} pass(es), "
             f"{result['failed']} failed, digest {result['digest'][:16]}, "
             f"model error {result['model_error_abs_pct']}"]
    shown = result.get("per_layer") or result["end_to_end"]
    for name, metric in shown.items():
        lines.append(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    lines += [f"  error: {e}" for e in result["errors"]]
    lines.append(f"  full result: {path}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length, which sets the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="stop after this many ops (short test runs)")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "ecmkit" / "__init__.py").is_file():
            raise BenchError(f"no ecmkit package under {SRC}")
        result = benchmark(args)
    except (BenchError, LayerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0
    path = write_results(result)
    print(summary(result, path), file=sys.stderr)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    reported = PER_LAYER_REPORTED if args.trace else END_TO_END
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in reported},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
