"""Line reach of the package under the benchmark's work: how often each
executable line of src/ecmkit runs in one seeded pass of each benchmark
workload and over the benchmark's CLI probe argvs.

    python tests/reach.py [--seed 1] [MODULE ...]

Pytest does not collect this script. It imports bench/workloads.py as it
is and drives each part as bench/run.py does, each on a newly imported
package, all in this process:

* sweep: the workload's set-up and warm-up ops, then the timed ops of the
  first pass drawn from the seed;
* fresh: the same for the fresh workload;
* cli: every argv of the CLI probe through the in-process `cli.run` (the
  probe's subprocess twins are not run).

Only the timed ops and the CLI calls are traced, by a `sys.settrace` line
tracer limited to the package's files, so set-up, warm-up and each op's
check add nothing. It prints one line per executable line of the package's
modules (or of the MODULEs named, such as scheduler.py): the file and line,
its hit count in sweep, fresh and cli, and its source. A count of 0 in every
column is a line that none of the three runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib
import inspect
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecmkit"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py, read only)

PARTS = ("sweep", "fresh", "cli")


def new_package():
    """The package imported anew, as each benchmark run's process imports it."""
    for name in [n for n in sys.modules if n == "ecmkit" or n.startswith("ecmkit.")]:
        del sys.modules[name]
    return importlib.import_module("ecmkit")


@contextlib.contextmanager
def traced(hits: Counter):
    """Count each line the package's files run in the block into `hits`,
    keyed by (file name, line)."""
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits[Path(frame.f_code.co_filename).name, frame.f_lineno] += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(call)
    try:
        yield
    finally:
        sys.settrace(None)


def workload_pass(cls, seed: int, workdir: Path, hits: Counter) -> None:
    """Set up `cls` and run its warm-up ops, then trace the first pass."""
    workdir.mkdir()
    workload = cls(new_package(), workdir)
    for key in workload.warmup_keys():
        workload.run_op(key)
    keys = workload.draw(random.Random(seed))
    with traced(hits):
        for key in keys:
            workload.run_op(key)


def cli_probe(workdir: Path, hits: Counter) -> None:
    """Trace every CLI probe argv run in process; each must exit 0."""
    probe = workloads.CliProbe(new_package(), workdir)
    for argv in probe.argvs:
        with traced(hits), contextlib.redirect_stderr(io.StringIO()):
            code = probe.cli.run(list(argv), out=io.StringIO())
        if code != 0:
            raise SystemExit(f"cli {probe.label(argv)}: exit code {code}")


def executable_lines(path: Path) -> set[int]:
    """The lines of the functions in `path` that a line tracer can report
    (Python 3.11 or later): the lines of every instruction after the
    function's RESUME, which stands on its `def` line. Module and class
    bodies run at import, untraced here."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            instructions = list(dis.get_instructions(code))
            resumed = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
            lines.update(ins.positions.lineno for ins in instructions[resumed + 1:] if ins.positions.lineno)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed whose first pass is traced")
    parser.add_argument("modules", nargs="*", help="module file names to print, such as scheduler.py; default all")
    args = parser.parse_args(argv)
    hits = {part: Counter() for part in PARTS}
    with tempfile.TemporaryDirectory() as tmp:
        workload_pass(workloads.Sweep, args.seed, Path(tmp) / "sweep", hits["sweep"])
        workload_pass(workloads.Fresh, args.seed, Path(tmp) / "fresh", hits["fresh"])
        cli_probe(Path(tmp) / "cli", hits["cli"])
    print(f"{'line':<18} {'sweep':>7} {'fresh':>7} {'cli':>7}  source")
    for path in sorted(PACKAGE.glob("*.py")):
        if args.modules and path.name not in args.modules:
            continue
        source = path.read_text().splitlines()
        run = {line for counts in hits.values() for name, line in counts if name == path.name}
        for line in sorted(executable_lines(path) | run):
            counts = " ".join(f"{hits[part][path.name, line]:>7}" for part in PARTS)
            print(f"{path.name + ':' + str(line):<18} {counts}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
