"""Spans at the library's layer boundaries, recorded from outside the
package for the traced run.

Each layer is a public function (or the one private helper that does a
public function's work) wrapped under every name the package holds it by:
its own module, the modules that import it, the package namespace and
registry dicts such as the CLI's built-in machine table. Spans stay in
memory as ``[name, start_ns, end_ns, parent_index, op, work]`` and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns


def _kernel_uops(args, result) -> int:
    return sum(g.count for g in args[0].uops)


def _curve_points(args, result) -> int:
    return len(result.points)


# (span name, module, attribute, work count from (args, result))
LAYERS = (
    ("scheduler.core_timing", "ecmkit.scheduler", "core_timing", _kernel_uops),
    # core_timing calls the Hall-bound helper directly for its nOL and OL
    # problems; min_cycles is a thin public wrapper around the same helper
    ("scheduler.min_cycles", "ecmkit.scheduler", "_binding_bound", None),
    ("scheduler.frontend_bound", "ecmkit.scheduler", "frontend_bound", None),
    ("model.ecm_input", "ecmkit.model", "ecm_input", None),
    ("model.predict", "ecmkit.model", "predict", None),
    ("model.apply_penalty", "ecmkit.model", "apply_penalty", None),
    ("model.format_ecm", "ecmkit.model", "format_ecm", None),
    ("model.parse_ecm", "ecmkit.model", "parse_ecm", None),
    ("scaling.scale", "ecmkit.scaling", "scale", _curve_points),
    ("scaling.bandwidth_ceiling", "ecmkit.scaling", "bandwidth_ceiling", None),
    ("traffic.traffic", "ecmkit.traffic", "traffic", None),
    ("kernels.load_kernel", "ecmkit.kernels", "load_kernel", None),
    ("kernels.builtin_kernels", "ecmkit.kernels", "builtin_kernels", None),
    ("machine.load_machine", "ecmkit.machine", "load_machine", None),
    ("machine.builtin_haswell", "ecmkit.machine", "builtin_haswell", None),
    ("machine.bandwidth", "ecmkit.machine", "MachineModel.bandwidth", None),
    ("reference.load", "ecmkit.reference", "reference_table", None),
    ("reference.load", "ecmkit.reference", "reference_measurements", None),
    ("cli.run", "ecmkit.cli", "run", None),
)


class LayerError(RuntimeError):
    """A layer boundary the benchmark times no longer exists."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        # (op key, wall nanoseconds) of every traced op, indexed by op id
        self.ops: list[tuple] = []
        # on only while an op runs, so set-up and checks leave no spans
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, work=None):
        """``fn`` recording one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, 0, 0, stack[-1] if stack else None, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the loaded ``ecmkit`` modules. A module that
        was never imported has no calls to record; a workload that expects
        calls from it reports the blank layer."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ecmkit" or n.startswith("ecmkit.")]
        for name, module_name, attribute, work in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                raise LayerError(f"layer {name}: {module_name}.{attribute} not found")
            wrapper = self.wrap(name, original, work)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for entry, item in list(value.items()):
                            if item is original:
                                self._patch(value, entry, wrapper)

    def _patch(self, target, key, wrapper) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = wrapper
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()


def self_ns(spans) -> list[int]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _name, start, end, _parent, _op, _work in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_totals(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, total and self nanoseconds, and work count."""
    totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
    for (name, start, end, _parent, _op, work), own in zip(spans, self_ns(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += own
        entry["work"] += work
    return dict(totals)
