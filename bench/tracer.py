"""Outside-in tracer: spans around the public functions of each proxnet layer.

The wrappers replace the names that callers look up (module globals and
class attributes), so no file of the program changes.  A span records its
name, start, end and the index of its parent span.  Spans stay in memory
while the program runs and are written out once, after it has finished.

A wrapped name that no longer exists is reported as absent, and its layer
metrics read as zero: no span means no work was seen there.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

RUN_BOUNDARY = ("proxnet.cli", "run", "solver.run")

# (module, name, span): module-level functions, wrapped where callers look
# them up.  The cli and solver modules import their callees by name, so
# those names are wrapped in the caller's module.
FUNCTIONS = (
    ("proxnet.cli", "load_config", "cli.load_config"),
    ("proxnet.cli", "build_problem", "cli.build_problem"),
    ("proxnet.cli", "build_schedule", "cli.build_schedule"),
    ("proxnet.cli", "parse_libsvm", "objectives.parse"),
    ("proxnet.cli", "shard", "objectives.shard"),
    RUN_BOUNDARY,
    ("proxnet.cli", "write_trace_csv", "diagnostics.write_trace"),
    ("proxnet.solver", "validate_schedule", "graphs.validate"),
    ("proxnet.solver", "consensus_weights", "graphs.mixing"),
    ("proxnet.solver", "iterate", "solver.iterate"),
    ("proxnet.solver", "gradient_step", "solver.gradient_step"),
    ("proxnet.solver", "consensus_step", "solver.consensus_step"),
    ("proxnet.solver", "prox_step", "solver.prox_step"),
    ("proxnet.diagnostics", "gradient_averaging_error", "diagnostics.e"),
    ("proxnet.diagnostics", "disagreement", "diagnostics.disagreement"),
    ("proxnet.diagnostics", "geometric_envelope", "diagnostics.envelope"),
)

# (module, method, span): the method is wrapped on every class defined in
# the module whose own namespace has it.
METHODS = (
    ("proxnet.objectives", "grad", "objectives.grad"),
    ("proxnet.objectives", "value", "objectives.value"),
    ("proxnet.objectives", "lipschitz", "objectives.lipschitz"),
    ("proxnet.regularizers", "prox", "regularizers.prox"),
    ("proxnet.graphs", "matrix", "graphs.slot_matrix"),
)

NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._mixing_seen: dict[int, object] = {}

    def install(self, functions=FUNCTIONS, methods=METHODS) -> None:
        for module_name, attr, span in functions:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span))
        for module_name, attr, span in methods:
            module = importlib.import_module(module_name)
            found = False
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == module_name):
                    continue
                fn = cls.__dict__.get(attr)
                if inspect.isfunction(fn):
                    setattr(cls, attr, self._wrap(fn, span))
                    found = True
            if not found:
                self.absent.append(f"{module_name}.*.{attr}")

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = {
            "graphs.mixing": self._new_matrix_bytes,
            "objectives.parse": _row_count,
        }.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if measure is not None:
                spans[index][SIZE] = measure(result)
            return result

        return wrapper

    def _new_matrix_bytes(self, result) -> int:
        # Returned arrays are kept alive so that an id is never reused
        # for a different matrix; the program's own cache already holds them.
        if id(result) in self._mixing_seen:
            return 0
        self._mixing_seen[id(result)] = result
        return int(getattr(result, "nbytes", 0))


def _row_count(result) -> int:
    return int(getattr(result, "count", 0))


# Per-layer metric -> unit.  Times are self times: a span's duration less
# the time its child spans cover.
LAYER_UNITS = {
    "cli.load_config_s": "s",
    "cli.build_problem_s": "s",
    "cli.build_schedule_s": "s",
    "objectives.parse_s": "s",
    "objectives.parse_rows": "count",
    "objectives.shard_s": "s",
    "objectives.lipschitz_s": "s",
    "objectives.grad_s": "s",
    "objectives.grad_calls.solver": "count",
    "objectives.grad_calls.diagnostics": "count",
    "objectives.value_s": "s",
    "objectives.value_calls": "count",
    "graphs.validate_s": "s",
    "graphs.validate_slots": "count",
    "graphs.mixing_s": "s",
    "graphs.mixing_bytes": "bytes",
    "graphs.slot_matrix_s": "s",
    "graphs.slot_matrix_calls": "count",
    "solver.run_self_s": "s",
    "solver.iterate_self_s": "s",
    "solver.iterations": "count",
    "solver.gradient_step_s": "s",
    "solver.consensus_step_s": "s",
    "solver.prox_step_s": "s",
    "regularizers.prox_s": "s",
    "regularizers.prox_calls": "count",
    "diagnostics.e_s": "s",
    "diagnostics.disagreement_s": "s",
    "diagnostics.envelope_s": "s",
    "diagnostics.write_trace_s": "s",
    "diagnostics.trace_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Span name behind each self-time metric.
_SELF_TIME = {
    "cli.load_config_s": "cli.load_config",
    "cli.build_problem_s": "cli.build_problem",
    "cli.build_schedule_s": "cli.build_schedule",
    "objectives.parse_s": "objectives.parse",
    "objectives.shard_s": "objectives.shard",
    "objectives.lipschitz_s": "objectives.lipschitz",
    "objectives.grad_s": "objectives.grad",
    "objectives.value_s": "objectives.value",
    "graphs.validate_s": "graphs.validate",
    "graphs.mixing_s": "graphs.mixing",
    "graphs.slot_matrix_s": "graphs.slot_matrix",
    "solver.run_self_s": "solver.run",
    "solver.iterate_self_s": "solver.iterate",
    "solver.gradient_step_s": "solver.gradient_step",
    "solver.consensus_step_s": "solver.consensus_step",
    "solver.prox_step_s": "solver.prox_step",
    "regularizers.prox_s": "regularizers.prox",
    "diagnostics.e_s": "diagnostics.e",
    "diagnostics.disagreement_s": "diagnostics.disagreement",
    "diagnostics.envelope_s": "diagnostics.envelope",
    "diagnostics.write_trace_s": "diagnostics.write_trace",
}

# Span name behind each call count; a call nested in a span of the same
# name (a wrapper class delegating to its base) is not counted again.
_CALLS = {
    "objectives.value_calls": "objectives.value",
    "graphs.slot_matrix_calls": "graphs.slot_matrix",
    "solver.iterations": "solver.iterate",
    "regularizers.prox_calls": "regularizers.prox",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the trace-level ones)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    grad_callers = {"solver": 0, "diagnostics": 0}
    validate_slots = 0
    for index, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        self_time[name] += span[END] - span[START] - child_time[index]
        sizes[name] += span[SIZE]
        parent_name = spans[parent][NAME] if parent >= 0 else None
        if parent_name == name:
            continue
        calls[name] += 1
        if name == "graphs.slot_matrix" and parent_name == "graphs.validate":
            validate_slots += 1
        if name == "objectives.grad":
            layer = _caller_layer(spans, parent)
            if layer:
                grad_callers[layer] += 1
    metrics = {metric: self_time[span] for metric, span in _SELF_TIME.items()}
    metrics.update({metric: calls[span] for metric, span in _CALLS.items()})
    metrics["objectives.grad_calls.solver"] = grad_callers["solver"]
    metrics["objectives.grad_calls.diagnostics"] = grad_callers["diagnostics"]
    metrics["objectives.parse_rows"] = sizes["objectives.parse"]
    metrics["graphs.mixing_bytes"] = sizes["graphs.mixing"]
    metrics["graphs.validate_slots"] = validate_slots
    return metrics


def _caller_layer(spans, index: int) -> str | None:
    """The layer, solver or diagnostics, of the nearest such ancestor span."""
    while index >= 0:
        layer = spans[index][NAME].split(".")[0]
        if layer in ("solver", "diagnostics"):
            return layer
        index = spans[index][PARENT]
    return None
