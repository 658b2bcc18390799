"""Experiment harness: config parsing, orchestration, traces, summaries.

Config files are flat "dotted.key = value" lines; full-line comments start
with #.  Unknown and duplicate keys are errors: configs are provenance
records and must not silently drift.  The fields of ExperimentConfig are
the keys: a field's name is its key with the first dot written as an
underscore (graph.B is graph_B, algo.max_iter is algo_max_iter), and its
type picks the value's converter.  A float value may not be nan.  The
values a key accepts are declared with its field (_key: one of `choices`,
at least `at_least`, `finite`), and _validate_config checks every key
against its declaration before the rules that relate two keys.  The only
environment override is OUTPUT_DIR, which relocates relative output paths.

Exit codes: 0 success, 1 failed check (validate-graph only),
2 config error or, for run, a schedule that is not window-connected
(before the first iteration), 3 step-size violation, 4 numerical fault.
A run that faults at iteration k >= 1 first writes the k trace rows before
it and <trace>.fault.npz: the iteration, the agent and the iterate x that
entered iteration k.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import write_trace_csv
from .graphs import (
    DisconnectedSchedule,
    PeriodicSchedule,
    RandomSchedule,
    Schedule,
    complete_schedule,
    read_matrix_file,
    ring_matchings_schedule,
    ring_schedule,
    validate_schedule,
)
from .objectives import (
    SigmoidLoss,
    parse_libsvm,
    quadratic_family,
    shard,
    subsample,
)
from .regularizers import make_regularizer
from .solver import NumericalFault, RunSetup, StepSizeError, run


class ConfigError(Exception):
    """Anything wrong with the experiment configuration."""


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _to_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"expected a number, got {raw!r}")
    return value


def _to_alpha(raw: str):
    return "auto" if raw == "auto" else _to_float(raw)


def _key(default, *, choices=None, at_least=None, finite=False):
    """A config field whose value, unless None, is one of `choices`, is
    >= `at_least` and, if `finite` and a float, is finite."""
    rules = {"choices": choices, "at_least": at_least, "finite": finite}
    return dataclasses.field(default=default, metadata=rules)


@dataclass
class ExperimentConfig:
    """All run settings: one field per config key, in dump order."""

    problem_kind: str = _key("quadratic", choices=("quadratic", "sigmoid"))
    problem_n: int = _key(10, at_least=1)
    problem_seed: int = _key(0, at_least=0)
    problem_lambda1: float = _key(5e-4, at_least=0.0, finite=True)
    problem_lambda2: float = _key(5e-4, at_least=0.0, finite=True)
    data_path: str | None = None
    data_subsample: int | None = _key(None, at_least=1)
    data_n_override: int | None = _key(None, at_least=1)
    reg_kind: str | None = _key(
        None, choices=("zero", "l1", "squared-l2", "elastic-net", "box")
    )
    reg_lo: float = -1.0
    reg_hi: float = 1.0
    graph_kind: str = _key(
        "complete", choices=("complete", "ring", "matchings", "random", "file")
    )
    graph_m: int = _key(10, at_least=1)
    graph_B: int | None = _key(None, at_least=1)
    graph_seed: int = _key(0, at_least=0)
    graph_path: str | None = None
    algo_alpha: float | str = _key("auto", finite=True)
    algo_safety: float = 0.9
    algo_max_iter: int = _key(100, at_least=0)
    algo_tol: float = 1e-8
    algo_early_stop: bool = False
    algo_init: str = _key("zeros", choices=("zeros", "gaussian"))
    algo_init_scale: float = _key(1.0, finite=True)
    algo_seed: int = _key(0, at_least=0)
    output_trace: str = "trace.csv"
    # Parsed and checked but no longer read: run keeps no snapshots.  The
    # key stays only because benchmark workload configs set it, and goes
    # once they stop.
    output_snapshot_every: int = _key(1, at_least=1)


# A field's annotation, a string without "| None", picks its converter.
_CONVERTERS = {
    "str": str,
    "int": int,
    "float": _to_float,
    "bool": _to_bool,
    "float | str": _to_alpha,
}
# Config key -> field, in dump order, derived from the field names.
_FIELDS = {field.name.replace("_", ".", 1): field for field in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse dotted-key config text; unknown or repeated keys are errors."""
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        field = _FIELDS[key]
        convert = _CONVERTERS[field.type.removesuffix(" | None")]
        try:
            setattr(cfg, field.name, convert(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    for key, field in _FIELDS.items():
        value = getattr(cfg, field.name)
        rules = field.metadata
        if value is None or not rules:
            continue
        choices, bound = rules["choices"], rules["at_least"]
        if choices is not None and value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        if bound is not None and value < bound:
            raise ConfigError(f"{key} must be >= {bound}, got {value}")
        if rules["finite"] and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg.reg_kind == "box":
        try:
            make_regularizer("box", 1, lo=cfg.reg_lo, hi=cfg.reg_hi)
        except ValueError as exc:
            raise ConfigError(
                f"reg.lo = {cfg.reg_lo!r}, reg.hi = {cfg.reg_hi!r}: {exc}"
            ) from None
    alpha = cfg.algo_alpha
    if isinstance(alpha, float) and not (alpha > 0 and math.isfinite(1.0 / alpha)):
        raise ConfigError(
            f"algo.alpha must be positive with a finite reciprocal, got {alpha}"
        )
    if not 0 < cfg.algo_safety < 1:
        raise ConfigError(f"algo.safety must be in (0, 1), got {cfg.algo_safety}")
    if cfg.graph_kind == "matchings" and cfg.graph_B not in (None, 2):
        raise ConfigError(
            f"graph.kind = matchings requires graph.B = 2, got {cfg.graph_B}"
        )
    if cfg.graph_kind == "matchings" and cfg.graph_m < 2:
        raise ConfigError(
            f"graph.kind = matchings requires graph.m >= 2, got {cfg.graph_m}"
        )
    if cfg.graph_kind == "random" and cfg.graph_B is None:
        raise ConfigError("graph.kind = random requires graph.B")
    if cfg.graph_kind == "file" and cfg.graph_path is None:
        raise ConfigError("graph.kind = file requires graph.path")
    if cfg.problem_kind == "sigmoid" and cfg.data_path is None:
        raise ConfigError("problem.kind = sigmoid requires data.path")


def dump_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config; omits unset optional keys."""
    lines = []
    for key, field in _FIELDS.items():
        value = getattr(cfg, field.name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    """Read and parse a config file; referenced files must exist.

    Relative data and graph paths are resolved against the config file's
    directory, so configs can travel with their data.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    base = path.parent
    for key in ("data.path", "graph.path"):
        attr = _FIELDS[key].name
        value = getattr(cfg, attr)
        if value is None:
            continue
        resolved = Path(value)
        if not resolved.is_absolute():
            resolved = base / resolved
        if not resolved.is_file():
            raise ConfigError(f"{key} does not exist: {resolved}")
        setattr(cfg, attr, str(resolved))
    return cfg


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    m = cfg.graph_m
    kind = cfg.graph_kind
    try:
        if kind == "complete":
            return complete_schedule(m, B=cfg.graph_B or 1)
        if kind == "ring":
            return ring_schedule(m, B=cfg.graph_B or 1)
        if kind == "matchings":
            return ring_matchings_schedule(m)
        if kind == "random":
            return RandomSchedule(m=m, B=cfg.graph_B, seed=cfg.graph_seed)
    except MemoryError as exc:
        raise ConfigError(f"graph.m = {m} is too large: {exc}") from None
    try:  # file
        matrices = read_matrix_file(cfg.graph_path)
        schedule = PeriodicSchedule(matrices, B=cfg.graph_B or len(matrices))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad graph file: {exc}") from None
    if schedule.m != m:
        raise ConfigError(
            f"graph.m = {m} but file matrices are {schedule.m}x{schedule.m}"
        )
    return schedule


def build_problem(cfg: ExperimentConfig):
    """Construct (objectives, regularizer, n, provenance) from a config."""
    provenance: dict[str, object] = {}
    if cfg.problem_kind == "sigmoid":
        # With m > 1 and the whole file, the parse writes each row into its
        # shard's place and shard cuts views of that one matrix, so the
        # peak is the dense matrix (43 MB for 100,000 covtype-shaped rows)
        # plus a label and a row position per sample and the arrays of one
        # read (4 MB).  A subsample is drawn in file order, and shard
        # shuffles its rows with a copy.
        presorted = cfg.graph_m > 1 and cfg.data_subsample is None
        try:
            dataset = parse_libsvm(
                Path(cfg.data_path),
                n_features=cfg.data_n_override,
                shard_seed=cfg.problem_seed if presorted else None,
            )
        except OSError as exc:
            raise ConfigError(f"cannot read data file: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad data file {cfg.data_path}: {exc}") from None
        except MemoryError as exc:
            raise ConfigError(
                f"data file {cfg.data_path} is too large to load: {exc}"
            ) from None
        provenance["samples_total"] = dataset.count
        if cfg.data_subsample is not None:
            if cfg.data_subsample > dataset.count:
                raise ConfigError(
                    f"data.subsample = {cfg.data_subsample} exceeds "
                    f"{dataset.count} samples"
                )
            dataset = subsample(dataset, cfg.data_subsample, cfg.problem_seed)
            provenance["subsample_seed"] = cfg.problem_seed
        provenance["samples_used"] = dataset.count
        try:
            shards = shard(
                dataset, cfg.graph_m, None if presorted else cfg.problem_seed
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        objectives = [SigmoidLoss(piece) for piece in shards]
        n = dataset.n
        default_kind = "elastic-net"
    else:
        n = cfg.problem_n
        try:
            objectives = quadratic_family(cfg.graph_m, n, cfg.problem_seed)
        except MemoryError as exc:
            raise ConfigError(f"problem.n = {n} is too large: {exc}") from None
        default_kind = "zero"
    worst = max(obj.lipschitz() for obj in objectives)
    if not math.isfinite(worst):
        raise ConfigError(
            f"data file {cfg.data_path} gives the non-finite Lipschitz "
            f"constant L = {worst!r}"
        )
    kind = cfg.reg_kind or default_kind
    regularizer = make_regularizer(
        kind, n, cfg.problem_lambda1, cfg.problem_lambda2, cfg.reg_lo, cfg.reg_hi
    )
    return objectives, regularizer, n, provenance


def _build_init(cfg: ExperimentConfig, m: int, n: int) -> np.ndarray:
    if cfg.algo_init == "zeros":
        return np.zeros((m, n))
    rng = np.random.default_rng(cfg.algo_seed)
    # run() reports a start that overflows here as a numerical fault.
    with np.errstate(over="ignore"):
        return cfg.algo_init_scale * rng.standard_normal((m, n))


def _resolve_output(path_str: str) -> Path:
    path = Path(path_str)
    out_dir = os.environ.get("OUTPUT_DIR")
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    if path.is_dir():
        raise ConfigError(f"output {path} is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return path


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if args.seed is not None:
        cfg.problem_seed = args.seed
        cfg.graph_seed = args.seed
        cfg.algo_seed = args.seed
    if args.output is not None:
        cfg.output_trace = args.output
    if args.max_iter is not None:
        cfg.algo_max_iter = args.max_iter
    if args.alpha is not None:
        try:
            cfg.algo_alpha = _to_alpha(args.alpha)
        except ValueError:
            raise ConfigError(
                f"--alpha takes a number or 'auto', got {args.alpha!r}"
            ) from None


def _auto_alpha(safety: float, lipschitz: float) -> float | None:
    """The step that algo.alpha = auto picks, algo.safety / L; None if L = 0."""
    if lipschitz <= 0:
        return None
    alpha = safety / lipschitz
    if not (alpha > 0 and math.isfinite(alpha) and math.isfinite(1.0 / alpha)):
        # A subnormal safety rounds it to 0 or a subnormal: blame the key.
        raise ConfigError(
            f"algo.safety = {safety!r} gives the automatic step {alpha!r} "
            f"at L = {lipschitz!r}; it and its reciprocal must be finite and positive"
        )
    return alpha


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    _validate_config(cfg)
    # The schedule and the output path are cheap to check and the data can
    # take seconds to parse, so their errors are reported first.
    schedule = build_schedule(cfg)
    out_path = _resolve_output(cfg.output_trace)
    objectives, regularizer, n, provenance = build_problem(cfg)
    lipschitz = max(obj.lipschitz() for obj in objectives)
    if cfg.algo_alpha == "auto":
        alpha = _auto_alpha(cfg.algo_safety, lipschitz)
        if alpha is None:
            raise ConfigError("cannot pick alpha automatically: L = 0")
    else:
        alpha = float(cfg.algo_alpha)
    setup = RunSetup(
        objectives=objectives,
        regularizer=regularizer,
        schedule=schedule,
        alpha=alpha,
        max_iter=cfg.algo_max_iter,
        init=_build_init(cfg, cfg.graph_m, n),
        early_stop=cfg.algo_early_stop,
        tol=cfg.algo_tol,
        snapshot_every=None,
    )
    started = time.perf_counter()
    try:
        trace = run(setup)
    except NumericalFault as fault:
        # Only a fault past the start carries rows and x.  A trace column
        # names no agent, which is written as -1.
        if fault.x is not None:
            write_trace_csv(fault.rows, out_path)
            np.savez(
                out_path.with_suffix(".fault.npz"),
                iteration=fault.iteration,
                agent=-1 if fault.agent is None else fault.agent,
                x=fault.x,
            )
        raise
    wall = time.perf_counter() - started
    write_trace_csv(trace.rows, out_path)

    last = trace.rows[-1]
    lines = [
        f"trace {out_path}",
        f"iterations {len(trace.rows) - 1}",
        f"comm_steps {trace.comm_cumulative}",
        f"final_D {last.D!r}",
        f"final_residual_bound {last.residual_bound!r}",
        f"alpha {trace.alpha!r}",
        f"lipschitz {trace.lipschitz!r}",
        f"stopped_early {'true' if trace.stopped_early else 'false'}",
        f"wall_time_s {wall:.3f}",
    ]
    if "subsample_seed" in provenance:
        lines.append(
            "subsample {used} of {total} (seed {seed})".format(
                used=provenance["samples_used"],
                total=provenance["samples_total"],
                seed=provenance["subsample_seed"],
            )
        )
    summary = "\n".join(lines) + "\n"
    out_path.with_suffix(".summary.txt").write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return 0


def cmd_validate_graph(args) -> int:
    cfg = load_config(args.config)
    schedule = build_schedule(cfg)
    try:
        validate_schedule(schedule)
    except DisconnectedSchedule as exc:
        print(exc)
        return 1
    print(f"valid: every window of B={schedule.B} slots connects all agents")
    return 0


def cmd_lipschitz(args) -> int:
    cfg = load_config(args.config)
    objectives, _reg, _n, _prov = build_problem(cfg)
    constants = [obj.lipschitz() for obj in objectives]
    global_l = max(constants)
    alpha = _auto_alpha(cfg.algo_safety, global_l)
    for i, value in enumerate(constants):
        print(f"agent {i} L {value!r}")
    print(f"global L {global_l!r}")
    if alpha is not None:
        print(f"recommended alpha {alpha!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxnet",
        description="Distributed proximal gradient experiments over "
        "time-varying networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--output", help="override output.trace")
    runp.add_argument("--seed", type=int, help="override every seed")
    runp.add_argument("--max-iter", type=int, dest="max_iter")
    runp.add_argument("--alpha", help="step size, a number or 'auto'")
    runp.set_defaults(handler=cmd_run)

    valp = sub.add_parser("validate-graph", help="check a schedule config")
    valp.add_argument("--config", required=True)
    valp.set_defaults(handler=cmd_validate_graph)

    lipp = sub.add_parser("lipschitz", help="print per-agent constants")
    lipp.add_argument("--config", required=True)
    lipp.set_defaults(handler=cmd_lipschitz)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"step-size error: {exc}", file=sys.stderr)
        return 3
    except NumericalFault as exc:
        print(
            f"numerical fault at iteration {exc.iteration}: {exc}",
            file=sys.stderr,
        )
        return 4
    except DisconnectedSchedule as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
