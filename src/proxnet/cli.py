"""Experiment harness: config parsing, orchestration, traces, summaries.

Config files are flat "dotted.key = value" lines; full-line comments start
with #.  Unknown and duplicate keys are errors: configs are provenance
records and must not silently drift.  The only environment override is
OUTPUT_DIR, which relocates relative output paths.

Exit codes: 0 success, 1 failed check (validate-graph, prox-check),
2 config error or, for run, a schedule that is not window-connected,
3 step-size violation, 4 numerical fault.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import write_trace_csv
from .graphs import (
    DisconnectedSchedule,
    RandomSchedule,
    Schedule,
    complete_schedule,
    read_matrix_file,
    ring_matchings_schedule,
    ring_schedule,
    schedule_from_matrices,
    validate_schedule,
)
from .objectives import (
    SigmoidLoss,
    WithSquaredL2,
    parse_libsvm,
    quadratic_family,
    shard,
    subsample,
)
from .regularizers import make_regularizer
from .solver import NumericalFault, RunSetup, StepSizeError, run

PROX_CHECK_TOLERANCE = 1e-6


class ConfigError(Exception):
    """Anything wrong with the experiment configuration."""


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _to_alpha(raw: str):
    if raw == "auto":
        return "auto"
    return float(raw)


@dataclass
class ExperimentConfig:
    """All run settings; field order matches the documented key order."""

    problem_kind: str = "quadratic"
    problem_n: int = 10
    problem_seed: int = 0
    lambda1: float = 5e-4
    lambda2: float = 5e-4
    reg_split: str = "h-carries-l2"
    data_path: str | None = None
    data_subsample: int | None = None
    data_n_override: int | None = None
    reg_kind: str | None = None
    reg_lo: float = -1.0
    reg_hi: float = 1.0
    graph_kind: str = "complete"
    graph_m: int = 10
    graph_b: int | None = None
    graph_seed: int = 0
    graph_path: str | None = None
    alpha: object = "auto"
    safety: float = 0.9
    max_iter: int = 100
    tol: float = 1e-8
    early_stop: bool = False
    init: str = "zeros"
    init_scale: float = 1.0
    algo_seed: int = 0
    trace_path: str = "trace.csv"
    snapshot_every: int = 1


# Dotted config key -> (attribute, converter).  Order defines dump order.
_KEYS: dict[str, tuple[str, object]] = {
    "problem.kind": ("problem_kind", str),
    "problem.n": ("problem_n", int),
    "problem.seed": ("problem_seed", int),
    "problem.lambda1": ("lambda1", float),
    "problem.lambda2": ("lambda2", float),
    "problem.reg_split": ("reg_split", str),
    "data.path": ("data_path", str),
    "data.subsample": ("data_subsample", int),
    "data.n_override": ("data_n_override", int),
    "reg.kind": ("reg_kind", str),
    "reg.lo": ("reg_lo", float),
    "reg.hi": ("reg_hi", float),
    "graph.kind": ("graph_kind", str),
    "graph.m": ("graph_m", int),
    "graph.B": ("graph_b", int),
    "graph.seed": ("graph_seed", int),
    "graph.path": ("graph_path", str),
    "algo.alpha": ("alpha", _to_alpha),
    "algo.safety": ("safety", float),
    "algo.max_iter": ("max_iter", int),
    "algo.tol": ("tol", float),
    "algo.early_stop": ("early_stop", _to_bool),
    "algo.init": ("init", str),
    "algo.init_scale": ("init_scale", float),
    "algo.seed": ("algo_seed", int),
    "output.trace": ("trace_path", str),
    "output.snapshot_every": ("snapshot_every", int),
}

_PROBLEM_KINDS = ("quadratic", "sigmoid")
_GRAPH_KINDS = ("complete", "ring", "matchings", "random", "file")
_REG_KINDS = ("zero", "l1", "squared-l2", "elastic-net", "box")
_REG_SPLITS = ("h-carries-l2", "g-carries-l2")
_INITS = ("zeros", "gaussian")


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, convert = _KEYS[key]
        try:
            setattr(cfg, attr, convert(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.problem_kind not in _PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {_PROBLEM_KINDS}")
    if cfg.graph_kind not in _GRAPH_KINDS:
        raise ConfigError(f"graph.kind must be one of {_GRAPH_KINDS}")
    if cfg.reg_kind is not None and cfg.reg_kind not in _REG_KINDS:
        raise ConfigError(f"reg.kind must be one of {_REG_KINDS}")
    if cfg.reg_split not in _REG_SPLITS:
        raise ConfigError(f"problem.reg_split must be one of {_REG_SPLITS}")
    if cfg.init not in _INITS:
        raise ConfigError(f"algo.init must be one of {_INITS}")
    if cfg.lambda1 < 0 or cfg.lambda2 < 0:
        raise ConfigError("penalty weights must be nonnegative")
    if cfg.graph_m < 1:
        raise ConfigError(f"graph.m must be >= 1, got {cfg.graph_m}")
    if cfg.graph_b is not None and cfg.graph_b < 1:
        raise ConfigError(f"graph.B must be >= 1, got {cfg.graph_b}")
    if cfg.max_iter < 0:
        raise ConfigError(f"algo.max_iter must be >= 0, got {cfg.max_iter}")
    if cfg.snapshot_every < 1:
        raise ConfigError("output.snapshot_every must be >= 1")
    if cfg.data_subsample is not None and cfg.data_subsample < 1:
        raise ConfigError("data.subsample must be >= 1")
    if cfg.problem_n < 1:
        raise ConfigError(f"problem.n must be >= 1, got {cfg.problem_n}")
    if isinstance(cfg.alpha, float) and not cfg.alpha > 0:
        raise ConfigError(f"algo.alpha must be positive, got {cfg.alpha}")
    if not 0 < cfg.safety < 1:
        raise ConfigError(f"algo.safety must be in (0, 1), got {cfg.safety}")
    if (
        cfg.problem_kind == "sigmoid"
        and cfg.reg_split == "g-carries-l2"
        and cfg.reg_kind in ("elastic-net", "squared-l2")
    ):
        raise ConfigError(
            f"reg.kind = {cfg.reg_kind} puts lambda2 ||x||^2 in h, but "
            "problem.reg_split = g-carries-l2 already puts it in the smooth part"
        )


def dump_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config; omits unset optional keys."""
    lines = []
    for key, (attr, _convert) in _KEYS.items():
        value = getattr(cfg, attr)
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
    for attr in ("data_path", "graph_path"):
        value = getattr(cfg, attr)
        if value is None:
            continue
        resolved = Path(value)
        if not resolved.is_absolute():
            resolved = base / resolved
        if not resolved.is_file():
            raise ConfigError(f"{attr.replace('_', '.')} does not exist: {resolved}")
        setattr(cfg, attr, str(resolved))
    return cfg


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    m = cfg.graph_m
    kind = cfg.graph_kind
    if kind == "complete":
        schedule = complete_schedule(m, B=cfg.graph_b or 1)
    elif kind == "ring":
        schedule = ring_schedule(m, B=cfg.graph_b or 1)
    elif kind == "matchings":
        if cfg.graph_b not in (None, 2):
            raise ConfigError("matchings schedules have B = 2")
        if m < 2:
            raise ConfigError("matchings need graph.m >= 2")
        schedule = ring_matchings_schedule(m)
    elif kind == "random":
        if cfg.graph_b is None:
            raise ConfigError("graph.kind = random requires graph.B")
        schedule = RandomSchedule(m=m, B=cfg.graph_b, seed=cfg.graph_seed)
    else:  # file
        if cfg.graph_path is None:
            raise ConfigError("graph.kind = file requires graph.path")
        try:
            matrices = read_matrix_file(cfg.graph_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad graph file: {exc}") from None
        try:
            schedule = schedule_from_matrices(
                matrices, B=cfg.graph_b or len(matrices)
            )
        except ValueError as exc:
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
        if cfg.data_path is None:
            raise ConfigError("problem.kind = sigmoid requires data.path")
        try:
            text = Path(cfg.data_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read data file: {exc}") from None
        try:
            dataset = parse_libsvm(text, n_features=cfg.data_n_override)
        except ValueError as exc:
            raise ConfigError(f"bad data file {cfg.data_path}: {exc}") from None
        # Free the text before shard copies the matrix, so it is not part
        # of the peak.
        del text
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
            shards = shard(dataset, cfg.graph_m, cfg.problem_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        objectives = [SigmoidLoss(piece) for piece in shards]
        n = dataset.n
        if cfg.reg_split == "g-carries-l2":
            objectives = [WithSquaredL2(obj, cfg.lambda2) for obj in objectives]
            default_kind = "l1"
        else:
            default_kind = "elastic-net"
    else:
        n = cfg.problem_n
        objectives = quadratic_family(cfg.graph_m, n, cfg.problem_seed)
        default_kind = "zero"
    kind = cfg.reg_kind or default_kind
    try:
        regularizer = make_regularizer(
            kind, n, cfg.lambda1, cfg.lambda2, cfg.reg_lo, cfg.reg_hi
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return objectives, regularizer, n, provenance


def _build_init(cfg: ExperimentConfig, m: int, n: int) -> np.ndarray:
    if cfg.init == "zeros":
        return np.zeros((m, n))
    rng = np.random.default_rng(cfg.algo_seed)
    return cfg.init_scale * rng.standard_normal((m, n))


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
    if getattr(args, "seed", None) is not None:
        cfg.problem_seed = args.seed
        cfg.graph_seed = args.seed
        cfg.algo_seed = args.seed
    if getattr(args, "output", None) is not None:
        cfg.trace_path = args.output
    if getattr(args, "max_iter", None) is not None:
        cfg.max_iter = args.max_iter
    if getattr(args, "alpha", None) is not None:
        cfg.alpha = _to_alpha(args.alpha)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    _validate_config(cfg)
    # The schedule and the output path are cheap to check and the data can
    # take seconds to parse, so their errors are reported first.
    schedule = build_schedule(cfg)
    out_path = _resolve_output(cfg.trace_path)
    objectives, regularizer, n, provenance = build_problem(cfg)
    lipschitz = max(obj.lipschitz() for obj in objectives)
    if cfg.alpha == "auto":
        if lipschitz <= 0:
            raise ConfigError("cannot pick alpha automatically: L = 0")
        alpha = cfg.safety / lipschitz
    else:
        alpha = float(cfg.alpha)
    setup = RunSetup(
        objectives=objectives,
        regularizer=regularizer,
        schedule=schedule,
        alpha=alpha,
        max_iter=cfg.max_iter,
        init=_build_init(cfg, cfg.graph_m, n),
        early_stop=cfg.early_stop,
        tol=cfg.tol,
        snapshot_every=cfg.snapshot_every,
    )
    started = time.perf_counter()
    trace = run(setup)
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
    horizon = args.horizon if args.horizon is not None else max(50, 2 * schedule.B)
    try:
        validate_schedule(schedule, horizon)
    except DisconnectedSchedule as exc:
        print(exc)
        return 1
    print(f"valid over {horizon} slots (window connectivity with B={schedule.B})")
    return 0


def _golden_minimize(func, lo: float, hi: float, width: float = 1e-9) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > width:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = func(d)
    return 0.5 * (lo + hi)


def cmd_prox_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        v = float(rng.uniform(-5.0, 5.0))
        alpha = float(rng.uniform(0.05, 3.0))
        lam1 = float(rng.uniform(0.0, 2.0))
        lam2 = float(rng.uniform(0.0, 2.0))
        if args.kind == "box":
            # The indicator is zero on the box, so search the box itself.
            lo = float(rng.uniform(-2.0, -0.1))
            hi = float(rng.uniform(0.1, 2.0))
        else:
            span = 10.0 * alpha * (lam1 + 2.0 * lam2 * abs(v) + 1.0)
            lo, hi = v - span, v + span
        reg = make_regularizer(args.kind, 1, lam1=lam1, lam2=lam2, lo=lo, hi=hi)
        exact = float(reg.prox(np.array([v]), alpha)[0])
        reference = _golden_minimize(
            lambda z: reg.value(np.array([z])) + (z - v) ** 2 / (2.0 * alpha), lo, hi
        )
        worst = max(worst, abs(exact - reference))
    print(f"kind={args.kind} trials={args.trials} max_deviation={worst!r}")
    return 0 if worst < PROX_CHECK_TOLERANCE else 1


def cmd_lipschitz(args) -> int:
    cfg = load_config(args.config)
    objectives, _reg, _n, _prov = build_problem(cfg)
    constants = [obj.lipschitz() for obj in objectives]
    for i, value in enumerate(constants):
        print(f"agent {i} L {value!r}")
    global_l = max(constants)
    print(f"global L {global_l!r}")
    if global_l > 0:
        print(f"recommended alpha {cfg.safety / global_l!r}")
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
    valp.add_argument("--horizon", type=int)
    valp.set_defaults(handler=cmd_validate_graph)

    proxp = sub.add_parser("prox-check", help="prox vs 1-D search oracle")
    proxp.add_argument("--kind", required=True, choices=_REG_KINDS)
    proxp.add_argument("--trials", type=int, default=1000)
    proxp.add_argument("--seed", type=int, default=0)
    proxp.set_defaults(handler=cmd_prox_check)

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
