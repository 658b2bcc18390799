"""Config grammar, builders, subcommands, exit codes."""

import contextlib
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxnet import cli
from proxnet.cli import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    build_schedule,
    dump_config,
    load_config,
    parse_config,
)
from proxnet.data import (
    parse_libsvm,
    serialize_libsvm,
    shard,
    subsample,
    synthetic_classification,
)
from proxnet.graphs import PeriodicSchedule, RandomSchedule
from proxnet.objectives import AgentFamily, Quadratic, SigmoidLoss
from proxnet.regularizers import Box, ElasticNet, L1, Zero
from proxnet.solver import run

from oracles import shard_rows
from workloads import covtype_libsvm  # the benchmark's covtype-shaped text

CONFIGS = Path(__file__).parents[1] / "configs"

FULL_CONFIG = """\
# every key exercised once
problem.kind = sigmoid
problem.n = 7
problem.seed = 3
problem.lambda1 = 0.001
problem.lambda2 = 0.002
data.path = data.libsvm
data.subsample = 12
data.n_override = 9
reg.kind = box
reg.lo = -0.5
reg.hi = 0.75
graph.kind = random
graph.m = 5
graph.B = 3
graph.seed = 42
algo.alpha = 0.05
algo.safety = 0.8
algo.max_iter = 17
algo.tol = 1e-06
algo.init = gaussian
algo.init_scale = 0.1
algo.seed = 9
output.trace = runs/trace.csv
output.snapshot_every = 4
"""


def _write_dataset(tmp_path, count=24, n=6, seed=3):
    data = synthetic_classification(count, n, seed=seed)
    path = tmp_path / "data.libsvm"
    path.write_text(serialize_libsvm(data), encoding="utf-8")
    return path


def _quad_config(tmp_path, name="quad.conf", extra=""):
    path = tmp_path / name
    path.write_text(
        "problem.kind = quadratic\n"
        "problem.n = 3\n"
        "problem.seed = 11\n"
        "reg.kind = l1\n"
        "problem.lambda1 = 0.05\n"
        "graph.kind = complete\n"
        "graph.m = 4\n"
        "algo.max_iter = 10\n"
        f"output.trace = {tmp_path / 'quad.csv'}\n" + extra,
        encoding="utf-8",
    )
    return path


def test_config_round_trip_covers_every_key():
    cfg = parse_config(FULL_CONFIG)
    assert cfg == parse_config(dump_config(cfg))
    assert cfg.algo_alpha == 0.05
    assert cfg.algo_tol == 1e-06
    assert cfg.graph_B == 3


def test_config_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.algo_alpha == "auto"
    assert cfg.problem_lambda1 == 5e-4 and cfg.problem_lambda2 == 5e-4


def test_config_auto_alpha_round_trips():
    cfg = parse_config("algo.alpha = auto\n")
    assert "algo.alpha = auto" in dump_config(cfg)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("nonsense.key = 1\n", "unknown key", 3),
        ("graph.m = 4\ngraph.m = 5\n", "duplicate key", 4),
        ("graph.m = four\n", "bad value", 3),
        ("just some words\n", "key = value", 3),
        ("algo.early_stop = true\n", "unknown key", 3),
        ("reg.lambda1 = 1\n", "unknown key", 3),
        ("graph.period = 2\n", "unknown key", 3),
        ("graph.eta = 0.1\n", "unknown key", 3),
    ],
)
def test_config_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config("# leading comment\n\n" + text)
    assert f"line {line}" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "problem.kind = cubic\n",
        "problem.lambda1 = -0.1\n",
        "graph.m = 0\n",
        "output.snapshot_every = 0\n",
        "problem.reg_split = nobody-carries-l2\n",
        "algo.alpha = 0\n",
        "data.subsample = 0\n",
        "algo.max_iter = -1\n",
        "algo.init = ones\n",
        "reg.kind = l7\n",
        "graph.B = 0\n",
        "algo.safety = 1.0\n",
        "problem.kind = sigmoid\nproblem.reg_split = g-carries-l2\n"
        "reg.kind = elastic-net\n",
        "problem.kind = sigmoid\nproblem.reg_split = g-carries-l2\n"
        "reg.kind = squared-l2\n",
        "problem.reg_split = g-carries-l2\nreg.kind = elastic-net\n",
        "problem.reg_split = g-carries-l2\nreg.kind = squared-l2\n",
        "problem.lambda1 = inf\n",
        "problem.lambda1 = nan\n",
        "problem.lambda2 = inf\n",
        "problem.lambda2 = nan\n",
        "algo.init_scale = inf\n",
        "algo.init_scale = -inf\n",
        "algo.init_scale = nan\n",
        "reg.lo = nan\n",
        "algo.tol = nan\n",
        "data.n_override = 0\n",
        "data.n_override = -2\n",
        "algo.alpha = 5e-324\n",
        "algo.alpha = 1e-320\n",
    ],
)
def test_config_validation_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_config_language_is_pinned():
    # The 25 keys in dump order; renaming a field must not change them.
    keys = """
        problem.kind problem.n problem.seed problem.lambda1 problem.lambda2
        data.path data.subsample data.n_override reg.kind
        reg.lo reg.hi graph.kind graph.m graph.B graph.seed graph.path
        algo.alpha algo.safety algo.max_iter algo.tol
        algo.init algo.init_scale algo.seed output.trace output.snapshot_every
    """.split()
    dumped = dump_config(parse_config(FULL_CONFIG + "graph.path = w.txt\n"))
    assert [line.partition(" = ")[0] for line in dumped.splitlines()] == keys
    shipped = sorted(CONFIGS.glob("*.conf"))
    assert len(shipped) == 3
    for path in shipped:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        text = dump_config(cfg)
        assert parse_config(text) == cfg
        assert dump_config(parse_config(text)) == text


@pytest.mark.parametrize("name", ["covtype", "quadratic", "sigmoid-synthetic"])
def test_shipped_penalty_weights_reach_the_regularizer(tmp_path, name):
    # A weight that the regularizer's kind leaves out would be read and unused.
    path = CONFIGS / f"{name}.conf"
    text = path.read_text(encoding="utf-8")
    cfg = parse_config(text)
    if name == "covtype":  # the full file is not shipped
        cfg.data_path = str(tmp_path / "covtype.libsvm")
        Path(cfg.data_path).write_text(covtype_libsvm(40, 0), encoding="utf-8")
    elif cfg.data_path is not None:
        cfg.data_path = str(path.parent / cfg.data_path)
    _objs, reg, _n, _prov = build_problem(cfg)
    for key, weight in (("problem.lambda1", reg.lam1), ("problem.lambda2", reg.lam2)):
        value = getattr(cfg, cli._FIELDS[key].name)
        if f"\n{key} = " in "\n" + text and value != 0:
            assert weight == value, key


def _declared(rule):
    """(key, value) for every key whose declaration sets `rule`."""
    return [
        (key, value)
        for key, field in cli._FIELDS.items()
        if (value := field.metadata.get(rule)) is not None and value is not False
    ]


@pytest.mark.parametrize("key, bound", _declared("at_least"))
def test_declared_lower_bounds_are_inclusive(key, bound):
    with pytest.raises(ConfigError) as err:
        parse_config(f"{key} = {bound - 1}\n")
    assert str(err.value) == f"{key} must be >= {bound}, got {bound - 1}"
    assert getattr(parse_config(f"{key} = {bound}\n"), cli._FIELDS[key].name) == bound


@pytest.mark.parametrize("key, choices", _declared("choices"))
def test_declared_choices_reject_an_outsider(key, choices):
    with pytest.raises(ConfigError) as err:
        parse_config(f"{key} = outsider\n")
    assert str(err.value) == f"{key} must be one of {choices}, got 'outsider'"


@pytest.mark.parametrize("key", [key for key, _ in _declared("finite")])
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_declared_finite_keys_reject_infinities(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be ") as err:
        parse_config(f"{key} = {value}\n")
    assert str(err.value).endswith(f", got {value}")


def test_load_config_requires_referenced_files(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.kind = sigmoid\ndata.path = missing.libsvm\n")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(conf)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.conf")


def test_load_config_resolves_paths_against_config_dir(tmp_path):
    data = _write_dataset(tmp_path)
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.kind = sigmoid\ndata.path = data.libsvm\n")
    cfg = load_config(conf)
    assert cfg.data_path == str(data)


def test_build_schedule_kinds():
    for kind in ("complete", "ring"):
        static = build_schedule(parse_config(f"graph.kind = {kind}\n"))
        assert isinstance(static, PeriodicSchedule) and static.period == 1
    matchings = build_schedule(parse_config("graph.kind = matchings\ngraph.m = 6\n"))
    assert isinstance(matchings, PeriodicSchedule) and matchings.B == 2
    rand = build_schedule(parse_config("graph.kind = random\ngraph.B = 2\ngraph.seed = 5\n"))
    assert isinstance(rand, RandomSchedule) and rand.B == 2


def test_build_schedule_rejects_bad_requests():
    with pytest.raises(ConfigError, match="B = 2"):
        build_schedule(parse_config("graph.kind = matchings\ngraph.B = 3\n"))
    with pytest.raises(ConfigError, match="graph.B"):
        build_schedule(parse_config("graph.kind = random\n"))
    with pytest.raises(ConfigError, match="graph.path"):
        build_schedule(parse_config("graph.kind = file\n"))


def test_build_schedule_from_matrix_file(tmp_path):
    block = "0.5 0.5\n0.5 0.5\n\n1 0\n0 1\n"
    path = tmp_path / "pair.txt"
    path.write_text(block)
    cfg = parse_config(f"graph.kind = file\ngraph.m = 2\ngraph.path = {path}\n")
    schedule = build_schedule(cfg)
    assert schedule.m == 2 and schedule.B == 2
    cfg.graph_m = 4
    with pytest.raises(ConfigError, match="graph.m"):
        build_schedule(cfg)


def test_build_problem_quadratic_defaults():
    cfg = parse_config("problem.kind = quadratic\nproblem.n = 3\ngraph.m = 4\n")
    objectives, reg, n, provenance = build_problem(cfg)
    assert len(objectives) == 4 and n == 3
    assert all(isinstance(obj, Quadratic) for obj in objectives)
    assert reg == Zero(3)
    assert provenance == {}


def test_build_problem_reg_override_uses_problem_penalties():
    cfg = parse_config(
        "problem.kind = quadratic\nproblem.n = 2\ngraph.m = 3\n"
        "problem.lambda1 = 0.25\nreg.kind = l1\n"
    )
    _objs, reg, _n, _prov = build_problem(cfg)
    assert reg == L1(2, 0.25)


def test_build_problem_sigmoid_splits(tmp_path):
    _write_dataset(tmp_path)
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\ngraph.m = 4\n"
        "problem.lambda1 = 0.01\nproblem.lambda2 = 0.02\n"
    )
    objectives, reg, n, _prov = build_problem(load_config(conf))
    assert n == 6 and len(objectives) == 4
    assert all(isinstance(obj, SigmoidLoss) for obj in objectives)
    assert reg == ElasticNet(6, 0.01, 0.02)


def test_build_problem_subsample_provenance(tmp_path):
    _write_dataset(tmp_path, count=30)
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\n"
        "data.subsample = 10\ngraph.m = 2\nproblem.seed = 5\n"
    )
    _objs, _reg, _n, provenance = build_problem(load_config(conf))
    assert provenance == {
        "samples_total": 30,
        "subsample_seed": 5,
        "samples_used": 10,
    }
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\n"
        "data.subsample = 1000\ngraph.m = 2\n"
    )
    with pytest.raises(ConfigError, match="exceeds"):
        build_problem(load_config(conf))


def _shards(tmp_path, keys):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.kind = sigmoid\ndata.path = data.libsvm\n" + keys)
    objectives, _reg, _n, _prov = build_problem(load_config(conf))
    return [obj.shard for obj in objectives]


def test_build_problem_shards_are_views_of_one_matrix(tmp_path):
    text = _write_dataset(tmp_path, count=30).read_text(encoding="utf-8")
    whole = parse_libsvm(text)
    shards = _shards(tmp_path, "graph.m = 4\nproblem.seed = 5\n")
    matrix = shards[0].features.base
    assert matrix is not None and matrix.shape == whole.features.shape
    for piece, rows in zip(shards, shard_rows(30, 4, 5), strict=True):
        assert piece.features.base is matrix
        assert np.shares_memory(piece.features, matrix)
        assert piece.features.tobytes() == whole.features[rows].tobytes()
        assert piece.labels.tobytes() == whole.labels[rows].tobytes()

    # One agent keeps the file order.
    (single,) = _shards(tmp_path, "graph.m = 1\nproblem.seed = 5\n")
    assert single.features.tobytes() == whole.features.tobytes()
    assert single.labels.tobytes() == whole.labels.tobytes()


def test_build_problem_subsample_is_drawn_in_file_order(tmp_path):
    text = _write_dataset(tmp_path, count=30).read_text(encoding="utf-8")
    expected = shard(subsample(parse_libsvm(text), 12, 5), 3, 5)
    shards = _shards(tmp_path, "data.subsample = 12\ngraph.m = 3\nproblem.seed = 5\n")
    for piece, want in zip(shards, expected, strict=True):
        assert piece.features.tobytes() == want.features.tobytes()
        assert piece.labels.tobytes() == want.labels.tobytes()


def test_run_names_a_data_file_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "data.libsvm"
    data.write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.kind = sigmoid\ndata.path = data.libsvm\n")
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad data file {data}: 'utf-8' codec")


# The sizes below are past the 128 TiB of address space that Linux gives
# a process by default, so the allocation fails before any memory is
# touched.


def test_run_names_a_data_file_too_large_to_load(tmp_path, capsys):
    # A declared dimension of 10^15 asks for a 2 x 10^15 matrix: 14.2 PiB.
    # At 10^19 the shape itself is past numpy's limit.  Either way the
    # config key that asked for it is named, not the well-formed file.
    data = tmp_path / "data.libsvm"
    data.write_text("+1 1:0.5 3:1\n-1 2:1\n")
    conf = tmp_path / "exp.conf"
    for n in (10**15, 10**19):
        conf.write_text(
            "problem.kind = sigmoid\ndata.path = data.libsvm\ngraph.m = 2\n"
            f"data.n_override = {n}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: data.n_override = {n} is too large: "
            f"cannot allocate the (2, {n}) feature matrix"
        ), err
    # Inferred from the file, 100,000 rows of width 2^31 - 1 take 1.5 PiB.
    data.write_text("+1 2147483647:1\n" * 100_000)
    conf.write_text("problem.kind = sigmoid\ndata.path = data.libsvm\n")
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: data file {data} is too large to load")


def test_run_names_a_problem_dimension_too_large(tmp_path, capsys):
    # Each quadratic agent draws an n x n factor: 71.1 PiB at n = 10^8.
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.n = 100000000\n")
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.n = 100000000 is too large")


@pytest.mark.parametrize("command", ["run", "validate-graph"])
@pytest.mark.parametrize("kind", ["complete", "ring", "matchings", "random"])
def test_a_graph_too_large_to_allocate_is_a_config_error(
    tmp_path, capsys, command, kind
):
    # The m x m adjacency mask at m = 10^8 is 8.9 PiB.  It is reported
    # before the malformed data file is read; a random schedule allocates
    # slot 0's mask before drawing anything.
    (tmp_path / "bad.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = bad.libsvm\n"
        f"graph.kind = {kind}\ngraph.m = 100000000\n"
        + ("graph.B = 3\n" if kind == "random" else "")
    )
    assert cli.main([command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: graph.m = 100000000 is too large: "), err


@pytest.mark.parametrize(
    "command, extra", [("run", ""), ("run", "algo.alpha = 0.1\n"), ("lipschitz", "")]
)
def test_an_overflowing_data_file_is_a_config_error(tmp_path, capsys, command, extra):
    # 1e200 squared overflows the sigmoid L to inf.  The data file is blamed,
    # not algo.safety or the step size, and numpy warns of nothing (the
    # suite turns its warnings into errors).
    data = tmp_path / "data.libsvm"
    data.write_text("+1 1:1e200 2:1\n-1 1:0.5\n+1 2:1\n-1 1:1 2:2\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\ngraph.m = 2\n"
        f"output.trace = {tmp_path / 'big.csv'}\n" + extra
    )
    assert cli.main([command, "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: data file {data} gives the non-finite Lipschitz "
        "constant L = inf\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "big.csv").exists()


def test_run_rejects_problem_reg_split_as_an_unknown_key(tmp_path, capsys):
    # The CLI always puts lambda2 ||x||^2 in h; the key is unknown, and the
    # malformed data file is never read.
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "split.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\n"
        "problem.reg_split = h-carries-l2\n"
        f"output.trace = {tmp_path / 'never.csv'}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: line 3: unknown key 'problem.reg_split'\n"
    assert captured.out == ""
    assert not (tmp_path / "never.csv").exists()


def test_build_problem_sigmoid_needs_data():
    with pytest.raises(ConfigError, match="data.path"):
        build_problem(parse_config("problem.kind = sigmoid\n"))


def test_run_writes_trace_and_summary(tmp_path, capsys):
    conf = _quad_config(tmp_path)
    assert cli.main(["run", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "final_D" in out and "comm_steps 55" in out and "wall_time_s" in out
    trace = (tmp_path / "quad.csv").read_text().splitlines()
    assert len(trace) == 12  # header + rows 0..10
    summary = (tmp_path / "quad.summary.txt").read_text()
    assert "final_residual_bound" in summary and "iterations 10" in summary


def test_identical_config_and_seed_reproduce_trace_bytes(tmp_path):
    conf = _quad_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(first)]) == 0
    assert cli.main(["run", "--config", str(conf), "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    reseeded = tmp_path / "seed99.conf"
    reseeded.write_text(conf.read_text().replace("seed = 11", "seed = 99"))
    third = tmp_path / "c.csv"
    assert cli.main(["run", "--config", str(reseeded), "--output", str(third)]) == 0
    assert third.read_bytes() != first.read_bytes()


def test_run_stops_after_the_first_row_below_algo_tol(tmp_path, capsys):
    # An early stop writes the first rows of the full run; tol = 0 never stops.
    full = tmp_path / "full.csv"
    argv = ["run", "--max-iter", "60", "--config"]
    assert cli.main(argv + [str(_quad_config(tmp_path)), "--output", str(full)]) == 0
    full_lines = full.read_text().splitlines()
    assert len(full_lines) == 62
    for tol, iterations in (("1e-3", 49), ("0", 60)):
        conf = _quad_config(tmp_path, extra=f"algo.tol = {tol}\n")
        out = tmp_path / f"tol-{tol}.csv"
        capsys.readouterr()
        assert cli.main(argv + [str(conf), "--output", str(out)]) == 0
        summary = capsys.readouterr().out
        assert f"iterations {iterations}\n" in summary
        stopped = "true" if iterations < 60 else "false"
        assert f"stopped_early {stopped}\n" in summary
        assert out.read_text().splitlines() == full_lines[: iterations + 2]


def test_output_dir_env_relocates_relative_paths(tmp_path, monkeypatch, capsys):
    conf = _quad_config(tmp_path)
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "elsewhere"))
    assert cli.main(["run", "--config", str(conf), "--output", "rel/t.csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "elsewhere" / "rel" / "t.csv").is_file()
    # absolute paths are left alone
    target = tmp_path / "abs.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(target)]) == 0
    capsys.readouterr()
    assert target.is_file()


def test_run_rejects_unusable_output_path_before_solving(tmp_path, capsys):
    conf = _quad_config(tmp_path)
    blocker = tmp_path / "plain.txt"
    blocker.write_text("a regular file\n")
    directory = tmp_path / "out"
    directory.mkdir()
    for output in (blocker / "t.csv", directory):
        assert cli.main(["run", "--config", str(conf), "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "out",
        "plain.txt",
        "quad.conf",
    ]
    assert not any(directory.iterdir())


def test_run_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("no.such.key = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    conf = _quad_config(tmp_path, extra="algo.alpha = 1.0\n")
    assert cli.main(["run", "--config", str(conf)]) == 3
    assert "step-size" in capsys.readouterr().err

    for value in ("0", "-1"):
        conf = _quad_config(tmp_path, extra=f"algo.alpha = {value}\n")
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err
    # --max-iter is checked like the config key it replaces.
    conf = _quad_config(tmp_path)
    assert cli.main(["run", "--config", str(conf), "--max-iter", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_non_finite_values_before_solving(tmp_path, capsys):
    trace = tmp_path / "quad.csv"
    for extra in (
        "problem.lambda1 = inf\n",
        "problem.lambda2 = nan\n",
        "algo.init = gaussian\nalgo.init_scale = inf\n",
    ):
        conf = _quad_config(tmp_path, extra=extra)
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not trace.exists()
    # A one-sided box keeps its infinite bound and runs.
    for lo, hi in (("-inf", "0.5"), ("-0.5", "inf")):
        conf = tmp_path / "box.conf"
        conf.write_text(
            f"problem.n = 3\ngraph.m = 4\nalgo.max_iter = 10\nreg.kind = box\n"
            f"reg.lo = {lo}\nreg.hi = {hi}\noutput.trace = {trace}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 0
        assert trace.exists()
        trace.unlink()


def test_run_reports_schedule_error_before_reading_data(tmp_path, capsys):
    # The schedule is built first, so a bad graph section is reported
    # before a malformed data file is parsed.
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\n"
        "graph.kind = random\ngraph.m = 2\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert "graph.B" in err and "data file" not in err


def test_run_rejects_overrides_before_reading_data(tmp_path, capsys):
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text("problem.kind = sigmoid\ndata.path = data.libsvm\n")
    assert cli.main(["run", "--config", str(conf), "--max-iter", "-1"]) == 2
    err = capsys.readouterr().err
    assert "algo.max_iter" in err and "data file" not in err


@pytest.mark.parametrize("setting", ["problem.seed", "graph.seed", "algo.seed"])
def test_run_rejects_a_negative_seed_before_reading_data(tmp_path, capsys, setting):
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"problem.kind = sigmoid\ndata.path = data.libsvm\n{setting} = -1\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {setting} must be >= 0, got -1")
    assert "data file" not in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("algo.alpha = inf", "algo.alpha must be finite, got inf"),
        (
            "algo.alpha = nan",
            "line 3: bad value for algo.alpha: expected a number, got 'nan'",
        ),
        # A subnormal step is finite, but its reciprocal is not.
        (
            "algo.alpha = 5e-324",
            "algo.alpha must be positive with a finite reciprocal, got 5e-324",
        ),
        (
            "algo.alpha = 1e-320",
            "algo.alpha must be positive with a finite reciprocal, got 1e-320",
        ),
    ],
)
def test_run_rejects_a_non_finite_alpha_before_reading_data(
    tmp_path, capsys, setting, message
):
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(f"problem.kind = sigmoid\ndata.path = data.libsvm\n{setting}\n")
    assert cli.main(["run", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "setting, message",
    [
        ("algo.early_stop = true", "line 3: unknown key 'algo.early_stop'"),
        ("algo.tol = inf", "algo.tol must be finite, got inf"),
        ("algo.tol = -1", "algo.tol must be >= 0.0, got -1.0"),
    ],
)
def test_run_rejects_a_bad_stop_rule_before_reading_data(
    tmp_path, capsys, setting, message
):
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"problem.kind = sigmoid\ndata.path = data.libsvm\n{setting}\n"
        f"output.trace = {tmp_path / 'never.csv'}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("lo, hi", [("1", "1"), ("2", "-inf")])
def test_run_rejects_an_empty_box_before_reading_data(tmp_path, capsys, lo, hi):
    (tmp_path / "data.libsvm").write_text("1 1:0.5\nbad 1:0.5\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\n"
        f"reg.kind = box\nreg.lo = {lo}\nreg.hi = {hi}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: reg.lo = ") and "reg.hi = " in err
    assert "need lo < hi" in err and "data file" not in err


def test_run_reports_disconnected_schedule(tmp_path, capsys):
    # Agent 2 has no edge in the file's only matrix, so the very first
    # window is disconnected; run stops before iterating, with exit 2.
    matrix = tmp_path / "isolated.txt"
    matrix.write_text("0.5 0.5 0\n0.5 0.5 0\n0 0 1\n")
    conf = tmp_path / "lonely.conf"
    conf.write_text(
        f"problem.kind = quadratic\ngraph.kind = file\ngraph.m = 3\n"
        f"graph.path = {matrix}\noutput.trace = {tmp_path / 'never.csv'}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert "schedule error" in err and "slot 0" in err
    assert not (tmp_path / "never.csv").exists()


def test_run_with_overflowing_geometric_constants(tmp_path, capsys):
    # At m = 1000 on matchings, eta^(-B0) = 2^1998 exceeds the float range:
    # Gamma is inf, the envelope reads inf and every other column is finite.
    conf = tmp_path / "wide.conf"
    conf.write_text("graph.kind = matchings\ngraph.m = 1000\nalgo.max_iter = 2\n")
    out = tmp_path / "wide.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(out)]) == 0
    capsys.readouterr()
    header, *lines = out.read_text().splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines]
    assert len(rows) == 3
    for row in rows:
        for name, value in row.items():
            if name == "geo_bound" and row["k"] >= 1:
                assert value == math.inf
            else:
                assert math.isfinite(value), name


def test_run_with_an_envelope_past_the_float_range(tmp_path, capsys):
    # At m = 510 on matchings Gamma = 5.6e306 is finite, but the envelope
    # 2 Gamma gamma^k sum_j ||q_j|| overflows: it reads inf, and the run
    # is not a numerical fault.
    conf = tmp_path / "wide.conf"
    conf.write_text("graph.kind = matchings\ngraph.m = 510\nalgo.max_iter = 1\n")
    out = tmp_path / "wide.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(out)]) == 0
    capsys.readouterr()
    header, _, last = out.read_text().splitlines()
    assert dict(zip(header.split(","), last.split(",")))["geo_bound"] == "inf"


@pytest.mark.parametrize(
    "scale, what",
    # 1e300 is a finite start whose certificates overflow; 1.7e308 times a
    # normal draw overflows the start itself.
    [("1e300", "trace column f_avg"), ("1.7e308", "initial point at agent ")],
)
def test_run_reports_an_overflowing_start_at_iteration_0(tmp_path, capsys, scale, what):
    conf = _quad_config(
        tmp_path, extra=f"algo.init = gaussian\nalgo.init_scale = {scale}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"numerical fault at iteration 0: non-finite {what}"
    ), captured.err
    assert captured.out == ""
    assert not (tmp_path / "quad.csv").exists()
    assert not (tmp_path / "quad.fault.npz").exists()


@pytest.mark.parametrize(
    "text",
    [
        # The zero start lies outside the box; so does most of a normal draw.
        "problem.n = 3\ngraph.m = 4\nreg.lo = 0.5\nreg.hi = 1.0\n",
        "problem.n = 3\ngraph.m = 4\nreg.lo = 0.5\nreg.hi = 1.0\n"
        "algo.init = gaussian\n",
        # Means of m = 10 agents on the bound 1e6 + 0.1 round off it by more
        # than an absolute slack of 1e-12.
        "problem.n = 3\ngraph.kind = matchings\ngraph.m = 10\n"
        "reg.lo = 1000000.1\nreg.hi = 2000000\nalgo.max_iter = 20\n",
    ],
    ids=["zero-start", "gaussian-start", "far-bound"],
)
def test_run_on_a_box_that_excludes_the_start(tmp_path, capsys, text):
    # F is +inf at an infeasible start, so row 0 reads inf; every later
    # mean iterate is a mean of prox outputs, inside the box.
    conf = tmp_path / "box.conf"
    conf.write_text("problem.kind = quadratic\nreg.kind = box\n" + text)
    out = tmp_path / "box.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(out)]) == 0
    capsys.readouterr()
    header, *lines = out.read_text().splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines]
    assert rows[0]["f_avg"] == math.inf
    for row in rows[1:]:
        for name, value in row.items():
            assert math.isfinite(value) or name == "eps", (row["k"], name)


@pytest.mark.parametrize("command", ["run", "lipschitz"])
def test_a_subnormal_safety_is_a_config_error(tmp_path, capsys, command):
    # 5e-324 / L rounds to 0 and 1e-320 / L to a subnormal whose reciprocal
    # overflows: the automatic step is rejected with the key that caused
    # it, not as a step size the user never set or as a numerical fault.
    for safety in ("5e-324", "1e-320"):
        conf = _quad_config(tmp_path, extra=f"algo.safety = {safety}\n")
        objectives, _reg, _n, _prov = build_problem(load_config(conf))
        lipschitz = max(obj.lipschitz() for obj in objectives)
        step = float(safety) / lipschitz
        assert cli.main([command, "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: algo.safety = {safety} gives the automatic step "
            f"{step!r} at L = {lipschitz!r}; it and its reciprocal must be "
            "finite and positive\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "quad.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate-graph"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("0.5 0.5 0\n0.5 0.5 0\n", "weight matrix must be square, got shape (2, 3)"),
        ("nan 1\n1 nan\n", "weight matrix has non-finite entries"),
        ("1.5 -0.5\n-0.5 1.5\n", "weight matrix has negative entries"),
        ("0.5 0.5\n0.4 0.6\n", "weight matrix is not symmetric"),
        (
            "0.5 0.4\n0.4 0.5\n",
            "weight matrix is not doubly stochastic "
            "(row error 1.000e-01, column error 1.000e-01)",
        ),
        (
            "0.5 0.5\n0.5 0.5\n\n1 0 0\n0 1 0\n0 0 1\n",
            "matrices disagree on agent count: [2, 3]",
        ),
    ],
)
def test_bad_graph_files_are_config_errors(tmp_path, capsys, command, text, message):
    (tmp_path / "g.txt").write_text(text)
    conf = tmp_path / "g.conf"
    conf.write_text(
        f"graph.kind = file\ngraph.path = g.txt\ngraph.m = 2\n"
        f"output.trace = {tmp_path / 'g.csv'}\n"
    )
    assert cli.main([command, "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: bad graph file: {message}\n"
    assert captured.out == ""


def test_run_reports_numerical_fault_iteration(tmp_path, monkeypatch, capsys):
    # The NaN is injected where the run evaluates gradients: the agent
    # family, whose batched route calls no Quadratic.grad.
    conf = _quad_config(tmp_path)
    family_grad = AgentFamily.grad

    def bad_grad(self, x_all):
        grads = family_grad(self, x_all)
        grads[2:, 1] = np.nan
        return grads

    monkeypatch.setattr(AgentFamily, "grad", bad_grad)
    assert cli.main(["run", "--config", str(conf)]) == 4
    err = capsys.readouterr().err
    assert "numerical fault at iteration 1" in err
    assert "non-finite gradient at agent 2" in err


@pytest.mark.parametrize(
    "first_bad_call, agent, message",
    # Each iteration makes one solver gradient call, then two for e.
    [
        (7, 2, "non-finite gradient at agent 2"),
        (8, -1, "non-finite trace column e_norm"),
    ],
    ids=["gradient", "trace-column"],
)
def test_a_fault_leaves_its_rows_and_state(
    tmp_path, monkeypatch, capsys, first_bad_call, agent, message
):
    # Call 7 is iteration 3's gradient step and call 8 its first gradient
    # for e.  Either way rows 0-2 are written, and the state is the iterate
    # that a clean two-iteration run ends at.
    conf = _quad_config(tmp_path)
    clean = tmp_path / "clean.csv"
    finals = []

    def keeping_run(setup):
        finals.append(run(setup))
        return finals[-1]

    monkeypatch.setattr(cli, "run", keeping_run)
    argv = ["run", "--config", str(conf), "--max-iter", "2", "--output", str(clean)]
    assert cli.main(argv) == 0
    family_grad, calls = AgentFamily.grad, []

    def bad_grad(self, x_all):
        grads = family_grad(self, x_all)
        calls.append(None)
        if len(calls) >= first_bad_call:
            grads[2:, 1] = np.nan
        return grads

    monkeypatch.setattr(AgentFamily, "grad", bad_grad)
    assert cli.main(["run", "--config", str(conf)]) == 4
    captured = capsys.readouterr()
    assert f"numerical fault at iteration 3: {message}" in captured.err
    rows = (tmp_path / "quad.csv").read_bytes()
    assert rows == clean.read_bytes() and rows.count(b"\n") == 1 + 3
    assert not (tmp_path / "quad.summary.txt").exists()
    with np.load(tmp_path / "quad.fault.npz") as state:
        assert (state["iteration"], state["agent"]) == (3, agent)
        assert np.array_equal(state["x"], finals[0].final_x)


def test_run_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    # 200 agents with n = 20: one copy of x, q and v is 96 KB, so a copy
    # kept per iteration would add 4.8 MB from T = 10 to T = 60.
    conf = tmp_path / "m200.conf"
    conf.write_text(
        "problem.kind = quadratic\nproblem.n = 20\nproblem.lambda1 = 0.05\n"
        "reg.kind = l1\ngraph.kind = matchings\ngraph.m = 200\n"
        f"algo.init = gaussian\noutput.trace = {tmp_path / 'm200.csv'}\n"
    )
    peaks = {}
    for horizon in (1, 10, 60):  # the first run only warms up
        tracemalloc.start()
        try:
            argv = ["run", "--config", str(conf), "--max-iter", str(horizon)]
            assert cli.main(argv) == 0
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert abs(peaks[60] - peaks[10]) < 2**20, peaks


def test_validate_graph_verdicts(tmp_path, capsys):
    good = tmp_path / "good.conf"
    good.write_text("graph.kind = matchings\ngraph.m = 6\n")
    assert cli.main(["validate-graph", "--config", str(good)]) == 0
    assert "valid" in capsys.readouterr().out

    matrix = tmp_path / "isolated.txt"
    matrix.write_text("0.5 0.5 0\n0.5 0.5 0\n0 0 1\n")
    lonely = tmp_path / "lonely.conf"
    lonely.write_text(
        f"graph.kind = file\ngraph.m = 3\ngraph.path = {matrix}\n"
    )
    assert cli.main(["validate-graph", "--config", str(lonely)]) == 1
    assert "disconnected" in capsys.readouterr().out

    assert cli.main(["validate-graph", "--config", str(tmp_path / "nope.conf")]) == 2


def test_validate_graph_accepts_a_random_config(tmp_path, capsys):
    conf = tmp_path / "random.conf"
    conf.write_text("graph.kind = random\ngraph.m = 6\ngraph.B = 3\n")
    assert cli.main(["validate-graph", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert out == "valid: every window of B=3 slots connects all agents\n"


def test_run_random_schedule_passes_validation(tmp_path, capsys):
    # One spanning tree per B-window at a fixed position keeps every
    # sliding window connected, so the run's own validation accepts it.
    conf = tmp_path / "random.conf"
    conf.write_text(
        "problem.kind = quadratic\nproblem.n = 3\ngraph.kind = random\n"
        "graph.m = 10\ngraph.B = 3\nalgo.max_iter = 90\n"
    )
    out = tmp_path / "random-trace.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(out)]) == 0
    assert "iterations 90" in capsys.readouterr().out


def test_a_bad_window_is_rejected_before_a_short_run_reaches_it(tmp_path, capsys):
    # Slots cycle a, b, a with B = 2: only the window (2, 0), which crosses
    # the end of the period, misses the edge (1, 2).  One iteration reads
    # slot 0 alone, but the schedule is judged whole.
    a = "0.5 0.5 0\n0.5 0.5 0\n0 0 1\n"
    b = "1 0 0\n0 0.5 0.5\n0 0.5 0.5\n"
    matrix = tmp_path / "wrap.txt"
    matrix.write_text("\n".join([a, b, a]))
    conf = tmp_path / "wrap.conf"
    conf.write_text(
        f"graph.kind = file\ngraph.m = 3\ngraph.B = 2\ngraph.path = {matrix}\n"
        f"algo.max_iter = 1\noutput.trace = {tmp_path / 'never.csv'}\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schedule error: ") and "starting at slot 2 " in err
    assert not (tmp_path / "never.csv").exists()
    assert cli.main(["validate-graph", "--config", str(conf)]) == 1


@pytest.mark.parametrize("command", ["run", "validate-graph"])
@pytest.mark.parametrize(
    "rows", [["0 .5 0 .5", ".5 0 .5 0", "0 .5 0 .5", ".5 0 .5 0"], ["0 1", "1 0"]]
)
def test_a_slot_without_self_weights_is_a_config_error(tmp_path, capsys, command, rows):
    # Both matrices are symmetric and doubly stochastic with eigenvalue -1:
    # the agents never agree, and the envelope's constants assume w_ii > 0.
    matrix = tmp_path / "swap.txt"
    matrix.write_text("\n".join(rows) + "\n")
    conf = tmp_path / "swap.conf"
    conf.write_text(
        "problem.kind = quadratic\nproblem.n = 3\ngraph.kind = file\n"
        f"graph.m = {len(rows)}\ngraph.path = {matrix}\nalgo.init = gaussian\n"
        f"algo.max_iter = 250\noutput.trace = {tmp_path / 'never.csv'}\n"
    )
    assert cli.main([command, "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: bad graph file: weight matrix gives agent 0 the "
        "self-weight 0.0; every self-weight must be positive\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "never.csv").exists()


def test_lipschitz_prints_constants_and_recommendation(tmp_path, capsys):
    conf = _quad_config(tmp_path)
    assert cli.main(["lipschitz", "--config", str(conf)]) == 0
    out = capsys.readouterr().out.splitlines()
    agents = [line for line in out if line.startswith("agent ")]
    assert len(agents) == 4
    objectives, _reg, _n, _prov = build_problem(load_config(conf))
    expected = max(obj.lipschitz() for obj in objectives)
    assert f"global L {expected!r}" in out
    assert f"recommended alpha {0.9 / expected!r}" in out


def test_lipschitz_known_quadratic(monkeypatch, tmp_path, capsys):
    # a lone diag(1, 2) quadratic must print L = 2 and alpha = 0.45
    conf = _quad_config(tmp_path)
    single = [Quadratic(np.diag([1.0, 2.0]), np.zeros(2))]
    monkeypatch.setattr(
        cli, "build_problem", lambda cfg: (single, Zero(2), 2, {})
    )
    assert cli.main(["lipschitz", "--config", str(conf)]) == 0
    values = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, number = line.rpartition(" ")
        values[label] = float(number)
    # the spectral norm comes from power iteration, exact to 1e-8 relative
    assert values["global L"] == pytest.approx(2.0, rel=1e-6)
    assert values["recommended alpha"] == pytest.approx(0.45, rel=1e-6)


def test_lipschitz_rejects_empty_shards(tmp_path, capsys):
    _write_dataset(tmp_path, count=2, n=4)
    conf = tmp_path / "thin.conf"
    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\ngraph.m = 10\n"
    )
    assert cli.main(["lipschitz", "--config", str(conf)]) == 2
    assert "config error" in capsys.readouterr().err


_TINY_LIBSVM = (
    "+1 1:0.5 3:-1\n-1 2:1\n+1 1:-0.25 2:0.5\n-1 3:2\n"
    "+1 2:-1 3:0.5\n-1 1:1\n+1 3:1\n-1 1:0.5 2:0.5\n"
)


def _choices(key, leave_out=()):
    choices = cli._FIELDS[key].metadata["choices"]
    return st.sampled_from([choice for choice in choices if choice not in leave_out])


def _from_bound(key, top):
    return st.integers(cli._FIELDS[key].metadata["at_least"], top)


# Every key but the paths, drawn from the values that it accepts on its
# own, at small sizes: m <= 6, n <= 3 and T <= 3 over the 8 rows of
# _TINY_LIBSVM.  Floats take any value but nan, as the parser does, and
# finite keys any finite value.  What remains to reject relates two keys
# or the data.
_ANY_FLOAT = st.floats(allow_nan=False)
_SMALL_CONFIGS = st.fixed_dictionaries(
    {
        "problem_kind": _choices("problem.kind"),
        "problem_n": _from_bound("problem.n", 3),
        "problem_seed": _from_bound("problem.seed", 3),
        "problem_lambda1": st.floats(0.0, 1e3),
        "problem_lambda2": st.floats(0.0, 1e3),
        "data_subsample": st.none() | _from_bound("data.subsample", 10),
        "data_n_override": st.none() | _from_bound("data.n_override", 4),
        "reg_kind": st.none() | _choices("reg.kind"),
        "reg_lo": st.one_of(st.floats(-2.0, 2.0), _ANY_FLOAT),
        "reg_hi": st.one_of(st.floats(-2.0, 2.0), _ANY_FLOAT),
        "graph_kind": _choices("graph.kind", leave_out=("file",)),
        "graph_m": _from_bound("graph.m", 6),
        "graph_B": st.none() | _from_bound("graph.B", 4),
        "graph_seed": _from_bound("graph.seed", 3),
        "algo_alpha": st.just("auto") | st.floats(0.0, 1e3, exclude_min=True),
        "algo_safety": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "algo_max_iter": _from_bound("algo.max_iter", 3),
        "algo_tol": st.none() | st.floats(0.0, allow_infinity=False),
        "algo_init": _choices("algo.init"),
        "algo_init_scale": st.floats(allow_nan=False, allow_infinity=False),
        "algo_seed": _from_bound("algo.seed", 3),
        "output_snapshot_every": _from_bound("output.snapshot_every", 4),
    }
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "tiny.libsvm").write_text(_TINY_LIBSVM)
    return path


@settings(max_examples=100, deadline=None)
@given(values=_SMALL_CONFIGS)
def test_small_configs_run_or_exit_with_their_code(fuzz_dir, values):
    trace = str(fuzz_dir / "trace.csv")
    cfg = ExperimentConfig(data_path="tiny.libsvm", output_trace=trace, **values)
    conf = fuzz_dir / "exp.conf"
    conf.write_text(dump_config(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(conf)])
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ")


def test_entrypoint_raises_system_exit(tmp_path):
    conf = tmp_path / "empty.conf"
    conf.write_text("graph.m = 0\n")
    with pytest.raises(SystemExit):
        import sys

        old = sys.argv
        sys.argv = ["proxnet", "validate-graph", "--config", str(conf)]
        try:
            cli.entrypoint()
        finally:
            sys.argv = old


# A seed-0 run of the shipped data on a random schedule, recorded by
# `proxnet run` with this config; no benchmark workload runs a random
# schedule.  T = 3 because eps is rounding noise from k = 4 on (about
# 2e-18), and its square root in residual_bound then moves by about 1e-9
# with the BLAS build, past the benchmark's tolerance used here.
RANDOM_CONFIG = """\
problem.kind = sigmoid
problem.lambda1 = 5e-4
problem.lambda2 = 5e-4
data.path = {data}
data.n_override = 123
graph.kind = random
graph.m = 10
graph.B = 3
graph.seed = 0
algo.alpha = auto
algo.safety = 0.9
algo.max_iter = 3
"""


def test_random_schedule_run_matches_its_recorded_trace(tmp_path, capsys):
    data = Path(__file__).parents[1] / "data" / "synthetic.libsvm"
    conf = tmp_path / "random.conf"
    conf.write_text(RANDOM_CONFIG.format(data=data))
    out = tmp_path / "random.csv"
    assert cli.main(["run", "--config", str(conf), "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    recorded = Path(__file__).with_name("random_b3_trace.csv").read_text()
    expected = [line.split(",") for line in recorded.splitlines()]
    assert rows[0] == expected[0] and len(rows) == len(expected) == 5
    for row, ref in zip(rows[1:], expected[1:]):
        for name, value, want in zip(rows[0], map(float, row), map(float, ref)):
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (row[0], name)
