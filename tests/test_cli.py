"""Config grammar, builders, subcommands, exit codes."""

import math

import numpy as np
import pytest

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
from proxnet.graphs import PeriodicSchedule, RandomSchedule
from proxnet.objectives import (
    Quadratic,
    SigmoidLoss,
    WithSquaredL2,
    serialize_libsvm,
    synthetic_classification,
)
from proxnet.regularizers import Box, ElasticNet, L1, Zero

FULL_CONFIG = """\
# every key exercised once
problem.kind = sigmoid
problem.n = 7
problem.seed = 3
problem.lambda1 = 0.001
problem.lambda2 = 0.002
problem.reg_split = g-carries-l2
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
algo.early_stop = true
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
    assert cfg.alpha == 0.05
    assert cfg.early_stop is True
    assert cfg.graph_b == 3


def test_config_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.alpha == "auto"
    assert cfg.lambda1 == 5e-4 and cfg.lambda2 == 5e-4


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
        ("algo.early_stop = maybe\n", "bad value", 3),
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
    ],
)
def test_config_validation_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


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
    assert isinstance(reg, Zero)
    assert provenance == {}


def test_build_problem_reg_override_uses_problem_penalties():
    cfg = parse_config(
        "problem.kind = quadratic\nproblem.n = 2\ngraph.m = 3\n"
        "problem.lambda1 = 0.25\nreg.kind = l1\n"
    )
    _objs, reg, _n, _prov = build_problem(cfg)
    assert isinstance(reg, L1) and reg.lam1 == 0.25


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
    assert isinstance(reg, ElasticNet) and reg.lam1 == 0.01 and reg.lam2 == 0.02

    conf.write_text(
        "problem.kind = sigmoid\ndata.path = data.libsvm\ngraph.m = 4\n"
        "problem.reg_split = g-carries-l2\nproblem.lambda2 = 0.02\n"
    )
    objectives, reg, _n, _prov = build_problem(load_config(conf))
    assert all(isinstance(obj, WithSquaredL2) for obj in objectives)
    assert objectives[0].lam2 == 0.02
    assert isinstance(reg, L1)


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
    third = tmp_path / "c.csv"
    assert cli.main(
        ["run", "--config", str(conf), "--output", str(third), "--seed", "99"]
    ) == 0
    assert third.read_bytes() != first.read_bytes()


def test_seed_flag_overrides_every_seed():
    cfg = parse_config("problem.seed = 1\ngraph.seed = 2\nalgo.seed = 3\n")

    class Args:
        seed = 77
        output = None
        max_iter = 4
        alpha = "0.01"

    cli._apply_overrides(cfg, Args)
    assert (cfg.problem_seed, cfg.graph_seed, cfg.algo_seed) == (77, 77, 77)
    assert cfg.max_iter == 4 and cfg.alpha == 0.01


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

    conf = _quad_config(tmp_path)
    assert cli.main(["run", "--config", str(conf), "--alpha", "1.0"]) == 3
    assert "step-size" in capsys.readouterr().err

    # Overrides are checked like the config keys they replace.
    for flag, value in (("--alpha", "0"), ("--alpha", "-1"), ("--max-iter", "-1")):
        assert cli.main(["run", "--config", str(conf), flag, value]) == 2
        assert "config error" in capsys.readouterr().err


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


def test_run_reports_numerical_fault_iteration(tmp_path, monkeypatch, capsys):
    conf = _quad_config(tmp_path)

    def bad_grad(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    monkeypatch.setattr(Quadratic, "grad", bad_grad)
    assert cli.main(["run", "--config", str(conf)]) == 4
    err = capsys.readouterr().err
    assert "numerical fault at iteration 1" in err


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


def test_validate_graph_horizon_flag(tmp_path, capsys):
    conf = tmp_path / "ring.conf"
    conf.write_text("graph.kind = ring\ngraph.m = 5\n")
    assert cli.main(["validate-graph", "--config", str(conf), "--horizon", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["validate-graph", "--config", str(conf), "--horizon", "3"]) == 0


@pytest.mark.parametrize("kind", ["zero", "l1", "squared-l2", "elastic-net", "box"])
def test_prox_check_passes_each_kind(kind, capsys):
    code = cli.main(["prox-check", "--kind", kind, "--trials", "60", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"kind={kind}" in out and "max_deviation=" in out


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
