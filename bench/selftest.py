"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

They start real `proxnet run` processes and take about a minute.  The
file name keeps them out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from check import REL_TOL, check_trace  # noqa: E402
from run import END_TO_END, child_env, one_run  # noqa: E402
from tracer import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import A9A_CONFIG, WORKLOADS, a9a_libsvm, covtype_libsvm  # noqa: E402

MAX_ITER = {"a9a-matchings": 300, "covtype-shaped": 10, "m200-matchings": 50}
# trace_bytes comes from the trace CSV, which the test compares byte for byte.
COUNT_METRICS = [
    name
    for name, unit in LAYER_UNITS.items()
    if unit in ("count", "bytes") and name != "diagnostics.trace_bytes"
]


def _reference(workload: str) -> str:
    return (BENCH / "reference" / f"{workload}.csv").read_text(encoding="utf-8")


def _config_keys(text: str) -> dict[str, str]:
    pairs = (
        line.split("=", 1)
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )
    return {key.strip(): value.strip() for key, value in pairs}


def test_default_seed_reproduces_shipped_data():
    shipped = (ROOT / "data" / "synthetic.libsvm").read_text(encoding="utf-8")
    assert a9a_libsvm(0) == shipped


def test_a9a_config_matches_shipped_config():
    shipped = _config_keys(
        (ROOT / "configs" / "sigmoid-synthetic.conf").read_text(encoding="utf-8")
    )
    ours = _config_keys(A9A_CONFIG)
    assert shipped.pop("data.path") == "../data/synthetic.libsvm"
    assert ours.pop("data.path") == "{data}"
    assert ours == shipped


def test_covtype_rows_have_covtype_shape():
    text = covtype_libsvm(500, seed=3)
    assert text == covtype_libsvm(500, seed=3)
    assert text != covtype_libsvm(500, seed=4)
    lines = text.splitlines()
    assert len(lines) == 500
    for line in lines:
        label, *entries = line.split()
        columns = [int(entry.split(":")[0]) for entry in entries]
        assert label in ("1", "2")
        assert columns[:10] == list(range(1, 11))
        assert 11 <= columns[10] <= 14 and 15 <= columns[11] <= 54
        assert all(float(entry.split(":")[1]) != 0.0 for entry in entries)


@pytest.mark.parametrize("workload", sorted(MAX_ITER))
def test_check_accepts_reference_and_rounding_changes(workload):
    reference = _reference(workload)
    assert check_trace(reference, MAX_ITER[workload], reference) == []
    lines = reference.splitlines()
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-13))
    lines[3] = ",".join(fields)
    assert check_trace("\n".join(lines) + "\n", MAX_ITER[workload], reference) == []


def _perturb(text: str, row: int, column: int, new) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = new(fields[column]) if callable(new) else new
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


PERTURBATIONS = {
    "f_avg off by 100 x tolerance": lambda t: _perturb(
        t, 5, 2, lambda v: repr(float(v) + 100 * REL_TOL * max(1.0, abs(float(v))))
    ),
    "residual bound off by 1e-6": lambda t: _perturb(
        t, 9, 7, lambda v: repr(float(v) * (1 + 1e-6) + 1e-6)
    ),
    "comm_cumulative miscounted": lambda t: _perturb(t, 4, 1, "11"),
    "row missing": lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
    "D not finite": lambda t: _perturb(t, 2, 3, "inf"),
    "nan outside eps": lambda t: _perturb(t, 2, 4, "nan"),
    "eps lost": lambda t: _perturb(t, 6, 6, "nan"),
    "header changed": lambda t: t.replace("geo_bound", "geo", 1),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_trace(name):
    reference = _reference("covtype-shaped")
    perturbed = PERTURBATIONS[name](reference)
    assert check_trace(perturbed, 10, reference) != []


def test_structural_check_without_reference():
    text = _reference("m200-matchings")
    assert check_trace(text, 50) == []
    assert check_trace(text, 49) != []
    assert check_trace(_perturb(text, 7, 1, "27"), 50) != []


def test_self_time_subtracts_children():
    spans = [
        ["solver.run", 0.0, 10.0, -1, 0],
        ["graphs.validate", 1.0, 4.0, 0, 0],
        ["graphs.slot_matrix", 2.0, 3.0, 1, 0],
        ["solver.gradient_step", 5.0, 7.0, 0, 0],
        ["objectives.grad", 5.5, 6.0, 3, 0],
        ["diagnostics.e", 7.0, 9.0, 0, 0],
        ["objectives.grad", 7.0, 7.5, 5, 0],
        ["objectives.grad", 7.1, 7.2, 6, 0],  # a wrapper delegating to its base
        ["objectives.grad", 8.0, 8.5, 5, 0],
    ]
    metrics = layer_metrics(spans)
    assert metrics["solver.run_self_s"] == pytest.approx(3.0)
    assert metrics["graphs.validate_s"] == pytest.approx(2.0)
    assert metrics["graphs.slot_matrix_s"] == pytest.approx(1.0)
    assert metrics["solver.gradient_step_s"] == pytest.approx(1.5)
    assert metrics["objectives.grad_s"] == pytest.approx(1.5)
    assert metrics["diagnostics.e_s"] == pytest.approx(1.0)
    assert metrics["graphs.validate_slots"] == 1
    assert metrics["objectives.grad_calls.solver"] == 1
    assert metrics["objectives.grad_calls.diagnostics"] == 2


def test_missing_names_are_reported_absent():
    tracer = Tracer()
    tracer.install(
        [("proxnet.cli", "no_such_function", "cli.gone")],
        [("proxnet.objectives", "no_such_method", "objectives.gone")],
    )
    assert tracer.absent == [
        "proxnet.cli.no_such_function",
        "proxnet.objectives.*.no_such_method",
    ]
    metrics = layer_metrics([])
    assert set(metrics) == set(LAYER_UNITS) - {"diagnostics.trace_bytes", "trace.overhead_s"}
    assert not any(metrics.values())


@pytest.mark.parametrize("workload", sorted(MAX_ITER))
def test_tracing_repeats_counts_and_changes_no_output(workload, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(WORKLOADS[workload](0, tmp_path), encoding="utf-8")
    env = child_env()
    runs = [one_run(tmp_path, config, i, i > 0, env, timeout=120) for i in range(3)]
    for outcome in runs:
        assert not isinstance(outcome, str), outcome
    (_, plain), (first, first_csv), (second, second_csv) = runs
    reference = _reference(workload)
    assert check_trace(plain, MAX_ITER[workload], reference) == []
    assert first_csv == plain and second_csv == plain
    assert first["absent"] == [] and second["absent"] == []
    a, b = layer_metrics(first["spans"]), layer_metrics(second["spans"])
    for name in COUNT_METRICS:
        assert a[name] == b[name], name
    assert a["objectives.grad_calls.diagnostics"] == 2 * a["objectives.grad_calls.solver"]
    assert a["solver.iterations"] == MAX_ITER[workload]


def test_result_line_names_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "covtype-shaped",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layer_units
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    assert set(record["end_to_end"]) == e2e_names == set(END_TO_END)


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "a9a-matchings",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
