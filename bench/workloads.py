"""The benchmark's workloads: seeded inputs and the config each run receives.

Every workload writes its inputs into a work directory and returns the
config text that `proxnet run` gets.  The same seed gives the same bytes;
the program sees only the generated files.  Why each workload exists is in
bench/README.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# configs/sigmoid-synthetic.conf without its comments; only data.path is
# filled in per run.  Kept here rather than read from configs/ so that an
# edit to the shipped config cannot silently change the workload.
A9A_CONFIG = """\
problem.kind = sigmoid
problem.lambda1 = 5e-4
problem.lambda2 = 5e-4
data.path = {data}
data.n_override = 123
graph.kind = matchings
graph.m = 10
algo.alpha = auto
algo.safety = 0.9
algo.max_iter = 300
output.trace = sigmoid-trace.csv
output.snapshot_every = 10
"""

# The configs/covtype.conf keys with a generated data file and a short horizon.
COVTYPE_CONFIG = """\
problem.kind = sigmoid
problem.lambda1 = 5e-4
problem.lambda2 = 5e-4
data.path = {data}
data.n_override = 54
graph.kind = matchings
graph.m = 10
algo.alpha = auto
algo.safety = 0.9
algo.max_iter = 10
output.trace = covtype-trace.csv
output.snapshot_every = 10
"""

M200_CONFIG = """\
problem.kind = quadratic
problem.n = 20
problem.seed = {seed}
problem.lambda1 = 0.05
problem.lambda2 = 0.0
reg.kind = l1
graph.kind = matchings
graph.m = 200
algo.alpha = auto
algo.max_iter = 50
algo.init = gaussian
algo.init_scale = 1.0
algo.seed = {seed}
output.trace = m200-trace.csv
"""

COVTYPE_ROWS = 100_000
COVTYPE_CONTINUOUS = 10
COVTYPE_WILDERNESS = 4
COVTYPE_SOIL = 40


def a9a_libsvm(seed: int) -> str:
    """The a9a-shaped data set; seed 0 is data/synthetic.libsvm byte for byte."""
    from proxnet.objectives import (
        A9A_GROUP_SIZES,
        serialize_libsvm,
        synthetic_classification,
    )

    return serialize_libsvm(
        synthetic_classification(2000, 123, seed=seed, group_sizes=A9A_GROUP_SIZES)
    )


def covtype_libsvm(rows: int, seed: int) -> str:
    """LIBSVM text in covtype.binary's column shape, labels {1, 2}.

    Columns 1-10 are continuous values in [0.01, 1) with four decimals,
    then a one-hot wilderness area (4 columns) and a one-hot soil type
    (40 columns, skewed like the real data): 12 non-zeros per row.
    """
    rng = np.random.default_rng(seed)
    continuous = rng.uniform(0.01, 1.0, size=(rows, COVTYPE_CONTINUOUS)).round(4)
    wilderness = rng.integers(COVTYPE_WILDERNESS, size=rows)
    soil_weights = 1.0 / (1.0 + np.arange(COVTYPE_SOIL))
    soil = rng.choice(COVTYPE_SOIL, size=rows, p=soil_weights / soil_weights.sum())
    score = (
        continuous @ rng.standard_normal(COVTYPE_CONTINUOUS)
        + rng.standard_normal(COVTYPE_WILDERNESS)[wilderness]
        + rng.standard_normal(COVTYPE_SOIL)[soil]
        + 0.5 * rng.standard_normal(rows)
    )
    labels = np.where(score > np.median(score), 2, 1)
    wild_col = COVTYPE_CONTINUOUS + 1 + wilderness
    soil_col = COVTYPE_CONTINUOUS + COVTYPE_WILDERNESS + 1 + soil
    template = (
        "%d "
        + " ".join(f"{j}:%.4f" for j in range(1, COVTYPE_CONTINUOUS + 1))
        + " %d:1 %d:1\n"
    )
    return "".join(
        template % (label, *values, wcol, scol)
        for label, values, wcol, scol in zip(
            labels.tolist(), continuous.tolist(), wild_col.tolist(), soil_col.tolist()
        )
    )


def _a9a(seed: int, work: Path) -> str:
    (work / "a9a.libsvm").write_text(a9a_libsvm(seed), encoding="utf-8")
    return A9A_CONFIG.format(data="a9a.libsvm")


def _covtype(seed: int, work: Path) -> str:
    (work / "covtype.libsvm").write_text(
        covtype_libsvm(COVTYPE_ROWS, seed), encoding="utf-8"
    )
    return COVTYPE_CONFIG.format(data="covtype.libsvm")


def _m200(seed: int, work: Path) -> str:
    return M200_CONFIG.format(seed=seed)


# Workload name -> prepare(seed, work_dir): writes the seeded inputs into
# work_dir and returns the config text.
WORKLOADS = {
    "a9a-matchings": _a9a,
    "covtype-shaped": _covtype,
    "m200-matchings": _m200,
}
