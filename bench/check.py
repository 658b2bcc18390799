"""Output check for one run's trace CSV.

A trace passes when it has the documented header, T+1 rows numbered
0..T, comm_cumulative = k(k+1)/2 on row k, and every value finite except
eps, which reads nan where the certificate is unavailable.  At the default
seed it must also match the reference trace recorded at the seed commit,
column by column, within REL_TOL.
"""

from __future__ import annotations

import math

# A copy of proxnet.diagnostics.TRACE_COLUMNS rather than an import, so
# that a change to the program's output format fails the check.
COLUMNS = (
    "k",
    "comm_cumulative",
    "f_avg",
    "D",
    "dx_norm",
    "e_norm",
    "eps",
    "residual_bound",
    "max_consensus_gap",
    "geo_bound",
    "rate_T_times_stat",
)
EPS_COLUMN = COLUMNS.index("eps")

# The 1e-9 tolerance of gossip replay (acceptance criterion 7), taken
# relative to max(1, |reference|): summing in another order moves a value
# by ~1e-15 relative, while a wrong step, weight or certificate moves it by
# far more.
REL_TOL = 1e-9


def check_trace(text: str, max_iter: int, reference: str | None = None) -> list[str]:
    """Return the problems found in a trace; an empty list means it passed."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        return [f"header is {lines[0] if lines else '<empty>'!r}"]
    rows = lines[1:]
    if len(rows) != max_iter + 1:
        return [f"{len(rows)} rows, expected {max_iter + 1}"]
    problems = []
    for k, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            problems.append(f"row {k}: {len(fields)} fields")
            continue
        if fields[0] != str(k):
            problems.append(f"row {k}: k = {fields[0]}")
        if fields[1] != str(k * (k + 1) // 2):
            problems.append(f"row {k}: comm_cumulative = {fields[1]}")
        for column, field in enumerate(fields[2:], start=2):
            value = float(field)
            if not math.isfinite(value) and not (
                column == EPS_COLUMN and math.isnan(value)
            ):
                problems.append(f"row {k}: {COLUMNS[column]} = {field}")
    if reference is not None and not problems:
        problems = compare_traces(text, reference)
    return problems


def compare_traces(text: str, reference: str) -> list[str]:
    """Column-by-column comparison against a reference trace."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    ref_rows = [line.split(",") for line in reference.splitlines()[1:]]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for column, name in enumerate(COLUMNS):
        for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            value, expected = float(row[column]), float(ref_row[column])
            if math.isnan(value) or math.isnan(expected):
                differs = math.isnan(value) != math.isnan(expected)
            else:
                differs = abs(value - expected) > REL_TOL * max(1.0, abs(expected))
            if differs:
                problems.append(f"{name} row {k}: {row[column]} vs {ref_row[column]}")
                break
    return problems
