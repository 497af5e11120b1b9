"""Output checks on the sweep CSVs the benchmark produces.

Each check returns ``{grid_index: problem}``; the caller charges every
frame of a failing grid point to the run's ``failed`` count. The checks
report accuracy and consistency only: no acceptance-test threshold is
applied here.
"""

from __future__ import annotations

import csv
import io
import math

__all__ = ["parse_csv", "row_problems", "count_problems", "accuracy"]


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _cell(row: dict[str, str], column: str) -> float:
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError):
        return math.nan


def row_problems(rows: list[dict[str, str]], grid: tuple[float, ...], frames: int,
                 approach: str) -> dict[int, str]:
    """One row per requested CEQNR point, in order, with ``frames`` equal
    to the request and every cell of the enabled approach finite."""
    if len(rows) != len(grid):
        return {ci: f"CSV has {len(rows)} rows for a {len(grid)}-point grid"
                for ci in range(len(grid))}
    out = {}
    for ci, (row, db) in enumerate(zip(rows, grid)):
        if _cell(row, "ceqnr_db") != db:
            out[ci] = f"ceqnr_db {row.get('ceqnr_db')!r} != requested {db}"
        elif row.get("frames") != str(frames):
            out[ci] = f"frames {row.get('frames')!r} != requested {frames}"
        else:
            cols = (f"mse_{approach}", f"loc_freq_{approach}", "sigma_q_sq",
                    "zero_error_frac", "overload_rate")
            bad = [c for c in cols if not math.isfinite(_cell(row, c))]
            if bad:
                out[ci] = f"non-finite {', '.join(bad)}"
    return out


def _as_count(rate: float, denominator: int) -> "int | None":
    """Invert rate = count / denominator; None if no integer count fits."""
    value = rate * denominator
    count = round(value) if math.isfinite(value) else None
    return count if count is not None and abs(value - count) < 1e-3 else None


def count_problems(rows: list[dict[str, str]], counts: dict, approach: str) -> dict[int, str]:
    """Counts rebuilt from spans (``spans.grid_counts``) must equal the
    counts behind the CSV's fractions exactly."""
    out = {}
    for ci, row in enumerate(rows):
        got = counts.get((approach, ci))
        if got is None:
            out[ci] = "no traced frames for this grid point"
            continue
        expected = {
            "frames": int(row["frames"]),
            "localized": _as_count(_cell(row, f"loc_freq_{approach}"), got["frames"]),
            "zero_error": _as_count(_cell(row, "zero_error_frac"), got["frames"]),
            "overloads": _as_count(_cell(row, "overload_rate"), got["samples"]),
        }
        diff = [f"{k} CSV {v} vs spans {got[k]}" for k, v in expected.items() if v != got[k]]
        if diff:
            out[ci] = "; ".join(diff)
    return out


def accuracy(rows: list[dict[str, str]], approach: str) -> dict[str, float]:
    """Means over grid points of MSE / sigma_q^2 and of 1 - loc_freq."""
    mse = [_cell(r, f"mse_{approach}") / _cell(r, "sigma_q_sq") for r in rows]
    miss = [1.0 - _cell(r, f"loc_freq_{approach}") for r in rows]
    return {
        f"mse_{approach}_rel": sum(mse) / len(mse),
        f"loc_miss_{approach}": sum(miss) / len(miss),
    }
