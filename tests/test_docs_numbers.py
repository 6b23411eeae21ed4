"""Documentation number check: per-round costs and construction seconds
quoted in the docs must be rows of the committed ``BENCH_scaling.json``
record.

The local companion of ``tests/test_docs_links.py``.  A quoted figure that
is not in the record has drifted from it; re-recording the benchmark
without updating the docs (or the reverse) fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``1339.39/4584.58 ms`` or ``2.318 ms``: one or more slash-separated
#: figures followed by the unit.
_MS_FIGURES = re.compile(r"((?:\d+(?:\.\d+)?/)*\d+(?:\.\d+)?)\s*ms\b")

#: A row of the docs/experiments.md large-n table:
#: ``| n | scheduler | object ms | array ms | speedup |``.
_TABLE_ROW = re.compile(
    r"^\s*\|\s*(\d+)\s*\|\s*(synchronous|random)\s*\|\s*([\d.]+)\s*\|"
    r"\s*([\d.]+|invalid)\s*\|", re.MULTILINE)

#: A row of the docs/experiments.md construction table:
#: ``| n | object s | array from nx s | csr_direct s | speedup |``.
_CONSTRUCTION_ROW = re.compile(
    r"^\s*\|\s*(\d[\d ]*)\s*\|\s*([\d.]+)\s*\|\s*([\d.]+)\s*\|"
    r"\s*([\d.]+)\s*\|\s*(\d+)×\s*\|", re.MULTILINE)


def recorded_rows() -> list:
    """Every per-round row of the scaling record (all three tiers)."""
    record = json.loads((REPO_ROOT / "BENCH_scaling.json").read_text())
    return [row for tier in ("breadth_runs", "scaling_runs", "async_runs")
            for row in record[tier]]


def backend_choice_paragraph() -> str:
    """The backend-choice paragraph of docs/performance.md."""
    text = (REPO_ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    start = text.index("**When to pick which backend.**")
    return text[start:text.index("\n\n", start)]


def quoted_ms_figures(text: str) -> list:
    """All figures quoted in ``ms`` in ``text``, as strings."""
    return [figure for group in _MS_FIGURES.findall(text)
            for figure in group.split("/")]


def matches_a_row(figure: str, rows: list, field: str = "ms_per_round") -> bool:
    """``figure`` equals a row's ``field`` rounded to the quoted decimals."""
    decimals = len(figure.partition(".")[2])
    return any(round(float(row[field]), decimals) == float(figure)
               for row in rows)


def test_parser_reads_slash_groups():
    assert quoted_ms_figures("from 1339.39/4584.58 ms to 2.318 ms, 3 s") == \
        ["1339.39", "4584.58", "2.318"]


def test_backend_choice_figures_are_recorded_rows():
    figures = quoted_ms_figures(backend_choice_paragraph())
    assert len(figures) >= 6, figures
    rows = recorded_rows()
    drifted = [f for f in figures if not matches_a_row(f, rows)]
    assert not drifted, (
        f"docs/performance.md quotes ms/round figures that are not rows of "
        f"BENCH_scaling.json: {drifted}")


def test_experiments_table_matches_the_record():
    text = (REPO_ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
    table = _TABLE_ROW.findall(text)
    assert len(table) == 6, table
    by_key = {(row["n"], row["scheduler"], row["backend"]): row
              for row in recorded_rows()}
    for n, scheduler, obj, arr in table:
        for backend, figure in (("object", obj), ("array", arr)):
            row = by_key[(int(n), scheduler, backend)]
            if figure == "invalid":
                assert float(row["seconds"]) <= 0, (n, scheduler, backend)
                continue
            assert matches_a_row(figure, [row]), (n, scheduler, backend, figure)


@pytest.mark.parametrize("figure, expected", [("156.9", True), ("157", True),
                                              ("157.0", False), ("1395", False)])
def test_figures_match_at_the_quoted_precision(figure, expected):
    # A fixed row, so the matcher's check outlives re-records.
    assert matches_a_row(figure, [{"ms_per_round": 156.9}]) is expected


def test_construction_table_matches_the_record():
    """Each seconds figure is its mode's ``total_seconds`` (generation +
    build) at the quoted precision, and the speedup is object over
    csr_direct."""
    text = (REPO_ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
    table = _CONSTRUCTION_ROW.findall(text)
    assert len(table) == 2, table
    record = json.loads((REPO_ROOT / "BENCH_scaling.json").read_text())
    by_key = {(row["n"], row["mode"]): row
              for row in record["construction_runs"]}
    for n, obj, via_nx, csr, speedup in table:
        n = int(n.replace(" ", ""))
        for mode, figure in (("object", obj), ("array_nx", via_nx),
                             ("csr_direct", csr)):
            assert matches_a_row(figure, [by_key[(n, mode)]],
                                 "total_seconds"), (n, mode, figure)
        ratio = (by_key[(n, "object")]["total_seconds"]
                 / by_key[(n, "csr_direct")]["total_seconds"])
        assert round(ratio) == int(speedup), (n, ratio, speedup)
