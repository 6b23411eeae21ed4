"""Experiment result records: collection, aggregation and persistence.

An :class:`ExperimentReport` is the uniform container benchmarks and the
experiment runner fill with row dictionaries; it can render itself as a
table, export CSV/JSON, and compute per-group aggregates.  Keeping this in
one place means every experiment produces artefacts with the same shape,
which docs/experiments.md relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .tables import format_csv, format_table

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """A named collection of result rows with helpers for output."""

    experiment: str
    description: str = ""
    rows: List[Dict[str, object]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **fields: object) -> None:
        """Append one result row."""
        self.rows.append(dict(fields))

    def extend(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.rows.append(dict(row))

    # -- aggregation -------------------------------------------------------------

    def group_by(self, key: str) -> Dict[object, List[Dict[str, object]]]:
        """Group rows by the value of ``key``."""
        groups: Dict[object, List[Dict[str, object]]] = {}
        for row in self.rows:
            groups.setdefault(row.get(key), []).append(row)
        return groups

    def aggregate(self, group_key: str, value_key: str,
                  reducer: Callable[[Sequence[float]], float] = np.mean
                  ) -> Dict[object, float]:
        """Reduce ``value_key`` over groups of ``group_key`` (default: mean)."""
        out: Dict[object, float] = {}
        for group, rows in self.group_by(group_key).items():
            values = [float(r[value_key]) for r in rows
                      if r.get(value_key) is not None]
            if values:
                out[group] = float(reducer(values))
        return out

    def column(self, key: str) -> List[object]:
        """All values of one column (missing values skipped)."""
        return [row[key] for row in self.rows if key in row]

    # -- rendering / persistence ---------------------------------------------------

    def to_table(self, columns: Optional[Sequence[str]] = None) -> str:
        title = f"[{self.experiment}] {self.description}".strip()
        return format_table(self.rows, columns=columns, title=title)

    def to_csv(self, columns: Optional[Sequence[str]] = None) -> str:
        return format_csv(self.rows, columns=columns)

    def to_json(self) -> str:
        return json.dumps({
            "experiment": self.experiment,
            "description": self.description,
            "metadata": self.metadata,
            "rows": self.rows,
        }, indent=2, default=str)

    def save(self, path: str | Path) -> Path:
        """Write the report as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @staticmethod
    def load(path: str | Path) -> "ExperimentReport":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        report = ExperimentReport(experiment=data["experiment"],
                                  description=data.get("description", ""),
                                  metadata=data.get("metadata", {}))
        report.extend(data.get("rows", []))
        return report
