"""Tabular results container and its CSV serialization.

A CurveTable is the system of record for every grid evaluation: ordered
column names, rows of floats with None for unavailable cells, and a
metadata dictionary (configuration echo, seed, package version, warnings)
that is embedded in the file as '#'-prefixed comment lines.  Floats are
serialized with repr(), the shortest string that round-trips to the exact
same double, so a written file re-read compares equal bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError

__all__ = ["CurveTable"]

_NA = "NA"


def _cell_to_text(v) -> str:
    if v is None:
        return _NA
    if isinstance(v, str):
        return v
    return repr(float(v))


def _cell_from_text(s: str):
    if s == _NA:
        return None
    return float(s)


@dataclass
class CurveTable:
    """Column-ordered table of reals with NA holes and attached metadata."""

    columns: list[str]
    rows: list[list[Optional[float]]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.columns):
                raise DomainError(
                    f"row width {len(r)} does not match {len(self.columns)} columns"
                )

    @classmethod
    def from_columns(cls, columns: dict, metadata=None) -> "CurveTable":
        """The table of ``{name: values}``, dict order being column order.

        DomainError unless every column has the same length.
        """
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise DomainError(f"columns of unequal lengths {lengths}")
        rows = [list(row) for row in zip(*columns.values())]
        return cls(columns=list(columns), rows=rows, metadata=dict(metadata or {}))

    def append(self, row) -> None:
        row = list(row)
        if len(row) != len(self.columns):
            raise DomainError(
                f"row width {len(row)} does not match {len(self.columns)} columns"
            )
        self.rows.append(row)

    def column(self, name: str) -> list[Optional[float]]:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise DomainError(f"no column named {name!r}") from None
        return [r[i] for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.metadata):
            payload = json.dumps(self.metadata[key], sort_keys=True)
            lines.append(f"# {key}: {payload}")
        lines.append(",".join(self.columns))
        for r in self.rows:
            lines.append(",".join(_cell_to_text(v) for v in r))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "CurveTable":
        metadata: dict = {}
        header: Optional[list[str]] = None
        rows: list[list[Optional[float]]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, payload = body.partition(":")
                if sep:
                    metadata[key.strip()] = json.loads(payload.strip())
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            rows.append([_cell_from_text(c.strip()) for c in line.split(",")])
        if header is None:
            raise DomainError("no header row found")
        return cls(columns=header, rows=rows, metadata=metadata)

    @classmethod
    def read_csv(cls, path) -> "CurveTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
