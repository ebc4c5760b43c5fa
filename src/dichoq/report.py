"""Inequality reports shared by the spectral and entropic suites.

Each check is one scalar inequality with its slack: the margin by which it
holds (negative means violated). A report keeps its checks as four
parallel columns (names, lhs, bound, slack) of Python floats: the entropy
suites build whole columns, the scalar suites `add` one row, and `checks`
builds an `InequalityCheck` per row on request. Serialized form is a JSON
array of {"name", "lhs", "bound", "slack", "satisfied"} objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SLACK_TOL = 1e-10
SATURATION_TOL = 1e-10


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    bound: float
    slack: float

    @property
    def satisfied(self) -> bool:
        return self.slack >= -SLACK_TOL

    @property
    def saturated(self) -> bool:
        return math.isfinite(self.slack) and abs(self.slack) < SATURATION_TOL


@dataclass
class InequalityReport:
    """Checks in insertion order; the four columns are distinct lists."""

    names: list[str] = field(default_factory=list)
    lhs: list[float] = field(default_factory=list)
    bound: list[float] = field(default_factory=list)
    slack: list[float] = field(default_factory=list)

    def add(self, name: str, lhs: float, bound: float, slack: float) -> None:
        self.extend(InequalityReport([name], [float(lhs)], [float(bound)], [float(slack)]))

    def extend(self, other: "InequalityReport") -> None:
        self.names += other.names
        self.lhs += other.lhs
        self.bound += other.bound
        self.slack += other.slack

    @property
    def checks(self) -> list[InequalityCheck]:
        return list(map(InequalityCheck, self.names, self.lhs, self.bound, self.slack))

    def satisfied(self) -> list[bool]:
        return [s >= -SLACK_TOL for s in self.slack]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied())

    def violations(self) -> list[InequalityCheck]:
        return [c for c in self.checks if not c.satisfied]

    def __getitem__(self, name: str) -> InequalityCheck:
        if name not in self.names:
            raise KeyError(name)
        i = self.names.index(name)
        return InequalityCheck(name, self.lhs[i], self.bound[i], self.slack[i])

    def __len__(self) -> int:
        return len(self.names)

    def to_list(self) -> list[dict]:
        rows = zip(self.names, self.lhs, self.bound, self.slack, self.satisfied())
        keys = ("name", "lhs", "bound", "slack", "satisfied")
        return [dict(zip(keys, row)) for row in rows]
