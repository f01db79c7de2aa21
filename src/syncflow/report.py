"""Uniform pass/fail report value object used by all verification checks."""

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class CheckReport:
    """Outcome of a single verification check.

    ``worst_value`` is the most adverse quantity seen (e.g. the largest rise of
    a series that should be non-increasing) and ``location`` identifies where
    it occurred (a time, an index pair, or a label).
    """

    check: str
    passed: bool
    worst_value: float | None = None
    location: Any = None
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.passed),
            "worst_value": jsonable(self.worst_value),
            "location": jsonable(self.location),
            "params": jsonable(self.params),
        }
