"""Per-region rate fields."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class RateField:
    """Log incidence values keyed by region id, for a single code.

    Values must all be finite; regions with no usable value for this code
    are simply absent from the mapping.
    """

    code: str
    values: Mapping[str, float]

    def __post_init__(self):
        bad = [rid for rid, v in self.values.items() if not math.isfinite(v)]
        if bad:
            raise ValueError(
                f"field {self.code!r} has non-finite values for regions {bad[:5]}"
            )

    def aligned(self, region_ids: Iterable[str]) -> np.ndarray:
        """Values in ``region_ids`` order; a region without a value is a ValueError."""
        try:
            return np.array([self.values[rid] for rid in region_ids], dtype=float)
        except KeyError as exc:
            raise ValueError(
                f"graph region {exc.args[0]!r} has no value in field {self.code!r}; "
                "pass the observed subgraph"
            ) from None

    def observed_mask(self, region_ids: Sequence[str]) -> np.ndarray:
        """Boolean mask over ``region_ids``: True where the field has a value."""
        return np.fromiter(map(self.values.__contains__, region_ids), bool, len(region_ids))

    @property
    def observed_count(self) -> int:
        return len(self.values)

    def shifted(self, offset: float) -> "RateField":
        """Return a copy with `offset` added to every value."""
        return RateField(self.code, {rid: v + offset for rid, v in self.values.items()})
