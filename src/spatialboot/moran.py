"""Global Moran's I over a rate field and neighbor graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedStatisticError
from .fields import RateField
from .graph import NeighborGraph

SCHEME_BINARY = "binary"
SCHEME_ROW = "row_standardized"
SCHEMES = (SCHEME_BINARY, SCHEME_ROW)


@dataclass(frozen=True)
class MoranResult:
    code: str
    i: float
    n: int
    weight_scheme: str


def morans_i(
    field: RateField, graph: NeighborGraph, scheme: str = SCHEME_BINARY
) -> MoranResult:
    """Global Moran's I with binary or row-standardized contiguity weights.

    I = (n / sum_w) * sum_ij w_ij (y_i - ybar)(y_j - ybar) / sum_i (y_i - ybar)^2

    with w_ij = 1 for neighbors under the binary scheme, or 1/degree(i)
    under row standardization, and 0 otherwise.  The graph must be
    restricted to observed regions beforehand.

    Raises :class:`UndefinedStatisticError` for a constant field or a graph
    without edges (zero denominators).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    y = field.aligned(graph.ids)
    n = y.shape[0]
    if n < 2:
        raise UndefinedStatisticError("Moran's I needs at least 2 regions")
    d = y - y.mean()
    den = float(d @ d)
    if den == 0.0:
        raise UndefinedStatisticError(f"constant field {field.code!r}")
    degrees = graph.degrees
    if graph.flat_neighbors.shape[0] == 0:
        raise UndefinedStatisticError("graph has no edges")
    src = np.repeat(np.arange(n), degrees)
    dst = graph.flat_neighbors
    if scheme == SCHEME_BINARY:
        s0 = float(src.shape[0])
        num = float(d[src] @ d[dst])
    else:
        w = 1.0 / degrees[src]
        s0 = float(w.sum())
        num = float((w * d[src]) @ d[dst])
    i = (n / s0) * (num / den)
    return MoranResult(code=field.code, i=i, n=n, weight_scheme=scheme)
