"""Uniform 1D grids and scalar fields sampled on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Largest grid accepted (8 MB per field); far above the 4,001-node grids
#: of the command line, and refused before any array is allocated.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = x0 + i*h, i = 0..n-1, with 8 <= n <= MAX_NODES."""

    x0: float
    h: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.x0):
            raise DomainError("x0 non-finite")
        if not (self.h > 0 and np.isfinite(self.h)):
            raise DomainError("h must be > 0 and finite")
        if self.n < 8:
            raise DomainError("n must be >= 8")
        if self.n > MAX_NODES:
            raise DomainError(f"grid of {self.n} nodes exceeds the cap of "
                              f"{MAX_NODES}")

    @classmethod
    def from_bounds(cls, left: float, right: float, h: float) -> "Grid":
        """Grid covering [left, right]; right endpoint snapped to the lattice."""
        if right <= left:
            raise DomainError("right must exceed left")
        if not h > 0:
            raise DomainError("h must be > 0 and finite")
        cells = (right - left) / h
        if not np.isfinite(cells):
            raise DomainError(f"non-finite node count: (right - left) / h "
                              f"= {cells}")
        return cls(left, h, int(round(cells)) + 1)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    @property
    def x1(self) -> float:
        """Right endpoint."""
        return self.x0 + self.h * (self.n - 1)

    def interior(self) -> "Grid":
        """Grid with the first and last node dropped."""
        return Grid(self.x0 + self.h, self.h, self.n - 2)


@dataclass(frozen=True)
class Field:
    """Scalar function sampled on a grid. Values are copied and frozen."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.grid.n,):
            raise DomainError(
                f"values shape {v.shape} does not match grid ({self.grid.n},)")
        if not np.all(np.isfinite(v)):
            raise DomainError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())


def level_crossings(x: np.ndarray, u: np.ndarray, level: float) -> np.ndarray:
    """Every abscissa where u meets ``level``, ascending.

    A node where u equals the level counts as one crossing at that node;
    a strict sign change of u - level between neighbours is located by
    linear interpolation.
    """
    d = u - level
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
    inner = x[i] + (x[i + 1] - x[i]) * d[i] / (d[i] - d[i + 1])
    return np.sort(np.concatenate((x[d == 0.0], inner)))
