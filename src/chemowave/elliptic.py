"""Screened-Poisson solves v'' - lambda v + mu s = 0 on a truncated grid.

On the whole line the solution is the exponential-kernel convolution

    Psi(x) = (mu / (2 sqrt(lambda))) * int exp(-sqrt(lambda)|x-y|) s(y) dy,

and its derivative splits into a left and a right one-sided integral.
Here the grid part of the integral is evaluated exactly for a
piecewise-linear reconstruction of s via two O(n) exponential prefix
sweeps (one lfilter call), and the two half-line tails are closed
analytically from a TailSpec describing how s continues beyond the
grid; their edge-decay profiles are computed once per (grid, lambda).
`solve_pair_values` is the array-level core; `solve_pair` wraps it in
Fields.

Tail convention: ``Exponential(rate)`` continues the field as
C * exp(-rate * x) matched to the boundary value, so rate > 0 decays
to the right (and grows to the left).  The left tail integral converges
for rate < sqrt(lambda), the right one for rate > -sqrt(lambda).

A second-order finite-difference solve with Dirichlet data is provided
purely as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import lfilter

from .errors import DomainError, InternalError
from .fields import Field, Grid


@dataclass(frozen=True)
class Constant:
    """Plateau continuation.  Density closures use levels >= 0, but the
    solver accepts any finite level so that unclamped (sign-changing)
    states can still be diagnosed downstream."""

    level: float

    def __post_init__(self):
        if not np.isfinite(self.level):
            raise DomainError("tail level must be finite")


@dataclass(frozen=True)
class Exponential:
    rate: float


Tail = Constant | Exponential


@dataclass(frozen=True)
class TailSpec:
    left: Tail
    right: Tail


def _check_tail_consistency(s: np.ndarray, tails: TailSpec) -> None:
    scale = max(abs(s).max(), 1.0)
    tol = 1e-8 * scale
    if isinstance(tails.left, Constant) and abs(tails.left.level - s[0]) > tol:
        raise DomainError("left tail level inconsistent with s at the left endpoint")
    if isinstance(tails.right, Constant) and abs(tails.right.level - s[-1]) > tol:
        raise DomainError("right tail level inconsistent with s at the right endpoint")


def _sweeps(s: np.ndarray, h: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right one-sided kernel integrals over the grid.

    A[i] = int_{x0}^{x_i} exp(-r (x_i - y)) s(y) dy
    B[i] = int_{x_i}^{x_end} exp(-r (y - x_i)) s(y) dy

    with s piecewise linear between nodes; each cell integrated exactly.
    Both recurrences run in one lfilter call, B's on the reversed cells.
    """
    E = np.exp(-r * h)
    one_minus_E = -np.expm1(-r * h)
    I0 = one_minus_E / r                 # int_0^h e^{r(t-h)} dt
    I1 = (h - I0) / r                    # int_0^h e^{r(t-h)} t dt
    J0 = I0                              # int_0^h e^{-r t} dt
    J1 = (one_minus_E - E * r * h) / r**2   # int_0^h e^{-r t} t dt

    s0, s1 = s[:-1], s[1:]
    slope = (s1 - s0) / h
    cells = np.empty((2, s.size - 1))
    # contribution of cell (i-1, i) to A[i], weight anchored at the right end
    cells[0] = s0 * I0 + slope * I1
    # contribution of cell (i, i+1) to B[i], weight anchored at the left end
    cells[1] = (s0 * J0 + slope * J1)[::-1]
    sums = lfilter([1.0], [1.0, -E], cells)

    A = np.empty_like(s)
    A[0] = 0.0
    A[1:] = sums[0]
    B = np.empty_like(s)
    B[-1] = 0.0
    B[:-1] = sums[1, ::-1]
    return A, B


def _tail_integrals(s: np.ndarray, r: float, tails: TailSpec) -> tuple[float, float]:
    """(T_L, T_R): half-line integrals anchored at the grid endpoints.

    T_L = int_{-inf}^{x0} exp(-r (x0 - y)) s(y) dy and symmetrically T_R.
    """
    if isinstance(tails.left, Constant):
        TL = tails.left.level / r
    else:
        if tails.left.rate >= r:
            raise DomainError("left Exponential rate >= sqrt(lambda): divergent tail")
        TL = s[0] / (r - tails.left.rate)
    if isinstance(tails.right, Constant):
        TR = tails.right.level / r
    else:
        if tails.right.rate <= -r:
            raise DomainError("right Exponential rate <= -sqrt(lambda): divergent tail")
        TR = s[-1] / (r + tails.right.rate)
    return TL, TR


@lru_cache(maxsize=8)
def _edge_decay(grid: Grid, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-r (x - x0)}, e^{-r (x_end - x)}), computed once per grid and r."""
    x = grid.x
    left, right = np.exp(-r * (x - x[0])), np.exp(-r * (x[-1] - x))
    left.flags.writeable = right.flags.writeable = False
    return left, right


def solve_pair_values(s: np.ndarray, grid: Grid, lam: float, mu: float,
                      tails: TailSpec) -> tuple[np.ndarray, np.ndarray]:
    """(Psi, Psi') as arrays for source values s on grid; solve_pair's core."""
    if lam <= 0 or mu <= 0:
        raise DomainError("lambda and mu must be positive")
    _check_tail_consistency(s, tails)
    r = np.sqrt(lam)
    A, B = _sweeps(s, grid.h, r)
    TL, TR = _tail_integrals(s, r, tails)
    decay_left, decay_right = _edge_decay(grid, r)
    left = A + TL * decay_left
    right = B + TR * decay_right
    return (mu / (2.0 * r)) * (left + right), (mu / 2.0) * (right - left)


def solve_psi(s: Field, lam: float, mu: float, tails: TailSpec) -> Field:
    """Exact-kernel solution of v'' - lam v + mu s = 0 for the given closure."""
    return solve_pair(s, lam, mu, tails)[0]


def psi_derivative(s: Field, lam: float, mu: float, tails: TailSpec) -> Field:
    """d/dx of solve_psi via the same sweeps with the one-sided sign split."""
    return solve_pair(s, lam, mu, tails)[1]


def solve_pair(s: Field, lam: float, mu: float,
               tails: TailSpec) -> tuple[Field, Field]:
    """(Psi, Psi') from a single pair of sweeps."""
    psi, dpsi = solve_pair_values(s.values, s.grid, lam, mu, tails)
    return Field(s.grid, psi), Field(s.grid, dpsi)


def solve_fd(s: Field, lam: float, mu: float,
             bc_left: float, bc_right: float) -> Field:
    """Second-order tridiagonal solve with Dirichlet data; cross-check only."""
    if lam <= 0 or mu <= 0:
        raise DomainError("lambda and mu must be positive")
    n = s.grid.n
    h = s.grid.h
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0 / h**2          # superdiagonal
    ab[1, :] = -2.0 / h**2 - lam    # diagonal
    ab[2, :-1] = 1.0 / h**2         # subdiagonal
    rhs = -mu * s.values.copy()
    ab[0, 1] = 0.0
    ab[1, 0] = 1.0
    rhs[0] = bc_left
    ab[2, -2] = 0.0
    ab[1, -1] = 1.0
    rhs[-1] = bc_right
    v = solve_banded((1, 1), ab, rhs)
    if not np.all(np.isfinite(v)):
        raise InternalError("tridiagonal solve produced non-finite values")
    return Field(s.grid, v)
