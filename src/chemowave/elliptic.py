"""Screened-Poisson solves v'' - lambda v + mu s = 0 on a truncated grid.

On the whole line the solution is the exponential-kernel convolution

    Psi(x) = (mu / (2 sqrt(lambda))) * int exp(-sqrt(lambda)|x-y|) s(y) dy,

and its derivative splits into a left and a right one-sided integral.
Here the grid part of the integral is evaluated exactly for a
piecewise-linear reconstruction of s via two O(n) exponential prefix
sweeps, and the two half-line tails are closed analytically from a
TailSpec describing how s continues beyond the grid.

Tail convention: ``Exponential(rate)`` continues the field as
C * exp(-rate * x) matched to the boundary value, so rate > 0 decays
to the right (and grows to the left).  The left tail integral converges
for rate < sqrt(lambda), the right one for rate > -sqrt(lambda).

A second-order finite-difference solve with Dirichlet data is provided
purely as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import lfilter

from .errors import DomainError, InternalError
from .fields import Field


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

    @classmethod
    def constant_ends(cls, s: Field) -> "TailSpec":
        """Plateau continuation at both endpoint values (plain Cauchy runs)."""
        return cls(Constant(float(s.values[0])), Constant(float(s.values[-1])))

    @classmethod
    def wave_ends(cls, s: Field, rate: float) -> "TailSpec":
        """Plateau on the left, exponential decay at ``rate`` on the right."""
        return cls(Constant(float(s.values[0])), Exponential(rate))


def _check_tail_consistency(s: Field, tails: TailSpec) -> None:
    scale = max(abs(s.values).max(), 1.0)
    tol = 1e-8 * scale
    if isinstance(tails.left, Constant) and abs(tails.left.level - s.values[0]) > tol:
        raise DomainError("left tail level inconsistent with s at the left endpoint")
    if isinstance(tails.right, Constant) and abs(tails.right.level - s.values[-1]) > tol:
        raise DomainError("right tail level inconsistent with s at the right endpoint")


def _sweeps(s: Field, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right one-sided kernel integrals over the grid.

    A[i] = int_{x0}^{x_i} exp(-r (x_i - y)) s(y) dy
    B[i] = int_{x_i}^{x_end} exp(-r (y - x_i)) s(y) dy

    with s piecewise linear between nodes; each cell integrated exactly.
    """
    h = s.grid.h
    v = s.values
    E = np.exp(-r * h)
    one_minus_E = -np.expm1(-r * h)
    I0 = one_minus_E / r                 # int_0^h e^{r(t-h)} dt
    I1 = (h - I0) / r                    # int_0^h e^{r(t-h)} t dt
    J0 = I0                              # int_0^h e^{-r t} dt
    J1 = (one_minus_E - E * r * h) / r**2   # int_0^h e^{-r t} t dt

    s0, s1 = v[:-1], v[1:]
    slope = (s1 - s0) / h
    # contribution of cell (i-1, i) to A[i], weight anchored at the right end
    cA = s0 * I0 + slope * I1
    # contribution of cell (i, i+1) to B[i], weight anchored at the left end
    cB = s0 * J0 + slope * J1

    A = np.empty_like(v)
    A[0] = 0.0
    A[1:] = lfilter([1.0], [1.0, -E], cA)
    B = np.empty_like(v)
    B[-1] = 0.0
    B[:-1] = lfilter([1.0], [1.0, -E], cB[::-1])[::-1]
    return A, B


def _tail_integrals(s: Field, r: float, tails: TailSpec) -> tuple[float, float]:
    """(T_L, T_R): half-line integrals anchored at the grid endpoints.

    T_L = int_{-inf}^{x0} exp(-r (x0 - y)) s(y) dy and symmetrically T_R.
    """
    if isinstance(tails.left, Constant):
        TL = tails.left.level / r
    else:
        if tails.left.rate >= r:
            raise DomainError("left Exponential rate >= sqrt(lambda): divergent tail")
        TL = s.values[0] / (r - tails.left.rate)
    if isinstance(tails.right, Constant):
        TR = tails.right.level / r
    else:
        if tails.right.rate <= -r:
            raise DomainError("right Exponential rate <= -sqrt(lambda): divergent tail")
        TR = s.values[-1] / (r + tails.right.rate)
    return TL, TR


def _halves(s: Field, lam: float, mu: float,
            tails: TailSpec) -> tuple[np.ndarray, np.ndarray]:
    if lam <= 0 or mu <= 0:
        raise DomainError("lambda and mu must be positive")
    _check_tail_consistency(s, tails)
    r = np.sqrt(lam)
    A, B = _sweeps(s, r)
    TL, TR = _tail_integrals(s, r, tails)
    x = s.grid.x
    left = A + TL * np.exp(-r * (x - x[0]))
    right = B + TR * np.exp(-r * (x[-1] - x))
    return left, right


def solve_psi(s: Field, lam: float, mu: float, tails: TailSpec) -> Field:
    """Exact-kernel solution of v'' - lam v + mu s = 0 for the given closure."""
    return solve_pair(s, lam, mu, tails)[0]


def psi_derivative(s: Field, lam: float, mu: float, tails: TailSpec) -> Field:
    """d/dx of solve_psi via the same sweeps with the one-sided sign split."""
    return solve_pair(s, lam, mu, tails)[1]


def solve_pair(s: Field, lam: float, mu: float,
               tails: TailSpec) -> tuple[Field, Field]:
    """(Psi, Psi') from a single pair of sweeps."""
    left, right = _halves(s, lam, mu, tails)
    r = np.sqrt(lam)
    return (Field(s.grid, (mu / (2.0 * r)) * (left + right)),
            Field(s.grid, (mu / 2.0) * (right - left)))


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
