"""Independent references that the tests hold the package against.

No subcommand runs these: each is a second route to a quantity of the
paper, kept beside the tests that compare the package with it.  scipy is
imported inside the functions that use it, because perfbench imports
this module (through test_acceptance) for its tolerances.
"""

from dataclasses import dataclass

import numpy as np

from chemowave.barriers import _pow_guard, solve_V
from chemowave.cauchy import frozen_residual, frozen_terms
from chemowave.elliptic import solve_pair
from chemowave.errors import DomainError
from chemowave.fields import Field
from chemowave.params import Params
from chemowave.waves import WaveProfile


def residual_A(W: Field, u: Field, params: Params, c: float) -> Field:
    """The paper's barrier operator A(W; u) with centered differences, on
    the interior nodes."""
    if W.grid != u.grid:
        raise DomainError("W and u must share a grid")
    if u.min() < 0:
        raise DomainError("u must be nonnegative")
    V, Vx = solve_V(u.values, u.grid, params, c)
    _pow_guard(W.values, params)
    terms = frozen_terms(params, W.values, W.grid.h)
    return Field(W.grid.interior(),
                 frozen_residual(terms, V[1:-1], Vx[1:-1], c))


def solve_fd(s: Field, bc_left: float, bc_right: float) -> Field:
    """v'' - v + s = 0 by second-order finite differences with Dirichlet
    data, one banded solve."""
    from scipy.linalg import solve_banded

    h = s.grid.h
    ab = np.zeros((3, s.grid.n))
    ab[0, 2:] = ab[2, :-2] = 1.0 / h**2
    ab[1, 1:-1] = -2.0 / h**2 - 1.0
    ab[1, 0] = ab[1, -1] = 1.0
    rhs = -s.values
    rhs[0], rhs[-1] = bc_left, bc_right
    return Field(s.grid, solve_banded((1, 1), ab, rhs))


def uniqueness_check(p1: WaveProfile, p2: WaveProfile) -> float:
    """Sup-norm distance of two translation-normalized profiles."""
    if p1.problem != p2.problem:
        raise DomainError("profiles must share a problem (params, c, grid)")
    return float(np.abs(p1.U.values - p2.U.values).max())


@dataclass
class WeightedEllipticReport:
    lhs_v: float
    rhs_v: float
    lhs_vx: float
    rhs_vx: float
    passed: bool


def weighted_elliptic_check(u1: Field, u2: Field, eta: float, gamma: float,
                            M: float) -> WeightedEllipticReport:
    """Weighted L2 bounds for v = Psi(u2^g - u1^g) against the difference.

    Verifies int V^2 <= g^2 M^(2(g-1))/(1-eta)^2 int U^2 and
    int V_x^2 <= g^2 M^(2(g-1))/(1-eta^2) int U^2, with V = e^(eta x) v,
    U = e^(eta x)(u2 - u1), up to 1e-6 relative slack.  v's source is
    continued beyond the grid as a plateau, so it must vanish at both ends.
    """
    if eta >= 1.0:
        raise DomainError("eta must be < 1")
    if u1.grid != u2.grid:
        raise DomainError("u1 and u2 must share a grid")
    for name, u in (("u1", u1), ("u2", u2)):
        if u.min() < 0 or u.max() > M:
            raise DomainError(f"{name} must satisfy 0 <= {name} <= M")
    src = np.power(u2.values, gamma) - np.power(u1.values, gamma)
    if max(abs(src[0]), abs(src[-1])) > 1e-8 * max(1.0, abs(src).max()):
        raise DomainError("u2^gamma - u1^gamma must vanish at both grid ends")
    v, vx = solve_pair(src, u1.grid, 0.0)

    x = u1.grid.x
    h = u1.grid.h
    wgt = np.exp(eta * x)
    U = wgt * (u2.values - u1.values)
    V = wgt * v
    Vx = wgt * (eta * v + vx)

    iU = float(np.trapezoid(U * U, dx=h))
    iV = float(np.trapezoid(V * V, dx=h))
    iVx = float(np.trapezoid(Vx * Vx, dx=h))
    cst = gamma ** 2 * M ** (2.0 * (gamma - 1.0))
    rhs_v = cst / (1.0 - eta) ** 2 * iU
    rhs_vx = cst / (1.0 - eta ** 2) * iU
    tol = 1e-6
    passed = (iV <= rhs_v * (1.0 + tol) + 1e-300
              and iVx <= rhs_vx * (1.0 + tol) + 1e-300)
    return WeightedEllipticReport(lhs_v=iV, rhs_v=rhs_v, lhs_vx=iVx,
                                  rhs_vx=rhs_vx, passed=passed)
