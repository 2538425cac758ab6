"""Screened-Poisson solves v'' - lambda v + mu s = 0 on a truncated grid.

On the whole line the solution is the exponential-kernel convolution

    Psi(x) = (mu / (2 sqrt(lambda))) * int exp(-sqrt(lambda)|x-y|) s(y) dy,

and its derivative splits into a left and a right one-sided integral.
Here the grid part of the integral is evaluated exactly for a
piecewise-linear reconstruction of s via two O(n) exponential prefix
sweeps, run in one call of scipy's compiled IIR filter
(`scipy.signal._sigtools._linear_filter`; `scipy.signal.lfilter` if it
cannot be loaded).  The two half-line tails are closed analytically
from one decay rate per side; their edge-decay profiles are computed
once per (grid, lambda).  `solve_pair`, on plain arrays, is the one
entry point; the model's v-solve is `cauchy.solve_v` on top of it.
Both run along the last axis, so a (k, n) stack of sources is k solves
in one filter call, each row bit for bit its own 1-D solve.
`solve_psi` and `psi_derivative`, its two halves, are read by no package
code: perfbench's tracer probes them by name.  The sweeps' weights
(`sweep_weights`) and `tail_integrals` also fill the wave lane's banded
Newton Jacobian.

The package's compiled scipy code is loaded here, each extension file
directly, so that neither `scipy.signal`'s nor `scipy.linalg`'s
`__init__` runs at import: the filter above, and `lapack`, scipy's
compiled LAPACK (`scipy.linalg._flapack`; `scipy.linalg.lapack` if it
cannot be loaded or lacks gttrf, gttrs, gtsv or gbsv).  `solve_tridiagonal`,
gtsv with `scipy.linalg.solve_banded`'s checks, is the package's one
checked tridiagonal solve; `cauchy.advance_imex` calls gtsv and gttrs
directly on the bands it builds itself.

Tail convention: beyond a grid end x_e, s continues as
s(x_e) * exp(-rate * (x - x_e)), so a rate > 0 decays to the right (and
grows to the left) and a rate of 0 is the plateau at the boundary value.
The left tail integral converges for left_rate < sqrt(lambda), the
right one for right_rate > -sqrt(lambda).

`solve_fd`, a second-order finite-difference solve with Dirichlet data,
is provided purely as an independent cross-check; it is the module's one
function on Fields.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .errors import DomainError, InternalError
from .fields import Field, Grid


def _load_extension(package: str, name: str):
    """The compiled module package.name, loaded without initialising package.

    scipy.signal's __init__ imports scipy.stats, scipy.interpolate and
    scipy.optimize, about 1 s, and scipy.linalg's pulls in numpy.f2py
    and numpy.testing, about 0.25 s, for code that is one C call.
    """
    found = importlib.util.find_spec(package)
    finder = FileFinder(found.submodule_search_locations[0],
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"{package}.{name}")
    if spec is None:
        raise ImportError(f"{package}.{name} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve_linear_filter():
    """_sigtools._linear_filter(b, a, x, axis), the call lfilter makes.

    It is private scipy API, so a scipy without it gets lfilter itself,
    which takes the same arguments.
    """
    try:
        return _load_extension("scipy.signal", "_sigtools")._linear_filter
    except (ImportError, AttributeError):
        from scipy.signal import lfilter
        return lfilter


def _resolve_lapack():
    """scipy.linalg._flapack, whose routines scipy.linalg.lapack re-exports.

    It is private scipy API, so a scipy without it, or without one of
    gttrf, gttrs, gtsv and gbsv, gets scipy.linalg.lapack itself.
    """
    try:
        module = _load_extension("scipy.linalg", "_flapack")
        if all(hasattr(module, routine)
               for routine in ("dgttrf", "dgttrs", "dgtsv", "dgbsv")):
            return module
    except ImportError:
        pass
    from scipy.linalg import lapack
    return lapack


_linear_filter = _resolve_linear_filter()
lapack = _resolve_lapack()


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """x solving A x = rhs; A has bands sub (n-1), diag (n) and sup (n-1).

    LAPACK gtsv, Gaussian elimination with partial pivoting, with the
    checks of scipy.linalg.solve_banded((1, 1), ab, rhs), which makes
    this same call on ab's rows: the same bits, a ValueError on a
    non-finite entry and a LinAlgError on a singular matrix.  No
    argument is overwritten.
    """
    for values in (sub, diag, sup, rhs):
        if not np.all(np.isfinite(values)):
            raise ValueError("array must not contain infs or NaNs")
    *_, x, info = lapack.dgtsv(sub, diag, sup, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def sweep_weights(h: float, r: float) -> tuple:
    """(E, (I0, I1), (J0, J1)) of the sweeps A[i] = E A[i-1] + s_{i-1} I0
    + slope I1 and B[i] = E B[i+1] + s_i J0 + slope J1, per cell slope."""
    E = np.exp(-r * h)
    one_minus_E = -np.expm1(-r * h)
    I0 = one_minus_E / r                 # int_0^h e^{r(t-h)} dt
    I1 = (h - I0) / r                    # int_0^h e^{r(t-h)} t dt
    J0 = I0                              # int_0^h e^{-r t} dt
    J1 = (one_minus_E - E * r * h) / r**2   # int_0^h e^{-r t} t dt
    return E, (I0, I1), (J0, J1)


def _sweeps(s: np.ndarray, h: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right one-sided kernel integrals over the grid, along s's last axis.

    A[i] = int_{x0}^{x_i} exp(-r (x_i - y)) s(y) dy
    B[i] = int_{x_i}^{x_end} exp(-r (y - x_i)) s(y) dy

    with s piecewise linear between nodes; each cell integrated exactly.
    Both recurrences of every row run in one filter call, B's on the
    reversed cells.  Each row of cells starts with a zero, which leaves
    the filter's zero start state as it is and gives A[0] = B[-1] = 0,
    so A and B are views of the filter's output.
    """
    E, (I0, I1), (J0, J1) = sweep_weights(h, r)
    s0, s1 = s[..., :-1], s[..., 1:]
    slope = (s1 - s0) / h
    cells = np.zeros((2,) + s.shape)
    # contribution of cell (i-1, i) to A[i], weight anchored at the right end
    to_a = cells[0, ..., 1:]
    np.multiply(s0, I0, out=to_a)
    to_a += slope * I1
    # contribution of cell (i, i+1) to B[i], weight anchored at the left end
    to_b = cells[1, ..., :0:-1]
    np.multiply(s0, J0, out=to_b)
    to_b += slope * J1
    del slope                           # not held through the filter
    sums = _linear_filter(np.array([1.0]), np.array([1.0, -E]), cells, -1)
    return sums[0], sums[1, ..., ::-1]


def tail_integrals(s: np.ndarray, r: float, left_rate: float,
                   right_rate: float) -> tuple[float, float]:
    """(T_L, T_R): half-line integrals anchored at the grid endpoints.

    T_L = int_{-inf}^{x0} exp(-r (x0 - y)) s(y) dy and symmetrically T_R,
    one per row of s along its last axis.  The negated comparisons refuse
    a NaN rate as well.
    """
    if not left_rate < r:
        raise DomainError("left tail rate must be < sqrt(lambda): divergent tail")
    if not right_rate > -r:
        raise DomainError("right tail rate must be > -sqrt(lambda): divergent tail")
    first, last = s.T[0], s.T[-1]       # per row; scalars for one row
    return first / (r - left_rate), last / (r + right_rate)


@lru_cache(maxsize=8)
def _edge_decay(grid: Grid, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-r (x - x0)}, e^{-r (x_end - x)}), computed once per grid and r."""
    x = grid.x
    left, right = np.exp(-r * (x - x[0])), np.exp(-r * (x[-1] - x))
    left.flags.writeable = right.flags.writeable = False
    return left, right


def solve_pair(s: np.ndarray, grid: Grid, lam: float, mu: float,
               left_rate: float, right_rate: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """(Psi, Psi') of v'' - lam v + mu s = 0 for source values s on grid.

    s runs along its last axis: a (k, n) stack of sources is k solves in
    one filter call, each row bit for bit its own 1-D solve.
    """
    if not (lam > 0 and mu > 0):
        raise DomainError("lambda and mu must be positive")
    r = np.sqrt(lam)
    # left and right are the sweeps' own arrays, completed in place
    left, right = _sweeps(s, grid.h, r)
    TL, TR = tail_integrals(s, r, left_rate, right_rate)
    decay_left, decay_right = _edge_decay(grid, r)
    left += np.multiply.outer(TL, decay_left)
    right += np.multiply.outer(TR, decay_right)
    psi = left + right
    psi *= mu / (2.0 * r)
    dpsi = right - left
    dpsi *= mu / 2.0
    return psi, dpsi


def solve_psi(s: np.ndarray, grid: Grid, lam: float, mu: float,
              left_rate: float, right_rate: float) -> np.ndarray:
    """Psi alone: solve_pair's first value."""
    return solve_pair(s, grid, lam, mu, left_rate, right_rate)[0]


def psi_derivative(s: np.ndarray, grid: Grid, lam: float, mu: float,
                   left_rate: float, right_rate: float) -> np.ndarray:
    """Psi' alone: solve_pair's second value."""
    return solve_pair(s, grid, lam, mu, left_rate, right_rate)[1]


def solve_fd(s: Field, lam: float, mu: float,
             bc_left: float, bc_right: float) -> Field:
    """Second-order tridiagonal solve with Dirichlet data; cross-check only."""
    if not (lam > 0 and mu > 0):
        raise DomainError("lambda and mu must be positive")
    n = s.grid.n
    h = s.grid.h
    sub = np.full(n - 1, 1.0 / h**2)
    diag = np.full(n, -2.0 / h**2 - lam)
    sup = np.full(n - 1, 1.0 / h**2)
    rhs = -mu * s.values.copy()
    sup[0] = 0.0
    diag[0] = 1.0
    rhs[0] = bc_left
    sub[-1] = 0.0
    diag[-1] = 1.0
    rhs[-1] = bc_right
    v = solve_tridiagonal(sub, diag, sup, rhs)
    if not np.all(np.isfinite(v)):
        raise InternalError("tridiagonal solve produced non-finite values")
    return Field(s.grid, v)
