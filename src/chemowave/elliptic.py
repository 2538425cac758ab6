"""The model's elliptic solve v'' - v + s = 0 on a truncated grid.

On the whole line the solution is the exponential-kernel convolution

    Psi(x) = (1/2) * int exp(-|x-y|) s(y) dy,

and its derivative splits into a left and a right one-sided integral.
Here the grid part of the integral is evaluated exactly for a
piecewise-linear reconstruction of s via two O(n) exponential prefix
sweeps, run in one call of scipy's compiled IIR filter
(`scipy.signal._sigtools._linear_filter`; `scipy.signal.lfilter` if it
cannot be loaded).  The two half-line tails are closed analytically
from the boundary values; their edge-decay profiles are computed once
per grid.  `solve_pair`, on plain arrays, is the one entry point; the
model's v-solve is `cauchy.solve_v` on top of it.
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
cannot be loaded or lacks gttrf, gttrs, gtsv or gbsv).  `cauchy.solve_banded`
solves each time step's tridiagonal matrix with it, and the wave lane's
Newton step its banded Jacobian.

Tail convention: beyond the left end x0, s is the plateau s(x0), as
the model's fronts are flat behind them; beyond the right end x_R, s
continues as s(x_R) * exp(-right_rate * (x - x_R)), which decays for a
rate > 0 and is a plateau for a rate of 0; its integral converges for
right_rate > -1.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .errors import DomainError
from .fields import Grid


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


def sweep_weights(h: float) -> tuple:
    """(E, (I0, I1), (J0, J1)) of the sweeps A[i] = E A[i-1] + s_{i-1} I0
    + slope I1 and B[i] = E B[i+1] + s_i J0 + slope J1, per cell slope."""
    E = np.exp(-h)
    one_minus_E = -np.expm1(-h)
    I0 = one_minus_E                     # int_0^h e^{t-h} dt
    I1 = h - I0                          # int_0^h e^{t-h} t dt
    J0 = I0                              # int_0^h e^{-t} dt
    J1 = one_minus_E - E * h             # int_0^h e^{-t} t dt
    return E, (I0, I1), (J0, J1)


def _sweeps(s: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right one-sided kernel integrals over the grid, along s's last axis.

    A[i] = int_{x0}^{x_i} exp(-(x_i - y)) s(y) dy
    B[i] = int_{x_i}^{x_end} exp(-(y - x_i)) s(y) dy

    with s piecewise linear between nodes; each cell integrated exactly.
    Both recurrences of every row run in one filter call, B's on the
    reversed cells.  Each row of cells starts with a zero, which leaves
    the filter's zero start state as it is and gives A[0] = B[-1] = 0,
    so A and B are views of the filter's output.
    """
    E, (I0, I1), (J0, J1) = sweep_weights(h)
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


def tail_integrals(s: np.ndarray, right_rate: float) -> tuple[float, float]:
    """(T_L, T_R): half-line integrals anchored at the grid endpoints.

    T_L = int_{-inf}^{x0} exp(-(x0 - y)) s(y) dy = s[0] for the plateau
    and T_R = int_{x_R}^{inf} exp(-(y - x_R)) s(y) dy = s[-1] / (1 +
    right_rate), one per row of s along its last axis.  The negated
    comparison refuses a NaN rate as well.
    """
    if not right_rate > -1.0:
        raise DomainError("right tail rate must be > -1: divergent tail")
    first, last = s.T[0], s.T[-1]       # per row; scalars for one row
    return first, last / (1.0 + right_rate)


@lru_cache(maxsize=8)
def _edge_decay(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-(x - x0)}, e^{-(x_end - x)}), computed once per grid."""
    x = grid.x
    left, right = np.exp(x[0] - x), np.exp(x - x[-1])
    left.flags.writeable = right.flags.writeable = False
    return left, right


def solve_pair(s: np.ndarray, grid: Grid,
               right_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """(Psi, Psi') of v'' - v + s = 0 for source values s on grid.

    s runs along its last axis: a (k, n) stack of sources is k solves in
    one filter call, each row bit for bit its own 1-D solve.
    """
    # left and right are the sweeps' own arrays, completed in place
    left, right = _sweeps(s, grid.h)
    TL, TR = tail_integrals(s, right_rate)
    decay_left, decay_right = _edge_decay(grid)
    left += np.multiply.outer(TL, decay_left)
    right += np.multiply.outer(TR, decay_right)
    psi = left + right
    psi *= 0.5
    dpsi = right - left
    dpsi *= 0.5
    return psi, dpsi


def solve_psi(s: np.ndarray, grid: Grid, right_rate: float) -> np.ndarray:
    """Psi alone: solve_pair's first value."""
    return solve_pair(s, grid, right_rate)[0]


def psi_derivative(s: np.ndarray, grid: Grid,
                   right_rate: float) -> np.ndarray:
    """Psi' alone: solve_pair's second value."""
    return solve_pair(s, grid, right_rate)[1]
