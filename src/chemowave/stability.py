"""Weighted-norm stability experiments and a-priori profile estimates.

The stability experiment perturbs a converged profile U* by a compact
Gaussian bump, evolves the coupled system in the moving frame, and
tracks the weighted energy

    W(t) = int exp(2 eta x) |u(t,x) - U*(x)|^2 dx,

which the energy estimate bounds by W(0) exp(2 lambda t) with

    lambda(eta) = eta^2 - (c - |chi|^(1-3s) D') eta + (1 + |chi|^(1-3s) D''),

s = 1/6, and D', D'' the explicit constant chain evaluated at a sup
bound slightly above M_chi.  A run PASSes when W drops by the required
relative factor and stays under the predicted envelope (slack factor 10
absorbing transients).  It steps the profile's own problem
(WaveProblem.stepper at the profile's c_eff) through `cauchy.march` and
reads W, supdiff and the truncation flag from each sample's arrays.
`weighted_norm` is the one formula of W and of that flag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cauchy import StepStats, march, solve_v
from .errors import DomainError, TruncationWarning
from .fields import Field
from .params import (Params, SIGMA, TILDE_FACTOR, _bD_chain, M_chi,
                     constants_report, kappa_of_speed)
from .waves import WaveProfile

REL_DROP = 1e-4          # required relative decay of W at t_end
ENVELOPE_SLACK = 10.0    # transient allowance on the exp(2 lambda t) envelope
OUTPUT_EVERY = 0.25      # sampling interval of W(t)
BUMP_AMPLITUDE = 0.05    # Gaussian bump added to the profile ...
BUMP_CENTER = 0.0
BUMP_WIDTH = 1.0
BUMP_CUTOFF = 8.0        # ... zeroed beyond center +- this many widths


def bump(x: np.ndarray) -> np.ndarray:
    """The stability lab's perturbation, sampled at x."""
    z = (x - BUMP_CENTER) / BUMP_WIDTH
    b = BUMP_AMPLITUDE * np.exp(-0.5 * z * z)
    b[np.abs(z) > BUMP_CUTOFF] = 0.0
    return b


@dataclass
class DecayRecord:
    times: np.ndarray
    W: np.ndarray
    supdiff: np.ndarray
    lambda_pred: float
    eta: float
    passed: bool
    stats: StepStats                         # the run's time steps
    truncated_from_t: float | None = None    # first sample weighted_norm flags


def weighted_norm(u: np.ndarray, ustar: np.ndarray, weight: np.ndarray,
                  h: float) -> tuple[float, bool]:
    """(W, truncated): the trapezoid integral W of weight (u - ustar)^2 at
    spacing h, the weight e^{2 eta x} sampled on the grid; truncated when
    the integrand at the right edge is not negligible against its peak."""
    integrand = weight * (u - ustar) ** 2
    peak = integrand.max()
    truncated = bool(peak > 0 and integrand[-1] >= 1e-12 * peak)
    return float(np.trapezoid(integrand, dx=h)), truncated


def eta_window(params: Params, c: float) -> tuple[float, float]:
    """Roots (kappa-, kappa+) of the decay quadratic; empty window raises."""
    a = abs(params.chi)
    M = M_chi(params)
    _, _, _, _, Dp, Dpp = _bD_chain(params, M, M)
    lin = c - a ** (1 - 3 * SIGMA) * Dp
    disc = lin * lin - 4.0 * (1.0 + a ** (1 - 3 * SIGMA) * Dpp)
    if disc <= 0:
        raise DomainError("speed too small: decay quadratic has no real roots "
                          "(c below the stability threshold)")
    s = math.sqrt(disc)
    return (lin - s) / 2.0, (lin + s) / 2.0


def predicted_lambda(params: Params, c: float, eta: float) -> float:
    """Value of the decay quadratic at eta (negative inside the window).

    The chain is evaluated at the sup bound TILDE_FACTOR * M_chi.
    """
    km, kp = eta_window(params, c)
    if not (km < eta < kp):
        raise DomainError(
            f"eta={eta:.6g} outside the admissible window ({km:.6g}, {kp:.6g})")
    a = abs(params.chi)
    M_hat = TILDE_FACTOR * M_chi(params)
    _, _, _, _, Dp, Dpp = _bD_chain(params, M_hat, M_chi(params))
    s = a ** (1 - 3 * SIGMA)
    return eta * eta - (c - s * Dp) * eta + (1.0 + s * Dpp)


def default_eta(params: Params, c: float) -> float:
    """The weight eta of a stability run, inside eta_window.

    The midpoint of (kappa, 1/(1+|chi|^sigma)), the theorem's weight
    interval, where it lies inside eta_window; otherwise the midpoint of
    the two intervals' intersection.  DomainError names both intervals
    when they do not meet.
    """
    kappa = kappa_of_speed(c)
    hi = 1.0 / (1.0 + abs(params.chi) ** SIGMA)
    if hi <= kappa:
        raise DomainError("empty weight interval: c too small for this chi")
    km, kp = eta_window(params, c)
    eta = 0.5 * (kappa + hi)
    if km < eta < kp:
        return eta
    lo, up = max(kappa, km), min(hi, kp)
    if lo >= up:
        raise DomainError(
            f"no admissible eta: the weight interval ({kappa:.6g}, {hi:.6g})"
            f" and the decay window ({km:.6g}, {kp:.6g}) do not meet")
    return 0.5 * (lo + up)


def perturbed_initial(profile: WaveProfile) -> Field:
    u0 = profile.U.values + bump(profile.U.grid.x)
    if u0.min() < 0:
        raise DomainError("perturbed initial datum is negative")
    return Field(profile.U.grid, u0)


def run_stability(profile: WaveProfile, eta: float,
                  t_end: float) -> DecayRecord:
    """Evolve U* + bump in the moving frame and record the weighted decay.

    PASS requires W(t_end) <= REL_DROP * W(0) and
    W(t) <= ENVELOPE_SLACK * W(0) * exp(2 lambda t) for all t >= 1.
    truncated_from_t records the first sample that weighted_norm flags as
    truncated, and one TruncationWarning says so; it does not enter the
    verdict.
    """
    problem = profile.problem
    kappa = problem.kappa
    hi = 1.0 / (1.0 + abs(problem.params.chi) ** SIGMA)
    if not (kappa < eta < hi):
        raise DomainError(f"eta={eta:.6g} outside (kappa, 1/(1+|chi|^sigma)) "
                          f"= ({kappa:.6g}, {hi:.6g})")
    lam = predicted_lambda(problem.params, problem.c, eta)

    u0 = perturbed_initial(profile)
    # step with exactly the discrete operator the profile is a fixed point of
    config = problem.stepper(profile.c_eff, t_end, OUTPUT_EVERY,
                             pseudo_time=False)
    ustar, h = profile.U.values, problem.grid.h
    weight = np.exp(2.0 * eta * problem.grid.x)
    stats, times, W, supdiff = StepStats(), [], [], []
    truncated = []                 # sample times weighted_norm flags
    for t, u, _, _, dt, clamped, sample in march(config, u0):
        stats.add(dt, clamped)
        if sample:
            w, cut = weighted_norm(u, ustar, weight, h)
            times.append(t)
            W.append(w)
            supdiff.append(float(np.abs(u - ustar).max()))
            if cut:
                truncated.append(t)
    if truncated:
        warnings.warn("weighted integrand not negligible at the right "
                      "boundary", TruncationWarning, stacklevel=2)
    times, W, supdiff = np.array(times), np.array(W), np.array(supdiff)

    env_ok = all(W[i] <= ENVELOPE_SLACK * W[0] * math.exp(2.0 * lam * times[i])
                 for i in range(len(times)) if times[i] >= 1.0)
    passed = bool(env_ok and W[-1] <= REL_DROP * W[0])
    return DecayRecord(times=times, W=W, supdiff=supdiff, lambda_pred=lam,
                       eta=eta, passed=passed, stats=stats,
                       truncated_from_t=truncated[0] if truncated else None)


# ----------------------------------------------------------------------
# A-priori estimates on a computed profile
# ----------------------------------------------------------------------

@dataclass
class Check:
    name: str
    status: str           # "pass" | "fail" | "not_applicable"
    margin: float = math.nan
    location: float = math.nan


def apriori_checks(profile: WaveProfile) -> list[Check]:
    """Evaluate the explicit profile estimates with slack 1e-6 + h.

    Checks: sup bounds on |v| and |v_x| (with the refined exponential
    bound when gamma*kappa < 1), the two-sided bracket and the
    two-exponential envelope for U', and the slope-to-value bound
    |U'/U| <= M_tilde.  Each check reports pass/fail with its worst
    margin, or not_applicable when its hypothesis fails.
    """
    problem = profile.problem
    p, c, kappa = problem.params, problem.c, problem.kappa
    M = M_chi(p)
    rep = constants_report(p, c=c)
    slack = 1e-6 + profile.U.grid.h
    checks: list[Check] = []

    hyp = c > max(p.gamma + 1.0 / p.gamma, p.m * abs(p.chi) * M ** (p.m + p.gamma - 1.0))
    if not hyp:
        return [Check("hypothesis c > max{gamma+1/gamma, m|chi|M^(m+g-1)}",
                      "not_applicable")]

    def worst(name, excess, where):
        """Pass when the largest excess is at most slack; record where."""
        i = int(np.argmax(excess))
        checks.append(Check(name, "pass" if excess[i] <= slack else "fail",
                            float(excess[i]), float(where[i])))

    x = profile.U.grid.x
    # v and v_x from one solve, closed by the profile's own wave tails
    V, Vx = solve_v(p, profile.U.values, profile.U.grid, kappa)
    Mg = M ** p.gamma
    worst("abs(v) <= M_chi^gamma", np.abs(V) - Mg, x)
    worst("abs(v_x) <= M_chi^gamma", np.abs(Vx) - Mg, x)

    gk = p.gamma * kappa
    if gk < 1.0:
        refined = np.minimum(Mg, np.exp(-gk * x) / (1.0 - gk * gk))
        worst("abs(v) <= min{M^g, e^(-gkx)/(1-g^2k^2)}",
              np.abs(V) - refined, x)
        worst("abs(v_x) refined exponential bound", np.abs(Vx) - refined, x)
    else:
        checks.append(Check("refined v bounds", "not_applicable"))

    h = profile.U.grid.h
    Ux = (profile.U.values[2:] - profile.U.values[:-2]) / (2.0 * h)
    xi = x[1:-1]
    drift = c - p.m * abs(p.chi) * M ** (p.m + p.gamma - 1.0)
    lo = -(abs(p.chi) * M ** (p.m + p.gamma) + M) / drift
    hi = (abs(p.chi) * M ** (p.m + p.gamma) + M * (M ** p.alpha - 1.0)) / drift
    worst("U' within explicit bracket", np.maximum(lo - Ux, Ux - hi), xi)

    if gk < 1.0 and not math.isnan(rep.M2):
        env = (1.0 + 2.0 / c) * (rep.M1 * np.exp(-kappa * xi)
                                 + rep.M2 * np.exp(-gk * xi))
        worst("abs(U') <= (1+2/c)(M1 e^-kx + M2 e^-gkx)", np.abs(Ux) - env, xi)
    else:
        checks.append(Check("two-exponential U' envelope", "not_applicable"))

    Ui = profile.U.values[1:-1]
    pos = Ui > 1e-12
    worst("abs(U'/U) <= M_tilde", np.abs(Ux[pos]) / Ui[pos] - rep.M_tilde,
          xi[pos])
    return checks
