"""Model parameters and every closed-form constant of the wave theory.

The system is

    u_t = u_xx - chi (u^m v_x)_x + u (1 - u^alpha),
    0   = v_xx - v + u^gamma,

with m, alpha, gamma >= 1 and chi real.  Everything here is a pure
function of (chi, m, alpha, gamma) and, where noted, the wave speed c.
The decay exponent of a front with speed c >= 2 is

    kappa = (c - sqrt(c^2 - 4)) / 2,

the smaller root of kappa^2 - c*kappa + 1 = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, RegimeError, SpeedError

#: Exponent used throughout the stability constant chain; fixed, read-only.
SIGMA = 1.0 / 6.0

#: Multiplicative gap between M and the slightly enlarged bound used when
#: predicting weighted-norm decay rates (any factor > 1 works; this one is
#: fixed for reproducibility).
TILDE_FACTOR = 1.01


@dataclass(frozen=True)
class Params:
    """Model exponents and chemotaxis sensitivity."""

    chi: float
    m: float = 1.0
    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.chi):
            raise DomainError("chi non-finite")
        for name in ("m", "alpha", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} non-finite")
            if v < 1.0:
                raise DomainError(f"{name} must be >= 1")


def _closed_form(fn):
    """fn(p, ...) with a float overflow (Python's ** raises one) as a
    DomainError naming fn and the parameters p."""
    @functools.wraps(fn)
    def checked(p: Params, *args, **kwargs):
        try:
            return fn(p, *args, **kwargs)
        except OverflowError:
            name = fn.__name__.lstrip("_")
            raise DomainError(
                f"{name} overflows at chi={p.chi:g}, m={p.m:g}, "
                f"alpha={p.alpha:g}, gamma={p.gamma:g}") from None
    return checked


class RegimeTag(Enum):
    """Which set of hypotheses (if any) the parameters satisfy."""

    NEG_CHI_ALPHA_LE = "NegChi_AlphaLE"    # chi <= 0, alpha <= m+gamma-1
    POS_CHI_ALPHA_EQ = "PosChi_AlphaEQ"    # 0 <= chi < min{1/2, chi*}, alpha = m+gamma-1
    POS_CHI_ALPHA_GT = "PosChi_AlphaGT"    # chi > 0, alpha > m+gamma-1
    OUTSIDE = "Outside"


def classify_regime(p: Params) -> RegimeTag:
    edge = p.m + p.gamma - 1.0
    if p.chi <= 0 and p.alpha <= edge:
        return RegimeTag.NEG_CHI_ALPHA_LE
    if 0 <= p.chi < min(0.5, chi_star(p.m, p.gamma)) and p.alpha == edge:
        return RegimeTag.POS_CHI_ALPHA_EQ
    if p.chi > 0 and p.alpha > edge:
        return RegimeTag.POS_CHI_ALPHA_GT
    return RegimeTag.OUTSIDE


def kappa_of_speed(c: float) -> float:
    """Smaller root of kappa^2 - c*kappa + 1 = 0, in (0, 1] for c >= 2."""
    if c < 2.0:
        raise DomainError("c must be >= 2 (roots complex below the minimal speed)")
    kappa = (c - math.sqrt(c * c - 4.0)) / 2.0
    if not kappa > 0.0:
        # from c ~ 1.34e8 sqrt(c^2 - 4) rounds to c, and above ~1.3e154
        # c^2 overflows
        raise DomainError(f"c = {c:g} too large: kappa = (c - sqrt(c^2 - 4))"
                          f" / 2 evaluates to {kappa:g}, not > 0")
    return kappa


@_closed_form
def c_star(p: Params) -> float:
    """Lower speed threshold for wave existence with chi <= 0."""
    s = math.sqrt(p.m * p.gamma * abs(p.chi) + p.gamma ** 2 * abs(p.chi) + p.gamma ** 2)
    return max(1.0 / p.m + p.m, 1.0 / s + s)


def chi_star(m: float, gamma: float) -> float:
    """Positive-sensitivity threshold min{1, (2m+2g)/(m^2+m+2g)}."""
    return min(1.0, (2.0 * m + 2.0 * gamma) / (m * m + m + 2.0 * gamma))


def M_chi(p: Params) -> float:
    """Asymptotic sup bound for u: 1 when chi <= 0, (1/(1-chi))^(1/alpha) otherwise."""
    if p.chi >= 1.0:
        raise DomainError("chi must be < 1")
    if p.chi <= 0:
        return 1.0
    return (1.0 / (1.0 - p.chi)) ** (1.0 / p.alpha)


def kappa1_default(p: Params, kappa: float) -> float:
    """Midpoint of the admissible refined-decay interval (kappa, kappa1_max)."""
    hi = kappa1_max(p, kappa)
    if hi <= kappa:
        raise DomainError("empty refined-decay interval (c too close to 2)")
    return 0.5 * (kappa + hi)


def kappa1_max(p: Params, kappa: float) -> float:
    return min((1.0 + p.alpha) * kappa, p.m * kappa + 0.5, 1.0)


# ----------------------------------------------------------------------
# Explicit barrier constants (sub/super-solution parameters)
# ----------------------------------------------------------------------

@_closed_form
def M_barrier(p: Params, kappa: float) -> float:
    """Largest plateau admissible for the super-solution, chi <= 0 branch."""
    return 1.0 / (kappa * math.sqrt(
        p.gamma ** 2 + p.gamma ** 2 * abs(p.chi) + p.m * p.gamma * abs(p.chi)))


@dataclass(frozen=True)
class BarrierConstants:
    """K, D, d and the sub-solution geometry for given (kappa, kappa_tilde, M)."""

    kappa: float
    kappa_tilde: float
    M: float
    M_barrier: float
    K: float
    D_sub: float
    d_sub: float
    x_minus: float
    x_plus: float


@_closed_form
def barrier_constants(p: Params, kappa: float, kappa_tilde: float,
                      M: float = 1.0) -> BarrierConstants:
    """Evaluate the explicit sub-solution constants.

    When kappa_tilde = 2*kappa with gamma*kappa < 1 and kappa < 1/2, the
    simplified constants are used (they bound the general ones from above);
    otherwise the general three-branch K and the raw D, d formulas apply.
    """
    chi = abs(p.chi)
    if kappa <= 0 or kappa >= 1:
        raise DomainError("kappa must lie in (0, 1)")
    if kappa_tilde <= kappa:
        raise DomainError("kappa_tilde must exceed kappa")
    c = kappa + 1.0 / kappa
    gk = p.gamma * kappa

    denom = c * kappa_tilde - kappa_tilde ** 2 - 1.0
    if denom <= 0:
        raise DomainError("c*kt - kt^2 - 1 <= 0: sub-solution denominator vanishes")

    simplified = (kappa_tilde == 2.0 * kappa) and gk < 1.0 and kappa < 0.5
    if simplified:
        K = (3.0 * p.m * kappa + 1.0) / (1.0 - gk * gk)
        D = 2.0 * (1.0 + chi * K)
        d = min(1.0 / (1.0 + chi), 1.0 / (4.0 * D))
    else:
        pref = p.m * (kappa_tilde + kappa) + 1.0
        if gk == 1.0:
            K = pref * (M ** p.gamma + 0.75)
        elif gk < 1.0:
            K = pref / (1.0 - gk * gk)
        else:
            K = pref * (M ** p.gamma * (gk * gk - 1.0) + gk) / (gk * gk - 1.0)
        D = (1.0 + chi * K) / denom
        d = min(1.0 / (1.0 + chi),
                (kappa / (kappa_tilde * D)) ** (kappa / (kappa_tilde - kappa))
                * (1.0 - kappa / kappa_tilde))

    return BarrierConstants(
        kappa=kappa, kappa_tilde=kappa_tilde, M=M,
        M_barrier=M_barrier(p, kappa), K=K, D_sub=D, d_sub=d,
        x_minus=math.log(D) / (kappa_tilde - kappa),
        x_plus=math.log(kappa_tilde * D / kappa) / (kappa_tilde - kappa),
    )


# ----------------------------------------------------------------------
# Stability constant chain: b1..b4, D', D'', c1..c3, c**
# ----------------------------------------------------------------------

def _M_prime(p: Params, M: float) -> float:
    a = abs(p.chi)
    return a * M ** (p.m + p.gamma) + M ** (1.0 + p.alpha)


def _M_dprime(p: Params, M: float) -> float:
    a = abs(p.chi)
    return 2.0 * ((1.0 + 2.0 * a * M ** (p.m + p.gamma - 1.0) + M ** p.alpha) * a ** (2 * SIGMA)
                  + a * p.m * M ** (p.m - 1.0)
                  * (a * M ** (p.m + p.gamma) + M ** (p.alpha + 1.0))
                  * (p.gamma + a ** SIGMA))


def _M_tprime(p: Params, M: float) -> float:
    # Slope-to-value bound |u_x/u| * |chi|^{2 sigma}; the published form
    # branches on c <=> 2.5, and the chain needs a c-free number, so take
    # the max of the two branches (each bounds its own speed range).
    a = abs(p.chi)
    q = 2.5 + a * p.m * M ** (p.m + p.gamma - 1.0)
    low = (a ** (2 * SIGMA) / 2.0) * (
        q + math.sqrt(q * q + 4.0 * a * M ** (p.m + p.gamma - 1.0) + 4.0 * M ** p.alpha))
    high = max(8.0 * (1.0 + a + 2.0 * p.m * a) * (p.gamma + a ** SIGMA) / (1.0 + p.gamma)
               * _M_prime(p, M),
               2.0 * _M_dprime(p, M))
    return max(low, high)


@_closed_form
def _bD_chain(p: Params, M_hat: float, M_base: float):
    """b1..b4, D', D'' evaluated with the sup bound M_hat."""
    a = abs(p.chi)
    e = p.m + p.gamma - 1.0
    b1 = p.m * M_hat ** e
    if p.m == 1.0:
        b2 = 0.0
    elif p.m >= 2.0:
        b2 = a ** SIGMA * p.m * (p.m - 1.0) * M_hat ** e * (
            a * M_hat ** (p.m + p.gamma) + M_hat * (M_hat ** p.alpha - 1.0))
    else:
        b2 = p.m * M_hat ** e * _M_tprime(p, M_base)
    b3 = p.m * M_hat ** (p.m - 1.0) * (a * M_hat ** (p.m + p.gamma) + M_hat ** (1.0 + p.alpha))
    b4 = M_hat ** p.m
    g2 = p.gamma ** 2
    D_prime = a ** (3 * SIGMA) * b1 + (b3 / 2.0) * (a ** (2 * SIGMA) + g2 * (1.0 + a ** SIGMA) ** 2)
    D_dprime = (0.5 * a ** (1.0 + SIGMA) * b1
                + a ** (3 * SIGMA) * (2.0 * p.m + p.gamma) * M_hat ** e
                + a ** SIGMA * b2
                + (a ** SIGMA / 2.0) * b3 * (a ** SIGMA + g2 * (1.0 + a ** SIGMA))
                + 0.5 * a ** (3 * SIGMA) * M_hat ** p.m
                * (a ** (2 * SIGMA) + g2 * (1.0 + a ** SIGMA) ** 2))
    return b1, b2, b3, b4, D_prime, D_dprime


@dataclass(frozen=True)
class ConstantsReport:
    """Every named constant for given parameters (and optionally a speed c).

    Speed-dependent fields are NaN when no c was supplied.
    """

    chi: float
    m: float
    alpha: float
    gamma: float
    sigma: float
    c_star: float
    chi_star: float
    M_chi: float
    M_prime: float
    M_dprime: float
    M_tprime: float
    b1: float
    b2: float
    b3: float
    b4: float
    D_prime: float
    D_dprime: float
    c1: float
    c2: float
    c3: float
    c_star_star: float
    # speed-dependent entries
    c: float = math.nan
    kappa: float = math.nan
    kappa1: float = math.nan
    kappa_tilde: float = math.nan
    M_barrier: float = math.nan
    K: float = math.nan
    D_sub: float = math.nan
    d_sub: float = math.nan
    x_minus: float = math.nan
    x_plus: float = math.nan
    M_tilde: float = math.nan
    M1: float = math.nan
    M2: float = math.nan


@_closed_form
def constants_report(p: Params, c: float | None = None) -> ConstantsReport:
    a = abs(p.chi)
    M = M_chi(p)
    c1 = p.gamma + a ** SIGMA + 1.0 / (p.gamma + a ** SIGMA)
    c2 = p.m * a * M ** (p.m + p.gamma - 1.0) + a ** SIGMA
    b1, b2, b3, b4, Dp, Dpp = _bD_chain(p, M, M)
    c3 = a ** (1 - 3 * SIGMA) * Dp + 2.0 * math.sqrt(1.0 + a ** (1 - 3 * SIGMA) * Dpp)
    base = dict(
        chi=p.chi, m=p.m, alpha=p.alpha, gamma=p.gamma, sigma=SIGMA,
        c_star=c_star(p), chi_star=chi_star(p.m, p.gamma), M_chi=M,
        M_prime=_M_prime(p, M), M_dprime=_M_dprime(p, M), M_tprime=_M_tprime(p, M),
        b1=b1, b2=b2, b3=b3, b4=b4, D_prime=Dp, D_dprime=Dpp,
        c1=c1, c2=c2, c3=c3, c_star_star=max(c1, c2, c3),
    )
    if c is None:
        return ConstantsReport(**base)

    kappa = kappa_of_speed(c)
    try:
        kappa_tilde = default_kappa_tilde(p, kappa)
        bc = barrier_constants(p, kappa, kappa_tilde, M=M)
    except DomainError:
        # c at (or too near) the minimal speed: no admissible kappa_tilde,
        # so the sub-solution constants are undefined
        nanbc = BarrierConstants(kappa=kappa, kappa_tilde=math.nan, M=M,
                                 M_barrier=M_barrier(p, kappa), K=math.nan,
                                 D_sub=math.nan, d_sub=math.nan,
                                 x_minus=math.nan, x_plus=math.nan)
        bc = nanbc
        kappa_tilde = math.nan
    gk = p.gamma * kappa
    e = p.m + p.gamma - 1.0
    M_tilde = 0.5 * (c + a * p.m * M ** e + math.sqrt(
        (c + a * p.m * M ** e) ** 2 + 4.0 * a * M ** e + 4.0 * M ** p.alpha))
    M1 = 1.0 + 2.0 * a * M ** e + M ** p.alpha
    drift = c - p.m * a * M ** e
    if drift > 0 and gk < 1.0:
        M2 = (a * p.m * M ** (p.m - 1.0) * (a * M ** (p.m + p.gamma) + M ** (p.alpha + 1.0))
              / (drift * (1.0 - gk * gk)))
    else:
        M2 = math.nan
    try:
        kappa1 = kappa1_default(p, kappa)
    except DomainError:
        kappa1 = math.nan
    return ConstantsReport(**base, c=c, kappa=kappa, kappa1=kappa1,
                           kappa_tilde=kappa_tilde,
                           M_barrier=bc.M_barrier, K=bc.K, D_sub=bc.D_sub,
                           d_sub=bc.d_sub, x_minus=bc.x_minus, x_plus=bc.x_plus,
                           M_tilde=M_tilde, M1=M1, M2=M2)


def default_kappa_tilde(p: Params, kappa: float) -> float:
    """2*kappa when admissible, else the cap min{(1+alpha)k, mk+1/2, 1}."""
    cap = kappa1_max(p, kappa)
    kt = min(2.0 * kappa, cap)
    if kt <= kappa:
        raise DomainError("no admissible kappa_tilde (kappa too close to 1)")
    return kt


def require_speed_above(p: Params, c: float) -> float:
    """The speed threshold of p's wave regime, which c must exceed: c*
    for chi <= 0 with alpha <= m + gamma - 1, 2 for 0 < chi < min{1/2,
    chi*} with alpha = m + gamma - 1.  SpeedError if c does not exceed
    it, RegimeError outside both regimes.  The one admissibility gate of
    the wave lane and of certify: barriers.default_barrier_spec calls it."""
    tag = classify_regime(p)
    if tag is RegimeTag.NEG_CHI_ALPHA_LE:
        thr = c_star(p)
        if c <= thr:
            raise SpeedError(f"c below c_star: need c > {thr:.6g}, got {c:.6g}")
        return thr
    if tag is RegimeTag.POS_CHI_ALPHA_EQ:
        if c <= 2.0:
            raise SpeedError(f"c below minimal speed 2, got {c:.6g}")
        return 2.0
    raise RegimeError(
        "parameters outside the wave-construction regimes "
        f"(chi={p.chi}, m={p.m}, alpha={p.alpha}, gamma={p.gamma})")
