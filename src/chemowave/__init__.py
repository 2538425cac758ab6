"""1D chemotaxis reaction-diffusion toolkit: fronts, barriers, stability."""

__version__ = "0.1.0"

from .fields import Field, Grid
from .params import (ConstantsReport, Params, RegimeTag, SIGMA, c_star,
                     chi_star, classify_regime, constants_report,
                     kappa_of_speed, M_chi)
from .cauchy import SimConfig, State, monitor_bounds, run
from .barriers import BarrierSpec, certify, eval_sub, eval_super
from .waves import (WaveProblem, WaveProfile, construct, construct_fixed_point,
                    construct_relax, diagnose, normalize_translation, settle)
from .stability import apriori_checks, predicted_lambda, run_stability
from .speed import FrontTrack, spreading_speed, sweep_speeds

__all__ = [
    "Field", "Grid", "Params", "RegimeTag", "ConstantsReport",
    "SIGMA", "c_star", "chi_star", "classify_regime",
    "constants_report", "kappa_of_speed", "M_chi",
    "SimConfig", "State", "monitor_bounds", "run",
    "BarrierSpec", "certify", "eval_sub", "eval_super",
    "WaveProblem", "WaveProfile", "construct", "construct_fixed_point",
    "construct_relax", "diagnose", "normalize_translation", "settle",
    "apriori_checks", "predicted_lambda", "run_stability",
    "FrontTrack", "spreading_speed", "sweep_speeds",
    "__version__",
]
