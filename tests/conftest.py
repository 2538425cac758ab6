"""Shared fixtures: wave profiles are expensive, so build each once.

Construction wall times are recorded in BUILD_TIMES so the acceptance
tests can charge themselves the full cost of the profiles they use.
"""

import time

import pytest

from chemowave.fields import Grid
from chemowave.params import Params
from chemowave.waves import (WaveProblem, construct_fixed_point,
                             construct_relax, settle)

BUILD_TIMES: dict[str, float] = {}


def pytest_configure(config):
    # every property test draws the same examples on every run.
    # hypothesis is imported here, not at module level: perfbench imports
    # this module (through test_acceptance) for TOLERANCES, and the
    # import would add to the benchmark's peak RSS
    from hypothesis import settings
    settings.register_profile("chemowave", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("chemowave")


def _timed(name, builder):
    t0 = time.perf_counter()
    out = builder()
    BUILD_TIMES[name] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def wave_grid():
    return Grid.from_bounds(-100.0, 100.0, 0.05)


@pytest.fixture(scope="session")
def fisher_profile(wave_grid):
    return _timed("fisher_profile", lambda: construct_fixed_point(
        WaveProblem(params=Params(0.0), c=3.0, grid=wave_grid)))


@pytest.fixture(scope="session")
def neg_profile(wave_grid):
    return _timed("neg_profile", lambda: construct_fixed_point(
        WaveProblem(params=Params(-1.0), c=4.0, grid=wave_grid)))


@pytest.fixture(scope="session")
def neg_relax_profile(wave_grid):
    return _timed("neg_relax_profile", lambda: construct_relax(
        WaveProblem(params=Params(-1.0), c=4.0, grid=wave_grid)))


@pytest.fixture(scope="session")
def pos_profile(wave_grid):
    return _timed("pos_profile", lambda: construct_fixed_point(
        WaveProblem(params=Params(0.25), c=2.5, grid=wave_grid)))


@pytest.fixture(scope="session")
def stability_grid():
    # right edge kept shallow: the e^{2 eta x} weight amplifies round-off
    # at the far tail (see stability module docstring)
    return Grid.from_bounds(-60.0, 45.0, 0.05)


def _settled(params, grid):
    return settle(construct_fixed_point(
        WaveProblem(params=params, c=3.0, grid=grid)))


@pytest.fixture(scope="session")
def stab_fisher_profile(stability_grid):
    return _timed("stab_fisher_profile",
                  lambda: _settled(Params(0.0), stability_grid))


@pytest.fixture(scope="session")
def stab_small_chi_profile(stability_grid):
    return _timed("stab_small_chi_profile",
                  lambda: _settled(Params(-0.01), stability_grid))
