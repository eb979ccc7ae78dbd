"""Type distributions: interval masses, CDF, grids, discretization, sampling."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    Discrete,
    PiecewiseConstant,
    UsageError,
    density_bound,
    discretize,
    interval_mass,
    rng_new,
    uniform_distribution,
)
from contractlab.dist import grid_points, grid_size, sample_many
from helpers import cdf, cellwise_discretize, ks_statistic, random_piecewise

F = Fraction

HALF_HEAVY = PiecewiseConstant(
    breakpoints=(F(0), F(1, 2), F(1)), densities=(F(3, 2), F(1, 2))
)


# ---------------------------------------------------------------------------
# Interval mass and density bound
# ---------------------------------------------------------------------------


def test_uniform_interval_mass():
    u = uniform_distribution()
    assert interval_mass(u, F(1, 4), F(3, 4)) == F(1, 2)
    assert interval_mass(u, 0, 1, closed_lo=True) == 1
    assert interval_mass(u, F(1, 3), F(1, 3)) == 0


def test_piecewise_interval_mass():
    # 1.5 * 0.1 + 0.5 * 0.1 = 0.2, computed exactly
    assert interval_mass(HALF_HEAVY, F(2, 5), F(3, 5)) == F(1, 5)
    assert interval_mass(HALF_HEAVY, 0, F(1, 2)) == F(3, 4)


def test_discrete_interval_mass_endpoints():
    d = Discrete(points=(F(1, 4), F(1, 2)), weights=(F(1, 3), F(2, 3)))
    assert interval_mass(d, F(1, 4), F(1, 2)) == F(2, 3)  # lo atom excluded
    assert interval_mass(d, F(1, 4), F(1, 2), closed_lo=True) == 1
    assert interval_mass(d, 0, F(1, 4)) == F(1, 3)  # hi atom included


def test_interval_mass_additive():
    gen = random.Random(3)
    for _ in range(20):
        d = random_piecewise(gen)
        a, b, c = sorted(F(gen.randrange(0, 17), 16) for _ in range(3))
        whole = interval_mass(d, a, c)
        split = interval_mass(d, a, b) + interval_mass(d, b, c)
        assert whole == split


def test_interval_mass_validation():
    with pytest.raises(UsageError):
        interval_mass(uniform_distribution(), F(3, 4), F(1, 4))


def test_density_bound():
    assert density_bound(uniform_distribution()) == 1
    assert density_bound(HALF_HEAVY) == F(3, 2)
    with pytest.raises(UsageError):
        density_bound(Discrete(points=(F(1, 2),), weights=(F(1),)))


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------


def test_cdf_uniform_and_piecewise():
    u = uniform_distribution()
    assert cdf(u, 0.3) == pytest.approx(0.3)
    assert cdf(HALF_HEAVY, 0.5) == pytest.approx(0.75)
    assert cdf(HALF_HEAVY, 0.75) == pytest.approx(0.875)
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.allclose(cdf(HALF_HEAVY, xs), [0.0, 0.375, 0.75, 1.0])


def test_cdf_discrete_steps():
    d = Discrete(points=(F(1, 4), F(3, 4)), weights=(F(1, 2), F(1, 2)))
    assert cdf(d, 0.1) == 0.0
    assert cdf(d, 0.25) == pytest.approx(0.5)
    assert cdf(d, 0.5) == pytest.approx(0.5)
    assert cdf(d, 1.0) == pytest.approx(1.0)


def test_cdf_matches_interval_mass():
    gen = random.Random(9)
    for _ in range(10):
        d = random_piecewise(gen)
        a, b = sorted(F(gen.randrange(0, 33), 32) for _ in range(2))
        assert cdf(d, float(b)) - cdf(d, float(a)) == pytest.approx(
            float(interval_mass(d, a, b)), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Validation of the distribution types
# ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(UsageError):
        Discrete(points=(F(1, 2),), weights=(F(1, 2),))  # mass 1/2
    with pytest.raises(UsageError):
        Discrete(points=(F(3, 4), F(1, 4)), weights=(F(1, 2), F(1, 2)))
    with pytest.raises(UsageError):
        PiecewiseConstant(breakpoints=(F(0), F(1)), densities=(F(2),))
    with pytest.raises(UsageError):
        PiecewiseConstant(breakpoints=(F(1, 4), F(1)), densities=(F(4, 3),))
    with pytest.raises(UsageError):
        PiecewiseConstant(
            breakpoints=(F(0), F(1, 2), F(1)), densities=(F(-1), F(3))
        )
    with pytest.raises(UsageError):
        Discrete(points=(F(1, 2), F(1, 2)), weights=(F(1, 2), F(1, 2)))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Discrete((F(1, 4), F(3, 4)), (F(-1, 2), F(3, 2))),
                     "weights must be nonnegative", id="negative-weight"),
        pytest.param(lambda: Discrete((0.25, 0.75), (0.5, 0.25)),
                     "weights must sum to 1, got 0.75", id="float-weights-off-1"),
        pytest.param(lambda: Discrete((F(1, 4), F(3, 4)), (F(1),)),
                     "points and weights must be equal nonzero length", id="length-mismatch"),
        pytest.param(lambda: Discrete((F(3, 2),), (F(1),)),
                     "points must lie in [0,1]", id="point-outside"),
        pytest.param(lambda: PiecewiseConstant((F(0), F(1, 2), F(1)), (F(1),)),
                     "need K+1 breakpoints for K densities", id="breakpoint-count"),
        pytest.param(lambda: PiecewiseConstant((F(0), F(1, 2), F(1, 2), F(1)),
                                               (F(1), F(1), F(1))),
                     "breakpoints must be strictly increasing", id="breakpoints-repeat"),
        pytest.param(lambda: PiecewiseConstant((0.0, 1.0), (0.5,)),
                     "density must integrate to 1, got 0.5", id="float-density-off-1"),
    ],
)
def test_distribution_messages(build, message):
    with pytest.raises(UsageError) as err:
        build()
    assert type(err.value) is UsageError
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Grids and discretization
# ---------------------------------------------------------------------------


def test_grid_points():
    assert grid_points(F(1, 2)) == (F(1, 4), F(3, 4))
    assert grid_points(F(1)) == (F(1, 2),)
    # 3.5 * 0.3 overshoots, so the last point clamps to 1
    assert grid_points(F(3, 10)) == (F(3, 20), F(9, 20), F(3, 4), F(1))
    for bad in (0, F(-1, 2), F(3, 2), 1.5, float("nan")):
        with pytest.raises(UsageError, match="grid width must lie in"):
            grid_size(bad)


@settings(max_examples=200)
@given(
    num=st.integers(1, 200), den=st.integers(1, 2000), as_float=st.booleans()
)
def test_grid_size_counts_grid_points(num, den, as_float):
    # grid_size counts the grid without building it, by grid_points' own rule
    delta = F(min(num, den), den)
    if as_float:
        delta = float(delta)
    assert grid_size(delta) == len(grid_points(delta))


def test_discretize_uniform_half():
    grid = discretize(uniform_distribution(), F(1, 2))
    assert grid.points == (F(1, 4), F(3, 4))
    assert grid.weights == (F(1, 2), F(1, 2))


def test_discretize_single_cell():
    grid = discretize(uniform_distribution(), F(1))
    assert grid.points == (F(1, 2),)
    assert grid.weights == (F(1),)


def test_discretize_piecewise_half():
    grid = discretize(HALF_HEAVY, F(1, 2))
    assert grid.weights == (F(3, 4), F(1, 4))


def test_discretize_weights_sum_to_one_exactly():
    gen = random.Random(17)
    for _ in range(20):
        d = random_piecewise(gen)
        delta = F(1, gen.randrange(2, 9)) * gen.randrange(1, 3)
        if delta > 1:
            delta = F(1)
        grid = discretize(d, delta)
        assert sum(grid.weights) == 1
        assert len(grid.points) == len(grid.weights)


@st.composite
def exact_densities(draw) -> PiecewiseConstant:
    denom = draw(st.sampled_from((8, 9, 2**30)))
    cuts = draw(st.lists(st.integers(1, denom - 1), max_size=5, unique=True))
    bps = [F(0)] + [F(x, denom) for x in sorted(cuts)] + [F(1)]
    raw = draw(
        st.lists(st.integers(0, 5), min_size=len(bps) - 1, max_size=len(bps) - 1)
        .filter(any)
    )
    total = sum(w * (b - a) for w, a, b in zip(raw, bps, bps[1:]))
    return PiecewiseConstant(tuple(bps), tuple(w / total for w in raw))


@settings(max_examples=150)
@given(
    d=exact_densities(),
    delta=st.tuples(st.integers(1, 40), st.integers(1, 40))
    .filter(lambda t: t[0] <= t[1])
    .map(lambda t: F(*t)),
)
def test_discretize_sweep_matches_cellwise_interval_mass(d, delta):
    # zero pieces, cells that hold several pieces and pieces that span
    # several cells: the one sweep gives every cell's exact interval mass
    got = discretize(d, delta)
    assert got == cellwise_discretize(d, delta)
    assert all(type(w) is F for w in got.weights)


def test_discretize_float_width_is_per_cell():
    grid = discretize(HALF_HEAVY, 0.3)
    assert grid == cellwise_discretize(HALF_HEAVY, 0.3)
    assert all(type(w) is float for w in grid.weights)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_single_atom():
    d = Discrete(points=(F(3, 10),), weights=(F(1),))
    assert (sample_many(d, rng_new(0), 10) == 0.3).all()


def test_sample_uniform_mean():
    draws = sample_many(uniform_distribution(), rng_new(1), 100_000)
    assert abs(float(draws.mean()) - 0.5) < 0.01


def test_sample_piecewise_ks():
    d = HALF_HEAVY
    draws = np.sort(sample_many(d, rng_new(2), 100_000))
    # analytic CDF recomputed locally: 1.5x on [0, 1/2], 0.75 + 0.5(x - 1/2)
    analytic = np.where(draws <= 0.5, 1.5 * draws, 0.75 + 0.5 * (draws - 0.5))
    assert ks_statistic(draws, analytic) < 0.01


def test_sample_discrete_frequencies():
    d = Discrete(points=(F(1, 4), F(1, 2), F(1)), weights=(F(1, 2), F(1, 3), F(1, 6)))
    draws = sample_many(d, rng_new(3), 60_000)
    counts = np.array([(draws == 0.25).sum(), (draws == 0.5).sum(), (draws == 1.0).sum()])
    assert counts.sum() == 60_000
    expected = 60_000 * np.array([1 / 2, 1 / 3, 1 / 6])
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 13.816  # chi-square, 2 degrees of freedom, p = 0.001
