"""Shared fixtures: canonical small instances reused across test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from contractlab import Instance, hardness, uniform_distribution
from helpers import three_element_setcover

# One profile for every property test: the examples are derandomised (the
# same on every run), nothing is written to an example database, and no
# per-example deadline applies.  Tests set only their max_examples.
settings.register_profile("contractlab", deadline=None, derandomize=True, database=None)
settings.load_profile("contractlab")


@pytest.fixture
def desk_instance() -> Instance:
    """Two actions, two outcomes: idle (free, outcome 0) vs work (cost 1/2,
    outcome 1); rewards (0, 1)."""
    return Instance(
        F=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        r=(Fraction(0), Fraction(1)),
        c=(Fraction(0), Fraction(1, 2)),
        labels=("idle", "work"),
    )


@pytest.fixture
def uniform_gamma():
    return uniform_distribution()


@pytest.fixture(scope="session")
def three_element_reduced() -> hardness.ReducedInstance:
    return hardness.reduce(three_element_setcover())


@pytest.fixture(scope="session")
def n2_reduced() -> hardness.ReducedInstance:
    return hardness.reduce(hardness.SetCoverInput(n=2, sets=((1, 2),)))
