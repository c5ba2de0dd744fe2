import time
from types import SimpleNamespace

import pytest

from sexticsolid.bundle import discriminant, random_instance
from sexticsolid.errors import DegenerateDiscriminant
from sexticsolid.singular import node_census

PRIME = 32003


@pytest.fixture(scope="session")
def seed1():
    """One generic instance shared by the unit tests."""
    d = random_instance(PRIME, 1)
    delta = discriminant(d)
    census = node_census(d, 1)
    assert census.verdict == "generic_31_nodes", "seed 1 is pinned as generic"
    return SimpleNamespace(d=d, delta=delta, census=census)


@pytest.fixture(scope="session")
def census_suite():
    """Ten consecutive seeds at the default prime, with census timings;
    shared by the acceptance criteria."""
    entries = []
    for seed in range(1, 11):
        d = random_instance(PRIME, seed)
        try:
            delta = discriminant(d)
        except DegenerateDiscriminant:
            entries.append(SimpleNamespace(seed=seed, d=d, delta=None,
                                           census=None, seconds=0.0))
            continue
        t0 = time.monotonic()
        census = node_census(d, seed)
        entries.append(SimpleNamespace(seed=seed, d=d, delta=delta,
                                       census=census,
                                       seconds=time.monotonic() - t0))
    return entries
