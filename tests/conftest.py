"""Shared fixtures: the three canonical chains and their solved relations.

Building a chain re-runs every structural invariant, so the fixtures are
session-scoped to keep the suite fast; tests that need to measure build
time construct their own chains.
"""

from __future__ import annotations

import pytest

from relfix.chain import build_chain
from relfix.engines import compare_methods
from relfix.suites import canonical_specs


@pytest.fixture(scope="session")
def chains():
    return {
        name: build_chain(f, depth)
        for name, (f, depth) in canonical_specs().items()
    }


@pytest.fixture(scope="session")
def solved(chains):
    return {name: compare_methods(ch) for name, ch in chains.items()}


@pytest.fixture(scope="session")
def lazy_chain(chains):
    return chains["lazy_nat"]


@pytest.fixture(scope="session")
def stream_chain(chains):
    return chains["streams"]


@pytest.fixture(scope="session")
def reflexive_chain(chains):
    return chains["reflexive"]
