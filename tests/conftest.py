"""Shared fixtures and frozen derived constants.

GIRTH6_P is the first circulant size found by scanning the built-in
pair upward from 3 at which both check matrices reach girth 6; the
LARGE variant is the 4x size used for the length-scaling comparison.
Both were recorded from the initial scan and are asserted against a
re-scan in the acceptance suite.
"""

from __future__ import annotations

import pytest

from qcldpc import build_code, builtin_pair_j3_l8

GIRTH6_P = 25
GIRTH6_P_LARGE = 100


@pytest.fixture(scope="session")
def pair():
    return builtin_pair_j3_l8()


@pytest.fixture(scope="session")
def code25(pair):
    """Smallest girth-6 code of the built-in family (n = 200)."""
    return build_code(pair, GIRTH6_P)


@pytest.fixture(scope="session")
def code100(pair):
    """The length-scaling code (n = 800)."""
    return build_code(pair, GIRTH6_P_LARGE)


@pytest.fixture(scope="session")
def code5(pair):
    """Desk-size code (n = 40) for brute-force oracles."""
    return build_code(pair, 5)
