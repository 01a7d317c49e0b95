"""Acceptance gate: every claim of the paper that `verify-paper` checks
runs at its stated tolerance, one pass/fail line per claim (pytest -v).
Library-level identities and oracles are tested in the other test files.

The three PS# sweeps are exhaustive over all 2^17 (shift, affine) pairs
each; after the one-time subspace-index build they take about 0.3 seconds in
total (0.05-0.17 s each), and this file runs in about 1 second (2 vCPUs).
"""

import pytest

from bentforge.verify import CLAIMS


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"c{c.criterion:02d}-{c.name}" for c in CLAIMS]
)
def test_acceptance(claim):
    ok, detail = claim.run()
    assert ok, f"criterion {claim.criterion} [{claim.name}]: {detail}"
