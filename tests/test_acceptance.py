"""Acceptance gate: every claim of the paper that `verify-paper` checks
runs at its stated tolerance, one pass/fail line per claim (pytest -v).
Library-level identities and oracles are tested in the other test files.

The three PS# sweeps are exhaustive over all 2^17 (shift, affine) pairs
each; after the one-time subspace-index build they take about 35 ms in
total (8-16 ms each), and this file runs in about 0.3 seconds, 0.53 s of
wall time with interpreter start-up (2 vCPUs).
"""

import pytest

from bentforge import verify
from bentforge.verify import CLAIMS


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"c{c.criterion:02d}-{c.name}" for c in CLAIMS]
)
def test_acceptance(claim):
    ok, detail = claim.run()
    assert ok, f"criterion {claim.criterion} [{claim.name}]: {detail}"


@pytest.mark.parametrize("constant", [False, True])
def test_concat_algebra_claim_fails_on_a_constant_condition(monkeypatch, constant):
    # half the claim's quadruples are bent by construction, so a condition
    # that ignores its input disagrees with bentness on the other half
    monkeypatch.setattr(verify, "dual_bent_condition", lambda q: constant)
    ok, _ = verify._claim_concat_algebra()
    assert not ok
