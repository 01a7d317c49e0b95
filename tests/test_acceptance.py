"""Acceptance gate: every claim of the paper that `verify-paper` checks
runs at its stated tolerance, one pass/fail line per claim (pytest -v).
Library-level identities and oracles are tested in the other test files.

The three PS# sweeps are exhaustive over all 2^17 (shift, affine) pairs
each; after the one-time subspace-index build they take about 35 ms in
total (8-16 ms each), and this file runs in about 0.3 seconds, 0.53 s of
wall time with interpreter start-up (2 vCPUs).
"""

from types import SimpleNamespace

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


# per claim, the verify-module name to replace, its wrong answer, and the
# claim's detail line on that answer
WRONG_ANSWERS = {
    "delta0-mix-bent-outside-mm": (
        "is_in_mm_sharp",
        SimpleNamespace(basis=(1, 2)),
        "unexpected MM# witness (1, 2)",
    ),
    "two-msubspace-permutation": ("msubspaces", [], "got 0 subspaces"),
    "p1-unique-msubspace-suite": ("msubspaces", [], "extra M-subspace at m=3"),
    "trace-cubic-bent": ("msubspaces", [], "Tr(x y^3) has extra M-subspaces"),
}


@pytest.mark.parametrize("claim", WRONG_ANSWERS)
def test_claim_reports_its_own_failure(monkeypatch, capsys, claim):
    # a wrong library answer turns the claim into (False, detail), and the
    # battery counts it as a failure
    patched, value, detail = WRONG_ANSWERS[claim]
    monkeypatch.setattr(verify, patched, lambda *args: value)
    [run] = [c.run for c in CLAIMS if c.name == claim]
    assert run() == (False, detail)
    monkeypatch.setattr(verify, "CLAIMS", [c for c in CLAIMS if c.name == claim])
    assert verify.run_claims() == 1
    assert capsys.readouterr().out.startswith(f"FAIL {claim}: {detail} [")
