"""The n = 8 atlas (ROADMAP item 20): every pinned 8-variable bent function,
with its degrees, M-subspace profiles and MM# and PS# verdicts, in one
table.  A new pinned n = 8 function is one more row.  The values were read
off the package, so each row is a regression pin; the independent checks
are the witness re-checks.  Besides the paper's three functions the rows
hold x.y, random partial spreads and MM functions, and ROADMAP item 16's
classical families, not results of the paper: the Gold, Dillon and Kasami
monomials Tr(a x^d) on GF(2^8), modulus 0x11b, and the Niho binomial."""

import random
from typing import Callable, NamedTuple

import pytest

from bentforge.boolfun import (
    BooleanFunction,
    algebraic_degree,
    dual,
    is_bent,
    to_tt_hex,
    zero_function,
)
from bentforge.construct import mm_bent
from bentforge.fixtures import PUBLISHED, published_bent8
from bentforge.gf2m import Field
from bentforge.msub import is_in_mm_sharp, is_msubspace, msubspace_profile
from bentforge.psclass import _witness_holds, is_in_ps_sharp
from bentforge.vectorial import identity_map
from conftest import ea_disguise, niho_binomial, random_mm, random_partial_spread


def monomial(d: int, a: int) -> BooleanFunction:
    """x -> Tr(a x^d), indexed by the field element x."""
    field = Field(8)
    assert field.modulus == 0x11B
    return BooleanFunction(8, [field.trace(field.mul(a, field.pow(x, d))) for x in range(256)])


class Row(NamedTuple):
    """One pinned function f; each pair holds the value on f, then on f*."""
    name: str
    build: Callable[[], BooleanFunction]
    tt: str
    degrees: tuple[int, int]
    profiles: tuple[tuple[int, ...], tuple[int, ...]]  # the counts for r = 2, 3, 4
    self_dual: bool
    mm_sharp: tuple[str, ...] | None  # the rows of is_in_mm_sharp(f)
    ps_sharp: tuple[str, int, int, int] | None  # is_in_ps_sharp(f): subclass, b, a, c


QUADRATIC = (5355, 11475, 2295)  # all quadratic bent functions on 8 variables are EA-equivalent
CANONICAL = ("10000000", "01000000", "00100000", "00010000")

ATLAS = (
    Row("delta0_mix", lambda: published_bent8("delta0_mix"),
        "tt:n=8:01f1ab5bcd3d679700f0aa5acc3c6696015bab3d6797f1cdffa555c399690f33",
        (4, 4), ((7, 0, 0), (7, 0, 0)), False, None, None),
    Row("transposed", lambda: published_bent8("transposed"),
        "tt:n=8:0055990fa5c36933e0b6045298ce7c2a0055990fa5c369331f49fbad673183d5",
        (4, 4), ((91, 0, 0), (91, 0, 0)), False, None, None),
    Row("apn_family", lambda: published_bent8("apn_family"),
        "tt:n=8:00335596a5f03c99ffa596663caa0f33ffc39933f096aa5affaaa53c69cc99f0",
        (4, 4), ((7, 1, 0), (0, 0, 0)), False, None, None),
    Row("xy", lambda: mm_bent(identity_map(4), zero_function(4)),
        "tt:n=8:0000aaaacccc6666f0f05a5a3c3c969600ffaa55cc336699f00f5aa53cc39669",
        (2, 2), (QUADRATIC, QUADRATIC), True, CANONICAL, ("PS_plus", 0, 0, 1)),
    Row("gold-3", lambda: monomial(3, 2),
        "tt:n=8:903590caca90ca6fc5603a60603a9f3a09acf6ac5309ac095cf95c06f9a3f95c",
        (2, 2), (QUADRATIC, QUADRATIC), False,
        ("10000000", "01000000", "00001000", "00010010"), ("PS_plus", 0, 0, 1)),
    Row("dillon-15", lambda: monomial(15, 1),
        "tt:n=8:7c48930da0d5f71b6c3194c9ce88dbae242a0463ade290854f1b2dbab8086d2d",
        (4, 4), ((0, 0, 0), (0, 0, 0)), False, None, ("PS_minus", 0, 0, 0)),
    Row("kasami-57", lambda: monomial(57, 2),
        "tt:n=8:c4098dcba9913bee39675dd24ab439701da8da827c696f0e800c3f045adc02aa",
        (4, 4), ((0, 0, 0), (0, 0, 0)), False, None, ("PS_plus", 0, 0, 1)),
    Row("niho-s3", niho_binomial,
        "tt:n=8:94372df92e000bc45fed834932a7d7aceaea658baced4f8953dbd0b998fb2dc6",
        (4, 4), ((0, 0, 0), (0, 0, 0)), False, None, None),
    Row("ps-minus", lambda: random_partial_spread(8, random.Random(8000)),
        "tt:n=8:8a42aee1f75626cc24ce28790f4090a847adbd498dc22745ce097a9f6130e3a3",
        (4, 4), ((0, 0, 0), (0, 0, 0)), False, None, ("PS_minus", 0, 0, 0)),
    Row("ps-plus", lambda: random_partial_spread(8, random.Random(16000), plus=True),
        "tt:n=8:7b688a635ee44e0e9ac270bbbc42b72579fcb2cd66efd559792ec004fca83dfa",
        (4, 4), ((0, 0, 0), (0, 0, 0)), False, None, ("PS_plus", 0, 0, 0)),
    # in its PS# sweep 4,096 groups pass the coverage test (24 and 0 for the published
    # functions), so the batched degree bound prunes, and 128 reach branch and bound
    Row("random-mm-6", lambda: random_mm(4, random.Random(6)),
        "tt:n=8:5aa5aaaaff006666c3c333ccaa55a5a5c33c699699660000f0f00ff09696cccc",
        (4, 4), ((35, 15, 1), (35, 15, 1)), False, CANONICAL, None),
    Row("random-mm-8", lambda: random_mm(4, random.Random(8)),
        "tt:n=8:c33c33ccff00699655aaf0f0a55a66990ff0aaaa000099993333c3c3a5a59696",
        (4, 4), ((43, 15, 1), (43, 15, 1)), False, CANONICAL, None),
)


@pytest.mark.parametrize("row", ATLAS, ids=[row.name for row in ATLAS])
def test_atlas_row(row):
    # f, f* and an EA disguise g take the row's values, g those of f; the
    # dual of g is an EA image of f*, so it takes f*'s profile.  The PS#
    # subclass is pinned on all three, not claimed invariant.
    f = row.build()
    assert to_tt_hex(f) == row.tt
    f_star = dual(f)
    assert dual(f_star) == f and (f_star == f) == row.self_dual
    g = ea_disguise(f, random.Random(row.name))
    assert g not in (f, f_star)
    assert tuple(msubspace_profile(dual(g)).counts.values()) == row.profiles[1]
    values = zip((f, f_star, g), (*row.degrees, row.degrees[0]), (*row.profiles, row.profiles[0]))
    for h, degree, profile in values:
        assert is_bent(h) and algebraic_degree(h) == degree
        assert tuple(msubspace_profile(h).counts.values()) == profile
        V, w = is_in_mm_sharp(h), is_in_ps_sharp(h)
        assert (V is None) == (row.mm_sharp is None) and (w is None) == (row.ps_sharp is None)
        assert V is None or V.dim == 4 and is_msubspace(h, V)
        assert w is None or w.inner.subclass == row.ps_sharp[0] and _witness_holds(h, w)
        if h is f:
            assert (V and tuple(V.rows())) == row.mm_sharp
            assert (w and (w.inner.subclass, w.shift, w.affine, w.constant)) == row.ps_sharp


def test_published_profiles_are_pairwise_distinct():
    # the profile is an EA invariant, so distinct profiles prove the three
    # published functions pairwise EA-inequivalent
    profiles = [row.profiles[0] for row in ATLAS if row.name in PUBLISHED]
    assert len(set(profiles)) == len(profiles) == len(PUBLISHED)


def test_every_quadrant_has_a_row():
    # ROADMAP item 9: a certified row inside and outside each of MM# and PS#
    quadrants = {(row.mm_sharp is not None, row.ps_sharp is not None) for row in ATLAS}
    assert quadrants == {(True, True), (True, False), (False, True), (False, False)}
