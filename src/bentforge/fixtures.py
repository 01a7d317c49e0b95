"""Bundled reference inputs: the permutations, subspaces and bent-function
ANFs that the verify-paper regression command rebuilds and re-checks.

Everything ships as data files in the documented text formats and is
parsed on access, so the fixtures double as format conformance checks.

The three published 8-variable bent functions outside MM# and PS# are
named by how their 6-variable pieces are built:

- ``delta0_mix``:   x.y + d0(x), x.pi(y) + d0(x), x.y, x.pi(y) + 1
- ``transposed``:   f1 = f2 = x.pi(y) + h1(y), f3 = f4 + 1 = y.pi(x) + h2(x)
- ``apn_family``:   four distinct x.pi_i(y) + h_i(y) pieces over quadratic
                    APN permutations, sharing only the canonical M-subspace

Variable mapping
----------------
The published ANF strings use variables z1..z8.  Our concatenation layout
puts the second concatenation variable at bit n and the first at bit n+1;
the one-time resolution against the published strings fixed z7 as the
first and z8 as the second concatenation variable (CONCAT_VARMAP).  The
delta0_mix string additionally reads the inner block as (z4, z5, z6) =
(y3, y1, y2); that relabeling is frozen separately (DELTA0_MIX_VARMAP).
Maps send string variable z_{j+1} to table bit map[j].
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .boolfun import BooleanFunction, ea_image, from_anf, parse_anf, zero_function
from .construct import ConcatQuadruple, delta0, mm_bent, mm_bent_transposed
from .gf2 import Subspace
from .gf2m import Field
from .vectorial import VectorialFunction, from_coordinate_anfs, identity_map

CONCAT_VARMAP = (0, 1, 2, 3, 4, 5, 7, 6)
DELTA0_MIX_VARMAP = (0, 1, 2, 5, 3, 4, 7, 6)

PUBLISHED = ("delta0_mix", "transposed", "apn_family")


def _read(name: str) -> str:
    return resources.files("bentforge.data").joinpath(name).read_text()


def load_permutation(name: str) -> VectorialFunction:
    return from_coordinate_anfs(_read(name))


def apn_perm_m3() -> VectorialFunction:
    """The quadratic APN permutation of F_2^3 behind the delta0_mix and
    transposed functions."""
    return load_permutation("perm_apn_m3.anf")


def apn_perm_m3_alt() -> VectorialFunction:
    """A second APN permutation of F_2^3, stated alongside the transposed
    example.

    The published ANF of that example corresponds to reusing apn_perm_m3,
    not this one; see transposed_quadruple.
    """
    return load_permutation("perm_apn_m3_alt.anf")


def perm_two_msubspaces() -> VectorialFunction:
    """A degree-2 permutation of F_2^5 without linear structures whose
    x.pi(y) nevertheless has a second M-subspace."""
    return load_permutation("perm_two_msubspaces.anf")


def perm_p2_dim2() -> VectorialFunction:
    """Quadratic permutation of F_2^5 with P2 and a vanishing 2-space."""
    return load_permutation("perm_p2_dim2.anf")


def perm_p2_dim3() -> VectorialFunction:
    """Quadratic permutation of F_2^5 with P2 and a vanishing 3-space."""
    return load_permutation("perm_p2_dim3.anf")


def second_msubspace_witness() -> Subspace:
    """The published second M-subspace of x.perm_two_msubspaces(y)."""
    return Subspace.from_text(_read("subspace_second_witness.txt"))


def vanishing_subspace_dim2() -> Subspace:
    return Subspace.from_text(_read("subspace_vanishing_dim2.txt"))


def vanishing_subspace_dim3() -> Subspace:
    return Subspace.from_text(_read("subspace_vanishing_dim3.txt"))


def h_restore_unique() -> BooleanFunction:
    """The cubic h that removes the second M-subspace of the two-subspace
    permutation's bent function."""
    return from_anf(parse_anf(_read("h_restore_unique.anf"), 5))


def published_bent8(name: str) -> BooleanFunction:
    """One of the published 8-variable functions, parsed from its ANF."""
    if name not in PUBLISHED:
        raise ValueError(f"unknown fixture {name!r}; pick one of {PUBLISHED}")
    return from_anf(parse_anf(_read(f"bent8_{name}.anf"), 8))


def delta0_mix_quadruple() -> ConcatQuadruple:
    """f1 = x.y + d0(x), f2 = x.pi(y) + d0(x), f3 = x.y, f4 = x.pi(y) + 1."""
    pi = apn_perm_m3()
    xy = mm_bent(identity_map(3), zero_function(3))
    xpi = mm_bent(pi, zero_function(3))
    d0x = BooleanFunction(6, np.tile(delta0(3).table, 8))  # index x + 8y
    return ConcatQuadruple(xy ^ d0x, xpi ^ d0x, xy, xpi ^ 1)


def transposed_quadruple() -> ConcatQuadruple:
    """f1 = f2 = x.pi(y) + h1(y), f3 = y.pi(x) + h2(x) + 1, f4 = f3 + 1.

    These reproduce the published ANF string bit-exactly: sigma equal to pi
    and h2 without its constant term.  The stated sigma = apn_perm_m3_alt
    and h2 give a different, also bent, concatenation."""
    pi = apn_perm_m3()
    h1 = from_anf(parse_anf(_read("h1_transposed.anf"), 3))
    h2 = from_anf(parse_anf(_read("h2_transposed.anf"), 3))
    f1 = mm_bent(pi, h1)
    f3 = mm_bent_transposed(pi, h2 ^ 1)
    return ConcatQuadruple(f1, f1, f3, f3 ^ 1)


def apn_family_quadruple() -> ConcatQuadruple:
    return ConcatQuadruple(
        *(from_anf(parse_anf(_read(f"apn_family_f{i}.anf"), 6)) for i in (1, 2, 3, 4))
    )


QUADRUPLES = {
    "delta0_mix": (delta0_mix_quadruple, DELTA0_MIX_VARMAP),
    "transposed": (transposed_quadruple, CONCAT_VARMAP),
    "apn_family": (apn_family_quadruple, CONCAT_VARMAP),
}


def to_paper_variables(f: BooleanFunction, varmap: tuple[int, ...]) -> BooleanFunction:
    """Relabel table variables so the ANF prints in the published z order."""
    if len(varmap) != f.n:
        raise ValueError("varmap length must equal the variable count")
    if sorted(varmap) != list(range(f.n)):
        raise ValueError(f"varmap must be a permutation of 0..{f.n - 1}")
    rows = [0] * f.n  # bit varmap[j] of A.x is bit j of x
    for j, mj in enumerate(varmap):
        rows[mj] = 1 << j
    return ea_image(f, rows)


def tr_xy3_bent() -> BooleanFunction:
    """f(x, y) = Tr(x y^3) on F_{2^3} x F_{2^3}: the 6-variable bent
    function with a unique M-subspace (up to equivalence).  As Tr(x c) =
    x.(Tr(e_i c))_i, it is x.pi(y) with bit i of pi(y) = Tr(e_i y^3)."""
    fld = Field(3)
    pi = [sum(fld.trace(fld.mul(1 << i, fld.pow(y, 3))) << i for i in range(3)) for y in range(8)]
    return mm_bent(VectorialFunction(3, pi), zero_function(3))
