"""bentforge: analysis and construction of Boolean bent functions.

Truth-table/ANF/Walsh machinery, M-subspace enumeration, Maiorana-
McFarland (MM#) and partial spread (PS#) class membership, and the bent
4-concatenation constructions that reach outside MM# and PS# at n = 8.
"""

from .boolfun import (
    AnfPoly,
    BooleanFunction,
    algebraic_degree,
    derivative,
    dual,
    format_anf,
    from_anf,
    from_tt_hex,
    is_bent,
    linear_structures,
    parse_anf,
    second_derivative,
    to_anf,
    to_tt_hex,
    walsh_transform,
)
from .construct import (
    ConcatQuadruple,
    OutsideCertificate,
    concat4,
    dual_bent_condition,
    extend_permutation,
    mm_bent,
    mm_bent_transposed,
    theorem53_certify,
    theorem55_construct,
    theorem57_check,
    witness_second_msubspace,
)
from .gf2 import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    orthogonal_complement,
    span,
)
from .gf2m import Field, power_map
from .msub import (
    MSubspaceProfile,
    canonical_msubspace,
    is_in_mm_sharp,
    is_msubspace,
    msubspace_profile,
    msubspaces,
)
from .psclass import (
    PartialSpreadWitness,
    PsSharpWitness,
    is_in_ps_sharp,
    is_partial_spread,
    ps_ap,
)
from .vectorial import (
    P2Report,
    VectorialFunction,
    check_p2,
    component,
    from_coordinates,
    has_p1,
    is_apn,
    is_permutation,
    linear_structures_vf,
    vanishing_flats_count,
    vanishing_subspaces_vf,
)

__version__ = "0.1.0"
