"""Exact equivariant K-theory of quaternionic flag manifolds.

Four layers: integer-exact Laurent and X polynomial rings (``ringcore``), the
type-C Weyl group of signed permutations (``weylc``), quaternionic matrices
and their Bruhat cell combinatorics (``quatflag``), and the three fixed-point
models with their Schubert classes and comparison maps (``gkm``).  The
``cli`` module drives batch verification suites over all of it.
"""

from .ringcore import (
    BinomialDivisor,
    LaurentPoly,
    NotDivisible,
    NotInvariant,
    XPoly,
    basis_decompose,
    divide_exact,
    sigma_k,
    sym_in_x,
    weyl_act_poly,
    x_expand,
    xpoly_divide_exact,
)
from .weylc import (
    SignedPerm,
    bruhat_leq,
    coset_map,
    enumerate_sign_changes,
    enumerate_weyl,
    length,
    max_length_rep,
    positive_roots,
    reduced_word,
    reflection,
    simple_reflection,
)
from .quatflag import (
    CellDescriptor,
    QMatrix,
    Quaternion,
    SingularMatrix,
    bruhat_decompose,
    cell_index,
    closure_leq,
    conjugate_by_diagonal,
    perm_matrix,
    u_membership,
)
from .gkm import (
    GKMTupleG,
    GKMTupleT,
    GKMTupleX,
    InexactDivision,
    NotInTupleSpan,
    SchubertTable,
    TupleNotInvariant,
    canonical_class,
    demazure,
    descend_pi,
    expand_in_schubert,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    j_descend,
    j_expand,
    descent_invariance_check,
    point_class,
    presentation_check,
    pullback_pi,
    quaternionic_schubert_classes,
    schubert_class,
    schubert_table,
    weyl_act_tuple,
)

__version__ = "0.1.0"
