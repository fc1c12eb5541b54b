"""Exact equivariant K-theory of quaternionic flag manifolds.

Four layers: integer-exact Laurent and X polynomial rings (``ringcore``), the
type-C Weyl group of signed permutations (``weylc``), quaternionic matrices
and their Bruhat cell combinatorics (``quatflag``), and the three fixed-point
models with their Schubert classes and comparison maps (``gkm``).  The
``cli`` module drives batch verification suites over all of it.

The package exports the names below, but ``import qflagk`` loads none of
the layers: the first use of a name imports its module (PEP 562), so a
program that needs only ``weylc`` neither loads nor compiles the others.
``qflagk.gkm`` and the other layers resolve as attributes in the same way.
"""

from importlib import import_module as _import_module

# layer -> the names the package exports from it
_EXPORTS = {
    "ringcore": (
        "BinomialDivisor", "LaurentPoly", "NotDivisible", "NotInvariant", "XPoly",
        "basis_decompose", "divide_exact", "sigma_k", "sym_in_x", "weyl_act_poly",
        "x_expand", "xpoly_divide_exact",
    ),
    "weylc": (
        "SignedPerm", "bruhat_leq", "coset_map", "enumerate_sign_changes",
        "enumerate_weyl", "length", "max_length_rep", "positive_roots", "reduced_word",
        "reflection", "simple_reflection",
    ),
    "quatflag": (
        "QMatrix", "Quaternion", "SingularMatrix", "bruhat_decompose", "cell_index",
        "perm_matrix", "u_membership",
    ),
    "gkm": (
        "GKMTupleG", "GKMTupleT", "GKMTupleX", "InexactDivision", "NotInTupleSpan",
        "SchubertTable", "TupleNotInvariant", "canonical_class", "demazure",
        "descend_pi", "expand_in_schubert", "gkm_check_g", "gkm_check_t", "gkm_check_x",
        "j_descend", "j_expand", "descent_invariance_check", "point_class",
        "presentation_check", "pullback_pi", "quaternionic_schubert_classes",
        "schubert_class", "schubert_table", "weyl_act_tuple",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the layer that ``name`` comes from (or the layer ``name``)
    and keep the name, so later lookups do not come here."""
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _LAYER_OF:
        value = getattr(_import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
