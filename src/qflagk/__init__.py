"""Exact equivariant K-theory of quaternionic flag manifolds.

Four layers: integer-exact Laurent and X polynomial rings (``ringcore``), the
type-C Weyl group of signed permutations (``weylc``), quaternionic matrices
and their Bruhat cell combinatorics (``quatflag``), and the three fixed-point
models with their Schubert classes and comparison maps (``gkm``).  The
``cli`` module drives batch verification suites over all of it.

Each name is imported from its layer (``from qflagk.weylc import
SignedPerm``); the package itself exports none, and ``import qflagk`` loads
no layer.
"""

__version__ = "0.1.0"
