"""Seeded random generators for property suites.

Every generator takes an explicit ``random.Random`` so that trial t of a run
with seed s can be replayed in isolation: use ``trial_rng(seed, t)``.  Valid
GKM tuples are produced by construction, as sums of tuples times random
coefficients in the pointwise arithmetic of tuples (Schubert classes, vertex
classes supported at a single fixed point, products of quotient-bundle
classes), never by the membership checkers they are used to test.

Each generator imports the layers it builds with when it runs, so drawing
quaternion matrices loads neither ``ringcore`` nor ``gkm``.
"""

from __future__ import annotations

import random

from .weylc import all_perms, enumerate_weyl, max_length_rep

__all__ = [
    "trial_rng",
    "random_laurent",
    "random_xpoly",
    "random_quaternion",
    "random_invertible_matrix",
    "random_upper_triangular",
    "random_t_tuple",
    "random_maxrep_combination",
    "vertex_class_x",
    "random_x_tuple",
    "random_invariant_t_tuple",
    "random_g_tuple",
]


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent stream per (seed, trial); aggregation over trials is then
    insensitive to chunking across workers."""
    return random.Random(f"{seed}:{trial}")


def _random_terms(rng, n, terms, low, high, max_coeff):
    """The sum of ``terms`` random terms of rank n, each exponent in
    [low, high] and each coefficient nonzero in [-max_coeff, max_coeff], as
    an exponent -> coefficient dict."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(low, high) for _ in range(n))
        c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        out[exps] = out.get(exps, 0) + c
    return out


def random_laurent(rng, n) -> LaurentPoly:
    """One random term of rank n: each exponent in [-1, 1], the coefficient
    in {+-1, +-2}."""
    from .ringcore import LaurentPoly

    return LaurentPoly(n, _random_terms(rng, n, 1, -1, 1, 2))


def random_xpoly(rng, n, terms=2, max_deg=2, max_coeff=3) -> XPoly:
    from .ringcore import XPoly

    return XPoly(n, _random_terms(rng, n, terms, 0, max_deg, max_coeff))


def random_quaternion(rng) -> Quaternion:
    """Components p/q with -10 <= p <= 10 and 1 <= q <= 10."""
    from fractions import Fraction

    from .quatflag import Quaternion

    return Quaternion(*[
        Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        for _ in range(4)
    ])


def random_invertible_matrix(rng, n) -> QMatrix:
    """Dense random matrix, resampled until invertible.  Almost all its draws
    land in the big cell, that of the longest permutation (1000 of 1000 seeded
    draws at n = 3), so a trial that needs every cell draws the cell first and
    builds the matrix from it, as ``qflagk verify --suite cells`` does."""
    from .quatflag import QMatrix, SingularMatrix, cell_index

    while True:
        m = QMatrix(tuple(
            tuple(random_quaternion(rng) for _ in range(n))
            for _ in range(n)
        ))
        try:
            cell_index(m)
        except SingularMatrix:
            continue
        return m


def random_upper_triangular(rng, n) -> QMatrix:
    """Random invertible upper triangular matrix."""
    from .quatflag import QMatrix, Quaternion

    rows = []
    for i in range(n):
        row = [Quaternion.zero()] * i
        diag = random_quaternion(rng)
        while diag.is_zero():
            diag = random_quaternion(rng)
        row.append(diag)
        row.extend(random_quaternion(rng) for _ in range(n - i - 1))
        rows.append(tuple(row))
    return QMatrix(tuple(rows))


def _combination(n, basis_elements, coeffs):
    from .gkm import GKMTupleT, schubert_table

    classes = schubert_table(n).classes
    terms = (classes[b] * a for b, a in zip(basis_elements, coeffs))
    return sum(terms, GKMTupleT.constant(n, 0))


def random_t_tuple(rng, n) -> GKMTupleT:
    """Random combination of three Schubert classes (two at rank one) with
    Laurent coefficients."""
    basis = rng.sample(list(enumerate_weyl(n)), k=min(3, 2**n))
    coeffs = [random_laurent(rng, n) for _ in basis]
    return _combination(n, basis, coeffs)


def random_maxrep_combination(rng, n):
    """Random combination of the classes at maximal-length coset representatives,
    returned with its coefficients keyed by representative."""
    basis = [max_length_rep(tau) for tau in all_perms(n)]
    coeffs = [random_laurent(rng, n) for _ in basis]
    return _combination(n, basis, coeffs), dict(zip(basis, coeffs))


def vertex_class_x(n, tau) -> GKMTupleX:
    """Valid tuple supported at one fixed point.

    The value there is the product of every transposition-edge divisor, so
    each difference across an edge is a multiple of that edge's divisor.
    This is the pattern of the K-theoretic Euler class of the fixed point.
    """
    from .gkm import GKMTupleX
    from .ringcore import BinomialDivisor, LaurentPoly

    d = LaurentPoly.one(n)
    for mu in range(1, n + 1):
        for nu in range(mu + 1, n + 1):
            d = d * BinomialDivisor.pair(n, mu, nu).as_poly()
    values = {t: LaurentPoly.zero(n) for t in all_perms(n)}
    values[tuple(tau)] = d
    return GKMTupleX(n, values)


def random_x_tuple(rng, n) -> GKMTupleX:
    """Random valid tuple: a constant plus a combination of two vertex classes
    (one at rank one)."""
    from .gkm import GKMTupleX

    perms = all_perms(n)
    # n! draws, of which the first is the constant
    f = GKMTupleX.constant(n, [random_laurent(rng, n) for _ in perms][0])
    for tau in rng.sample(list(perms), k=min(2, len(perms))):
        f = f + vertex_class_x(n, tau) * random_laurent(rng, n)
    return f


def random_invariant_t_tuple(rng, n) -> GKMTupleT:
    """Random valid T-tuple fixed by the index action of every sign change."""
    from .gkm import pullback_pi

    return pullback_pi(random_x_tuple(rng, n))


def random_g_tuple(rng, n) -> GKMTupleG:
    """Random polynomial in the quotient-bundle classes with X coefficients:
    a sum of two terms."""
    from .gkm import GKMTupleG, canonical_class

    f = GKMTupleG.constant(n, 0)
    for _ in range(2):
        term = GKMTupleG.constant(n, random_xpoly(rng, n, terms=1, max_deg=1, max_coeff=2))
        for _ in range(rng.randint(0, 2)):
            term = term * canonical_class(rng.randint(1, n), n)
        f = f + term
    return f
