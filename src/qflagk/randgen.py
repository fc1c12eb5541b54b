"""Seeded random generators for property suites.

Every generator takes an explicit ``random.Random`` so that trial t of a run
with seed s can be replayed in isolation: use ``trial_rng(seed, t)``.  Valid
GKM tuples are produced by construction (combinations of Schubert classes,
vertex classes supported at a single fixed point, polynomials in the
quotient-bundle classes), never by the membership checkers they are used to
test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .gkm import (
    GKMTupleG,
    GKMTupleT,
    GKMTupleX,
    _pair_divisor,
    pullback_pi,
    schubert_table,
)
from .quatflag import QMatrix, Quaternion, SingularMatrix, _pivot_columns
from .ringcore import LaurentPoly, XPoly
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


def random_laurent(rng, n, terms=2, max_exp=2, max_coeff=3) -> LaurentPoly:
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in range(n))
        c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        out[exps] = out.get(exps, 0) + c
    return LaurentPoly(n, out)


def random_xpoly(rng, n, terms=2, max_deg=2, max_coeff=3) -> XPoly:
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        out[exps] = out.get(exps, 0) + c
    return XPoly(n, out)


def random_quaternion(rng) -> Quaternion:
    """Components p/q with -10 <= p <= 10 and 1 <= q <= 10."""
    return Quaternion(*[
        Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        for _ in range(4)
    ])


def random_invertible_matrix(rng, n) -> QMatrix:
    """Dense random matrix, resampled until invertible."""
    while True:
        m = QMatrix(tuple(
            tuple(random_quaternion(rng) for _ in range(n))
            for _ in range(n)
        ))
        try:
            _pivot_columns(m.entries)
        except SingularMatrix:
            continue
        return m


def random_upper_triangular(rng, n) -> QMatrix:
    """Random invertible upper triangular matrix."""
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
    table = schubert_table(n)
    values = {w: LaurentPoly.zero(n) for w in enumerate_weyl(n)}
    for b, a in zip(basis_elements, coeffs):
        cls = table.classes[b]
        for w in values:
            values[w] = values[w] + a * cls.values[w]
    return GKMTupleT(n, values)


def random_t_tuple(rng, n) -> GKMTupleT:
    """Random combination of three Schubert classes (two at rank one) with
    Laurent coefficients."""
    basis = rng.sample(list(enumerate_weyl(n)), k=min(3, 2**n))
    coeffs = [random_laurent(rng, n, terms=1, max_exp=1, max_coeff=2) for _ in basis]
    return _combination(n, basis, coeffs)


def random_maxrep_combination(rng, n):
    """Random combination of the classes at maximal-length coset representatives,
    returned with its coefficients keyed by representative."""
    basis = [max_length_rep(tau) for tau in all_perms(n)]
    coeffs = [random_laurent(rng, n, terms=1, max_exp=1, max_coeff=2) for _ in basis]
    return _combination(n, basis, coeffs), dict(zip(basis, coeffs))


def vertex_class_x(n, tau) -> GKMTupleX:
    """Valid tuple supported at one fixed point.

    The value there is the product of every transposition-edge divisor, so
    each difference across an edge is a multiple of that edge's divisor.
    This is the pattern of the K-theoretic Euler class of the fixed point.
    """
    d = LaurentPoly.one(n)
    for mu in range(1, n + 1):
        for nu in range(mu + 1, n + 1):
            d = d * _pair_divisor(n, mu, nu).as_poly()
    values = {t: LaurentPoly.zero(n) for t in all_perms(n)}
    values[tuple(tau)] = d
    return GKMTupleX(n, values)


def random_x_tuple(rng, n) -> GKMTupleX:
    """Random valid tuple: a constant plus a combination of two vertex classes
    (one at rank one)."""
    perms = all_perms(n)
    values = {t: random_laurent(rng, n, terms=1, max_exp=1, max_coeff=2) for t in perms}
    const = values[perms[0]]
    values = {t: const for t in perms}
    for tau in rng.sample(list(perms), k=min(2, len(perms))):
        a = random_laurent(rng, n, terms=1, max_exp=1, max_coeff=2)
        vc = vertex_class_x(n, tau)
        values = {t: values[t] + a * vc.values[t] for t in perms}
    return GKMTupleX(n, values)


def random_invariant_t_tuple(rng, n) -> GKMTupleT:
    """Random valid T-tuple fixed by the index action of every sign change."""
    return pullback_pi(random_x_tuple(rng, n))


def random_g_tuple(rng, n) -> GKMTupleG:
    """Random polynomial in the quotient-bundle classes with X coefficients:
    a sum of two terms."""
    perms = all_perms(n)
    values = {t: XPoly.zero(n) for t in perms}
    for _ in range(2):
        coeff = random_xpoly(rng, n, terms=1, max_deg=1, max_coeff=2)
        factors = [rng.randint(1, n) for _ in range(rng.randint(0, 2))]
        for t in perms:
            term = coeff
            for nu in factors:
                term = term * XPoly.X(n, t[nu - 1])
            values[t] = values[t] + term
    return GKMTupleG(n, values)
