"""Exact ring arithmetic: divisibility, decompositions, Weyl action."""

import random

import pytest

from qflagk.ringcore import (
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
from qflagk.weylc import enumerate_sign_changes, enumerate_weyl, simple_reflection


def x(i, n=2):
    return LaurentPoly.x(n, i)


def X(i, n=2):
    return XPoly.X(n, i)


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------

def test_add_inverse_and_identity():
    assert x(1) + (-x(1)) == LaurentPoly.zero(2)
    f = x(1) + LaurentPoly.monomial(2, (-1, 0))
    assert f + LaurentPoly.zero(2) == f


def test_add_merges_coefficients():
    m = LaurentPoly.monomial(2, (1, -1))
    assert m + m == 2 * m


def test_mul_unit_and_difference_of_squares():
    f = x(1) + LaurentPoly.monomial(2, (-1, 0))
    assert f * LaurentPoly.one(2) == f
    g = x(1) - LaurentPoly.monomial(2, (-1, 0))
    assert f * g == LaurentPoly(2, {(2, 0): 1, (-2, 0): -1})


def test_mul_is_the_documented_binomial_product():
    # x1^{-1} (x1 x2^{-1} - 1)(x1 x2 - 1) expands to x1 - x2 - x2^{-1} + x1^{-1}
    prod = LaurentPoly.monomial(2, (-1, 0)) * (
        (LaurentPoly.monomial(2, (1, -1)) - 1) * (LaurentPoly.monomial(2, (1, 1)) - 1)
    )
    assert prod == LaurentPoly(2, {(1, 0): 1, (0, -1): -1, (0, 1): -1, (-1, 0): 1})


def test_rank_mismatch_raises():
    with pytest.raises((ValueError, TypeError)):
        LaurentPoly.one(2) + LaurentPoly.one(3)
    with pytest.raises((ValueError, TypeError)):
        XPoly.one(2) * LaurentPoly.one(2)


def test_xpoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        XPoly(2, {(1, -1): 1})


def test_binomial_divisor_validation():
    with pytest.raises(ValueError):
        BinomialDivisor([(0, 0)])
    with pytest.raises(ValueError):
        BinomialDivisor([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        BinomialDivisor([])


# ---------------------------------------------------------------------------
# exact division by binomial products
# ---------------------------------------------------------------------------

def test_divide_paper_identity():
    f = LaurentPoly(2, {(1, 0): 1, (0, -1): -1, (0, 1): -1, (-1, 0): 1})
    q = divide_exact(f, BinomialDivisor([(1, -1), (1, 1)]))
    assert q == LaurentPoly.monomial(2, (-1, 0))


def test_divide_zero():
    assert divide_exact(LaurentPoly.zero(2), [(1, 1)]) == LaurentPoly.zero(2)


def test_divide_not_divisible_with_witness():
    f = x(1) - 1
    with pytest.raises(NotDivisible) as exc:
        divide_exact(f, [(1, 1)])
    # substituting x1 := x2^{-1} leaves x2^{-1} - 1
    assert exc.value.remainder == LaurentPoly(2, {(0, -1): 1, (0, 0): -1})
    assert exc.value.factor == (1, 1)


def test_divide_soundness_random_products():
    rng = random.Random(42)
    factors_pool = [(1, -1), (1, 1), (2, 0), (0, 2), (-1, 2)]
    for _ in range(200):
        q = LaurentPoly(2, {
            (rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice([-3, -1, 1, 2])
            for _ in range(3)
        })
        if not q:
            continue
        chosen = rng.sample(factors_pool, k=rng.randint(1, 3))
        d = BinomialDivisor(chosen)
        f = q * d.as_poly()
        got = divide_exact(f, d)
        assert got == q
        assert got * d.as_poly() == f


def test_divide_order_independent():
    rng = random.Random(3)
    d1 = BinomialDivisor([(1, -1), (1, 1), (0, 2)])
    d2 = BinomialDivisor([(0, 2), (1, 1), (1, -1)])
    for _ in range(20):
        q = LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(1, 3)})
        f = q * d1.as_poly()
        assert divide_exact(f, d1) == divide_exact(f, d2) == q


def test_divide_degree_two_factor():
    # x1^2 - 1 divides 1 - x1^4 with quotient -(1 + x1^2)
    f = 1 - LaurentPoly.monomial(2, (4, 0))
    q = divide_exact(f, [(2, 0)])
    assert q * (LaurentPoly.monomial(2, (2, 0)) - 1) == f
    # but it does not divide x1 - 1
    with pytest.raises(NotDivisible):
        divide_exact(x(1) - 1, [(2, 0)])


def test_divide_negative_exponent_factor():
    # dividing by (x1^{-1}x2 - 1) goes through the inversion automorphism
    d = BinomialDivisor([(-1, 1)])
    q = LaurentPoly(2, {(1, 1): 2, (0, -1): 1})
    f = q * d.as_poly()
    assert divide_exact(f, d) == q


# ---------------------------------------------------------------------------
# Weyl action on polynomials
# ---------------------------------------------------------------------------

def test_weyl_act_sign_flip_and_transposition():
    n = 2
    s2 = simple_reflection(2, n)  # sign flip at position 2
    assert weyl_act_poly(s2, x(2)) == LaurentPoly.monomial(2, (0, -1))
    s1 = simple_reflection(1, n)
    assert weyl_act_poly(s1, x(1)) == x(2)


def test_weyl_act_fixes_full_symmetrization():
    n = 3
    f = x_expand(XPoly.X(n, 1) + XPoly.X(n, 2) + XPoly.X(n, 3))
    for w in enumerate_weyl(n):
        assert weyl_act_poly(w, f) == f


def test_weyl_act_is_ring_automorphism():
    rng = random.Random(11)
    n = 2
    for w in enumerate_weyl(n):
        for _ in range(5):
            f = LaurentPoly(n, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
            g = LaurentPoly(n, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
            assert weyl_act_poly(w, f + g) == weyl_act_poly(w, f) + weyl_act_poly(w, g)
            assert weyl_act_poly(w, f * g) == weyl_act_poly(w, f) * weyl_act_poly(w, g)


def test_weyl_act_composes_covariantly():
    n = 2
    f = LaurentPoly(n, {(1, 0): 1, (2, -1): 3})
    for w in enumerate_weyl(n):
        for v in enumerate_weyl(n):
            assert weyl_act_poly(w * v, f) == weyl_act_poly(w, weyl_act_poly(v, f))


# ---------------------------------------------------------------------------
# the sign-symmetric subring
# ---------------------------------------------------------------------------

def test_x_expand_examples():
    assert x_expand(X(1)) == LaurentPoly(2, {(1, 0): 1, (-1, 0): 1})
    assert x_expand(XPoly.one(2)) == LaurentPoly.one(2)
    assert x_expand(X(1) * X(2)) == LaurentPoly(
        2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    )


def test_x_expand_image_is_sign_invariant():
    rng = random.Random(5)
    for _ in range(20):
        g = XPoly(2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)})
        f = x_expand(g)
        for v in enumerate_sign_changes(2):
            assert weyl_act_poly(v, f) == f


def test_basis_decompose_rank_one():
    f = LaurentPoly.x(1, 1)
    dec = basis_decompose(f)
    assert dec[(0,)] == XPoly.X(1, 1)
    assert dec[(-1,)] == XPoly.constant(1, -1)
    dec = basis_decompose(LaurentPoly.monomial(1, (-1,)))
    assert dec[(0,)] == XPoly.zero(1)
    assert dec[(-1,)] == XPoly.one(1)


def test_basis_decompose_of_expanded_is_trivial():
    rng = random.Random(17)
    for _ in range(20):
        g = XPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        dec = basis_decompose(x_expand(g))
        assert dec[(0, 0)] == g
        assert all(not p for eps, p in dec.items() if eps != (0, 0))


def test_basis_decompose_reconstructs():
    rng = random.Random(23)
    for _ in range(40):
        f = LaurentPoly(2, {
            (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
            for _ in range(3)
        })
        dec = basis_decompose(f)
        total = LaurentPoly.zero(2)
        for eps, coeff in dec.items():
            total = total + x_expand(coeff) * LaurentPoly.monomial(2, eps)
        assert total == f


def test_basis_decompose_is_additive():
    rng = random.Random(29)
    for _ in range(15):
        f = LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
        g = LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
        df, dg, dfg = basis_decompose(f), basis_decompose(g), basis_decompose(f + g)
        for eps in df:
            assert dfg[eps] == df[eps] + dg[eps]


def test_sym_in_x_roundtrip_and_witness():
    assert sym_in_x(LaurentPoly(1, {(1,): 1, (-1,): 1})) == XPoly.X(1, 1)
    f = x_expand(X(1) * X(2))
    assert sym_in_x(f) == X(1) * X(2)
    rng = random.Random(31)
    for _ in range(20):
        g = XPoly(2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)})
        assert sym_in_x(x_expand(g)) == g
    with pytest.raises(NotInvariant) as exc:
        sym_in_x(x(1))
    assert exc.value.sign_index == 1
    with pytest.raises(NotInvariant) as exc:
        sym_in_x(x(2))
    assert exc.value.sign_index == 2


# ---------------------------------------------------------------------------
# elementary symmetric polynomials
# ---------------------------------------------------------------------------

def test_sigma_k_examples():
    assert sigma_k(1, [X(1), X(2)]) == X(1) + X(2)
    assert sigma_k(2, [X(1), X(2)]) == X(1) * X(2)
    a = X(1) + 2 * X(2)
    assert sigma_k(2, [a, a, a]) == 3 * a * a


def test_sigma_k_range_errors():
    with pytest.raises(ValueError):
        sigma_k(0, [X(1)])
    with pytest.raises(ValueError):
        sigma_k(3, [X(1), X(2)])


# ---------------------------------------------------------------------------
# division by X_mu - X_nu and the bridge to the Laurent ring
# ---------------------------------------------------------------------------

def test_xpoly_divide_examples():
    f = X(1) * X(1) - X(2) * X(2)
    assert xpoly_divide_exact(f, 1, 2) == X(1) + X(2)
    assert xpoly_divide_exact(XPoly.zero(2), 1, 2) == XPoly.zero(2)
    with pytest.raises(NotDivisible) as exc:
        xpoly_divide_exact(X(1), 1, 2)
    assert exc.value.factor == (1, 2)
    with pytest.raises(ValueError):
        xpoly_divide_exact(X(1), 1, 1)


def test_xpoly_divide_soundness_random():
    rng = random.Random(37)
    for _ in range(100):
        g = XPoly(3, {
            tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)
            for _ in range(2)
        })
        mu, nu = sorted(rng.sample((1, 2, 3), 2))
        f = (XPoly.X(3, mu) - XPoly.X(3, nu)) * g
        assert xpoly_divide_exact(f, mu, nu) == g


def test_bridge_equivalence_both_directions():
    # divisibility by X_mu - X_nu in Z[X] matches divisibility by the
    # Laurent binomial pair, and the quotients differ by the unit x_mu
    rng = random.Random(41)
    pair = BinomialDivisor([(1, -1), (1, 1)])
    for _ in range(60):
        g = XPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        f = (X(1) - X(2)) * g
        q_l = divide_exact(x_expand(f), pair)
        assert q_l == LaurentPoly.monomial(2, (-1, 0)) * x_expand(g)
        bad = f + 1
        with pytest.raises(NotDivisible):
            xpoly_divide_exact(bad, 1, 2)
        with pytest.raises(NotDivisible):
            divide_exact(x_expand(bad), pair)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_rendering_canonical_order():
    f = LaurentPoly(2, {(1, 0): 1, (0, -1): -1, (0, 1): -1, (-1, 0): 1})
    assert str(f) == "x1 - x2 - x2^-1 + x1^-1"
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(LaurentPoly.constant(2, -7)) == "-7"
    assert str(3 * X(1) * X(1) - 2) == "3*X1^2 - 2"


def test_json_roundtrip():
    f = LaurentPoly(2, {(2, -3): 12345678901234567890, (0, 0): -1})
    assert LaurentPoly.from_json(2, f.to_json()) == f
    g = XPoly(3, {(1, 0, 2): -9, (0, 0, 0): 4})
    assert XPoly.from_json(3, g.to_json()) == g


def test_big_integer_coefficients_survive():
    big = 10**40
    f = big * LaurentPoly.x(1, 1)
    assert (f * f).coefficient((2,)) == big * big


# ---------------------------------------------------------------------------
# results of arithmetic are clean without re-validation
# ---------------------------------------------------------------------------

def _assert_clean(r):
    # what the validating constructor would make of r's terms
    assert type(r)(r.rank, r.terms).terms == r.terms
    for exps, c in r.terms.items():
        assert type(exps) is tuple and len(exps) == r.rank
        assert type(c) is int and c != 0
        if isinstance(r, XPoly):
            assert min(exps) >= 0


def _random_operand(rng, cls, n):
    """Zero, a monomial, an int, or a sum of up to four terms."""
    lo = 0 if cls is XPoly else -2
    kind = rng.randrange(5)
    if kind == 0:
        return cls.zero(n)
    if kind == 1:
        return cls.monomial(n, [rng.randint(lo, 2) for _ in range(n)], rng.choice([-2, -1, 1, 3]))
    if kind == 2:
        return rng.choice([-2, -1, 0, 1, 3])
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(lo, 2) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.choice([-1, 1, 2])
    return cls(n, terms)


def _random_pair(rng, cls, n):
    a = _random_operand(rng, cls, n)
    if isinstance(a, int):
        a = cls.constant(n, a)
    if rng.random() < 0.3:
        # b cancels every term of a, plus a few more: a + b drops terms
        terms = {e: -c for e, c in a.terms.items()}
        extra = _random_operand(rng, cls, n)
        if not isinstance(extra, int):
            for e, c in extra.terms.items():
                terms[e] = terms.get(e, 0) + c
        return a, cls(n, terms)
    return a, _random_operand(rng, cls, n)


@pytest.mark.parametrize("cls", [LaurentPoly, XPoly])
def test_arithmetic_results_are_clean(cls):
    rng = random.Random(f"clean:{cls.__name__}")
    for _ in range(400):
        n = rng.randint(1, 3)
        a, b = _random_pair(rng, cls, n)
        for r in (a + b, b + a, a - b, b - a, -a, a * b, b * a, a * a):
            assert type(r) is cls and r.rank == n
            _assert_clean(r)
        if isinstance(b, cls):
            _assert_clean(-b)
            assert (a + b) - b == a and a * b == b * a


def test_division_results_are_clean():
    rng = random.Random("clean:divide")
    pool = [(1, -1), (1, 1), (2, 0), (0, 2), (-1, 2), (0, -1)]
    exact = failed = 0
    for _ in range(300):
        a, b = _random_pair(rng, LaurentPoly, 2)
        d = BinomialDivisor(rng.sample(pool, k=rng.randint(1, 2)))
        for f in (a + b, (a - b) * d.as_poly()):
            try:
                q = divide_exact(f, d)
            except NotDivisible as exc:
                failed += 1
                assert exc.remainder
                _assert_clean(exc.remainder)
            else:
                exact += 1
                _assert_clean(q)
                assert q * d.as_poly() == f
    assert exact and failed
    exact = failed = 0
    for _ in range(300):
        n = rng.randint(2, 3)
        a, b = _random_pair(rng, XPoly, n)
        mu, nu = rng.sample(range(1, n + 1), 2)
        for f in (a + b, (a - b) * (XPoly.X(n, mu) - XPoly.X(n, nu))):
            try:
                q = xpoly_divide_exact(f, mu, nu)
            except NotDivisible as exc:
                failed += 1
                assert exc.remainder
                _assert_clean(exc.remainder)
            else:
                exact += 1
                _assert_clean(q)
    assert exact and failed


def test_maps_results_are_clean():
    rng = random.Random("clean:maps")
    for _ in range(200):
        n = rng.randint(1, 3)
        a, b = _random_pair(rng, LaurentPoly, n)
        f = a - b
        for w in rng.sample(enumerate_weyl(n), k=min(3, 2**n)):
            _assert_clean(weyl_act_poly(w, f))
        for part in basis_decompose(f).values():
            _assert_clean(part)
        g, h = _random_pair(rng, XPoly, n)
        _assert_clean(x_expand(g + h))
        _assert_clean(x_expand(g * h))
