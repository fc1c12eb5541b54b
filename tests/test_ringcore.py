"""Exact ring arithmetic: divisibility, decompositions, Weyl action."""

import itertools
import json
import math
import pickle
import random
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from qflagk.ringcore import (
    EXPONENT_LIMIT,
    BinomialDivisor,
    LaurentPoly,
    NotDivisible,
    NotInvariant,
    TermIndex,
    XPoly,
    basis_decompose,
    divide_exact,
    sigma_k,
    sym_in_x,
    weyl_act_poly,
    x_expand,
    xpoly_divide_exact,
)
from qflagk.ringcore import _half_basis
from qflagk.weylc import (
    SignedPerm, enumerate_sign_changes, enumerate_weyl, reduced_word, simple_reflection,
)


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


def test_exponents_must_be_exactly_int():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(True,): 1})  # bool subclasses int, but is no exponent
    with pytest.raises(TypeError):
        XPoly(2, {(1, 1.0): 1})
    with pytest.raises(TypeError):
        LaurentPoly.from_json(2, [["1", [0, False]]])
    # an int key first: (True,) and (1.0,) hash like (1,) and would merge into it
    for late in (True, 1.0):
        with pytest.raises(TypeError):
            LaurentPoly.from_json(1, [["1", [1]], ["1", [late]]])


@pytest.mark.parametrize("variable", [LaurentPoly.x, XPoly.X])
def test_variables_reject_indices_out_of_range(variable):
    for rank in (1, 2, 3):
        assert [variable(rank, i).terms for i in range(1, rank + 1)] == [
            {tuple(int(v == i) for v in range(1, rank + 1)): 1} for i in range(1, rank + 1)
        ]
        for i in (0, rank + 1):
            with pytest.raises(ValueError):
                variable(rank, i)


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


def _division_outcome(f, divisor):
    """The quotient's terms and bound, or the failing factor and the
    remainder's terms and bound."""
    try:
        q = divide_exact(f, divisor)
    except NotDivisible as exc:
        return "fails", exc.factor, exc.remainder.terms, exc.remainder._bound
    return "divides", q.terms, q._bound


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_euler_orientation_is_the_plain_one_times_its_sign(n):
    # prod (1 - x^F) is (-1)^k prod (x^F - 1): its quotient is (-1)^k the
    # plain one, with the same bound, and where the plain division fails the
    # oriented one fails at the same factor with the same remainder, also
    # past the first factor; its product keeps the plain product's term order
    rng = random.Random(70 + n)
    seen = set()
    for trial in range(120):
        k = rng.randint(1, 3)
        factors = []
        while len(factors) < k:
            v = rng.randrange(n)
            f = (0,) * v + (rng.choice([1, -1, 2, -2]),) + tuple(
                rng.randint(-1, 1) for _ in range(n - v - 1))
            if f not in factors:
                factors.append(f)
        plain, euler = BinomialDivisor(factors), BinomialDivisor.euler(factors)
        sign = (-1) ** k
        q = LaurentPoly(n, {
            tuple(rng.randint(-2, 2) for _ in range(n)): rng.choice([-3, -1, 1, 2])
            for _ in range(rng.randint(1, 4))
        })
        f = q * plain.as_poly()
        # a unit is divisible by no binomial: m fails the first factor, and
        # m (x^F1 - 1) passes it and may fail a later one
        m = LaurentPoly.monomial(n, [rng.randint(-3, 3) for _ in range(n)])
        f += [0, m, m * BinomialDivisor(factors[:1]).as_poly()][trial % 3]
        want = _division_outcome(f, plain)
        got = _division_outcome(f, euler)
        if want[0] == "divides":
            assert got == ("divides", {e: sign * c for e, c in want[1].items()}, want[2])
            seen.add(("divides", k))
        else:
            assert got == want
            seen.add(("fails", k, factors.index(want[1]) > 0))
        assert list(euler.as_poly().terms.items()) == [
            (e, sign * c) for e, c in plain.as_poly().terms.items()
        ]
        assert repr(euler) == re.sub(r"\(([^()]*) - 1\)", r"(1 - \1)", repr(plain))
    assert {("divides", k) for k in (1, 2, 3)} | {("fails", k, False) for k in (1, 2, 3)} <= seen
    assert ("fails", 3, True) in seen


def test_the_euler_orientation_reads_as_one_minus_each_monomial():
    assert repr(BinomialDivisor.euler([(1, -1), (0, 2)])) == "BinomialDivisor[(1 - x1*x2^-1)(1 - x2^2)]"
    assert repr(BinomialDivisor([(1, -1), (0, 2)])) == "BinomialDivisor[(x1*x2^-1 - 1)(x2^2 - 1)]"
    assert BinomialDivisor.euler([(2,)]).as_poly() == 1 - LaurentPoly.monomial(1, (2,))


def test_the_pair_divisor_is_the_x_model_edge_condition():
    n = 4
    for mu, nu in itertools.combinations(range(1, n + 1), 2):
        pair = BinomialDivisor.pair(n, mu, nu)
        assert pair.rank == n
        ratio = [0] * n
        ratio[mu - 1], ratio[nu - 1] = 1, -1
        ratio = LaurentPoly.monomial(n, tuple(ratio))
        assert pair.as_poly() == (ratio - 1) * (x(mu, n) * x(nu, n) - 1)
    assert repr(BinomialDivisor.pair(3, 1, 3)) == "BinomialDivisor[(x1*x3^-1 - 1)(x1*x3 - 1)]"


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


def _act_along_reduced_word(w, terms):
    # w = s_{i_1} ... s_{i_k}: apply s_{i_k} first; s_i swaps exponents i and
    # i + 1 (i < n), s_n negates exponent n
    n = w.rank
    for i in reversed(reduced_word(w)):
        terms = {(e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:] if i < n else e[:-1] + (-e[-1],)): c
                 for e, c in terms.items()}
    return terms


def test_weyl_act_matches_the_reduced_word_fold():
    rng = random.Random("weyl:act:fold")
    for n in (1, 2, 3):
        # x^(1, ..., n) determines w from its image, so a wrong action fails
        probe = {tuple(range(1, n + 1)): 1}
        for w in enumerate_weyl(n):
            for f in [probe] + [_random_terms(rng, n, size=4) for _ in range(3)]:
                assert weyl_act_poly(w, LaurentPoly(n, f)).terms == _act_along_reduced_word(w, f), w
            # a dropped sign, acting by the underlying permutation instead
            if w != SignedPerm(map(abs, w.window())):
                dropped = weyl_act_poly(SignedPerm(map(abs, w.window())), LaurentPoly(n, probe))
                assert dropped.terms != _act_along_reduced_word(w, probe), w


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


def _least_moving_sign_change(f):
    """The least v, 1-based, whose x_v -> x_v^{-1} changes the term dict of
    f, or None when no sign change moves f."""
    terms = f.terms
    for v in range(f.rank):
        flipped = {e[:v] + (-e[v],) + e[v + 1:]: c for e, c in terms.items()}
        if flipped != terms:
            return v + 1
    return None


def test_sym_in_x_witness_is_the_least_moving_sign_change():
    # invariant parts plus monomials symmetrized over a random set of
    # variables: moved by some variables and fixed by others, in any order
    rng = random.Random(47)
    seen = set()
    for n in (1, 2, 3):
        for _ in range(60):
            g = XPoly(n, {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)})
            f = x_expand(g)
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(-2, 2) for _ in range(n))
                fixed = [v for v in range(n) if rng.random() < 0.5]
                orbit = {m}
                for v in fixed:
                    orbit |= {e[:v] + (-e[v],) + e[v + 1:] for e in orbit}
                c = rng.randint(-2, 2)
                f = f + LaurentPoly(n, {e: c for e in orbit})
            want = _least_moving_sign_change(f)
            seen.add((n, want))
            if want is None:
                assert x_expand(sym_in_x(f)) == f
                continue
            with pytest.raises(NotInvariant) as exc:
                sym_in_x(f)
            assert exc.value.sign_index == want
    assert seen >= {(1, None), (1, 1), (2, None), (2, 1), (2, 2), (3, None), (3, 1), (3, 2), (3, 3)}


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
    # the witness is f(X_mu := X_nu), also where every term of f has
    # X_mu-degree >= 1, for mu < nu and for mu > nu
    for f, (mu, nu), witness in (
        ({(2, 1): 1, (1, 0): 1}, (1, 2), {(0, 3): 1, (0, 1): 1}),
        ({(1, 2): 1, (0, 1): 1}, (2, 1), {(3, 0): 1, (1, 0): 1}),
        ({(2, 1): 1, (1, 1): -3}, (1, 2), {(0, 3): 1, (0, 2): -3}),
        ({(0, 3): 1, (2, 1): 1}, (2, 1), {(3, 0): 2}),
    ):
        f, witness = XPoly(2, f), XPoly(2, witness)
        with pytest.raises(NotDivisible) as exc:
            xpoly_divide_exact(f, mu, nu)
        assert exc.value.factor == (mu, nu)
        assert exc.value.remainder == witness, (f, mu, nu)
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


# ---------------------------------------------------------------------------
# the packed kernel against a tuple-keyed reference
# ---------------------------------------------------------------------------

LIMIT = EXPONENT_LIMIT


def _ref_acc(terms, exps, c):
    new = terms.get(exps, 0) + c
    if new:
        terms[exps] = new
    else:
        terms.pop(exps, None)


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        _ref_acc(out, e, sign * c)
    return out


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _ref_acc(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _ref_flip(terms, v):
    return {e[:v] + (-e[v],) + e[v + 1:]: c for e, c in terms.items()}


def _ref_divide_one(terms, factor):
    # long division in the first variable of the factor, through the
    # automorphism x_v -> x_v^{-1} when its exponent there is negative
    if not terms:
        return {}, {}
    v = next(i for i, a in enumerate(factor) if a)
    if factor[v] < 0:
        q, r = _ref_divide_one(_ref_flip(terms, v), factor[:v] + (-factor[v],) + factor[v + 1:])
        return _ref_flip(q, v), _ref_flip(r, v)
    d = factor[v]
    rem = dict(terms)
    quotient = {}
    lo = min(e[v] for e in terms)
    for k in range(max(e[v] for e in terms), lo + d - 1, -1):
        for e in [e for e in rem if e[v] == k]:
            c = rem.pop(e)
            shifted = tuple(x - a for x, a in zip(e, factor))
            _ref_acc(quotient, shifted, c)
            _ref_acc(rem, shifted, c)
    return quotient, rem


def _ref_divide(terms, factors):
    """('ok', quotient) or ('fail', factor, remainder)."""
    for factor in factors:
        terms, rem = _ref_divide_one(terms, factor)
        if rem:
            return "fail", factor, rem
    return "ok", terms


def _ref_xdivide(terms, mu, nu):
    # synthetic division in X_mu: the remainder is f at X_mu := X_nu
    m, v = mu - 1, nu - 1
    rem = dict(terms)
    quotient = {}
    for k in range(max((e[m] for e in terms), default=0), 0, -1):
        for e in [e for e in rem if e[m] == k]:
            c = rem.pop(e)
            lower = e[:m] + (k - 1,) + e[m + 1:]
            _ref_acc(quotient, lower, c)
            moved = lower[:v] + (lower[v] + 1,) + lower[v + 1:]
            _ref_acc(rem, moved, c)
    return quotient, rem


def _ref_x_expand(terms, n):
    out = {}
    for exps, c in terms.items():
        partial = {(): c}
        for k in exps:
            partial = {p + (k - 2 * j,): cc * math.comb(k, j)
                       for p, cc in partial.items() for j in range(k + 1)}
        for e, cc in partial.items():
            _ref_acc(out, e, cc)
    return out


def _ref_weyl_act(perm, signs, terms):
    # L^i -> signs[i] * L^{perm[i]} on every exponent vector
    out = {}
    for exps, c in terms.items():
        new = [0] * len(exps)
        for i, e in enumerate(exps):
            new[perm[i] - 1] = signs[i] * e
        out[tuple(new)] = c
    return out


def _ref_basis_decompose(terms, n):
    # x^k = a_k(X) + b_k(X) x^{-1}, from x^{k+1} = X x^k - x^{k-1}
    def half(k):
        a, b = {0: 1}, {}
        a1, b1 = {}, {0: 1}  # x^0 and x^{-1}
        if k >= 0:
            prev, cur = (a1, b1), (a, b)
            for _ in range(k):
                prev, cur = cur, tuple(
                    _ref_add({e + 1: c for e, c in p.items()}, q, -1)
                    for p, q in zip(cur, prev))
            return cur
        prev, cur = (a, b), (a1, b1)
        for _ in range(-k - 1):
            prev, cur = cur, tuple(
                _ref_add({e + 1: c for e, c in p.items()}, q, -1)
                for p, q in zip(cur, prev))
        return cur

    out = {eps: {} for eps in itertools.product((0, -1), repeat=n)}
    for exps, c in terms.items():
        partial = [((), (), c)]
        for k in exps:
            a, b = half(k)
            partial = [
                (bits + (bit,), degs + (e,), cc * u)
                for bits, degs, cc in partial
                for bit, part in ((0, a), (-1, b))
                for e, u in part.items()
            ]
        for bits, degs, cc in partial:
            _ref_acc(out[bits], degs, cc)
    return out


def test_half_basis_closed_form_matches_the_recurrence():
    for k in range(-40, 41):
        want = _ref_basis_decompose({(k,): 1}, 1)
        a, b = _half_basis(k)
        assert {(d,): c for d, c in a} == want[(0,)]
        assert {(d,): c for d, c in b} == want[(-1,)]


def _assert_bounded(p):
    # the no-carry invariant: every exponent inside the carried bound, and
    # the bound inside the limit
    assert 0 <= p._bound < LIMIT
    assert all(abs(e) <= p._bound for exps in p.terms for e in exps)


def _random_terms(rng, n, lo=-3, hi=3, size=6):
    terms = {}
    for _ in range(rng.randint(0, size)):
        _ref_acc(terms, tuple(rng.randint(lo, hi) for _ in range(n)), rng.choice([-3, -1, 1, 2, 5]))
    return terms


def _random_factor(rng, n, span=2):
    while True:
        f = tuple(rng.randint(-span, span) for _ in range(n))
        if any(f):
            return f


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_ring_operations_match_the_reference(n):
    rng = random.Random(f"packed:ops:{n}")
    for cls, lo in ((LaurentPoly, -3), (XPoly, 0)):
        for _ in range(60):
            a, b = _random_terms(rng, n, lo), _random_terms(rng, n, lo)
            pa, pb = cls(n, a), cls(n, b)
            for got, want in (
                (pa + pb, _ref_add(a, b)),
                (pa - pb, _ref_add(a, b, -1)),
                (pa * pb, _ref_mul(a, b)),
                (-pa, {e: -c for e, c in a.items()}),
                (3 * pa, {e: 3 * c for e, c in a.items()}),
            ):
                assert got.terms == want
                _assert_bounded(got)
            for exps in list(a)[:2]:
                assert pa.coefficient(exps) == a[exps]


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_division_matches_the_reference(n):
    rng = random.Random(f"packed:divide:{n}")
    negative_lead = exact = failed = 0
    for _ in range(80):
        k = rng.randint(1, min(3, n + 1))
        factors = []
        while len(factors) < k:
            f = _random_factor(rng, n)
            if f not in factors:
                factors.append(f)
        negative_lead += any(next(a for a in f if a) < 0 for f in factors)
        d = BinomialDivisor(factors)
        q = _random_terms(rng, n, size=4)
        for terms in (_ref_mul(q, d.as_poly().terms), _random_terms(rng, n)):
            want = _ref_divide(terms, factors)
            f = LaurentPoly(n, terms)
            try:
                got = divide_exact(f, d)
            except NotDivisible as exc:
                failed += 1
                assert want[0] == "fail"
                assert exc.factor == want[1]
                assert exc.remainder.terms == want[2]
                _assert_bounded(exc.remainder)
            else:
                exact += 1
                assert want == ("ok", got.terms)
                _assert_bounded(got)
    assert negative_lead and exact and failed


@pytest.mark.parametrize("n", range(2, 6))
def test_packed_xpoly_division_matches_the_reference(n):
    rng = random.Random(f"packed:xdivide:{n}")
    exact = failed = 0
    for _ in range(80):
        mu, nu = rng.sample(range(1, n + 1), 2)
        q = _random_terms(rng, n, 0, 3, size=4)
        linear = {tuple(int(i == mu - 1) for i in range(n)): 1,
                  tuple(int(i == nu - 1) for i in range(n)): -1}
        for terms in (_ref_mul(q, linear), _random_terms(rng, n, 0, 3)):
            quotient, rem = _ref_xdivide(terms, mu, nu)
            try:
                got = xpoly_divide_exact(XPoly(n, terms), mu, nu)
            except NotDivisible as exc:
                failed += 1
                assert rem and exc.factor == (mu, nu)
                assert exc.remainder.terms == rem
                _assert_bounded(exc.remainder)
            else:
                exact += 1
                assert not rem and got.terms == quotient
                _assert_bounded(got)
    assert exact and failed


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_maps_match_the_reference(n):
    rng = random.Random(f"packed:maps:{n}")
    for _ in range(30):
        g = _random_terms(rng, n, 0, 3, size=3)
        got = x_expand(XPoly(n, g))
        assert got.terms == _ref_x_expand(g, n)
        _assert_bounded(got)
        f = _random_terms(rng, n, size=4)
        dec = basis_decompose(LaurentPoly(n, f))
        assert {eps: p.terms for eps, p in dec.items()} == _ref_basis_decompose(f, n)
        for p in dec.values():
            _assert_bounded(p)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        w = SignedPerm(s * p for s, p in zip(signs, perm))
        got = weyl_act_poly(w, LaurentPoly(n, f))
        assert got.terms == _ref_weyl_act(perm, signs, f)
        _assert_bounded(got)


@pytest.mark.parametrize("cls", [LaurentPoly, XPoly])
def test_exponents_next_to_the_limit_survive_json(cls):
    top = LIMIT - 1
    for n in range(1, 6):
        low = 0 if cls is XPoly else -top
        terms = {(top,) + (0,) * (n - 1): 3, (low,) * n: -2, (0,) * (n - 1) + (top,): 1}
        f = cls(n, terms)
        assert f.terms == terms
        assert cls.from_json(n, f.to_json()) == f
        assert json.loads(json.dumps(f.to_json())) == f.to_json()
        assert all(f.coefficient(e) == c for e, c in terms.items())
        # a vector past the limit is never a key, whatever it would pack to
        assert f.coefficient((0,) * (n - 1) + (top + 1,)) == 0
        assert f.coefficient((LIMIT * 2,) + (0,) * (n - 1)) == 0


@pytest.mark.parametrize("cls", [LaurentPoly, XPoly])
def test_exponents_at_or_beyond_the_limit_are_refused(cls):
    for e in (LIMIT, -LIMIT, LIMIT + 1, 2**62, -10**30):
        if cls is XPoly and e < 0:
            continue
        with pytest.raises(ValueError):
            cls(2, {(0, e): 1})
        with pytest.raises(ValueError):
            cls(2, {(e, 0): 0, (0, 0): 1})  # even with a zero coefficient
        with pytest.raises(ValueError):
            cls.from_json(2, [["1", [e, 0]]])
        with pytest.raises(ValueError):
            cls.monomial(2, (e, 1))
    with pytest.raises(ValueError):
        BinomialDivisor([(LIMIT, 0)])


def test_a_product_past_the_limit_raises_before_it_wraps():
    half = LaurentPoly.monomial(2, (LIMIT // 2, 0))
    assert (half * LaurentPoly.monomial(2, (LIMIT // 2 - 1, 0))).terms == {(LIMIT - 1, 0): 1}
    with pytest.raises(OverflowError):
        half * half
    top = LaurentPoly(2, {(0, LIMIT - 1): 1, (0, 0): 1})
    with pytest.raises(OverflowError):
        top * LaurentPoly.x(2, 2)
    with pytest.raises(OverflowError):
        XPoly.X(1, 1) * XPoly.monomial(1, (LIMIT - 1,))


def test_a_division_past_the_limit_raises_before_it_wraps():
    # by x1 x2^1000 - 1, long division in x1 moves a term 1000 steps in x2
    # for each step in x1: x1^40 - 1 would carry a term to x2^-40000
    factor = (1, 1000)
    with pytest.raises(OverflowError):
        divide_exact(LaurentPoly.monomial(2, (40, 0)) - 1, [factor])
    # the same factor near the limit, where every term stays inside
    q = LaurentPoly(2, {(0, LIMIT - 4000): 1, (1, 5): -2})
    f = q * (LaurentPoly.monomial(2, factor) - 1)
    assert divide_exact(f, [factor]) == q
    with pytest.raises(NotDivisible) as exc:
        divide_exact(f + 1, [factor])
    _assert_bounded(exc.value.remainder)
    # dividing by X1 - X2, the witness f(X1 := X2) would be X2^(LIMIT + 1)
    with pytest.raises(OverflowError):
        xpoly_divide_exact(XPoly(2, {(LIMIT // 2 + 1, LIMIT // 2): 1}), 1, 2)
    # an exact quotient there is found: its transient terms reach only
    # bound + (hi - lo), one more than the dividend's bound
    g = XPoly(2, {(LIMIT // 2, LIMIT // 2): 1})
    assert xpoly_divide_exact(g * (X(1) - X(2)), 1, 2) == g


# ---------------------------------------------------------------------------
# pickling: values and failures cross process boundaries intact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [
    LaurentPoly(2, {(3, -2): 5, (0, 0): -1}),
    XPoly(3, {(2, 0, 1): 7, (0, 4, 0): -3 ** 80}),
    XPoly.zero(1),
], ids=["laurent", "xpoly", "zero"])
def test_polynomials_survive_pickling(p):
    q = pickle.loads(pickle.dumps(p))
    assert type(q) is type(p) and q == p and q._bound == p._bound
    with pytest.raises(AttributeError):
        q.rank = 5


def test_ring_exceptions_survive_pickling():
    with pytest.raises(NotDivisible) as caught:
        divide_exact(x(1) + 2, [(1, 0)])
    exc = pickle.loads(pickle.dumps(caught.value))
    assert exc.factor == (1, 0) and exc.remainder == caught.value.remainder
    assert str(exc) == str(caught.value)
    exc = pickle.loads(pickle.dumps(NotInvariant(2)))
    assert exc.sign_index == 2 and str(exc) == str(NotInvariant(2))


def test_not_divisible_crosses_a_process_pool():
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(xpoly_divide_exact, X(1) * X(1) + 1, 1, 2)
        with pytest.raises(NotDivisible) as caught:
            future.result()
    assert caught.value.factor == (1, 2)
    assert caught.value.remainder == X(2) * X(2) + 1


# ---------------------------------------------------------------------------
# the term index: numbers by terms, residue verdicts on pairs of numbers
# ---------------------------------------------------------------------------

def test_equal_terms_share_a_number_whatever_the_object():
    p = LaurentPoly(2, {(1, -1): 2, (0, 3): -1})
    twin = LaurentPoly(2, {(0, 3): -1, (1, -1): 2})
    other = LaurentPoly(2, {(1, -1): 2})
    assert twin is not p
    assert TermIndex([p, other, twin, p]).numbers == [0, 1, 0, 0]


def test_the_largest_bound_stands_for_its_number():
    # (p + m) - m has the terms of p and the bound of m.  Past a third of the
    # limit the residue of that value could leave it, so the verdict of the
    # number is no even on a pair the division passes
    n = 2
    p = LaurentPoly(n, {(2, 0): 1, (0, 1): -3})
    q = p + LaurentPoly(n, {(1, 1): 4}) * (LaurentPoly.monomial(n, (1, 0)) - 1)
    m = LaurentPoly.monomial(n, (LIMIT // 3 + 1, 0))
    inflated = (p + m) - m
    assert inflated.terms == p.terms and inflated._bound == m._bound > p._bound
    divisor = BinomialDivisor([(1, 0)])
    divide_exact(p - q, divisor)
    assert TermIndex([p, q]).verdicts(divisor)[(0, 1)] is True
    for values in ([p, q, inflated], [inflated, q, p]):
        index = TermIndex(values)
        assert index.numbers[0] == index.numbers[2]
        assert index.verdicts(divisor)[(0, 1)] is False
    keys = TermIndex([p, q, inflated]).bound_keys()
    assert keys[0] != keys[2] and keys[0][0] == keys[2][0]
    assert keys == [(0, p._bound), (1, q._bound), (0, m._bound)]


def _seeded_pairs(rng, n):
    """(ring, divisor, a, b, divide) over T roots, X pairs and G pairs, b
    often a plus a multiple of the divisor or of one of its factors."""
    root = _random_factor(rng, n)
    mu, nu = rng.sample(range(1, n + 1), 2)
    e = [(v == mu) - (v == nu) for v in range(1, n + 1)]
    pair = [e, [(v == mu) + (v == nu) for v in range(1, n + 1)]]
    for ring, factors, divide in (
        (LaurentPoly, [root], lambda d, divisor: divide_exact(d, divisor)),
        (LaurentPoly, pair, lambda d, divisor: divide_exact(d, divisor)),
        (XPoly, [e], lambda d, divisor: xpoly_divide_exact(d, mu, nu)),
    ):
        lo = 0 if ring is XPoly else -3
        divisor = BinomialDivisor(factors)
        by = rng.choice([divisor.as_poly(), BinomialDivisor(factors[:1]).as_poly(), 1])
        if ring is XPoly:
            by = XPoly.X(n, mu) - XPoly.X(n, nu) if by != 1 else 1
        a = ring(n, _random_terms(rng, n, lo))
        yield ring, divisor, a, a + ring(n, _random_terms(rng, n, lo)) * by, divide


def _divides(divide, difference, divisor):
    try:
        divide(difference, divisor)
    except NotDivisible:
        return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verdicts_agree_with_the_division(n):
    # and say no past a third of the limit, where only the division decides
    rng = random.Random(f"term-index:{n}")
    seen = {True: 0, False: 0, "far": 0}
    for _ in range(60):
        for ring, divisor, a, b, divide in _seeded_pairs(rng, n):
            far = ring.monomial(n, (0,) * (n - 1) + (LIMIT // 3 + 1,))
            for a, b, near in ((a, b, True), (a * far, b * far, False)):
                index = TermIndex([a, b])
                if index.numbers == [0, 0]:
                    continue
                got = index.verdicts(divisor)[(0, 1)]
                want = _divides(divide, a - b, divisor)
                assert got is (want and near)
                seen[want] += near
                seen["far"] += want and not near
    assert all(seen.values()), seen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_rejected_pair_takes_the_divisions_witness(n):
    # over random factors (leading exponents -2..2) and X pairs in either
    # order: the witness read off the residues has the division's terms, in
    # its order, and its bound; None only where the first factor divides or
    # an X-polynomial's factor is led by a negative exponent
    rng = random.Random(f"witness:{n}")
    seen = {"read": 0, "d=2": 0, "d<0": 0, "X": 0, "none": 0}
    for _ in range(60):
        for ring, divisor, a, b, divide in _seeded_pairs(rng, n):
            index = TermIndex([a, b])
            verdicts = index.verdicts(divisor)
            if index.numbers == [0, 0] or verdicts[(0, 1)]:
                continue
            with pytest.raises(NotDivisible) as caught:
                divide(a - b, divisor)
            got = verdicts.witness(0, 1, a - b)
            _, _, d, _, _ = divisor._steps[0]
            if got is None:
                first = BinomialDivisor(divisor.factors[:1])
                assert _divides(divide, a - b, first) or (ring is XPoly and d < 0)
                seen["none"] += 1
                continue
            assert pickle.dumps(got) == pickle.dumps(caught.value.remainder)
            seen["read"] += 1
            seen["d=2"] += abs(d) == 2
            seen["d<0"] += d < 0
            seen["X"] += ring is XPoly
    assert all(seen.values()), seen
