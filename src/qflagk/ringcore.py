"""Exact arithmetic in the character rings Z[x1^±1,...,xn^±1] and Z[X1,...,Xn].

Laurent polynomials hold torus characters: the monomial with exponent vector
``lam`` is the character e^lam.  X-polynomials live in the polynomial ring
generated by X_v, which embeds into the Laurent ring through X_v = x_v +
x_v^{-1}.  Coefficients are Python ints throughout, so every operation is
exact at arbitrary size; there is no floating point anywhere.

Values are immutable after construction (by convention: nothing here mutates
a ``terms`` dict once the owning polynomial exists) and may be shared freely.

Every outside input is validated once, at construction.  Results of
arithmetic skip re-validation: their term dicts are built from terms that
were already valid, with zero sums dropped as they arise, so they are clean
by construction.
"""

from __future__ import annotations

from itertools import product
from math import comb

__all__ = [
    "LaurentPoly",
    "XPoly",
    "BinomialDivisor",
    "NotDivisible",
    "NotInvariant",
    "divide_exact",
    "xpoly_divide_exact",
    "weyl_act_poly",
    "x_expand",
    "basis_decompose",
    "sym_in_x",
    "sigma_k",
]


class NotDivisible(ArithmeticError):
    """Exact division failed.

    ``factor`` is the offending divisor (an exponent vector for a Laurent
    binomial m-1, or an index pair (mu, nu) for X_mu - X_nu) and
    ``remainder`` is a nonzero remainder witnessing the failure.
    """

    def __init__(self, factor, remainder):
        self.factor = factor
        self.remainder = remainder
        super().__init__(f"not divisible; factor={factor}, remainder={remainder}")


class NotInvariant(ValueError):
    """A Laurent polynomial moved under the sign change x_v -> x_v^{-1}."""

    def __init__(self, sign_index):
        self.sign_index = sign_index
        super().__init__(f"not invariant under the sign change at x_{sign_index}")


# ---------------------------------------------------------------------------
# term-dict helpers (exponent tuple -> nonzero int coefficient)
# ---------------------------------------------------------------------------

def _acc(terms, exps, c):
    new = terms.get(exps, 0) + c
    if new:
        terms[exps] = new
    else:
        terms.pop(exps, None)


def _term_add(a, b):
    out = dict(a)
    for exps, c in b.items():
        _acc(out, exps, c)
    return out


def _term_mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a monomial shifts keys injectively: no collisions, no zero products
        ((ea, ca),) = a.items()
        return {tuple(x + y for x, y in zip(ea, eb)): ca * cb for eb, cb in b.items()}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _acc(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _term_neg(a):
    return {exps: -c for exps, c in a.items()}


def _term_scale(a, k):
    if k == 0:
        return {}
    return {exps: k * c for exps, c in a.items()}


def _canonical_order(exps_iterable):
    # graded lexicographic, largest first: total degree, then lex on vectors
    return sorted(exps_iterable, key=lambda e: (sum(e), e), reverse=True)


def _render(terms, var):
    if not terms:
        return "0"
    pieces = []
    for exps in _canonical_order(terms):
        c = terms[exps]
        factors = [
            f"{var}{i + 1}" + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(exps)
            if e != 0
        ]
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


class _PolyBase:
    """Shared plumbing for the two concrete polynomial classes."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != rank:
                raise ValueError(f"exponent vector {exps} has wrong length for rank {rank}")
            self._check_exps(exps)
            if c:
                _acc(clean, exps, int(c))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, rank, terms):
        """Wrap a term dict that is already clean: tuple keys of length
        ``rank`` that pass ``_check_exps``, nonzero int coefficients.  Only for
        results of arithmetic on validated polynomials; it checks nothing."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _check_exps(exps):
        pass

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def constant(cls, rank, c):
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def monomial(cls, rank, exps, coeff=1):
        return cls(rank, {tuple(exps): coeff})

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).constant(self.rank, other)
        if type(other) is not type(self):
            raise TypeError(f"cannot mix {type(self).__name__} with {type(other).__name__}")
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return other

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = type(self).constant(self.rank, other)
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        return self._trusted(self.rank, _term_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._trusted(self.rank, _term_add(self.terms, _term_neg(other.terms)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._trusted(self.rank, _term_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._trusted(self.rank, _term_scale(self.terms, other))
        other = self._coerce(other)
        return self._trusted(self.rank, _term_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.rank}, {self})"

    # --- serialization ---------------------------------------------------
    # JSON form: list of [coefficient-string, [exponents]] pairs, canonical
    # (graded-lex descending) order.

    def to_json(self):
        return [[str(self.terms[e]), list(e)] for e in _canonical_order(self.terms)]

    @classmethod
    def from_json(cls, rank, data):
        terms = {}
        for coeff, exps in data:
            if any(type(e) is not int for e in exps):
                raise ValueError(f"exponents must be integers: {exps!r}")
            _acc(terms, tuple(exps), int(str(coeff)))  # str(): true and 1.5 are not integers
        return cls(rank, terms)


class LaurentPoly(_PolyBase):
    """Element of Z[x1^±1,...,xn^±1], a finitely supported exponent->int map."""

    __slots__ = ()

    @classmethod
    def x(cls, rank, i):
        """The variable x_i (1-based)."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} out of range for rank {rank}")
        exps = [0] * rank
        exps[i - 1] = 1
        return cls(rank, {tuple(exps): 1})

    def __str__(self):
        return _render(self.terms, "x")


class XPoly(_PolyBase):
    """Element of Z[X1,...,Xn]; exponents are nonnegative."""

    __slots__ = ()

    @staticmethod
    def _check_exps(exps):
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in XPoly term {exps}")

    @classmethod
    def X(cls, rank, i):
        """The generator X_i (1-based)."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} out of range for rank {rank}")
        exps = [0] * rank
        exps[i - 1] = 1
        return cls(rank, {tuple(exps): 1})

    def __str__(self):
        return _render(self.terms, "X")


class BinomialDivisor:
    """A product of distinct binomials prod (m - 1), m a Laurent monomial != 1.

    Factors are stored as exponent vectors.  These products are the only
    divisors the GKM conditions ever need, and each admits an exact
    univariate division with a clean remainder criterion.
    """

    __slots__ = ("rank", "factors")

    def __init__(self, factors):
        factors = tuple(tuple(f) for f in factors)
        if not factors:
            raise ValueError("divisor needs at least one factor")
        rank = len(factors[0])
        for f in factors:
            if len(f) != rank:
                raise ValueError("factor exponent vectors have mixed lengths")
            if all(e == 0 for e in f):
                raise ValueError("factor monomial must differ from 1")
        if len(set(factors)) != len(factors):
            raise ValueError("factors must be pairwise distinct")
        self.rank = rank
        self.factors = factors

    def as_poly(self):
        out = LaurentPoly.one(self.rank)
        for f in self.factors:
            out = out * (LaurentPoly.monomial(self.rank, f) - 1)
        return out

    def __repr__(self):
        pieces = "".join(f"({_render({f: 1}, 'x')} - 1)" for f in self.factors)
        return f"BinomialDivisor[{pieces}]"


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _flip_var(terms, v):
    return {e[:v] + (-e[v],) + e[v + 1:]: c for e, c in terms.items()}


def _divide_one_factor(terms, factor):
    """Quotient and remainder of a term dict by (m - 1), m = x^factor.

    The dividend is treated as univariate in the first variable occurring in
    ``factor``, with Laurent coefficients in the others; long division by the
    unit leading coefficient terminates with a remainder whose exponent
    spread in that variable is smaller than the factor's, so the remainder
    vanishes exactly when the division is exact.

    Bucket k holds the terms whose exponent in that variable is k, each keyed
    by its full exponent vector, so a quotient term's key is the dividend
    term's key minus ``factor`` and lands in bucket k - d.
    """
    if not terms:
        return {}, {}
    v = next(i for i, a in enumerate(factor) if a != 0)
    if factor[v] < 0:
        # divide through the automorphism x_v -> x_v^{-1}
        q, r = _divide_one_factor(
            _flip_var(terms, v), factor[:v] + (-factor[v],) + factor[v + 1:]
        )
        return _flip_var(q, v), _flip_var(r, v)
    d = factor[v]
    buckets = {}
    for exps, c in terms.items():
        buckets.setdefault(exps[v], {})[exps] = c
    lo = min(buckets)
    hi = max(buckets)
    quotient = {}
    for k in range(hi, lo + d - 1, -1):
        bucket = buckets.pop(k, None)
        if not bucket:
            continue
        target = buckets.setdefault(k - d, {})
        for exps, c in bucket.items():
            # c x^exps = c x^(exps - factor) * (m - 1) + c x^(exps - factor)
            shifted = tuple(e - a for e, a in zip(exps, factor))
            _acc(quotient, shifted, c)
            _acc(target, shifted, c)
    remainder = {}
    for bucket in buckets.values():
        remainder.update(bucket)
    return quotient, remainder


def divide_exact(f: LaurentPoly, divisor) -> LaurentPoly:
    """Exact quotient of ``f`` by a product of binomials prod (m - 1).

    Factors are divided out in their listed order; the result is
    order-independent because the quotient, when it exists, is unique.
    Raises :class:`NotDivisible` with the first failing factor and a nonzero
    remainder witness.
    """
    if not isinstance(divisor, BinomialDivisor):
        divisor = BinomialDivisor(divisor)
    if divisor.rank != f.rank:
        raise ValueError(f"rank mismatch: {f.rank} vs {divisor.rank}")
    terms = f.terms
    for factor in divisor.factors:
        terms, remainder = _divide_one_factor(terms, factor)
        if remainder:
            raise NotDivisible(factor, LaurentPoly._trusted(f.rank, remainder))
    return LaurentPoly._trusted(f.rank, terms)


def xpoly_divide_exact(f: XPoly, mu: int, nu: int) -> XPoly:
    """Exact quotient of ``f`` by X_mu - X_nu (indices 1-based, mu != nu).

    Synthetic division in the variable X_mu with coefficients in the other
    generators; divisibility holds exactly when the final remainder (the
    image of f under X_mu := X_nu) vanishes.
    """
    if mu == nu:
        raise ValueError("need two distinct indices")
    if not (1 <= mu <= f.rank and 1 <= nu <= f.rank):
        raise ValueError(f"indices ({mu}, {nu}) out of range for rank {f.rank}")
    m, v = mu - 1, nu - 1
    buckets = {}
    for exps, c in f.terms.items():
        rest = exps[:m] + (0,) + exps[m + 1:]
        buckets.setdefault(exps[m], {})[rest] = c
    if not buckets:
        return XPoly.zero(f.rank)
    top = max(buckets)

    def shift_nu(termdict):
        return {e[:v] + (e[v] + 1,) + e[v + 1:]: c for e, c in termdict.items()}

    quotient = {}
    carry = {}  # q_k, built downward: q_{k-1} = c_k + q_k * X_nu
    for k in range(top, 0, -1):
        carry = _term_add(buckets.get(k, {}), shift_nu(carry))
        for rest, c in carry.items():
            _acc(quotient, rest[:m] + (k - 1,) + rest[m + 1:], c)
    remainder = _term_add(buckets.get(0, {}), shift_nu(carry))
    if remainder:
        raise NotDivisible((mu, nu), XPoly._trusted(f.rank, remainder))
    return XPoly._trusted(f.rank, quotient)


# ---------------------------------------------------------------------------
# the Weyl action
# ---------------------------------------------------------------------------

def weyl_act_poly(w, f: LaurentPoly) -> LaurentPoly:
    """Act by the signed permutation ``w``: the monomial e^lam maps to e^{w(lam)}.

    ``w`` needs ``perm`` (1-based images) and ``signs`` attributes; this is a
    ring automorphism and composes covariantly with the group law.
    """
    if len(w.perm) != f.rank:
        raise ValueError(f"rank mismatch: {len(w.perm)} vs {f.rank}")
    out = {}
    for exps, c in f.terms.items():
        new = [0] * f.rank
        for i, e in enumerate(exps):
            new[w.perm[i] - 1] = w.signs[i] * e
        out[tuple(new)] = c
    return LaurentPoly._trusted(f.rank, out)


# ---------------------------------------------------------------------------
# the sign-symmetric subring Z[X1,...,Xn]
# ---------------------------------------------------------------------------

def _x_power_expansion(k):
    # (x + x^{-1})^k as a univariate exponent->coefficient dict
    return {k - 2 * j: comb(k, j) for j in range(k + 1)}


def x_expand(g: XPoly) -> LaurentPoly:
    """Substitute X_v := x_v + x_v^{-1}; the image is sign-change invariant."""
    out = {}
    for exps, c in g.terms.items():
        partial = {(): c}
        for k in exps:
            uni = _x_power_expansion(k)
            partial = {
                prefix + (e,): cc * u
                for prefix, cc in partial.items()
                for e, u in uni.items()
            }
        for exps2, cc in partial.items():
            _acc(out, exps2, cc)
    return LaurentPoly._trusted(g.rank, out)


# x^k = a_k(X)*1 + b_k(X)*x^{-1} over Z[X]; both recurrences come from
# x^{k+1} = X*x^k - x^{k-1}.
_HALF_BASIS = {0: ({0: 1}, {}), -1: ({}, {0: 1})}


def _uni_shift_sub(p, q):
    # X*p - q on univariate dicts
    out = {}
    for e, c in p.items():
        _acc(out, e + 1, c)
    for e, c in q.items():
        _acc(out, e, -c)
    return out


def _half_basis(k):
    hi = max(_HALF_BASIS)
    while k > hi:
        a1, b1 = _HALF_BASIS[hi]
        a0, b0 = _HALF_BASIS[hi - 1]
        _HALF_BASIS[hi + 1] = (_uni_shift_sub(a1, a0), _uni_shift_sub(b1, b0))
        hi += 1
    lo = min(_HALF_BASIS)
    while k < lo:
        a1, b1 = _HALF_BASIS[lo]
        a2, b2 = _HALF_BASIS[lo + 1]
        _HALF_BASIS[lo - 1] = (_uni_shift_sub(a1, a2), _uni_shift_sub(b1, b2))
        lo -= 1
    return _HALF_BASIS[k]


def basis_decompose(f: LaurentPoly) -> dict:
    """Write f = sum over eps in {-1,0}^n of x_expand(c_eps) * x^eps.

    The Laurent ring is free over Z[X1,...,Xn] with basis {x^eps}; the
    decomposition is unique and computed variable by variable from the
    rank-one fact that {1, x^{-1}} is a basis of R[x,x^{-1}] over R[X].
    Returns a dict with all 2^n keys; absent components are zero.
    """
    n = f.rank
    out = {eps: {} for eps in product((0, -1), repeat=n)}
    for exps, c in f.terms.items():
        partial = [((), (), c)]  # (eps bits, X-degrees, coefficient)
        for k in exps:
            a, b = _half_basis(k)
            nxt = []
            for bits, degs, cc in partial:
                for e, u in a.items():
                    nxt.append((bits + (0,), degs + (e,), cc * u))
                for e, u in b.items():
                    nxt.append((bits + (-1,), degs + (e,), cc * u))
            partial = nxt
        for bits, degs, cc in partial:
            _acc(out[bits], degs, cc)
    return {eps: XPoly._trusted(n, terms) for eps, terms in out.items()}


def sym_in_x(f: LaurentPoly) -> XPoly:
    """Invert x_expand on sign-change-invariant Laurent polynomials.

    Raises :class:`NotInvariant` with a witnessing sign-change index when f
    is moved by some x_v -> x_v^{-1}.
    """
    dec = basis_decompose(f)
    zero_eps = (0,) * f.rank
    if all(not p for eps, p in dec.items() if eps != zero_eps):
        return dec[zero_eps]
    for v in range(f.rank):
        if _flip_var(f.terms, v) != f.terms:
            raise NotInvariant(v + 1)
    raise AssertionError("decomposition and sign-change test disagree")


def sigma_k(k: int, args) -> object:
    """Elementary symmetric polynomial sigma_k evaluated at ``args``.

    Works for any ring elements supporting + and * (LaurentPoly, XPoly).
    """
    args = list(args)
    if not 1 <= k <= len(args):
        raise ValueError(f"k={k} out of range for {len(args)} arguments")
    one = type(args[0]).one(args[0].rank)
    zero = type(args[0]).zero(args[0].rank)
    e = [one] + [zero] * k
    for i, a in enumerate(args):
        for j in range(min(i + 1, k), 0, -1):
            e[j] = e[j] + e[j - 1] * a
    return e[k]
