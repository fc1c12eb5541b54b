"""Exact arithmetic in the character rings Z[x1^±1,...,xn^±1] and Z[X1,...,Xn].

Laurent polynomials hold torus characters: the monomial with exponent vector
``lam`` is the character e^lam.  X-polynomials live in the polynomial ring
generated by X_v, which embeds into the Laurent ring through X_v = x_v +
x_v^{-1}.  Coefficients are Python ints throughout, so every operation is
exact at arbitrary size; there is no floating point anywhere.

Packed exponents (Kronecker substitution with balanced fields).  A
polynomial is one dict from a packed key to a nonzero int coefficient.  The
key of the exponent vector e is ``sum(e[i] << (FIELD_BITS * i))``: the
vector read as the digits of one int in base 2^FIELD_BITS, each digit a
signed value in (-EXPONENT_LIMIT, EXPONENT_LIMIT), EXPONENT_LIMIT =
2^(FIELD_BITS - 1).  Packing is additive, so a monomial shift is ``k + E``
and a long-division step is ``k - F``; adding 2^(FIELD_BITS - 1) to every
field makes each one a plain base-2^FIELD_BITS digit, which a shift and a
mask read back.

No-carry invariant: every key of every polynomial has all its fields
strictly inside the limit, so the map from exponent vectors to keys is
injective and ``k + E`` is the key of the sum of the two vectors, never a
carry into a neighbouring field.  Each polynomial carries ``_bound``, an
upper bound on |e| over its terms, and every operation checks the bound of
its result before it forms a key:

* ``__init__`` refuses (``ValueError``) an exponent with |e| at or beyond
  the limit, and records the true maximum.
* ``+`` and ``-`` form only keys of their operands: the bound is the max of
  the operands' bounds.
* ``*`` adds one key of each operand, so |e| is at most the sum of the
  bounds; a sum at or beyond the limit raises ``OverflowError``.
* An exact quotient by e^F - 1 (or by X_mu - X_nu) keeps the bound: the
  Newton polytope of the dividend is that of the quotient summed with the
  segment [0, F] (or [0, e_mu - e_nu]), so it contains the quotient's, and
  |e| is largest at a vertex, which is a term of the dividend.  The long
  division also forms transient terms, each moved by -F once per bucket
  of the leading variable it passes: at most (hi - lo) // |d| times, hi -
  lo the spread of that variable and d its exponent in F.  So |e| stays at
  most ``bound + (hi - lo) // |d| * max|F|``; that figure is checked
  before the first step (``OverflowError``) and bounds a remainder
  witness.  Division by X_mu - X_nu is this division by X_mu X_nu^{-1} - 1
  (d = 1, max|F| = 1), so its transient figure is ``bound + (hi - lo)``;
  its witness f(X_mu := X_nu) reaches ``bound + hi``, checked before it
  is formed.  The Euler orientation prod (1 - x^F)
  (``BinomialDivisor.euler``) is (-1)^k times prod (x^F - 1), k factors:
  for odd k its division negates the dividend's coefficients as it buckets
  them for the first factor, so the same walk gives its quotient, with the
  same bound; a failure restores the sign of the remainder, so its witness
  is that of prod (x^F - 1), terms and bound.
* A residue modulo e^F - 1 (``TermIndex``, which decides GKM edges by
  residues) moves a term by -t F with |t| <= 2 * bound // |d|, so it
  reaches at most ``bound + 2 * bound // |d| * max|F|``, as far as the long
  division of a difference of two values within the bound.  At or beyond
  the limit no residue is formed: the division decides, or raises
  ``OverflowError``.  Inside it the witness of a failing edge is read off
  the two residues, as the division's remainder, the residue of the
  difference moved by whole factors into the division's last window: it
  has the division's bound, which the same check keeps inside the limit,
  so no ``OverflowError`` is skipped.
* ``weyl_act_poly`` permutes and negates exponents; ``x_expand`` and
  ``basis_decompose`` write x^k through X^j with |j| <= |k| and the other
  way round: all three keep the bound.

The ``terms`` attribute is a read-only view, a new dict from exponent
tuples to coefficients, decoded on each read; arithmetic never reads it.
Values are immutable after construction and may be shared freely.  Outside
input is validated once, at construction; results of arithmetic skip
re-validation (``_PolyBase._trusted``) because they are clean by
construction.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import product, repeat
from math import comb
from operator import countOf, eq

__all__ = [
    "LaurentPoly",
    "XPoly",
    "BinomialDivisor",
    "TermIndex",
    "NotDivisible",
    "NotInvariant",
    "EXPONENT_LIMIT",
    "divide_exact",
    "xpoly_divide_exact",
    "weyl_act_poly",
    "x_expand",
    "basis_decompose",
    "sym_in_x",
    "sigma_k",
]

# Width of one exponent field of a packed key; |e| < EXPONENT_LIMIT.
FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1


class NotDivisible(ArithmeticError):
    """Exact division failed.

    ``factor`` is the offending divisor (an exponent vector for a Laurent
    binomial m-1, or an index pair (mu, nu) for X_mu - X_nu) and
    ``remainder`` is a nonzero remainder witnessing the failure.
    """

    def __init__(self, factor, remainder):
        super().__init__(factor, remainder)
        self.factor = factor
        self.remainder = remainder

    def __str__(self):
        # rendered on demand: a witness may hold ints too long to print
        return f"not divisible; factor={self.factor}, remainder={self.remainder}"

    def to_json(self):
        """The witness ``qflagk verify`` prints when this escapes a suite."""
        return {"error": "not-divisible", "factor": list(self.factor),
                "remainder": self.remainder.to_json()}


class NotInvariant(ValueError):
    """A Laurent polynomial moved under the sign change x_v -> x_v^{-1}."""

    def __init__(self, sign_index):
        self.sign_index = sign_index
        super().__init__(f"not invariant under the sign change at x_{sign_index}")

    def __reduce__(self):
        return (type(self), (self.sign_index,))


# ---------------------------------------------------------------------------
# packed keys and term dicts (packed key -> nonzero int coefficient)
# ---------------------------------------------------------------------------

def _pack(exps):
    """The key of an exponent vector whose entries are inside the limit."""
    key = 0
    for e in reversed(exps):
        key = (key << FIELD_BITS) + e
    return key


@lru_cache(maxsize=None)
def _bias(rank):
    # EXPONENT_LIMIT in every field: key + bias has the digits e_i + limit
    return _pack((EXPONENT_LIMIT,) * rank)


@lru_cache(maxsize=None)
def _layout(rank):
    # rank fields, each a signed FIELD_BITS-bit int, least significant first
    return struct.Struct("<%d%s" % (rank, {16: "h", 32: "i", 64: "q"}[FIELD_BITS]))


def _unpack(key, rank):
    # the xor turns each digit e_i + limit into e_i mod 2^FIELD_BITS, which
    # the layout reads back as the signed e_i
    bias = _bias(rank)
    layout = _layout(rank)
    return layout.unpack(((key + bias) ^ bias).to_bytes(layout.size, "little"))


def _acc(terms, key, c):
    new = terms.get(key, 0) + c
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _check_reach(reach, what):
    if reach >= EXPONENT_LIMIT:
        raise OverflowError(
            f"{what} could reach an exponent of {reach}, beyond the limit "
            f"|e| < {EXPONENT_LIMIT}"
        )


def _render(items, var):
    """Text of (exponent tuple, coefficient) pairs in canonical order."""
    pieces = []
    for exps, c in items:
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
    return " ".join(pieces) or "0"


class _PolyBase:
    """Shared plumbing for the two concrete polynomial classes, which differ
    in ``_letter``, the name of their variables, and ``_check_exps``."""

    __slots__ = ("rank", "_packed", "_bound")

    def __init__(self, rank, terms=None):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        clean = {}
        bound = 0
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != rank:
                raise ValueError(f"exponent vector {exps} has wrong length for rank {rank}")
            if any(type(e) is not int for e in exps):  # not bool, nor 1.5
                raise TypeError(f"exponents must be integers: {exps}")
            self._check_exps(exps)
            top = max(map(abs, exps))
            if top >= EXPONENT_LIMIT:
                raise ValueError(
                    f"an exponent is outside the limit |e| < {EXPONENT_LIMIT}"
                )
            if c:
                bound = max(bound, top)
                _acc(clean, _pack(exps), int(c))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_packed", clean)
        object.__setattr__(self, "_bound", bound)

    @classmethod
    def _trusted(cls, rank, packed, bound):
        """Wrap a packed term dict that is already clean: keys whose fields
        are inside ``bound`` < EXPONENT_LIMIT and pass ``_check_exps``,
        nonzero int coefficients.  Only for results of arithmetic on
        validated polynomials; it checks nothing."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_bound", bound)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the default restore of slot state would go through __setattr__
        return (self._trusted, (self.rank, self._packed, self._bound))

    @property
    def terms(self):
        """A new dict from exponent tuples to coefficients, decoded on each read."""
        return {_unpack(k, self.rank): c for k, c in self._packed.items()}

    def _items(self):
        # (exponent tuple, coefficient) pairs in canonical order: graded
        # lexicographic, largest first (total degree, then lex on vectors)
        return sorted(
            ((_unpack(k, self.rank), c) for k, c in self._packed.items()),
            key=lambda t: (sum(t[0]), t[0]),
            reverse=True,
        )

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
        return bool(self._packed)

    def __eq__(self, other):
        if isinstance(other, int):
            other = type(self).constant(self.rank, other)
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self._packed == other._packed
        )

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._packed)
        get = out.get
        for k, c in other._packed.items():
            c += get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return self._trusted(self.rank, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self._packed)
        get = out.get
        for k, c in other._packed.items():
            c = get(k, 0) - c
            if c:
                out[k] = c
            else:
                del out[k]
        return self._trusted(self.rank, out, max(self._bound, other._bound))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._trusted(self.rank, {k: -c for k, c in self._packed.items()}, self._bound)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self._trusted(self.rank, {}, 0)
            return self._trusted(
                self.rank, {k: other * c for k, c in self._packed.items()}, self._bound
            )
        other = self._coerce(other)
        a, b = self._packed, other._packed
        if not a or not b:
            return self._trusted(self.rank, {}, 0)
        bound = self._bound + other._bound
        _check_reach(bound, "a product")
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial shifts keys injectively: no collisions, no zero products
            ((ka, ca),) = a.items()
            return self._trusted(self.rank, {ka + kb: ca * cb for kb, cb in b.items()}, bound)
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                _acc(out, ka + kb, ca * cb)
        return self._trusted(self.rank, out, bound)

    __rmul__ = __mul__

    def coefficient(self, exps):
        exps = tuple(exps)
        if len(exps) != self.rank or any(abs(e) >= EXPONENT_LIMIT for e in exps):
            return 0
        return self._packed.get(_pack(exps), 0)

    def __str__(self):
        return _render(self._items(), self._letter)

    def __repr__(self):
        return f"{type(self).__name__}({self.rank}, {self})"

    # --- serialization ---------------------------------------------------
    # JSON form: list of [coefficient-string, [exponents]] pairs, canonical
    # (graded-lex descending) order.

    def to_json(self):
        return [[str(c), list(e)] for e, c in self._items()]

    @classmethod
    def from_json(cls, rank, data):
        terms = {}
        for coeff, exps in data:
            if any(type(e) is not int for e in exps):  # (True,) would merge into (1,)
                raise TypeError(f"exponents must be integers: {exps!r}")
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + int(str(coeff))  # str(): true and 1.5 are not integers
        return cls(rank, terms)


def _variable(cls, rank, i):
    """The variable x_i of ``LaurentPoly`` or X_i of ``XPoly`` (1-based)."""
    if not 1 <= i <= rank:
        raise ValueError(f"variable index {i} out of range for rank {rank}")
    exps = [0] * rank
    exps[i - 1] = 1
    return cls.monomial(rank, exps)


class LaurentPoly(_PolyBase):
    """Element of Z[x1^±1,...,xn^±1], a finitely supported exponent->int map."""

    __slots__ = ()
    _letter = "x"
    x = classmethod(_variable)


class XPoly(_PolyBase):
    """Element of Z[X1,...,Xn]; exponents are nonnegative."""

    __slots__ = ()
    _letter = "X"
    X = classmethod(_variable)

    @staticmethod
    def _check_exps(exps):
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in XPoly term {exps}")


class BinomialDivisor:
    """A product of distinct binomials prod (m - 1), m a Laurent monomial != 1,
    or, from ``euler``, the same product in the Euler orientation prod (1 - m).

    Factors are stored as exponent vectors.  These products are the only
    divisors the GKM conditions ever need, and each admits an exact
    univariate division with a clean remainder criterion.  The two
    orientations differ by (-1)^k, k the number of factors: ``_negate``
    is whether they differ, which ``divide_exact`` applies in its first pass.
    """

    __slots__ = ("rank", "factors", "_steps", "_euler", "_negate")

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
            if max(map(abs, f)) >= EXPONENT_LIMIT:
                raise ValueError(f"a factor exponent is outside the limit |e| < {EXPONENT_LIMIT}")
        if len(set(factors)) != len(factors):
            raise ValueError("factors must be pairwise distinct")
        self.rank = rank
        self.factors = factors
        # per factor: the factor, the division's leading variable v, its
        # exponent there, the factor's packed key and its largest |exponent|
        steps = []
        for f in factors:
            v = next(i for i, a in enumerate(f) if a)
            steps.append((f, v, f[v], _pack(f), max(map(abs, f))))
        self._steps = tuple(steps)
        self._euler = self._negate = False

    @classmethod
    def euler(cls, factors):
        """prod (1 - x^F) over the factors: the K-theoretic Euler factors."""
        self = cls(factors)
        self._euler = True
        self._negate = len(self.factors) % 2 == 1
        return self

    @classmethod
    def pair(cls, n, mu, nu):
        """(x_mu x_nu^{-1} - 1)(x_mu x_nu - 1) at rank n: the X-model edge
        divisor of the pair (mu, nu), 1-based."""
        hi = tuple((v == mu) - (v == nu) for v in range(1, n + 1))
        lo = tuple((v == mu) + (v == nu) for v in range(1, n + 1))
        return cls([hi, lo])

    def as_poly(self):
        """The product over the factors, in their order; the Euler product is
        the plain one times (-1)^k, in the same term order."""
        out = LaurentPoly.one(self.rank)
        for f in self.factors:
            out = out * (LaurentPoly.monomial(self.rank, f) - 1)
        return -out if self._negate else out

    def __repr__(self):
        binomial = "(1 - {})" if self._euler else "({} - 1)"
        pieces = "".join(binomial.format(_render([(f, 1)], "x")) for f in self.factors)
        return f"BinomialDivisor[{pieces}]"


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _divide_one_factor(terms, bound, rank, v, d, key, fmax, negate=False):
    """Quotient, remainder and remainder bound of a packed term dict by
    (m - 1), m = x^factor, with ``key`` the factor's packed key; with
    ``negate``, of the negated dict, so by (1 - m).

    The dividend is treated as univariate in x_v, the first variable
    occurring in the factor, with Laurent coefficients in the others; long
    division by the unit leading coefficient terminates with a remainder
    whose exponent spread in x_v is smaller than |d|, so the remainder
    vanishes exactly when the division is exact.

    Bucket j holds the terms whose x_v-digit (exponent plus the limit) is j.
    With ``negate`` the coefficients are negated as they are bucketed, in a
    loop of its own, so the plain loop tests no sign per term.
    A term c x^k of the leading bucket is c x^(k - factor) (m - 1) +
    c x^(k - factor): it gives the quotient term at key k - ``key`` and moves
    there, into bucket j - d.  For d > 0 the walk goes down from the top
    bucket, for d < 0 up from the bottom one.  ``fmax`` is the factor's
    largest |exponent|, what one step can add to a transient term's.
    """
    shift = FIELD_BITS * v
    bias = _bias(rank)
    buckets = {}
    if negate:
        for k, c in terms.items():
            j = (k + bias) >> shift & _MASK
            bucket = buckets.get(j)
            if bucket is None:
                buckets[j] = {k: -c}
            else:
                bucket[k] = -c
    else:
        for k, c in terms.items():
            j = (k + bias) >> shift & _MASK
            bucket = buckets.get(j)
            if bucket is None:
                buckets[j] = {k: c}
            else:
                bucket[k] = c
    lo = min(buckets)
    hi = max(buckets)
    reach = bound + (hi - lo) // abs(d) * fmax
    _check_reach(reach, "a division")
    walk = range(hi, lo + d - 1, -1) if d > 0 else range(lo, hi + d + 1)
    quotient = {}
    for j in walk:
        bucket = buckets.pop(j, None)
        if not bucket:
            continue
        moved = {k - key: c for k, c in bucket.items()}
        quotient.update(moved)  # keys of one walk never repeat: no collisions
        target = buckets.get(j - d)
        if not target:
            buckets[j - d] = moved
            continue
        get = target.get
        for k, c in moved.items():
            c += get(k, 0)
            if c:
                target[k] = c
            else:
                del target[k]
    remainder = {}
    for bucket in buckets.values():
        remainder.update(bucket)
    return quotient, remainder, reach


def _leading_exponents(f, v):
    """The exponents of x_v in the terms of ``f``, in the order of its packed
    dict: what ``_residues`` reads for every factor that x_v leads.  The key
    reads are those of ``_divide_one_factor``."""
    shift = FIELD_BITS * v
    bias = _bias(f.rank)
    limit = EXPONENT_LIMIT
    return [((k + bias) >> shift & _MASK) - limit for k in f._packed]


def _residues(f, steps, leads):
    """The residues of ``f`` modulo the factors x^F - 1 of one edge group,
    ``steps`` their entries of ``BinomialDivisor._steps``, all led by x_v,
    with ``leads`` from ``_leading_exponents(f, v)``: a tuple of packed term
    dicts, one pass over the terms per factor, in which terms that cancelled
    keep a zero coefficient (``_same_residue`` compares two residues); or
    None where one of them could leave the exponent limit.

    The residue of a term c x^k is c x^(k - t F), t = floor(e_v / d), with
    e_v its exponent in x_v and d the factor's exponent there: x^F is 1
    modulo the factor, and the residue's x_v-exponent is e_v mod d, one of
    |d| values.  The monomials with those x_v-exponents are a basis of the
    quotient ring over the other variables, so the factor divides a - b
    exactly when a and b have the same residue; neither the difference nor a
    quotient is formed.  The reach checked first is the one in the module
    docstring, at the bound of ``f``; where it fails only the division can
    decide.  The steps are those of ``_divide_one_factor``, so X-polynomials
    go through too: modulo X_mu X_nu^{-1} - 1 the residue is f(X_mu :=
    X_nu).  A group has one factor (a T root, a G pair) or two (an X pair).
    """
    bound = f._bound
    for _, _, d, _, fmax in steps:
        if bound + 2 * bound // abs(d) * fmax >= EXPONENT_LIMIT:
            return None
    packed = f._packed
    out = []
    for _, _, d, key, _ in steps:
        # t = floor(e_v / d) of each term; d = 2 only on T's long roots
        ts = leads if d == 1 else [e // d for e in leads]
        residue = {}
        get = residue.get
        for k, c, t in zip(packed, packed.values(), ts):
            r = k - t * key
            residue[r] = get(r, 0) + c
        out.append(residue)
    return tuple(out)


def _same_residue(a, b):
    """True when two residues from ``_residues`` have the same nonzero terms.

    Either the dicts are equal, or they hold as many nonzero coefficients
    and each coefficient of ``a`` is the one ``b`` has at its key (0 where
    it has none); no copy without the zeros is made.
    """
    return a == b or (
        len(a) - countOf(a.values(), 0) == len(b) - countOf(b.values(), 0)
        and all(map(eq, map(b.get, a, repeat(0)), a.values()))
    )


class TermIndex:
    """Numbers values by their terms (``numbers[k]`` for ``values[k]``),
    whether or not they are one object: by object, then by term count and
    key sum, then term by term.  Of each number the value with the largest
    bound stands for all in the residue verdicts: where its reach check
    holds, each of theirs does.  A rejected pair's remainder witness comes
    from the residues its verdict formed (``verdicts(...).witness``)."""

    __slots__ = ("numbers", "_values", "_chosen", "_leads")

    def __init__(self, values):
        by_id = {}
        groups = {}
        chosen = self._chosen = []
        numbers = self.numbers = []
        for p in values:
            i = by_id.get(id(p))
            if i is None:
                packed = p._packed
                group = groups.setdefault((len(packed), sum(packed)), [])
                i = next((j for j in group if chosen[j]._packed == packed), None)
                if i is None:
                    i = len(chosen)
                    chosen.append(p)
                    group.append(i)
                elif p._bound > chosen[i]._bound:
                    chosen[i] = p
                by_id[id(p)] = i
            numbers.append(i)
        self._values = values
        self._leads = {}  # (leading variable, number) -> _leading_exponents

    def bound_keys(self):
        """Per value, (its number, its bound): equal for equal terms and bounds."""
        return list(zip(self.numbers, [p._bound for p in self._values]))

    def verdicts(self, divisor):
        """A dict from pairs (a, b), a < b, of numbers to whether each factor of
        ``divisor`` (all led by one variable) divides the difference of their
        values, read off residues; False where a residue could leave the
        limit, as only a division decides there.  A pair is decided on its
        first read, each number reduced once per dict; ``witness`` forms a
        rejected pair's remainder from the same residues."""
        return _Verdicts(self, divisor._steps)


class _Verdicts(dict):
    """The dict of ``TermIndex.verdicts``: a missing pair is decided."""

    __slots__ = ("_chosen", "_leads", "_steps", "_residues")

    def __init__(self, index, steps):
        self._chosen = index._chosen
        self._leads = index._leads
        self._steps = steps
        self._residues = {}  # number -> _residues of its value

    def __missing__(self, pair):
        residues, steps, leads = self._residues, self._steps, self._leads
        for i in pair:
            if i not in residues:
                key = (steps[0][1], i)
                e = leads.get(key)
                if e is None:
                    e = leads[key] = _leading_exponents(self._chosen[i], key[0])
                residues[i] = _residues(self._chosen[i], steps, e)
            if residues[i] is None:
                self[pair] = False
                return False
        agree = self[pair] = all(map(_same_residue, residues[pair[0]], residues[pair[1]]))
        return agree

    def witness(self, a, b, diff):
        """The remainder witness of a rejected pair, read off the residues its
        verdict formed, ``diff`` the value of number ``a`` minus that of
        ``b``; None where only a division forms it: past the residues' reach,
        where the first factor divides (the witness is then a quotient's), or
        for an X-polynomial whose factor is led by a negative exponent.

        Long division by x^F - 1 moves each term by whole factors F into the
        last window of x_v-exponents it walks, [lo, lo + d) for d > 0 and
        (hi + d, hi] for d < 0, lo and hi the least and largest of ``diff``:
        the residue term of x_v-exponent rho gets there after ceil((end -
        rho) / d) factors, end that window's end.  The bound is the
        division's reach.  An X-polynomial's residue already is f(X_mu :=
        X_nu), the witness of division by X_mu - X_nu, bound plus hi.  Terms
        are in key order, as the divisions give them."""
        ra, rb = self._residues.get(a), self._residues.get(b)
        if ra is None or rb is None or _same_residue(ra[0], rb[0]):
            return None
        _, v, d, key, fmax = self._steps[0]
        xpoly = type(diff) is XPoly
        if xpoly and d < 0:
            return None
        terms = {r: c for r, c in ra[0].items() if c}
        for r, c in rb[0].items():
            _acc(terms, r, -c)
        leads = _leading_exponents(diff, v)
        lo, hi = min(leads), max(leads)
        if xpoly:
            return XPoly._trusted(diff.rank, dict(sorted(terms.items())), diff._bound + hi)
        shift = FIELD_BITS * v
        bias = _bias(diff.rank)
        end = (lo if d > 0 else hi) + EXPONENT_LIMIT  # the last window's end, as a digit
        moved = {r - (((r + bias) >> shift & _MASK) - end) // d * key: c
                 for r, c in terms.items()}
        return LaurentPoly._trusted(diff.rank, dict(sorted(moved.items())),
                                    diff._bound + (hi - lo) // abs(d) * fmax)


def divide_exact(f: LaurentPoly, divisor) -> LaurentPoly:
    """Exact quotient of ``f`` by a product of binomials prod (m - 1), or by
    prod (1 - m) for a divisor from ``BinomialDivisor.euler``.

    Factors are divided out in their listed order; the result is
    order-independent because the quotient, when it exists, is unique.
    Raises :class:`NotDivisible` with the first failing factor and a nonzero
    remainder witness, its terms in key order, and ``OverflowError`` before
    a term of the long division could leave the exponent limit.  The Euler orientation negates
    the dividend in the first factor's bucketing when it has an odd number
    of factors, and so its witness is that of prod (m - 1), sign restored.
    """
    if not isinstance(divisor, BinomialDivisor):
        divisor = BinomialDivisor(divisor)
    rank = f.rank
    if divisor.rank != rank:
        raise ValueError(f"rank mismatch: {rank} vs {divisor.rank}")
    terms, bound = f._packed, f._bound
    negate = flipped = divisor._negate
    for factor, v, d, key, fmax in divisor._steps:
        if not terms:
            break
        terms, remainder, reach = _divide_one_factor(
            terms, bound, rank, v, d, key, fmax, negate
        )
        negate = False
        if remainder:
            sign = -1 if flipped else 1
            remainder = {k: sign * c for k, c in sorted(remainder.items())}
            raise NotDivisible(factor, LaurentPoly._trusted(rank, remainder, reach))
    return LaurentPoly._trusted(rank, terms, bound)


def xpoly_divide_exact(f: XPoly, mu: int, nu: int) -> XPoly:
    """Exact quotient of ``f`` by X_mu - X_nu (indices 1-based, mu != nu).

    X_mu - X_nu = X_nu (X_mu X_nu^{-1} - 1): long division in X_mu by the
    binomial, then a shift by -e_nu.  Its remainder is (X_mu / X_nu)^lo
    f(X_mu := X_nu), lo the least X_mu-degree of f; the witness is f(X_mu :=
    X_nu).  X-exponents are nonnegative, so each key field is a plain digit.
    """
    if mu == nu:
        raise ValueError("need two distinct indices")
    if not (1 <= mu <= f.rank and 1 <= nu <= f.rank):
        raise ValueError(f"indices ({mu}, {nu}) out of range for rank {f.rank}")
    if not f:
        return XPoly.zero(f.rank)
    shift = FIELD_BITS * (mu - 1)
    e_nu = 1 << (FIELD_BITS * (nu - 1))
    key = (1 << shift) - e_nu  # the packed e_mu - e_nu
    quotient, remainder, reach = _divide_one_factor(f._packed, f._bound, f.rank, mu - 1, 1, key, 1)
    if remainder:
        lo = next(iter(remainder)) >> shift & _MASK  # the one bucket left
        reach += lo  # bound + hi, what the witness reaches
        _check_reach(reach, "a division")
        witness = {k - lo * key: c for k, c in sorted(remainder.items())}
        raise NotDivisible((mu, nu), XPoly._trusted(f.rank, witness, reach))
    return XPoly._trusted(f.rank, {k - e_nu: c for k, c in quotient.items()}, f._bound)


# ---------------------------------------------------------------------------
# the Weyl action
# ---------------------------------------------------------------------------

def weyl_act_poly(w, f: LaurentPoly) -> LaurentPoly:
    """Act by the signed permutation ``w``: the monomial e^lam maps to e^{w(lam)}.

    ``w`` needs ``rank`` and ``act``, its action on exponent vectors, which
    owns the formula; this is a ring automorphism and composes covariantly
    with the group law.
    """
    n = f.rank
    if w.rank != n:
        raise ValueError(f"rank mismatch: {w.rank} vs {n}")
    out = {_pack(w.act(_unpack(k, n))): c for k, c in f._packed.items()}
    return LaurentPoly._trusted(n, out, f._bound)


# ---------------------------------------------------------------------------
# the sign-symmetric subring Z[X1,...,Xn]
# ---------------------------------------------------------------------------

def _x_power_expansion(k, i):
    # (x_i + x_i^{-1})^k (i 0-based) as (packed key, coefficient) pairs
    return [((k - 2 * j) << (FIELD_BITS * i), comb(k, j)) for j in range(k + 1)]


def x_expand(g: XPoly) -> LaurentPoly:
    """Substitute X_v := x_v + x_v^{-1}; the image is sign-change invariant
    and has the same exponent bound."""
    n = g.rank
    out = {}
    for k, c in g._packed.items():
        partial = {0: c}
        for i, e in enumerate(_unpack(k, n)):
            if e:
                uni = _x_power_expansion(e, i)
                partial = {p + u: cc * cu for p, cc in partial.items() for u, cu in uni}
        for key, cc in partial.items():
            _acc(out, key, cc)
    return LaurentPoly._trusted(n, out, g._bound)


@lru_cache(maxsize=None)
def _half_basis(k):
    """x^k = a(X) + b(X) x^{-1} over Z[X], as (a, b), each a tuple of
    (X-degree, coefficient) pairs of degree at most |k|.

    From x^{k+1} = X x^k - x^{k-1}: (a, b) = (S_k, -S_{k-1}), where S_k =
    sum_j (-1)^j C(k-j, j) X^(k-2j) for k >= 0, S_{-1} = 0 and S_{-k-2} =
    -S_k.
    """
    def s(m, sign):
        if m < 0:  # S_{-1} = 0 comes out as the empty sum at m = -1
            m, sign = -m - 2, -sign
        return tuple((m - 2 * j, sign * (-1) ** j * comb(m - j, j)) for j in range(m // 2 + 1))

    return s(k, 1), s(k - 1, -1)


def basis_decompose(f: LaurentPoly) -> dict:
    """Write f = sum over eps in {-1,0}^n of x_expand(c_eps) * x^eps.

    The Laurent ring is free over Z[X1,...,Xn] with basis {x^eps}; the
    decomposition is unique and computed variable by variable from the
    rank-one fact that {1, x^{-1}} is a basis of R[x,x^{-1}] over R[X].
    Returns a dict with all 2^n keys; absent components are zero.
    """
    n = f.rank
    out = {eps: {} for eps in product((0, -1), repeat=n)}
    for k, c in f._packed.items():
        partial = [((), 0, c)]  # (eps bits, packed X-degrees, coefficient)
        for i, e in enumerate(_unpack(k, n)):
            a, b = _half_basis(e)
            shift = FIELD_BITS * i
            nxt = []
            for bits, degs, cc in partial:
                for d, u in a:
                    nxt.append((bits + (0,), degs + (d << shift), cc * u))
                for d, u in b:
                    nxt.append((bits + (-1,), degs + (d << shift), cc * u))
            partial = nxt
        for bits, degs, cc in partial:
            _acc(out[bits], degs, cc)
    return {eps: XPoly._trusted(n, terms, f._bound) for eps, terms in out.items()}


def sym_in_x(f: LaurentPoly) -> XPoly:
    """Invert x_expand on sign-change-invariant Laurent polynomials: the
    component at eps = 0 of ``basis_decompose``.

    The sign change x_v -> x_v^{-1} sends x_v^{-1} to X_v - x_v^{-1}, so it
    moves f exactly when a component with eps_v = -1 is nonzero.  Raises
    :class:`NotInvariant` at the least such v, 1-based.
    """
    parts = basis_decompose(f)
    moved = [eps.index(-1) for eps, c in parts.items() if c and -1 in eps]
    if moved:
        raise NotInvariant(min(moved) + 1)
    return parts[(0,) * f.rank]


def sigma_k(k: int, args) -> object:
    """Elementary symmetric polynomial sigma_k evaluated at ``args``: ring
    elements that add and multiply with ints, GKM tuples included.
    """
    args = list(args)
    if not 1 <= k <= len(args):
        raise ValueError(f"k={k} out of range for {len(args)} arguments")
    e = [1] + [0] * k
    for i, a in enumerate(args):
        for j in range(min(i + 1, k), 0, -1):
            e[j] = e[j] + e[j - 1] * a
    return e[k]
