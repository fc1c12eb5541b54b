"""Fixed-point models of the equivariant K-theory rings and their maps.

Three models, all tuples of characters indexed by fixed points:

* T-model on the full flag variety of the symplectic group: one Laurent
  polynomial per signed permutation, with e^alpha - 1 dividing the difference
  across every reflection edge.
* X-model on the quaternionic flag space: one Laurent polynomial per plain
  permutation, with (x_mu x_nu^{-1} - 1)(x_mu x_nu - 1) dividing differences
  across transposition edges.
* G-model: one X-polynomial per plain permutation, with X_mu - X_nu dividing
  the differences.

The models differ only in their fixed points, edges with divisors, ring and
divide routine; one table entry per model (``_T``, ``_X``, ``_G``) holds
these, and one tuple type, edge walk, checker and JSON codec serve all three.
The checker decides an edge by the residues of its two values modulo each
binomial x^F - 1 of its divisor (``ringcore.TermIndex``).  That is exact
for the X divisor too: its factors have the exponents e_mu - e_nu and e_mu
+ e_nu, distinct primitive vectors, so they are irreducible and not
associate in the factorial ring Z[x^±1], and their product divides a
difference iff each of them does.

Schubert classes are built by the Demazure recursion from the point class
(``demazure``).  The two sign choices that recursion leaves open (the
exponent sign in the K-theoretic Euler product and in the Demazure
denominator) are pinned by requiring the rank-one recursion to reach the
constant tuple 1, and the chosen convention is recorded in ``CONVENTION``.  At
w, the class of w is prod (1 - e^alpha) over the positive roots alpha with
w^{-1}(alpha) > 0 (``_diagonal``): the closed-form divisor of the Schubert
expansion.

Those 2^n n! classes do not descend to the quaternionic flag space: each is
nonzero at the identity, so a class fixed by the sign change -1 would also be
nonzero at the longest element -1, which only the class of -1 itself is.  The
n! classes that do descend are built in the G-model, which is the type-A GKM
graph with edge weights X_mu - X_nu.  ``quaternionic_schubert_classes``
builds them by Billey's formula, without division, so the G- and X-checks
reuse no division of their construction; ``QUATERNIONIC_CONVENTION`` records
their signs.  Their restrictions are the double Schubert polynomials
S_tau(x; y) at x_i = X_{sigma(i)}, y_j = X_j; ``pullback_pi(j_expand(...))``
turns them into sign-change-invariant T-tuples.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from functools import lru_cache

from .ringcore import (
    BinomialDivisor,
    LaurentPoly,
    NotDivisible,
    NotInvariant,
    TermIndex,
    XPoly,
    divide_exact,
    sigma_k,
    sym_in_x,
    x_expand,
    xpoly_divide_exact,
)
from .weylc import (
    SignedPerm,
    all_perms,
    coset_map,
    descents,
    enumerate_weyl,
    is_positive_root,
    length,
    perm_compose,
    perm_embed,
    perm_transposition,
    positive_roots,
    reduced_word,
    reflection,
    simple_pairs,
    simple_reflection,
    simple_root,
)

__all__ = [
    "GKMTupleT",
    "GKMTupleX",
    "GKMTupleG",
    "EdgeViolation",
    "InexactDivision",
    "NotInTupleSpan",
    "TupleNotInvariant",
    "CONVENTION",
    "gkm_check_t",
    "gkm_check_x",
    "gkm_check_g",
    "point_class",
    "demazure",
    "schubert_class",
    "schubert_class_from_word",
    "schubert_table",
    "QUATERNIONIC_CONVENTION",
    "quaternionic_schubert_classes",
    "descent_invariance_check",
    "diagonal_check",
    "pullback_pi",
    "descend_pi",
    "j_expand",
    "j_descend",
    "canonical_class",
    "presentation_check",
    "expand_in_schubert",
]

# Pinned sign convention for the Schubert recursion (see module docstring).
CONVENTION = {
    "euler_exponent_sign": 1,
    "demazure_denominator": "1 - e^(w(alpha_i))",
}

# Pinned signs for the G-model classes of the quaternionic flag space.
QUATERNIONIC_CONVENTION = {
    "point_class": "prod_{a<b} (X_{w0(a)} - X_{w0(b)}) at w0 = (n, ..., 1)",
    "divided_difference_denominator": "X_{sigma(i)} - X_{sigma(i+1)}",
}


class InexactDivision(ArithmeticError):
    """A Demazure step failed to divide exactly.

    Signals a wrong sign convention or a corrupted input tuple; carries the
    fixed point, the simple index and the failing numerator.
    """

    def __init__(self, w, i, numerator):
        self.w = w
        self.i = i
        self.numerator = numerator
        super().__init__(f"inexact Demazure division at {w} for simple index {i}")

    def __reduce__(self):
        return (type(self), (self.w, self.i, self.numerator))

    def to_json(self):
        """The witness ``qflagk verify`` prints when this escapes a suite."""
        return {"error": "inexact-division", "w": list(self.w.window()), "i": self.i,
                "numerator": self.numerator.to_json()}


class NotInTupleSpan(ArithmeticError):
    """A tuple is not a combination of the requested Schubert classes."""

    def __init__(self, witness_index, residual):
        self.witness_index = witness_index
        self.residual = residual
        super().__init__(f"nonzero residual at {witness_index}")

    def __reduce__(self):
        return (type(self), (self.witness_index, self.residual))


class TupleNotInvariant(ValueError):
    """A tuple moved under a group element that was required to fix it."""

    def __init__(self, group_element, index):
        self.group_element = group_element
        self.index = index
        super().__init__(f"component at {index} moved under {group_element}")

    def __reduce__(self):
        return (type(self), (self.group_element, self.index))


class EdgeViolation(namedtuple("EdgeViolation", "model index partner edge remainder")):
    """A failed divisibility condition along one edge of a GKM graph, from
    ``index`` to ``partner`` (window tuples in T, one-line tuples in X and G)
    along ``edge`` (the positive root in T, the pair (mu, nu) in X and G)."""

    __slots__ = ()

    def to_json(self):
        return {
            "model": self.model,
            "index": list(self.index),
            "partner": list(self.partner),
            "edge": list(self.edge),
            "remainder": self.remainder.to_json(),
        }


def _perm_from_label(label):
    tau = tuple(label)
    if any(type(v) is not int for v in tau):  # not bool, which subclasses int, nor 1.5
        raise ValueError(f"permutation entries must be integers: {label}")
    return tau


def _perm_key(tau):
    return perm_embed(tau).window_str()


def _value_map(window):
    """Left multiplication by the element with this window, as a map on the
    signed values of a label: v to w_v and -v to -w_v."""
    image = dict(enumerate(window, 1))
    image.update({-v: -x for v, x in image.items()})
    return image


def _root_reflections(n):
    """Per positive root alpha, s_alpha on signed values: a <-> b for
    L^a - L^b, a -> -b and b -> -a for L^a + L^b, a -> -a for 2L^a."""
    for alpha in positive_roots(n):
        yield alpha, _value_map(reflection(alpha).window()), BinomialDivisor([alpha])


def _pair_reflections(factors):
    """The transposition edges, each with the first ``factors`` factors of
    ``BinomialDivisor.pair``: both for X, and X_mu X_nu^{-1} - 1 alone for G.
    The transposition (mu nu) acts on one-line labels by swapping mu and nu."""
    def reflections(n):
        for mu in range(1, n + 1):
            for nu in range(mu + 1, n + 1):
                divisor = BinomialDivisor(BinomialDivisor.pair(n, mu, nu).factors[:factors])
                yield (mu, nu), _value_map(perm_transposition(n, mu, nu)), divisor

    return reflections


class _Model(namedtuple("_Model", "name ring vertices reflections divide label key from_label")):
    """What tells one GKM model from another.

    ``reflections(n)`` yields (edge, value map, divisor).  The value map is
    left multiplication by the edge's reflection, read on labels: it sends
    each entry of a fixed point's label to the entry of its image's label.
    The divisor is a product of binomials x^F - 1 with one leading
    variable, whose residues decide the reflection's edges
    (``ringcore.TermIndex``): a T root has one factor, an X pair (mu, nu)
    two, both led by x_mu, and a G pair one, X_mu X_nu^{-1} - 1.
    ``divide(difference, edge, divisor)`` divides a failing edge's
    difference by the edge condition: by the divisor in T and X, and by
    X_mu - X_nu = X_nu (X_mu X_nu^{-1} - 1), a unit times it, in G.
    ``label`` is a fixed point as violations report it, and edges are
    checked from the endpoint with the smaller label.  In JSON a fixed point
    is keyed by ``key``, its window as a compact JSON list
    (``SignedPerm.window_str``; a plain permutation is embedded first), and
    read back by ``from_label``.
    """

    __slots__ = ()


_T = _Model(
    "T", LaurentPoly, enumerate_weyl, _root_reflections,
    lambda diff, edge, divisor: divide_exact(diff, divisor),
    SignedPerm.window, SignedPerm.window_str, SignedPerm.from_window,
)
_X = _Model(
    "X", LaurentPoly, all_perms, _pair_reflections(2),
    lambda diff, edge, divisor: divide_exact(diff, divisor),
    tuple, _perm_key, _perm_from_label,
)
_G = _Model(
    "G", XPoly, all_perms, _pair_reflections(1),
    lambda diff, pair, divisor: xpoly_divide_exact(diff, *pair),
    tuple, _perm_key, _perm_from_label,
)


@lru_cache(maxsize=None)
def _edges(model, n):
    """The edges of the model's GKM graph by reflection, as (edge, divisor,
    pairs), where pairs lists each edge u -- v of that reflection once as
    (u, v, positions of u and v in ``model.vertices(n)``).  v is found by
    its label, the value map applied entrywise to u's label."""
    vertices = model.vertices(n)
    labels = list(map(model.label, vertices))
    position = {label: k for k, label in enumerate(labels)}
    return tuple(
        (edge, divisor, tuple(
            (vertices[k], vertices[j], k, j)
            for k, label in enumerate(labels)
            for j in (position[tuple(map(image.__getitem__, label))],)
            if label < labels[j]
        ))
        for edge, image, divisor in model.reflections(n)
    )


@lru_cache(maxsize=None)
def _vertex_set(model, n):
    """The fixed points of the model at rank n as one frozenset, hashed once:
    ``set(values) != _vertex_set(...)`` reuses the hashes stored in both."""
    return frozenset(model.vertices(n))


class _GKMTuple:
    """One ``model.ring`` element per fixed point; subclasses name the model."""

    def __init__(self, rank, values):
        m = self.model
        keys = _vertex_set(m, rank)
        if set(values) != keys:
            missing = set(keys - set(values))
            extra = set(values) - keys
            raise ValueError(f"{m.name}-tuple must be total: missing {missing}, extra {extra}")
        for k, p in values.items():
            if not isinstance(p, m.ring) or p.rank != rank:
                raise ValueError(f"component at {k} is not a rank-{rank} {m.ring.__name__}")
        self.rank = rank
        self.values = values

    def __eq__(self, other):  # and so __hash__ is None: the values are a dict
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and self.values == other.values

    def __repr__(self):
        return f"{type(self).__qualname__}(rank={self.rank!r}, values={self.values!r})"

    @classmethod
    def constant(cls, rank, poly):
        if isinstance(poly, int):
            poly = cls.model.ring.constant(rank, poly)
        return cls(rank, {v: poly for v in cls.model.vertices(rank)})

    def _pointwise(self, op, other):
        """``op`` at every fixed point, against the value there of a tuple of
        the same model and rank, or against one ring element or int."""
        if isinstance(other, _GKMTuple):
            if type(other) is not type(self) or other.rank != self.rank:
                names = [f"rank-{t.rank} {t.model.name}-tuple" for t in (self, other)]
                raise TypeError("cannot mix a {} with a {}".format(*names))
            at = other.values
        else:
            at = dict.fromkeys(self.values, other)
        return type(self)(self.rank, {v: op(p, at[v]) for v, p in self.values.items()})

    def __add__(self, other):
        return self._pointwise(operator.add, other)

    def __sub__(self, other):
        return self._pointwise(operator.sub, other)

    def __mul__(self, other):
        return self._pointwise(operator.mul, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def to_json(self):
        # a value shared by several fixed points is rendered once, and its
        # JSON list shared; the objects stay alive in self.values, so their
        # ids are not reused meanwhile
        m = self.model
        rendered = {}
        values = {}
        for v in m.vertices(self.rank):
            p = self.values[v]
            js = rendered.get(id(p))
            if js is None:
                js = rendered[id(p)] = p.to_json()
            values[m.key(v)] = js
        return {"model": m.name, "rank": self.rank, "values": values}

    @classmethod
    def from_json(cls, data):
        m = cls.model
        if data.get("model") != m.name:
            raise ValueError(f"tuple is tagged model {data.get('model')!r}, expected {m.name!r}")
        rank = data["rank"]
        if type(rank) is not int:  # not bool, which subclasses int, nor 1.5
            raise ValueError(f"rank must be an integer: {rank!r}")
        if not isinstance(data["values"], dict):
            raise ValueError("values must be a JSON object")
        values = {
            m.from_label(json.loads(key)): m.ring.from_json(rank, val)
            for key, val in data["values"].items()
        }
        if len(values) != len(data["values"]):  # "[1,2]" and "[1, 2]" name one point
            raise ValueError("values name a fixed point twice")
        return cls(rank, values)


class GKMTupleT(_GKMTuple):
    """One Laurent polynomial per signed permutation."""

    model = _T


class GKMTupleX(_GKMTuple):
    """One Laurent polynomial per plain permutation."""

    model = _X


class GKMTupleG(_GKMTuple):
    """One X-polynomial per plain permutation."""

    model = _G


# ---------------------------------------------------------------------------
# membership checkers
# ---------------------------------------------------------------------------

def _check(model, f):
    """The violations of ``f`` in ``model``'s edge order.

    An edge passes when its two values have the same terms, or when their
    residue verdict (``ringcore.TermIndex``) is that each factor of the
    divisor, and so their product (see the module docstring), divides the
    difference.  Otherwise ``model.divide`` decides and forms the remainder
    witness, or raises ``OverflowError``.
    """
    violations = []
    values = [f.values[u] for u in model.vertices(f.rank)]
    terms = TermIndex(values)
    index = terms.numbers
    for edge, divisor, pairs in _edges(model, f.rank):
        verdicts = terms.verdicts(divisor)
        for u, v, iu, iv in pairs:
            a, b = index[iu], index[iv]
            if a == b or verdicts[(a, b) if a < b else (b, a)]:
                continue
            try:
                model.divide(values[iu] - values[iv], edge, divisor)
            except NotDivisible as exc:
                violations.append(
                    EdgeViolation(model.name, model.label(u), model.label(v), edge, exc.remainder)
                )
    return violations


def gkm_check_t(f: GKMTupleT):
    """All edge conditions of the T-model; returns violations (empty = pass).

    Edges are the pairs {w, s_alpha * w} over positive roots alpha; each
    unordered pair is checked once, which is enough because negating the
    difference does not change divisibility by e^alpha - 1.
    """
    return _check(_T, f)


def gkm_check_x(f: GKMTupleX):
    """Pair conditions of the X-model; divisor (x_mu x_nu^{-1}-1)(x_mu x_nu-1)."""
    return _check(_X, f)


def gkm_check_g(f: GKMTupleG):
    """Pair conditions of the G-model; divisor X_mu - X_nu."""
    return _check(_G, f)


# ---------------------------------------------------------------------------
# the Schubert basis
# ---------------------------------------------------------------------------

def point_class(n: int) -> GKMTupleT:
    """The class of the base point: the K-theoretic Euler product
    prod_{alpha > 0} (1 - e^alpha) at the identity (``_diagonal``), zero
    elsewhere."""
    values = {w: LaurentPoly.zero(n) for w in enumerate_weyl(n)}
    e = SignedPerm.identity(n)
    values[e] = _diagonal(e)
    return GKMTupleT(n, values)


@lru_cache(maxsize=None)
def _euler_factors(n):
    """Per positive root beta, e^beta and the Euler factor 1 - e^beta
    (``BinomialDivisor.euler``), each built once at rank n and shared by
    every Demazure step whose w(alpha_i) is beta."""
    return {
        beta: (LaurentPoly.monomial(n, beta), BinomialDivisor.euler([beta]))
        for beta in positive_roots(n)
    }


@lru_cache(maxsize=None)
def _demazure_steps(n, i):
    """(the positions of w and w s_i in ``enumerate_weyl(n)``, e^{w(alpha_i)},
    1 - e^{w(alpha_i)}) for each pair {w, w s_i} of ``weylc.simple_pairs``.
    w is the shorter element, so i is not a descent of w and w(alpha_i) > 0.
    The monomial and the divisor are those of ``_euler_factors``, one object
    per root."""
    alpha = simple_root(i, n)
    weyl = enumerate_weyl(n)
    factors = _euler_factors(n)
    return tuple((k, j) + factors[weyl[k].act(alpha)] for k, j in simple_pairs(n, i))


def demazure(i: int, f: GKMTupleT) -> GKMTupleT:
    """Demazure operator: at w, (f_w - e^{w(alpha_i)} f_{w s_i}) / (1 - e^{w(alpha_i)}).

    The value at w s_i is the value at w.  With beta = w(alpha_i), w s_i
    sends alpha_i to -beta, so there the numerator is
    f_{w s_i} - e^{-beta} f_w = -e^{-beta} (f_w - e^beta f_{w s_i}) and the
    divisor is 1 - e^{-beta} = -e^{-beta} (1 - e^beta); the unit cancels.
    So each pair {w, w s_i} takes one numerator and one exact division, at
    its first element w in ``enumerate_weyl`` order, and both fixed points
    share the result.  A class repeats its values on the cosets of its
    descents, so many pairs repeat (f_w, f_{w s_i}, w(alpha_i)) too: one
    numerator and one division serve each distinct pair of values, matched
    by terms and bounds (``ringcore.TermIndex.bound_keys``), and root, so
    that each quotient keeps the bound its own pair's division gives it;
    the one quotient is stored at every pair that has them.  The root is
    matched by its divisor, one object per root (``_euler_factors``).
    The division is exact at w s_i iff it is at w, so a failure raises
    :class:`InexactDivision` with the same (w, i, numerator) as a walk over
    every fixed point in that order: its first failing point is the first
    element of the first pair with those values and root.  Where the
    numerator is zero, or f_w and f_{w s_i} both are (then none is formed),
    the pair's value is zero.  The divisor is the Euler factor 1 - e^beta
    itself (``BinomialDivisor.euler``): the division negates the numerator
    as it buckets its terms, so the quotient is the value, with no second
    pass to negate it.
    The operator is idempotent on valid tuples, and its result is keyed in
    ``enumerate_weyl`` order.
    """
    n = f.rank
    weyl = enumerate_weyl(n)
    values = list(map(f.values.__getitem__, weyl))
    keys = TermIndex(values).bound_keys()
    zero = LaurentPoly.zero(n)
    out = [zero] * len(weyl)
    quotients = {}
    for k, kws, e_walpha, divisor in _demazure_steps(n, i):
        fw, fws = values[k], values[kws]
        key = (keys[k], keys[kws], divisor)
        q = quotients.get(key)
        if q is None:
            q = zero
            if fw or fws:
                numerator = fw - e_walpha * fws
                if numerator:
                    try:
                        q = divide_exact(numerator, divisor)
                    except NotDivisible:
                        raise InexactDivision(weyl[k], i, numerator) from None
            quotients[key] = q
        out[k] = out[kws] = q
    return GKMTupleT(n, dict(zip(weyl, out)))


def quaternionic_schubert_classes(n: int) -> dict:
    """The n! Schubert classes of the quaternionic flag space as G-tuples.

    Billey's formula, without division.  S[sigma] maps tau to the value of
    the class of tau at sigma: S[e] = {e: 1}, and with sigma = p * s_i, i the
    smallest descent of sigma, S[sigma] is S[p] plus (X_{p(i+1)} - X_{p(i)})
    * S[p][d] added at d * s_i for each d that s_i lengthens (the nil-Hecke
    product drops the rest).  These are the divided differences of the point
    class at w0 = (n, ..., 1), signs as in ``QUATERNIONIC_CONVENTION``.
    Returns a dict from plain permutations to :class:`GKMTupleG`, from w0
    down in the order the divided differences reach them.
    """
    perms = all_perms(n)
    simple = [perm_transposition(n, i + 1, i + 2) for i in range(n - 1)]
    zero = XPoly.zero(n)
    subwords = {perms[0]: {perms[0]: XPoly.one(n)}}
    for sigma in perms[1:]:  # by increasing length
        i = next(i for i in range(n - 1) if sigma[i] > sigma[i + 1])
        p = perm_compose(sigma, simple[i])
        weight = XPoly.X(n, p[i + 1]) - XPoly.X(n, p[i])
        s = subwords[sigma] = dict(subwords[p])
        for d, c in subwords[p].items():
            if d[i] < d[i + 1]:
                ds = perm_compose(d, simple[i])
                s[ds] = s.get(ds, zero) + weight * c
    order = dict.fromkeys([perms[-1]] + [perm_compose(tau, simple[i]) for tau in reversed(perms)
                                         for i in range(n - 1) if tau[i] > tau[i + 1]])
    return {
        tau: GKMTupleG(n, {sigma: subwords[sigma].get(tau, zero) for sigma in perms})
        for tau in order
    }


def schubert_class_from_word(n: int, word) -> GKMTupleT:
    """Fold the Demazure recursion along an explicit word from the point class."""
    cls = point_class(n)
    for i in word:
        cls = demazure(i, cls)
    return cls


class _Classes(dict):
    """The dict ``schubert_table`` returns.  ``classes`` is the dict itself:
    ``bench/test_oracles.py`` still reads the table through it."""

    __slots__ = ()

    @property
    def classes(self):
        return self


@lru_cache(maxsize=None)
def _schubert_table(n: int) -> dict:
    e, *rest = enumerate_weyl(n)
    classes = _Classes({e: point_class(n)})
    for w in rest:  # by length, so w s_i comes before w
        i = descents(w)[0]
        classes[w] = demazure(i, classes[w * simple_reflection(i, n)])
    return classes


def schubert_table(n: int) -> dict:
    """All classes, SignedPerm -> GKMTupleT, keyed in ``enumerate_weyl``
    order; their sign convention is ``CONVENTION``.  The class of w is
    ``demazure(i, class of w s_i)``, i the smallest right descent of w: the
    chain ``schubert_class`` folds along ``reduced_word(w)``, so both give
    the same values, bounds included."""
    return _schubert_table(n)


def schubert_class(w: SignedPerm) -> GKMTupleT:
    """The class of w alone, folded along one reduced word of w."""
    return schubert_class_from_word(w.rank, reduced_word(w))


def descent_invariance_check(table: dict):
    """Whenever right multiplication by s_i shortens w (``weylc.descents``),
    the index action of s_i must fix the class of w.  Returns the offending
    (w, i) pairs.

    That action moves the value at u to u s_i, so it fixes a class when the
    two values of each pair {u, u s_i} of ``weylc.simple_pairs(n, i)`` are
    equal; the pairs are positions in ``enumerate_weyl(n)``.  No group
    element acts on a tuple.
    """
    n = next(iter(table)).rank
    weyl = enumerate_weyl(n)
    bad = []
    for w in weyl:
        values = list(map(table[w].values.__getitem__, weyl))
        for i in descents(w):
            if any(values[a] is not values[b] and values[a] != values[b]
                   for a, b in simple_pairs(n, i)):
                bad.append((w, i))
    return bad


def diagonal_check(table: dict):
    """The class of w must take at w the closed form ``_diagonal(w)``.
    Returns the w where it does not, in the table's order."""
    return [w for w, cls in table.items() if cls.values[w] != _diagonal(w)]


# ---------------------------------------------------------------------------
# maps between the models
# ---------------------------------------------------------------------------

def pullback_pi(f: GKMTupleX) -> GKMTupleT:
    """Pull back along the quotient of fixed-point sets: value at w is the
    value at the underlying permutation of w."""
    return GKMTupleT(
        f.rank, {w: f.values[coset_map(w)] for w in enumerate_weyl(f.rank)}
    )


def descend_pi(f: GKMTupleT) -> GKMTupleX:
    """Inverse of the pullback on sign-change-invariant tuples.

    Raises :class:`TupleNotInvariant` with a witnessing (group element, fixed
    point) pair when some sign change moves f.  f is invariant iff f[w] equals
    f[u] for every w, where u is w with all signs positive; where it does
    not, the witness is the sign change v = u^{-1} w, as f[w v^{-1}] = f[u].
    """
    n = f.rank
    for w in enumerate_weyl(n):
        u = perm_embed(coset_map(w))
        if f.values[w] != f.values[u]:
            raise TupleNotInvariant(u.inverse() * w, w.window())
    return GKMTupleX(
        n, {tau: f.values[perm_embed(tau)] for tau in all_perms(n)}
    )


def j_expand(f: GKMTupleG) -> GKMTupleX:
    """Componentwise X_v := x_v + x_v^{-1}."""
    return GKMTupleX(f.rank, {t: x_expand(p) for t, p in f.values.items()})


def j_descend(f: GKMTupleX) -> GKMTupleG:
    """Componentwise inverse of j_expand; every component must be sign-change invariant."""
    out = {}
    for tau, p in f.values.items():
        try:
            out[tau] = sym_in_x(p)
        except NotInvariant as exc:  # x_i -> x_i^{-1} is the reflection in the root 2L^i
            root = [2 * (v == exc.sign_index) for v in range(1, f.rank + 1)]
            raise TupleNotInvariant(reflection(root), tau) from None
    return GKMTupleG(f.rank, out)


def canonical_class(nu: int, n: int) -> GKMTupleG:
    """The class of the rank-two quotient bundle at step nu: its restriction
    to the fixed flag of tau is X_{tau(nu)}."""
    if not 1 <= nu <= n:
        raise ValueError(f"bundle index {nu} out of range for rank {n}")
    return GKMTupleG(
        n, {tau: XPoly.X(n, tau[nu - 1]) for tau in all_perms(n)}
    )


def presentation_check(n: int):
    """Verify the defining relations of the presentation in both models.

    For each k, the componentwise elementary symmetric polynomial of the
    quotient-bundle classes must equal the constant tuple sigma_k(X_1..X_n);
    expanding through j gives the corresponding Laurent identity.  Returns a
    list of (model, k, tau) failures.
    """
    failures = []
    classes = [canonical_class(v, n) for v in range(1, n + 1)]
    gens_x = [XPoly.X(n, v) for v in range(1, n + 1)]
    models = (
        ("G", classes, gens_x),
        ("X", [j_expand(c) for c in classes], [x_expand(g) for g in gens_x]),
    )
    for k in range(1, n + 1):
        for model, tuples, gens in models:
            target = sigma_k(k, gens)
            got = sigma_k(k, tuples).values
            failures += [(model, k, tau) for tau in all_perms(n) if got[tau] != target]
    return failures


# ---------------------------------------------------------------------------
# expansion in the Schubert basis
# ---------------------------------------------------------------------------

def _diagonal_roots(w: SignedPerm):
    """The positive roots alpha with w^{-1}(alpha) still positive: all of
    them at the identity, none at the longest element -1."""
    winv = w.inverse()
    return [a for a in positive_roots(w.rank) if is_positive_root(winv.act(a))]


def _diagonal(w: SignedPerm) -> LaurentPoly:
    """The class of w at w: prod (1 - e^alpha) over ``_diagonal_roots(w)``,
    from ``BinomialDivisor.euler(...).as_poly``, which keeps the term order
    of prod (e^alpha - 1): the Demazure steps from the point class run about
    3% faster on it than on the order that multiplying out the 1 - e^alpha
    gives.  It is 1 at the longest element -1, which has no such roots."""
    roots = _diagonal_roots(w)
    if not roots:
        return LaurentPoly.one(w.rank)
    return BinomialDivisor.euler(roots).as_poly()


def expand_in_schubert(f: GKMTupleT, basis):
    """Solve f = sum a_w * class_w over the given basis elements, each
    counted once however often it is listed.

    The system is triangular in the Bruhat order: scanning the basis by
    decreasing length, the residual value at w must be a_w times the
    diagonal value of class_w, which is prod (1 - e^alpha) over the positive
    roots alpha with w^{-1}(alpha) > 0 (Graham 2002).  At the identity that
    is the point class.  A Demazure step up to v = w s_i > w divides the
    diagonal by 1 - e^{w(alpha_i)}, because class_w vanishes at v; and
    w(alpha_i) is the one positive root that v^{-1} makes negative and
    w^{-1} does not.  So a_w is the residual at w divided exactly by
    prod (1 - e^alpha) over that set D (``BinomialDivisor.euler``), and the
    residual itself at the longest element -1, where D is empty.  A division
    failure or a nonzero final residual raises :class:`NotInTupleSpan`.
    """
    n = f.rank
    table = schubert_table(n)
    residual = f
    coeffs = {}
    for w in sorted(set(basis), key=lambda u: (-length(u), u.window())):
        rw = residual.values[w]
        if not rw:
            coeffs[w] = LaurentPoly.zero(n)
            continue
        roots = _diagonal_roots(w)
        a = rw
        if roots:
            try:
                a = divide_exact(rw, BinomialDivisor.euler(roots))
            except NotDivisible as exc:
                raise NotInTupleSpan(w.window(), exc.remainder) from None
        coeffs[w] = a
        residual = residual - table[w] * a
    for v in enumerate_weyl(n):
        if residual.values[v]:
            raise NotInTupleSpan(v.window(), residual.values[v])
    return coeffs
