"""Exact quaternionic linear algebra and the Bruhat cells of the flag space.

Quaternions have four rational components; matrices act on row vectors of H^n
through g: h -> h * g^† (conjugate transpose), which makes the action linear
over left scalar multiplication.  The flag of an invertible matrix g is the
chain whose step v is spanned by the images of e_1,...,e_v, i.e. by the first
v rows of g^†.

Every invertible g factors uniquely as g = u * p_tau * b with b upper
triangular, u unit upper triangular supported on a constrained set of
positions, and p_tau the permutation matrix with entry (mu, nu) = 1 iff
mu = tau(nu).  The permutation tau is also computable directly from the
flag's intersection-dimension jumps, on integer rows with none of the
quaternion arithmetic of the factorization, and the two routes must agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .weylc import perm_identity, perm_inverse

__all__ = [
    "Quaternion",
    "QMatrix",
    "SingularMatrix",
    "perm_matrix",
    "bruhat_decompose",
    "u_membership",
    "free_positions",
    "cell_index",
]


class SingularMatrix(ArithmeticError):
    """A matrix that should be invertible is not."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if type(x) is int or isinstance(x, str):  # not bool, which subclasses int
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Quaternion:
    """a + b*i + c*j + d*k with exact rational components.

    Stored as four int numerators ``_x`` over one positive int ``_den``, in
    lowest terms (gcd(*_x, _den) == 1), so equal quaternions have equal
    fields.  Arithmetic stays in ints; ``a``..``d`` read the components back
    as ``Fraction``.  Immutable.
    """

    __slots__ = ("_x", "_den")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, a, b, c, d):
        fs = (_frac(a), _frac(b), _frac(c), _frac(d))
        den = lcm(*(f.denominator for f in fs))
        _set_x(self, tuple(f.numerator * (den // f.denominator) for f in fs))
        _set_den(self, den)

    def __eq__(self, other):
        if type(other) is not Quaternion:
            return NotImplemented
        return self._x == other._x and self._den == other._den

    def __hash__(self):
        return hash((self._x, self._den))

    def __reduce__(self):
        return _trusted, (*self._x, self._den)

    @property
    def a(self) -> Fraction:
        return Fraction(self._x[0], self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._x[1], self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._x[2], self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._x[3], self._den)

    @classmethod
    def zero(cls):
        return cls(0, 0, 0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0, 0, 0)

    def __add__(self, other):
        a1, b1, c1, d1 = self._x
        a2, b2, c2, d2 = other._x
        n1, n2 = self._den, other._den
        return _trusted(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                        c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    def __sub__(self, other):
        a1, b1, c1, d1 = self._x
        a2, b2, c2, d2 = other._x
        n1, n2 = self._den, other._den
        return _trusted(a1 * n2 - a2 * n1, b1 * n2 - b2 * n1,
                        c1 * n2 - c2 * n1, d1 * n2 - d2 * n1, n1 * n2)

    def __neg__(self):
        a, b, c, d = self._x
        return _reduced((-a, -b, -c, -d), self._den)

    def __mul__(self, other):
        a1, b1, c1, d1 = self._x
        a2, b2, c2, d2 = other._x
        return _trusted(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            self._den * other._den,
        )

    def conjugate(self):
        a, b, c, d = self._x
        return _reduced((a, -b, -c, -d), self._den)

    def is_zero(self):
        return not any(self._x)

    def inverse(self):
        # conj(x / den) / (|x|^2 / den^2) = conj(x) * den / |x|^2
        a, b, c, d = self._x
        n2 = a * a + b * b + c * c + d * d
        if not n2:
            raise ZeroDivisionError("zero quaternion has no inverse")
        den = self._den
        return _trusted(a * den, -b * den, -c * den, -d * den, n2)

    def __repr__(self):
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"

    def to_json(self):
        return [str(self.a), str(self.b), str(self.c), str(self.d)]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or len(data) != 4:  # a string is not its characters
            raise ValueError(f"quaternion encoding needs a list of 4 components: {data!r}")
        return cls(*data)


_set_x = Quaternion._x.__set__
_set_den = Quaternion._den.__set__
_new = object.__new__


def _trusted(a, b, c, d, den):
    """The quaternion (a, b, c, d) / den for ints a..d and den > 0, reduced to
    lowest terms.  Only for results of arithmetic; it checks no types."""
    g = gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    q = _new(Quaternion)
    _set_x(q, (a, b, c, d))
    _set_den(q, den)
    return q


def _reduced(x, den):
    """The quaternion x / den for a tuple x of ints already in lowest terms
    over den > 0, as a sign change of a reduced quaternion is: no gcd."""
    q = _new(Quaternion)
    _set_x(q, x)
    _set_den(q, den)
    return q


def _sub_mul(e, a, b):
    """e - a * b, reduced once.  The product is not reduced on its own: the
    form in lowest terms with a positive denominator is unique, so one
    reduction of the whole gives the quaternion that reducing a * b and then
    the difference gives, with one gcd instead of two."""
    a0, a1, a2, a3 = a._x
    b0, b1, b2, b3 = b._x
    e0, e1, e2, e3 = e._x
    m, n = a._den * b._den, e._den
    return _trusted(
        e0 * m - (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3) * n,
        e1 * m - (a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2) * n,
        e2 * m - (a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1) * n,
        e3 * m - (a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0) * n,
        n * m,
    )


_Q0 = Quaternion.zero()
_Q1 = Quaternion.one()


class QMatrix:
    """Square quaternionic matrix, rows-of-tuples; immutable and exact."""

    __setattr__ = __delattr__ = _immutable  # no __slots__: unpickling fills __dict__ directly

    def __init__(self, entries):
        n = len(entries)
        rows = tuple(tuple(row) for row in entries)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    def __eq__(self, other):
        if type(other) is not QMatrix:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.entries,))

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def identity(cls, n):
        return perm_matrix(perm_identity(n))

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(
            tuple(e if isinstance(e, Quaternion) else Quaternion(e, 0, 0, 0) for e in row)
            for row in rows
        ))

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = _Q0
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return QMatrix(tuple(out))

    def is_upper_triangular(self):
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.n)
            for j in range(i)
        )

    def is_unit_upper_triangular(self):
        return self.is_upper_triangular() and all(
            self.entries[i][i] == _Q1 for i in range(self.n)
        )

    def __repr__(self):
        return f"QMatrix({self.n}x{self.n})"

    def to_json(self):
        return [[q.to_json() for q in row] for row in self.entries]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(
            tuple(Quaternion.from_json(q) for q in row) for row in data
        ))


def perm_matrix(tau: tuple) -> QMatrix:
    """0/1 matrix with entry (mu, nu) = 1 iff mu = tau(nu).

    Column nu carries the basis vector e_{tau(nu)}, so the map tau ->
    perm_matrix(tau) is a group homomorphism and the flag of perm_matrix(tau)
    is the coordinate flag spanned step by step by e_{tau(1)}, e_{tau(2)}, ...
    """
    n = len(tau)
    return QMatrix(tuple(
        tuple(_Q1 if mu + 1 == tau[nu] else _Q0 for nu in range(n))
        for mu in range(n)
    ))


def free_positions(tau: tuple):
    """Positions (mu, nu), 1-based, where the unipotent factor may be nonzero.

    These are the pairs mu < nu with tau^{-1}(mu) > tau^{-1}(nu); their count
    equals the inversion number of tau, matching the cell dimension.
    """
    n = len(tau)
    tinv = perm_inverse(tau)
    return [
        (mu, nu)
        for mu in range(1, n + 1)
        for nu in range(mu + 1, n + 1)
        if tinv[mu - 1] > tinv[nu - 1]
    ]


def u_membership(u: QMatrix, tau: tuple) -> bool:
    """Whether u lies in the constrained unipotent group of the cell of tau.

    True iff the diagonal is all ones and every off-diagonal entry vanishes
    outside ``free_positions(tau)``.
    """
    n = u.n
    if len(tau) != n:
        raise ValueError("size mismatch")
    free = set(free_positions(tau))
    return u.is_unit_upper_triangular() and all(
        u.entries[mu][nu].is_zero()
        for mu in range(n)
        for nu in range(mu + 1, n)
        if (mu + 1, nu + 1) not in free
    )


def bruhat_decompose(g: QMatrix):
    """Factor an invertible g as u * perm_matrix(tau) * b.

    Row reduction from the bottom up: each row is cleared against the leading
    entries already claimed by lower rows, using only additions of lower rows
    to upper rows.  That makes the accumulated u unit upper triangular and
    supported on ``free_positions(tau)``, and leaves a matrix whose rows have
    distinct leading columns; the permutation read off those columns is tau
    and the row-permuted matrix is the upper triangular b.

    Arithmetic happens only where an entry changes: a row update e - lam * f
    leaves e as it is where f is zero, and the u update e + u[r][mu] * lam,
    made as e - u[r][mu] * (-lam), where u[r][mu] is zero.  Each update is
    one ``_sub_mul``, reduced once; a form in lowest terms is unique, so the
    entry is the one that reducing the product and then the sum gives.

    Returns (u, tau, b) with g == u * perm_matrix(tau) * b exactly.
    """
    n = g.n
    rows = [list(r) for r in g.entries]
    u = [list(r) for r in QMatrix.identity(n).entries]
    claimed = {}  # leading column -> row index
    for mu in range(n - 1, -1, -1):
        while True:
            lead = next((c for c in range(n) if not rows[mu][c].is_zero()), None)
            if lead is None:
                raise SingularMatrix("matrix is not invertible")
            k = claimed.get(lead)
            if k is None:
                break
            lam = rows[mu][lead] * rows[k][lead].inverse()
            rows[mu] = [e if f.is_zero() else _sub_mul(e, lam, f)
                        for e, f in zip(rows[mu], rows[k])]
            # g = u_new * M_new with u_new = u * (I + lam * E_{mu,k})
            minus_lam = -lam
            for r in range(n):
                if not u[r][mu].is_zero():
                    u[r][k] = _sub_mul(u[r][k], u[r][mu], minus_lam)
        claimed[lead] = mu
    tau = tuple(claimed[c] + 1 for c in range(n))
    b = QMatrix(tuple(tuple(rows[tau[k] - 1]) for k in range(n)))
    return QMatrix(tuple(tuple(r) for r in u)), tau, b


def _lsub_mul(m, e, lam, f):
    """m * e - lam * f for an int m and quaternions e, lam, f as 4-int tuples."""
    a0, a1, a2, a3 = lam
    f0, f1, f2, f3 = f
    e0, e1, e2, e3 = e
    return (
        m * e0 - (a0 * f0 - a1 * f1 - a2 * f2 - a3 * f3),
        m * e1 - (a0 * f1 + a1 * f0 + a2 * f3 - a3 * f2),
        m * e2 - (a0 * f2 - a1 * f3 + a2 * f0 + a3 * f1),
        m * e3 - (a0 * f3 + a1 * f2 - a2 * f1 + a3 * f0),
    )


_Z4 = (0, 0, 0, 0)


def _pivot_columns(rows):
    """The last-nonzero column, 0-based, that each row claims in left reduction.

    The rows hold quaternions as 4-int tuples, and the reduction is
    fraction-free: it takes no inverse and forms no ``Quaternion``.  Each
    row r in turn is cleared against the rows already reduced: while its last
    nonzero column c is claimed by a reduced row k, r becomes
    m * r - (r[c] * conj(p)) * k, where k[c] = h * p for the gcd h of its
    components and m = h * N(p) with N(p) = p * conj(p).  As
    (r[c] * conj(p)) * h * p = m * r[c], that zeroes r[c]; it and the zero
    entries after it are dropped, and m is a positive integer, so r keeps its
    left span.  (This is N(k[c]) * r - (r[c] * conj(k[c])) * k over h, with
    smaller factors.)  The reduced rows are then a basis of the span of the
    rows seen so far, with distinct last-nonzero columns.  One ``gcd`` over
    the row follows each update and divides it out.  A row that clears to
    zero is a left combination of the earlier rows, and raises SingularMatrix.
    """
    reduced = {}  # last nonzero column -> (reduced row, m, p), in the order rows claim them
    for r in rows:
        c = len(r) - 1
        while True:
            while c >= 0 and r[c] == _Z4:
                c -= 1
            if c < 0:
                raise SingularMatrix("matrix is not invertible")
            claim = reduced.get(c)
            if claim is None:
                break
            k, m, (p0, p1, p2, p3) = claim
            x0, x1, x2, x3 = r[c]
            lam = (x0 * p0 + x1 * p1 + x2 * p2 + x3 * p3,  # r[c] * conj(p)
                   x1 * p0 - x0 * p1 - x2 * p3 + x3 * p2,
                   x2 * p0 - x0 * p2 + x1 * p3 - x3 * p1,
                   x3 * p0 - x0 * p3 - x1 * p2 + x2 * p1)
            r = [_lsub_mul(m, e, lam, f) for e, f in zip(r[:c], k)]
            g = gcd(*sum(r, ()))
            if g > 1:  # 0 for a row that cleared to zero
                r = [(e0 // g, e1 // g, e2 // g, e3 // g) for e0, e1, e2, e3 in r]
            c -= 1
        h = gcd(*r[c])
        p = tuple(x // h for x in r[c])
        reduced[c] = r, h * (p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3]), p
    return list(reduced)


def cell_index(g: QMatrix) -> tuple:
    """The permutation indexing the Bruhat cell containing the flag of g.

    Step v of the flag, V_v, is spanned by the first v rows of g^†, and
    tau(v) is the index m at which dim(V_v ∩ E_m) first exceeds
    dim(V_{v-1} ∩ E_m), where E_m is spanned by e_1,...,e_m.  After
    ``_pivot_columns`` the first v reduced rows are a basis of V_v with
    distinct last-nonzero columns, so a left combination of them lies in E_m
    iff every row it uses ends at or before m: dim(V_v ∩ E_m) is the number
    of those columns that are <= m, and the column that row v claims is the
    new jump, tau(v).

    Row v of g^† is column v of g conjugated, as int numerators scaled by
    the lcm of their denominators (a positive real, so the row's left span
    is unchanged).  None of the quaternion arithmetic of ``bruhat_decompose``
    runs here, so a defect in it cannot corrupt both routes to tau.
    """
    rows = []
    for column in zip(*g.entries):
        den = lcm(*(q._den for q in column))
        row = []
        for q in column:
            s = den // q._den
            a, b, c, d = q._x
            row.append((a * s, -b * s, -c * s, -d * s))
        rows.append(row)
    return tuple(c + 1 for c in _pivot_columns(rows))
