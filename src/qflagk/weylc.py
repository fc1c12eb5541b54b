"""The type-C_n root system and its Weyl group of signed permutations.

Weights are integer tuples of coordinates in the basis L^1,...,L^n.  A signed
permutation w sends L^v to signs[v] * L^{perm(v)}; the full group has order
2^n * n!, the sign changes form a normal subgroup of order 2^n, and the
quotient is the symmetric group S_n.

Composition convention: ``(w * v)`` acts by v first, then w, so that
``(w * v).act(lam) == w.act(v.act(lam))``.

The per-rank tables are read off windows (w_1, ..., w_n), w_v = signs[v] *
perm(v), with no group product (Bjorner-Brenti, *Combinatorics of Coxeter
Groups*, 8.1).  w sends L^v to e_{w_v}, where e_{-p} = -L^p, and e_x - e_y
is a positive root exactly when x precedes y in the order
1 < 2 < ... < n < -n < ... < -1 on signed values, whose rank is
key(v) = v for v > 0 and 2n + 1 + v for v < 0.  Counting the positive roots
L^a - L^b, L^a + L^b = e_a - e_{-b} and 2L^a that w sends negative:

* length(w) = #{a < b : key(w_a) > key(w_b)} + #{a < b : key(w_a) > key(-w_b)}
  + #{a : w_a < 0};
* i < n is a right descent iff key(w_i) > key(w_{i+1}), and n is one iff
  w_n < 0, as w(alpha_i) is e_{w_i} - e_{w_{i+1}}, or 2e_{w_n};
* the window of w s_i is w's window with entries i and i+1 swapped (i < n),
  or with entry n negated (i = n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product

__all__ = [
    "Weight",
    "Perm",
    "SignedPerm",
    "simple_root",
    "positive_roots",
    "is_root",
    "is_positive_root",
    "simple_reflection",
    "reflection",
    "length",
    "reduced_word",
    "descents",
    "bruhat_leq",
    "bruhat_leq_by_rank_matrix",
    "enumerate_weyl",
    "enumerate_sign_changes",
    "coset_map",
    "max_length_rep",
    "perm_identity",
    "perm_compose",
    "perm_inverse",
    "perm_transposition",
    "perm_inversions",
    "perm_embed",
    "all_perms",
]

Weight = tuple  # integer coordinates in the L-basis
Perm = tuple  # one-line notation, 1-based images


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation: perm[i] is the image of i+1, signs[i] in {-1,+1}.

    Its hash is computed once, as tuples look one up per fixed point.  It is
    not a field, and a pickle carries only (perm, signs) and rebuilds it.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{n}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"bad sign vector {self.signs}")
        object.__setattr__(self, "_hash", hash((self.perm, self.signs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (type(self), (self.perm, self.signs))

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)), (1,) * n)

    @property
    def rank(self):
        return len(self.perm)

    def __mul__(self, other):
        """Compose, acting with ``other`` first: (w*v)(lam) = w(v(lam))."""
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        perm = tuple(self.perm[p - 1] for p in other.perm)
        signs = tuple(
            s * self.signs[p - 1] for p, s in zip(other.perm, other.signs)
        )
        return SignedPerm(perm, signs)

    def inverse(self):
        n = self.rank
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i] - 1] = i + 1
            signs[self.perm[i] - 1] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))

    def act(self, lam: Weight) -> Weight:
        """Image of a weight: L^v maps to signs[v] * L^{perm(v)}, extended linearly."""
        if len(lam) != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {len(lam)}")
        out = [0] * self.rank
        for i, c in enumerate(lam):
            out[self.perm[i] - 1] = self.signs[i] * c
        return tuple(out)

    def is_sign_change(self):
        return self.perm == tuple(range(1, self.rank + 1))

    def window(self):
        """Window notation: entry v is signs[v] * perm(v).

        >>> SignedPerm((2, 1), (-1, 1)).window()
        (-2, 1)
        """
        return tuple(s * p for s, p in zip(self.signs, self.perm))

    @classmethod
    def from_window(cls, window):
        window = tuple(window)
        if any(type(v) is not int or v == 0 for v in window):
            raise ValueError(f"window entries must be nonzero integers: {window}")
        perm = tuple(abs(v) for v in window)
        signs = tuple(1 if v > 0 else -1 for v in window)
        return cls(perm, signs)

    def window_str(self):
        return _key(self.window())

    @classmethod
    def from_window_str(cls, s):
        return cls.from_window(json.loads(s))

    def __repr__(self):
        return f"SignedPerm{self.window()}"


# ---------------------------------------------------------------------------
# roots and reflections
# ---------------------------------------------------------------------------

def simple_root(i: int, n: int) -> Weight:
    """alpha_i = L^i - L^{i+1} for i < n, alpha_n = 2L^n."""
    if not 1 <= i <= n:
        raise ValueError(f"simple root index {i} out of range for rank {n}")
    coords = [0] * n
    if i < n:
        coords[i - 1] = 1
        coords[i] = -1
    else:
        coords[n - 1] = 2
    return tuple(coords)


@cache
def positive_roots(n: int) -> tuple:
    """L^mu - L^nu and L^mu + L^nu for mu < nu, and 2L^nu."""
    roots = []
    for mu in range(n):
        for nu in range(mu + 1, n):
            for s in (-1, 1):
                coords = [0] * n
                coords[mu] = 1
                coords[nu] = s
                roots.append(tuple(coords))
    for nu in range(n):
        coords = [0] * n
        coords[nu] = 2
        roots.append(tuple(coords))
    return tuple(roots)


def is_root(alpha) -> bool:
    alpha = tuple(alpha)
    return is_positive_root(alpha) or is_positive_root(tuple(-c for c in alpha))


def is_positive_root(alpha) -> bool:
    alpha = tuple(alpha)
    return alpha in positive_roots(len(alpha))


@cache
def simple_reflection(i: int, n: int) -> SignedPerm:
    """s_i: the reflection in alpha_i, the transposition (i, i+1) for i < n
    and the sign flip at n for i = n."""
    return reflection(simple_root(i, n))


def reflection(alpha) -> SignedPerm:
    """The reflection attached to a root.

    For L^mu - L^nu it is the transposition (mu, nu); for L^mu + L^nu it
    sends L^mu to -L^nu and L^nu to -L^mu; for 2L^nu it flips the sign at nu.
    """
    alpha = tuple(alpha)
    if not is_root(alpha):
        raise ValueError(f"{alpha} is not a root")
    if not is_positive_root(alpha):
        alpha = tuple(-c for c in alpha)
    n = len(alpha)
    perm = list(range(1, n + 1))
    signs = [1] * n
    nonzero = [(i, c) for i, c in enumerate(alpha) if c]
    if len(nonzero) == 1:
        signs[nonzero[0][0]] = -1
    else:
        (mu, _), (nu, cnu) = nonzero
        perm[mu], perm[nu] = perm[nu], perm[mu]
        if cnu == 1:  # L^mu + L^nu: each basis vector goes to minus the other
            signs[mu] = -1
            signs[nu] = -1
    return SignedPerm(tuple(perm), tuple(signs))


# ---------------------------------------------------------------------------
# length, reduced words, Bruhat order
# ---------------------------------------------------------------------------

def _keys(window):
    """key(v) of each entry: its rank in the order 1 < ... < n < -n < ... < -1."""
    m = 2 * len(window) + 1
    return [v if v > 0 else m + v for v in window]


def _window_length(window) -> int:
    """The length of the element with this window (module docstring)."""
    m = 2 * len(window) + 1
    keys = _keys(window)
    count = sum(1 for v in window if v < 0)
    for a, ka in enumerate(keys):
        for kb in keys[a + 1:]:
            count += (ka > kb) + (ka > m - kb)  # key(-v) = m - key(v)
    return count


def _window_descents(window):
    """The right descents of the element with this window (module docstring)."""
    n = len(window)
    keys = _keys(window)
    out = [i for i in range(1, n) if keys[i - 1] > keys[i]]
    if window[-1] < 0:
        out.append(n)
    return out


def _times_simple(window, i):
    """The window of w s_i, given the window of w."""
    if i < len(window):
        return window[:i - 1] + (window[i], window[i - 1]) + window[i + 1:]
    return window[:-1] + (-window[-1],)


@cache
def length(w: SignedPerm) -> int:
    """Number of positive roots sent to negative roots by w, read off its
    window."""
    return _window_length(w.window())


def descents(w: SignedPerm):
    """Simple indices i with length(w * s_i) < length(w), read off w's window."""
    return _window_descents(w.window())


def reduced_word(w: SignedPerm):
    """A reduced word: the listed simple reflections multiply out to w.

    Greedy: repeatedly strip the smallest right descent.

    >>> reduced_word(SignedPerm.identity(2))
    []
    >>> reduced_word(simple_reflection(1, 2))
    [1]
    """
    word = []
    window = w.window()
    while found := _window_descents(window):
        word.append(found[0])
        window = _times_simple(window, found[0])
    word.reverse()
    return word


@cache
def _bruhat_lower_set(window) -> frozenset:
    """The windows of the Bruhat interval [e, w], w given by its window.

    By the lifting property, for i a right descent of w the interval is
    L with L s_i, L = [e, w s_i]; i is the first descent, and the
    recursion is memoized, so intervals below are shared, not rebuilt.
    """
    found = _window_descents(window)
    if not found:
        return frozenset((window,))
    i = found[0]
    lower = _bruhat_lower_set(_times_simple(window, i))
    return lower.union([_times_simple(u, i) for u in lower])


def bruhat_leq(v, w) -> bool:
    """Bruhat order: v <= w iff v lies in the interval [e, w] that the
    lifting property builds (``_bruhat_lower_set``).

    Accepts two signed permutations or two plain permutations (tuples); plain
    permutations are compared inside S_n, which sits in the signed group as
    the elements with all signs positive.  The closure order on the Bruhat
    cells of the quaternionic flag space is this order on plain permutations.
    """
    if isinstance(v, SignedPerm) != isinstance(w, SignedPerm):
        raise TypeError("compare two SignedPerm or two plain permutations")
    if not isinstance(v, SignedPerm):
        v, w = perm_embed(v), perm_embed(w)
    if v.rank != w.rank:
        raise ValueError(f"rank mismatch: {v.rank} vs {w.rank}")
    return v.window() in _bruhat_lower_set(w.window())


def bruhat_leq_by_rank_matrix(a: Perm, b: Perm) -> bool:
    """Independent Bruhat-order oracle for plain permutations.

    a <= b iff for all i, j the count of k <= i with a(k) >= j is at most the
    same count for b.  Kept deliberately separate from the lifting route so
    each can check the other.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("rank mismatch")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ca = sum(1 for k in range(i) if a[k] >= j)
            cb = sum(1 for k in range(i) if b[k] >= j)
            if ca > cb:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration and the quotient by sign changes
# ---------------------------------------------------------------------------

@cache
def enumerate_weyl(n: int) -> tuple:
    """All 2^n * n! signed permutations, sorted by (length, window).  The
    elements of one coset of the sign changes share their perm tuple."""
    elems = [
        (tuple(s * p for s, p in zip(signs, perm)), perm, signs)
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]
    elems.sort(key=lambda e: (_window_length(e[0]), e[0]))
    return tuple(SignedPerm(perm, signs) for _, perm, signs in elems)


@cache
def enumerate_sign_changes(n: int) -> tuple:
    """The 2^n sign-change elements (the Weyl group of the diagonal subgroup),
    in the order of ``enumerate_weyl``."""
    return tuple(w for w in enumerate_weyl(n) if w.is_sign_change())


def coset_map(w: SignedPerm) -> Perm:
    """Forget signs: the quotient map onto S_n, with the sign changes as kernel."""
    return w.perm


def max_length_rep(tau: Perm) -> SignedPerm:
    """The unique longest signed permutation whose underlying permutation is tau.

    It is tau with every sign negative, of length n^2 - inv(tau).  In
    w = (tau, signs), the long root 2L^v goes negative iff signs[v] = -1.  For
    a < b, the pair L^a - L^b, L^a + L^b contributes 1 when tau(a) > tau(b),
    and otherwise 2 or 0 as signs[a] is -1 or +1.  So every sign -1 is the
    unique maximum over the coset.
    """
    return SignedPerm(tuple(tau), (-1,) * len(tau))


# ---------------------------------------------------------------------------
# plain permutation helpers (one-line notation, 1-based)
# ---------------------------------------------------------------------------

def perm_identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i)): apply b first."""
    return tuple(a[x - 1] for x in b)


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)


def perm_transposition(n: int, mu: int, nu: int) -> Perm:
    out = list(range(1, n + 1))
    out[mu - 1], out[nu - 1] = nu, mu
    return tuple(out)


def perm_inversions(a: Perm) -> int:
    return sum(
        1
        for i in range(len(a))
        for j in range(i + 1, len(a))
        if a[i] > a[j]
    )


def perm_embed(tau: Perm) -> SignedPerm:
    """Embed S_n into the signed group with all signs positive."""
    return SignedPerm(tuple(tau), (1,) * len(tau))


def all_perms(n: int) -> tuple:
    return tuple(sorted(permutations(range(1, n + 1)), key=lambda t: (perm_inversions(t), t)))


def _key(label):
    """The JSON object key of a fixed point: its label (a window or a
    permutation) as a compact JSON list."""
    return json.dumps(list(label), separators=(",", ":"))
