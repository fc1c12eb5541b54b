"""The type-C_n root system and its Weyl group of signed permutations.

Weights are integer tuples of coordinates in the basis L^1,...,L^n.  A signed
permutation w is stored as its window (w_1, ..., w_n), a permutation of
1..n with signs: w sends L^v to sign(w_v) * L^{|w_v|}.  The full group has
order 2^n * n!, the sign changes form a normal subgroup of order 2^n, and
the quotient is the symmetric group S_n; ``coset_map`` gives the underlying
permutation (|w_1|, ..., |w_n|).  No other module reads how an element is
stored.

Composition convention: ``(w * v)`` acts by v first, then w, so that
``(w * v).act(lam) == w.act(v.act(lam))``.

The per-rank tables are read off windows, with no group product
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, 8.1).  w sends L^v to
e_{w_v}, where e_{-p} = -L^p, and e_x - e_y is a positive root exactly when
x precedes y in the order 1 < 2 < ... < n < -n < ... < -1 on signed values,
whose rank is key(v) = v for v > 0 and 2n + 1 + v for v < 0.  Counting the positive roots
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
from functools import cache
from itertools import permutations, product

__all__ = [
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
    "simple_pairs",
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

class SignedPerm:
    """Signed permutation, stored as its window (w_1, ..., w_n): it sends
    L^v to sign(w_v) * L^{|w_v|}.

    Immutable.  Its hash is the window's, computed once, as tuples look one
    up per fixed point; a pickle carries only the window.
    """

    __slots__ = ("_window", "_hash")

    def __init__(self, window):
        window = tuple(window)
        if any(type(v) is not int or v == 0 for v in window):
            raise ValueError(f"window entries must be nonzero integers: {window}")
        n = len(window)
        perm = tuple(map(abs, window))
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{n}")
        object.__setattr__(self, "_window", window)
        object.__setattr__(self, "_hash", hash(window))

    def __setattr__(self, name, value):
        raise AttributeError("SignedPerm is immutable")

    def __eq__(self, other):
        if type(other) is not SignedPerm:
            return NotImplemented
        return self._window == other._window

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (SignedPerm, (self._window,))

    from_window = classmethod(lambda cls, window: cls(window))  # the constructor

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def rank(self):
        return len(self._window)

    def __mul__(self, other):
        """Compose, acting with ``other`` first: (w*v)(lam) = w(v(lam))."""
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        w = self._window
        return SignedPerm(w[v - 1] if v > 0 else -w[-v - 1] for v in other._window)

    def inverse(self):
        out = [0] * self.rank
        for i, v in enumerate(self._window, 1):
            out[abs(v) - 1] = i if v > 0 else -i
        return SignedPerm(out)

    def act(self, lam: tuple) -> tuple:
        """Image of a weight: L^v maps to sign(w_v) * L^{|w_v|}, extended linearly."""
        if len(lam) != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {len(lam)}")
        out = [0] * self.rank
        for v, c in zip(self._window, lam):
            out[abs(v) - 1] = c if v > 0 else -c
        return tuple(out)

    def is_sign_change(self):
        return all(abs(v) == i for i, v in enumerate(self._window, 1))

    def window(self):
        """The stored window.

        >>> SignedPerm((-2, 1)).window()
        (-2, 1)
        """
        return self._window

    def window_str(self):
        """The window as a compact JSON list, '[-2,1]': the JSON object key of
        a fixed point, a plain permutation tau keyed as ``perm_embed(tau)``."""
        return json.dumps(list(self._window), separators=(",", ":"))

    @classmethod
    def from_window_str(cls, s):
        return cls(json.loads(s))

    def __repr__(self):
        return f"SignedPerm{self._window}"


# ---------------------------------------------------------------------------
# roots and reflections
# ---------------------------------------------------------------------------

def simple_root(i: int, n: int) -> tuple:
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
    window = list(range(1, len(alpha) + 1))
    mu, *rest = [i for i, c in enumerate(alpha) if c]
    if not rest:
        window[mu] = -window[mu]
    else:
        (nu,) = rest
        sign = -alpha[nu]  # -1 for L^mu + L^nu: each basis vector goes to minus the other
        window[mu], window[nu] = sign * (nu + 1), sign * (mu + 1)
    return SignedPerm(window)


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


def bruhat_leq_by_rank_matrix(a: tuple, b: tuple) -> bool:
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
    elements of one coset of the sign changes share their ``coset_map``."""
    windows = sorted(
        (tuple(s * p for s, p in zip(signs, perm))
         for perm in permutations(range(1, n + 1))
         for signs in product((1, -1), repeat=n)),
        key=lambda window: (_window_length(window), window),
    )
    return tuple(map(SignedPerm, windows))


@cache
def simple_pairs(n: int, i: int) -> tuple:
    """Each pair {w, w s_i} once, as the positions of w and w s_i in
    ``enumerate_weyl(n)``, with w the shorter element, in w's order there.
    w s_i is found by its window, with no group product."""
    if not 1 <= i <= n:
        raise ValueError(f"simple index {i} out of range for rank {n}")
    windows = [w.window() for w in enumerate_weyl(n)]
    position = {window: k for k, window in enumerate(windows)}
    return tuple(
        (k, position[_times_simple(window, i)])
        for k, window in enumerate(windows)
        if i not in _window_descents(window)
    )


@cache
def enumerate_sign_changes(n: int) -> tuple:
    """The 2^n sign-change elements (the Weyl group of the diagonal subgroup),
    in the order of ``enumerate_weyl``."""
    return tuple(w for w in enumerate_weyl(n) if w.is_sign_change())


def coset_map(w: SignedPerm) -> tuple:
    """Forget signs: the quotient map onto S_n, with the sign changes as
    kernel.  It is the underlying permutation, the absolute values of the
    window."""
    return tuple(map(abs, w.window()))


def max_length_rep(tau: tuple) -> SignedPerm:
    """The unique longest signed permutation whose underlying permutation is tau.

    It is the window -tau, every sign negative, of length n^2 - inv(tau).
    For w in the coset of tau, the long root 2L^v goes negative iff w_v < 0.
    For a < b, the pair L^a - L^b, L^a + L^b contributes 1 when
    tau(a) > tau(b), and otherwise 2 or 0 as w_a is negative or positive.
    So every sign -1 is the unique maximum over the coset.
    """
    return SignedPerm(-v for v in perm_embed(tau).window())


# ---------------------------------------------------------------------------
# plain permutation helpers (one-line notation, 1-based)
# ---------------------------------------------------------------------------

def perm_identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def perm_compose(a: tuple, b: tuple) -> tuple:
    """(a o b)(i) = a(b(i)): apply b first."""
    return tuple(a[x - 1] for x in b)


def perm_inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)


def perm_transposition(n: int, mu: int, nu: int) -> tuple:
    out = list(range(1, n + 1))
    out[mu - 1], out[nu - 1] = nu, mu
    return tuple(out)


def perm_inversions(a: tuple) -> int:
    return sum(
        1
        for i in range(len(a))
        for j in range(i + 1, len(a))
        if a[i] > a[j]
    )


def perm_embed(tau: tuple) -> SignedPerm:
    """Embed S_n into the signed group: the window tau, all signs positive."""
    if any(v < 0 for v in tau):
        raise ValueError(f"{tuple(tau)} is not a permutation of 1..{len(tau)}")
    return SignedPerm(tau)


@cache
def all_perms(n: int) -> tuple:
    """All n! permutations of 1..n, sorted by (inversions, window)."""
    return tuple(sorted(permutations(range(1, n + 1)), key=lambda t: (perm_inversions(t), t)))
