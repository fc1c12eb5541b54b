"""Output checks of the benchmark, written with the standard library only.

Nothing here imports the program: polynomials are plain term dicts
(exponent tuple -> int), signed permutations are window tuples, plain
permutations are one-line tuples and quaternions are 4-tuples of Fractions.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

# ---------------------------------------------------------------------------
# the two Weyl groups, from the window notation alone
# ---------------------------------------------------------------------------


def positive_roots(n):
    """e_mu - e_nu and e_mu + e_nu for mu < nu, and 2 e_nu, as exponent tuples."""
    roots = []
    for mu in range(n):
        for nu in range(mu + 1, n):
            for s in (-1, 1):
                alpha = [0] * n
                alpha[mu], alpha[nu] = 1, s
                roots.append(tuple(alpha))
    for nu in range(n):
        alpha = [0] * n
        alpha[nu] = 2
        roots.append(tuple(alpha))
    return roots


def signed_windows(n):
    return [
        tuple(s * p for s, p in zip(signs, perm))
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]


def _reflect_index(alpha, x):
    # image of the signed index x (standing for sign(x) * L^|x|) under s_alpha
    nz = [i + 1 for i, a in enumerate(alpha) if a]
    sign = 1 if x > 0 else -1
    v = abs(x)
    if len(nz) == 1:
        return -x if v == nz[0] else x
    mu, nu = nz
    if v not in (mu, nu):
        return x
    other = nu if v == mu else mu
    if alpha[nu - 1] < 0:  # e_mu - e_nu swaps the two indices
        return sign * other
    return -sign * other  # e_mu + e_nu sends L^mu to -L^nu and back


def t_edges(n):
    """Edges {w, s_alpha w} of the T-model as (index, partner, alpha), index < partner."""
    edges = []
    for alpha in positive_roots(n):
        for w in signed_windows(n):
            v = tuple(_reflect_index(alpha, x) for x in w)
            if w < v:
                edges.append((w, v, alpha))
    return edges


def pair_edges(n):
    """Edges {tau, (mu nu) o tau} of the X- and G-models as (tau, sigma, (mu, nu))."""
    edges = []
    for mu in range(1, n + 1):
        for nu in range(mu + 1, n + 1):
            for tau in permutations(range(1, n + 1)):
                sigma = tuple(nu if t == mu else mu if t == nu else t for t in tau)
                if tau < sigma:
                    edges.append((tau, sigma, (mu, nu)))
    return edges


def length(window):
    """Number of positive roots that the signed permutation sends to negative ones."""
    n = len(window)
    count = 0
    for alpha in positive_roots(n):
        image = [0] * n
        for k, c in enumerate(alpha):
            image[abs(window[k]) - 1] = (1 if window[k] > 0 else -1) * c
        if next(c for c in image if c) < 0:
            count += 1
    return count


def times_simple(window, i):
    """w * s_i: swap window entries i, i+1 (i < n) or negate entry n."""
    w = list(window)
    if i < len(w):
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[-1] = -w[-1]
    return tuple(w)


def reduced_word(window, largest_first):
    """A reduced word i_1..i_k with w = s_{i_1}...s_{i_k}, stripping right
    descents from the end, the largest or the smallest one first."""
    n = len(window)
    word = []
    w = window
    while length(w):
        descents = [i for i in range(1, n + 1) if length(times_simple(w, i)) < length(w)]
        i = max(descents) if largest_first else min(descents)
        word.append(i)
        w = times_simple(w, i)
    word.reverse()
    return word


# ---------------------------------------------------------------------------
# divisibility by evaluation
# ---------------------------------------------------------------------------


def _image(terms, i, j, sign_j, sign_i=1):
    """Substitute x_i := sign_i * x_j^sign_j (j None: x_i := sign_i) in a term dict."""
    out = {}
    for exps, c in terms.items():
        e = list(exps)
        k = e[i]
        e[i] = 0
        if j is not None:
            e[j] += sign_j * k
        if sign_i < 0 and k % 2:
            c = -c
        key = tuple(e)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def t_edge_vanishes(a, b, alpha):
    """Whether a - b is divisible by e^alpha - 1, without dividing.

    For e_i - e_j the difference vanishes under x_i := x_j; for e_i + e_j
    under x_i := x_j^{-1}; for 2 e_i under both x_i := 1 and x_i := -1.
    """
    nz = [k for k, c in enumerate(alpha) if c]
    if len(nz) == 1:
        i = nz[0]
        return all(_image(a, i, None, 0, s) == _image(b, i, None, 0, s) for s in (1, -1))
    i, j = nz
    sign_j = 1 if alpha[j] < 0 else -1
    return _image(a, i, j, sign_j) == _image(b, i, j, sign_j)


def x_edge_vanishes(a, b, mu, nu):
    """X-model: the difference vanishes under x_mu := x_nu and x_mu := x_nu^{-1}."""
    return all(
        _image(a, mu - 1, nu - 1, s) == _image(b, mu - 1, nu - 1, s) for s in (1, -1)
    )


def g_edge_vanishes(a, b, mu, nu):
    """G-model: the difference vanishes under X_mu := X_nu."""
    return _image(a, mu - 1, nu - 1, 1) == _image(b, mu - 1, nu - 1, 1)


def t_tuple_problems(values, edges, label):
    """Edges of a T-tuple (window -> term dict) whose difference does not vanish."""
    return [
        f"{label}: edge {w}-{v} ({alpha}) fails the evaluation test"
        for w, v, alpha in edges
        if not t_edge_vanishes(values[w], values[v], alpha)
    ]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def expected_violations(edges, mutated):
    """Edges with exactly one endpoint among the vertices that got +1.

    Adding 1 at one end changes the difference by a unit, which no edge
    divisor divides; adding it at both ends leaves the difference alone.
    """
    mutated = set(mutated)
    return {
        (a, b, e) for a, b, e in edges if (a in mutated) != (b in mutated)
    }


def violation_problems(reported, edges, mutated, label):
    """Compare reported (index, partner, edge) triples with the expected set."""
    expected = expected_violations(edges, mutated)
    got = set(reported)
    problems = []
    if len(got) != len(reported):
        problems.append(f"{label}: a violation is reported twice")
    if got != expected:
        problems.append(
            f"{label}: {len(got - expected)} unexpected and "
            f"{len(expected - got)} missing violations"
        )
    return problems


# ---------------------------------------------------------------------------
# quaternionic cells
# ---------------------------------------------------------------------------

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def qmul(p, q):
    """Quaternion product through the real 4x4 matrix of left multiplication by p."""
    a, b, c, d = p
    left = ((a, -b, -c, -d), (b, a, -d, c), (c, d, a, -b), (d, -c, b, a))
    return tuple(sum(r * x for r, x in zip(row, q)) for row in left)


def qadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = qadd(acc, qmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def perm_matrix(tau):
    n = len(tau)
    return tuple(
        tuple(ONE if mu + 1 == tau[nu] else ZERO for nu in range(n)) for mu in range(n)
    )


def decomposition_problems(g, u, tau, b, cell, label):
    """g = u * p_tau * b with b upper triangular, u unit upper triangular,
    and the cell index equal to tau."""
    n = len(g)
    problems = []
    if sorted(tau) != list(range(1, n + 1)):
        problems.append(f"{label}: tau {tau} is not a permutation")
        return problems
    if matmul(matmul(u, perm_matrix(tau)), b) != tuple(tuple(r) for r in g):
        problems.append(f"{label}: u * p_tau * b does not recompose g")
    if any(b[i][j] != ZERO for i in range(n) for j in range(i)):
        problems.append(f"{label}: b is not upper triangular")
    if any(u[i][j] != ZERO for i in range(n) for j in range(i)) or any(
        u[i][i] != ONE for i in range(n)
    ):
        problems.append(f"{label}: u is not unit upper triangular")
    if tuple(cell) != tuple(tau):
        problems.append(f"{label}: cell index {cell} differs from tau {tau}")
    return problems


def quaternion_from_json(data):
    return tuple(Fraction(x) for x in data)


def matrix_from_json(data):
    return tuple(tuple(quaternion_from_json(q) for q in row) for row in data)


def terms_from_json(data):
    return {tuple(int(e) for e in exps): int(c) for c, exps in data}
