"""Quaternionic matrices, the triangular factorization, and cell combinatorics."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from qflagk import quatflag
from qflagk.cli import MAX_COMPONENT_DIGITS
from qflagk.quatflag import (
    QMatrix,
    Quaternion,
    SingularMatrix,
    bruhat_decompose,
    cell_index,
    free_positions,
    perm_matrix,
    u_membership,
)
from qflagk.randgen import random_invertible_matrix, random_upper_triangular, trial_rng
from qflagk.weylc import (
    all_perms,
    bruhat_leq,
    bruhat_leq_by_rank_matrix,
    perm_compose,
    perm_identity,
    perm_inversions,
)

ONE = Quaternion.one()
ZERO = Quaternion.zero()
I, J, K = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# quaternion arithmetic
# ---------------------------------------------------------------------------

def test_multiplication_table():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_conjugate_and_norm():
    q = Quaternion(1, 2, -3, Fraction(1, 2))
    assert q.conjugate() == Quaternion(1, -2, 3, Fraction(-1, 2))
    assert q * q.conjugate() == Quaternion(1 + 4 + 9 + Fraction(1, 4), 0, 0, 0)


def test_inverse():
    q = Quaternion(1, 1, 0, 0)
    assert q.inverse() == Quaternion(Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert q * q.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_quaternion_json_roundtrip():
    q = Quaternion(Fraction(3, 7), -2, 0, Fraction(-5, 11))
    assert Quaternion.from_json(q.to_json()) == q
    assert q.to_json() == ["3/7", "-2", "0", "-5/11"]


# ---------------------------------------------------------------------------
# quaternion properties against four-Fraction reference arithmetic
# ---------------------------------------------------------------------------

def _ref(q):
    return (q.a, q.b, q.c, q.d)


def _ref_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _random_components(rng):
    # zeros, integers and fractions with shared and coprime denominators
    return tuple(
        Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4, 6, 7, 12, 35]))
        if rng.random() > 0.2 else Fraction(0)
        for _ in range(4)
    )


def test_quaternion_arithmetic_matches_fraction_reference():
    rng = random.Random(2718)
    for _ in range(400):
        x, y = _random_components(rng), _random_components(rng)
        p, q = Quaternion(*x), Quaternion(*y)
        assert _ref(p) == x
        assert _ref(p + q) == tuple(s + t for s, t in zip(x, y))
        assert _ref(p - q) == tuple(s - t for s, t in zip(x, y))
        assert _ref(-p) == tuple(-s for s in x)
        assert _ref(p * q) == _ref_mul(x, y)
        assert _ref(p.conjugate()) == (x[0], -x[1], -x[2], -x[3])
        n2 = sum(s * s for s in x)
        if n2:
            assert _ref(p.inverse()) == tuple(s / n2 for s in _ref(p.conjugate()))
            assert p * p.inverse() == ONE == p.inverse() * p
        else:
            assert p.is_zero() and p == ZERO
            with pytest.raises(ZeroDivisionError):
                p.inverse()
        # every result is stored in lowest terms, whatever route built it
        for r in (p + q, p - q, p * q, -p, p.conjugate()):
            assert r == Quaternion(*_ref(r)) and hash(r) == hash(Quaternion(*_ref(r)))


def test_sub_mul_is_the_reduced_difference():
    # e - a * b in one reduction: the same _x and _den as the two-step route
    rng = random.Random(1618)
    cases = [(_random_components(rng), _random_components(rng), _random_components(rng))
             for _ in range(400)]
    x = (Fraction(1, 6), Fraction(-2, 3), 0, Fraction(5, 4))
    y = (Fraction(2, 5), 0, Fraction(-1, 7), 3)
    zero = (0, 0, 0, 0)
    cases += [
        (_ref_mul(x, y), x, y),  # cancels to zero
        (zero, x, zero), (x, zero, y), (zero, zero, zero),
        (x, x, x),  # equal denominators
        ((Fraction(1, 2), 0, 0, 0), (Fraction(1, 3), 0, 0, 0), (Fraction(1, 5), 0, 0, 0)),
    ]
    for e, a, b in cases:
        p, q, r = Quaternion(*e), Quaternion(*a), Quaternion(*b)
        got, want = quatflag._sub_mul(p, q, r), p - q * r
        assert (got._x, got._den) == (want._x, want._den)
        assert _ref(got) == tuple(s - t for s, t in zip(e, _ref_mul(a, b)))
    assert quatflag._sub_mul(Quaternion(*_ref_mul(x, y)), Quaternion(*x), Quaternion(*y)) == ZERO


def test_lsub_mul_is_the_integer_combination():
    # m * e - lam * f on 4-int tuples, against Fraction reference arithmetic
    rng = random.Random(1414)
    for _ in range(300):
        m = rng.randint(1, 10 ** rng.choice([1, 40]))
        e, lam, f = (tuple(rng.randint(-10 ** 30, 10 ** 30) if rng.random() > 0.2 else 0
                           for _ in range(4)) for _ in range(3))
        want = tuple(m * s - t for s, t in zip(e, _ref_mul(lam, f)))
        assert quatflag._lsub_mul(m, e, lam, f) == want


def test_quaternion_form_is_canonical():
    half, also_half = Quaternion("2/4", 0, 0, 0), Quaternion("1/2", 0, 0, 0)
    assert half == also_half and hash(half) == hash(also_half)
    assert {half: "x"}[also_half] == "x" and len({half, also_half}) == 1
    # a sum that cancels to an integer equals the integer
    third = Quaternion(Fraction(1, 3), 0, Fraction(2, 3), 0)
    assert third + third + third == Quaternion(1, 0, 2, 0)
    assert third - third == ZERO and hash(third - third) == hash(ZERO)
    assert Quaternion(1, 2, 3, 4) != (1, 2, 3, 4)


def test_quaternion_is_immutable():
    q = Quaternion(1, 2, 3, 4)
    for name in ("a", "_x", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
    for name in ("a", "_x"):
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert q == Quaternion(1, 2, 3, 4)


def test_quaternion_components_are_fractions():
    q = Quaternion(3, "-1/2", 0, Fraction(5, 6))
    assert all(type(getattr(q, name)) is Fraction for name in "abcd")
    assert (q.a, q.b, q.c, q.d) == (3, Fraction(-1, 2), 0, Fraction(5, 6))


def test_quaternion_strings_are_unchanged():
    q = Quaternion(3, -2, 0, -7)
    assert q.to_json() == ["3", "-2", "0", "-7"]
    assert repr(q) == "Quaternion(3, -2, 0, -7)"
    assert ZERO.to_json() == ["0", "0", "0", "0"]
    assert repr(ZERO) == "Quaternion(0, 0, 0, 0)"
    assert repr(Quaternion("-4/6", 0, "1/3", 0)) == "Quaternion(-2/3, 0, 1/3, 0)"


def test_quaternion_pickles_and_copies():
    q = Quaternion("2/3", -1, 0, "5/4")
    assert pickle.loads(pickle.dumps(q)) == q
    assert copy.deepcopy(q) == q


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_singular_matrix_detected():
    rows = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(SingularMatrix):
        bruhat_decompose(QMatrix.from_rows(rows))
    with pytest.raises(SingularMatrix):
        cell_index(QMatrix.from_rows(rows))


def test_matrix_json_roundtrip():
    m = random_invertible_matrix(trial_rng(2, 0), 2)
    assert QMatrix.from_json(m.to_json()) == m


def test_matrix_is_an_immutable_value():
    m = random_invertible_matrix(trial_rng(2, 0), 2)
    for name in ("entries", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
    with pytest.raises(AttributeError):
        del m.entries
    # equal only to a matrix, and equal matrices hash equal, pickled and
    # deep-copied ones included
    for back in (QMatrix.from_json(m.to_json()), pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert back is not m and back == m and hash(back) == hash(m) and {m: 1}[back] == 1
    assert m != m.entries and m != perm_matrix((1, 2))


def test_noncommutativity_matters_in_products():
    a = QMatrix.from_rows([[I, ZERO], [ZERO, ONE]])
    b = QMatrix.from_rows([[J, ZERO], [ZERO, ONE]])
    assert a * b != b * a


# ---------------------------------------------------------------------------
# permutation matrices
# ---------------------------------------------------------------------------

def test_perm_matrix_examples():
    assert perm_matrix((1, 2)) == QMatrix.identity(2)
    anti = perm_matrix((2, 1))
    assert anti.entries[0][0] == ZERO and anti.entries[0][1] == ONE
    assert anti.entries[1][0] == ONE and anti.entries[1][1] == ZERO


def test_perm_matrix_is_a_homomorphism():
    for tau in all_perms(3):
        for sig in all_perms(3):
            assert perm_matrix(tau) * perm_matrix(sig) == perm_matrix(perm_compose(tau, sig))


# ---------------------------------------------------------------------------
# the constrained unipotent group
# ---------------------------------------------------------------------------

def test_u_membership_examples():
    for tau in all_perms(2):
        assert u_membership(QMatrix.identity(2), tau)
    # only the identity belongs to the cell of the identity permutation
    u = QMatrix.from_rows([[ONE, I], [ZERO, ONE]])
    assert not u_membership(u, (1, 2))
    # the transposition cell has one free quaternion slot at (1, 2)
    assert u_membership(u, (2, 1))


def test_u_membership_needs_a_unit_upper_triangular_matrix():
    # every position above the diagonal is free in the cell of the longest
    # permutation, so only the diagonal and the lower triangle can fail
    longest = (3, 2, 1)
    u = QMatrix.from_rows([[ONE, I, J], [ZERO, ONE, K], [ZERO, ZERO, ONE]])
    assert u_membership(u, longest)
    for diagonal in (ZERO, I, Quaternion(2, 0, 0, 0), -ONE):
        rows = [list(row) for row in u.entries]
        rows[1][1] = diagonal
        assert not u_membership(QMatrix.from_rows(rows), longest)
    for mu, nu in ((1, 0), (2, 0), (2, 1)):
        rows = [list(row) for row in u.entries]
        rows[mu][nu] = J
        assert not u_membership(QMatrix.from_rows(rows), longest)


def test_free_position_count_matches_inversions():
    for n in (2, 3, 4):
        for tau in all_perms(n):
            assert len(free_positions(tau)) == perm_inversions(tau)


# ---------------------------------------------------------------------------
# the triangular factorization
# ---------------------------------------------------------------------------

def test_decompose_permutation_matrices():
    for tau in all_perms(3):
        u, got, b = bruhat_decompose(perm_matrix(tau))
        assert got == tau
        assert u == QMatrix.identity(3)
        assert b == QMatrix.identity(3)


def test_decompose_upper_triangular():
    b0 = random_upper_triangular(trial_rng(4, 0), 3)
    u, tau, b = bruhat_decompose(b0)
    assert tau == perm_identity(3)
    assert u == QMatrix.identity(3)
    assert b == b0


def test_decompose_roundtrip_membership_uniqueness():
    for t in range(60):
        rng = trial_rng(5, t)
        g = random_invertible_matrix(rng, 3)
        u, tau, b = bruhat_decompose(g)
        assert u * perm_matrix(tau) * b == g
        assert u.is_unit_upper_triangular()
        assert u_membership(u, tau)
        assert b.is_upper_triangular()
        bp = random_upper_triangular(rng, 3)
        u2, tau2, b2 = bruhat_decompose(g * bp)
        assert (u2, tau2) == (u, tau)
        assert u2 * perm_matrix(tau2) * b2 == g * bp


# ---------------------------------------------------------------------------
# cell index from flags
# ---------------------------------------------------------------------------

def test_cell_index_of_permutation_flags():
    for tau in all_perms(3):
        assert cell_index(perm_matrix(tau)) == tau


def test_cell_index_invariant_under_left_triangular_action():
    for t in range(15):
        rng = trial_rng(6, t)
        g = random_invertible_matrix(rng, 3)
        b = random_upper_triangular(rng, 3)
        assert cell_index(b * g) == cell_index(g)


def test_cell_index_agrees_with_decomposition():
    for t in range(40):
        rng = trial_rng(7, t)
        g = random_invertible_matrix(rng, 3)
        _, tau, _ = bruhat_decompose(g)
        assert cell_index(g) == tau


def test_cell_membership_under_free_entries():
    # a matrix u * p_tau with u supported on the free pattern stays in cell tau
    rng = trial_rng(8, 0)
    for tau in all_perms(3):
        rows = [list(r) for r in QMatrix.identity(3).entries]
        for mu, nu in free_positions(tau):
            rows[mu - 1][nu - 1] = Quaternion(
                rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            )
        u = QMatrix.from_rows(rows)
        g = u * perm_matrix(tau)
        assert cell_index(g) == tau
        u2, tau2, _ = bruhat_decompose(g)
        assert tau2 == tau and u2 == u


# ---------------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------------

def test_closure_order_examples():
    for tau in all_perms(3):
        assert bruhat_leq(perm_identity(3), tau)
    assert not bruhat_leq((3, 2, 1), (2, 1, 3))


def test_closure_order_matches_rank_matrix_oracle():
    for a in all_perms(3):
        for b in all_perms(3):
            assert bruhat_leq(a, b) == bruhat_leq_by_rank_matrix(a, b)
            if bruhat_leq(a, b) and a != b:
                assert perm_inversions(a) < perm_inversions(b)


# ---------------------------------------------------------------------------
# every cell, and the side rows are cleared on
# ---------------------------------------------------------------------------

def _non_real(rng):
    return Quaternion(rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))


def _cell_matrix(rng, tau, entry=_non_real, upper=random_upper_triangular):
    """(u, g) for g = u * p_tau * b with u filling every free position of tau:
    dense random matrices all land in the big cell."""
    n = len(tau)
    rows = [list(r) for r in QMatrix.identity(n).entries]
    for mu, nu in free_positions(tau):
        rows[mu - 1][nu - 1] = entry(rng)
    u = QMatrix.from_rows(rows)
    return u, u * perm_matrix(tau) * upper(rng, n)


def _every_cell(n):
    """(tau, u, g) for every tau of rank n, seeded."""
    return [(tau, *_cell_matrix(trial_rng(9 + n, t), tau)) for t, tau in enumerate(all_perms(n))]


@pytest.mark.parametrize("n", [3, 4])
def test_both_routes_find_every_cell(n):
    for tau, u, g in _every_cell(n):
        assert cell_index(g) == tau
        u2, tau2, b2 = bruhat_decompose(g)
        assert (u2, tau2) == (u, tau)
        assert u2 * perm_matrix(tau2) * b2 == g


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_index_shares_no_arithmetic_with_decompose(n, monkeypatch):
    # cell_index must find every cell with the quaternion arithmetic of
    # bruhat_decompose out of reach, so one defect cannot corrupt both routes
    cases = _every_cell(n)

    def refuse(*args, **kwargs):
        raise AssertionError("cell_index reached quaternion arithmetic")

    monkeypatch.setattr(quatflag, "_sub_mul", refuse)
    monkeypatch.setattr(quatflag, "_trusted", refuse)
    monkeypatch.setattr(quatflag, "_reduced", refuse)
    for name in ("__init__", "__mul__", "__add__", "__sub__", "__neg__",
                 "inverse", "conjugate", "is_zero"):
        monkeypatch.setattr(Quaternion, name, refuse)
    for tau, _, g in cases:
        assert cell_index(g) == tau
    with pytest.raises(AssertionError):
        bruhat_decompose(cases[-1][2])


@pytest.mark.parametrize("n", [3, 4])
def test_no_step_takes_a_zero_factor(n, monkeypatch):
    # an update by a zero leaves its entry unchanged, so bruhat_decompose never
    # makes it; cell_index takes no quaternion product at all
    # (test_cell_index_shares_no_arithmetic_with_decompose)
    matrices = [g for _, _, g in _every_cell(n)]
    zero_factors, calls = [], []

    def watch(real, *operands):
        def step(*args):
            calls.append(real.__name__)
            zero_factors.extend(args[i] for i in operands if args[i].is_zero())
            return real(*args)
        return step

    monkeypatch.setattr(Quaternion, "__mul__", watch(Quaternion.__mul__, 0, 1))
    monkeypatch.setattr(quatflag, "_sub_mul", watch(quatflag._sub_mul, 1, 2))
    for g in matrices:
        bruhat_decompose(g)
    assert "_sub_mul" in calls
    assert zero_factors == []


# ---------------------------------------------------------------------------
# route agreement beyond small entries and rank 4
# ---------------------------------------------------------------------------

def _big_fraction(rng, digits=MAX_COMPONENT_DIGITS):
    low, high = 10 ** (digits - 1), 10 ** digits - 1
    return Fraction(rng.choice([-1, 1]) * rng.randint(low, high), rng.randint(low, high))


def _big_quaternion(rng):
    return Quaternion(*(_big_fraction(rng) for _ in range(4)))


def _big_upper_triangular(rng, n):
    return QMatrix(tuple(
        tuple(_big_quaternion(rng) if j >= i else ZERO for j in range(n)) for i in range(n)))


def _both_routes(g):
    _, tau, _ = bruhat_decompose(g)
    assert cell_index(g) == tau
    return tau


def test_routes_agree_on_a_sample_of_rank_5_cells():
    rng = random.Random(5)
    perms = all_perms(5)
    for t, tau in enumerate([perms[0], perms[-1], *rng.sample(perms, 10)]):
        _, g = _cell_matrix(trial_rng(14, t), tau)
        assert _both_routes(g) == tau


def test_routes_agree_at_the_component_bound():
    # components are fractions with MAX_COMPONENT_DIGITS digits above and below
    # the line: dense matrices land in the big cell, built ones in their own
    rng = random.Random(30)
    for _ in range(3):
        g = QMatrix(tuple(tuple(_big_quaternion(rng) for _ in range(4)) for _ in range(4)))
        assert _both_routes(g) == (4, 3, 2, 1)
    for tau in [(1, 2, 3, 4), (2, 3, 1, 4), (3, 1, 4, 2), (4, 3, 2, 1)]:
        _, g = _cell_matrix(rng, tau, _big_quaternion, _big_upper_triangular)
        assert _both_routes(g) == tau


def _from_flag_rows(rows):
    """The matrix g whose conjugate transpose g^† has these rows."""
    return QMatrix(tuple(tuple(row[j].conjugate() for row in rows) for j in range(len(rows))))


def test_singular_means_a_left_combination_of_flag_rows():
    # the rows of g^† span the flag; a last row sum(lam_i * a_i) lies in the
    # left span of the others, while sum(a_i * lam_i) in general does not.
    # At MAX_COMPONENT_DIGITS-digit components the integer rows of cell_index
    # grow and are divided by their gcd at every step before the last clears
    small, large = trial_rng(12, 0), random.Random(31)
    cases = [
        ([[_non_real(small) for _ in range(3)] for _ in range(2)], [I, J], (3, 2, 1)),
        ([[_big_quaternion(large) for _ in range(4)] for _ in range(3)],
         [_big_quaternion(large) for _ in range(3)], (4, 3, 2, 1)),
    ]
    for flag, scalars, big_cell in cases:
        left = right = [ZERO] * len(flag[0])
        for lam, row in zip(scalars, flag):
            left = [e + lam * f for e, f in zip(left, row)]
            right = [e + f * lam for e, f in zip(right, row)]
        for route in (cell_index, bruhat_decompose):
            with pytest.raises(SingularMatrix):
                route(_from_flag_rows([*flag, left]))
        assert _both_routes(_from_flag_rows([*flag, right])) == big_cell
