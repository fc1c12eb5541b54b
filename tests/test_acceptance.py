"""Acceptance criteria.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run pytest with -s
to see them interleaved, or check captured output on failure).  Everything is
exact; the stated wall-time budgets are asserted.

Criteria 4a and 4c check the n! classes indexed by maximal-length coset
representatives that descend to the quaternionic flag space.  Those are the
type-A Schubert classes of the G-model (``quaternionic_schubert_classes``),
moved to the T-model with ``pullback_pi(j_expand(...))``.  The Demazure
classes of the T-model at the same representatives do not descend: each is
nonzero at the identity, so invariance under the sign change -1 would force
it to be nonzero at -1, which only the class of -1 is.  That statement is
pinned in ``tests/test_gkm.py``; see also the "Known mathematical gap"
section of the README.
"""

import math
import time

import pytest

from qflagk.gkm import (
    GKMTupleG,
    GKMTupleT,
    GKMTupleX,
    descend_pi,
    expand_in_schubert,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    descent_invariance_check,
    j_expand,
    presentation_check,
    pullback_pi,
    quaternionic_schubert_classes,
    schubert_table,
    weyl_act_tuple,
)
from qflagk.quatflag import (
    CellDescriptor,
    QMatrix,
    bruhat_decompose,
    cell_index,
    closure_leq,
    free_positions,
    perm_matrix,
    u_membership,
)
from qflagk.randgen import (
    random_g_tuple,
    random_invertible_matrix,
    random_laurent,
    random_maxrep_combination,
    random_t_tuple,
    random_upper_triangular,
    random_x_tuple,
    random_xpoly,
    trial_rng,
)
from qflagk.ringcore import (
    BinomialDivisor,
    LaurentPoly,
    NotDivisible,
    XPoly,
    basis_decompose,
    divide_exact,
    x_expand,
    xpoly_divide_exact,
)
from qflagk.weylc import (
    all_perms,
    bruhat_leq_by_rank_matrix,
    coset_map,
    enumerate_sign_changes,
    enumerate_weyl,
    max_length_rep,
    perm_identity,
    perm_inversions,
    positive_roots,
    reflection,
    SignedPerm,
)

SEED = 20260810


def report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid}: {status}{suffix}")


@pytest.fixture(scope="module")
def tables():
    return {n: schubert_table(n) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def quaternionic():
    return {n: quaternionic_schubert_classes(n) for n in (2, 3)}


def test_criterion_1_fundamental_class(tables):
    """The class at the longest element is the constant tuple 1 for n = 1,2,3."""
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        w0 = max_length_rep(perm_identity(n))
        cls = tables[n].classes[w0]
        ok = ok and cls == GKMTupleT.constant(n, 1)
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 30, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_criterion_2_gkm_validity_of_schubert_basis(tables):
    """All 2^n n! classes pass the T-model membership check for n = 2, 3."""
    start = time.perf_counter()
    bad = []
    for n in (2, 3):
        for w, cls in tables[n].classes.items():
            if gkm_check_t(cls):
                bad.append((n, w.window()))
    elapsed = time.perf_counter() - start
    report(2, not bad and elapsed < 60, f"{elapsed:.1f}s")
    assert not bad
    assert elapsed < 60


def test_criterion_3_descents_fix_classes(tables):
    """Right descents fix the classes, exhaustively at n = 2, 3."""
    start = time.perf_counter()
    bad = [(n, w.window(), i) for n in (2, 3) for w, i in descent_invariance_check(tables[n])]
    elapsed = time.perf_counter() - start
    report(3, not bad, f"{elapsed:.1f}s")
    assert not bad


def test_criterion_4a_maxrep_invariance(quaternionic):
    """The n! quaternionic Schubert classes, indexed by maximal-length coset
    representatives, are fixed by the index action of every sign change
    (n = 2, 3).

    Each class is built in the G-model and moved to the T-model with
    pullback_pi(j_expand(.)).  It must pass the G- and T-model checks, take
    at max_length_rep(tau) the product of X_{tau(a)} - X_{tau(b)} over the
    inversions a < b of tau, and vanish at every w whose underlying
    permutation is not above tau in the Bruhat order.
    """
    bad = []
    for n in (2, 3):
        for tau in all_perms(n):
            w = max_length_rep(tau)
            g = quaternionic[n][tau]
            cls = pullback_pi(j_expand(g))
            if gkm_check_g(g) or gkm_check_t(cls):
                bad.append((n, w.window(), "membership"))
            for v in enumerate_sign_changes(n):
                if weyl_act_tuple(v, cls) != cls:
                    bad.append((n, w.window(), v.window()))
            diagonal = XPoly.one(n)
            for a in range(n):
                for b in range(a + 1, n):
                    if tau[a] > tau[b]:
                        diagonal = diagonal * (XPoly.X(n, tau[a]) - XPoly.X(n, tau[b]))
            if cls.values[w] != x_expand(diagonal):
                bad.append((n, w.window(), "diagonal"))
            for u in enumerate_weyl(n):
                if cls.values[u] and not bruhat_leq_by_rank_matrix(tau, coset_map(u)):
                    bad.append((n, w.window(), "support", u.window()))
    report("4a", not bad, f"{len(bad)} violations; first: {bad[0] if bad else None}")
    assert not bad, f"{len(bad)} violations, first at {bad[0]}"


def test_criterion_4b_expansion_recovery():
    """200 seeded random combinations of the n! classes are recovered exactly."""
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        for t in range(100):
            combo, coeffs = random_maxrep_combination(trial_rng(SEED + n, t), n)
            got = expand_in_schubert(combo, list(coeffs))
            ok = ok and got == coeffs
    elapsed = time.perf_counter() - start
    report("4b", ok and elapsed < 120, f"200 recoveries, {elapsed:.1f}s")
    assert ok
    assert elapsed < 120


def test_criterion_4c_descend_of_combinations(quaternionic):
    """20 seeded combinations of the quaternionic classes at maximal-length
    representatives, with Laurent coefficients, descend to valid X-model
    tuples whose pullback is the combination again."""
    from qflagk.gkm import TupleNotInvariant

    failures = 0
    first = None
    for n in (2, 3):
        classes = [pullback_pi(j_expand(quaternionic[n][tau])) for tau in all_perms(n)]
        for t in range(10):
            rng = trial_rng(SEED + 10 * n, t)
            coeffs = [random_laurent(rng, n, terms=1, max_exp=1, max_coeff=2) for _ in classes]
            values = {w: LaurentPoly.zero(n) for w in enumerate_weyl(n)}
            for a, cls in zip(coeffs, classes):
                for w in values:
                    values[w] = values[w] + a * cls.values[w]
            combo = GKMTupleT(n, values)
            try:
                fx = descend_pi(combo)
                ok = not gkm_check_x(fx) and pullback_pi(fx) == combo
            except TupleNotInvariant:
                ok = False
            if not ok:
                failures += 1
                first = first or (n, t)
    report("4c", failures == 0, f"{failures}/20 combinations failed to descend")
    assert failures == 0, f"{failures} of 20 combinations did not descend; first: {first}"


def test_criterion_5_divisibility_bridge():
    """1000 instances per index pair at n = 2, 3 satisfy the equivalence both
    ways, with the quotient identity through the free-basis decomposition;
    1000 adversarial instances are rejected on both sides."""
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        pairs = [(mu, nu) for mu in range(1, n + 1) for nu in range(mu + 1, n + 1)]
        for mu, nu in pairs:
            hi = tuple(1 if i == mu - 1 else (-1 if i == nu - 1 else 0) for i in range(n))
            lo = tuple(1 if i in (mu - 1, nu - 1) else 0 for i in range(n))
            pair_divisor = BinomialDivisor([hi, lo])
            x_mu = LaurentPoly.x(n, mu)
            x_mu_inv = LaurentPoly.monomial(
                n, tuple(-1 if i == mu - 1 else 0 for i in range(n))
            )
            lin = XPoly.X(n, mu) - XPoly.X(n, nu)
            for t in range(1000):
                rng = trial_rng(SEED + 100 * n + mu * 10 + nu, t)
                g = random_xpoly(rng, n)
                f = lin * g
                q_x = xpoly_divide_exact(f, mu, nu)
                q_l = divide_exact(x_expand(f), pair_divisor)
                ok = ok and q_x == g
                ok = ok and q_l == x_mu_inv * x_expand(q_x)
                # quotient identity via the free-basis decomposition
                g0 = basis_decompose(x_mu * q_l)[(0,) * n]
                ok = ok and lin * g0 == f
                if not ok:
                    break
    # adversarial rejections, spread over ranks and pairs
    rejected = 0
    for t in range(1000):
        rng = trial_rng(SEED + 999, t)
        n = rng.choice((2, 3))
        mu = rng.randint(1, n - 1)
        nu = rng.randint(mu + 1, n)
        hi = tuple(1 if i == mu - 1 else (-1 if i == nu - 1 else 0) for i in range(n))
        lo = tuple(1 if i in (mu - 1, nu - 1) else 0 for i in range(n))
        bad = (XPoly.X(n, mu) - XPoly.X(n, nu)) * random_xpoly(rng, n) + 1
        bad_x = bad_l = False
        try:
            xpoly_divide_exact(bad, mu, nu)
        except NotDivisible:
            bad_x = True
        try:
            divide_exact(x_expand(bad), BinomialDivisor([hi, lo]))
        except NotDivisible:
            bad_l = True
        if bad_x and bad_l:
            rejected += 1
    elapsed = time.perf_counter() - start
    ok = ok and rejected == 1000
    report(5, ok and elapsed < 60, f"{rejected}/1000 rejected, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_6_presentation_relations():
    """The defining relations hold for all k <= n at n = 1, 2, 3, in the
    G-model and its expanded image."""
    start = time.perf_counter()
    failures = [(n, f) for n in (1, 2, 3) for f in presentation_check(n)]
    elapsed = time.perf_counter() - start
    report(6, not failures, f"{elapsed:.1f}s")
    assert not failures


def test_criterion_7_decomposition_roundtrip():
    """1000 random invertible matrices at n = 3: exact recomposition,
    membership, uniqueness under 200 right-triangular translates, and
    agreement with the flag cell index in every trial."""
    start = time.perf_counter()
    ok = True
    for t in range(1000):
        rng = trial_rng(SEED + 7, t)
        g = random_invertible_matrix(rng, 3)
        u, tau, b = bruhat_decompose(g)
        ok = ok and u * perm_matrix(tau) * b == g
        ok = ok and u_membership(u, tau)
        ok = ok and b.is_upper_triangular()
        ok = ok and cell_index(g) == tau
        if t < 200:
            bp = random_upper_triangular(rng, 3)
            u2, tau2, _ = bruhat_decompose(g * bp)
            ok = ok and (u2, tau2) == (u, tau)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(7, ok and elapsed < 120, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 120


def test_criterion_8_cell_combinatorics():
    """Free-entry counts match inversion numbers on all of S4; the closure
    order matches the rank-matrix oracle on S3 and S4; cell counts are n!."""
    start = time.perf_counter()
    ok = True
    for tau in all_perms(4):
        ok = ok and len(free_positions(tau)) == perm_inversions(tau)
        ok = ok and CellDescriptor.for_perm(tau).dimension == 4 * perm_inversions(tau)
    for n in (3, 4):
        perms = all_perms(n)
        ok = ok and len(perms) == math.factorial(n)
        for a in perms:
            for b in perms:
                ok = ok and closure_leq(a, b) == bruhat_leq_by_rank_matrix(a, b)
    elapsed = time.perf_counter() - start
    report(8, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_checker_sensitivity():
    """Single-component +1 perturbations of 100 valid tuples per model at
    n = 2 are rejected, each with a concrete witness."""
    start = time.perf_counter()
    n = 2
    ok = True
    for t in range(100):
        rng = trial_rng(SEED + 9, t)

        ft = random_t_tuple(rng, n)
        values = dict(ft.values)
        w = rng.choice(list(values))
        values[w] = values[w] + 1
        v_t = gkm_check_t(GKMTupleT(n, values))
        ok = ok and bool(v_t) and v_t[0].remainder

        fx = random_x_tuple(rng, n)
        values = dict(fx.values)
        tau = rng.choice(list(values))
        values[tau] = values[tau] + 1
        v_x = gkm_check_x(GKMTupleX(n, values))
        ok = ok and bool(v_x) and v_x[0].remainder

        fg = random_g_tuple(rng, n)
        values = dict(fg.values)
        tau = rng.choice(list(values))
        values[tau] = values[tau] + 1
        v_g = gkm_check_g(GKMTupleG(n, values))
        ok = ok and bool(v_g) and v_g[0].remainder
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(9, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_10_root_data():
    """Reflection case table, group orders, normality of the sign-change
    subgroup, and the quotient homomorphism, exhaustively for n <= 3."""
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        W = enumerate_weyl(n)
        WG = enumerate_sign_changes(n)
        ok = ok and len(W) == 2**n * math.factorial(n)
        ok = ok and len(WG) == 2**n
        for alpha in positive_roots(n):
            r = reflection(alpha)
            ok = ok and r * r == SignedPerm.identity(n)
            ok = ok and r.act(alpha) == tuple(-a for a in alpha)
        for w in W:
            winv = w.inverse()
            for v in WG:
                ok = ok and (w * v * winv).is_sign_change()
        for w in W:
            for v in W:
                ok = ok and coset_map(w * v) == tuple(
                    coset_map(w)[coset_map(v)[i] - 1] for i in range(n)
                )
    elapsed = time.perf_counter() - start
    report(10, ok, f"{elapsed:.1f}s")
    assert ok
