"""Acceptance criteria.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run pytest with -s
to see them interleaved, or check captured output on failure).  Everything is
exact.  Criteria 1, 2, 4b, 5 and 7 state a wall-time budget and assert it;
the others state none.

Criteria 2, 3, 4b and 5 to 10 run the ``verify`` suites of ``qflagk.cli``
through ``run_suite``, as ``qflagk verify`` does, and assert on the report:
its number of checks, so a suite that drops a check fails its criterion,
and its violations.  What each of them checks is stated once, in the suite.
Criteria 1, 4a and 4c make checks no suite makes, and are written out here,
as is criterion 9's trial on G-tuples, which no suite draws.

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

import argparse
import time

import pytest

from qflagk import cli, quatflag
from qflagk.gkm import (
    GKMTupleG,
    GKMTupleT,
    TupleNotInvariant,
    descend_pi,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    j_expand,
    pullback_pi,
    quaternionic_schubert_classes,
    schubert_table,
)
from qflagk.randgen import random_g_tuple, random_laurent, trial_rng
from qflagk.ringcore import XPoly, x_expand
from qflagk.weylc import (
    all_perms,
    bruhat_leq_by_rank_matrix,
    coset_map,
    enumerate_sign_changes,
    enumerate_weyl,
    max_length_rep,
    perm_identity,
)
from tuple_actions import weyl_act_tuple

SEED = 20260810


def report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid}: {status}{suffix}")


def run(suite, n, trials=None, mutate=0):
    """The report of one ``verify`` suite at rank n."""
    cfg = argparse.Namespace(n=n, seed=SEED, trials=trials, jobs=1, mutate=mutate)
    return cli.run_suite(cfg, suite)


def accept(cid, reports, checks, budget=None, holds=True):
    """Print the criterion's line, then assert that the reports made the
    ``checks`` counts, found no violation and, if a budget is stated, took
    under ``budget`` seconds together; ``holds`` is any further condition."""
    got = [r["checks"] for r in reports]
    violations = [v for r in reports for v in r["violations"]]
    elapsed = sum(r["wall_time_s"] for r in reports)
    ok = got == checks and not violations and (budget is None or elapsed < budget) and holds
    report(cid, ok, f"{sum(got)} checks, {len(violations)} violations, {elapsed:.1f}s")
    assert got == checks
    assert not violations, violations[:3]
    assert budget is None or elapsed < budget
    assert holds


@pytest.fixture(scope="module")
def quaternionic():
    return {n: quaternionic_schubert_classes(n) for n in (2, 3)}


@pytest.fixture(scope="module")
def schubert_reports():
    return [run("schubert", n) for n in (2, 3)]


def test_criterion_1_fundamental_class():
    """The class at the longest element is the constant tuple 1 for n = 1,2,3."""
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        w0 = max_length_rep(perm_identity(n))
        ok = ok and schubert_table(n)[w0] == GKMTupleT.constant(n, 1)
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 30, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_criterion_2_gkm_validity_of_schubert_basis(schubert_reports):
    """All 2^n n! classes pass the T-model membership check for n = 2, 3
    (the ``schubert`` suite, which also checks their diagonal values and
    triangularity)."""
    accept(2, schubert_reports, [96, 2544], budget=60)


def test_criterion_3_descents_fix_classes(schubert_reports):
    """Right descents fix the classes, exhaustively at n = 2, 3 (the
    ``schubert`` suite)."""
    accept(3, schubert_reports, [96, 2544])


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
    """200 seeded random combinations of the n! classes are recovered exactly
    (the ``theorem1`` suite, 100 trials at each of n = 2, 3)."""
    accept("4b", [run("theorem1", n, trials=100) for n in (2, 3)], [204, 212], budget=120)


def test_criterion_4c_descend_of_combinations(quaternionic):
    """20 seeded combinations of the quaternionic classes at maximal-length
    representatives, with Laurent coefficients, descend to valid X-model
    tuples whose pullback is the combination again."""
    failures = 0
    first = None
    for n in (2, 3):
        classes = [pullback_pi(j_expand(quaternionic[n][tau])) for tau in all_perms(n)]
        for t in range(10):
            rng = trial_rng(SEED + 10 * n, t)
            combo = sum(cls * random_laurent(rng, n) for cls in classes)
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
    """4000 instances, 1000 at n = 2 and 3000 at n = 3, satisfy the
    equivalence both ways, with the quotient identity through the free-basis
    decomposition, and each one plus 1 is rejected on both sides (the
    ``theorem2`` suite)."""
    reports = [run("theorem2", 2, trials=1000), run("theorem2", 3, trials=3000)]
    accept(5, reports, [4000, 12000], budget=60)


def test_criterion_6_presentation_relations():
    """The defining relations hold for all k <= n at n = 1, 2, 3, in the
    G-model and its expanded image (the ``presentation`` suite)."""
    accept(6, [run("presentation", n) for n in (1, 2, 3)], [2, 8, 36])


def test_criterion_7_decomposition_roundtrip(monkeypatch):
    """1000 random invertible matrices at n = 3, one cell drawn per trial:
    exact recomposition, membership, uniqueness under a right-triangular
    translate, and agreement with the flag cell index in every trial, which
    reaches every cell (the ``cells`` suite)."""
    reached = set()

    def cell_index(g, index=quatflag.cell_index):
        reached.add(tau := index(g))
        return tau

    monkeypatch.setattr(quatflag, "cell_index", cell_index)
    reports = [run("cells", 3, trials=1000)]
    accept(7, reports, [5043], budget=120, holds=reached == set(all_perms(3)))


def test_criterion_8_cell_combinatorics():
    """Free-entry counts match inversion numbers; the closure order matches
    the rank-matrix oracle; cell counts are n!; all on S3 and S4 (the
    exhaustive half of the ``cells`` suite, run with no trials)."""
    accept(8, [run("cells", n, trials=0) for n in (3, 4)], [43, 601])


def _g_trials(n, trials):
    """The violations of each G-trial that ``--mutate 1`` would make: a
    ``random_g_tuple`` with +1 at one fixed point, sampled from the trial's
    stream as the ``gkm-t`` and ``gkm-x`` trials sample it."""
    for t in range(trials):
        rng = trial_rng(SEED, t)
        f = random_g_tuple(rng, n)
        [v] = rng.sample(list(f.values), k=1)
        yield [viol.to_json() for viol in gkm_check_g(
            GKMTupleG(f.rank, {**f.values, v: f.values[v] + 1}))]


def test_criterion_9_checker_sensitivity():
    """Single-component +1 perturbations of 100 valid tuples per model at
    n = 2 are rejected, each with a concrete witness (``gkm-t`` and ``gkm-x``
    with ``--mutate 1``, and the same trial on G-tuples)."""
    tallies = [(r["checks"], r["passed"], r["violations"])
               for r in (run("gkm-t", 2, trials=100, mutate=1),
                         run("gkm-x", 2, trials=100, mutate=1))]
    g = list(_g_trials(2, 100))
    tallies.append((len(g), g.count([]), [v for found in g for v in found]))
    ok = all(checks == 100 and passed == 0 and all(v["remainder"] for v in violations)
             for checks, passed, violations in tallies)
    report(9, ok, f"checks, passed: {[t[:2] for t in tallies]}")
    assert ok, [t[:2] for t in tallies]


def test_criterion_10_root_data():
    """Reflection case table, group orders, normality of the sign-change
    subgroup, and the quotient homomorphism, exhaustively for n <= 3 (the
    ``roots`` suite)."""
    accept(10, [run("roots", n) for n in (1, 2, 3)], [15, 118, 2765])
