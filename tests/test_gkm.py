"""The three fixed-point models, Schubert classes, and the maps between them."""

import pickle
from functools import partial

import pytest

from qflagk import gkm, ringcore
from qflagk.gkm import (
    CONVENTION,
    EdgeViolation,
    GKMTupleG,
    GKMTupleT,
    GKMTupleX,
    InexactDivision,
    NotInTupleSpan,
    TupleNotInvariant,
    canonical_class,
    coeff_act_tuple,
    demazure,
    descend_pi,
    expand_in_schubert,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    j_descend,
    j_expand,
    descent_invariance_check,
    point_class,
    presentation_check,
    pullback_pi,
    quaternionic_schubert_classes,
    schubert_class,
    schubert_class_from_word,
    schubert_table,
    weyl_act_tuple,
)
from qflagk.randgen import (
    random_g_tuple,
    random_maxrep_combination,
    random_t_tuple,
    random_x_tuple,
    trial_rng,
    vertex_class_x,
)
from qflagk.ringcore import (
    EXPONENT_LIMIT,
    BinomialDivisor,
    LaurentPoly,
    NotDivisible,
    XPoly,
    divide_exact,
    x_expand,
    xpoly_divide_exact,
)
from qflagk.weylc import (
    SignedPerm,
    all_perms,
    bruhat_leq,
    descents,
    enumerate_sign_changes,
    enumerate_weyl,
    length,
    max_length_rep,
    perm_identity,
    perm_inversions,
    simple_reflection,
    simple_root,
)


def all_reduced_words(w):
    """Enumerate every reduced word of w by walking right descents."""
    n = w.rank
    if length(w) == 0:
        return [[]]
    words = []
    for i in range(1, n + 1):
        s = simple_reflection(i, n)
        if length(w * s) < length(w):
            words.extend(word + [i] for word in all_reduced_words(w * s))
    return words


# ---------------------------------------------------------------------------
# membership checkers
# ---------------------------------------------------------------------------

def test_check_t_constant_passes():
    for n in (1, 2):
        f = GKMTupleT.constant(n, 7)
        assert gkm_check_t(f) == []


def test_check_t_rank_one_examples():
    e = SignedPerm.identity(1)
    s = simple_reflection(1, 1)
    good = GKMTupleT(1, {e: LaurentPoly.one(1), s: LaurentPoly.monomial(1, (2,))})
    assert gkm_check_t(good) == []
    bad = GKMTupleT(1, {e: LaurentPoly.one(1), s: LaurentPoly.x(1, 1)})
    violations = gkm_check_t(bad)
    assert len(violations) == 1
    assert violations[0].edge == (2,)
    assert violations[0].remainder


def test_check_x_and_g_examples():
    n = 2
    assert gkm_check_x(GKMTupleX.constant(n, 3)) == []
    assert gkm_check_g(GKMTupleG.constant(n, 3)) == []
    good_g = GKMTupleG(n, {(1, 2): XPoly.X(n, 1), (2, 1): XPoly.X(n, 2)})
    assert gkm_check_g(good_g) == []
    bad_x = GKMTupleX(n, {(1, 2): LaurentPoly.x(n, 1), (2, 1): LaurentPoly.x(n, 2)})
    violations = gkm_check_x(bad_x)
    assert len(violations) == 1
    assert violations[0].edge == (1, 2)


def test_tuple_totality_enforced():
    with pytest.raises(ValueError):
        GKMTupleT(1, {SignedPerm.identity(1): LaurentPoly.one(1)})
    with pytest.raises(ValueError):
        GKMTupleX(2, {(1, 2): LaurentPoly.one(2)})


# ---------------------------------------------------------------------------
# residue verdicts against long division
# ---------------------------------------------------------------------------

CHECKS = {gkm._T: gkm_check_t, gkm._X: gkm_check_x, gkm._G: gkm_check_g}
THIRD = EXPONENT_LIMIT // 3


def _check_by_division(model, f):
    """The checker that long-divides every nonzero difference: the reference
    the residue verdicts must reproduce, witnesses included."""
    violations = []
    for u, v, edge, divisor, _ in gkm._edges(model, f.rank):
        diff = f.values[u] - f.values[v]
        if not diff:
            continue
        try:
            model.divide(diff, divisor)
        except NotDivisible as exc:
            violations.append(
                EdgeViolation(model.name, model.label(u), model.label(v), edge, exc.remainder)
            )
    return violations


def _outcome(check, f):
    # the violation list down to each witness's packed terms and bound, or
    # the overflow a division raised
    try:
        return [
            (v.model, v.index, v.partner, v.edge, v.remainder._packed, v.remainder._bound)
            for v in check(f)
        ]
    except OverflowError as exc:
        return ("OverflowError", str(exc))


def _assert_same_verdicts(f):
    model = type(f).model
    assert _outcome(CHECKS[model], f) == _outcome(partial(_check_by_division, model), f)


def _times(f, mono):
    return type(f)(f.rank, {k: mono * p for k, p in f.values.items()})


def _shifted_sum(a, b, mono):
    # a + mono * b: valid when a and b are, over a wide exponent span
    return type(a)(a.rank, {k: a.values[k] + mono * b.values[k] for k in a.values})


def _mutated(rng, f, vertices=2):
    # +1 at some vertices, or a monomial that is odd in x_1 (or X_1)
    ring = type(f).model.ring
    bump = rng.choice([ring.one(f.rank), ring.monomial(f.rank, (1,) + (0,) * (f.rank - 1), -2)])
    hit = rng.sample(list(f.values), min(vertices, len(f.values)))
    return type(f)(f.rank, {k: p + bump if k in hit else p for k, p in f.values.items()})


def _qs_combination(rng, n, max_length=None):
    # quaternionic classes with coefficients in {+-1, +-2}, as G-tuples
    perms = all_perms(n)
    values = {t: XPoly.zero(n) for t in perms}
    for tau, cls in quaternionic_schubert_classes(n).items():
        if max_length is None or perm_inversions(tau) <= max_length:
            a = rng.choice((-2, -1, 1, 2))
            values = {t: values[t] + a * cls.values[t] for t in perms}
    return GKMTupleG(n, values)


def _seeded_tuples(rng, n):
    """Valid T-, X- and G-tuples of rank n: random ones, Schubert
    combinations and their images, some shifted by monomials whose exponents
    are odd in x_1 (odd differences across the long-root edges of 2e_1)."""
    odd = LaurentPoly.monomial(n, (3,) + (-1,) * (n - 1))
    g = [random_g_tuple(rng, n), _qs_combination(rng, n)]
    x = [random_x_tuple(rng, n), j_expand(g[1])]
    t = [random_t_tuple(rng, n), random_maxrep_combination(rng, n)[0], pullback_pi(x[0])]
    return (
        t + [_times(t[0], odd), _shifted_sum(t[2], pullback_pi(x[1]), odd)]
        + x + [_shifted_sum(x[0], x[1], odd)]
        + g + [_shifted_sum(g[0], g[1], XPoly.monomial(n, (3,) + (0,) * (n - 1)))]
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residue_verdicts_match_the_division_on_seeded_tuples(n):
    for trial in range(3 if n < 3 else 1):
        rng = trial_rng(40 + n, trial)
        for f in _seeded_tuples(rng, n):
            assert CHECKS[type(f).model](f) == []
            _assert_same_verdicts(f)
            _assert_same_verdicts(_mutated(rng, f))


def test_residue_verdicts_match_the_division_on_rank_four_workload_tuples():
    # built as the rank-4 membership benchmark builds them: quaternionic
    # combinations, their images, and sums shifted by a monomial of degree 9
    n = 4
    rng = trial_rng(44, 0)
    g = _qs_combination(rng, n)
    x = j_expand(g)
    t = pullback_pi(j_expand(_qs_combination(rng, n, max_length=1)))
    wide = LaurentPoly.monomial(n, (9, 0, -2, 0))
    tuples = [
        g, _shifted_sum(g, random_g_tuple(rng, n), XPoly.monomial(n, (0, 9, 0, 0))),
        x, _shifted_sum(random_x_tuple(rng, n), x, wide),
        _times(t, wide),
    ]
    for f in tuples:
        _assert_same_verdicts(f)
        _assert_same_verdicts(_mutated(rng, f, vertices=3))


def test_residue_verdicts_match_the_division_across_a_third_of_the_limit():
    # values spread over [-E, E] with E near a third of the limit: below it
    # the residues decide, from there on the division decides or raises
    # OverflowError
    outcomes = []
    for offset in (-30, -6, -3, -1, 0, 1, 2, 4):
        rng = trial_rng(45, offset)
        e = THIRD + offset
        tuples = []
        for n in (1, 2):
            for f in (random_t_tuple(rng, n), random_x_tuple(rng, n)):
                ring = type(f).model.ring
                span = ring.monomial(n, (e,) + (0,) * (n - 1)) + ring.monomial(n, (-e,) * n)
                tuples.append(_times(f, span))
            g = random_g_tuple(rng, n)
            tuples.append(_shifted_sum(g, g, XPoly.monomial(n, (0,) * (n - 1) + (e,))))
        for f in tuples + [_mutated(rng, f) for f in tuples]:
            _assert_same_verdicts(f)
            outcomes.append(_outcome(CHECKS[type(f).model], f))
    # passes, witnesses and overflows all occur
    assert [] in outcomes
    assert any(o and isinstance(o, list) for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


def test_valid_tuples_pass_without_long_division_whatever_the_span(monkeypatch):
    # a shift of width 10 000 is below a third of the limit: the verdict is
    # the residue's, and no division runs
    def refuse(*args):
        raise AssertionError("a valid tuple was long-divided")

    n = 3
    rng = trial_rng(46, 0)
    e = 10_000
    laurent = LaurentPoly.monomial(n, (e, -e, 0))
    valid = [
        _shifted_sum(random_t_tuple(rng, n), random_t_tuple(rng, n), laurent),
        _shifted_sum(random_x_tuple(rng, n), random_x_tuple(rng, n), laurent),
        _shifted_sum(random_g_tuple(rng, n), random_g_tuple(rng, n), XPoly.monomial(n, (0, e, 0))),
    ]
    mutated = [_mutated(rng, f) for f in valid]
    expected = [_outcome(partial(_check_by_division, type(f).model), f) for f in mutated]
    assert all(expected)

    monkeypatch.setattr(ringcore, "_divide_one_factor", refuse)
    for f in valid:
        assert CHECKS[type(f).model](f) == []
    monkeypatch.undo()

    # a failing edge still gets the division's witness, and only a failing
    # edge is divided
    calls = []

    def counted(divide):
        def wrapped(*args):
            calls.append(args)
            return divide(*args)
        return wrapped

    monkeypatch.setattr(gkm, "divide_exact", counted(divide_exact))
    monkeypatch.setattr(gkm, "xpoly_divide_exact", counted(xpoly_divide_exact))
    for f, want in zip(mutated, expected):
        calls.clear()
        assert _outcome(CHECKS[type(f).model], f) == want
        assert len(calls) == len(want)


# ---------------------------------------------------------------------------
# actions on tuples
# ---------------------------------------------------------------------------

def test_weyl_act_identity_and_constant():
    n = 2
    f = random_t_tuple(trial_rng(0, 0), n)
    assert weyl_act_tuple(SignedPerm.identity(n), f) == f
    c = GKMTupleT.constant(n, 5)
    for v in enumerate_weyl(n):
        assert weyl_act_tuple(v, c) == c


def test_weyl_act_rank_one_swap():
    e = SignedPerm.identity(1)
    s = simple_reflection(1, 1)
    f = GKMTupleT(1, {e: LaurentPoly.one(1), s: LaurentPoly.monomial(1, (2,))})
    g = weyl_act_tuple(s, f)
    assert g.values[e] == f.values[s]
    assert g.values[s] == f.values[e]


def test_weyl_act_composes_contravariantly():
    # acting by u after v equals acting by v*u in one step (pullback order)
    n = 2
    f = random_t_tuple(trial_rng(1, 0), n)
    for u in enumerate_weyl(n)[:4]:
        for v in enumerate_weyl(n)[:4]:
            assert weyl_act_tuple(u, weyl_act_tuple(v, f)) == weyl_act_tuple(v * u, f)


def test_weyl_act_preserves_membership():
    n = 2
    f = random_t_tuple(trial_rng(2, 0), n)
    for v in enumerate_weyl(n):
        assert gkm_check_t(weyl_act_tuple(v, f)) == []


def test_coeff_act_examples():
    n = 1
    f = GKMTupleX(n, {(1,): LaurentPoly.x(n, 1)})
    flip = simple_reflection(1, 1)
    assert coeff_act_tuple(flip, f).values[(1,)] == LaurentPoly.monomial(1, (-1,))
    sym = GKMTupleX(n, {(1,): LaurentPoly(1, {(1,): 1, (-1,): 1})})
    assert coeff_act_tuple(flip, sym) == sym
    assert coeff_act_tuple(SignedPerm.identity(1), f) == f
    with pytest.raises(ValueError):
        coeff_act_tuple(simple_reflection(1, 2), GKMTupleX.constant(2, 1))


# ---------------------------------------------------------------------------
# point class and the Demazure recursion
# ---------------------------------------------------------------------------

def test_point_class_rank_one():
    pc = point_class(1)
    e = SignedPerm.identity(1)
    s = simple_reflection(1, 1)
    assert pc.values[e] == 1 - LaurentPoly.monomial(1, (2,))
    assert pc.values[s] == LaurentPoly.zero(1)
    assert gkm_check_t(pc) == []


def test_point_class_rank_two_is_the_four_factor_product():
    pc = point_class(2)
    expected = LaurentPoly.one(2)
    for exps in ((1, -1), (1, 1), (2, 0), (0, 2)):
        expected = expected * (1 - LaurentPoly.monomial(2, exps))
    assert pc.values[SignedPerm.identity(2)] == expected
    assert gkm_check_t(pc) == []
    # and at ranks 3 and 4, prod (1 - e^alpha) over L^a -+ L^b (a < b) and 2L^a
    for n in (3, 4):
        unit = [tuple(int(v == a) for v in range(n)) for a in range(n)]
        roots = [tuple(2 * c for c in unit[a]) for a in range(n)] + [
            tuple(p + s * q for p, q in zip(unit[a], unit[b]))
            for a in range(n) for b in range(a + 1, n) for s in (-1, 1)
        ]
        expected = LaurentPoly.one(n)
        for exps in roots:
            expected = expected * (1 - LaurentPoly.monomial(n, exps))
        pc = point_class(n)
        assert pc.values[SignedPerm.identity(n)] == expected
        assert all(not p for w, p in pc.values.items() if w != SignedPerm.identity(n))


def test_demazure_fixes_constants():
    n = 2
    c = GKMTupleT.constant(n, 9)
    for i in (1, 2):
        assert demazure(i, c) == c


def test_demazure_rank_one_pinning():
    assert demazure(1, point_class(1)) == GKMTupleT.constant(1, 1)


def test_demazure_idempotent():
    n = 2
    for t in range(5):
        f = random_t_tuple(trial_rng(3, t), n)
        for i in (1, 2):
            once = demazure(i, f)
            assert demazure(i, once) == once


def test_demazure_inexact_on_corrupted_input():
    n, i = 2, 1
    e, s = SignedPerm.identity(n), simple_reflection(i, n)
    # a bare delta is not valid; at e its numerator is f_e (delta at e) or
    # -e^{alpha_1} f_{s_1} (delta at s_1), and e is the first fixed point visited
    for corrupt in (e, s):
        values = {w: LaurentPoly.zero(n) for w in enumerate_weyl(n)}
        values[corrupt] = LaurentPoly.one(n)
        with pytest.raises(InexactDivision) as info:
            demazure(i, GKMTupleT(n, values))
        exc = info.value
        assert (exc.w, exc.i) == (e, i)
        mono = LaurentPoly.monomial(n, e.act(simple_root(i, n)))
        assert exc.numerator == values[e] - mono * values[e * s]
        assert exc.numerator


def test_gkm_exceptions_survive_pickling():
    n = 2
    values = {w: LaurentPoly.zero(n) for w in enumerate_weyl(n)}
    values[SignedPerm.identity(n)] = LaurentPoly.one(n)
    with pytest.raises(InexactDivision) as inexact:
        demazure(1, GKMTupleT(n, values))
    with pytest.raises(NotInTupleSpan) as outside:
        expand_in_schubert(pullback_pi(vertex_class_x(n, (2, 1))),
                           [max_length_rep(tau) for tau in all_perms(n)])
    with pytest.raises(TupleNotInvariant) as moved:
        j_descend(GKMTupleX(n, {(1, 2): LaurentPoly.x(n, 1), (2, 1): LaurentPoly.one(n)}))
    for caught, fields in ((inexact, ("w", "i", "numerator")),
                           (outside, ("witness_index", "residual")),
                           (moved, ("group_element", "index"))):
        exc = pickle.loads(pickle.dumps(caught.value))
        assert type(exc) is caught.type and str(exc) == str(caught.value)
        for name in fields:
            assert getattr(exc, name) == getattr(caught.value, name)


def test_demazure_rank_four_is_word_independent():
    # s1 s2 s1 s3 s4 = s2 s1 s2 s3 s4 has length 5 and right descents 1 and 4
    n = 4
    words = ((1, 2, 1, 3, 4), (2, 1, 2, 3, 4))
    elements = set()
    for word in words:
        w = SignedPerm.identity(n)
        for i in word:
            w = w * simple_reflection(i, n)
        elements.add(w)
    (w,) = elements
    assert length(w) == 5 and descents(w) == [1, 4]
    cls = schubert_class_from_word(n, words[0])
    assert schubert_class_from_word(n, words[1]) == cls
    assert cls.values[w]
    for i in descents(w):
        assert demazure(i, cls) == cls


# ---------------------------------------------------------------------------
# the Schubert table
# ---------------------------------------------------------------------------

def test_schubert_base_and_top():
    for n in (1, 2):
        table = schubert_table(n)
        assert table.classes[SignedPerm.identity(n)] == point_class(n)
        w0 = max_length_rep(perm_identity(n))
        assert table.classes[w0] == GKMTupleT.constant(n, 1)
        assert table.convention == CONVENTION


def test_schubert_all_classes_valid_and_triangular_rank_two():
    n = 2
    table = schubert_table(n)
    W = enumerate_weyl(n)
    assert len(table.classes) == 8
    for w in W:
        cls = table.classes[w]
        assert gkm_check_t(cls) == []
        assert cls.values[w]
        for v in W:
            if cls.values[v]:
                assert bruhat_leq(v, w)


def test_schubert_word_independence_exhaustive_rank_two():
    n = 2
    table = schubert_table(n)
    for w in enumerate_weyl(n):
        for word in all_reduced_words(w):
            assert schubert_class_from_word(n, word) == table.classes[w]


def test_schubert_word_independence_sampled_rank_three():
    n = 3
    table = schubert_table(n)
    w0 = max_length_rep(perm_identity(n))
    words = all_reduced_words(w0)
    step = max(1, len(words) // 5)
    for word in words[::step]:
        assert schubert_class_from_word(n, word) == table.classes[w0]


def test_schubert_class_matches_the_table():
    table = schubert_table(3)
    for w in enumerate_weyl(3):
        assert schubert_class(w) == table.classes[w]
    assert schubert_class(max_length_rep(perm_identity(4))) == GKMTupleT.constant(4, 1)


def test_schubert_diagonals_have_the_closed_form():
    # the class of w at w is prod (1 - e^alpha) over the positive roots alpha
    # with w^{-1}(alpha) > 0, which number n^2 - length(w)
    ws = [w for n in (1, 2, 3) for w in enumerate_weyl(n)]
    ws += trial_rng(14, 0).sample(list(enumerate_weyl(4)), k=4)
    for w in ws:
        n = w.rank
        cls = schubert_table(n).classes[w] if n <= 3 else schubert_class(w)
        assert len(gkm._diagonal_roots(w)) == n * n - length(w)
        assert cls.values[w] == gkm._diagonal(w)


def test_descent_invariance_exhaustive_rank_two():
    assert descent_invariance_check(schubert_table(2)) == []


# ---------------------------------------------------------------------------
# maps between the models
# ---------------------------------------------------------------------------

def test_pullback_examples():
    n = 1
    h = LaurentPoly(1, {(1,): 2, (-1,): 2})
    fx = GKMTupleX(1, {(1,): h})
    ft = pullback_pi(fx)
    assert ft.values[SignedPerm.identity(1)] == h
    assert ft.values[simple_reflection(1, 1)] == h
    assert pullback_pi(GKMTupleX.constant(2, 4)) == GKMTupleT.constant(2, 4)


def test_pullback_descend_roundtrip_random():
    for n in (1, 2):
        for t in range(20):
            fx = random_x_tuple(trial_rng(4, t), n)
            assert gkm_check_x(fx) == []
            ft = pullback_pi(fx)
            assert gkm_check_t(ft) == []
            for v in enumerate_sign_changes(n):
                assert weyl_act_tuple(v, ft) == ft
            assert descend_pi(ft) == fx


def test_descend_rejects_non_invariant_with_witness():
    n = 2
    ft = pullback_pi(random_x_tuple(trial_rng(5, 0), n))
    values = dict(ft.values)
    w = enumerate_weyl(n)[0]
    values[w] = values[w] + 1
    broken = GKMTupleT(n, values)
    with pytest.raises(TupleNotInvariant) as exc:
        descend_pi(broken)
    v, index = exc.value.group_element, exc.value.index
    assert v.is_sign_change()
    w = SignedPerm.from_window(index)
    assert weyl_act_tuple(v, broken).values[w] != broken.values[w]


def test_j_maps_examples_and_roundtrip():
    n = 2
    cg = GKMTupleG(n, {(1, 2): XPoly.X(n, 1), (2, 1): XPoly.X(n, 2)})
    cx = j_expand(cg)
    assert cx.values[(1, 2)] == LaurentPoly(2, {(1, 0): 1, (-1, 0): 1})
    assert gkm_check_x(cx) == []
    assert j_descend(cx) == cg
    assert j_expand(GKMTupleG.constant(n, 6)) == GKMTupleX.constant(n, 6)
    for t in range(20):
        fg = random_g_tuple(trial_rng(6, t), n)
        assert j_descend(j_expand(fg)) == fg


def test_j_descend_rejects_asymmetric_components():
    n = 2
    fx = GKMTupleX.constant(n, 1)
    values = dict(fx.values)
    values[(1, 2)] = LaurentPoly.x(n, 1)
    with pytest.raises(TupleNotInvariant):
        j_descend(GKMTupleX(n, values))


def test_bridge_equivalence_on_tuples():
    # the G-model condition holds exactly when the expanded X-model condition does
    for t in range(10):
        fg = random_g_tuple(trial_rng(7, t), 2)
        assert gkm_check_g(fg) == []
        assert gkm_check_x(j_expand(fg)) == []
    # adversarial near-miss: perturb one component on the G side
    fg = random_g_tuple(trial_rng(7, 99), 2)
    values = dict(fg.values)
    values[(1, 2)] = values[(1, 2)] + XPoly.X(2, 1)
    broken = GKMTupleG(2, values)
    assert gkm_check_g(broken) != []
    assert gkm_check_x(j_expand(broken)) != []


# ---------------------------------------------------------------------------
# canonical classes and the presentation
# ---------------------------------------------------------------------------

def test_canonical_class_values():
    n = 2
    c1 = canonical_class(1, n)
    assert c1.values[(1, 2)] == XPoly.X(n, 1)
    assert c1.values[(2, 1)] == XPoly.X(n, 2)
    assert gkm_check_g(c1) == []
    assert canonical_class(1, 1) == GKMTupleG.constant(1, XPoly.X(1, 1))
    with pytest.raises(ValueError):
        canonical_class(3, 2)


def test_presentation_small_ranks():
    assert presentation_check(1) == []
    assert presentation_check(2) == []


# ---------------------------------------------------------------------------
# expansion in the Schubert basis
# ---------------------------------------------------------------------------

def test_expand_recovers_single_classes():
    n = 2
    table = schubert_table(n)
    basis = list(enumerate_weyl(n))
    for w in basis:
        coeffs = expand_in_schubert(table.classes[w], basis)
        for v, a in coeffs.items():
            assert a == (LaurentPoly.one(n) if v == w else LaurentPoly.zero(n))


def test_expand_recovers_random_combinations():
    for n in (2, 3):
        for t in range(5):
            combo, coeffs = random_maxrep_combination(trial_rng(8, t), n)
            assert expand_in_schubert(combo, list(coeffs)) == coeffs


def test_expand_rejects_tuples_outside_the_span():
    # the invariant vertex-supported tuple is valid but lies outside the span
    # of the classes at maximal-length representatives
    n = 2
    p = pullback_pi(vertex_class_x(n, (2, 1)))
    assert gkm_check_t(p) == []
    basis = [max_length_rep(tau) for tau in all_perms(n)]
    with pytest.raises(NotInTupleSpan):
        expand_in_schubert(p, basis)


# ---------------------------------------------------------------------------
# checker sensitivity
# ---------------------------------------------------------------------------

def test_single_component_perturbations_are_caught():
    n = 2
    rng = trial_rng(9, 0)
    ft = random_t_tuple(rng, n)
    values = dict(ft.values)
    w = enumerate_weyl(n)[3]
    values[w] = values[w] + 1
    assert gkm_check_t(GKMTupleT(n, values)) != []

    fx = random_x_tuple(rng, n)
    values = dict(fx.values)
    values[(2, 1)] = values[(2, 1)] + 1
    assert gkm_check_x(GKMTupleX(n, values)) != []

    fg = random_g_tuple(rng, n)
    values = dict(fg.values)
    values[(1, 2)] = values[(1, 2)] + 1
    assert gkm_check_g(GKMTupleG(n, values)) != []


# ---------------------------------------------------------------------------
# the invariant submodule (what descends to the quaternionic flag space)
# ---------------------------------------------------------------------------

def test_invariant_module_is_spanned_by_vertex_classes():
    # constants and vertex classes generate sign-change-invariant tuples whose
    # descents are exactly the X-model tuples they came from
    n = 2
    for tau in all_perms(n):
        p = pullback_pi(vertex_class_x(n, tau))
        assert gkm_check_t(p) == []
        for v in enumerate_sign_changes(n):
            assert weyl_act_tuple(v, p) == p
        assert descend_pi(p) == vertex_class_x(n, tau)


def test_serialization_roundtrip_all_models():
    n = 2
    ft = random_t_tuple(trial_rng(10, 0), n)
    assert GKMTupleT.from_json(ft.to_json()) == ft
    fx = random_x_tuple(trial_rng(10, 1), n)
    assert GKMTupleX.from_json(fx.to_json()) == fx
    fg = random_g_tuple(trial_rng(10, 2), n)
    assert GKMTupleG.from_json(fg.to_json()) == fg
    table = schubert_table(1)
    data = table.to_json()
    assert data["convention"] == CONVENTION
    assert set(data["classes"]) == {"[1]", "[-1]"}


def test_pullback_descend_inverse_from_the_invariant_side():
    # the other direction of the bijection: invariant T-tuple -> X -> back
    from qflagk.randgen import random_invariant_t_tuple

    for n in (1, 2):
        for t in range(10):
            ft = random_invariant_t_tuple(trial_rng(11, t), n)
            assert gkm_check_t(ft) == []
            fx = descend_pi(ft)
            assert gkm_check_x(fx) == []
            assert pullback_pi(fx) == ft


def test_documented_gap_counterexample_is_pinned():
    # regression pin for the rank-2 counterexample in the README: the class
    # at the longest member of the transposition coset takes different values
    # on the two halves of its coset, so the sign change at position 1 moves it
    n = 2
    table = schubert_table(n)
    w = max_length_rep((2, 1))
    assert w.window() == (-2, -1)
    cls = table.classes[w]
    lo = 1 - LaurentPoly.monomial(n, (1, 1))
    hi = 1 - LaurentPoly.monomial(n, (1, -1))
    assert cls.values[SignedPerm.from_window((2, 1))] == lo
    assert cls.values[SignedPerm.from_window((2, -1))] == lo
    assert cls.values[SignedPerm.from_window((-2, 1))] == hi
    assert cls.values[SignedPerm.from_window((-2, -1))] == hi
    flip1 = SignedPerm.from_window((-1, 2))
    assert weyl_act_tuple(flip1, cls) != cls


def test_demazure_maxrep_classes_are_invariant_only_at_the_identity():
    # why the Demazure classes at maximal-length representatives do not
    # descend: every class is nonzero at the identity, whose sign-change coset
    # contains max_length_rep(identity) = -1, and the class of w vanishes at
    # -1 unless w = -1; so only the class of -1 is sign-change invariant
    for n, expected_moves in ((2, 2), (3, 26)):
        table = schubert_table(n)
        identity = SignedPerm.identity(n)
        assert max_length_rep(perm_identity(n)).window() == tuple(range(-1, -n - 1, -1))
        assert all(cls.values[identity] for cls in table.classes.values())
        moves = 0
        for tau in all_perms(n):
            cls = table.classes[max_length_rep(tau)]
            moved = [v for v in enumerate_sign_changes(n) if weyl_act_tuple(v, cls) != cls]
            assert (not moved) == (tau == perm_identity(n))
            moves += len(moved)
        assert moves == expected_moves


# ---------------------------------------------------------------------------
# the quaternionic Schubert classes (G-model)
# ---------------------------------------------------------------------------

def _double_schubert_polynomials(n):
    """Double Schubert polynomials S_w(x; y), stdlib only.

    A polynomial is a dict from exponent vectors over x_1..x_n, y_1..y_n to
    integer coefficients.  The top one is prod_{i+j<=n} (x_i - y_j), and
    S_{w s_i} is the divided difference in x_i, x_{i+1} of S_w whenever
    w(i) > w(i+1), applied monomial by monomial:
    (x^a y^b - x^b y^a) / (x - y) = sum_{k<a-b} x^(a-1-k) y^(b+k) for a > b.
    """
    def unit(k):
        return tuple(int(m == k) for m in range(2 * n))

    def mul(p, q):
        out = {}
        for e, c in p.items():
            for f, d in q.items():
                key = tuple(a + b for a, b in zip(e, f))
                out[key] = out.get(key, 0) + c * d
        return {e: c for e, c in out.items() if c}

    def divided_difference(p, i):
        out = {}
        for e, c in p.items():
            a, b = e[i], e[i + 1]
            sign = 1 if a > b else -1
            hi, lo = max(a, b), min(a, b)
            for k in range(hi - lo):
                key = e[:i] + (hi - 1 - k, lo + k) + e[i + 2:]
                out[key] = out.get(key, 0) + sign * c
        return {e: c for e, c in out.items() if c}

    top = {(0,) * (2 * n): 1}
    for i in range(n):
        for j in range(n - 1 - i):
            top = mul(top, {unit(i): 1, unit(n + j): -1})
    polys = {tuple(range(n, 0, -1)): top}
    stack = list(polys)
    while stack:
        w = stack.pop()
        for i in range(n - 1):
            lower = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            if w[i] > w[i + 1] and lower not in polys:
                polys[lower] = divided_difference(polys[w], i)
                stack.append(lower)
    return polys


def _restrict(poly, sigma):
    # S(x; y) at x_i = X_{sigma(i)}, y_j = X_j
    n = len(sigma)
    out = {}
    for e, c in poly.items():
        key = list(e[n:])
        for i in range(n):
            key[sigma[i] - 1] += e[i]
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return XPoly(n, out)


def test_quaternionic_classes_match_double_schubert_polynomials():
    for n in (1, 2, 3, 4):
        classes = quaternionic_schubert_classes(n)
        polys = _double_schubert_polynomials(n)
        assert set(classes) == set(polys) == set(all_perms(n))
        for tau, cls in classes.items():
            for sigma in all_perms(n):
                assert cls.values[sigma] == _restrict(polys[tau], sigma), (tau, sigma)


def test_quaternionic_class_lies_outside_the_vertex_span():
    # constants and single-vertex tuples do not span the invariant module at
    # n = 3.  A vertex tuple is supported at one fixed point with value D, the
    # product of every pair divisor.  A combination c + sum a_s V_s that is 0
    # at the identity has c = -a_e D, so all its values are multiples of D;
    # the class at (2, 1, 3) is 0 at the identity but carries a single pair
    # divisor at (2, 1, 3).
    n = 3
    fx = j_expand(quaternionic_schubert_classes(n)[(2, 1, 3)])
    assert not fx.values[(1, 2, 3)]
    value = fx.values[(2, 1, 3)]
    assert value == x_expand(XPoly.X(n, 2) - XPoly.X(n, 1))
    pair = BinomialDivisor([(-1, 1, 0), (1, 1, 0)])
    assert divide_exact(LaurentPoly.x(n, 2) * value, pair) == LaurentPoly.one(n)
    factors = []
    for mu in range(1, n + 1):
        for nu in range(mu + 1, n + 1):
            factors.append(tuple(int(k == mu) - int(k == nu) for k in range(1, n + 1)))
            factors.append(tuple(int(k in (mu, nu)) for k in range(1, n + 1)))
    full = BinomialDivisor(factors)
    assert full.as_poly() == vertex_class_x(n, (1, 2, 3)).values[(1, 2, 3)]
    with pytest.raises(NotDivisible):
        divide_exact(value, full)
