"""The three fixed-point models, Schubert classes, and the maps between them."""

import copy
import hashlib
import json
import pickle
import random
from functools import partial

import pytest

from qflagk import gkm, ringcore
from qflagk.gkm import (
    EdgeViolation,
    GKMTupleG,
    GKMTupleT,
    GKMTupleX,
    InexactDivision,
    NotInTupleSpan,
    TupleNotInvariant,
    canonical_class,
    demazure,
    descend_pi,
    expand_in_schubert,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    j_descend,
    j_expand,
    descent_invariance_check,
    diagonal_check,
    point_class,
    presentation_check,
    pullback_pi,
    quaternionic_schubert_classes,
    schubert_class,
    schubert_class_from_word,
    schubert_table,
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
    TermIndex,
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
    is_positive_root,
    length,
    max_length_rep,
    perm_compose,
    perm_identity,
    perm_inversions,
    perm_transposition,
    positive_roots,
    reflection,
    simple_reflection,
    simple_root,
)
from tuple_actions import coeff_act_tuple, weyl_act_tuple


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


def test_tuple_validation_hashes_no_fixed_point(monkeypatch):
    # the vertex set is hashed once per model and rank, and the keys of a
    # built dict keep their hashes: constructing a tuple hashes no SignedPerm
    n = 3
    values = dict(schubert_table(n)[enumerate_weyl(n)[5]].values)
    hashes = []
    plain = SignedPerm.__hash__

    def counted(self):
        hashes.append(self)
        return plain(self)

    GKMTupleT(n, values)  # the vertex set of rank 3, built once
    monkeypatch.setattr(SignedPerm, "__hash__", counted)
    GKMTupleT(n, values)
    assert hashes == []
    monkeypatch.undo()
    one = LaurentPoly.one(2)
    for values, message in (
        ({SignedPerm.identity(1): LaurentPoly.one(1)},
         "T-tuple must be total: missing {SignedPerm(-1,)}, extra set()"),
        ({(1, 2): one, (2, 1): one, (3, 1): one},
         "X-tuple must be total: missing set(), extra {(3, 1)}"),
        ({(1, 2): one, (3, 1): one}, "X-tuple must be total: missing {(2, 1)}, extra {(3, 1)}"),
    ):
        cls = GKMTupleT if len(values) == 1 else GKMTupleX
        with pytest.raises(ValueError) as exc:
            cls(1 if cls is GKMTupleT else 2, values)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# tuple arithmetic
# ---------------------------------------------------------------------------

def _random_pairs(n):
    rng = trial_rng(9, n)
    return [
        (random_t_tuple(rng, n), random_t_tuple(rng, n)),
        (random_x_tuple(rng, n), random_x_tuple(rng, n)),
        (random_g_tuple(rng, n), random_g_tuple(rng, n)),
    ]


def test_tuples_add_subtract_and_multiply_pointwise():
    for n in (1, 2):
        for f, g in _random_pairs(n):
            assert f + g - g == f
            assert 0 + f == f and 1 * f == f
            assert sum([f, g]) == f + g
            assert (f * g).values == {v: p * g.values[v] for v, p in f.values.items()}
            m = type(f).model.ring.monomial(n, (1,) * n)
            assert (f * m).values == {v: p * m for v, p in f.values.items()}


def test_tuple_arithmetic_rejects_mixed_models_and_ranks():
    t2, x2, g2 = (f for f, _ in _random_pairs(2))
    t1 = random_t_tuple(trial_rng(9, 0), 1)
    for f, g in ((t2, x2), (x2, g2), (g2, x2), (t2, t1), (t1, t2)):
        for op in (f.__add__, f.__sub__, f.__mul__):
            with pytest.raises(TypeError):
                op(g)
    # a scalar of another rank fails in the ring
    with pytest.raises(ValueError):
        t2 * LaurentPoly.one(3)
    with pytest.raises(ValueError):
        g2 + XPoly.X(1, 1)


# ---------------------------------------------------------------------------
# edge and Demazure tables against the product route
# ---------------------------------------------------------------------------

def _product_route_edges(model, n):
    """The edges with each neighbour formed as a group product, as (edge,
    divisor factors, pairs): ``reflection(alpha) * u`` in T and
    ``perm_compose(swap, u)`` in X and G."""
    vertices = model.vertices(n)
    position = {u: k for k, u in enumerate(vertices)}
    if model is gkm._T:
        moves = [(alpha, reflection(alpha).__mul__, [alpha]) for alpha in positive_roots(n)]
    else:
        factors = 2 if model is gkm._X else 1
        moves = [
            ((mu, nu), partial(perm_compose, perm_transposition(n, mu, nu)),
             [tuple((v == mu) - (v == nu) for v in range(1, n + 1)),
              tuple((v == mu) + (v == nu) for v in range(1, n + 1))][:factors])
            for mu in range(1, n + 1) for nu in range(mu + 1, n + 1)
        ]
    return [
        (edge, BinomialDivisor(factors).factors, tuple(
            (u, v, position[u], position[v])
            for u in vertices
            for v in (move(u),)
            if model.label(u) < model.label(v)
        ))
        for edge, move, factors in moves
    ]


@pytest.mark.parametrize("model", [gkm._T, gkm._X, gkm._G], ids=lambda m: m.name)
def test_edges_match_the_product_route(model):
    for n in range(1, 5):
        edges = [(edge, divisor.factors, pairs) for edge, divisor, pairs in gkm._edges(model, n)]
        assert edges == _product_route_edges(model, n)


def test_rank_five_t_edges_match_a_seeded_sample_of_products():
    weyl = enumerate_weyl(5)
    edges = gkm._edges(gkm._T, 5)
    assert [edge for edge, _, _ in edges] == list(positive_roots(5))
    assert all(len(pairs) == 1920 for _, _, pairs in edges)
    everything = [(alpha, pair) for alpha, _, pairs in edges for pair in pairs]
    for alpha, (u, v, k, j) in random.Random(26).sample(everything, 200):
        assert weyl[k] is u and weyl[j] is v
        assert v == reflection(alpha) * u and u.window() < v.window()


def _product_route_demazure_steps(n, i):
    s = simple_reflection(i, n)
    alpha = simple_root(i, n)
    weyl = enumerate_weyl(n)
    position = {w: k for k, w in enumerate(weyl)}
    return [
        (position[w], position[w * s], LaurentPoly.monomial(n, walpha),
         BinomialDivisor([walpha]).factors)
        for w in weyl
        for walpha in (w.act(alpha),)
        if is_positive_root(walpha)
    ]


def test_demazure_steps_match_the_product_route():
    for n in range(1, 5):
        for i in range(1, n + 1):
            steps = [(k, kws, e, divisor.factors)
                     for k, kws, e, divisor in gkm._demazure_steps(n, i)]
            assert steps == _product_route_demazure_steps(n, i)


# ---------------------------------------------------------------------------
# residue verdicts against long division
# ---------------------------------------------------------------------------

CHECKS = {gkm._T: gkm_check_t, gkm._X: gkm_check_x, gkm._G: gkm_check_g}
THIRD = EXPONENT_LIMIT // 3


def _check_by_division(model, f):
    """The checker that long-divides every nonzero difference: the reference
    the residue verdicts must reproduce, witnesses included."""
    violations = []
    for edge, divisor, pairs in gkm._edges(model, f.rank):
        for u, v, _, _ in pairs:
            diff = f.values[u] - f.values[v]
            if not diff:
                continue
            try:
                model.divide(diff, edge, divisor)
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


def _mutated(rng, f, vertices=2):
    # +1 at some vertices, or a monomial that is odd in x_1 (or X_1)
    ring = type(f).model.ring
    bump = rng.choice([ring.one(f.rank), ring.monomial(f.rank, (1,) + (0,) * (f.rank - 1), -2)])
    hit = rng.sample(list(f.values), min(vertices, len(f.values)))
    return type(f)(f.rank, {k: p + bump if k in hit else p for k, p in f.values.items()})


def _qs_combination(rng, n, max_length=None):
    # quaternionic classes with coefficients in {+-1, +-2}, as G-tuples
    terms = (
        cls * rng.choice((-2, -1, 1, 2))
        for tau, cls in quaternionic_schubert_classes(n).items()
        if max_length is None or perm_inversions(tau) <= max_length
    )
    return sum(terms, GKMTupleG.constant(n, 0))


def _seeded_tuples(rng, n):
    """Valid T-, X- and G-tuples of rank n: random ones, Schubert
    combinations and their images, some shifted by monomials whose exponents
    are odd in x_1 (odd differences across the long-root edges of 2e_1)."""
    odd = LaurentPoly.monomial(n, (3,) + (-1,) * (n - 1))
    g = [random_g_tuple(rng, n), _qs_combination(rng, n)]
    x = [random_x_tuple(rng, n), j_expand(g[1])]
    t = [random_t_tuple(rng, n), random_maxrep_combination(rng, n)[0], pullback_pi(x[0])]
    return (
        t + [t[0] * odd, t[2] + pullback_pi(x[1]) * odd]
        + x + [x[0] + x[1] * odd]
        + g + [g[0] + g[1] * XPoly.monomial(n, (3,) + (0,) * (n - 1))]
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
        g, g + random_g_tuple(rng, n) * XPoly.monomial(n, (0, 9, 0, 0)),
        x, random_x_tuple(rng, n) + x * wide,
        t * wide,
    ]
    for f in tuples:
        _assert_same_verdicts(f)
        _assert_same_verdicts(_mutated(rng, f, vertices=3))


def _residue_by_factor(f, step):
    """The residue of ``f`` modulo one factor x^F - 1, ``step`` its entry of
    ``BinomialDivisor._steps``, each term's leading exponent read for this
    factor alone: the reference for ``ringcore._residues``, zero
    coefficients kept, None where the residue could leave the limit."""
    _, v, d, key, fmax = step
    bound = f._bound
    limit = EXPONENT_LIMIT
    if bound + 2 * bound // abs(d) * fmax >= limit:
        return None
    shift = ringcore.FIELD_BITS * v
    bias = ringcore._bias(f.rank)
    residue = {}
    get = residue.get
    for k, c in f._packed.items():
        r = k - (((k + bias) >> shift & ringcore._MASK) - limit) // d * key
        residue[r] = get(r, 0) + c
    return residue


def test_group_residues_match_the_per_factor_reference():
    # every factor of every model at n <= 3, the long roots 2e_i (d = 2)
    # included, on seeded values and on values whose bound sits around the
    # reach check's edge
    seen = {"d=2": 0, "pair": 0, "None": 0, "edge": 0}
    for n in (1, 2, 3):
        rng = trial_rng(52, n)
        for f in _seeded_tuples(rng, n):
            model = type(f).model
            ring = model.ring
            polys = list({id(p): p for p in f.values.values()}.values())[:8]
            for e in range(THIRD - 2, THIRD + 3):
                polys.append(polys[-1] + ring.monomial(n, (e,) + (0,) * (n - 1)))
                if ring is LaurentPoly:
                    polys.append(polys[-1] - ring.monomial(n, (0,) * (n - 1) + (-e,), 3))
            for _, divisor, _ in gkm._edges(model, n):
                steps = divisor._steps
                assert len({v for _, v, _, _, _ in steps}) == 1  # one leading variable
                for p in polys:
                    got = ringcore._residues(p, steps, ringcore._leading_exponents(p, steps[0][1]))
                    want = tuple(_residue_by_factor(p, step) for step in steps)
                    if None in want:
                        assert got is None
                        seen["None"] += 1
                        continue
                    assert got == want
                    seen["d=2"] += steps[0][2] == 2
                    seen["pair"] += len(steps) == 2
                    seen["edge"] += p._bound >= THIRD - 2
    assert all(seen.values()), seen


def test_x_checks_match_the_division_on_seeded_rank_four_tuples():
    # j_expand of quaternionic combinations, the same plus m * (a random
    # X-tuple) with m of degree 9, and +1 at three fixed points of each:
    # equal violations in the same order, with byte-equal pickled witnesses
    n = 4
    for seed in (53, 54):
        rng = trial_rng(seed, 0)
        x = j_expand(_qs_combination(rng, n))
        m = LaurentPoly.monomial(n, (0, -9, 1, 0) if seed % 2 else (9, 0, 0, -2))
        tuples = [x, x + random_x_tuple(rng, n) * m]
        tuples += [_mutated(rng, f, vertices=3) for f in tuples]
        for f in tuples:
            got = _outcome(gkm_check_x, f)
            assert got == _outcome(partial(_check_by_division, gkm._X), f)
            witnesses = [v.remainder for v in gkm_check_x(f)]
            reference = [v.remainder for v in _check_by_division(gkm._X, f)]
            assert pickle.dumps(witnesses) == pickle.dumps(reference)
        assert _outcome(gkm_check_x, tuples[1]) == [] and _outcome(gkm_check_x, tuples[3])


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
                tuples.append(f * span)
            g = random_g_tuple(rng, n)
            tuples.append(g + g * XPoly.monomial(n, (0,) * (n - 1) + (e,)))
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
        raise AssertionError("a tuple was long-divided")

    n = 3
    rng = trial_rng(46, 0)
    e = 10_000
    laurent = LaurentPoly.monomial(n, (e, -e, 0))
    valid = [
        random_t_tuple(rng, n) + random_t_tuple(rng, n) * laurent,
        random_x_tuple(rng, n) + random_x_tuple(rng, n) * laurent,
        random_g_tuple(rng, n) + random_g_tuple(rng, n) * XPoly.monomial(n, (0, e, 0)),
    ]
    mutated = [_mutated(rng, f) for f in valid]
    expected = [_outcome(partial(_check_by_division, type(f).model), f) for f in mutated]
    assert all(expected)

    monkeypatch.setattr(ringcore, "_divide_one_factor", refuse)
    for f in valid:
        assert CHECKS[type(f).model](f) == []
    # a failing edge gets the division's witness from the residues its
    # verdict formed, without a division either
    for f, want in zip(mutated, expected):
        assert _outcome(CHECKS[type(f).model], f) == want


def test_an_x_pair_whose_first_factor_divides_is_long_divided(monkeypatch):
    # (x_mu x_nu^{-1} - 1) m added at one fixed point: across its (mu, nu)
    # edge the first factor divides the difference and the second does not,
    # so the witness is a quotient's remainder, which only the division forms
    n, mu, nu = 3, 1, 3
    f = random_x_tuple(trial_rng(47, 0), n)
    first = LaurentPoly.monomial(n, (1, 0, -1)) - 1
    m = LaurentPoly(n, {(2, -1, 0): 3, (0, 1, 1): -1})
    at = all_perms(n)[2]
    bumped = GKMTupleX(n, {tau: p + first * m if tau == at else p for tau, p in f.values.items()})
    divided = []

    def counted(diff, divisor):
        divided.append(divisor.factors)
        return divide_exact(diff, divisor)

    monkeypatch.setattr(gkm, "divide_exact", counted)
    got = gkm_check_x(bumped)
    assert divided == [BinomialDivisor.pair(n, mu, nu).factors]
    monkeypatch.undo()
    reference = _check_by_division(gkm._X, bumped)
    assert (mu, nu) in [v.edge for v in got] and len(got) > 1
    assert pickle.dumps(got) == pickle.dumps(reference)


def _unshared(f):
    # the same tuple with every value a separate object with its own terms
    return type(f)(f.rank, {k: copy.deepcopy(p) for k, p in f.values.items()})


def test_residue_verdicts_match_the_division_on_every_schubert_class():
    # equal values that are separate objects share one residue; +1 at one or
    # two seeded fixed points breaks some edges
    rng = trial_rng(47, 0)
    for n in (1, 2, 3):
        for cls in schubert_table(n).values():
            f = _unshared(cls)
            _assert_same_verdicts(f)
            for vertices in (1, 2):
                _assert_same_verdicts(_unshared(_mutated(rng, cls, vertices)))


def test_residue_verdicts_match_the_division_on_repeated_values():
    rng = trial_rng(48, 0)
    for n in (2, 3):
        x = random_x_tuple(rng, n)
        f = pullback_pi(x)
        # each value a product of its own: 2^n equal values per sign-change orbit
        _assert_same_verdicts(f * LaurentPoly.monomial(n, (2,) + (-1,) * (n - 1)))
        _assert_same_verdicts(x * LaurentPoly.monomial(n, (1,) * n))
        # +1 on the whole orbit over one permutation: every edge leaving it
        # fails with the same pair of values, and each edge is reported
        tau = rng.choice(all_perms(n))
        bumped = GKMTupleT(n, {w: p + 1 if tuple(map(abs, w.window())) == tau else p
                               for w, p in f.values.items()})
        _assert_same_verdicts(bumped)
        found = gkm_check_t(bumped)

        def content(window):
            return frozenset(bumped.values[SignedPerm.from_window(window)]._packed.items())

        assert len(found) > len({(content(v.index), content(v.partner), v.edge) for v in found})


def test_residue_verdicts_read_the_largest_bound_among_equal_values():
    # (p + m) - m has the terms of p and the bound of m.  At the last fixed
    # point of a pullback it shares its terms with values of a smaller bound
    # before it; past a third of the limit the division decides its edges,
    # and near the limit it raises OverflowError on the first of them
    outcomes = []
    for n in (2, 3):
        for e in (THIRD + 1, EXPONENT_LIMIT - 2):
            rng = trial_rng(50, e)
            for f in (pullback_pi(random_x_tuple(rng, n)), random_x_tuple(rng, n)):
                m = LaurentPoly.monomial(n, (e,) + (0,) * (n - 1))
                last = type(f).model.vertices(n)[-1]
                inflated = type(f)(n, {**f.values, last: (f.values[last] + m) - m})
                assert inflated.values[last] == f.values[last]
                _assert_same_verdicts(inflated)
                outcomes.append(_outcome(CHECKS[type(f).model], inflated))
    assert [] in outcomes
    assert any(isinstance(o, tuple) for o in outcomes)


def _distinct_residue_count(model, f):
    # the (content, factor) pairs at the ends of the edges whose values
    # differ, the unordered pairs of contents those edges join per factor,
    # what reducing both ends of each such edge per factor costs, and the
    # (content, leading variable) pairs at those ends
    content = {k: frozenset(p._packed.items()) for k, p in f.values.items()}
    ends = set()
    joined = set()
    per_edge = 0
    leading = set()
    for _, divisor, pairs in gkm._edges(model, f.rank):
        for u, v, _, _ in pairs:
            if content[u] != content[v]:
                for step in divisor._steps:
                    ends.update({(content[u], step), (content[v], step)})
                    joined.add((frozenset({content[u], content[v]}), step))
                    leading.update({(content[u], step[1]), (content[v], step[1])})
                per_edge += 2 * len(divisor._steps)
    return len(ends), len(joined), per_edge, len(leading)


def test_each_distinct_value_is_reduced_once_per_edge_factor(monkeypatch):
    # every class of the rank-3 table and one pullback, all valid, so every
    # edge whose values differ is decided by one residue per factor at each
    # end, and each pair of distinct values by one comparison per factor;
    # the leading exponents of each distinct value are read once per
    # variable, for all the roots that variable leads
    n = 3
    tuples = list(schubert_table(n).values())
    tuples.append(pullback_pi(random_x_tuple(trial_rng(49, 0), n)))
    ends, joined, per_edge, leading = (
        sum(c) for c in zip(*(_distinct_residue_count(gkm._T, f) for f in tuples))
    )
    residues = []
    comparisons = []
    reads = []

    def counted(calls, fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(ringcore, "_residues", counted(residues, ringcore._residues))
    monkeypatch.setattr(ringcore, "_same_residue", counted(comparisons, ringcore._same_residue))
    monkeypatch.setattr(ringcore, "_leading_exponents", counted(reads, ringcore._leading_exponents))
    assert all(gkm_check_t(f) == [] for f in tuples)
    assert (len(residues), len(comparisons), len(reads)) == (ends, joined, leading)
    # two residues per edge factor, one at each end, would take 3.8 times as
    # many residues, over 4 067 edges instead of 1 317 comparisons; a T root
    # has one factor, so a read per residue would take 2 125 reads, not 794
    assert (ends, joined, per_edge, leading) == (2_125, 1_317, 8_134, 794)


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


def _braid_order(i, j, n):
    # type C: the pair (n-1, n) joins a short and the long simple root
    if abs(i - j) > 1:
        return 2
    return 4 if {i, j} == {n - 1, n} else 3


def test_demazure_braid_relations():
    for n in (2, 3):
        for t in range(20):
            f = random_t_tuple(trial_rng(10, t), n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    sides = []
                    for first, second in ((i, j), (j, i)):
                        g = f
                        for step in range(_braid_order(i, j, n)):
                            g = demazure(second if step % 2 else first, g)
                        sides.append(g)
                    assert sides[0] == sides[1], (n, t, i, j)


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
    with pytest.raises(NotDivisible) as not_divisible:
        xpoly_divide_exact(XPoly.X(n, 1) + 1, 1, 2)
    for caught, fields in ((inexact, ("w", "i", "numerator")),
                           (not_divisible, ("factor", "remainder")),
                           (outside, ("witness_index", "residual")),
                           (moved, ("group_element", "index"))):
        exc = pickle.loads(pickle.dumps(caught.value))
        assert type(exc) is caught.type and str(exc) == str(caught.value)
        for name in fields:
            assert getattr(exc, name) == getattr(caught.value, name)
    # a --jobs worker's failed division reaches verify pickled: same witness
    for caught in (inexact, not_divisible):
        assert pickle.loads(pickle.dumps(caught.value)).to_json() == caught.value.to_json()


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


def _demazure_by_point(i, f):
    """The Demazure operator with one numerator and one exact division at
    every fixed point, in ``enumerate_weyl`` order: the second route the
    paired operator must reproduce.  Returns the tuple and the number of
    divisions."""
    n = f.rank
    alpha, s = simple_root(i, n), simple_reflection(i, n)
    out, divisions = {}, 0
    for w in enumerate_weyl(n):
        beta = w.act(alpha)
        numerator = f.values[w] - LaurentPoly.monomial(n, beta) * f.values[w * s]
        out[w] = LaurentPoly.zero(n)
        if numerator:
            divisions += 1
            try:
                out[w] = -divide_exact(numerator, BinomialDivisor([beta]))
            except NotDivisible:
                raise InexactDivision(w, i, numerator) from None
    return GKMTupleT(n, out), divisions


def _demazure_outcome(demazure_fn, i, f):
    try:
        return demazure_fn(i, f)
    except InexactDivision as exc:
        return ("InexactDivision", exc.w, exc.i, exc.numerator)


def _pair_bounds(i, f):
    """Per fixed point in ``enumerate_weyl`` order, the bound of f at the
    first element of its pair {w, w s_i}, the one with w(alpha_i) > 0: the
    value both ends of a pair share in ``demazure``, which is the per-point
    route's value at that end."""
    n = f.rank
    alpha, s = simple_root(i, n), simple_reflection(i, n)
    return [f.values[w if is_positive_root(w.act(alpha)) else w * s]._bound
            for w in enumerate_weyl(n)]


def _distinct_pairs(i, f):
    """The number of distinct (terms of f_w, terms of f_{w s_i}, both
    bounds, w(alpha_i)) over the pairs {w, w s_i}, w(alpha_i) > 0, whose
    numerator f_w - e^{w(alpha_i)} f_{w s_i} is nonzero."""
    n = f.rank
    alpha, s = simple_root(i, n), simple_reflection(i, n)
    keys = set()
    for w in enumerate_weyl(n):
        beta = w.act(alpha)
        fw, fws = f.values[w], f.values[w * s]
        if is_positive_root(beta) and fw - LaurentPoly.monomial(n, beta) * fws:
            keys.add((frozenset(fw.terms.items()), frozenset(fws.terms.items()),
                      fw._bound, fws._bound, beta))
    return len(keys)


def test_demazure_matches_the_per_point_route_with_one_division_per_distinct_pair(monkeypatch):
    # every class of rank <= 3 and every simple index: equal values, each
    # pair's bound, and one division per distinct pair of values and root
    # with a nonzero numerator, fewer than one per pair {w, w s_i}
    calls = []

    def counted(numerator, divisor):
        calls.append(divisor)
        return divide_exact(numerator, divisor)

    monkeypatch.setattr(gkm, "divide_exact", counted)
    saved = 0
    for n in (1, 2, 3):
        for cls in schubert_table(n).values():
            for i in range(1, n + 1):
                want, divisions = _demazure_by_point(i, cls)
                calls.clear()
                got = demazure(i, cls)
                assert got == want
                assert list(got.values) == list(enumerate_weyl(n))
                assert [p._bound for p in got.values.values()] == _pair_bounds(i, want)
                assert len(calls) == _distinct_pairs(i, cls)
                saved += divisions // 2 - len(calls)
    assert saved


def test_demazure_keeps_each_pairs_bound_on_values_with_equal_terms():
    # (p + m) - m has the terms of p and a larger bound: a pair holding it
    # must not share the quotient, and so the bound, of a pair holding p
    n = 3
    rng = trial_rng(23, n)
    weyl = enumerate_weyl(n)
    inflated = 0
    for cls in schubert_table(n).values():
        for i in range(1, n + 1):
            for u in rng.sample(weyl, 2):
                p = cls.values[u]
                m = LaurentPoly.monomial(n, (p._bound + 1,) + (0,) * (n - 1))
                values = dict(cls.values)
                values[u] = (p + m) - m
                assert values[u] == p and values[u]._bound > p._bound
                f = GKMTupleT(n, values)
                want, _ = _demazure_by_point(i, f)
                got = demazure(i, f)
                assert got == want
                assert [q._bound for q in got.values.values()] == _pair_bounds(i, want)
                inflated += any(q._bound > r._bound for q, r in
                                zip(got.values.values(), demazure(i, cls).values.values()))
    assert inflated


def test_demazure_reads_its_input_by_fixed_point_not_by_dict_order():
    # the values keyed by equal copies of the fixed points, in shuffled
    # order: the same values and bounds, keyed in enumerate_weyl order
    n = 3
    rng = trial_rng(24, n)
    for cls in schubert_table(n).values():
        items = [(SignedPerm.from_window(w.window()), p) for w, p in cls.values.items()]
        rng.shuffle(items)
        shuffled = GKMTupleT(n, dict(items))
        for i in range(1, n + 1):
            got, want = demazure(i, shuffled), demazure(i, cls)
            assert list(got.values) == list(enumerate_weyl(n))
            assert got == want
            assert [p._bound for p in got.values.values()] == \
                [p._bound for p in want.values.values()]


def test_demazure_witness_matches_the_per_point_route():
    # +1 at one or two fixed points of a class: the same InexactDivision
    # (w, i, numerator) as the per-point route, or the same tuple
    raised = 0
    for n in (2, 3):
        rng = trial_rng(15, n)
        W = enumerate_weyl(n)
        for cls in schubert_table(n).values():
            hit = rng.sample(W, rng.choice((1, 2)))
            bad = GKMTupleT(n, {w: p + 1 if w in hit else p for w, p in cls.values.items()})
            for i in range(1, n + 1):
                want = _demazure_outcome(lambda i, f: _demazure_by_point(i, f)[0], i, bad)
                assert _demazure_outcome(demazure, i, bad) == want
                raised += type(want) is tuple
    assert raised


# ---------------------------------------------------------------------------
# the Schubert table
# ---------------------------------------------------------------------------

def test_schubert_base_and_top():
    for n in (1, 2):
        table = schubert_table(n)
        assert table[SignedPerm.identity(n)] == point_class(n)
        w0 = max_length_rep(perm_identity(n))
        assert table[w0] == GKMTupleT.constant(n, 1)


def test_schubert_all_classes_valid_and_triangular_rank_two():
    n = 2
    table = schubert_table(n)
    W = enumerate_weyl(n)
    assert len(table) == 8
    for w in W:
        cls = table[w]
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
            assert schubert_class_from_word(n, word) == table[w]


def test_schubert_word_independence_sampled_rank_three():
    n = 3
    table = schubert_table(n)
    w0 = max_length_rep(perm_identity(n))
    words = all_reduced_words(w0)
    step = max(1, len(words) // 5)
    for word in words[::step]:
        assert schubert_class_from_word(n, word) == table[w0]


def test_schubert_class_matches_the_table():
    table = schubert_table(3)
    for w in enumerate_weyl(3):
        assert schubert_class(w) == table[w]
    assert schubert_class(max_length_rep(perm_identity(4))) == GKMTupleT.constant(4, 1)


def test_schubert_class_and_the_table_follow_one_chain():
    # both fold the Demazure steps along the smallest right descents, so
    # their values agree term for term and in the bound the residue reach
    # checks read, not only as polynomials; the table is keyed in
    # enumerate_weyl order
    for n in (1, 2, 3):
        table = schubert_table(n)
        for w in enumerate_weyl(n):
            got = schubert_class(w).values
            want = table[w].values
            for u in enumerate_weyl(n):
                assert (got[u]._packed, got[u]._bound) == (want[u]._packed, want[u]._bound)
    assert all(tuple(schubert_table(n)) == enumerate_weyl(n) for n in (1, 2, 3))


# the sha256 that test_the_rank_4_table_keeps_its_pinned_content forms over
# the content of the rank-4 table
RANK_4_TABLE_SHA256 = "efac8902d828420b2c9e51a6fd28041ab8e9d383fd2916fb2e3ee9a5792726c1"


def test_the_rank_4_table_keeps_its_pinned_content():
    # every value of every class at the default rank cap: each distinct value
    # (terms and bound) is hashed once, as its JSON and its bound, numbered in
    # the order classes and then points first reach it in enumerate_weyl
    # order; then the number at each (class, point) is hashed.  The JSON is
    # rendered once per term set, which several bounds may share
    n = 4
    weyl = enumerate_weyl(n)
    classes = schubert_table(n)
    values = [classes[w].values[u] for w in weyl for u in weyl]
    digest = hashlib.sha256()
    rendered = {}
    numbers = {}
    at = []
    for key, p in zip(TermIndex(values).bound_keys(), values):
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(numbers)
            js = rendered.get(key[0])
            if js is None:
                js = rendered[key[0]] = json.dumps(p.to_json()).encode()
            digest.update(b"%s %d\n" % (js, p._bound))
        at.append(number)
    digest.update(json.dumps(at).encode())
    assert (len(values), len(rendered), len(numbers)) == (147_456, 5_016, 8_697)
    assert digest.hexdigest() == RANK_4_TABLE_SHA256


def test_schubert_diagonals_have_the_closed_form():
    # the class of w at w is prod (1 - e^alpha) over the positive roots alpha
    # with w^{-1}(alpha) > 0, which number n^2 - length(w)
    ws = [w for n in (1, 2, 3) for w in enumerate_weyl(n)]
    ws += trial_rng(14, 0).sample(list(enumerate_weyl(4)), k=4)
    for w in ws:
        n = w.rank
        cls = schubert_table(n)[w] if n <= 3 else schubert_class(w)
        assert len(gkm._diagonal_roots(w)) == n * n - length(w)
        assert cls.values[w] == gkm._diagonal(w)
    for n in (1, 2, 3):
        assert diagonal_check(schubert_table(n)) == []
    # and the check finds a class off its closed form
    table = schubert_table(2)
    w = enumerate_weyl(2)[3]
    bumped = GKMTupleT(2, {**table[w].values, w: table[w].values[w] + 1})
    broken = {**table, w: bumped}
    assert diagonal_check(broken) == [w]


def test_descent_invariance_exhaustive_rank_two():
    assert descent_invariance_check(schubert_table(2)) == []


def _descent_invariance_by_action(table):
    # the reference: act by s_i on the whole class at each right descent
    n = next(iter(table)).rank
    bad = []
    for w in enumerate_weyl(n):
        cls = table[w]
        for i in range(1, n + 1):
            s = simple_reflection(i, n)
            if length(w * s) < length(w) and weyl_act_tuple(s, cls) != cls:
                bad.append((w, i))
    return bad


def test_descent_invariance_matches_the_index_action():
    # every class at n <= 3, with shared and with separate value objects,
    # then every class with +1 at one or two seeded fixed points
    rng = trial_rng(51, 0)
    for n in (1, 2, 3):
        table = schubert_table(n)
        variants = [
            table,
            {w: _unshared(c) for w, c in table.items()},
            {w: _mutated(rng, c, vertices=1) for w, c in table.items()},
            {w: _mutated(rng, c, vertices=2) for w, c in table.items()},
        ]
        found = []
        for classes in variants:
            found.append(descent_invariance_check(classes))
            assert found[-1] == _descent_invariance_by_action(classes)
        assert found[0] == found[1] == [] and found[2]  # +1 at one point breaks some


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
    # as for descend_pi, the witness is a sign change and the index it moves
    for n in (2, 3):
        for i in range(1, n + 1):
            for tau in all_perms(n):
                values = dict(GKMTupleX.constant(n, 1).values)
                values[tau] = LaurentPoly.x(n, i)
                f = GKMTupleX(n, values)
                with pytest.raises(TupleNotInvariant) as exc:
                    j_descend(f)
                v, index = exc.value.group_element, exc.value.index
                assert v.is_sign_change()
                assert index == tau
                assert coeff_act_tuple(v, f).values[index] != f.values[index]


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


def test_presentation_reports_every_relation_a_broken_class_breaks(monkeypatch):
    # class 1 plus one at tau breaks sigma_1..sigma_n at tau in both models,
    # and nowhere else
    n, tau = 3, (2, 1, 3)
    plain = canonical_class

    def broken(nu, rank):
        cls = plain(nu, rank)
        if nu == 1:
            cls.values[tau] = cls.values[tau] + 1
        return cls

    monkeypatch.setattr(gkm, "canonical_class", broken)
    failures = presentation_check(n)
    assert len(failures) == 2 * n
    assert set(failures) == {(model, k, tau) for model in "GX" for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# expansion in the Schubert basis
# ---------------------------------------------------------------------------

def test_expand_recovers_single_classes():
    n = 2
    table = schubert_table(n)
    basis = list(enumerate_weyl(n))
    for w in basis:
        coeffs = expand_in_schubert(table[w], basis)
        for v, a in coeffs.items():
            assert a == (LaurentPoly.one(n) if v == w else LaurentPoly.zero(n))


def test_expand_recovers_random_combinations():
    for n in (2, 3):
        for t in range(5):
            combo, coeffs = random_maxrep_combination(trial_rng(8, t), n)
            assert expand_in_schubert(combo, list(coeffs)) == coeffs


def test_expand_over_a_repeated_basis_keeps_each_coefficient():
    combo, coeffs = random_maxrep_combination(trial_rng(1, 0), 2)
    assert all(coeffs.values())
    assert expand_in_schubert(combo, list(coeffs) * 2) == coeffs


def test_expand_rejects_tuples_outside_the_span():
    # the invariant vertex-supported tuple is valid but lies outside the span
    # of the classes at maximal-length representatives
    n = 2
    p = pullback_pi(vertex_class_x(n, (2, 1)))
    assert gkm_check_t(p) == []
    basis = [max_length_rep(tau) for tau in all_perms(n)]
    with pytest.raises(NotInTupleSpan):
        expand_in_schubert(p, basis)


def test_a_failing_residual_division_raises_not_in_tuple_span():
    # rank one, basis {e, s}: the coefficient at s is the value there, 0, and
    # the residual 1 at e must then be divided by e^{2x1} - 1; the division's
    # own NotDivisible never escapes, and its remainder is the witness
    n = 1
    e, s = enumerate_weyl(n)
    f = GKMTupleT(n, {e: LaurentPoly.one(n), s: LaurentPoly.zero(n)})
    with pytest.raises(NotDivisible) as division:
        divide_exact(LaurentPoly.one(n), BinomialDivisor([(2,)]))
    with pytest.raises(NotInTupleSpan) as outside:
        expand_in_schubert(f, [e, s])
    assert outside.value.witness_index == e.window()
    assert outside.value.residual == division.value.remainder


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


def test_tuples_and_records_pickle_and_compare_as_values():
    n = 2
    fx, fg = GKMTupleX.constant(n, 1), GKMTupleG.constant(n, 1)
    bad = GKMTupleX(n, {(1, 2): LaurentPoly.x(n, 1), (2, 1): LaurentPoly.x(n, 2)})
    (violation,) = gkm_check_x(bad)
    table = schubert_table(n)
    for value in (random_t_tuple(trial_rng(10, 0), n), fx, fg, violation, table):
        back = pickle.loads(pickle.dumps(value))
        assert back is not value and type(back) is type(value) and back == value
    # a tuple equals only a tuple of its own model, rank and values, and is
    # not hashable, as its values are a dict
    assert fx.values.keys() == fg.values.keys() and fx != fg and fg != fx
    assert fx != GKMTupleX.constant(n, 2) and fx != GKMTupleX.constant(3, 1)
    with pytest.raises(TypeError):
        hash(fx)
    assert repr(fx) == f"GKMTupleX(rank=2, values={fx.values!r})"
    # the records unpack and compare as the tuples of their fields
    model, index, partner, edge, remainder = violation
    assert (model, index, partner, edge) == ("X", (1, 2), (2, 1), (1, 2))
    assert violation == EdgeViolation(*violation)


def test_tuple_codec_reads_only_its_own_model_tag():
    # G and X values share one term codec, so without the tag a G-class
    # would load as an X-tuple that is not X-valid
    q = next(iter(quaternionic_schubert_classes(3).values()))
    with pytest.raises(ValueError, match="tagged model 'G', expected 'X'"):
        GKMTupleX.from_json(q.to_json())
    data = GKMTupleT.constant(2, 1).to_json()
    for tag in ("G", "X", "t", None):
        with pytest.raises(ValueError, match="tagged model"):
            GKMTupleT.from_json({**data, "model": tag})
    del data["model"]
    with pytest.raises(ValueError, match="tagged model None"):
        GKMTupleT.from_json(data)


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
    cls = table[w]
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
        assert all(cls.values[identity] for cls in table.values())
        moves = 0
        for tau in all_perms(n):
            cls = table[max_length_rep(tau)]
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
