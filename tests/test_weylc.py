"""Signed permutations: reflections, length, Bruhat order, coset structure."""

import json
import math
import pickle
from collections import deque
from functools import cache
from itertools import permutations, product

import pytest

from qflagk.weylc import (
    SignedPerm,
    _bruhat_lower_set,
    all_perms,
    bruhat_leq,
    bruhat_leq_by_rank_matrix,
    coset_map,
    descents,
    enumerate_sign_changes,
    enumerate_weyl,
    is_positive_root,
    is_root,
    length,
    max_length_rep,
    perm_compose,
    perm_embed,
    perm_identity,
    perm_inversions,
    positive_roots,
    reduced_word,
    reflection,
    simple_pairs,
    simple_reflection,
    simple_root,
)


def _from_pair(perm, signs):
    # the element sending L^v to signs[v] * L^{perm[v]}, written as its window
    return SignedPerm(tuple(s * p for s, p in zip(signs, perm)))


def bfs_lengths(n):
    """Independent word-length oracle: distances in the Cayley graph."""
    gens = [simple_reflection(i, n) for i in range(1, n + 1)]
    start = SignedPerm.identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in gens:
            v = w * s
            if v not in dist:
                dist[v] = dist[w] + 1
                queue.append(v)
    return dist


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_simple_reflections_at_rank_two():
    s1 = simple_reflection(1, 2)
    assert s1 == _from_pair((2, 1), (1, 1))
    s2 = simple_reflection(2, 2)
    assert s2 == _from_pair((1, 2), (1, -1))
    assert s1 * s1 == SignedPerm.identity(2)
    with pytest.raises(ValueError):
        simple_reflection(3, 2)


def _ref_simple_reflection(i, n):
    # the transposition (i, i+1) for i < n, the sign flip at n for i = n
    perm = list(range(1, n + 1))
    signs = [1] * n
    if i < n:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    else:
        signs[n - 1] = -1
    return _from_pair(perm, signs)


def test_simple_reflections_match_the_explicit_formula():
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert simple_reflection(i, n) == _ref_simple_reflection(i, n)
        with pytest.raises(ValueError):
            simple_reflection(0, n)


def _ref_is_root(alpha):
    # one coordinate +-2, or two coordinates +-1, and zeros elsewhere
    nonzero = [c for c in alpha if c]
    if len(nonzero) == 1:
        return nonzero[0] in (2, -2)
    return len(nonzero) == 2 and all(c in (1, -1) for c in nonzero)


def test_root_tests_match_the_coordinate_rule():
    for n in range(1, 5):
        for alpha in product(range(-3, 4), repeat=n):
            assert is_root(alpha) == _ref_is_root(alpha), alpha
            # a root is positive exactly when its first nonzero coordinate is
            positive = _ref_is_root(alpha) and next(c for c in alpha if c) > 0
            assert is_positive_root(alpha) == positive, alpha
            assert is_root(list(alpha)) == _ref_is_root(alpha)


def test_reflection_case_table():
    # L1 - L2: a plain transposition
    r = reflection((1, -1))
    assert r == _from_pair((2, 1), (1, 1))
    # L1 + L2: swap with both signs flipped
    r = reflection((1, 1))
    assert r == _from_pair((2, 1), (-1, -1))
    assert r.act((1, 0)) == (0, -1)  # L1 -> -L2
    # 2L1: sign flip at position 1
    r = reflection((2, 0))
    assert r == _from_pair((1, 2), (-1, 1))
    with pytest.raises(ValueError):
        reflection((1, 2))


def test_reflection_involution_and_root_negation():
    for n in (2, 3):
        for alpha in positive_roots(n):
            r = reflection(alpha)
            assert r * r == SignedPerm.identity(n)
            assert r.act(alpha) == tuple(-a for a in alpha)


def test_negative_root_gives_same_reflection():
    assert reflection((-1, 1)) == reflection((1, -1))
    assert reflection((0, -2)) == reflection((0, 2))


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def test_act_examples():
    n = 2
    s2 = simple_reflection(2, n)
    assert s2.act((0, 1)) == (0, -1)
    r = reflection((1, 1))
    assert r.act((1, 0)) == (0, -1)


def test_compose_invert_act_consistency():
    n = 2
    W = enumerate_weyl(n)
    lam = (2, -3)
    for w in W:
        assert w * w.inverse() == SignedPerm.identity(n)
        assert w.inverse() * w == SignedPerm.identity(n)
        for v in W:
            assert (w * v).act(lam) == w.act(v.act(lam))


def test_rank_mismatch():
    with pytest.raises(ValueError):
        simple_reflection(1, 2) * simple_reflection(1, 3)
    with pytest.raises(ValueError):
        simple_reflection(1, 2).act((1, 2, 3))


# ---------------------------------------------------------------------------
# length and reduced words
# ---------------------------------------------------------------------------

def test_length_identity_and_longest():
    assert length(SignedPerm.identity(2)) == 0
    assert max(length(w) for w in enumerate_weyl(2)) == 4
    w0 = max_length_rep(perm_identity(2))
    assert length(w0) == 4


def test_length_of_embedded_transposition():
    assert length(perm_embed((2, 1))) == 1
    assert length(perm_embed((2, 1, 3))) == 1


def test_length_matches_cayley_distance():
    for n in (1, 2, 3):
        dist = bfs_lengths(n)
        assert len(dist) == 2**n * math.factorial(n)
        for w, d in dist.items():
            assert length(w) == d


def test_length_changes_by_one_under_simple_reflections():
    for n in (2, 3):
        for w in enumerate_weyl(n):
            for i in range(1, n + 1):
                assert abs(length(w * simple_reflection(i, n)) - length(w)) == 1


def _product_route_weyl(n):
    # every element built as a SignedPerm, sorted by (root-count length, window)
    elems = [
        _from_pair(perm, signs)
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]
    return tuple(sorted(elems, key=lambda w: (_root_count_length(w), w.window())))


def test_length_and_descents_match_the_root_count():
    for n in range(1, 5):
        for w in _product_route_weyl(n):
            assert length(w) == _root_count_length(w), w
            expected = [
                i for i in range(1, n + 1)
                if _root_count_length(w * simple_reflection(i, n)) < _root_count_length(w)
            ]
            assert descents(w) == expected, w


def test_enumerate_weyl_matches_the_product_route():
    for n in range(1, 6):
        weyl = enumerate_weyl(n)
        assert weyl == _product_route_weyl(n)
        assert all(type(w) is SignedPerm for w in weyl)


def test_simple_pairs_match_the_product_route():
    # each coset {w, w s_i} once, w the shorter, by the group product
    for n in range(1, 5):
        weyl = enumerate_weyl(n)
        position = {w: k for k, w in enumerate(weyl)}
        for i in range(1, n + 1):
            s = simple_reflection(i, n)
            expected = tuple((k, position[w * s]) for k, w in enumerate(weyl)
                             if length(w * s) > length(w))
            assert simple_pairs(n, i) == expected
            assert len(expected) == len(weyl) // 2
    for i in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            simple_pairs(2, i)


def test_reduced_word_reconstructs():
    for n in (1, 2, 3, 4):
        for w in enumerate_weyl(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            prod = SignedPerm.identity(n)
            for i in word:
                prod = prod * simple_reflection(i, n)
            assert prod == w
    assert reduced_word(SignedPerm.identity(2)) == []
    assert reduced_word(simple_reflection(1, 2)) == [1]


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def test_bruhat_basics():
    n = 2
    W = enumerate_weyl(n)
    e = SignedPerm.identity(n)
    for w in W:
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w)
    s1, s2 = simple_reflection(1, n), simple_reflection(2, n)
    assert not bruhat_leq(s1, s2)
    assert not bruhat_leq(s2, s1)


def test_bruhat_refines_length_and_antisymmetry():
    for n in (2, 3):
        W = enumerate_weyl(n)
        for v in W:
            for w in W:
                if bruhat_leq(v, w):
                    assert length(v) <= length(w)
                    if v != w:
                        assert not bruhat_leq(w, v)


def test_bruhat_on_plain_perms_matches_rank_matrix_oracle():
    for n in (2, 3):
        for a in all_perms(n):
            for b in all_perms(n):
                assert bruhat_leq(a, b) == bruhat_leq_by_rank_matrix(a, b)


@cache
def _root_count_length(w):
    # the definition: positive roots that w sends to negative roots
    return sum(1 for alpha in positive_roots(w.rank) if not is_positive_root(w.act(alpha)))


def _subword_lower_set(w):
    # [e, w] as the products of the subwords of one reduced word of w that
    # lengthen at every step
    n = w.rank
    cur = {SignedPerm.identity(n)}
    for i in reduced_word(w):
        s = simple_reflection(i, n)
        cur |= {u * s for u in cur if _root_count_length(u * s) > _root_count_length(u)}
    return cur


def test_lower_sets_match_the_subword_route():
    for n in range(1, 5):
        for w in enumerate_weyl(n):
            expected = frozenset(u.window() for u in _subword_lower_set(w))
            assert _bruhat_lower_set(w.window()) == expected, w


def test_bruhat_mixed_kinds_rejected():
    with pytest.raises(TypeError):
        bruhat_leq((1, 2), simple_reflection(1, 2))


# ---------------------------------------------------------------------------
# enumeration, cosets, maximal representatives
# ---------------------------------------------------------------------------

def test_group_orders():
    assert len(enumerate_weyl(1)) == 2
    assert len(enumerate_sign_changes(1)) == 2
    assert len(enumerate_weyl(2)) == 8
    assert len(enumerate_sign_changes(2)) == 4
    assert len(enumerate_weyl(3)) == 48


def test_sign_change_subgroup_and_normality():
    for n in (2, 3):
        WG = enumerate_sign_changes(n)
        assert all(v.is_sign_change() for v in WG)
        for w in enumerate_weyl(n):
            for v in WG:
                assert (w * v * w.inverse()).is_sign_change()


def test_coset_map_homomorphism_kernel_surjectivity():
    n = 3
    W = enumerate_weyl(n)
    for w in W:
        for v in enumerate_sign_changes(n):
            assert coset_map(w * v) == coset_map(w)
    images = {coset_map(w) for w in W}
    assert images == set(all_perms(n))
    kernel = {w for w in W if coset_map(w) == perm_identity(n)}
    assert kernel == set(enumerate_sign_changes(n))


def test_coset_of_both_reflections_is_the_transposition():
    assert coset_map(reflection((1, -1))) == (2, 1)
    assert coset_map(reflection((1, 1))) == (2, 1)


def test_perm_compose_applies_the_right_factor_first():
    # (a o b)(i) = a(b(i))
    assert perm_compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert perm_compose((1, 3, 2), (2, 1, 3)) == (3, 1, 2)
    perms = all_perms(3)
    for a in perms:
        assert perm_compose(a, perm_identity(3)) == a == perm_compose(perm_identity(3), a)
        for b in perms:
            assert perm_compose(a, b) == tuple(a[b[i] - 1] for i in range(3))
            for c in perms:
                assert perm_compose(perm_compose(a, b), c) == perm_compose(a, perm_compose(b, c))


def test_max_length_rep_examples():
    w = max_length_rep((1,))
    assert w.window() == (-1,) and length(w) == 1
    w0 = max_length_rep((1, 2))
    assert length(w0) == 4 and w0.window() == (-1, -2)
    w = max_length_rep((2, 1))
    assert length(w) == 3
    # a signed window is no plain permutation to embed
    for embed in (perm_embed, max_length_rep):
        with pytest.raises(ValueError, match=r"^\(-1, 2\) is not a permutation of 1\.\.2$"):
            embed((-1, 2))


def test_max_length_rep_dominates_its_coset():
    # brute force over each coset: the closed form is its unique longest member
    for n in (1, 2, 3, 4):
        for tau in all_perms(n):
            w = max_length_rep(tau)
            assert coset_map(w) == tau
            assert length(w) == n * n - perm_inversions(tau)
            for v in enumerate_sign_changes(n):
                other = w * v
                if other != w:
                    assert length(other) < length(w)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_window_roundtrip():
    for w in enumerate_weyl(2):
        assert SignedPerm.from_window(w.window()) == w
        assert SignedPerm.from_window_str(w.window_str()) == w
    assert SignedPerm.from_window([-2, 1]) == _from_pair((2, 1), (-1, 1))
    with pytest.raises(ValueError):
        SignedPerm.from_window([0, 1])
    # the compact JSON key of a fixed point, a plain permutation embedded first
    assert SignedPerm((-2, 1)).window_str() == "[-2,1]"
    for tau in all_perms(3):
        assert perm_embed(tau).window_str() == json.dumps(list(tau), separators=(",", ":"))


@pytest.mark.parametrize("window, message", [
    ((1, 1), "(1, 1) is not a permutation of 1..2"),
    ((0, 1), "window entries must be nonzero integers: (0, 1)"),
    ((True, -2), "window entries must be nonzero integers: (True, -2)"),
    ((1.0, 2), "window entries must be nonzero integers: (1.0, 2)"),
    ((3, 1), "(3, 1) is not a permutation of 1..2"),
])
def test_constructor_rejects_bad_windows(window, message):
    for build in (SignedPerm, SignedPerm.from_window):
        with pytest.raises(ValueError) as exc:
            build(window)
        assert str(exc.value) == message


def test_signed_perms_are_immutable():
    w = reflection((1, 1))
    for name in ("_window", "_hash", "perm"):
        with pytest.raises(AttributeError):
            setattr(w, name, (1, 2))
    assert w.window() == (-2, -1)


def test_cached_hash_is_the_hash_of_the_fields():
    # the window is the one field and the hash its hash, stored: products,
    # copies and pickles of an element hash and compare as the
    # enumerate_weyl instance does
    n = 3
    weyl = enumerate_weyl(n)
    s = simple_reflection(2, n)
    assert SignedPerm.__slots__ == ("_window", "_hash")
    for w in weyl:
        ws = w * s
        (instance,) = [u for u in weyl if u == ws]
        assert ws is not instance and hash(ws) == hash(instance)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and hash(back) == hash(w) == hash(w.window())
        assert back.window() == w.window() and type(back.window()) is tuple
        assert repr(back) == repr(w)


def test_perm_inversions():
    assert perm_inversions((1, 2, 3)) == 0
    assert perm_inversions((3, 2, 1)) == 3
    assert perm_inversions((2, 3, 1)) == 2
