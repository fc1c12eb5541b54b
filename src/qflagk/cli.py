"""Batch verification suites and data commands.

Commands: ``verify`` (run a named suite and report), ``schubert`` (emit
Schubert classes), ``decompose`` (factor a quaternionic matrix),
``cell-index`` (read off the cell of a flag), ``check`` (membership of a
serialized tuple in one of the three models), ``basis`` (the maximal-length
coset representatives).

Exit codes: 0 all checks passed, 1 violations found (or singular input),
2 usage or parse errors (an output that cannot be written too: a bad
``--output``, or a closed or full standard output, ``--help`` included),
3 internal error: any exception a command lets out, or a ``decompose``
whose factors do not multiply back to its input.  No traceback: the last
line of standard error is a JSON witness, the exception's own ``to_json()``
(``gkm.InexactDivision``, ``ringcore.NotDivisible``) or else {"error":
"internal", "exception": its type name, "message": str(exc)}.  Messages go
to standard error through ``_warn``; a standard error that cannot be
written loses them, and the exit code stands.  Reports are deterministic
for a fixed configuration and seed, but for the wall time.

A ``verify`` suite is an exhaustive generator of rank n, a per-trial
generator, or both (``SUITES``).  Each yields one list per check it makes,
the check's violations or an empty list, and ``_tally`` counts them: a
report's ``checks`` are the lists yielded, ``passed`` the empty ones, and
a failed check may list several violations, one per witness.

Every suite, trial worker and command imports the layers it runs inside its
own body, on purpose, and names each library object it calls: each command
is a process of its own, and ``basis`` then loads only ``weylc`` and
``decompose`` only ``quatflag`` and ``weylc``, without compiling ``gkm``
and ``ringcore`` where no bytecode is cached.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import time
from functools import partial

DEFAULT_MAX_N = 4
# what reading a JSON input file can raise, each reported as exit 2
_BAD_INPUT = (OSError, ValueError, TypeError, KeyError, ZeroDivisionError,
              OverflowError, RecursionError)


class _UsageError(Exception):
    """Bad flags, environment or input: ``main`` prints the message, exits 2."""


def to_text(report):
    """A ``run_suite`` report as ``verify --format text`` prints it."""
    trials, violations = report["trials"], report["violations"]
    lines = [
        f"suite: {report['suite']}",
        f"n: {report['n']}  seed: {report['seed']}  trials: {trials if trials is not None else '-'}",
        f"checks: {report['checks']}  passed: {report['passed']}  violations: {len(violations)}",
    ]
    for v in violations[:20]:
        lines.append(f"  violation: {json.dumps(v, sort_keys=True)}")
    if len(violations) > 20:
        lines.append(f"  ... and {len(violations) - 20} more")
    lines.append(f"wall_time_s: {report['wall_time_s']:.3f}")
    lines.append("OK" if not violations else "FAILED")
    return "\n".join(lines)


def _warn(*lines):
    """Print ``lines`` on standard error.  A failed write is dropped, so the
    command's own exit code stands: there is nowhere left to report it."""
    with contextlib.suppress(OSError):
        print(*lines, sep="\n", file=sys.stderr, flush=True)


def _emit(cfg, payload, text=None):
    """Print ``payload`` as JSON, or under ``--format text`` what ``text()``
    returns; without ``text`` both formats print the JSON.  Only the chosen
    form is rendered.  A ``payload`` that is not a dict is JSON already
    rendered, as an iterable of chunks (``_table_chunks``).  A failed write,
    to ``--output`` or to standard output, is a usage error."""
    if not isinstance(payload, dict):
        chunks = payload
    elif cfg.fmt == "json" or text is None:
        chunks = [json.dumps(payload, indent=2, sort_keys=True)]
    else:
        chunks = [text()]
    to_file = cfg.output is not None  # "" is a path, and cannot be opened
    try:
        with (open(cfg.output, "w", encoding="utf-8") if to_file
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.writelines(chunks)
            fh.write("\n")
            fh.flush()
    except OSError as exc:
        if not to_file:
            # what is left in the buffer goes nowhere at the interpreter's last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "--output" if to_file else "standard output"
        raise _UsageError(f"cannot write {where}: {exc}") from None


def _object(members, depth):
    """A JSON object as ``json.dumps(..., indent=2)`` lays it out at nesting
    ``depth``, from its (key, value) members already rendered, in order."""
    indent = "\n" + "  " * depth
    return "{" + ",".join(f"{indent}  {key}: {text}" for key, text in members) + indent + "}"


def _class_texts(classes, depth):
    """``json.dumps(cls.to_json(), indent=2, sort_keys=True)`` at nesting
    ``depth`` for each Schubert class in ``classes``.  The JSON prints no
    bound, so the values are numbered by their terms (``ringcore.TermIndex``)
    and each number is rendered once: the rank-4 table holds 147 456 values
    but about 5 000 distinct term sets."""
    from . import ringcore, weylc

    points = sorted(classes[0].values, key=weylc.SignedPerm.window_str)
    labels = [json.dumps(w.window_str()) for w in points]
    values = [cls.values[w] for cls in classes for w in points]
    numbers = ringcore.TermIndex(values).numbers
    indent = "\n" + "  " * (depth + 2)
    rendered = {k: json.dumps(p.to_json(), indent=2).replace("\n", indent)
                for k, p in dict(zip(numbers, values)).items()}  # one value per number
    texts = map(rendered.__getitem__, numbers)  # class by class, as written
    for cls in classes:  # T-model tuples
        body = _object(zip(labels, texts), depth + 1)
        yield _object([('"model"', '"T"'), ('"rank"', str(cls.rank)), ('"values"', body)], depth)


def _table_chunks(table, n):
    """``json.dumps(payload, indent=2, sort_keys=True)`` for the payload
    {"classes", "convention", "rank"} of ``schubert --all``, one chunk per class."""
    from . import gkm, weylc

    points = sorted(table, key=weylc.SignedPerm.window_str)
    yield '{\n  "classes": {'
    for c, (w, cls) in enumerate(zip(points, _class_texts([table[w] for w in points], 2))):
        yield f'{"," if c else ""}\n    {json.dumps(w.window_str())}: {cls}'
    convention = json.dumps(gkm.CONVENTION, indent=2, sort_keys=True).replace("\n", "\n  ")
    yield f'\n  }},\n  "convention": {convention},\n  "rank": {n}\n}}'


# ---------------------------------------------------------------------------
# exhaustive suites
#
# A violation's detail is built only when its check fails: ``roots`` and
# ``schubert`` make about 150 000 checks at rank 4, nearly all passing.
# ---------------------------------------------------------------------------

def _tally(outcomes):
    """(checks, passed, violations) of the outcomes one generator yields: a
    failing check counts once, however many violations it lists."""
    checks = passed = 0
    violations = []
    for checks, found in enumerate(outcomes, 1):
        violations.extend(found)
        passed += not found
    return checks, passed, violations


def _suite_roots(n):
    from . import weylc

    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for alpha in weylc.positive_roots(n):
        s = weylc.reflection(alpha)
        yield [] if s * s == weylc.SignedPerm.identity(n) else [
            {"check": "reflection-involution", "root": list(alpha)}]
        yield [] if s.act(alpha) == tuple(-a for a in alpha) else [
            {"check": "reflection-negates-root", "root": list(alpha)}]
        # s(L^i) = L^i - 2 (L^i . alpha) / (alpha . alpha) alpha, times alpha . alpha
        norm = sum(a * a for a in alpha)
        yield [] if all(
            [norm * c for c in s.act(e)] == [norm * ej - 2 * ai * aj for ej, aj in zip(e, alpha)]
            for e, ai in zip(basis, alpha)
        ) else [{"check": "reflection-formula", "root": list(alpha), "got": list(s.window())}]

    W = weylc.enumerate_weyl(n)
    WG = weylc.enumerate_sign_changes(n)
    yield [] if len(W) == 2**n * math.factorial(n) else [{"check": "weyl-order", "got": len(W)}]
    yield [] if len(WG) == 2**n and all(v.is_sign_change() for v in WG) else [
        {"check": "sign-subgroup-order", "got": len(WG)}]
    for w in W:
        winv = w.inverse()
        for v in WG:
            yield [] if (w * v * winv).is_sign_change() else [
                {"check": "normality", "w": list(w.window()), "v": list(v.window())}]
    coset = {w: weylc.coset_map(w) for w in W}  # W is closed under products
    for w in W:
        for v in W:
            yield [] if coset[w * v] == weylc.perm_compose(coset[w], coset[v]) else [
                {"check": "coset-homomorphism", "w": list(w.window()), "v": list(v.window())}]
    for w in W:
        in_kernel = coset[w] == weylc.perm_identity(n)
        yield [] if in_kernel == w.is_sign_change() else [
            {"check": "coset-kernel", "w": list(w.window())}]


def _suite_schubert(n):
    from . import gkm, weylc

    table = gkm.schubert_table(n)
    W = weylc.enumerate_weyl(n)
    off_diagonal = set(gkm.diagonal_check(table))
    for w in W:
        cls = table[w]
        yield [{"check": "gkm-valid", "class": list(w.window()), **viol.to_json()}
               for viol in gkm.gkm_check_t(cls)]
        yield [{"check": "diagonal-closed-form", "class": list(w.window())}
               ] if w in off_diagonal else []
        for v in W:
            yield [] if not cls.values[v] or weylc.bruhat_leq(v, w) else [
                {"check": "triangularity", "class": list(w.window()), "at": list(v.window())}]
    # one check per (class, simple reflection) pair, a descent of the class
    # or not.  demazure gives w and w s_i one shared value, so s_i fixes every
    # class it builds and this check holds by construction at the smallest
    # right descent of each class, the last step of its chain in the table;
    # its own content is the class's other right descents (tests/test_gkm.py
    # checks the operator against a per-point route)
    unfixed = set(gkm.descent_invariance_check(table))
    for w in W:
        for i in range(1, n + 1):
            yield [{"check": "descent-fixes-class", "class": list(w.window()), "simple": i}
                   ] if (w, i) in unfixed else []


def _suite_presentation(n):
    from . import gkm, weylc

    failures = set(gkm.presentation_check(n))
    for model in ("G", "X"):
        for k in range(1, n + 1):
            for tau in weylc.all_perms(n):
                yield [{"check": "presentation-relation", "model": model, "k": k, "tau": list(tau)}
                       ] if (model, k, tau) in failures else []


def _suite_theorem1(n):
    # the descent half: the quaternionic Schubert classes lie in the G- and
    # X-models and descend from the T-model; the randomized halves run as trials
    from . import gkm

    for tau, q in gkm.quaternionic_schubert_classes(n).items():
        qx = gkm.j_expand(q)
        yield [] if not (gkm.gkm_check_g(q) or gkm.gkm_check_x(qx)) else [
            {"check": "quaternionic-valid", "class": list(tau)}]
        yield [] if gkm.descend_pi(gkm.pullback_pi(qx)) == qx else [
            {"check": "quaternionic-descends", "class": list(tau)}]


def _suite_cells(n):
    from . import quatflag, weylc

    perms = weylc.all_perms(n)
    yield [] if len(perms) == math.factorial(n) else [{"check": "cell-count", "got": len(perms)}]
    for tau in perms:
        yield [] if len(quatflag.free_positions(tau)) == weylc.perm_inversions(tau) else [
            {"check": "cell-dimension", "tau": list(tau)}]
    for a in perms:
        for b in perms:
            yield [] if weylc.bruhat_leq(a, b) == weylc.bruhat_leq_by_rank_matrix(a, b) else [
                {"check": "closure-vs-oracle", "a": list(a), "b": list(b)}]


# ---------------------------------------------------------------------------
# per-trial workers (top level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _trial_cells(n, rng, t, mutate):
    # a dense random matrix lands in the big cell, so draw the cell tau and
    # build g = u * p_tau * b with u random on the free positions of tau
    from . import quatflag, randgen, weylc

    cell = rng.choice(weylc.all_perms(n))
    rows = [list(r) for r in quatflag.QMatrix.identity(n).entries]
    for mu, nu in quatflag.free_positions(cell):
        rows[mu - 1][nu - 1] = randgen.random_quaternion(rng)
    g = (quatflag.QMatrix.from_rows(rows) * quatflag.perm_matrix(cell)
         * randgen.random_upper_triangular(rng, n))
    u, tau, b = quatflag.bruhat_decompose(g)
    yield [] if u * quatflag.perm_matrix(tau) * b == g else [{"check": "recompose", "trial": t}]
    yield [] if quatflag.u_membership(u, tau) else [
        {"check": "u-membership", "trial": t, "tau": list(tau)}]
    yield [] if b.is_upper_triangular() else [{"check": "b-triangular", "trial": t}]
    yield [] if quatflag.cell_index(g) == cell and tau == cell else [
        {"check": "cell-index-agrees", "trial": t, "tau": list(cell)}]
    bp = randgen.random_upper_triangular(rng, n)
    u2, tau2, _ = quatflag.bruhat_decompose(g * bp)
    yield [] if (u2, tau2) == (u, tau) else [{"check": "uniqueness", "trial": t}]


def _trial_gkm(n, rng, t, mutate, model):
    from . import gkm, randgen

    draw, check = {"t": (randgen.random_t_tuple, gkm.gkm_check_t),
                   "x": (randgen.random_x_tuple, gkm.gkm_check_x)}[model]
    f = _mutate(rng, draw(rng, n), mutate)
    yield [{"check": "membership", "trial": t, **v.to_json()} for v in check(f)]


def _trial_theorem1(n, rng, t, mutate):
    from . import gkm, randgen

    combo, coeffs = randgen.random_maxrep_combination(rng, n)
    try:
        recovered = gkm.expand_in_schubert(combo, list(coeffs)) == coeffs
    except gkm.NotInTupleSpan:
        recovered = False
    yield [] if recovered else [{"check": "expansion-recovery", "trial": t}]
    fx = randgen.random_x_tuple(rng, n)
    ft = gkm.pullback_pi(fx)
    yield [] if not gkm.gkm_check_t(ft) and gkm.descend_pi(ft) == fx else [
        {"check": "pullback-descend-roundtrip", "trial": t}]


def _trial_theorem2(n, rng, t, mutate):
    if n < 2:
        return  # no index pairs at rank one
    from . import randgen, ringcore

    mu = rng.randint(1, n - 1)
    nu = rng.randint(mu + 1, n)
    g0 = randgen.random_xpoly(rng, n)
    f = (ringcore.XPoly.X(n, mu) - ringcore.XPoly.X(n, nu)) * g0
    pair = ringcore.BinomialDivisor.pair(n, mu, nu)
    try:
        q_x = ringcore.xpoly_divide_exact(f, mu, nu)
        q_l = ringcore.divide_exact(ringcore.x_expand(f), pair)
    except ringcore.NotDivisible:
        # the first check failed, and the three below need its quotients
        yield [{"check": "bridge-divisible", "trial": t}]
        return
    yield [] if q_x == g0 else [{"check": "bridge-x-quotient", "trial": t}]
    yield [] if q_l == ringcore.LaurentPoly.monomial(
        n, tuple(-1 if i == mu - 1 else 0 for i in range(n))
    ) * ringcore.x_expand(q_x) else [{"check": "bridge-quotient-unit", "trial": t}]
    # quotient identity through the free-basis decomposition
    lift = ringcore.LaurentPoly.x(n, mu) * q_l
    g0_again = ringcore.basis_decompose(lift)[(0,) * n]
    yield [] if (ringcore.XPoly.X(n, mu) - ringcore.XPoly.X(n, nu)) * g0_again == f else [
        {"check": "bridge-basis-decompose", "trial": t}]
    # adversarial: not divisible on either side
    bad = f + 1
    rejected_x = rejected_l = False
    try:
        ringcore.xpoly_divide_exact(bad, mu, nu)
    except ringcore.NotDivisible:
        rejected_x = True
    try:
        ringcore.divide_exact(ringcore.x_expand(bad), pair)
    except ringcore.NotDivisible:
        rejected_l = True
    yield [] if rejected_x and rejected_l else [{"check": "bridge-adversarial", "trial": t}]


def _mutate(rng, f, k):
    # +1 at a proper subset of the fixed points: the GKM graphs are connected,
    # so some edge has one end moved and its difference grows by 1, which no
    # edge divisor divides; +1 everywhere would keep a valid tuple valid
    if not k:
        return f
    values = dict(f.values)
    for v in rng.sample(list(values), k=min(k, len(values) - 1)):
        values[v] = values[v] + 1
    return type(f)(f.rank, values)


# name -> (exhaustive check of rank n, per-trial worker); either may be None
SUITES = {
    "roots": (_suite_roots, None),
    "cells": (_suite_cells, _trial_cells),
    "gkm-t": (None, partial(_trial_gkm, model="t")),
    "schubert": (_suite_schubert, None),
    "theorem1": (_suite_theorem1, _trial_theorem1),
    "gkm-x": (None, partial(_trial_gkm, model="x")),
    "theorem2": (None, _trial_theorem2),
    "presentation": (_suite_presentation, None),
}


def _run_trial_chunk(suite, n, seed, lo, hi, mutate):
    from .randgen import trial_rng  # trial t draws its own stream, so it replays alone

    fn = SUITES[suite][1]
    return _tally(found for t in range(lo, hi) for found in fn(n, trial_rng(seed, t), t, mutate))


def _run_trials(cfg, suite):
    """The tallies of the trials of ``suite``, one per chunk."""
    if cfg.jobs == 1 or cfg.trials == 1:
        return [_run_trial_chunk(suite, cfg.n, cfg.seed, 0, cfg.trials, cfg.mutate)]
    from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays its import

    # trial 0 runs here first, so the forked workers inherit every cache it
    # filled (the Schubert table, the Weyl group, lengths, Bruhat sets)
    first = _run_trial_chunk(suite, cfg.n, cfg.seed, 0, 1, cfg.mutate)
    chunk = -(-(cfg.trials - 1) // cfg.jobs)
    spans = [
        (lo, min(lo + chunk, cfg.trials)) for lo in range(1, cfg.trials, chunk)
    ]
    # the chunks follow --jobs; a worker per chunk past one per CPU only forks more
    with ProcessPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(_run_trial_chunk, suite, cfg.n, cfg.seed, lo, hi, cfg.mutate)
            for lo, hi in spans
        ]
        return [first, *(fut.result() for fut in futures)]


def run_suite(cfg, suite: str) -> dict:
    """The report that ``verify`` prints, as a dict."""
    start = time.perf_counter()
    exhaustive, trial = SUITES[suite]
    tallies = [_tally(exhaustive(cfg.n))] if exhaustive else []
    if trial:
        tallies += _run_trials(cfg, suite)
    violations = sorted((v for _, _, found in tallies for v in found),
                        key=lambda d: json.dumps(d, sort_keys=True))
    return {
        "suite": suite,
        "n": cfg.n,
        "seed": cfg.seed,
        "trials": cfg.trials if trial else None,
        "checks": sum(checks for checks, _, _ in tallies),
        "passed": sum(passed for _, passed, _ in tallies),
        "violations": violations,
        "wall_time_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------

def _internal_error(message, witness):
    """Exit 3: ``message`` on standard error, then its witness as one JSON line."""
    _warn(f"{message}; witness:", json.dumps(witness, sort_keys=True))
    return 3


def cmd_verify(cfg) -> int:
    if cfg.suite not in SUITES:
        raise _UsageError(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITES)}")
    report = run_suite(cfg, cfg.suite)
    _emit(cfg, report, partial(to_text, report))
    return 0 if not report["violations"] else 1


def cmd_schubert(cfg) -> int:
    from . import gkm, weylc

    if cfg.all:
        _emit(cfg, _table_chunks(gkm.schubert_table(cfg.n), cfg.n))
        return 0
    try:
        w = weylc.SignedPerm.from_window_str(cfg.w)
    except _BAD_INPUT:
        raise _UsageError(f"bad window notation: {cfg.w!r}") from None
    if w.rank != cfg.n:
        raise _UsageError(f"window {cfg.w!r} has rank {w.rank}, expected {cfg.n}")
    _emit(cfg, _class_texts([gkm.schubert_class(w)], 0))
    return 0


def _check_cap(cfg, size, what):
    if size > cfg.cap:
        raise _UsageError(f"{what} {size} exceeds the cap {cfg.cap}; pass --unsafe-n")


# A matrix component may have at most this many digits above and below the
# line, in lowest terms.  At the default rank cap a dense matrix of such
# components factors in well under a second, into components that print
# inside the interpreter's limit on the digits of an int.
MAX_COMPONENT_DIGITS = 30
_COMPONENT_LIMIT = 10 ** MAX_COMPONENT_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


def _check_components(data):
    """Refuse a matrix document with a component beyond MAX_COMPONENT_DIGITS.

    Components of the wrong type or shape are left to ``QMatrix.from_json``.
    A nonzero m * 10**e whose |e| passes the length of m by more than the
    bound is too long above or below the line, so it is refused before
    ``Fraction`` expands 10**e (a zero written so is refused too).
    """
    from fractions import Fraction

    for row in data if isinstance(data, list) else ():
        for q in row if isinstance(row, list) else ():
            for x in q if isinstance(q, list) else ():
                if isinstance(x, str):
                    m = _EXPONENT.search(x.strip())
                    if m and abs(int(m.group(1))) > MAX_COMPONENT_DIGITS + m.start():
                        raise ValueError(f"component exponent out of range: {x[:40]!r}")
                    x = Fraction(x)
                elif type(x) is not int:
                    continue
                if abs(x.numerator) >= _COMPONENT_LIMIT or x.denominator >= _COMPONENT_LIMIT:
                    raise ValueError(
                        f"a component has more than {MAX_COMPONENT_DIGITS} digits "
                        "above or below the line"
                    )


def _read_matrix(cfg, path):
    """The square matrix in the JSON file at path, of size 1 up to the rank
    cap, with components of at most MAX_COMPONENT_DIGITS digits."""
    from . import quatflag

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        _check_components(data)
        g = quatflag.QMatrix.from_json(data)
        if not g.n:
            raise ValueError("the matrix is empty")
    except _BAD_INPUT as exc:
        raise _UsageError(f"cannot read matrix: {exc}") from None
    _check_cap(cfg, g.n, "matrix size")
    return g


def cmd_decompose(cfg) -> int:
    from . import quatflag

    g = _read_matrix(cfg, cfg.input)
    try:
        u, tau, b = quatflag.bruhat_decompose(g)
    except quatflag.SingularMatrix:
        _warn("matrix is singular")
        return 1
    try:
        payload = {"u": u.to_json(), "tau": list(tau), "b": b.to_json()}
    except ValueError:  # a component past the interpreter's limit on int digits
        raise _UsageError(
            "cannot print the factors: a component has more digits than the "
            "interpreter converts to text"
        ) from None
    if u * quatflag.perm_matrix(tau) * b != g:
        return _internal_error("internal error: recomposition mismatch",
                               {"error": "recomposition-mismatch", "g": g.to_json(), **payload})
    _emit(cfg, payload, lambda: json.dumps(payload, indent=2))
    return 0


def cmd_cell_index(cfg) -> int:
    from . import quatflag

    g = _read_matrix(cfg, cfg.input)
    try:
        tau = quatflag.cell_index(g)
    except quatflag.SingularMatrix:
        _warn("matrix is singular")
        return 1
    payload = {"tau": list(tau)}
    _emit(cfg, payload, lambda: json.dumps(payload))
    return 0


def cmd_check(cfg) -> int:
    from . import gkm

    tuple_type, check = {"T": (gkm.GKMTupleT, gkm.gkm_check_t),
                         "X": (gkm.GKMTupleX, gkm.gkm_check_x),
                         "G": (gkm.GKMTupleG, gkm.gkm_check_g)}[cfg.model]
    try:
        with open(cfg.input, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a tuple is a JSON object")
        if int(data["rank"]) != cfg.n:
            raise _UsageError(f"tuple has rank {data['rank']!r}, expected {cfg.n}")
        f = tuple_type.from_json(data)
    except _BAD_INPUT as exc:
        raise _UsageError(f"cannot read tuple: {exc}") from None
    try:
        found = check(f)
    except OverflowError as exc:  # exponents inside the limit, divisions beyond it
        raise _UsageError(f"cannot check tuple: {exc}") from None
    try:
        violations = [v.to_json() for v in found]
    except ValueError:  # a remainder past the interpreter's limit on int digits
        raise _UsageError("cannot print the violations: a remainder is too long") from None
    payload = {"model": cfg.model, "rank": f.rank, "violations": violations}
    _emit(cfg, payload, lambda: "OK" if not violations else "\n".join(
        ["FAILED"] + [json.dumps(v, sort_keys=True) for v in violations]
    ))
    return 0 if not violations else 1


def cmd_basis(cfg) -> int:
    from . import weylc

    reps = {
        weylc.perm_embed(tau).window_str(): list(weylc.max_length_rep(tau).window())
        for tau in weylc.all_perms(cfg.n)
    }
    payload = {"rank": cfg.n, "representatives": reps}
    _emit(cfg, payload, lambda: "\n".join(
        f"{k} -> {json.dumps(v)}" for k, v in sorted(reps.items())
    ))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _count(text, least=1):
    """An integer >= least: the type of --n, --trials and --jobs (least 1)
    and of --mutate (least 0)."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {least}")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=_count, default=2, help="rank (default 2)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=_count, default=50)
    common.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    common.add_argument("--output", default=None, metavar="PATH")
    common.add_argument("--jobs", type=_count, default=1, metavar="K")
    common.add_argument(
        "--unsafe-n",
        action="store_true",
        help=f"allow ranks above the cap of {DEFAULT_MAX_N}",
    )

    parser = argparse.ArgumentParser(
        prog="qflagk",
        description="exact verification suites for quaternionic flag K-theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument(
        "--mutate",
        type=partial(_count, least=0),
        default=0,
        metavar="K",
        help="perturb K tuple components by +1 before checking (adversarial mode)",
    )
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("schubert", parents=[common], help="emit Schubert classes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--w", metavar="WINDOW", help='window notation, e.g. "[-2,1]"')
    group.add_argument("--all", action="store_true")
    p.set_defaults(run=cmd_schubert)

    p = sub.add_parser("decompose", parents=[common], help="factor g = u p_tau b")
    p.add_argument("--input", required=True, metavar="PATH")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("cell-index", parents=[common], help="cell of a flag matrix")
    p.add_argument("--input", required=True, metavar="PATH")
    p.set_defaults(run=cmd_cell_index)

    p = sub.add_parser("check", parents=[common], help="GKM membership of a tuple")
    p.add_argument("--model", required=True, choices=("T", "X", "G"))
    p.add_argument("--input", required=True, metavar="PATH")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("basis", parents=[common], help="maximal-length coset representatives")
    p.set_defaults(run=cmd_basis)
    return parser


def main(argv=None) -> int:
    """Run one command; the parsed namespace is the configuration (``cfg``).
    argparse prints ``--help`` into a buffer that ``_emit`` then writes, so
    help follows the rule of every command's output."""
    shown = io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(shown):
                cfg = _build_parser().parse_args(argv)
        except SystemExit as exc:  # after help (0) or a usage error (2)
            if exc.code not in (0, None):
                return 2
            _emit(argparse.Namespace(output=None), [shown.getvalue().removesuffix("\n")])
            return 0
        cfg.cap = math.inf if cfg.unsafe_n else DEFAULT_MAX_N
        _check_cap(cfg, cfg.n, "rank")
        return cfg.run(cfg)
    except _UsageError as exc:
        _warn(exc)
        return 2
    except Exception as exc:  # Ctrl-C and SystemExit pass through
        if hasattr(exc, "to_json"):  # a failed division serializes its own witness
            return _internal_error("internal inexact division", exc.to_json())
        name = type(exc).__name__
        return _internal_error(f"internal error: {name}",
                               {"error": "internal", "exception": name, "message": str(exc)})


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
