"""Batch verification suites and data commands.

Commands: ``verify`` (run a named suite and report), ``schubert`` (emit
Schubert classes), ``decompose`` (factor a quaternionic matrix),
``cell-index`` (read off the cell of a flag), ``check`` (membership of a
serialized tuple in one of the three models), ``basis`` (the maximal-length
coset representatives).

Exit codes: 0 all checks passed, 1 violations found (or singular input),
2 usage or parse errors, 3 internal inexact division.  Reports are
deterministic for a fixed configuration and seed, except for the wall-time
field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial

from . import gkm, quatflag, randgen, ringcore, weylc

DEFAULT_MAX_N = 4
# what reading a JSON input file can raise, each reported as exit 2
_BAD_INPUT = (OSError, ValueError, TypeError, KeyError, ZeroDivisionError,
              OverflowError, RecursionError)


class _UsageError(Exception):
    """Bad flags, environment or input: ``main`` prints the message, exits 2."""


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    trials: int | None
    checks: int
    violations: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self):
        return self.checks - len(self.violations)

    def to_json_dict(self):
        return {**asdict(self), "passed": self.passed}

    def to_text(self):
        lines = [
            f"suite: {self.suite}",
            f"n: {self.n}  seed: {self.seed}  trials: {self.trials if self.trials is not None else '-'}",
            f"checks: {self.checks}  passed: {self.passed}  violations: {len(self.violations)}",
        ]
        for v in self.violations[:20]:
            lines.append(f"  violation: {json.dumps(v, sort_keys=True)}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        lines.append(f"wall_time_s: {self.wall_time_s:.3f}")
        lines.append("OK" if not self.violations else "FAILED")
        return "\n".join(lines)


def _emit(cfg, payload, text: str):
    body = json.dumps(payload, indent=2, sort_keys=True) if cfg.fmt == "json" else text
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write --output: {exc}") from None
    else:
        print(body)


# ---------------------------------------------------------------------------
# exhaustive suites
# ---------------------------------------------------------------------------

def _suite_roots(n):
    checks = 0
    violations = []

    def fail(what, **detail):
        violations.append({"check": what, **detail})

    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for alpha in weylc.positive_roots(n):
        s = weylc.reflection(alpha)
        checks += 3
        if s * s != weylc.SignedPerm.identity(n):
            fail("reflection-involution", root=list(alpha))
        if s.act(alpha) != tuple(-a for a in alpha):
            fail("reflection-negates-root", root=list(alpha))
        # s(L^i) = L^i - 2 (L^i . alpha) / (alpha . alpha) alpha, times alpha . alpha
        norm = sum(a * a for a in alpha)
        if any(
            [norm * c for c in s.act(e)] != [norm * ej - 2 * ai * aj for ej, aj in zip(e, alpha)]
            for e, ai in zip(basis, alpha)
        ):
            fail("reflection-formula", root=list(alpha), got=list(s.window()))

    W = weylc.enumerate_weyl(n)
    WG = weylc.enumerate_sign_changes(n)
    checks += 2
    if len(W) != 2**n * math.factorial(n):
        fail("weyl-order", got=len(W))
    if len(WG) != 2**n or any(not v.is_sign_change() for v in WG):
        fail("sign-subgroup-order", got=len(WG))

    for w in W:
        winv = w.inverse()
        for v in WG:
            checks += 1
            if not (w * v * winv).is_sign_change():
                fail("normality", w=list(w.window()), v=list(v.window()))

    for w in W:
        for v in W:
            checks += 1
            if weylc.coset_map(w * v) != weylc.perm_compose(
                weylc.coset_map(w), weylc.coset_map(v)
            ):
                fail("coset-homomorphism", w=list(w.window()), v=list(v.window()))
    for w in W:
        checks += 1
        in_kernel = weylc.coset_map(w) == weylc.perm_identity(n)
        if in_kernel != w.is_sign_change():
            fail("coset-kernel", w=list(w.window()))
    return checks, violations


def _suite_schubert(n):
    checks = 0
    violations = []
    table = gkm.schubert_table(n)
    W = weylc.enumerate_weyl(n)
    for w in W:
        cls = table.classes[w]
        checks += 1
        for viol in gkm.gkm_check_t(cls):
            violations.append({"check": "gkm-valid", "class": list(w.window()), **viol.to_json()})
        checks += 1
        if cls.values[w] != gkm._diagonal(w):
            violations.append({"check": "diagonal-closed-form", "class": list(w.window())})
        for v in W:
            checks += 1
            if cls.values[v] and not weylc.bruhat_leq(v, w):
                violations.append({
                    "check": "triangularity",
                    "class": list(w.window()),
                    "at": list(v.window()),
                })
    for w, i in gkm.descent_invariance_check(table):
        violations.append({"check": "descent-fixes-class", "class": list(w.window()), "simple": i})
    checks += len(W) * n  # one per (class, applicable-or-not descent) pair
    return checks, violations


def _suite_presentation(n):
    failures = gkm.presentation_check(n)
    checks = 2 * n * len(weylc.all_perms(n))
    violations = [
        {"check": "presentation-relation", "model": model, "k": k, "tau": list(tau)}
        for model, k, tau in failures
    ]
    return checks, violations


def _suite_theorem1(n):
    # the descent half: the quaternionic Schubert classes lie in the G- and
    # X-models and descend from the T-model; the randomized halves run as trials
    checks = 0
    violations = []
    for tau, q in gkm.quaternionic_schubert_classes(n).items():
        qx = gkm.j_expand(q)
        checks += 2
        if gkm.gkm_check_g(q) or gkm.gkm_check_x(qx):
            violations.append({"check": "quaternionic-valid", "class": list(tau)})
        if gkm.descend_pi(gkm.pullback_pi(qx)) != qx:
            violations.append({"check": "quaternionic-descends", "class": list(tau)})
    return checks, violations


def _suite_cells(n):
    checks = 0
    violations = []
    perms = weylc.all_perms(n)
    checks += 1
    if len(perms) != math.factorial(n):
        violations.append({"check": "cell-count", "got": len(perms)})
    for tau in perms:
        checks += 1
        desc = quatflag.CellDescriptor.for_perm(tau)
        free = quatflag.free_positions(tau)
        if len(free) != weylc.perm_inversions(tau) or desc.dimension != 4 * len(free):
            violations.append({"check": "cell-dimension", "tau": list(tau)})
    for a in perms:
        for b in perms:
            checks += 1
            if quatflag.closure_leq(a, b) != weylc.bruhat_leq_by_rank_matrix(a, b):
                violations.append({"check": "closure-vs-oracle", "a": list(a), "b": list(b)})
    return checks, violations


# ---------------------------------------------------------------------------
# per-trial workers (top level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _trial_cells(n, seed, t, mutate):
    # a dense random matrix lands in the big cell, so draw the cell tau and
    # build g = u * p_tau * b with u random on the free positions of tau
    rng = randgen.trial_rng(seed, t)
    violations = []
    cell = rng.choice(weylc.all_perms(n))
    rows = [list(r) for r in quatflag.QMatrix.identity(n).entries]
    for mu, nu in quatflag.free_positions(cell):
        rows[mu - 1][nu - 1] = randgen.random_quaternion(rng)
    g = (quatflag.QMatrix.from_rows(rows) * quatflag.perm_matrix(cell)
         * randgen.random_upper_triangular(rng, n))
    u, tau, b = quatflag.bruhat_decompose(g)
    if u * quatflag.perm_matrix(tau) * b != g:
        violations.append({"check": "recompose", "trial": t})
    if not quatflag.u_membership(u, tau):
        violations.append({"check": "u-membership", "trial": t, "tau": list(tau)})
    if not b.is_upper_triangular():
        violations.append({"check": "b-triangular", "trial": t})
    if quatflag.cell_index(g) != cell or tau != cell:
        violations.append({"check": "cell-index-agrees", "trial": t, "tau": list(cell)})
    bp = randgen.random_upper_triangular(rng, n)
    u2, tau2, _ = quatflag.bruhat_decompose(g * bp)
    if (u2, tau2) != (u, tau):
        violations.append({"check": "uniqueness", "trial": t})
    return 5, violations


def _trial_gkm(n, seed, t, mutate, model):
    rng = randgen.trial_rng(seed, t)
    f = _mutate(rng, getattr(randgen, f"random_{model}_tuple")(rng, n), mutate)
    violations = [
        {"check": "membership", "trial": t, **v.to_json()}
        for v in getattr(gkm, f"gkm_check_{model}")(f)
    ]
    return 1, violations


def _trial_theorem1(n, seed, t, mutate):
    rng = randgen.trial_rng(seed, t)
    violations = []
    combo, coeffs = randgen.random_maxrep_combination(rng, n)
    try:
        got = gkm.expand_in_schubert(combo, list(coeffs))
        if got != coeffs:
            violations.append({"check": "expansion-recovery", "trial": t})
    except (gkm.NotInTupleSpan, ringcore.NotDivisible):
        violations.append({"check": "expansion-recovery", "trial": t})
    fx = randgen.random_x_tuple(rng, n)
    ft = gkm.pullback_pi(fx)
    if gkm.gkm_check_t(ft) or gkm.descend_pi(ft) != fx:
        violations.append({"check": "pullback-descend-roundtrip", "trial": t})
    return 2, violations


def _trial_theorem2(n, seed, t, mutate):
    rng = randgen.trial_rng(seed, t)
    violations = []
    if n < 2:
        return 0, violations  # no index pairs at rank one
    mu = rng.randint(1, n - 1)
    nu = rng.randint(mu + 1, n)
    g0 = randgen.random_xpoly(rng, n)
    f = (ringcore.XPoly.X(n, mu) - ringcore.XPoly.X(n, nu)) * g0
    pair = gkm._pair_divisor(n, mu, nu)
    try:
        q_x = ringcore.xpoly_divide_exact(f, mu, nu)
        q_l = ringcore.divide_exact(ringcore.x_expand(f), pair)
    except ringcore.NotDivisible:
        violations.append({"check": "bridge-divisible", "trial": t})
        return 4, violations
    if q_x != g0:
        violations.append({"check": "bridge-x-quotient", "trial": t})
    if q_l != ringcore.LaurentPoly.monomial(
        n, tuple(-1 if i == mu - 1 else 0 for i in range(n))
    ) * ringcore.x_expand(q_x):
        violations.append({"check": "bridge-quotient-unit", "trial": t})
    # quotient identity through the free-basis decomposition
    lift = ringcore.LaurentPoly.x(n, mu) * q_l
    g0_again = ringcore.basis_decompose(lift)[(0,) * n]
    if (ringcore.XPoly.X(n, mu) - ringcore.XPoly.X(n, nu)) * g0_again != f:
        violations.append({"check": "bridge-basis-decompose", "trial": t})
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
    if not (rejected_x and rejected_l):
        violations.append({"check": "bridge-adversarial", "trial": t})
    return 4, violations


def _mutate(rng, f, k):
    if not k:
        return f
    values = dict(f.values)
    for v in rng.sample(list(values), k=min(k, len(values))):
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
    fn = SUITES[suite][1]
    checks = 0
    violations = []
    for t in range(lo, hi):
        c, v = fn(n, seed, t, mutate)
        checks += c
        violations.extend(v)
    return checks, violations


def _run_trials(cfg, suite):
    if cfg.jobs == 1 or cfg.trials == 1:
        return _run_trial_chunk(suite, cfg.n, cfg.seed, 0, cfg.trials, cfg.mutate)
    from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays its import

    # trial 0 runs here first, so the forked workers inherit every cache it
    # filled (the Schubert table, the Weyl group, lengths, Bruhat sets)
    checks, violations = _run_trial_chunk(suite, cfg.n, cfg.seed, 0, 1, cfg.mutate)
    chunk = -(-(cfg.trials - 1) // cfg.jobs)
    spans = [
        (lo, min(lo + chunk, cfg.trials)) for lo in range(1, cfg.trials, chunk)
    ]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futures = [
            pool.submit(_run_trial_chunk, suite, cfg.n, cfg.seed, lo, hi, cfg.mutate)
            for lo, hi in spans
        ]
        for fut in futures:
            c, v = fut.result()
            checks += c
            violations.extend(v)
    return checks, violations


def run_suite(cfg, suite: str) -> SuiteReport:
    start = time.perf_counter()
    exhaustive, trial = SUITES[suite]
    checks, violations = exhaustive(cfg.n) if exhaustive else (0, [])
    if trial:
        c, v = _run_trials(cfg, suite)
        checks += c
        violations.extend(v)
    violations.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return SuiteReport(
        suite=suite,
        n=cfg.n,
        seed=cfg.seed,
        trials=cfg.trials if trial else None,
        checks=checks,
        violations=violations,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg) -> int:
    if cfg.suite not in SUITES:
        raise _UsageError(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITES)}")
    try:
        report = run_suite(cfg, cfg.suite)
    except (gkm.InexactDivision, ringcore.NotDivisible) as exc:
        print(f"internal inexact division: {exc}", file=sys.stderr)
        return 3
    _emit(cfg, report.to_json_dict(), report.to_text())
    return 0 if not report.violations else 1


def cmd_schubert(cfg) -> int:
    if cfg.all:
        payload = gkm.schubert_table(cfg.n).to_json()
    else:
        try:
            w = weylc.SignedPerm.from_window_str(cfg.w)
        except _BAD_INPUT:
            raise _UsageError(f"bad window notation: {cfg.w!r}") from None
        if w.rank != cfg.n:
            raise _UsageError(f"window {cfg.w!r} has rank {w.rank}, expected {cfg.n}")
        payload = gkm.schubert_class(w).to_json()
    _emit(cfg, payload, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _check_cap(cfg, size, what):
    if size > cfg.cap:
        raise _UsageError(
            f"{what} {size} exceeds the cap {cfg.cap}; pass --unsafe-n or set QFLAGK_MAX_N"
        )


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
    g = _read_matrix(cfg, cfg.input)
    try:
        u, tau, b = quatflag.bruhat_decompose(g)
    except quatflag.SingularMatrix:
        print("matrix is singular", file=sys.stderr)
        return 1
    if u * quatflag.perm_matrix(tau) * b != g:
        print("internal error: recomposition mismatch", file=sys.stderr)
        return 3
    try:
        payload = {"u": u.to_json(), "tau": list(tau), "b": b.to_json()}
    except ValueError:  # a component past the interpreter's limit on int digits
        raise _UsageError(
            "cannot print the factors: a component has more digits than the "
            "interpreter converts to text"
        ) from None
    _emit(cfg, payload, json.dumps(payload, indent=2))
    return 0


def cmd_cell_index(cfg) -> int:
    g = _read_matrix(cfg, cfg.input)
    try:
        tau = quatflag.cell_index(g)
    except quatflag.SingularMatrix:
        print("matrix is singular", file=sys.stderr)
        return 1
    payload = {"tau": list(tau)}
    _emit(cfg, payload, json.dumps(payload))
    return 0


def cmd_check(cfg) -> int:
    model = cfg.model
    try:
        with open(cfg.input, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a tuple is a JSON object")
        if data.get("model") != model:
            raise _UsageError(f"tuple is tagged model {data.get('model')!r}, expected {model!r}")
        if int(data["rank"]) != cfg.n:
            raise _UsageError(f"tuple has rank {data['rank']!r}, expected {cfg.n}")
        f = getattr(gkm, f"GKMTuple{model}").from_json(data)
    except _BAD_INPUT as exc:
        raise _UsageError(f"cannot read tuple: {exc}") from None
    try:
        found = getattr(gkm, f"gkm_check_{model.lower()}")(f)
    except OverflowError as exc:  # exponents inside the limit, divisions beyond it
        raise _UsageError(f"cannot check tuple: {exc}") from None
    try:
        violations = [v.to_json() for v in found]
    except ValueError:  # a remainder past the interpreter's limit on int digits
        raise _UsageError("cannot print the violations: a remainder is too long") from None
    payload = {"model": model, "rank": f.rank, "violations": violations}
    text = "OK" if not violations else "\n".join(
        ["FAILED"] + [json.dumps(v, sort_keys=True) for v in violations]
    )
    _emit(cfg, payload, text)
    return 0 if not violations else 1


def cmd_basis(cfg) -> int:
    reps = {
        gkm._key(tau): list(weylc.max_length_rep(tau).window())
        for tau in weylc.all_perms(cfg.n)
    }
    payload = {"rank": cfg.n, "representatives": reps}
    text = "\n".join(f"{k} -> {json.dumps(v)}" for k, v in sorted(reps.items()))
    _emit(cfg, payload, text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _count(text, least=1):
    """An integer >= least: the type of --n, --trials, --jobs and QFLAGK_MAX_N
    (least 1) and of --mutate (least 0)."""
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
        help="allow ranks above the cap (QFLAGK_MAX_N, default 4)",
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
    """Run one command; the parsed namespace is the configuration (``cfg``)."""
    try:
        cfg = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cap = _count(os.environ.get("QFLAGK_MAX_N", DEFAULT_MAX_N))
    except argparse.ArgumentTypeError as exc:
        print(f"QFLAGK_MAX_N: {exc}", file=sys.stderr)
        return 2
    cfg.cap = math.inf if cfg.unsafe_n else cap
    try:
        _check_cap(cfg, cfg.n, "rank")
        return cfg.run(cfg)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
