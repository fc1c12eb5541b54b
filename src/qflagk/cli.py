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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from . import gkm, quatflag, randgen, ringcore, weylc

DEFAULT_MAX_N = 4
SUITES = (
    "roots",
    "cells",
    "gkm-t",
    "schubert",
    "theorem1",
    "gkm-x",
    "theorem2",
    "presentation",
)


@dataclass
class Config:
    n: int = 2
    seed: int = 0
    trials: int = 50
    fmt: str = "text"
    jobs: int = 1
    output: str | None = None
    mutate: int = 0
    unsafe_n: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")


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
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "passed": self.passed,
            "violations": self.violations,
            "wall_time_s": self.wall_time_s,
        }

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


def _emit(cfg: Config, payload, text: str):
    body = json.dumps(payload, indent=2, sort_keys=True) if cfg.fmt == "json" else text
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)


# ---------------------------------------------------------------------------
# exhaustive suites
# ---------------------------------------------------------------------------

def _suite_roots(cfg: Config):
    n = cfg.n
    checks = 0
    violations = []

    def fail(what, **detail):
        violations.append({"check": what, **detail})

    for alpha in weylc.positive_roots(n):
        s = weylc.reflection(alpha)
        checks += 3
        if s * s != weylc.SignedPerm.identity(n):
            fail("reflection-involution", root=list(alpha))
        if s.act(alpha) != tuple(-a for a in alpha):
            fail("reflection-negates-root", root=list(alpha))
        nz = [(i, c) for i, c in enumerate(alpha) if c]
        if len(nz) == 1:
            ok = s.perm == weylc.perm_identity(n) and all(
                s.signs[i] == (-1 if i == nz[0][0] else 1) for i in range(n)
            )
        else:
            (mu, _), (nu, cnu) = nz
            want_perm = list(weylc.perm_identity(n))
            want_perm[mu], want_perm[nu] = want_perm[nu], want_perm[mu]
            want_sign = -1 if cnu == 1 else 1
            ok = s.perm == tuple(want_perm) and all(
                s.signs[i] == (want_sign if i in (mu, nu) else 1) for i in range(n)
            )
        if not ok:
            fail("reflection-case-table", root=list(alpha), got=list(s.window()))

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


def _suite_schubert(cfg: Config):
    n = cfg.n
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
        if not cls.values[w]:
            violations.append({"check": "diagonal-nonzero", "class": list(w.window())})
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


def _suite_presentation(cfg: Config):
    n = cfg.n
    failures = gkm.presentation_check(n)
    checks = 2 * n * len(weylc.all_perms(n))
    violations = [
        {"check": "presentation-relation", "model": model, "k": k, "tau": list(tau)}
        for model, k, tau in failures
    ]
    return checks, violations


def _suite_theorem1_exhaustive(cfg: Config):
    # the descent half: the quaternionic Schubert classes lie in the G- and
    # X-models and descend from the T-model; the randomized halves run as trials
    n = cfg.n
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


# ---------------------------------------------------------------------------
# per-trial workers (top level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _trial_cells(n, seed, t, mutate):
    rng = randgen.trial_rng(seed, t)
    violations = []
    g = randgen.random_invertible_matrix(rng, n)
    u, tau, b = quatflag.bruhat_decompose(g)
    if u * quatflag.perm_matrix(tau) * b != g:
        violations.append({"check": "recompose", "trial": t})
    if not quatflag.u_membership(u, tau):
        violations.append({"check": "u-membership", "trial": t, "tau": list(tau)})
    if not b.is_upper_triangular():
        violations.append({"check": "b-triangular", "trial": t})
    if quatflag.cell_index(g) != tau:
        violations.append({"check": "cell-index-agrees", "trial": t})
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
    combo, coeffs = randgen.random_maxrep_combination(rng, n, with_coeffs=True)
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


_TRIALS = {
    "cells": _trial_cells,
    "gkm-t": partial(_trial_gkm, model="t"),
    "gkm-x": partial(_trial_gkm, model="x"),
    "theorem1": _trial_theorem1,
    "theorem2": _trial_theorem2,
}


def _run_trial_chunk(suite, n, seed, lo, hi, mutate):
    fn = _TRIALS[suite]
    checks = 0
    violations = []
    for t in range(lo, hi):
        c, v = fn(n, seed, t, mutate)
        checks += c
        violations.extend(v)
    return checks, violations


def _run_trials(cfg: Config, suite):
    if cfg.jobs == 1:
        return _run_trial_chunk(suite, cfg.n, cfg.seed, 0, cfg.trials, cfg.mutate)
    chunk = max(1, -(-cfg.trials // cfg.jobs))
    spans = [
        (lo, min(lo + chunk, cfg.trials)) for lo in range(0, cfg.trials, chunk)
    ]
    checks = 0
    violations = []
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        futures = [
            pool.submit(_run_trial_chunk, suite, cfg.n, cfg.seed, lo, hi, cfg.mutate)
            for lo, hi in spans
        ]
        for fut in futures:
            c, v = fut.result()
            checks += c
            violations.extend(v)
    return checks, violations


def run_suite(cfg: Config, suite: str) -> SuiteReport:
    start = time.perf_counter()
    trials = None
    if suite == "roots":
        checks, violations = _suite_roots(cfg)
    elif suite == "schubert":
        checks, violations = _suite_schubert(cfg)
    elif suite == "presentation":
        checks, violations = _suite_presentation(cfg)
    elif suite in ("cells", "gkm-t", "gkm-x", "theorem2"):
        trials = cfg.trials
        checks, violations = _run_trials(cfg, suite)
        if suite == "cells":
            c2, v2 = _suite_cells_exhaustive(cfg)
            checks += c2
            violations.extend(v2)
    elif suite == "theorem1":
        trials = cfg.trials
        checks, violations = _suite_theorem1_exhaustive(cfg)
        c2, v2 = _run_trials(cfg, suite)
        checks += c2
        violations.extend(v2)
    else:
        raise KeyError(suite)
    violations.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return SuiteReport(
        suite=suite,
        n=cfg.n,
        seed=cfg.seed,
        trials=trials,
        checks=checks,
        violations=violations,
        wall_time_s=time.perf_counter() - start,
    )


def _suite_cells_exhaustive(cfg: Config):
    n = cfg.n
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
# data commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: Config, suite: str) -> int:
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}", file=sys.stderr)
        return 2
    try:
        report = run_suite(cfg, suite)
    except (gkm.InexactDivision, ringcore.NotDivisible) as exc:
        print(f"internal inexact division: {exc}", file=sys.stderr)
        return 3
    _emit(cfg, report.to_json_dict(), report.to_text())
    return 0 if not report.violations else 1


def cmd_schubert(cfg: Config, window: str | None, emit_all: bool) -> int:
    if emit_all:
        payload = gkm.schubert_table(cfg.n).to_json()
        _emit(cfg, payload, json.dumps(payload, indent=2, sort_keys=True))
        return 0
    try:
        w = weylc.SignedPerm.from_window_str(window)
    except (ValueError, TypeError, json.JSONDecodeError):
        print(f"bad window notation: {window!r}", file=sys.stderr)
        return 2
    if w.rank != cfg.n:
        print(f"window {window!r} has rank {w.rank}, expected {cfg.n}", file=sys.stderr)
        return 2
    payload = gkm.schubert_class(w).to_json()
    _emit(cfg, payload, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return quatflag.QMatrix.from_json(json.load(fh))


def cmd_decompose(cfg: Config, input_path: str) -> int:
    try:
        g = _load_matrix(input_path)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot read matrix: {exc}", file=sys.stderr)
        return 2
    try:
        u, tau, b = quatflag.bruhat_decompose(g)
    except quatflag.SingularMatrix:
        print("matrix is singular", file=sys.stderr)
        return 1
    if u * quatflag.perm_matrix(tau) * b != g:
        print("internal error: recomposition mismatch", file=sys.stderr)
        return 3
    payload = {"u": u.to_json(), "tau": list(tau), "b": b.to_json()}
    _emit(cfg, payload, json.dumps(payload, indent=2))
    return 0


def cmd_cell_index(cfg: Config, input_path: str) -> int:
    try:
        g = _load_matrix(input_path)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot read matrix: {exc}", file=sys.stderr)
        return 2
    try:
        tau = quatflag.cell_index(g)
    except quatflag.SingularMatrix:
        print("matrix is singular", file=sys.stderr)
        return 1
    payload = {"tau": list(tau)}
    _emit(cfg, payload, json.dumps(payload))
    return 0


def cmd_check(cfg: Config, model: str, input_path: str) -> int:
    try:
        with open(input_path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a tuple is a JSON object")
        if data.get("model") != model:
            print(
                f"tuple is tagged model {data.get('model')!r}, expected {model!r}",
                file=sys.stderr,
            )
            return 2
        if int(data["rank"]) != cfg.n:
            print(f"tuple has rank {data['rank']!r}, expected {cfg.n}", file=sys.stderr)
            return 2
        f = getattr(gkm, f"GKMTuple{model}").from_json(data)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot read tuple: {exc}", file=sys.stderr)
        return 2
    violations = [v.to_json() for v in getattr(gkm, f"gkm_check_{model.lower()}")(f)]
    payload = {"model": model, "rank": f.rank, "violations": violations}
    text = "OK" if not violations else "\n".join(
        ["FAILED"] + [json.dumps(v, sort_keys=True) for v in violations]
    )
    _emit(cfg, payload, text)
    return 0 if not violations else 1


def cmd_basis(cfg: Config) -> int:
    reps = {
        gkm._perm_key(tau): list(weylc.max_length_rep(tau).window())
        for tau in weylc.all_perms(cfg.n)
    }
    payload = {"rank": cfg.n, "representatives": reps}
    text = "\n".join(f"{k} -> {json.dumps(v)}" for k, v in sorted(reps.items()))
    _emit(cfg, payload, text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=2, help="rank (default 2)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=int, default=50)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--output", default=None, metavar="PATH")
    common.add_argument("--jobs", type=int, default=1, metavar="K")
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
        type=int,
        default=0,
        metavar="K",
        help="perturb K tuple components by +1 before checking (adversarial mode)",
    )

    p = sub.add_parser("schubert", parents=[common], help="emit Schubert classes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--w", metavar="WINDOW", help='window notation, e.g. "[-2,1]"')
    group.add_argument("--all", action="store_true")

    p = sub.add_parser("decompose", parents=[common], help="factor g = u p_tau b")
    p.add_argument("--input", required=True, metavar="PATH")

    p = sub.add_parser("cell-index", parents=[common], help="cell of a flag matrix")
    p.add_argument("--input", required=True, metavar="PATH")

    p = sub.add_parser("check", parents=[common], help="GKM membership of a tuple")
    p.add_argument("--model", required=True, choices=("T", "X", "G"))
    p.add_argument("--input", required=True, metavar="PATH")

    sub.add_parser("basis", parents=[common], help="maximal-length coset representatives")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = Config(
            n=args.n,
            seed=args.seed,
            trials=args.trials,
            fmt=args.format,
            jobs=args.jobs,
            output=args.output,
            mutate=getattr(args, "mutate", 0),
            unsafe_n=args.unsafe_n,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cap = int(os.environ.get("QFLAGK_MAX_N", DEFAULT_MAX_N))
    if cfg.n > cap and not cfg.unsafe_n:
        print(
            f"rank {cfg.n} exceeds the cap {cap}; pass --unsafe-n or set QFLAGK_MAX_N",
            file=sys.stderr,
        )
        return 2
    if args.command == "verify":
        return cmd_verify(cfg, args.suite)
    if args.command == "schubert":
        return cmd_schubert(cfg, args.w, args.all)
    if args.command == "decompose":
        return cmd_decompose(cfg, args.input)
    if args.command == "cell-index":
        return cmd_cell_index(cfg, args.input)
    if args.command == "check":
        return cmd_check(cfg, args.model, args.input)
    if args.command == "basis":
        return cmd_basis(cfg)
    return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
