"""One process of the benchmark: set-up, timed operations and output checks.

``run.py`` starts this file once per extra set-up sample and once for the
measured run:

    python3 bench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --started T [--setup-only]

``--started`` is the parent's ``time.perf_counter()`` taken just before it
started this process; the clock is system-wide, so set-up time counts
interpreter start and imports.  The last line of standard output is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402


class Workload:
    """A closed loop from one process.

    ``setup(seed)`` is a generator: each ``yield`` ends one interval of the
    set-up, which is timed and followed by the reference kernel, so that a
    long set-up is scaled by the host's speed throughout, not only at its
    end.  ``warm_up()``, a generator too, runs untraced after it.  ``ops()``
    gives one round of operations and ``check(outputs, first)`` judges the
    outputs of a round: it returns which operations failed in a known way
    (an empty list for none) and a list of problems.

    ``in_process``: the operations run in this process, so the tracer is
    installed here, each operation is scaled by the kernel run right after
    it and the peak resident set is this process's.
    """

    traced = False
    in_process = True

    def close(self):
        pass


# ---------------------------------------------------------------------------
# schubert-n4
# ---------------------------------------------------------------------------


class SchubertN4(Workload):
    """The Demazure recursion of ``schubert_table(4)``, replayed from
    ``point_class(4)`` in the table's own order, up to ``MAX_LENGTH``."""

    N = 4
    MAX_LENGTH = 5
    SAMPLE_EVAL_CLASSES = 3
    SAMPLE_EVAL_EDGES = 256
    SAMPLE_DESCENTS = 3
    SAMPLE_SECOND_WORDS = 2

    def setup(self, seed):
        from qflagk import gkm, weylc

        yield
        self.gkm = gkm
        n = self.N
        self.identity = weylc.SignedPerm.identity(n)
        # (w, i, v = w s_i) in the order schubert_table(4) first reaches v
        self.steps = []
        reached = {self.identity}
        for w in weylc.enumerate_weyl(n):
            if weylc.length(w) >= self.MAX_LENGTH:
                break
            for i in range(1, n + 1):
                v = w * weylc.simple_reflection(i, n)
                if weylc.length(v) == weylc.length(w) + 1 and v not in reached:
                    reached.add(v)
                    self.steps.append((w, i, v))
        self.point = gkm.point_class(n)
        yield
        self.rng = random.Random(f"schubert:{seed}")
        self.fingerprint = None

    def warm_up(self):
        self.gkm.demazure(1, self.point)
        yield

    def ops(self):
        table = {self.identity: self.point}
        self.table = table
        demazure = self.gkm.demazure

        def step(w, i, v):
            def op():
                table[v] = demazure(i, table[w])
            return op

        return [step(w, i, v) for w, i, v in self.steps]

    def check(self, outputs, first):
        table, self.table = self.table, None
        if any(isinstance(o, Exception) for o in outputs):
            return [], []
        fingerprint = hash(tuple(
            hash(frozenset(p.terms.items()))
            for v in table for p in table[v].values.values()
        ))
        if not first:
            same = fingerprint == self.fingerprint
            return [], [] if same else ["schubert: a round's classes differ from the first round's"]
        self.fingerprint = fingerprint
        return [], self._oracles(table)

    def _oracles(self, table):
        n = self.N
        rng = self.rng
        problems = []
        windows = [w for w in oracles.signed_windows(n) if oracles.length(w) <= self.MAX_LENGTH]
        if len(windows) != len(table):
            problems.append(f"schubert: {len(table)} classes, expected {len(windows)}")
        by_window = {v.window(): v for v in table}
        edges = oracles.t_edges(n)
        for key in _sample(rng, sorted(by_window), self.SAMPLE_EVAL_CLASSES):
            values = {w.window(): p.terms for w, p in table[by_window[key]].values.items()}
            live = [e for e in edges if values[e[0]] or values[e[1]]]
            problems += oracles.t_tuple_problems(
                values, _sample(rng, live, self.SAMPLE_EVAL_EDGES), f"class {key}")
        descents = [
            (key, i)
            for key in sorted(by_window)
            for i in range(1, n + 1)
            if oracles.length(oracles.times_simple(key, i)) < oracles.length(key)
        ]
        for key, i in _sample(rng, descents, self.SAMPLE_DESCENTS):
            cls = table[by_window[key]]
            try:
                fixed = self.gkm.demazure(i, cls) == cls
            except self.gkm.InexactDivision:
                fixed = False
            if not fixed:
                problems.append(f"class {key}: demazure({i}) does not fix it")
        words = self._replay_words()
        second = {}
        for key in sorted(by_window):
            for largest in (True, False):
                word = oracles.reduced_word(key, largest)
                if word != words[by_window[key]]:
                    second[key] = word
                    break
        for key in _sample(rng, sorted(second), self.SAMPLE_SECOND_WORDS):
            rebuilt = self.gkm.schubert_class_from_word(n, second[key])
            if rebuilt != table[by_window[key]]:
                problems.append(f"class {key}: word {second[key]} gives another class")
        return problems

    def _replay_words(self):
        words = {self.identity: []}
        for w, i, v in self.steps:
            words[v] = words[w] + [i]
        return words


def _sample(rng, population, k):
    return rng.sample(population, min(k, len(population)))


# ---------------------------------------------------------------------------
# membership-n4
# ---------------------------------------------------------------------------


class MembershipN4(Workload):
    """``gkm_check_t``/``_x``/``_g`` on seeded rank-4 tuples, valid by
    construction; about half get +1 at a few vertices."""

    N = 4
    MUTATED_VERTICES = 3
    HIGH_DEGREE = 9
    SAMPLE_EVAL_EDGES = 64

    def setup(self, seed):
        from qflagk import gkm, randgen, ringcore, weylc

        yield
        n = self.N
        rng = random.Random(f"membership:{seed}")
        self.check_rng = random.Random(f"membership-check:{seed}")
        perms = weylc.all_perms(n)
        qs = gkm.quaternionic_schubert_classes(n)
        yield

        def qs_combination(max_length, seeded=True):
            # every class of length <= max_length, with integer coefficients
            # (seeded, or all 1), so the tuple's size hardly depends on the seed
            values = {t: ringcore.XPoly.zero(n) for t in perms}
            for tau, cls in qs.items():
                if weylc.perm_inversions(tau) <= max_length:
                    a = rng.choice((-2, -1, 1, 2)) if seeded else 1
                    values = {t: values[t] + a * cls.values[t] for t in perms}
            return gkm.GKMTupleG(n, values)

        def to_t(g):
            return gkm.pullback_pi(gkm.j_expand(g))

        def laurent_monomial(degree=self.HIGH_DEGREE):
            exps = [0] * n
            exps[rng.randrange(n)] = rng.choice((-1, 1)) * degree
            exps[rng.randrange(n)] += rng.randint(-2, 2)
            return ringcore.LaurentPoly.monomial(n, exps)

        def x_monomial():
            exps = [0] * n
            exps[rng.randrange(n)] = self.HIGH_DEGREE
            return ringcore.XPoly.monomial(n, exps)

        def shifted_sum(a, b, mono):
            # a + mono * b: valid when a and b are, with a wide exponent span
            return type(a)(n, {k: a.values[k] + mono * b.values[k] for k in a.values})

        def times(a, mono):
            return type(a)(n, {k: mono * p for k, p in a.values.items()})

        longest = n * (n - 1) // 2
        g_qs, x_qs, x_rand, g_rand, t_rand = [], [], [], [], []
        for _ in range(3):
            g_qs.append(qs_combination(longest))
            x_qs.append(gkm.j_expand(g_qs[-1]))
            yield
        for _ in range(2):
            x_rand.append(randgen.random_x_tuple(rng, n))
            g_rand.append(randgen.random_g_tuple(rng, n))
            t_rand.append(randgen.random_invariant_t_tuple(rng, n))
            yield

        # One round: 3 T-, 6 X- and 6 G-checks, odd-numbered ones mutated.
        # The G-checks are the cheapest and the T-checks the dearest, so the
        # median operation is an X-check.  The T-checks take most of the
        # round, so their tuples have a size that does not depend on the seed.
        t_tuples = [
            t_rand[0],
            times(to_t(qs_combination(2, seeded=False)), laurent_monomial(1)),
            shifted_sum(t_rand[1], to_t(qs_combination(1, seeded=False)), laurent_monomial()),
        ]
        yield
        x_tuples = [
            x_qs[0],
            x_qs[1],
            shifted_sum(x_rand[0], x_qs[2], laurent_monomial()),
            shifted_sum(x_qs[0], x_rand[1], laurent_monomial()),
            x_qs[2],
            shifted_sum(x_rand[1], x_qs[1], laurent_monomial()),
        ]
        g_tuples = [
            g_rand[0], g_qs[0], g_rand[1], g_qs[1],
            shifted_sum(g_rand[0], g_qs[2], x_monomial()),
            shifted_sum(g_qs[1], g_rand[1], x_monomial()),
        ]
        # (checker, tuple, mutated vertices as the oracle names them, model)
        self.cases = []
        for model, check, tuples, cls, key in (
            ("T", gkm.gkm_check_t, t_tuples, gkm.GKMTupleT, lambda w: w.window()),
            ("X", gkm.gkm_check_x, x_tuples, gkm.GKMTupleX, tuple),
            ("G", gkm.gkm_check_g, g_tuples, gkm.GKMTupleG, tuple),
        ):
            for k, f in enumerate(tuples):
                mutated = []
                if k % 2:
                    mutated = rng.sample(list(f.values), self.MUTATED_VERTICES)
                    f = cls(n, {v: p + 1 if v in mutated else p for v, p in f.values.items()})
                self.cases.append((check, f, {key(v) for v in mutated}, model))
                yield
        self.edges = None

    def warm_up(self):
        models = {model: (check, type(f)) for check, f, _, model in self.cases}
        for check, cls in models.values():
            check(cls.constant(self.N, 1))
            yield

    def ops(self):
        return [lambda check=check, f=f: check(f) for check, f, _, _ in self.cases]

    def check(self, outputs, first):
        if self.edges is None:
            self.edges = {"T": oracles.t_edges(self.N), "X": oracles.pair_edges(self.N)}
            self.edges["G"] = self.edges["X"]
        problems = []
        for k, (out, (_, f, mutated, model)) in enumerate(zip(outputs, self.cases)):
            if isinstance(out, Exception):
                continue
            reported = [(tuple(v.index), tuple(v.partner), tuple(v.edge)) for v in out]
            problems += oracles.violation_problems(
                reported, self.edges[model], mutated, f"{model}-tuple {k}")
            if first:
                problems += self._untouched_edges_vanish(f, mutated, model, k)
        return [], problems

    def _untouched_edges_vanish(self, f, mutated, model, k):
        # the expected violations assume the tuple was valid before the +1s:
        # a sample of the edges away from them must pass by evaluation
        values = {v.window() if model == "T" else v: p.terms for v, p in f.values.items()}
        untouched = [e for e in self.edges[model] if e[0] not in mutated and e[1] not in mutated]
        vanishes = {
            "T": oracles.t_edge_vanishes,
            "X": lambda a, b, e: oracles.x_edge_vanishes(a, b, *e),
            "G": lambda a, b, e: oracles.g_edge_vanishes(a, b, *e),
        }[model]
        return [
            f"{model}-tuple {k}: edge {a}-{b} fails the evaluation test"
            for a, b, e in _sample(self.check_rng, untouched, self.SAMPLE_EVAL_EDGES)
            if not vanishes(values[a], values[b], e)
        ]


# ---------------------------------------------------------------------------
# cells-n4
# ---------------------------------------------------------------------------


class CellsN4(Workload):
    """``bruhat_decompose`` and ``cell_index`` of seeded random invertible
    4x4 quaternion matrices, one matrix per operation."""

    N = 4
    MATRICES = 48

    def setup(self, seed):
        from qflagk import quatflag, randgen

        yield
        self.quatflag = quatflag
        rng = random.Random(f"cells:{seed}")
        self.matrices = []
        for _ in range(self.MATRICES + 1):
            self.matrices.append(randgen.random_invertible_matrix(rng, self.N))
            yield
        self.spare = self.matrices.pop()
        self.first_outputs = None

    def warm_up(self):
        self.quatflag.bruhat_decompose(self.spare)
        self.quatflag.cell_index(self.spare)
        yield

    def ops(self):
        qf = self.quatflag
        return [
            lambda g=g: (qf.bruhat_decompose(g), qf.cell_index(g)) for g in self.matrices
        ]

    def check(self, outputs, first):
        if not first:
            same = outputs == self.first_outputs
            return [], [] if same else ["cells: a round's outputs differ from the first round's"]
        self.first_outputs = outputs
        problems = []
        for k, (g, out) in enumerate(zip(self.matrices, outputs)):
            if isinstance(out, Exception):
                continue
            (u, tau, b), cell = out
            problems += oracles.decomposition_problems(
                _fractions(g), _fractions(u), tau, _fractions(b), cell, f"matrix {k}")
        return [], problems


def _fractions(m):
    return tuple(tuple((q.a, q.b, q.c, q.d) for q in row) for row in m.entries)


# ---------------------------------------------------------------------------
# cli-n3
# ---------------------------------------------------------------------------


class CliN3(Workload):
    """Every ``qflagk`` command at rank 3, each a fresh process."""

    N = 3
    TRIALS = 8
    SUITES = ("roots", "cells", "gkm-t", "schubert", "theorem1", "gkm-x",
              "theorem2", "presentation")
    # Each command runs in a child process, on whichever core is free, and
    # the two cores' speeds vary independently: a command's time and the
    # kernel run after it in this process correlated at 0.08 over 300
    # commands.  So after each command the kernel runs once on every core,
    # and every command of a round is scaled by the median of those means
    # over the round, which follows the host's drift from round to round.
    in_process = False

    def setup(self, seed):
        from qflagk import randgen, weylc

        yield
        n = self.N
        rng = random.Random(f"cli:{seed}")
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("QFLAGK_MAX_N", None)

        common = ["--n", str(n), "--seed", str(seed), "--format", "json"]
        self.commands = []  # (kind, argv, detail)
        for suite in self.SUITES:
            argv = ["verify", "--suite", suite, "--trials", str(self.TRIALS), *common]
            self.commands.append(("verify", argv + ["--jobs", "1"], suite))
            if suite == "gkm-t":
                self.commands.append(("verify", argv + ["--jobs", "2"], suite))
        self.commands.append(("schubert-all", ["schubert", "--all", *common], None))
        windows = sorted(w.window() for w in weylc.enumerate_weyl(n))
        window = rng.choice(windows)
        self.commands.append(
            ("schubert-w", ["schubert", "--w", json.dumps(list(window)), *common], window))
        for model, make, key in (
            ("T", lambda: randgen.random_t_tuple(rng, n), lambda w: w.window()),
            ("X", lambda: randgen.random_x_tuple(rng, n), tuple),
            ("G", lambda: randgen.random_g_tuple(rng, n), tuple),
        ):
            f = make()
            yield
            mutated = rng.sample(list(f.values), 2)
            bad = type(f)(n, {v: p + 1 if v in mutated else p for v, p in f.values.items()})
            marked = {key(v) for v in mutated}
            for label, tup, marks in (("valid", f, set()), ("mutated", bad, marked)):
                path = self.work / f"{model}-{label}.json"
                path.write_text(json.dumps(tup.to_json()))
                self.commands.append(
                    ("check", ["check", "--model", model, "--input", str(path), *common],
                     (model, marks)))
        g = randgen.random_invertible_matrix(rng, n)
        self.matrix = oracles.matrix_from_json(g.to_json())
        path = self.work / "matrix.json"
        path.write_text(json.dumps(g.to_json()))
        self.commands.append(("decompose", ["decompose", "--input", str(path), *common], None))
        self.commands.append(("cell-index", ["cell-index", "--input", str(path), *common], None))
        self.commands.append(("basis", ["basis", *common], None))
        self.trace_dirs = []
        self.first_outputs = None

    def warm_up(self):
        self._run(["basis", "--n", str(self.N)], traced=False)
        yield

    def _run(self, argv, traced):
        if traced:
            trace_dir = self.work / f"trace-{len(self.trace_dirs)}"
            trace_dir.mkdir()
            self.trace_dirs.append(trace_dir)
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(trace_dir), *argv]
        else:
            cmd = [sys.executable, "-m", "qflagk.cli", *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode()

    def ops(self):
        return [lambda argv=argv: self._run(argv, self.traced) for _, argv, _ in self.commands]

    def collect_trace(self, totals, factor):
        for trace_dir in self.trace_dirs:
            for path in sorted(trace_dir.iterdir()):
                data = json.loads(path.read_text())
                totals.fold(data["stats"], data["counts"], data["spans"], factor)
            shutil.rmtree(trace_dir)
        self.trace_dirs = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, outputs, first):
        normalized = [_without_wall_time(o) for o in outputs]
        failed = [self._known_failure(cmd, o) for cmd, o in zip(self.commands, outputs)]
        if not first:
            same = normalized == self.first_outputs
            return failed, [] if same else ["cli: a round's outputs differ from the first round's"]
        self.first_outputs = normalized
        problems = []
        by_kind = {}
        for (kind, argv, detail), out in zip(self.commands, outputs):
            if isinstance(out, Exception):
                continue
            by_kind.setdefault(kind, []).append((argv, detail, out))
        for argv, suite, (rc, text) in by_kind.get("verify", []):
            problems += _verify_problems(suite, rc, text)
        reports = [_without_wall_time((rc, text)) for argv, suite, (rc, text)
                   in by_kind.get("verify", []) if suite == "gkm-t"]
        if len(reports) == 2 and reports[0] != reports[1]:
            problems.append("verify gkm-t: --jobs 1 and --jobs 2 reports differ")
        problems += self._schubert_problems(by_kind)
        for argv, (model, marks), (rc, text) in by_kind.get("check", []):
            label = f"check {model} {'mutated' if marks else 'valid'}"
            if rc != (1 if marks else 0):
                problems.append(f"{label}: exit code {rc}")
                continue
            edges = oracles.t_edges(self.N) if model == "T" else oracles.pair_edges(self.N)
            reported = [(tuple(v["index"]), tuple(v["partner"]), tuple(v["edge"]))
                        for v in json.loads(text)["violations"]]
            problems += oracles.violation_problems(reported, edges, marks, label)
        problems += self._cell_problems(by_kind)
        for argv, _, (rc, text) in by_kind.get("basis", []):
            problems += _basis_problems(rc, json.loads(text) if rc == 0 else None)
        return failed, problems

    @staticmethod
    def _known_failure(command, out):
        # verify --suite theorem1 still checks a statement false for n >= 2
        kind, _, suite = command
        return (kind == "verify" and suite == "theorem1"
                and not isinstance(out, Exception) and out[0] == 1)

    def _schubert_problems(self, by_kind):
        problems = []
        table = None
        for argv, _, (rc, text) in by_kind.get("schubert-all", []):
            if rc != 0:
                return [f"schubert --all: exit code {rc}"]
            table = json.loads(text)
            classes = {tuple(json.loads(k)): v for k, v in table["classes"].items()}
            if sorted(classes) != sorted(oracles.signed_windows(self.N)):
                problems.append("schubert --all: the classes are not indexed by the group")
            edges = oracles.t_edges(self.N)
            for key, cls in classes.items():
                values = {tuple(json.loads(k)): oracles.terms_from_json(v)
                          for k, v in cls["values"].items()}
                problems += oracles.t_tuple_problems(values, edges, f"schubert --all class {key}")
        for argv, window, (rc, text) in by_kind.get("schubert-w", []):
            if rc != 0:
                problems.append(f"schubert --w: exit code {rc}")
            elif table is None or json.loads(text) != table["classes"][json.dumps(
                    list(window), separators=(",", ":"))]:
                problems.append(f"schubert --w {list(window)}: differs from schubert --all")
        return problems

    def _cell_problems(self, by_kind):
        if "decompose" not in by_kind or "cell-index" not in by_kind:
            return []
        rc_d, text_d = by_kind["decompose"][0][2]
        rc_c, text_c = by_kind["cell-index"][0][2]
        if rc_d != 0 or rc_c != 0:
            return [f"decompose/cell-index: exit codes {rc_d}/{rc_c}"]
        d = json.loads(text_d)
        return oracles.decomposition_problems(
            self.matrix, oracles.matrix_from_json(d["u"]), tuple(d["tau"]),
            oracles.matrix_from_json(d["b"]), tuple(json.loads(text_c)["tau"]), "decompose")


def _without_wall_time(out):
    if isinstance(out, Exception):
        return repr(out)
    rc, text = out
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return rc, text
    if isinstance(data, dict):
        data.pop("wall_time_s", None)
    return rc, data


def _verify_problems(suite, rc, text):
    label = f"verify {suite}"
    if rc not in (0, 1):
        return [f"{label}: exit code {rc}"]
    report = json.loads(text)
    violations = report["violations"]
    if report["passed"] + len(violations) != report["checks"]:
        return [f"{label}: passed + violations != checks"]
    if rc == 0:
        return [] if not violations else [f"{label}: exit 0 with violations"]
    if suite == "theorem1" and violations and all(
        v["check"] == "maxrep-invariance" for v in violations
    ):
        return []  # the known fault, counted as a failed operation
    return [f"{label}: exit 1 with {len(violations)} violations"]


def _basis_problems(rc, payload):
    if rc != 0:
        return [f"basis: exit code {rc}"]
    problems = []
    for key, window in payload["representatives"].items():
        tau = tuple(json.loads(key))
        lengths = [
            oracles.length(tuple(s * t for s, t in zip(signs, tau)))
            for signs in product((1, -1), repeat=len(tau))
        ]
        longest = max(lengths)
        if (tuple(abs(x) for x in window) != tau or lengths.count(longest) != 1
                or oracles.length(tuple(window)) != longest):
            problems.append(f"basis: {window} is not the longest element over {tau}")
    return problems


WORKLOADS = {
    "schubert-n4": SchubertN4,
    "membership-n4": MembershipN4,
    "cells-n4": CellsN4,
    "cli-n3": CliN3,
}


def run(args):
    tracer = None
    workload = WORKLOADS[args.workload]()
    workload.traced = bool(args.trace)
    if args.trace and workload.in_process:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_totals, totals = tracing.Totals(), tracing.Totals()

    def setup_intervals():
        yield from workload.setup(args.seed)
        if tracer:
            tracer.enabled = False
        yield from workload.warm_up()
        if tracer:
            tracer.enabled = True

    setup_scaled = setup_raw = 0.0
    start = args.started
    for _ in setup_intervals():
        elapsed = time.perf_counter() - start
        factor = refspeed.KERNEL_REFERENCE_S / refspeed.kernel_seconds()
        setup_raw += elapsed
        setup_scaled += elapsed * factor
        if tracer:
            setup_totals.fold_tracer(tracer, factor)
        start = time.perf_counter()
    result = {"setup_s": setup_scaled, "setup_raw_s": setup_raw}
    if args.setup_only:
        workload.close()
        return result

    # per operation of a round: its scaled and raw durations over the rounds
    scaled, raw = [], []
    attempted = failed = rounds = 0
    problems = []
    deadline = time.perf_counter() + args.seconds
    while True:
        outputs, elapsed, kernels = [], [], []
        for op in workload.ops():
            root = tracer.enter("bench.op") if tracer else None
            start = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted as a failed operation
                out = exc
                print(f"{args.workload}: operation raised {exc!r}", file=sys.stderr)
            elapsed.append(time.perf_counter() - start)
            if tracer:
                tracer.exit(root)
            kernels.append(refspeed.kernel_seconds() if workload.in_process
                           else refspeed.kernel_seconds_all_cores())
            if tracer:
                totals.fold_tracer(tracer, refspeed.KERNEL_REFERENCE_S / kernels[-1])
            outputs.append(out)
        if not workload.in_process:
            kernels = [statistics.median(kernels)] * len(kernels)
            if args.trace:
                workload.collect_trace(totals, refspeed.KERNEL_REFERENCE_S / kernels[0])
        if tracer:
            tracer.enabled = False
        known, round_problems = workload.check(outputs, first=rounds == 0)
        if tracer:
            tracer.enabled = True
        known = known or [False] * len(outputs)
        if not scaled:
            scaled = [[] for _ in outputs]
            raw = [[] for _ in outputs]
        for k, (out, is_known) in enumerate(zip(outputs, known)):
            attempted += 1
            if is_known or isinstance(out, Exception):
                failed += 1
            else:
                scaled[k].append(elapsed[k] * refspeed.KERNEL_REFERENCE_S / kernels[k])
                raw[k].append(elapsed[k])
        problems += round_problems
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    workload.close()
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result.update(
        attempted=attempted,
        failed=failed,
        rounds=rounds,
        problems=problems,
        durations=scaled,
        raw_durations=raw,
        peak_rss_kb=resource.getrusage(usage).ru_maxrss,
    )
    if args.trace:
        traced = refspeed.op_medians(scaled)
        result["per_layer"] = tracing.per_layer_metrics(setup_totals, totals, rounds)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "per_layer": result["per_layer"],
            "traced_ops_per_s": len(traced) / sum(traced) if traced else None,
            "traced_op_p50_ms": statistics.median(traced) * 1e3 if traced else None,
            "rounds": rounds,
            "setup_self_ms": setup_totals.self_ms,
            "self_ms": totals.self_ms,
            "calls": totals.calls,
            "counts": totals.counts,
            "spans": setup_totals.spans + totals.spans,
        }))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
