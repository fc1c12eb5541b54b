"""Spans and counts at the program's layer boundaries, from outside the program.

``install(tracer)`` wraps the public functions and class methods of the
layers in place, under every name a caller looks up them by: ``gkm`` and
``randgen`` bind functions of other layers with ``from ... import``, and
``__rmul__`` is the same function as ``__mul__``.  Nothing in ``src/`` is
edited.  Spans (name, start, end, parent) are kept in memory, up to a cap,
and written out at the end; per-name calls and self time are kept for every
span, capped or not.  A span's self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import functools
import json
import time

MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.enabled = True
        self.reset()

    def reset(self):
        # name -> [calls, self_ns, total_ns] since the last fold
        self.pending = {}
        # extra counts (fails, terms, builds), never scaled
        self.counts = {}
        self.stack = []
        self.spans = []

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def enter(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        start = time.perf_counter_ns()
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, start, 0, parent])
        frame = [name, start, 0, index]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter_ns()
        self.stack.pop()
        name, start, child_ns, index = frame
        duration = end - start
        if index >= 0:
            self.spans[index][2] = end
        stat = self.pending.get(name)
        if stat is None:
            stat = self.pending[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration - child_ns
        stat[2] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name, fn, before=None, after=None, fails=None):
        """``fn`` inside a span; ``before(args)``/``after(result)`` add counts,
        ``fails`` names the exception counted as a failed call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if fails is not None and isinstance(exc, fails):
                    tracer.count(name + ".fails")
                raise
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def dump(self, path):
        """Write the pending stats, counts and spans as JSON (raw nanoseconds)."""
        payload = {"stats": self.pending, "counts": self.counts, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class Totals:
    """Stats folded over timed intervals, each at its own reference speed."""

    def __init__(self):
        self.self_ms = {}
        self.total_ms = {}
        self.calls = {}
        self.counts = {}
        self.spans = []

    def fold(self, stats, counts, spans, factor):
        for name, (calls, self_ns, total_ns) in stats.items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_ms[name] = self.self_ms.get(name, 0.0) + self_ns * factor / 1e6
            self.total_ms[name] = self.total_ms.get(name, 0.0) + total_ns * factor / 1e6
        for name, k in counts.items():
            self.counts[name] = self.counts.get(name, 0) + k
        self.spans.extend(spans[: max(0, MAX_SPANS - len(self.spans))])

    def fold_tracer(self, tracer, factor):
        self.fold(tracer.pending, tracer.counts, tracer.spans, factor)
        tracer.reset()


def _terms_in(tracer, args):
    tracer.count("ringcore.divide_exact.terms_in", len(args[0].terms))


def _terms_out(tracer, result):
    tracer.count("gkm.demazure.terms_out", sum(len(p.terms) for p in result.values.values()))


def _violations(name):
    def after(tracer, result):
        tracer.count(name + ".violations", len(result))

    return after


def _rebind(owners, original, replacement):
    """Rebind every attribute of the modules or classes that is ``original``."""
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, replacement)


def install(tracer):
    """Wrap the layers' functions for the per-layer metrics of the README."""
    from qflagk import cli, gkm, quatflag, randgen, ringcore, weylc
    import qflagk

    modules = [qflagk, ringcore, weylc, quatflag, gkm, randgen, cli]

    def fn(mod, attr, span_name, **hooks):
        original = getattr(mod, attr)
        _rebind(modules, original, tracer.wrap(span_name, original, **hooks))

    def method(cls, attr, span_name):
        original = vars(cls)[attr]
        _rebind([cls], original, tracer.wrap(span_name, original))

    fn(ringcore, "divide_exact", "ringcore.divide_exact",
       before=_terms_in, fails=ringcore.NotDivisible)
    fn(ringcore, "xpoly_divide_exact", "ringcore.xpoly_divide_exact",
       fails=ringcore.NotDivisible)
    fn(ringcore, "x_expand", "ringcore.x_expand")
    fn(weylc, "perm_compose", "weylc.perm_compose")
    fn(gkm, "demazure", "gkm.demazure", after=_terms_out)
    for model in "txg":
        name = f"gkm.gkm_check_{model}"
        fn(gkm, f"gkm_check_{model}", name, after=_violations(name))
    fn(gkm, "j_expand", "gkm.j_expand")
    fn(gkm, "pullback_pi", "gkm.pullback_pi")
    fn(gkm, "quaternionic_schubert_classes", "gkm.quaternionic_schubert_classes")
    fn(gkm, "schubert_table", "gkm.schubert_table")
    fn(quatflag, "bruhat_decompose", "quatflag.bruhat_decompose")
    fn(quatflag, "cell_index", "quatflag.cell_index")
    fn(randgen, "random_invertible_matrix", "randgen.random_invertible_matrix")
    fn(cli, "run_suite", "cli.run_suite")
    fn(cli, "_emit", "cli.emit")

    # a build is a miss of the table cache: count calls of the cached function
    build = gkm._schubert_table.__wrapped__

    @functools.wraps(build)
    def counted_build(n):
        if tracer.enabled:
            tracer.count("gkm.schubert_table.builds")
        return build(n)

    gkm._schubert_table = functools.lru_cache(maxsize=None)(counted_build)

    method(ringcore._PolyBase, "__init__", "ringcore.poly_new")
    method(ringcore._PolyBase, "__mul__", "ringcore.mul")  # also __rmul__
    for attr in ("__add__", "__sub__", "__rsub__"):  # __radd__ is __add__
        method(ringcore._PolyBase, attr, "ringcore.addsub")
    method(weylc.SignedPerm, "__mul__", "weylc.signedperm_mul")
    method(quatflag.Quaternion, "__mul__", "quatflag.quaternion_mul")
    method(quatflag.Quaternion, "inverse", "quatflag.quaternion_inverse")


# Per-layer metrics, in BENCHMARK.json order: (metric, source, unit).
# source is ("self", span), ("total", span), ("calls", span) or ("count", key).
PER_LAYER = [
    ("ringcore.poly_new.calls", ("calls", "ringcore.poly_new"), "count"),
    ("ringcore.poly_new.self_ms", ("self", "ringcore.poly_new"), "ms"),
    ("ringcore.mul.calls", ("calls", "ringcore.mul"), "count"),
    ("ringcore.mul.self_ms", ("self", "ringcore.mul"), "ms"),
    ("ringcore.addsub.calls", ("calls", "ringcore.addsub"), "count"),
    ("ringcore.addsub.self_ms", ("self", "ringcore.addsub"), "ms"),
    ("ringcore.divide_exact.calls", ("calls", "ringcore.divide_exact"), "count"),
    ("ringcore.divide_exact.fails", ("count", "ringcore.divide_exact.fails"), "count"),
    ("ringcore.divide_exact.terms_in", ("count", "ringcore.divide_exact.terms_in"), "count"),
    ("ringcore.divide_exact.self_ms", ("self", "ringcore.divide_exact"), "ms"),
    ("ringcore.xpoly_divide_exact.calls", ("calls", "ringcore.xpoly_divide_exact"), "count"),
    ("ringcore.xpoly_divide_exact.fails", ("count", "ringcore.xpoly_divide_exact.fails"), "count"),
    ("ringcore.xpoly_divide_exact.self_ms", ("self", "ringcore.xpoly_divide_exact"), "ms"),
    ("ringcore.x_expand.self_ms", ("self", "ringcore.x_expand"), "ms"),
    ("gkm.j_expand.self_ms", ("self", "gkm.j_expand"), "ms"),
    ("gkm.pullback_pi.self_ms", ("self", "gkm.pullback_pi"), "ms"),
    ("gkm.quaternionic_schubert_classes.self_ms",
     ("self", "gkm.quaternionic_schubert_classes"), "ms"),
    ("gkm.demazure.calls", ("calls", "gkm.demazure"), "count"),
    ("gkm.demazure.self_ms", ("self", "gkm.demazure"), "ms"),
    ("gkm.demazure.terms_out", ("count", "gkm.demazure.terms_out"), "count"),
    ("gkm.gkm_check_t.calls", ("calls", "gkm.gkm_check_t"), "count"),
    ("gkm.gkm_check_t.self_ms", ("self", "gkm.gkm_check_t"), "ms"),
    ("gkm.gkm_check_t.violations", ("count", "gkm.gkm_check_t.violations"), "count"),
    ("gkm.gkm_check_x.calls", ("calls", "gkm.gkm_check_x"), "count"),
    ("gkm.gkm_check_x.self_ms", ("self", "gkm.gkm_check_x"), "ms"),
    ("gkm.gkm_check_x.violations", ("count", "gkm.gkm_check_x.violations"), "count"),
    ("gkm.gkm_check_g.calls", ("calls", "gkm.gkm_check_g"), "count"),
    ("gkm.gkm_check_g.self_ms", ("self", "gkm.gkm_check_g"), "ms"),
    ("gkm.gkm_check_g.violations", ("count", "gkm.gkm_check_g.violations"), "count"),
    ("gkm.schubert_table.builds", ("count", "gkm.schubert_table.builds"), "count"),
    ("gkm.schubert_table.self_ms", ("self", "gkm.schubert_table"), "ms"),
    ("gkm.schubert_table.total_ms", ("total", "gkm.schubert_table"), "ms"),
    ("weylc.signedperm_mul.calls", ("calls", "weylc.signedperm_mul"), "count"),
    ("weylc.signedperm_mul.self_ms", ("self", "weylc.signedperm_mul"), "ms"),
    ("weylc.perm_compose.calls", ("calls", "weylc.perm_compose"), "count"),
    ("weylc.perm_compose.self_ms", ("self", "weylc.perm_compose"), "ms"),
    ("quatflag.bruhat_decompose.self_ms", ("self", "quatflag.bruhat_decompose"), "ms"),
    ("quatflag.cell_index.self_ms", ("self", "quatflag.cell_index"), "ms"),
    ("quatflag.quaternion_mul.calls", ("calls", "quatflag.quaternion_mul"), "count"),
    ("quatflag.quaternion_inverse.calls", ("calls", "quatflag.quaternion_inverse"), "count"),
    ("randgen.random_invertible_matrix.self_ms",
     ("self", "randgen.random_invertible_matrix"), "ms"),
    ("cli.import_ms", ("total", "cli.import"), "ms"),
    ("cli.run_suite.self_ms", ("self", "cli.run_suite"), "ms"),
    ("cli.emit.self_ms", ("self", "cli.emit"), "ms"),
]


def per_layer_metrics(setup, rounds, n_rounds):
    """Set-up totals plus the mean over the rounds of the timed totals.

    Every round repeats the same operations on the same inputs, so its
    counts are equal and the mean of a count is a whole number.
    """
    metrics = {}
    for metric, (kind, key), unit in PER_LAYER:
        value = sum(
            vars(t)[{"self": "self_ms", "total": "total_ms", "calls": "calls",
                     "count": "counts"}[kind]].get(key, 0) / share
            for t, share in ((setup, 1), (rounds, n_rounds))
        )
        if unit == "count":
            value = round(value)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
