"""Each output check of the benchmark rejects a corrupted output.

    python3 -m unittest discover -s bench -p 'test_*.py'

Small ranks only, so the whole file runs in seconds.
"""

import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from qflagk import gkm, quatflag, randgen, weylc  # noqa: E402


def t_values(tup):
    return {w.window(): p.terms for w, p in tup.values.items()}


class SmallSchubert(workloads.SchubertN4):
    """The schubert-n4 replay at rank 3, with every sample taken whole."""

    N = 3
    MAX_LENGTH = 4
    SAMPLE_EVAL_CLASSES = SAMPLE_EVAL_EDGES = SAMPLE_DESCENTS = SAMPLE_SECOND_WORDS = 10**6


def replay(corrupt_call=None):
    """One round of the replay and its check; the Demazure call numbered
    ``corrupt_call`` returns one quotient with its sign flipped."""
    workload = SmallSchubert()
    for _ in workload.setup(seed=1):
        pass
    real = gkm.demazure
    calls = []

    def demazure(i, f):
        out = real(i, f)
        calls.append(i)
        if len(calls) - 1 != corrupt_call:
            return out
        values = dict(out.values)
        w = next(w for w, p in values.items() if p)
        values[w] = -values[w]
        return gkm.GKMTupleT(out.rank, values)

    gkm.demazure = demazure
    try:
        ops = workload.ops()  # binds the corrupted function
    finally:
        gkm.demazure = real
    for op in ops:
        op()
    return workload.check([None] * len(ops), first=True)


class SchubertOracles(unittest.TestCase):
    def test_replayed_classes_pass(self):
        self.assertEqual(replay(), ([], []))

    def test_flipped_sign_on_one_demazure_quotient_is_rejected(self):
        # classes of the top length are no step's input, so the corrupted
        # class reaches the checks instead of failing a later division
        workload = SmallSchubert()
        for _ in workload.setup(seed=1):
            pass
        steps = len(workload.steps)
        for call in (steps - 1, steps - 4, steps - 7):
            _, problems = replay(corrupt_call=call)
            self.assertTrue(problems, call)

    def test_changed_coefficient_fails_the_evaluation_test(self):
        table = gkm.schubert_table(3)
        edges = oracles.t_edges(3)
        for w, cls in table.classes.items():
            values = t_values(cls)
            self.assertEqual(oracles.t_tuple_problems(values, edges, str(w)), [])
        cls = table.classes[weylc.SignedPerm.from_window((2, -3, 1))]
        values = t_values(cls)
        key = next(k for k, terms in values.items() if terms)
        exps, c = next(iter(values[key].items()))
        values[key] = {**values[key], exps: c + 1}
        self.assertTrue(oracles.t_tuple_problems(values, edges, "changed"))


class EvaluationOracles(unittest.TestCase):
    def test_x_and_g_edges(self):
        classes = gkm.quaternionic_schubert_classes(3)
        tau = (3, 1, 2)
        g = classes[tau]
        x = gkm.j_expand(g)
        for a, b, (mu, nu) in oracles.pair_edges(3):
            self.assertTrue(oracles.g_edge_vanishes(g.values[a].terms, g.values[b].terms, mu, nu))
            self.assertTrue(oracles.x_edge_vanishes(x.values[a].terms, x.values[b].terms, mu, nu))
        a, b, (mu, nu) = next(e for e in oracles.pair_edges(3) if e[0] == tau or e[1] == tau)
        bumped = (g.values[a] + 1).terms
        self.assertFalse(oracles.g_edge_vanishes(bumped, g.values[b].terms, mu, nu))
        bumped = (x.values[a] + 1).terms
        self.assertFalse(oracles.x_edge_vanishes(bumped, x.values[b].terms, mu, nu))


class MembershipOracle(unittest.TestCase):
    def test_violations_are_the_edges_with_one_mutated_end(self):
        rng = random.Random(3)
        f = randgen.random_x_tuple(rng, 3)
        mutated = [(1, 2, 3), (2, 1, 3), (3, 2, 1)]
        bad = gkm.GKMTupleX(3, {t: p + 1 if t in mutated else p for t, p in f.values.items()})
        reported = [(v.index, v.partner, v.edge) for v in gkm.gkm_check_x(bad)]
        edges = oracles.pair_edges(3)
        self.assertEqual(oracles.violation_problems(reported, edges, mutated, "x"), [])
        self.assertTrue(oracles.violation_problems(reported[1:], edges, mutated, "x"))
        self.assertTrue(oracles.violation_problems(reported, edges, mutated[:2], "x"))
        self.assertEqual(oracles.violation_problems([], edges, [], "valid"), [])

    def test_t_edges_match_the_checker(self):
        f = gkm.GKMTupleT(2, {
            w: gkm.LaurentPoly.constant(2, 1 if w.window() == (1, 2) else 0)
            for w in weylc.enumerate_weyl(2)
        })
        reported = [(v.index, v.partner, v.edge) for v in gkm.gkm_check_t(f)]
        self.assertEqual(
            oracles.violation_problems(reported, oracles.t_edges(2), [(1, 2)], "t"), [])


class CellOracle(unittest.TestCase):
    def test_wrong_entry_of_u_is_rejected(self):
        g = randgen.random_invertible_matrix(random.Random(5), 3)
        u, tau, b = quatflag.bruhat_decompose(g)
        cell = quatflag.cell_index(g)
        fr = workloads._fractions
        self.assertEqual(oracles.decomposition_problems(fr(g), fr(u), tau, fr(b), cell, "g"), [])
        wrong = [list(row) for row in fr(u)]
        wrong[0][2] = oracles.qadd(wrong[0][2], oracles.ONE)
        self.assertTrue(oracles.decomposition_problems(fr(g), wrong, tau, fr(b), cell, "g"))
        wrong = [list(row) for row in fr(u)]
        wrong[2][0] = oracles.ONE
        self.assertTrue(oracles.decomposition_problems(fr(g), wrong, tau, fr(b), cell, "g"))

    def test_quaternion_product_matches_hamilton(self):
        i, j, k = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        self.assertEqual(oracles.qmul(i, j), k)
        self.assertEqual(oracles.qmul(j, i), tuple(-x for x in k))
        self.assertEqual(oracles.qmul(i, i), (-1, 0, 0, 0))


class CliChecks(unittest.TestCase):
    def report(self, violations, checks=10):
        import json

        return json.dumps({"checks": checks, "passed": checks - len(violations),
                           "violations": violations})

    def test_theorem1_failure_is_only_the_known_one(self):
        known = [{"check": "maxrep-invariance"}] * 3
        self.assertEqual(workloads._verify_problems("theorem1", 1, self.report(known)), [])
        other = known + [{"check": "expansion-recovery"}]
        self.assertTrue(workloads._verify_problems("theorem1", 1, self.report(other)))
        self.assertTrue(workloads._verify_problems("roots", 1, self.report(known)))
        self.assertTrue(workloads._verify_problems("roots", 3, self.report([])))
        self.assertEqual(workloads._verify_problems("roots", 0, self.report([])), [])

    def test_basis_rejects_a_shorter_representative(self):
        reps = {"[1,2]": [-1, -2], "[2,1]": [-2, -1]}
        self.assertEqual(workloads._basis_problems(0, {"representatives": reps}), [])
        reps["[2,1]"] = [2, -1]
        self.assertTrue(workloads._basis_problems(0, {"representatives": reps}))


if __name__ == "__main__":
    unittest.main()
