#!/usr/bin/env python3
"""Schubert classes as tuples of character restrictions.

The class of the base point is the K-theoretic Euler product at the identity;
applying Demazure operators along reduced words fills in the whole basis.
The class at the longest element is the constant tuple 1, which pins the two
sign conventions in the recursion.
"""

from qflagk.gkm import (
    demazure,
    expand_in_schubert,
    gkm_check_t,
    point_class,
    schubert_table,
)
from qflagk.randgen import random_maxrep_combination, trial_rng
from qflagk.weylc import enumerate_weyl, length, max_length_rep, perm_identity

n = 2
table = schubert_table(n)
print(f"rank {n}: {len(table.classes)} classes, convention {table.convention}")
print()

print("the point class:")
pc = point_class(n)
for w in enumerate_weyl(n):
    if pc.values[w]:
        print(f"  at {w.window()}: {pc.values[w]}")
print()

print("one Demazure step (operator 1):")
step = demazure(1, pc)
for w in enumerate_weyl(n):
    if step.values[w]:
        print(f"  at {w.window()}: {step.values[w]}")
print()

w0 = max_length_rep(perm_identity(n))
print("the class at the longest element", w0.window(), "is constant:",
      all(p == 1 for p in table.classes[w0].values.values()))
print("every class passes the edge-divisibility membership test:",
      all(not gkm_check_t(c) for c in table.classes.values()))
print("supports are triangular in the Bruhat order (zeros above):")
for w in sorted(enumerate_weyl(n), key=length):
    support = [v.window() for v in enumerate_weyl(n) if table.classes[w].values[v]]
    print(f"  class {str(w.window()):>10}: support {support}")
print()

combo, coeffs = random_maxrep_combination(trial_rng(7, 0), n)
got = expand_in_schubert(combo, list(coeffs), table)
print("a random combination of two classes is recovered exactly:", got == coeffs)
