#!/usr/bin/env python3
"""The three fixed-point models and the maps between them.

T-model: one Laurent polynomial per signed permutation, edge divisors
e^alpha - 1.  X-model: one Laurent polynomial per plain permutation, edge
divisors (x_mu x_nu^{-1} - 1)(x_mu x_nu - 1).  G-model: one X-polynomial per
plain permutation, edge divisors X_mu - X_nu.  Pulling back along the
quotient of fixed points identifies the X-model with the sign-change
invariant part of the T-model; expanding X_v = x_v + x_v^{-1} identifies the
G-model with the sign-symmetric part of the X-model.
"""

from qflagk.gkm import (
    canonical_class,
    descend_pi,
    gkm_check_g,
    gkm_check_t,
    gkm_check_x,
    j_descend,
    j_expand,
    presentation_check,
    pullback_pi,
)
from qflagk.randgen import random_x_tuple, trial_rng
from qflagk.ringcore import sigma_k
from qflagk.weylc import all_perms

n = 2
print("quotient-bundle classes in the G-model:")
for nu in (1, 2):
    c = canonical_class(nu, n)
    print(f"  class {nu}: " + ", ".join(f"{tau} -> {c.values[tau]}" for tau in all_perms(n)))
print()

print("componentwise elementary symmetric polynomials of those classes are constant:")
classes = [canonical_class(nu, n) for nu in (1, 2)]
for k in (1, 2):
    print(f"  k={k}: {sigma_k(k, classes).values}")
print("presentation relations verified in both models:", presentation_check(n) == [])
print()

c1x = j_expand(classes[0])
print("expanding class 1 into the X-model:")
for tau in all_perms(n):
    print(f"  {tau} -> {c1x.values[tau]}")
print("it passes the X-model membership check:", gkm_check_x(c1x) == [])
print("and descends back:", j_descend(c1x) == classes[0])
print()

fx = random_x_tuple(trial_rng(1, 0), n)
ft = pullback_pi(fx)
print("a random valid X-model tuple pulls back to a valid T-model tuple:",
      gkm_check_t(ft) == [])
print("and the pullback remembers where it came from:", descend_pi(ft) == fx)
