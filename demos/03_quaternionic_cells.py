#!/usr/bin/env python3
"""The Bruhat cell structure of the quaternionic flag space.

Every invertible quaternionic matrix factors as u * p_tau * b with b upper
triangular and u unit upper triangular, supported on a constrained set of
positions of size equal to the inversion number of tau.  The permutation can
also be read off the flag directly, from the jumps of the intersection
dimensions with the coordinate subspaces.  The cell of tau has real
dimension 4 * inv(tau), and the closure order on cells is the Bruhat order
of the symmetric group.
"""

from qflagk.quatflag import bruhat_decompose, cell_index, free_positions, perm_matrix
from qflagk.randgen import random_invertible_matrix, random_upper_triangular, trial_rng
from qflagk.weylc import all_perms, bruhat_leq

n = 3
print("cells at rank 3, their dimensions and free coordinate slots:")
for tau in all_perms(n):
    free = free_positions(tau)
    print(f"  tau = {tau}: real dimension {4 * len(free)}, free slots {free}")
print()

rng = trial_rng(2026, 0)
g = random_invertible_matrix(rng, n)
u, tau, b = bruhat_decompose(g)
print("a random invertible matrix decomposes with tau =", tau)
print("  recomposition is exact:", u * perm_matrix(tau) * b == g)
print("  the flag of g computes the same cell:", cell_index(g) == tau)

bp = random_upper_triangular(rng, n)
u2, tau2, _ = bruhat_decompose(g * bp)
print("  right-multiplying by an upper triangular matrix changes nothing:",
      (u2, tau2) == (u, tau))
print()

print("closure order among the 3-letter cells (rows contain columns):")
perms = all_perms(n)
for a in perms:
    row = "".join("x" if bruhat_leq(b, a) else "." for b in perms)
    print(f"  {a}: {row}")
