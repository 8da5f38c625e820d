"""Why the Hilbert distance is a meaningful adaptation objective.

For discrete distributions, total variation (factor-2 convention) is
bounded by 2 tanh(d_H / 4), and the hypothesis-class discrepancy that
controls the target error is itself below total variation. The sweep
samples Dirichlet pairs and reports the slack of the bound; the worked
pair (0.5, 0.5) vs (0.25, 0.75) is printed exactly.
"""

import numpy as np

from geomoment import DiscreteDist, check_target_bound, fisher_rao_univariate

rng = np.random.default_rng(3)

res = check_target_bound([0.5, 0.5], [0.25, 0.75])
print(f"worked pair: tv = {res.lhs}, 2 tanh(d_H/4) = {res.rhs:.6f}, slack = {res.slack:.6f}")

print("\nrandom sweep over support sizes 2..8:")
violations = 0
slacks = []
for _ in range(5000):
    k = int(rng.integers(2, 9))
    p = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
    q = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
    r = check_target_bound(DiscreteDist(p / p.sum()), DiscreteDist(q / q.sum()))
    violations += not r.holds
    slacks.append(r.slack)
print(f"  pairs: 5000, violations: {violations}")
print(f"  slack min/median/max: {min(slacks):.4f} / {np.median(slacks):.4f} / {max(slacks):.4f}")

print("\nthe embedded affine-invariant distance never exceeds Fisher-Rao (univariate):")
for mu2, s2 in ((0.5, 1.0), (0.0, 2.0), (1.5, 0.4)):
    from geomoment import GaussianMoments, dist_airm, embed

    P1 = embed(GaussianMoments(mean=[0.0], cov=[[1.0]]))
    P2 = embed(GaussianMoments(mean=[mu2], cov=[[s2**2]]))
    dA = dist_airm(P1, P2)
    dF = fisher_rao_univariate(0.0, 1.0, mu2, s2)
    print(f"  N(0,1) vs N({mu2},{s2}^2): d_A = {dA:.6f} <= d_F = {dF:.6f}")
