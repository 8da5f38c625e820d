"""Packing a (mean, covariance) pair into one SPD matrix.

The block matrix [[Sigma + mu mu', mu], [mu', 1]] is SPD exactly when
Sigma is, so first and second moments travel together as a single point
on the SPD manifold and any SPD distance compares both at once. The
corner entry is 1, making the map invertible on its image, and the
determinant of the embedded matrix equals det(Sigma), which is what the
training gate monitors.
"""

import numpy as np

from geomoment import batch_moments, embed, schur_gate, unembed

rng = np.random.default_rng(1)

z = rng.standard_normal((200, 3)) @ np.diag([1.0, 0.5, 2.0]) + [1.0, -2.0, 0.0]
m = batch_moments(z)
print("batch mean:", np.round(m.mean, 3))
print("batch covariance:\n", np.round(m.cov, 3))

P = embed(m)
print("\nembedded 4x4 SPD matrix:\n", np.round(P, 3))
print("corner entry:", P[3, 3])

back = unembed(P)
print("\nround trip max error:",
      max(np.abs(back.mean - m.mean).max(), np.abs(back.cov - m.cov).max()))

print("\ndeterminant gate:")
print("  healthy batch:", schur_gate(m, eta=1e-8))
collapsed = batch_moments(np.tile(z[0], (50, 1)))
print("  collapsed batch (identical rows):", schur_gate(collapsed, eta=1e-8))
