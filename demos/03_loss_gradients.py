"""The adaptation loss and its exact per-sample gradients.

dist_loss chains distance -> embedding -> batch moments and returns the
derivative of the scalar with respect to every feature row, for all five
supported kinds. The package's four-point central difference
(geomoment.gradcheck.central_diff) on a few coordinates shows the
hand-derived chain rule is exact, and one explicit gradient step on the
target batch strictly decreases the distance.
"""

import numpy as np

from geomoment import DIST_KINDS, dist_loss
from geomoment.gradcheck import central_diff

rng = np.random.default_rng(2)
zs = rng.standard_normal((60, 3))
zt = 1.4 * rng.standard_normal((60, 3)) + [0.8, -0.3, 0.5]

print("loss values for one source/target batch pair:")
for kind in DIST_KINDS:
    print(f"  {kind:12s} {dist_loss(zs, zt, kind).value:.6f}")

print("\nfinite-difference check on 5 random coordinates (airm):")
le = dist_loss(zs, zt, "airm")
for _ in range(5):
    i, j = rng.integers(60), rng.integers(3)
    fd = central_diff(lambda z: dist_loss(zs, z, "airm").value, zt, (i, j))
    print(f"  coord ({i:2d},{j}): analytic {le.grad_target[i, j]:+.8f}  fd {fd:+.8f}")

print("\none gradient step of size 1e-2 on the target batch:")
for kind in ("airm", "hilbert"):
    le = dist_loss(zs, zt, kind)
    after = dist_loss(zs, zt - 1e-2 * le.grad_target, kind).value
    print(f"  {kind:8s} {le.value:.6f} -> {after:.6f}")
