"""Homography-slab camera pose loss, baseline pose-regression losses, exact
closed-form gradients, and a desk-scale pose-refinement harness.

Each name is imported from its module (`homoloss.scene`, `homoloss.optim`,
...); the package itself exports only `__version__`."""

__version__ = "0.1.0"
