"""Cascaded cluster-level deformation fitting for dynamic Gaussian scenes.

A scene is a set of anisotropic 3D Gaussians (center, orientation quaternion,
per-axis scales). Frame-to-frame motion is modeled by a coarse-to-fine cascade
of cluster-level rigid-ish deformations plus per-Gaussian corrections; each
layer transports centers, and its local Jacobian transports covariances so
that orientations and scales stay consistent with the motion. Everything is
fit per frame by Adam on a composite loss (data + local rigidity + isometry +
rotation-consistency + scale hinge), with gradients from a small reverse-mode
tape over numpy.
"""

__version__ = "0.1.0"
