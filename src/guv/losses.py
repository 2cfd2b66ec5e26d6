"""Supervision and regularization terms for multi-view fitting.

Every term runs on tape variables or plain ndarrays (all math goes through
the grad facade). Weighting convention: l1_loss and depth_loss return raw
values (total_loss applies the depth weight); each regularizer returns its
weighted value, mirroring how the terms are quoted individually.

Perceptual and identity terms are out of scope (they need pretrained
networks).
"""
from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import grad as g
from .errors import InvalidArgumentError

# the objective's fixed weights: depth, coverage and each regularizer
DEPTH_WEIGHT = 0.1
COVERAGE_WEIGHT = 0.001
SILHOUETTE_WEIGHT = 1.0
VOLUME_WEIGHT = 1.0
TV_WEIGHT = 0.1
MESH_WEIGHT = 0.01
CODE_WEIGHT = 1e-4


def _check_shapes(a, b, what: str):
    va, vb = g.value(a), g.value(b)
    if va.shape != vb.shape:
        raise InvalidArgumentError(f"{what}: shape mismatch {va.shape} vs {vb.shape}")


def l1_loss(image, target):
    """Mean absolute pixel difference."""
    _check_shapes(image, target, "l1_loss")
    return g.mean(g.absolute(g.sub(image, target)))


def depth_loss(depth, target_depth, alpha_mask):
    """Mean squared depth error over pixels whose target opacity exceeds 0.5
    (depth is undefined in empty space). Empty mask: 0 with a warning."""
    _check_shapes(depth, target_depth, "depth_loss")
    mask = g.value(alpha_mask) > 0.5
    count = int(np.sum(mask))
    if count == 0:
        warnings.warn("depth_loss: no pixels with target alpha > 0.5; term is 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    diff = g.sub(depth, target_depth)
    return g.div(g.sum(g.mul(g.mul(diff, diff), mask.astype(np.float64))),
                 float(count))


def silhouette_loss(alpha, target_mask):
    """SILHOUETTE_WEIGHT * mean squared error between rendered and target
    opacity maps."""
    _check_shapes(alpha, target_mask, "silhouette_loss")
    diff = g.sub(alpha, target_mask)
    return g.mul(g.mean(g.mul(diff, diff)), SILHOUETTE_WEIGHT)


def volume_loss(radii):
    """VOLUME_WEIGHT * mean ellipsoid volume (4 pi / 3) r1 r2 r3 over texels."""
    r = radii
    vol = g.mul(g.mul(g.mul(r[..., 0], r[..., 1]), r[..., 2]), 4.0 * math.pi / 3.0)
    return g.mul(g.mean(vol), VOLUME_WEIGHT)


def tv_loss(centers, rotations, radii):
    """TV_WEIGHT * (1/N) * sum of absolute forward differences of the 9 pose
    channels over the UV grid (no wraparound at edges)."""
    pose = g.concatenate([centers, rotations, radii])
    n = float(g.value(centers).shape[0] * g.value(centers).shape[1])
    dv = g.sum(g.absolute(g.sub(pose[1:, :, :], pose[:-1, :, :])))
    dh = g.sum(g.absolute(g.sub(pose[:, 1:, :], pose[:, :-1, :])))
    return g.mul(g.add(dv, dh), TV_WEIGHT / n)


def mesh_loss(centers, anchors):
    """MESH_WEIGHT * (1/N) * sum of squared center-to-anchor distances."""
    d = g.sub(centers, anchors)
    n = float(g.value(centers).shape[0] * g.value(centers).shape[1])
    return g.mul(g.sum(g.mul(d, d)), MESH_WEIGHT / n)


def code_loss(z):
    """CODE_WEIGHT * ||z||^2, a unit-variance spherical Gaussian prior on the
    latent."""
    return g.mul(g.sum(g.mul(z, z)), CODE_WEIGHT)


def total_loss(outputs: dict, targets: dict, scene: dict, mean_influence, z):
    """Full objective: reconstruction + regularizers + latent prior.

    outputs: color/depth/alpha (rendered); targets: color, depth and mask;
    scene: centers/rotations/radii/anchors as (H, W, ...) grids.
    Coverage is COVERAGE_WEIGHT * mean_influence, the mean K-nearest
    influence at the ray samples that the render kernel returns. z: the
    latent code (its prior is the code term), or None in direct mode.
    Returns (total, breakdown); total is the sum of breakdown entries in
    key order.
    """
    breakdown = {
        "l1": l1_loss(outputs["color"], targets["color"]),
        "depth": g.mul(depth_loss(outputs["depth"], targets["depth"],
                                  targets["mask"]), DEPTH_WEIGHT),
        "silhouette": silhouette_loss(outputs["alpha"], targets["mask"]),
        "coverage": g.mul(mean_influence, COVERAGE_WEIGHT),
        "volume": volume_loss(scene["radii"]),
        "tv": tv_loss(scene["centers"], scene["rotations"], scene["radii"]),
        "mesh": mesh_loss(scene["centers"], scene["anchors"]),
    }
    if z is not None:
        breakdown["code"] = code_loss(z)
    return functools.reduce(g.add, breakdown.values()), breakdown
