"""Lloyd's K-means with multi-restart selection.

Used to initialise cluster centroids on the latent space and as the
standalone clustering baseline. Deterministic per seed: each restart gets
a fixed sub-seed and the restart with minimal inertia (ties broken by
restart index) wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .network import all_finite

DEFAULT_RESTARTS = 80  # Lloyd runs per fit; the lowest inertia wins
MAX_ITER = 300  # Lloyd iterations per run at most
TOL = 1e-6  # a run stops once every centroid moves less than this


@dataclass
class KmeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float


def _squared_distances(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = z[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


def _lloyd(z: np.ndarray, k: int, rng: np.random.Generator):
    n = z.shape[0]
    centroids = z[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(MAX_ITER):
        d2 = _squared_distances(z, centroids)
        assignments = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = assignments == j
            if members.any():
                new_centroids[j] = z[members].mean(axis=0)
        # repair empty clusters with the point farthest from its centroid
        for j in range(k):
            if not (assignments == j).any():
                dist_own = d2[np.arange(n), assignments]
                far = int(np.argmax(dist_own))
                new_centroids[j] = z[far]
                d2 = _squared_distances(z, new_centroids)
                assignments = np.argmin(d2, axis=1)
        shift = np.max(np.linalg.norm(new_centroids - centroids, axis=1))
        centroids = new_centroids
        if shift < TOL:
            break
    d2 = _squared_distances(z, centroids)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    return centroids, assignments, inertia


def kmeans_fit(z: np.ndarray, k: int, restarts: int = DEFAULT_RESTARTS,
               seed: int = 0) -> KmeansResult:
    """Best-of-restarts Lloyd clustering; deterministic per seed.

    Raises NumericError when z holds a NaN or an inf, or fewer than k
    distinct points.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValidationError("data must be 2-D")
    n = z.shape[0]
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n < k:
        raise ValidationError(f"need at least k={k} samples, got {n}")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    # checked first: np.unique would count an all-inf z as one distinct point
    if not all_finite(z):
        raise NumericError("k-means points hold a NaN or an inf")
    # fewer distinct points than k force coincident centroids and an empty
    # cluster, as a collapsed latent (every unit dead) gives
    distinct = len(np.unique(z, axis=0))
    if distinct < k:
        raise NumericError(f"degenerate cluster: {distinct} distinct point(s) "
                           f"among {n}, fewer than k={k}")

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        centroids, assignments, inertia = _lloyd(z, k, rng)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, assignments)
    inertia, centroids, assignments = best
    return KmeansResult(centroids=centroids, assignments=assignments, inertia=inertia)
